"""The sqftori benchmark: time to verdict, set-up time and memory per workload.

Run from the root of a source checkout (the package is loaded from
``src/`` there, nothing is installed):

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

Every workload is a fixed configuration; ``--seed`` is recorded in the
result file but changes no input.  Cold workloads start a fresh
interpreter per CLI invocation, because CLI users pay for empty caches on
every run; they repeat invocations until ``--seconds`` have passed (at
least one) and add a few import-only interpreters so ``setup_s`` is a
median.  ``warm-library`` sets up once and repeats ``verify_all`` in one
process.  Every output is checked against the timing-free digest in
``expected.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reruns the
workload untraced and traced and reports the per-layer metrics of
tracer.py, plus the tracing overhead.  A human-readable table goes first;
the last line of standard output is the JSON result.  The full result
(every sample, the versions and the seed) is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
IMPORT_ONLY_SETUPS = 5
#: every child of one run must end this long after the run starts (the run's limit is 180 s)
RUN_DEADLINE_S = 170

#: name -> (mode, sqftori CLI arguments)
WORKLOADS = {
    "verify-default": ("cold", ["verify", "all"]),
    "symbolic-n12": ("cold", ["verify", "all", "--budget", "3", "--n-max", "12"]),
    "oracle-disc": (
        "cold",
        ["sqfree", "discriminant", "--prime", "3", "--prime", "5", "--prime", "7", "--format", "json"],
    ),
    "warm-library": ("warm", []),
}

#: how a run's samples become its end-to-end value.  Wall time is the mean time
#: per verdict: on a shared host each CPU's speed flips between two modes about
#: 1.5x apart for seconds to minutes, and the median of a few samples snaps to
#: one mode, so it spreads more between runs than the mean does.
E2E_AGGREGATE = {"wall_s": statistics.fmean, "setup_s": statistics.median, "peak_rss_mib": statistics.median}


class Run:
    """Samples and failure counts of one benchmark run of one workload."""

    def __init__(self, workload: str, expected: dict):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.layers: list[dict] = []
        self._seq = 0
        self._deadline = time.monotonic() + RUN_DEADLINE_S

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def fail(self, what: str) -> None:
        """Count every report of one output as failed."""
        self.attempted += self.expected["reports"]
        self.failed += self.expected["reports"]
        self.problems.append(what)

    def check(self, digest: str | None, reports: int | None, what: str) -> bool:
        """Count one output; it passes only with the recorded digest and size."""
        if digest == self.expected["sha256"] and reports == self.expected["reports"]:
            self.attempted += self.expected["reports"]
            return True
        self.fail(f"{what}: {reports} reports with digest {digest}")
        return False

    def spawn(self, mode: str, opts: list[str] = (), cli_args: list[str] = (), stdout_path=None) -> dict:
        """Start one child interpreter, wait for it, return its result record."""
        self._seq += 1
        timeout = self._deadline - time.monotonic()
        if timeout <= 0:
            return {"error": f"no time left for a {mode} child within {RUN_DEADLINE_S} s"}
        result_path = OUT_DIR / f"child-{self._seq}.json"
        result_path.unlink(missing_ok=True)
        args = ["--result", str(result_path), *opts, mode]
        if cli_args:
            args += ["--", *cli_args]
        env = dict(os.environ, PYTHONPATH="src")
        stdout = open(stdout_path, "w", encoding="utf-8") if stdout_path else subprocess.DEVNULL
        try:
            # the start time is read last, so set-up includes only process start-up
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--t0", repr(child.monotonic()), *args],
                stdout=stdout,
                stderr=subprocess.PIPE,
                env=env,
                timeout=timeout,
                text=True,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return {"error": f"{mode} child still running {RUN_DEADLINE_S} s into the run"}
        finally:
            if stdout_path:
                stdout.close()
        if not result_path.exists():
            return {"error": f"{mode} child exited {proc.returncode} without a result: {proc.stderr[-2000:]}"}
        record = json.loads(result_path.read_text(encoding="utf-8"))
        if proc.returncode != 0:
            record.setdefault("error", f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        return record

    def usable(self, record: dict, what: str) -> bool:
        """False (and the output counted as failed) if the child raised or loaded the wrong package."""
        if "error" in record:
            self.fail(f"{what}: {record['error'].strip().splitlines()[-1]}")
            return False
        src = (Path("src") / "sqftori").resolve()
        if Path(record["sqftori_file"]).resolve().parent != src:
            self.fail(f"{what}: imported sqftori from {record['sqftori_file']}, not {src}")
            return False
        return True


# ---------------------------------------------------------------------------
# cold workloads: one fresh interpreter per CLI invocation
# ---------------------------------------------------------------------------


def cold_invocation(run: Run, argv: list[str], traced: bool) -> dict | None:
    """One CLI invocation; returns its record if its output is correct."""
    stdout_path = OUT_DIR / f"output-{run.workload}.txt"
    opts = ["--trace", "--spans", str(OUT_DIR / f"spans-{run.workload}.json")] if traced else []
    record = run.spawn("cold", opts, argv, stdout_path)
    what = ("traced " if traced else "") + "invocation"
    if not run.usable(record, what):
        return None
    if record["exit_code"] != 0:
        run.fail(f"{what}: sqftori exited {record['exit_code']}")
        return None
    try:
        digest, reports = child.timing_free_digest(stdout_path.read_text(encoding="utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        run.fail(f"{what}: output is not a JSON report ({exc})")
        return None
    return record if run.check(digest, reports, what) else None


def measure_cold(run: Run, argv: list[str], seconds: float, trace: bool) -> None:
    passes = [False, True] if trace else [False]
    for traced in passes:
        began = time.perf_counter()
        done = 0
        while not done or time.perf_counter() - began < seconds:
            done += 1
            record = cold_invocation(run, argv, traced)
            if record is None:
                break
            if traced:
                run.sample("traced_wall_s", record["wall_s"])
                run.layers.append(record["layers"])
            else:
                for key in ("wall_s", "setup_s", "peak_rss_mib", "cpu_s"):
                    run.sample(key, record[key])
    if not trace:
        for _ in range(IMPORT_ONLY_SETUPS):
            record = run.spawn("import")
            if "error" not in record:
                run.sample("setup_s", record["setup_s"])


# ---------------------------------------------------------------------------
# the warm workload: one process, caches filled by the set-up
# ---------------------------------------------------------------------------


def measure_warm(run: Run, seconds: float, trace: bool) -> None:
    opts = ["--seconds", repr(seconds)]
    if trace:
        opts += ["--trace", "--spans", str(OUT_DIR / f"spans-{run.workload}.json")]
    record = run.spawn("warm", opts)
    if not run.usable(record, "warm process"):
        return
    run.check(record["setup_digest"], record["setup_reports"], "cold set-up")
    run.sample("setup_s", record["setup_s"])
    run.sample("peak_rss_mib", record["peak_rss_mib"])
    for i, it in enumerate(record["iterations"]):
        if run.check(it["digest"], it["reports"], f"iteration {i}"):
            run.sample("wall_s", it["wall_s"])
            run.sample("cpu_s", it["cpu_s"])
    for i, it in enumerate(record.get("traced_iterations", [])):
        if run.check(it["digest"], it["reports"], f"traced iteration {i}"):
            run.sample("traced_wall_s", it["wall_s"])
            run.layers.append(it["layers"])


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def per_layer_metrics(run: Run) -> dict[str, float]:
    """Median (the lower one for an even count, so counts stay whole) of each layer
    metric over the traced passes, plus CPU time and tracing overhead."""
    names = list(run.layers[0]) if run.layers else []
    out = {name: statistics.median_low(layer[name] for layer in run.layers) for name in names}
    if "cpu_s" in run.samples:
        out["process.cpu_s"] = statistics.median(run.samples["cpu_s"])
    if "wall_s" in run.samples and "traced_wall_s" in run.samples:
        out["trace.overhead_ratio"] = statistics.fmean(run.samples["traced_wall_s"]) / statistics.fmean(
            run.samples["wall_s"]
        )
    return out


def load_metric_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment(seed: int) -> dict:
    """What a result depends on besides the code, so results from other machines can be flagged."""
    import numpy

    commit = None
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        src_hash.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """Measure one workload, print its table, write its result file, return the result."""
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))[workload]
    mode, cli_args = WORKLOADS[workload]
    run = Run(workload, expected)
    if mode == "cold":
        measure_cold(run, cli_args, seconds, trace)
    else:
        measure_warm(run, seconds, trace)

    if trace:
        values = per_layer_metrics(run)
    else:
        values = {k: agg(run.samples[k]) for k, agg in E2E_AGGREGATE.items() if k in run.samples}
    result = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "correct": run.attempted > 0 and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "problems": run.problems,
        "samples": run.samples,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    out_path = OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for problem in run.problems:
        print(f"FAILED: {problem}")
    counts = ", ".join(f"{k} x{len(v)}" for k, v in run.samples.items())
    print(f"{workload} (seed {seed}, samples: {counts})")
    print(f"  {'fail_ratio':<34} {result['fail_ratio']:>14.6g} ratio  ({run.failed} of {run.attempted} reports)")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqftori benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True, help="recorded; the inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "sqftori" / "cli.py").is_file():
        print("error: run from the root of a sqftori checkout (src/sqftori not found)", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    units = load_metric_units()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), units) for w in workloads]

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:  # one line for all workloads: metric names get the workload as prefix
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": max(attempted, 1),
        "failed": sum(r["failed"] for r in results) if attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
