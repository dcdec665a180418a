"""One measured sqftori process, started fresh by run.py.

    python3 child.py --result R.json --t0 T import
    python3 child.py --result R.json --t0 T [--trace --spans S.json] cold -- <sqftori CLI args>
    python3 child.py --result R.json --t0 T --seconds N [--trace --spans S.json] warm

``T`` is the CLOCK_MONOTONIC reading the parent took just before it
started this interpreter, so ``setup_s`` runs from process start to the
end of importing the package and its CLI module.

``cold`` calls ``sqftori.cli.main`` once; its standard output is the
CLI's report, which run.py checks.  ``warm`` builds every cache with one
``verify_all`` and then repeats ``verify_all`` + ``reports_to_json`` for
N seconds untraced and, with --trace, N more seconds traced.  The
measurements go to R.json as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

import tracer


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def timing_free_digest(text: str) -> tuple[str, int]:
    """sha256 of a ``--format json`` report with every ``elapsed_ms`` removed,
    re-serialized the way the CLI serializes; also the number of reports."""
    payload = json.loads(text)
    for report in payload["reports"]:
        report.pop("elapsed_ms", None)
    canonical = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest(), len(payload["reports"])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cold(args, pkg, out: dict) -> None:
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install(pkg)
    before = tracer.cache_snapshot(pkg)
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        out["exit_code"] = pkg.cli.main(args.cli_args)
    finally:
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = time.process_time() - cpu0
        sys.stdout.flush()
    if tr is not None:
        tr.restore()
        caches = tracer.cache_delta(before, tracer.cache_snapshot(pkg))
        out["layers"] = tracer.layer_metrics(tr.spans(), tr.counts, caches)
        out["spans"] = len(tr.span_start)
        tr.dump(args.spans)


def _iterate(pkg, config, seconds: float, tr=None) -> list[dict]:
    """Warm iterations for `seconds` (at least one); one record each."""
    records = []
    began = time.perf_counter()
    while not records or time.perf_counter() - began < seconds:
        first_span = len(tr.span_start) if tr is not None else 0
        counts_before = dict(tr.counts) if tr is not None else {}
        before = tracer.cache_snapshot(pkg)
        cpu0 = time.process_time()
        start = time.perf_counter()
        reports = pkg.suites.verify_all(config)
        text = pkg.report.reports_to_json(config, reports)
        wall = time.perf_counter() - start
        record = {"wall_s": wall, "cpu_s": time.process_time() - cpu0}
        if tr is not None:
            counts = {k: v - counts_before.get(k, 0) for k, v in tr.counts.items()}
            caches = tracer.cache_delta(before, tracer.cache_snapshot(pkg))
            record["layers"] = tracer.layer_metrics(tr.spans(first_span), counts, caches)
        record["digest"], record["reports"] = timing_free_digest(text)
        records.append(record)
    return records


def _warm(args, pkg, out: dict) -> None:
    config = pkg.report.RunConfig(output_format="json")
    cold_reports = pkg.suites.verify_all(config)
    out["setup_s"] = monotonic() - args.t0
    out["setup_digest"], out["setup_reports"] = timing_free_digest(
        pkg.report.reports_to_json(config, cold_reports)
    )
    del cold_reports
    out["iterations"] = _iterate(pkg, config, args.seconds)
    if args.trace:
        tr = tracer.Tracer()
        tr.install(pkg)
        try:
            out["traced_iterations"] = _iterate(pkg, config, args.seconds, tr)
        finally:
            tr.restore()
        out["spans"] = len(tr.span_start)
        tr.dump(args.spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("mode", choices=("import", "cold", "warm"))
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()

    out: dict = {"mode": args.mode}
    try:
        import sqftori
        import sqftori.cli  # noqa: F401  (the CLI module is part of set-up)

        if args.mode != "warm":
            out["setup_s"] = monotonic() - args.t0
        out["sqftori_file"] = sqftori.__file__
        if args.mode == "cold":
            _cold(args, sqftori, out)
        elif args.mode == "warm":
            _warm(args, sqftori, out)
    except Exception:  # the parent counts the run as failed and shows this
        out["error"] = traceback.format_exc()
    out["peak_rss_mib"] = peak_rss_mib()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
