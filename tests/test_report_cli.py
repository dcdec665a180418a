"""Report serialization, run configuration, and the command-line interface."""

import ast
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sqftori
from sqftori import cli, exact, ffpoly, sqfree, suites, tori
from sqftori.ffpoly import MAX_BUDGET
from sqftori.report import (
    RunConfig,
    failing_names,
    make_report,
    reports_to_csv,
    reports_to_json,
    reports_to_table,
    sort_reports,
    summarize,
)

# the benchmark's own canonicalization: JSON without `elapsed_ms`, hashed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from child import timing_free_digest  # noqa: E402

SMALL = RunConfig(n_max=3, primes=(2, 3), series_order=8)

#: the Mersenne prime 2^61 - 1, far above the 2^31 field-size limit
LARGE_PRIME = 2**61 - 1

#: sha256 of the timing-free `verify_all(SMALL)` JSON
SMALL_DIGEST = "3ba4a16be983e0673f5427adcc079b18cb7b0e4957e2de410b9610e5ffc33abf"

#: sha256 of the timing-free `verify all --budget 3 --n-max 13 --order 26` JSON:
#: ranks past 12 and degrees past 24, where the series routes once stopped
#: reading one shared build and built a series per degree
LARGE_ARGS = ["verify", "all", "--budget", "3", "--n-max", "13", "--order", "26"]
LARGE_DIGEST = "4b6a506958ac2225650bf19ce3e63731fc98daca80da5e07a5e653f2dd7612f2"

#: sha256 of the timing-free `tori types --n 5 --prime 2 --prime 3` JSON, the
#: only command that emits the `tori-type-count-at-q` rows
TORI_TYPES_DIGEST = "28189952f2ab6642022cdfec3282ba702a2d76c68a00210ff01dfd9638062c8a"


# ---------------------------------------------------------------------------
# report type and config
# ---------------------------------------------------------------------------


def test_pass_iff_renderings_identical():
    assert make_report("x", {}, "q^2 - q", "q^2 - q").passed
    assert not make_report("x", {}, "q^2 - q", "q^2").passed


def test_json_dict_uses_pass_key():
    d = make_report("x", {"n": 2}, "a", "a", elapsed_ms=7).to_json_dict()
    assert d["pass"] is True
    assert d["elapsed_ms"] == 7
    assert "passed" not in d


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_max=30, series_order=24)
    with pytest.raises(ValueError):
        RunConfig(primes=(4,))
    with pytest.raises(ValueError):
        RunConfig(output_format="xml")
    with pytest.raises(ValueError):
        RunConfig(primes=(7,), enumeration_budget=3)
    with pytest.raises(ValueError):
        RunConfig(n_max=0)
    with pytest.raises(ValueError):
        RunConfig(primes=(2, 2))
    with pytest.raises(ValueError):
        RunConfig(enumeration_budget=MAX_BUDGET + 1)
    with pytest.raises(ValueError, match="out of range"):
        RunConfig(primes=(LARGE_PRIME,))  # range-checked before any primality test
    assert RunConfig(enumeration_budget=MAX_BUDGET).enumeration_budget == MAX_BUDGET
    # sizes are ints, checked at construction rather than deep inside the run
    for bad in (
        dict(primes=(3.0,), n_max=3, series_order=3),
        dict(n_max=2.0),
        dict(n_max=True, series_order=3),
        dict(series_order=24.0),
        dict(enumeration_budget=1e7),
        dict(primes=(True,)),
    ):
        with pytest.raises(ValueError, match="must be an int"):
            RunConfig(**bad)


def test_sorting_is_by_name_then_parameters():
    reports = [
        make_report("b", {"n": 10}, "x", "x"),
        make_report("b", {"n": 2}, "x", "x"),
        make_report("a", {"n": 5}, "x", "x"),
    ]
    ordered = sort_reports(reports)
    assert [(r.identity_name, r.parameters["n"]) for r in ordered] == [
        ("a", 5),
        ("b", 2),
        ("b", 10),
    ]


def test_summary_and_failing_names():
    reports = [
        make_report("ok", {}, "1", "1"),
        make_report("bad", {"n": 1}, "1", "2"),
        make_report("bad", {"n": 2}, "1", "2"),
    ]
    assert summarize(reports) == {"passed": 1, "failed": 2}
    assert failing_names(reports) == ["bad"]


# ---------------------------------------------------------------------------
# serialization formats
# ---------------------------------------------------------------------------


def test_csv_columns():
    reports = [make_report("id", {"n": 3, "q": 2}, "8", "8")]
    lines = reports_to_csv(reports).splitlines()
    assert lines[0] == "identity_name,n,q,lhs,rhs,pass"
    assert lines[1] == "id,3,2,8,8,true"


def test_json_schema():
    payload = json.loads(reports_to_json(SMALL, suites.cayley_reports(SMALL)))
    assert set(payload) == {"config", "reports", "summary"}
    assert payload["summary"]["failed"] == 0
    for rep in payload["reports"]:
        assert set(rep) == {
            "identity_name",
            "parameters",
            "lhs_rendered",
            "rhs_rendered",
            "pass",
            "elapsed_ms",
        }


def test_reports_are_byte_reproducible():
    first = suites.mu_sum_reports(SMALL)
    second = suites.mu_sum_reports(SMALL)
    assert reports_to_csv(first) == reports_to_csv(second)
    assert timing_free_digest(reports_to_json(SMALL, first)) == timing_free_digest(
        reports_to_json(SMALL, second)
    )


def test_table_has_summary_line():
    out = reports_to_table(suites.cayley_reports(SMALL))
    assert "passed 3 / failed 0" in out


# ---------------------------------------------------------------------------
# suite-level failure injection
# ---------------------------------------------------------------------------


def _corrupted_tables():
    a = sqfree.SequenceTable.generate("a", 30)
    b = sqfree.SequenceTable.generate("b", 30)
    bad = sqfree.SequenceTable("a", a.values[:2] + (99,) + a.values[3:])
    return bad, b


def test_verify_all_flags_corrupted_sequence_table(monkeypatch):
    bad_a, b = _corrupted_tables()
    monkeypatch.setattr(sqfree, "_default_tables", lambda count: (bad_a, b))
    reports = suites.verify_all(SMALL)
    names = failing_names(reports)
    assert names == ["quad-excess-finite-n"]


def test_verify_all_passes_clean():
    reports = suites.verify_all(SMALL)
    assert failing_names(reports) == []


def test_verify_all_enumerates_each_oracle_point_once(monkeypatch):
    # the oracle rows of one (n, p) share one enumeration, which carries the
    # discriminant classes exactly where the discriminant suite reads them
    calls = []
    enumerate_stats = ffpoly.enumerate_stats

    def counted(n, p, **kwargs):
        calls.append((n, p, kwargs["discriminants"]))
        return enumerate_stats(n, p, **kwargs)

    monkeypatch.setattr(ffpoly, "enumerate_stats", counted)
    suites._oracle_stats.cache_clear()
    config = RunConfig()
    assert failing_names(suites.verify_all(config)) == []
    points = [(n, p) for n, p, _ in calls]
    assert len(points) == len(set(points))
    assert set(points) == {args for _, args in suites._oracle(config)}
    assert all(disc == (p % 2 == 1 and n <= suites.DISC_N_CAP) for n, p, disc in calls)


def test_verify_all_json_is_byte_identical_to_recorded_digest():
    # guards every refactor of the report path: names, parameters and renderings
    reports = suites.verify_all(SMALL)
    assert timing_free_digest(reports_to_json(SMALL, reports)) == (SMALL_DIGEST, 90)


def test_verify_all_past_the_old_working_orders_is_byte_identical(capsys):
    assert cli.main(LARGE_ARGS) == 0
    assert timing_free_digest(capsys.readouterr().out) == (LARGE_DIGEST, 630)


def test_tori_types_json_is_byte_identical_to_recorded_digest(capsys):
    argv = ["tori", "types", "--n", "5", "--prime", "2", "--prime", "3", "--format", "json"]
    assert cli.main(argv) == 0
    assert timing_free_digest(capsys.readouterr().out) == (TORI_TYPES_DIGEST, 23)


def _clear_symbolic_caches():
    for module in (exact, sqfree, tori):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def test_verify_all_digest_holds_on_the_euclidean_gcd_fallback(monkeypatch):
    # with the heuristic gcd giving up every time, the fallback alone must
    # reach the same canonical forms and so the same reports
    fallback_calls = []
    euclidean = exact._euclidean_gcd

    def counted(f, g):
        fallback_calls.append(1)
        return euclidean(f, g)

    monkeypatch.setattr(exact, "_heu_gcd", lambda f, g: None)
    monkeypatch.setattr(exact, "_euclidean_gcd", counted)
    _clear_symbolic_caches()
    try:
        text = reports_to_json(SMALL, suites.verify_all(SMALL))
    finally:
        _clear_symbolic_caches()
    assert fallback_calls
    assert timing_free_digest(text) == (SMALL_DIGEST, 90)


def test_type_reports_flag_coefficient_signs():
    # coefficient non-negativity is observed and reported, never assumed
    reports = suites.tori_type_reports(SMALL, 4, with_evaluations=False)
    flags = [
        r.parameters["nonnegative_coefficients"]
        for r in reports
        if r.identity_name == "tori-type-polynomial"
    ]
    assert len(flags) == 5  # one per partition of 4
    assert all(isinstance(f, bool) for f in flags)
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

_FAST = ["--n-max", "2", "--order", "6", "--prime", "2"]


def test_cli_exit_zero_and_table_output(capsys):
    assert cli.main(["sqfree", "count", *_FAST]) == 0
    out = capsys.readouterr().out
    assert "squarefree-count-symbolic" in out
    assert "failed 0" in out


def test_cli_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sqfree"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


def test_cli_invalid_config_exit_code_2(capsys):
    for argv in (
        ["sqfree", "count", "--n-max", "30"],
        ["sqfree", "count", *_FAST, "--prime", "2"],
        ["tori", "types", "--n", "0"],
        ["tori", "types", "--n", "-3"],
        ["sqfree", "count", "--n-max", "1", "--order", "1"],
        ["sqfree", "discriminant", "--n-max", "6", "--prime", "2"],
        ["verify", "all", "--budget", str(10**9)],
        ["verify", "all", "--prime", str(LARGE_PRIME), "--budget", "3", "--n-max", "2"],
    ):
        start = time.perf_counter()
        assert cli.main(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        assert "error:" in capsys.readouterr().err


def test_runtime_imports_no_sympy():
    # sympy may serve as local reference code, never as a runtime dependency
    code = (
        "import sys, sqftori, sqftori.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sqftori.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_python_m_runs_the_cli():
    # `python -m sqftori` is the `sqftori` command: its exit code and its JSON report
    env = {**os.environ, "PYTHONPATH": str(Path(sqftori.__file__).parents[1])}
    argv = ["verify", "all", "--n-max", "2", "--prime", "2", "--order", "4", "--budget", "8"]
    out = subprocess.run(
        [sys.executable, "-m", "sqftori", *argv], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["summary"] == {"failed": 0, "passed": 45}


def test_package_exports_resolve():
    # a deleted function that is still exported fails here, not at a user's import *
    assert [name for name in sqfree.__all__ if not hasattr(sqfree, name)] == []
    tree = ast.parse(Path(sqftori.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module("." * node.level + (node.module or ""), "sqftori")
            for alias in node.names:
                assert hasattr(module, alias.name), f"{module.__name__}.{alias.name}"


def test_cli_csv_format(capsys):
    assert cli.main(["sqfree", "mu-sum", *_FAST, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "identity_name,n,q,lhs,rhs,pass"


def test_cli_verify_all_emits_json(capsys):
    code = cli.main(["verify", "all", "--n-max", "2", "--order", "6", "--prime", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["failed"] == 0
    assert payload["config"]["n_max"] == 2


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(
        ["verify", "all", "--n-max", "2", "--order", "6", "--prime", "2", "--out", str(target)]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(target.read_text())
    assert payload["summary"]["failed"] == 0


def test_cli_unwritable_out_exit_code_2(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    assert cli.main(["sqfree", "mu-sum", *_FAST, "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not target.exists()


def test_cli_tori_types_table(capsys):
    assert cli.main(["tori", "types", "--n", "2", *_FAST]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if "tori-type-count-at-q" in line]
    split_row = next(line for line in lines if "type=(1,1)" in line)
    inert_row = next(line for line in lines if "type=(2)" in line)
    assert " 3 " in split_row
    assert " 1 " in inert_row
    total_rows = [line for line in out.splitlines() if "tori-type-total" in line]
    assert any("q^2" in line for line in total_rows)


def test_cli_corrupted_table_exits_1(capsys, monkeypatch):
    bad_a, b = _corrupted_tables()
    monkeypatch.setattr(sqfree, "_default_tables", lambda count: (bad_a, b))
    code = cli.main(["verify", "all", "--n-max", "3", "--order", "8", "--prime", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED: quad-excess-finite-n" in captured.err
