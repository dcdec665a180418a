"""Report serialization, run configuration, and the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqftori
from sqftori import cli, exact, sqfree, suites, tori
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

SMALL = RunConfig(n_max=3, primes=(2, 3), series_order=8)

#: sha256 of the timing-free `verify_all(SMALL)` JSON
SMALL_DIGEST = "3ba4a16be983e0673f5427adcc079b18cb7b0e4957e2de410b9610e5ffc33abf"


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
    assert "elapsed_ms" not in make_report("x", {}, "a", "a").to_json_dict(False)


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
    assert RunConfig(enumeration_budget=MAX_BUDGET).enumeration_budget == MAX_BUDGET


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
    assert reports_to_json(SMALL, first, include_timing=False) == reports_to_json(
        SMALL, second, include_timing=False
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


def test_verify_all_flags_corrupted_sequence_table():
    bad_a, b = _corrupted_tables()
    reports = suites.verify_all(SMALL, a_table=bad_a, b_table=b)
    names = failing_names(reports)
    assert names == ["quad-excess-finite-n"]


def test_verify_all_passes_clean():
    reports = suites.verify_all(SMALL)
    assert failing_names(reports) == []


def test_verify_all_json_is_byte_identical_to_recorded_digest():
    # guards every refactor of the report path: names, parameters and renderings
    reports = suites.verify_all(SMALL)
    text = reports_to_json(SMALL, reports, include_timing=False)
    assert len(reports) == 90
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SMALL_DIGEST


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
        text = reports_to_json(SMALL, suites.verify_all(SMALL), include_timing=False)
    finally:
        _clear_symbolic_caches()
    assert fallback_calls
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SMALL_DIGEST


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
    ):
        assert cli.main(argv) == 2, argv
        assert "error" in capsys.readouterr().err


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
