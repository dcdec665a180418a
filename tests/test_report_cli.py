"""Report serialization, run configuration, and the command-line interface."""

import ast
import csv
import importlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import sqftori
from sqftori import cli, exact, ffpoly, sqfree, suites, tori
from sqftori.ffpoly import MAX_BUDGET
from sqftori.report import (
    MAX_N_MAX,
    MAX_ORDER,
    MAX_TYPE_RANK,
    RunConfig,
    VerificationReport,
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

# and the names its tracer patches, read from its own test (nothing there is edited)
import tracer  # noqa: E402
from test_perfbench import _references  # noqa: E402

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

#: sha256 of the timing-free `verify all --budget 3 --n-max 20 --order 40` JSON:
#: ranks 14 to 20, which |GL_n|, the cycle-index weights and the type walk
#: reach past `LARGE_ARGS`
RANK_20_ARGS = ["verify", "all", "--budget", "3", "--n-max", "20", "--order", "40"]
RANK_20_DIGEST = "471eb0c26464cb78b37ea413976a7ccab096f2899ab97dc575c312dd58418661"

#: sha256 of the timing-free `tori types --n 5 --prime 2 --prime 3` JSON, the
#: only command that emits the `tori-type-count-at-q` rows
TORI_TYPES_DIGEST = "28189952f2ab6642022cdfec3282ba702a2d76c68a00210ff01dfd9638062c8a"

#: per identity name of `verify_all(RunConfig())`: sha256 of that name's
#: timing-free reports, serialized as the CLI serializes them, and their
#: number; a change to the row set shows here which identities moved
IDENTITY_DIGESTS = {
    "discriminant-balance": ("40664d847a1ddb1f7954ff57d059c699ded05628a8480fe08717ad34bbb4bc07", 10),
    "eigenvectors-partition": ("b2ece99f355ea7a18028db4687bbd24ffd8b8f1beb2226941fa7b331b37aef93", 10),
    "eigenvectors-series": ("c6258509651d5c5335375541380780953ee945e209dcd9980524df7af6b8e5d0", 10),
    "euler-identity-1": ("d664e7556aeacf8724583ef1ba0a9daa02b8c5d3c8779131cc804eefe7dc7337", 1),
    "euler-identity-2": ("4c2b14c637c38656359573b97c111f631f69693307754da3cee4ea01cd07abe5", 1),
    "factorization-identity": ("d7f72c01c6da8efe654ab6b6690a7978da685605b5aac1cb6a41f5df848dfa04", 1),
    "irreducible-type-match": ("dab0e5d9545b131f3751b2d2c63ffb2d32c4ecba118558e3af49c14de764eeea", 10),
    "linear-factors-oracle": ("0fbac773ea2cd922a1ff6984dec584a81c840f9b1ec3166e03e4f7d7219da610", 27),
    "linear-factors-symbolic": ("a2fb5b988bd7496ae6c09ee9525dd71f93250f9e37f1822a7b312cdb6be517de", 23),
    "mod2-bias-partition": ("949be65fe0646f351d7a62ae2ffe103fe2d264eaef938c1a5bd62a9a272136b8", 10),
    "mod2-bias-series": ("6584228353b3c1a581832041974a1d9cd9d8eeda8ea57fb1e2d6566421747981", 10),
    "mu-signed-sum-oracle": ("5b8a59a3779da56952819887279418d20ecb23e234659293cd4feb73923152b8", 27),
    "mu-signed-sum-symbolic": ("ceb77a0bdbeb7b2229e92bf15092b899ddcd6cb64ccc9d9ab5200bce1d63a238", 23),
    "quad-excess-finite-n": ("c77a039ee73f4558caeebcc948e4bcbd09b7f230d7f0c4877c33c0a06da0c607", 23),
    "quad-excess-limit-series": ("349eaa8de8807da78bcc188b646e9723a8b3297a4568a68f383a7ebe70d725b6", 1),
    "quad-excess-oracle": ("991e55ac48bbca1d9913deda869d858e92a0d3a3c8c8b90a72e218cae050e415", 27),
    "squarefree-count-oracle": ("8b3e94253097e583205ff419bd10263f8d1c30a6ec48a864d374b99363533afd", 27),
    "squarefree-count-symbolic": ("335f435bacb0127bc150c5edc3efa541d5644d2e4327b427adec8e0c698632c1", 23),
    "subtori-excess-limit-series": ("de512ab6fe57659e9b36e828211a55ba2c4d5f10574f633da4ae48edff7c4ab8", 1),
    "subtori-excess-pair-moment": ("ed6718798ce8de10d3cb8bb33045e55ec0ff1da3b92b1808089ab00d1381dce6", 9),
    "subtori-excess-partition": ("adcd7b852cefd000b24a4e9eb39eb236bae291e62699b469f169e14e50644a46", 9),
    "subtori-excess-quad-moment": ("ba100bdfdee4a45ac0ce8c92d6a5d6785552ad99e10816df87e87b64aa68d0b2", 9),
    "tori-total-partition": ("3635408ac5e3134807d4c2845699ba8e7aa36bf4a44f388b1fef44b7b3251b8d", 10),
    "tori-total-series": ("93e8d82a8037b263803c7b39c6bafd18a570cf5315ac146b5ab3cac5dca679ce", 10),
    "tori-type-polynomial": ("7a28a20c3848c451fda2690332bb43fe6b15cb47526e5582c2ea470381eb1870", 138),
    "tori-type-total": ("b844fa9bb4dfc8be5627ad461909983f89fde3990f363242995f9c834689f6ca", 10),
    "type-probability-sum": ("9649bae9eb180206fe4de0a580b2dd7d2bdd2ecdbade54f4d09507131c6d6243", 10),
}


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
    with pytest.raises(ValueError, match="smaller than n_max"):
        RunConfig(n_max=20, series_order=12)
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
    reports = [make_report("id", {"n": 3, "q": 2}, "8", "8"), make_report("id", {"n": 3, "which": "a", "k": 2}, "1", "2")]
    lines = reports_to_csv(reports).splitlines()
    assert lines[0] == "identity_name,n,q,extra,lhs,rhs,pass"
    assert lines[1:] == ["id,3,,k=2 which=a,1,2,false", "id,3,2,,8,8,true"]


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


def _json_dumps(config, reports):
    """The JSON report as the json module writes the payload itself."""
    payload = {
        "config": config.to_json_dict(),
        "reports": [r.to_json_dict() for r in sort_reports(reports)],
        "summary": summarize(reports),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "config, run",
    [
        (SMALL, suites.verify_all),
        (RunConfig(output_format="json"), lambda config: suites.tori_type_reports(config, 5)),
        (RunConfig(n_max=3, primes=(), series_order=8), suites.verify_all),
    ],
    ids=["small", "tori-types-5", "no-primes"],
)
def test_json_report_is_json_dumps_of_its_payload(config, run):
    reports = run(config)
    assert reports_to_json(config, reports) == _json_dumps(config, reports)


def test_json_report_escapes_as_json_dumps_does():
    config = RunConfig(primes=(), output_format="json", output_path='out "x"\\y\n\u00e9.json')
    reports = [
        make_report(
            'quote " slash \\ line \n tab \t nul \x00',
            {"flag": True, "n": 7, "type": 'a"b\\c\nd\u00e9'},
            "q \u2212 1",
            "q \u2212 1",
            3,
        ),
        make_report("\u00fcber \U0001d53d", {"off": False, "q": -2}, 'x"', "y\\", 0),
        make_report("empty", {}, "", "", 12),
        VerificationReport("marked passed", {}, "a", "b", passed=True),
    ]
    assert [r.passed for r in reports] == [True, False, True, True]
    assert reports_to_json(config, reports) == _json_dumps(config, reports)
    assert reports_to_json(config, []) == _json_dumps(config, [])


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


def _batches(monkeypatch):
    """The (p, {n: discriminants}) of every `ffpoly.enumerate_degrees` call
    from here on, on an empty oracle memo."""
    batches = []
    enumerate_degrees = ffpoly.enumerate_degrees

    def counted(p, degrees):
        batches.append((p, dict(degrees)))
        return enumerate_degrees(p, degrees)

    monkeypatch.setattr(ffpoly, "enumerate_degrees", counted)
    monkeypatch.setattr(suites, "_ORACLE_STATS", {})
    return batches


def test_verify_all_enumerates_each_oracle_point_once(monkeypatch):
    # the oracle rows of one (n, p) share one enumeration, which carries the
    # discriminant classes exactly where the discriminant suite reads them;
    # the grid's degrees at each prime are enumerated in one batch
    # (`enumerate_stats` goes through `enumerate_degrees` too)
    batches = _batches(monkeypatch)
    config = RunConfig()
    assert failing_names(suites.verify_all(config)) == []
    calls = [(n, p, disc) for p, degrees in batches for n, disc in degrees.items()]
    points = [(n, p) for n, p, _ in calls]
    assert len(points) == len(set(points))
    assert set(points) == {(n, p) for _, (n, p, _) in suites._oracle(config)}
    assert all(disc == (p % 2 == 1 and n <= suites.DISC_N_CAP) for n, p, disc in calls)
    assert [p for p, _ in batches] == list(config.primes)


def test_discriminant_command_enumerates_only_the_budgeted_degrees(monkeypatch, capsys):
    # 7^3 = 343 fits a budget of 400 and 7^4 does not
    batches = _batches(monkeypatch)
    assert cli.main(["sqfree", "discriminant", "--prime", "7", "--budget", "400"]) == 0
    assert batches == [(7, {2: True, 3: True})]
    assert "failed 0" in capsys.readouterr().out


#: the memos of the symbolic routes that rows call with repeated arguments
_MEMOS = (
    (sqfree, "_quad_excess_exact"),
    (tori, "_binomial_moment"),
    (tori, "_binomial_moment_partition"),
    (tori, "_total_tori"),
    (exact, "_render"),
)


def test_verify_all_computes_each_memoized_value_once(clear_symbolic_caches, monkeypatch):
    # each memo misses once per distinct normalized argument, so its bound
    # holds every argument of the default run, and rows do repeat arguments
    seen = {}
    for module, name in _MEMOS:
        memo = getattr(module, name)
        args = seen[module.__name__, name] = (memo, [])
        monkeypatch.setattr(module, name, lambda *a, memo=memo, args=args[1]: args.append(a) or memo(*a))
    assert failing_names(suites.verify_all(RunConfig())) == []
    for key, (memo, args) in seen.items():
        info = memo.cache_info()
        assert (info.misses, info.hits) == (len(set(args)), len(args) - len(set(args))), key
        assert info.hits > 0, key
    # the memo is keyed on the normalized orders
    tori_moment, _ = seen["sqftori.tori", "_binomial_moment"]
    hits = tori_moment.cache_info().hits
    assert tori.binomial_moment(5, {2: 0, 1: 1}) == tori.binomial_moment(5, {1: 1})
    assert tori_moment.cache_info().hits == hits + 2
    # the memoized text is the renderer's own
    render, args = seen["sqftori.exact", "_render"]
    assert all(render(z, d) == render.__wrapped__(z, d) for z, d in set(args))
    # bad arguments are refused with the memos warm
    for call in (
        lambda: sqfree.binomial_moment(-1, {1: 1}),
        lambda: sqfree.binomial_moment(4, {1: True}),
        lambda: sqfree.quad_excess_exact(1),
        lambda: tori.binomial_moment(0, {1: 1}),
        lambda: tori.binomial_moment(4, {0: 1}),
        lambda: tori.binomial_moment_partition(0, {}),
        lambda: tori.binomial_moment_partition(4, {1: 1.5}),
        lambda: tori.total_tori(0),
    ):
        with pytest.raises(ValueError):
            call()
    # the memos are typed: a float rank is not answered by the int rank's value
    with pytest.raises(TypeError):
        tori.binomial_moment(4.0, {1: 1})
    with pytest.raises(TypeError):
        tori.binomial_moment_partition(4.0, {2: 1})


def test_verify_all_json_is_byte_identical_to_recorded_digest():
    # guards every refactor of the report path: names, parameters and renderings
    reports = suites.verify_all(SMALL)
    assert timing_free_digest(reports_to_json(SMALL, reports)) == (SMALL_DIGEST, 90)


def test_verify_all_past_the_old_working_orders_is_byte_identical(capsys):
    assert cli.main(LARGE_ARGS) == 0
    assert timing_free_digest(capsys.readouterr().out) == (LARGE_DIGEST, 630)


def test_verify_all_to_rank_20_is_byte_identical(capsys):
    assert cli.main(RANK_20_ARGS) == 0
    assert timing_free_digest(capsys.readouterr().out) == (RANK_20_DIGEST, 3111)


def test_tori_types_json_is_byte_identical_to_recorded_digest(capsys):
    argv = ["tori", "types", "--n", "5", "--prime", "2", "--prime", "3", "--format", "json"]
    assert cli.main(argv) == 0
    assert timing_free_digest(capsys.readouterr().out) == (TORI_TYPES_DIGEST, 23)


def test_each_identity_of_verify_all_is_byte_identical_to_its_recorded_digest():
    # one digest per name, beside the whole-output digests: a row-set change
    # must leave the names it did not touch where they were
    by_name = {}
    for r in sort_reports(suites.verify_all(RunConfig())):
        by_name.setdefault(r.identity_name, []).append(r.to_json_dict())
    digests = {name: timing_free_digest(json.dumps({"reports": rows})) for name, rows in by_name.items()}
    assert digests == IDENTITY_DIGESTS


def _check_symbolic_n12_digest():
    """`verify all --budget 3 --n-max 12` in process, against the digest the
    benchmark's `symbolic-n12` workload records."""
    config = RunConfig(n_max=12, enumeration_budget=3, output_format="json")
    text = reports_to_json(config, suites.verify_all(config))
    expected = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text())
    assert timing_free_digest(text) == (expected["symbolic-n12"]["sha256"], expected["symbolic-n12"]["reports"])


def test_symbolic_verify_all_takes_one_gcd(clear_symbolic_caches, monkeypatch):
    # the report routes cancel q and the q^i - 1 they know of; the one gcd
    # left is the division in sqfree.quad_excess_limit
    calls = []
    gcd = exact.poly_gcd
    monkeypatch.setattr(exact, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    _check_symbolic_n12_digest()
    assert len(calls) == 1


def test_symbolic_verify_all_takes_58_type_sums(clear_symbolic_caches, monkeypatch):
    # the zeroth torus moment reads the memoized total instead of a second
    # weight-1 sum: 58 type sums, where 70 took that sum twice per rank
    calls = []
    type_sum = tori._type_sum
    monkeypatch.setattr(tori, "_type_sum", lambda n, weight: calls.append(n) or type_sum(n, weight))
    _check_symbolic_n12_digest()
    assert len(calls) == 58


def test_benchmark_tracer_finds_and_restores_every_binding_it_patches():
    # perfbench wraps each traced name where it is bound; a change under src/
    # that unbinds one breaks the benchmark, whose own tests are not in this suite
    before = _references(sqftori)
    tr = tracer.Tracer()
    try:
        tr.install(sqftori)
        during = _references(sqftori)
    finally:
        tr.restore()
    after = _references(sqftori)
    for key, original in before.items():
        assert after[key] is original, key
        assert during[key] is original or during[key].__wrapped__ is original, key


def test_type_reports_flag_coefficient_signs():
    # coefficient non-negativity is observed and reported, never assumed
    reports = suites.tori_type_reports(replace(SMALL, primes=()), 4)
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
    for argv, reason in (
        (["sqfree", "count", "--n-max", "20", "--order", "12"], "smaller than n_max"),
        (["sqfree", "count", *_FAST, "--prime", "2"], "repeated prime"),
        (["tori", "types", "--n", "0"], "--n must be between"),
        (["tori", "types", "--n", "-3"], "--n must be between"),
        (["sqfree", "count", "--n-max", "1", "--order", "1"], "no identity to check"),
        (["sqfree", "discriminant", "--n-max", "6", "--prime", "2"], "no identity to check"),
        (["verify", "all", "--budget", str(10**9)], "enumeration budget"),
        (
            ["verify", "all", "--prime", str(LARGE_PRIME), "--budget", "3", "--n-max", "2"],
            "out of range",
        ),
    ):
        start = time.perf_counter()
        assert cli.main(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err, (argv, err)


@pytest.mark.parametrize(
    "at_bound, above",
    [
        (["tori", "types", "--n", str(MAX_TYPE_RANK)], ["--n", str(MAX_TYPE_RANK + 1)]),
        (
            ["verify", "all", "--n-max", str(MAX_N_MAX), "--order", str(MAX_N_MAX)],
            ["--n-max", str(MAX_N_MAX + 1)],
        ),
        (["verify", "all", "--order", str(MAX_ORDER)], ["--order", str(MAX_ORDER + 1)]),
    ],
    ids=["--n", "--n-max", "--order"],
)
def test_cli_refuses_a_size_above_its_bound(at_bound, above, capsys, monkeypatch):
    # the bound itself is a valid configuration; one above it is refused with
    # exit 2 and one error line before any report is built
    parser = cli.build_parser()
    cli._config_from_args(parser.parse_args(at_bound))

    def refuse(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(suites, "verify_all", refuse)
    monkeypatch.setattr(suites, "tori_type_reports", refuse)
    assert cli.main(at_bound + above) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


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
    assert out.splitlines()[0] == "identity_name,n,q,extra,lhs,rhs,pass"


def test_cli_csv_rows_have_distinct_keys(capsys):
    # every parameter is in the key, so no two reports of verify all share
    # a row key: at this size the two tori-type-polynomial rows of n = 2
    # differ only in parameters other than n and q
    assert cli.main(["verify", "all", *_FAST, "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    keys = [tuple(v for k, v in row.items() if k not in ("lhs", "rhs", "pass")) for row in rows]
    assert len(keys) > 10 and len(set(keys)) == len(keys)


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


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_cli_stdout_write_error_exit_code_2():
    # a full stdout is an I/O error, as an unwritable --out is: exit 2 and
    # one error line, with no traceback and no message at interpreter exit
    env = {**os.environ, "PYTHONPATH": str(Path(sqftori.__file__).parents[1])}
    with open("/dev/full", "w") as full:
        out = subprocess.run(
            [sys.executable, "-m", "sqftori", "sqfree", "mu-sum", *_FAST],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert len(out.stderr.splitlines()) == 1
    assert "Traceback" not in out.stderr


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
