"""Acceptance suite: every headline identity at its stated size.

All comparisons are exact (tolerance zero); everything is computed in
exact rational arithmetic.  Each criterion prints one pass line; run

    pytest tests/test_acceptance.py -v -s

to see them.  A pytest assertion failure is the corresponding fail line.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from sqftori import cli, ffpoly, sqfree, suites, tori
from sqftori.exact import ONE, RationalFunction
from sqftori.report import RunConfig

# the benchmark's own canonicalization, so the digests below are the ones it checks
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from child import timing_free_digest  # noqa: E402

RF = RationalFunction

SERIES_ORDER = 24
TORI_N_MAX = 12
ORACLE_PRIMES = (2, 3, 5)
ORACLE_DEGREES = range(2, 9)
DISC_PRIMES = (3, 5, 7)
DISC_DEGREES = range(2, 7)


def _ok(num: int, text: str):
    print(f"criterion {num:02d} PASS - {text}")


def test_criterion_01_factorization_product():
    start = time.perf_counter()
    [report] = suites.factorization_reports(RunConfig(series_order=SERIES_ORDER))
    elapsed = time.perf_counter() - start
    assert report.parameters == {"order": SERIES_ORDER}
    assert report.passed
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, f"degree product equals 1/(1-qu) through u^{SERIES_ORDER} in {elapsed:.2f}s")


def test_criterion_02_squarefree_counts():
    start = time.perf_counter()
    for n in range(2, SERIES_ORDER + 1):
        assert sqfree.squarefree_count(n) == RF.q_power(n) - RF.q_power(n - 1)
    for p in ORACLE_PRIMES:
        for n in ORACLE_DEGREES:
            stats = ffpoly.enumerate_stats(n, p, discriminants=False)
            assert sqfree.squarefree_count(n).eval(p) == stats.squarefree_count
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(2, f"square-free counts match symbolically (n<=24) and exhaustively in {elapsed:.2f}s")


def test_criterion_03_expected_linear_factors():
    for n in range(2, SERIES_ORDER + 1):
        assert sqfree.expected_linear_factors(n) == sqfree.binomial_moment(n, {1: 1})
    for p in ORACLE_PRIMES:
        for n in ORACLE_DEGREES:
            stats = ffpoly.enumerate_stats(n, p, discriminants=False)
            assert sqfree.expected_linear_factors(n).eval(p) == stats.binomial_moment({1: 1})
    _ok(3, "linear-factor expectation: partial sum = binomial moment = oracle mean")


def test_criterion_04_quad_excess_finite_n():
    assert sqfree.quad_excess_formula(2) == RF(0)
    assert sqfree.quad_excess_formula(3) == RF.q_power(-1)
    for n in range(4, SERIES_ORDER + 1):
        moments = sqfree.binomial_moment(n, {2: 1}) - sqfree.binomial_moment(n, {1: 2})
        assert sqfree.quad_excess_formula(n) == moments == sqfree.quad_excess_exact(n)
    a = sqfree.SequenceTable.generate("a", 16)
    b = sqfree.SequenceTable.generate("b", 19)
    assert a.values == (1, 3, 4, 4, 5, 7, 8, 8, 9, 11, 12, 12, 13, 15, 16, 16)
    assert b.values == (2, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 7, 8, 8, 8, 9, 10, 10, 10)
    _ok(4, "finite-n quadratic excess formula = binomial moments, 4<=n<=24")


def test_criterion_05_quad_excess_limit():
    coeffs = sqfree.quad_excess_limit().inverse_q_expansion(8)
    assert coeffs[1:] == [1, -3, 4, -4, 5, -7, 8, -8]
    _ok(5, "limit excess expands to 1/q - 3/q^2 + 4/q^3 - 4/q^4 + 5/q^5 - 7/q^6 + 8/q^7 - 8/q^8")


def test_criterion_06_signed_sum_and_discriminants():
    for n in range(2, SERIES_ORDER + 1):
        assert sqfree.moebius_signed_sum(n) == RF(0)
    for p in DISC_PRIMES:
        for n in DISC_DEGREES:
            stats = ffpoly.enumerate_stats(n, p, discriminants=True)
            assert stats.disc_residue == stats.disc_nonresidue
    _ok(6, "signed sums vanish for n>=2; discriminants split evenly for p in {3,5,7}")


def test_criterion_07_euler_identities():
    reports = suites.euler_reports(RunConfig(n_max=TORI_N_MAX))
    assert [r.parameters for r in reports] == [
        {"order": 12, "which": 1},
        {"order": 12, "which": 2},
    ]
    assert all(r.passed for r in reports)
    _ok(7, "both Euler functional equations hold through order 12")


def test_criterion_08_total_tori():
    for n in range(1, TORI_N_MAX + 1):
        assert tori.total_tori(n) == RF.q_power(n * n - n)
    assert tori.total_tori(2).eval(2) == 4
    _ok(8, "type counts sum to q^(n^2-n) for n<=12; GL_2 over F_2-bar has 4 tori")


def test_criterion_09_probabilities_sum_to_one():
    for n in range(1, TORI_N_MAX + 1):
        total = sum((rec.probability for rec in tori.type_distribution(n)), RF(0))
        assert total == ONE
    _ok(9, "type probabilities sum to 1 exactly for n<=12")


def test_criterion_10_expected_eigenvectors():
    for n in range(1, TORI_N_MAX + 1):
        closed = tori.binomial_moment(n, {1: 1})
        assert closed == sum((RF.q_power(-i) for i in range(n)), RF(0))
        assert closed == tori.binomial_moment_partition(n, {1: 1})
        assert closed == tori.expected_eigenvectors_series(n)
    assert tori.expected_eigenvectors(2).eval(2) == Fraction(3, 2)
    _ok(10, "eigenvector expectation: closed form = partition sum = series route, n<=12")


def test_criterion_11_subtori_excess():
    q = RF.q_power(1)
    for n in range(2, TORI_N_MAX + 1):
        tail = (ONE - RF.q_power(1 - n)) * (ONE - RF.q_power(-n))
        pair = tori.binomial_moment_partition(n, {1: 2})
        quad = tori.binomial_moment_partition(n, {2: 1})
        closed = RF.q_power(-1) * tail / ((ONE - RF.q_power(-1)) * (ONE - RF.q_power(-2)))
        assert closed == tori.tori_quad_excess(n) == pair - quad
        assert tori.binomial_moment(n, {1: 2}) == pair == q * q * tail / (2 * (q - ONE) ** 2)
        assert tori.binomial_moment(n, {2: 1}) == quad == q * q * tail / (2 * (q * q - ONE))
    assert tori.tori_quad_excess(TORI_N_MAX).inverse_q_expansion(8)[1:] == [1, 1, 2, 2, 3, 3, 4, 4]
    _ok(11, "subtorus excess: closed form = partition sum; moments match; series prefix 1,1,2,2,3,3,4,4")


def test_criterion_12_mod2_bias():
    for n in range(1, TORI_N_MAX + 1):
        assert tori.mod2_bias_partition(n) == RF.q_power(n * (n - 1) // 2)
        assert tori.mod2_bias_series(n) == RF.q_power(n * (n - 1) // 2)
    _ok(12, "mod-2 bias equals q^((n^2-n)/2) by signed partition sum and by series, n<=12")


def _expected_digest(workload: str) -> tuple[str, int]:
    entry = json.loads((PERFBENCH / "expected.json").read_text())[workload]
    return entry["sha256"], entry["reports"]


def test_criterion_13_verify_all(capsys, monkeypatch):
    start = time.perf_counter()
    code = cli.main(["verify", "all"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["summary"]["failed"] == 0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert timing_free_digest(out) == _expected_digest("verify-default")

    # corrupting a single sequence constant must flip the exit code
    a = sqfree.SequenceTable.generate("a", 40)
    b = sqfree.SequenceTable.generate("b", 40)
    bad = sqfree.SequenceTable("a", a.values[:4] + (a.values[4] + 1,) + a.values[5:])
    monkeypatch.setattr(sqfree, "_default_tables", lambda count: (bad, b))
    code = cli.main(["verify", "all"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED: quad-excess-finite-n" in captured.err
    _ok(13, f"verify all: exit 0 in {elapsed:.1f}s with defaults; corrupted fixture exits 1")


def test_criterion_13_symbolic_digest(capsys):
    assert cli.main(["verify", "all", "--budget", "3", "--n-max", "12"]) == 0
    assert timing_free_digest(capsys.readouterr().out) == _expected_digest("symbolic-n12")
    _ok(13, "verify all --budget 3 --n-max 12 reproduces the benchmark's symbolic-n12 digest")


def test_criterion_13_oracle_disc_digest(capsys):
    args = ["sqfree", "discriminant", "--prime", "3", "--prime", "5", "--prime", "7"]
    assert cli.main(args + ["--format", "json"]) == 0
    assert timing_free_digest(capsys.readouterr().out) == _expected_digest("oracle-disc")
    _ok(13, "sqfree discriminant over F_3, F_5, F_7 reproduces the benchmark's oracle-disc digest")
