"""Square-free polynomial identities on the symbolic (generating function) side."""

from fractions import Fraction

import pytest

from sqftori import ffpoly, sqfree
from sqftori.exact import ONE, Q, RationalFunction

RF = RationalFunction

# displayed prefixes of the two sequences in the finite-n excess formula
A_PREFIX = (1, 3, 4, 4, 5, 7, 8, 8, 9, 11, 12, 12, 13, 15, 16, 16)
B_PREFIX = (2, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 7, 8, 8, 8, 9, 10, 10, 10)


# ---------------------------------------------------------------------------
# N(d, q)
# ---------------------------------------------------------------------------


def _count_irreducibles_brute(d: int, p: int) -> int:
    return sum(
        1
        for f in ffpoly._monic_polys(ffpoly.PrimeField(p), d)
        if ffpoly.is_irreducible(f)
    )


def test_count_irreducibles_small_degrees():
    assert sqfree.count_irreducibles(1) == Q
    assert sqfree.count_irreducibles(2) == (Q * Q - Q) / RF.from_fraction(2)
    assert sqfree.count_irreducibles(3) == (Q**3 - Q) / RF.from_fraction(3)


@pytest.mark.parametrize("d,p", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3), (2, 5)])
def test_count_irreducibles_matches_enumeration(d, p):
    assert sqfree.count_irreducibles(d).eval(p) == _count_irreducibles_brute(d, p)


# ---------------------------------------------------------------------------
# the factorization identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 10, 25])
def test_factorization_identity(order):
    report = sqfree.factorization_identity_check(order)
    assert report.passed, report


def test_factorization_identity_first_coefficient():
    f = sqfree.inverse_factorization_series(1)
    assert f.coefficient(1) == Q


# ---------------------------------------------------------------------------
# square-free counts
# ---------------------------------------------------------------------------


def test_squarefree_count_closed_forms():
    assert sqfree.squarefree_count(0) == ONE
    assert sqfree.squarefree_count(1) == Q
    assert sqfree.squarefree_count(2) == Q * Q - Q
    assert sqfree.squarefree_count(2).eval(2) == 2


def test_squarefree_count_symbolic_range():
    closed = sqfree._closed_squarefree_series(sqfree.DEFAULT_ORDER)
    for n in range(2, sqfree.DEFAULT_ORDER + 1):
        assert sqfree.squarefree_count(n) == sqfree.squarefree_count_formula(n)
        # the closed form (1-qu^2)/(1-qu) of the product; no report compares it
        assert closed.coefficient(n) == sqfree.squarefree_count_formula(n)


def test_squarefree_count_oracle_value():
    assert sqfree.squarefree_count(5).eval(3) == 162
    stats = ffpoly.enumerate_stats(5, 3)
    assert stats.squarefree_count == 162


# ---------------------------------------------------------------------------
# expected number of linear factors
# ---------------------------------------------------------------------------


def test_expected_linear_factors_small():
    assert sqfree.expected_linear_factors(2) == ONE
    assert sqfree.expected_linear_factors(3) == ONE - ONE / Q
    assert sqfree.expected_linear_factors(3).eval(2) == Fraction(1, 2)


def test_expected_linear_factors_needs_n_at_least_2():
    with pytest.raises(ValueError):
        sqfree.expected_linear_factors(1)


def test_expected_linear_factors_oracle_mean():
    stats = ffpoly.enumerate_stats(3, 2)
    mean = Fraction(stats.sum_n1, stats.squarefree_count)
    assert mean == Fraction(1, 2)
    assert sqfree.expected_linear_factors(3).eval(2) == mean


def test_expected_linear_factors_telescopes():
    for n in range(2, 12):
        diff = sqfree.expected_linear_factors_sum(n) - sqfree.expected_linear_factors_sum(n + 1)
        sign = 1 if n % 2 == 0 else -1
        assert diff == RF.from_fraction(sign) * RF.q_power(-(n - 1))


# ---------------------------------------------------------------------------
# quadratic excess
# ---------------------------------------------------------------------------


def test_quad_excess_exact_small():
    assert sqfree.quad_excess_exact(2) == RF(0)
    assert sqfree.quad_excess_exact(3) == RF.q_power(-1)
    assert sqfree.quad_excess_exact(4) == RF.q_power(-1) - RF.from_fraction(2) * RF.q_power(-2)


def test_quad_excess_formula_n6():
    expected = (
        RF.q_power(-1)
        - RF.from_fraction(3) * RF.q_power(-2)
        + RF.from_fraction(4) * RF.q_power(-3)
        - RF.from_fraction(2) * RF.q_power(-4)
    )
    assert sqfree.quad_excess_formula(6) == expected
    assert sqfree.quad_excess_exact(6) == expected


def test_quad_excess_formula_matches_exact():
    for n in range(2, 15):
        assert sqfree.quad_excess_formula(n) == sqfree.quad_excess_exact(n)


def test_quad_excess_corrupted_table_detected():
    a = sqfree.SequenceTable.generate("a", 10)
    corrupted = sqfree.SequenceTable("a", a.values[:2] + (99,) + a.values[3:])
    assert sqfree.quad_excess_formula(8, corrupted, sqfree.SequenceTable.generate("b", 10)) != sqfree.quad_excess_exact(8)


def test_sequences_match_displayed_values():
    a = sqfree.SequenceTable.generate("a", len(A_PREFIX))
    b = sqfree.SequenceTable.generate("b", len(B_PREFIX))
    assert a.values == A_PREFIX
    assert b.values == B_PREFIX


def test_sequences_match_verbal_patterns():
    # a: the odd numbers with each positive even number doubled in between
    a = sqfree.SequenceTable.generate("a", 16)
    odds = [1, 3, 5, 7, 9, 11, 13, 15]
    evens = [4, 8, 12, 16]
    woven = []
    for k in range(4):
        woven += [odds[2 * k], odds[2 * k + 1], evens[k], evens[k]]
    assert list(a.values) == woven
    # b: three copies of each even number followed by one odd number
    b = sqfree.SequenceTable.generate("b", 19)
    expected_b = []
    k = 1
    while len(expected_b) < 19:
        expected_b += [2 * k] * 3 + [2 * k + 1]
        k += 1
    assert list(b.values) == expected_b[:19]


def test_quad_excess_oracle():
    for p, n in [(3, 4), (3, 5), (5, 4), (2, 6)]:
        stats = ffpoly.enumerate_stats(n, p)
        oracle = Fraction(stats.sum_n2 - stats.sum_n1_pairs, stats.squarefree_count)
        assert sqfree.quad_excess_exact(n).eval(p) == oracle


def test_quad_excess_limit_fraction():
    limit = sqfree.quad_excess_limit()
    # (1/q)(1 - 1/q) / ((1 + 1/q)^2 (1 + 1/q^2)) = q^2 (q-1) / ((q+1)^2 (q^2+1))
    num = Q * Q * (Q - ONE)
    den = (Q + ONE) ** 2 * (Q * Q + ONE)
    assert limit == num / den


def test_quad_excess_limit_expansion():
    coeffs = sqfree.quad_excess_limit().inverse_q_expansion(8)
    assert coeffs[0] == 0
    assert coeffs[1:] == [1, -3, 4, -4, 5, -7, 8, -8]


def test_quad_excess_limit_signs_are_alternating_a_values():
    coeffs = sqfree.quad_excess_limit().inverse_q_expansion(12)[1:]
    a = sqfree.SequenceTable.generate("a", 12)
    for i, c in enumerate(coeffs, start=1):
        assert abs(c) == a[i]
        assert (c > 0) == (i % 2 == 1)


# ---------------------------------------------------------------------------
# the signed (Moebius) sum
# ---------------------------------------------------------------------------


def test_moebius_signed_sum():
    assert sqfree.moebius_signed_sum(0) == ONE
    assert sqfree.moebius_signed_sum(1) == -Q
    assert sqfree.moebius_signed_sum(2) == RF(0)
    assert sqfree.moebius_signed_sum(7) == RF(0)


def test_moebius_signed_sum_oracle():
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        stats = ffpoly.enumerate_stats(n, p)
        assert stats.mu_sum == 0


# ---------------------------------------------------------------------------
# symbolic values vs the exhaustive oracle across the board
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_symbolic_matches_oracle_statistics(p):
    for n in range(2, 7):
        stats = ffpoly.enumerate_stats(n, p)
        sf = stats.squarefree_count
        assert sqfree.squarefree_count(n).eval(p) == sf
        assert sqfree.expected_linear_factors(n).eval(p) == Fraction(stats.sum_n1, sf)
        assert sqfree.quad_excess_exact(n).eval(p) == Fraction(
            stats.sum_n2 - stats.sum_n1_pairs, sf
        )
        assert stats.mu_sum == 0
