"""Square-free polynomial identities on the symbolic (generating function) side."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
import qq_reference
from fp_reference import count_linear_factors, factor_degrees, is_squarefree, monic_polys, stats_direct

from sqftori import exact, ffpoly, sqfree, suites, tori
from sqftori.exact import ONE, Q, RationalFunction
from sqftori.report import RunConfig, failing_names
from sqftori.series import TruncatedSeries

RF = RationalFunction

# displayed prefixes of the two sequences in the finite-n excess formula
A_PREFIX = (1, 3, 4, 4, 5, 7, 8, 8, 9, 11, 12, 12, 13, 15, 16, 16)
B_PREFIX = (2, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 7, 8, 8, 8, 9, 10, 10, 10)


#: every k with sum_d d*k_d <= 4 (12 of them), as the multiplicities of a partition
_ORDERS_OF_WEIGHT_AT_MOST_4 = [dict(Counter(parts)) for s in range(5) for parts in tori.partitions(s)]


# ---------------------------------------------------------------------------
# N(d, q)
# ---------------------------------------------------------------------------


def _count_irreducibles_brute(d: int, p: int) -> int:
    return dict(stats_direct(d, p).type_counts).get((d,), 0)


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
    config = RunConfig(n_max=1, primes=(), series_order=order)
    [report] = suites.factorization_reports(config)
    assert report.identity_name == "factorization-identity"
    assert report.parameters == {"order": order}
    assert report.passed, report


def test_factorization_identity_first_coefficient():
    f = sqfree.inverse_factorization_series(1)
    assert f.coeffs[1] == Q


def _binomial_product(order, sign, exponents):
    """prod over (d, e) of (1 + sign*u^d)^e, one binomial series
    sum_k C(e,k) sign^k u^(dk) multiplied in per degree."""
    acc = TruncatedSeries.one(order)
    for d, e in exponents:
        terms, c = {0: ONE}, ONE
        for k in range(1, order // d + 1):
            c = c * (e - (k - 1)) * RF.from_fraction(Fraction(sign, k))
            terms[d * k] = c
        acc = acc * TruncatedSeries.from_terms(order, terms)
    return acc


def _prefix(coefficients, order):
    """The coefficients of u^0..u^order of an on-demand series on QPoly
    numerators, as a truncated series over Q(q)."""
    return TruncatedSeries(RF(coefficients[k]) for k in range(order + 1))


def _closed_squarefree_series(order):
    """(1 - qu^2)/(1 - qu), the closed form of the square-free product."""
    return TruncatedSeries.from_terms(order, {0: ONE, 2: -Q}) * sqfree.geometric_q_series(order)


def test_degree_products_equal_their_per_degree_binomial_products():
    # each product is one exp of its logarithm, read coefficient by coefficient;
    # this is the per-degree product of binomial series it replaced, written out
    for order in range(14):
        n_d = [(d, sqfree.count_irreducibles(d)) for d in range(1, order + 1)]
        assert _prefix(sqfree._degree_product(+1, 1), order) == _binomial_product(order, +1, n_d)
        assert _prefix(sqfree._degree_product(-1, 1), order) == _binomial_product(order, -1, n_d)
        inverse = _binomial_product(order, -1, [(d, -e) for d, e in n_d])
        assert sqfree.inverse_factorization_series(order) == inverse
    for k in _ORDERS_OF_WEIGHT_AT_MOST_4:
        key = tuple(sorted(k.items()))
        for order in range(14):
            factor = _binomial_product(order, +1, [(d, RF.from_fraction(-kd)) for d, kd in key])
            assert _prefix(sqfree._moment_factor(key), order) == factor
        # the moment reads [u^(n-s)] of the closed form times that product
        moment_series = _closed_squarefree_series(13) * factor
        s = sum(d * kd for d, kd in key)
        for n in range(s, 14):
            expected = moment_series.coeffs[n - s] / sqfree.squarefree_count_formula(n)
            for d, kd in key:  # times C(N(d,q), k_d)
                for i in range(kd):
                    expected = expected * (sqfree.count_irreducibles(d) - i) / (i + 1)
            assert sqfree.binomial_moment(n, k) == expected


# ---------------------------------------------------------------------------
# square-free counts
# ---------------------------------------------------------------------------


def test_squarefree_count_closed_forms():
    assert sqfree.squarefree_count(0) == ONE
    assert sqfree.squarefree_count(1) == Q
    assert sqfree.squarefree_count(2) == Q * Q - Q
    assert sqfree.squarefree_count(2).eval(2) == 2


def test_squarefree_count_symbolic_range():
    order = RunConfig().series_order
    closed = _closed_squarefree_series(order)
    for n in range(2, order + 1):
        assert sqfree.squarefree_count(n) == sqfree.squarefree_count_formula(n)
        # the closed form (1-qu^2)/(1-qu) of the product; no report compares it
        assert closed.coeffs[n] == sqfree.squarefree_count_formula(n)


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
    mean = stats.binomial_moment({1: 1})
    assert mean == Fraction(1, 2)
    assert sqfree.expected_linear_factors(3).eval(2) == mean


def test_expected_linear_factors_telescopes():
    for n in range(2, 12):
        diff = sqfree.expected_linear_factors(n) - sqfree.expected_linear_factors(n + 1)
        sign = 1 if n % 2 == 0 else -1
        assert diff == RF.from_fraction(sign) * RF.q_power(-(n - 1))


def test_expected_linear_factors_is_the_first_moment():
    for n in range(2, 15):
        assert sqfree.expected_linear_factors(n) == sqfree.binomial_moment(n, {1: 1})


# ---------------------------------------------------------------------------
# binomial moments against trial division
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _factor_counts(p: int, n: int) -> tuple[tuple[int, int], ...]:
    """(X_1, X_2) of every square-free monic f of degree n over F_p, by trial division."""
    return tuple(
        (count_linear_factors(f), factor_degrees(f).count(2))
        for f in monic_polys(p, n)
        if is_squarefree(f)
    )


@pytest.mark.parametrize("k", [{1: k1, 2: k2} for k1 in range(4) for k2 in range(3)], ids=str)
def test_binomial_moment_matches_trial_division(k):
    for p, n in [(2, 5), (3, 4), (5, 3)]:
        counts = _factor_counts(p, n)
        total = sum(comb(x1, k[1]) * comb(x2, k[2]) for x1, x2 in counts)
        assert sqfree.binomial_moment(n, k).eval(p) == Fraction(total, len(counts))


def test_binomial_moment_small_degrees_and_bad_orders():
    assert sqfree.binomial_moment(0, {}) == ONE
    assert sqfree.binomial_moment(1, {1: 1}) == ONE
    assert sqfree.binomial_moment(3, {2: 2}) == RF(0)
    for k in ({1: -1}, {0: 1}):
        with pytest.raises(ValueError):
            sqfree.binomial_moment(3, k)


@pytest.mark.parametrize("k", _ORDERS_OF_WEIGHT_AT_MOST_4, ids=str)
def test_binomial_moment_equals_the_qq_reference(k):
    # the integer numerator against the moment built in Q(q) operation by operation
    for n in range(15):
        assert sqfree.binomial_moment(n, k) == qq_reference.binomial_moment(n, k)


def test_quad_excess_exact_equals_the_qq_reference():
    # two integer numerators over one denominator against the difference of two Q(q) moments
    for n in range(2, 17):
        assert sqfree.quad_excess_exact(n) == qq_reference.quad_excess_exact(n)


def _refuse(monkeypatch, *targets):
    """Make each (owner, name) raise when called."""

    def refuse(*args):
        raise AssertionError("a refused function was called")

    for owner, name in targets:
        monkeypatch.setattr(owner, name, refuse)


#: the four `RationalFunction` operators, as `_refuse` targets
_Q_Q_ARITHMETIC = [(RF, op) for op in ("__add__", "__sub__", "__mul__", "__truediv__")]


def test_moments_read_s_n_as_an_integer_polynomial(clear_symbolic_caches, monkeypatch):
    # S_n is read as q^n - q^(n-1) on integers, not through the Q(q) count,
    # and the moments and excess take no Q(q) operation on their way
    moments = [
        (n, k, qq_reference.binomial_moment(n, k)) for n in range(13) for k in _ORDERS_OF_WEIGHT_AT_MOST_4
    ]
    excesses = [(n, qq_reference.quad_excess_exact(n)) for n in range(2, 13)]
    _refuse(monkeypatch, (sqfree, "squarefree_count_formula"), *_Q_Q_ARITHMETIC)
    for n, k, expected in moments:
        assert sqfree.binomial_moment(n, k) == expected, (n, k)
    for n, expected in excesses:
        assert sqfree.quad_excess_exact(n) == expected, n


def test_geometric_series_equals_the_series_division(monkeypatch):
    # the coefficients q^k written directly, against 1 divided by 1 - qu
    expected = qq_reference.geometric_q_series(40)
    _refuse(monkeypatch, *_Q_Q_ARITHMETIC)
    assert sqfree.geometric_q_series(40) == expected


def test_binomial_moment_takes_at_most_one_gcd(clear_symbolic_caches, monkeypatch):
    # one integer numerator, cancelled by S_n once, when it enters Q(q)
    calls = []
    gcd = exact.poly_gcd
    monkeypatch.setattr(exact, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    for k in _ORDERS_OF_WEIGHT_AT_MOST_4:
        for n in range(15):
            calls.clear()
            sqfree.binomial_moment(n, k)
            assert len(calls) <= 1, (n, k)


def test_moment_numerators_divide_by_q_minus_one_exactly():
    # q - 1 comes off S_n times every moment and the excess by synthetic
    # division, which raises on a remainder
    orders = [dict(Counter(parts)) for s in range(7) for parts in tori.partitions(s)]
    assert len(orders) == 30
    for n in range(41):
        for k in orders:
            sqfree.binomial_moment(n, k)
        if n >= 2:
            sqfree.quad_excess_exact(n)


@pytest.mark.parametrize("k", _ORDERS_OF_WEIGHT_AT_MOST_4, ids=str)
def test_moment_factor_coefficients_are_integer_constants(k):
    # `_moment_numerator` reads them as integers: prod_d (1+u^d)^(-k_d),
    # divided by each 1 + u^d in turn on integers, through u^24
    expected = [1] + [0] * 24
    for d, kd in k.items():
        for _ in range(kd):
            for i in range(d, 25):
                expected[i] -= expected[i - d]
    factor = sqfree._moment_factor(tuple(sorted(k.items())))
    assert [factor[i] for i in range(25)] == [exact.QPoly.constant(c) for c in expected]


def test_moment_numerator_refuses_a_factor_coefficient_that_is_not_an_integer(monkeypatch):
    # the coefficient 1/2 would be read as int(1/2) = 0
    monkeypatch.setattr(sqfree, "_moment_factor", lambda key: [exact.QPoly.constant(Fraction(1, 2))] * 4)
    with pytest.raises(ArithmeticError, match="not an integer"):
        sqfree._moment_numerator(3, ((1, 1),))


@pytest.mark.parametrize("p,n", [(2, 5), (2, 7), (3, 4), (3, 5), (5, 3), (5, 4), (7, 3)])
def test_binomial_moment_matches_oracle_type_histogram(p, n):
    stats = ffpoly.enumerate_stats(n, p, discriminants=False)
    assert len(_ORDERS_OF_WEIGHT_AT_MOST_4) == 12
    for k in _ORDERS_OF_WEIGHT_AT_MOST_4:
        assert sqfree.binomial_moment(n, k).eval(p) == stats.binomial_moment(k)


def test_oracle_binomial_moment_rejects_bad_orders():
    stats = ffpoly.enumerate_stats(3, 3, discriminants=False)
    for k in ({1: -1}, {0: 1}):
        with pytest.raises(ValueError):
            stats.binomial_moment(k)


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


def test_quad_excess_corrupted_table_detected(monkeypatch):
    a = sqfree.SequenceTable.generate("a", 10)
    corrupted = sqfree.SequenceTable("a", a.values[:2] + (99,) + a.values[3:])
    b = sqfree.SequenceTable.generate("b", 10)
    monkeypatch.setattr(sqfree, "_default_tables", lambda count: (corrupted, b))
    assert sqfree.quad_excess_formula(8) != sqfree.quad_excess_exact(8)


def test_sequences_match_displayed_values():
    a = sqfree.SequenceTable.generate("a", len(A_PREFIX))
    b = sqfree.SequenceTable.generate("b", len(B_PREFIX))
    assert a.values == A_PREFIX
    assert b.values == B_PREFIX


def test_sequences_match_verbal_patterns():
    # 40 terms, past the default series order 24
    count = 40
    # a: the odd numbers with each positive even number doubled in between
    a = sqfree.SequenceTable.generate("a", count)
    woven = []
    for k in range(count // 4):
        woven += [4 * k + 1, 4 * k + 3, 4 * k + 4, 4 * k + 4]
    assert list(a.values) == woven
    # b: three copies of each even number followed by one odd number
    b = sqfree.SequenceTable.generate("b", count)
    expected_b = []
    k = 1
    while len(expected_b) < count:
        expected_b += [2 * k] * 3 + [2 * k + 1]
        k += 1
    assert list(b.values) == expected_b[:count]


def test_sequence_tables_are_generated_without_series_arithmetic(monkeypatch):
    # the tables come from the integer recurrence of their denominator
    def refuse(*args):
        raise AssertionError("the sequence tables used TruncatedSeries arithmetic")

    for name in ("__mul__", "__truediv__", "exp", "log", "pow"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    kinds = []
    generate = sqfree.SequenceTable.generate

    def counted(kind, count):
        kinds.append(kind)
        return generate(kind, count)

    monkeypatch.setattr(sqfree.SequenceTable, "generate", staticmethod(counted))
    assert failing_names(suites.quad_excess_reports(RunConfig())) == []
    assert set(kinds) == {"a", "b"}


def test_quad_excess_oracle():
    for p, n in [(3, 4), (3, 5), (5, 4), (2, 6)]:
        stats = ffpoly.enumerate_stats(n, p)
        oracle = stats.binomial_moment({2: 1}) - stats.binomial_moment({1: 2})
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
        assert sqfree.expected_linear_factors(n).eval(p) == stats.binomial_moment({1: 1})
        assert sqfree.quad_excess_exact(n).eval(p) == (
            stats.binomial_moment({2: 1}) - stats.binomial_moment({1: 2})
        )
        assert stats.mu_sum == 0
