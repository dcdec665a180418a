"""Maximal torus counts: partition sums against closed forms and series."""

import re
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest
import qq_reference

from sqftori import exact, sqfree, suites, tori
from sqftori.exact import ONE, Q, QPoly, RationalFunction, gl_order
from sqftori.ffpoly import enumerate_stats
from sqftori.report import RunConfig
from sqftori.series import TruncatedSeries

RF = RationalFunction


# ---------------------------------------------------------------------------
# partitions and centralizers
# ---------------------------------------------------------------------------


def test_partition_counts():
    assert len(tori.partitions(4)) == 5
    assert len(tori.partitions(7)) == 15
    assert len(tori.partitions(12)) == 77
    assert tori.partitions(1) == ((1,),)
    assert tori.partitions(0) == ((),)


def test_partition_order_reverse_lexicographic():
    parts = list(tori.partitions(4))
    assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert parts == sorted(parts, reverse=True)


@pytest.mark.parametrize("n,p", [(3, 3), (4, 5), (5, 5), (6, 7), (4, 3), (3, 2)])
def test_both_halves_key_types_alike(n, p):
    # a type is a tuple of parts, largest first, in the torus table and in
    # the oracle's; at (4, 3) and (3, 2) some types have no polynomial
    assert [parts for parts, _ in tori.type_counts(n)] == list(tori.partitions(n))
    keys = [parts for parts, _ in enumerate_stats(n, p, discriminants=False).type_counts]
    if (n, p) in ((4, 3), (3, 2)):
        assert set(keys) < set(tori.partitions(n))
        assert keys == sorted(keys)
    else:
        assert keys == sorted(tori.partitions(n))


def test_torus_type_count_rejects_parts_below_one():
    for parts in ((0,), (2, 0), (3, -1), (-1, 2)):
        with pytest.raises(ValueError):
            tori.torus_type_count(parts)


@pytest.mark.parametrize("parts", [(True, 1), (False, 2), (1.0,), (2, 1.5), ("1",)], ids=repr)
def test_torus_type_count_rejects_parts_that_are_not_ints(parts):
    # True would count as the part 1, and a float would fail deep inside
    with pytest.raises(ValueError):
        tori.torus_type_count(parts)


def test_centralizer_order():
    assert tori.centralizer_order((1, 1)) == 2
    assert tori.centralizer_order((2,)) == 2
    assert tori.centralizer_order((2, 1, 1)) == 4
    assert tori.centralizer_order((3, 2, 2, 1)) == 3 * 8 * 1


def test_centralizer_orders_sum_to_n_factorial():
    # sum over types of n!/z_lambda = n! (class equation for S_n)
    from math import factorial

    for n in range(1, 9):
        total = sum(
            Fraction(factorial(n), tori.centralizer_order(l)) for l in tori.partitions(n)
        )
        assert total == factorial(n)


# ---------------------------------------------------------------------------
# type counts
# ---------------------------------------------------------------------------


def test_type_counts_n2():
    split = tori.torus_type_count((1, 1))
    inert = tori.torus_type_count((2,))
    assert split == Q * (Q + ONE) / RF.from_fraction(2)
    assert inert == Q * (Q - ONE) / RF.from_fraction(2)
    assert split.eval(2) == 3
    assert inert.eval(2) == 1


def _q_minus_one(i: int) -> QPoly:
    return QPoly.q_power(i) - QPoly.constant(1)


def test_type_count_times_its_denominator_is_gl_order():
    # the definition, by QPoly multiplication alone
    for n in range(1, 13):
        for parts in tori.partitions(n):
            product = tori.torus_type_count(parts).as_polynomial()
            product = product * QPoly.constant(tori.centralizer_order(parts))
            for i in parts:
                product = product * _q_minus_one(i)
            assert product == gl_order(n), parts


def test_type_counts_walk_divides_each_shared_prefix_once(clear_symbolic_caches, monkeypatch):
    for n in range(1, 17):
        assert tori.type_counts(n) == tuple((parts, tori.torus_type_count(parts)) for parts in tori.partitions(n))
    calls = []
    divided = tori._divided_by_q_power_minus_one
    monkeypatch.setattr(tori, "_divided_by_q_power_minus_one", lambda z, i: calls.append(i) or divided(z, i))
    tori.type_counts.cache_clear()
    tori.type_counts(10)
    # one division per distinct non-empty prefix of the partitions of 10, by
    # its last part, where dividing each type on its own makes one per part
    # of every partition
    prefixes = {parts[:k] for parts in tori.partitions(10) for k in range(1, len(parts) + 1)}
    assert sorted(calls) == sorted(prefix[-1] for prefix in prefixes)
    assert (len(calls), sum(map(len, tori.partitions(10)))) == (138, 192)


def test_type_counts_and_irreducible_count_equal_the_qq_reference():
    # the integer-numerator walk against |GL_n| divided in Q(q) one factor at a time
    for n in range(1, 17):
        for parts, count in tori.type_counts(n):
            assert count == qq_reference.torus_type_count(parts), parts
        assert tori.irreducible_tori_count(n) == qq_reference.irreducible_tori_count(n)


def test_type_count_raises_on_a_remainder(monkeypatch):
    # q + 1 leaves the remainder 2 on division by q - 1; q^6 (q^2 - 1)(q^8 + 1)
    # divides by the first q^2 - 1 of (2, 2) but not by the second
    fake = {1: QPoly.q_power(1) + QPoly.constant(1),
            4: QPoly.q_power(6) * _q_minus_one(2) * (QPoly.q_power(8) + QPoly.constant(1))}
    monkeypatch.setattr(tori, "gl_order", fake.__getitem__)
    for parts in ((1,), (2, 2)):
        with pytest.raises(ArithmeticError, match=re.escape(f"type count for {parts} is not")):
            tori.torus_type_count(parts)


_WEIGHTS = {
    "one": lambda n, parts: 1,
    "sign": lambda n, parts: (-1) ** (n - len(parts)),
    "two-to-parts": lambda n, parts: 2 ** len(parts),
    "comb": lambda n, parts: prod(comb(parts.count(i), ki) for i, ki in {1: 2, 2: 1}.items()),
    "parts-minus-two": lambda n, parts: len(parts) - 2,
}


@pytest.mark.parametrize("name", _WEIGHTS)
def test_type_sum_equals_the_sum_one_type_at_a_time(name):
    weight = _WEIGHTS[name]
    for n in range(1, 11):
        expected = RF(0)
        for parts, count in tori.type_counts(n):
            expected = expected + count * weight(n, parts)
        assert tori._type_sum(n, lambda parts: weight(n, parts)) == expected


def test_type_counts_vanish_below_the_q_power_of_gl_order():
    # `_type_sum` adds only the numerators at and above q^C(n,2)
    for n in range(1, 13):
        shift = n * (n - 1) // 2
        for parts, count in tori.type_counts(n):
            z = count.as_polynomial().z
            assert len(z) - 1 == n * n - n, parts
            assert not any(z[:shift]), parts


@pytest.mark.parametrize("order", [("total", "zeroth"), ("zeroth", "total")], ids="-then-".join)
def test_total_and_zeroth_moment_share_one_type_sum(clear_symbolic_caches, monkeypatch, order):
    # the zeroth moment's weights are all 1: it reads the memoized total
    calls = []
    type_sum = tori._type_sum
    monkeypatch.setattr(tori, "_type_sum", lambda n, weight: calls.append(n) or type_sum(n, weight))
    for n in range(1, 13):
        reads = {"total": lambda: tori.total_tori(n), "zeroth": lambda: tori.binomial_moment_partition(n, {})}
        values = {name: reads[name]() for name in order}
        assert values == {"total": tori.total_tori_formula(n), "zeroth": ONE}, n
    assert calls == list(range(1, 13))


def test_type_table_needs_no_polynomial_division_or_scaling(clear_symbolic_caches, monkeypatch):
    def refuse(*args):
        raise AssertionError("the type table divided or added QPolys")

    gl_order(12)  # its build subtracts; the table itself must not add
    monkeypatch.setattr(exact, "_pseudo_divmod", refuse)
    monkeypatch.setattr(QPoly, "__add__", refuse)
    tori.type_counts(12)
    total = tori.total_tori(12)
    assert total == tori.total_tori_formula(12)


def test_total_four_tori_for_gl2_over_f2():
    assert tori.total_tori(2).eval(2) == 4


def test_type_counts_are_polynomials():
    for n in range(1, 11):
        for _, count in tori.type_counts(n):
            assert count.is_polynomial()


def test_irreducible_tori_count():
    assert tori.irreducible_tori_count(1) == ONE
    assert tori.irreducible_tori_count(2) == Q * (Q - ONE) / RF.from_fraction(2)
    assert tori.irreducible_tori_count(3).eval(2) == 8
    for n in range(1, 11):
        assert tori.irreducible_tori_count(n) == tori.torus_type_count((n,))


def test_total_tori():
    assert tori.total_tori(1) == ONE
    assert tori.total_tori(2) == Q * Q
    assert tori.total_tori(5) == RF.q_power(20)
    for n in range(1, 13):
        assert tori.total_tori(n) == tori.total_tori_formula(n)


def test_type_distribution_probabilities():
    counts = dict(tori.type_counts(2))
    assert (counts[(1, 1)] / tori.total_tori_formula(2)).eval(2) == Fraction(3, 4)
    assert sum(counts.values(), RF(0)) == tori.total_tori_formula(2)
    prob_irred = dict(tori.type_counts(3))[(3,)] / tori.total_tori_formula(3)
    assert prob_irred.eval(2) == Fraction(1, 8)


def test_cayley_identity():
    for n in range(1, 13):
        counts = [count for _, count in tori.type_counts(n)]
        total = tori.total_tori_formula(n)
        assert sum((count / total for count in counts), RF(0)) == ONE
        assert not any(count.is_zero() for count in counts)


# ---------------------------------------------------------------------------
# cycle index
# ---------------------------------------------------------------------------


def test_cycle_index_all_ones_gives_totals():
    assert tori.cycle_index_coefficient(3, 1) == RF.q_power(6)
    for n in range(1, 9):
        assert tori.cycle_index_coefficient(n, 1) == tori.total_tori_formula(n)


def test_cycle_index_zero_weights():
    assert tori.cycle_index_coefficient(2, 0) == RF(0)
    assert tori.cycle_index_coefficient(5, 0) == RF(0)


def test_cycle_index_weight_marks_each_part():
    # weight w counts each torus w^(number of parts) times
    for n in range(1, 9):
        assert tori.cycle_index_coefficient(n, 2) == tori._type_sum(n, lambda parts: 2 ** len(parts))


@pytest.mark.parametrize("weight", [-1, 0, 1, 2])
def test_cycle_index_equals_the_qq_exp_reference(weight):
    reference = qq_reference.cycle_index_coefficients(16, weight)
    for n in range(1, 17):
        assert tori.cycle_index_coefficient(n, weight) == reference[n]


@pytest.mark.parametrize("weight", [0.1, 1.0, True, Fraction(1, 2), Fraction(1)], ids=repr)
def test_cycle_index_refuses_a_weight_that_is_not_an_int(weight):
    # a float would be read by its binary expansion, a bool as 0 or 1
    with pytest.raises(ValueError):
        tori.cycle_index_coefficient(2, weight)


def test_cycle_index_takes_no_gcd(clear_symbolic_caches, monkeypatch):
    # G_n is built on integer numerators: no Q(q) canonical form on the way
    calls = []
    gcd = exact.poly_gcd
    monkeypatch.setattr(exact, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    for n in range(1, 13):
        tori.cycle_index_coefficient(n, 1)
        tori.cycle_index_coefficient(n, -1)
        tori.expected_eigenvectors_series(n)
    assert calls == []


def test_cycle_index_minus_one_reproduces_bias():
    for n in range(1, 9):
        log = {i: RF.from_fraction(-1) / ((RF.q_power(i) - ONE) * i) for i in range(1, n + 1)}
        series = TruncatedSeries.from_terms(n, log).exp()
        # the u^n coefficient of f(-u) is (-1)^n f_n
        bias = RF(gl_order(n)) * RF.from_fraction((-1) ** n) * series.coeffs[n]
        assert bias == tori.mod2_bias_formula(n)
        assert tori.cycle_index_coefficient(n, -1) == RF.from_fraction((-1) ** n) * bias


# ---------------------------------------------------------------------------
# Euler identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", [1, 2])
def test_euler_identities_to_order_12(which):
    reports = suites.euler_reports(RunConfig())
    [report] = [r for r in reports if r.identity_name == f"euler-identity-{which}"]
    assert report.parameters == {"order": 12, "which": which}
    assert report.passed, report


@pytest.mark.parametrize("which", [1, 2])
def test_euler_identities_at_every_order(which):
    # the registry grid reads order max(n_max, 12), and n_max is at most 24
    for order in range(1, 25):
        assert tori.euler_sum_series(which, order) == tori.euler_shifted_series(which, order)


@pytest.mark.parametrize(
    "which,order",
    [(0, 3), (3, 3), (True, 3), (1.0, 3), (1, -1), (2, -1), (1, 3.0), (2, False), (1, "3")],
    ids=repr,
)
@pytest.mark.parametrize("side", [tori.euler_sum_series, tori.euler_shifted_series], ids=lambda f: f.__name__)
def test_euler_sides_refuse_bad_arguments_alike(side, which, order):
    # a bool or float would be read as 0, 1 or an int; a negative order as the series 1
    with pytest.raises(ValueError):
        side(which, order)


def test_euler_sides_enter_q_of_q_once_per_coefficient(clear_symbolic_caches, monkeypatch):
    # both sides are integer numerators over prod_{j<=k} (q^j - 1), times q^k on
    # the shifted side: no Q(q) operator, series product or quotient, or gcd
    def refuse(*args):
        raise AssertionError("an Euler side used Q(q) or series arithmetic")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(RF, name, refuse)
    for name in ("__mul__", "__truediv__"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    monkeypatch.setattr(exact, "poly_gcd", refuse)
    for which in (1, 2):
        assert tori.euler_sum_series(which, 24) == tori.euler_shifted_series(which, 24)


def test_cycle_index_at_weight_one_is_euler_f():
    # the eigenvector series reads Euler's F off the cycle index at weight 1,
    # whose memo holds F's coefficients times prod_{i<=k} (q^i - 1)
    f = tori.euler_sum_series(1, 16)
    scale = [RF(gl_order(k)) / RF.q_power(k * (k - 1) // 2) for k in range(17)]
    assert [RF(tori._cycle_index(1)[k]) / scale[k] for k in range(17)] == list(f.coeffs)


@pytest.mark.parametrize("which", [1, 2])
def test_euler_sum_series_equals_the_qq_reference(which):
    # one integer denominator per coefficient against division step by step in Q(q)
    assert list(tori.euler_sum_series(which, 20).coeffs) == qq_reference.euler_sum_coefficients(which, 20)


def test_euler_first_coefficient():
    f = tori.euler_sum_series(1, 3)
    assert f.coeffs[1] == ONE / (Q - ONE)


# ---------------------------------------------------------------------------
# expected eigenvectors
# ---------------------------------------------------------------------------


def test_expected_eigenvectors_values():
    assert tori.binomial_moment(1, {1: 1}) == ONE
    assert tori.binomial_moment(2, {1: 1}) == ONE + ONE / Q
    assert tori.binomial_moment(2, {1: 1}).eval(2) == Fraction(3, 2)
    assert tori.binomial_moment(3, {1: 1}).eval(2) == Fraction(7, 4)


def test_expected_eigenvectors_partition_sum_f2():
    # types of 3 at q=2: counts 28, 28, 8 with n_1 = 3, 1, 0
    counts = dict(tori.type_counts(3))
    assert counts[(1, 1, 1)].eval(2) == 28
    assert counts[(2, 1)].eval(2) == 28
    assert counts[(3,)].eval(2) == 8
    expectation = Fraction(28 * 3 + 28 * 1 + 8 * 0, 64)
    assert tori.binomial_moment(3, {1: 1}).eval(2) == expectation


def test_expected_eigenvectors_routes_agree():
    for n in range(1, 13):
        closed = tori.binomial_moment(n, {1: 1})
        assert closed == sum((RF.q_power(-i) for i in range(n)), RF(0))
        assert closed == tori.binomial_moment_partition(n, {1: 1})
        assert closed == tori.expected_eigenvectors_series(n)


# ---------------------------------------------------------------------------
# dimension-2 subtorus excess
# ---------------------------------------------------------------------------


def test_subtori_excess_small():
    assert tori.tori_quad_excess(2) == RF.q_power(-1)
    assert tori.tori_quad_excess(2).eval(2) == Fraction(1, 2)
    # direct partition route at n=2, q=2: (3*1 + 1*(-1))/4
    excess = tori.binomial_moment_partition(2, {1: 2}) - tori.binomial_moment_partition(2, {2: 1})
    assert excess.eval(2) == Fraction(1, 2)


def test_subtori_excess_n3_display():
    expected = (
        RF.q_power(-1)
        * (ONE - RF.q_power(-2))
        * (ONE - RF.q_power(-3))
        / ((ONE - RF.q_power(-1)) * (ONE - RF.q_power(-2)))
    )
    assert tori.tori_quad_excess(3) == expected


def test_subtori_excess_routes_agree():
    q = RF.q_power(1)
    for n in range(2, 13):
        tail = (ONE - RF.q_power(1 - n)) * (ONE - RF.q_power(-n))
        # E[C(n_1,2)] = q^2 tail / (2 (q-1)^2) and E[n_2] = q^2 tail / (2 (q^2-1))
        pair, quad = q * q * tail / (2 * (q - ONE) ** 2), q * q * tail / (2 * (q * q - ONE))
        closed = RF.q_power(-1) * tail / ((ONE - RF.q_power(-1)) * (ONE - RF.q_power(-2)))
        assert closed == tori.tori_quad_excess(n)
        assert closed == tori.binomial_moment_partition(n, {1: 2}) - tori.binomial_moment_partition(n, {2: 1})
        assert closed == pair - quad
        assert pair == tori.binomial_moment(n, {1: 2}) == tori.binomial_moment_partition(n, {1: 2})
        assert quad == tori.binomial_moment(n, {2: 1}) == tori.binomial_moment_partition(n, {2: 1})


def _orders_of_weight_at_most(w: int) -> list[dict[int, int]]:
    """Every k with sum_i i*k_i <= w, as the multiplicities of a partition."""
    return [dict(Counter(parts)) for s in range(w + 1) for parts in tori.partitions(s)]


@pytest.mark.parametrize("k", _orders_of_weight_at_most(4), ids=str)
def test_binomial_moment_closed_form_equals_partition_sum(k):
    weight = sum(i * ki for i, ki in k.items())
    for n in range(1, 9):
        closed = tori.binomial_moment(n, k)
        assert closed == tori.binomial_moment_partition(n, k)
        if not k:
            assert closed == ONE
        if weight > n:
            assert closed == RF(0)


@pytest.mark.parametrize("k", [k for k in _orders_of_weight_at_most(4) if k], ids=str)
def test_binomial_moment_equals_the_qq_reference(k):
    # one integer numerator and denominator against the chain of Q(q) products and quotients
    for n in range(1, 17):
        assert tori.binomial_moment(n, k) == qq_reference.torus_binomial_moment(n, k)


def test_binomial_moment_rejects_negative_orders():
    for k in ({1: -1}, {0: 1}):
        with pytest.raises(ValueError):
            tori.binomial_moment(3, k)


def _oracle_moment(n, k):
    return enumerate_stats(n, 2, discriminants=False).binomial_moment(k)


@pytest.mark.parametrize(
    "k",
    [{0: 2}, {-1: 1}, {1: -1}, {1: 1.0}, {1.0: 1}, {1: True}, {True: 1}, {1: Fraction(1)}, {2: 0.5}],
    ids=str,
)
@pytest.mark.parametrize(
    "moment",
    [tori.binomial_moment, tori.binomial_moment_partition, sqfree.binomial_moment, _oracle_moment],
    ids=lambda f: f"{f.__module__}.{f.__name__}",
)
def test_every_binomial_moment_rejects_bad_orders(moment, k):
    # one shared check: an int degree >= 1 and an int order >= 0, no bool or float
    with pytest.raises(ValueError):
        moment(3, k)


def test_subtori_excess_limit_expansion():
    coeffs = tori.tori_quad_excess_limit().inverse_q_expansion(8)
    assert coeffs[0] == 0
    assert coeffs[1:] == [1, 1, 2, 2, 3, 3, 4, 4]


def test_subtori_excess_finite_n_expansion_prefix():
    # for n = 12 the finite-n corrections sit beyond 1/q^8
    coeffs = tori.tori_quad_excess(12).inverse_q_expansion(8)
    assert coeffs[1:] == [1, 1, 2, 2, 3, 3, 4, 4]


# ---------------------------------------------------------------------------
# mod-2 bias
# ---------------------------------------------------------------------------


def test_mod2_bias_values():
    assert tori.mod2_bias_formula(1) == ONE
    assert tori.mod2_bias_formula(4) == RF.q_power(6)
    assert tori.mod2_bias_partition(2).eval(2) == 2  # 3 - 1


def test_mod2_bias_routes_agree():
    for n in range(1, 13):
        formula = tori.mod2_bias_formula(n)
        assert formula == tori.mod2_bias_partition(n)
        assert formula == tori.mod2_bias_series(n)


def test_bias_is_square_root_of_total():
    for n in range(1, 13):
        assert tori.mod2_bias_formula(n) * tori.mod2_bias_formula(n) == tori.total_tori_formula(n)
