"""Maximal torus counts: partition sums against closed forms and series."""

from fractions import Fraction

import pytest

from sqftori import suites, tori
from sqftori.exact import ONE, Q, RationalFunction, gl_order
from sqftori.report import RunConfig

RF = RationalFunction


# ---------------------------------------------------------------------------
# partitions and centralizers
# ---------------------------------------------------------------------------


def test_partition_counts():
    assert len(tori.partitions(4)) == 5
    assert len(tori.partitions(7)) == 15
    assert len(tori.partitions(12)) == 77
    assert tori.partitions(1) == (tori.Partition((1,)),)
    assert tori.partitions(0) == (tori.Partition(()),)


def test_partition_order_reverse_lexicographic():
    parts = [p.parts for p in tori.partitions(4)]
    assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert parts == sorted(parts, reverse=True)


def test_partition_validation():
    with pytest.raises(ValueError):
        tori.Partition((1, 2))
    with pytest.raises(ValueError):
        tori.Partition((0,))


def test_centralizer_order():
    assert tori.centralizer_order(tori.Partition((1, 1))) == 2
    assert tori.centralizer_order(tori.Partition((2,))) == 2
    assert tori.centralizer_order(tori.Partition((2, 1, 1))) == 4
    assert tori.centralizer_order(tori.Partition((3, 2, 2, 1))) == 3 * 8 * 1


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
    split = tori.torus_type_count(tori.Partition((1, 1)))
    inert = tori.torus_type_count(tori.Partition((2,)))
    assert split == Q * (Q + ONE) / RF.from_fraction(2)
    assert inert == Q * (Q - ONE) / RF.from_fraction(2)
    assert split.eval(2) == 3
    assert inert.eval(2) == 1


def test_total_four_tori_for_gl2_over_f2():
    assert tori.total_tori(2).eval(2) == 4


def test_type_counts_are_polynomials():
    for n in range(1, 11):
        for rec in tori.type_distribution(n):
            assert rec.count.is_polynomial()


def test_irreducible_tori_count():
    assert tori.irreducible_tori_count(1) == ONE
    assert tori.irreducible_tori_count(2) == Q * (Q - ONE) / RF.from_fraction(2)
    assert tori.irreducible_tori_count(3).eval(2) == 8
    for n in range(1, 11):
        assert tori.irreducible_tori_count(n) == tori.torus_type_count(
            tori.Partition((n,))
        )


def test_total_tori():
    assert tori.total_tori(1) == ONE
    assert tori.total_tori(2) == Q * Q
    assert tori.total_tori(5) == RF.q_power(20)
    for n in range(1, 13):
        assert tori.total_tori(n) == tori.total_tori_formula(n)


def test_type_distribution_probabilities():
    recs = tori.type_distribution(2)
    by_parts = {rec.partition.parts: rec for rec in recs}
    assert by_parts[(1, 1)].probability.eval(2) == Fraction(3, 4)
    total = sum((rec.probability for rec in recs), RF(0))
    assert total == ONE
    recs3 = tori.type_distribution(3)
    prob_irred = {rec.partition.parts: rec for rec in recs3}[(3,)].probability
    assert prob_irred.eval(2) == Fraction(1, 8)


def test_cayley_identity():
    for n in range(1, 13):
        total = sum((rec.probability for rec in tori.type_distribution(n)), RF(0))
        assert total == ONE
        for rec in tori.type_distribution(n):
            assert not rec.probability.is_zero()


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
        assert tori.cycle_index_coefficient(n, 2) == tori._type_sum(n, lambda l: 2**l.num_parts)


def test_cycle_index_minus_one_reproduces_bias():
    for n in range(1, 9):
        series = tori.cycle_index_series(-1, n).substitute(
            tori.RationalFunction.from_fraction(-1)
        )
        bias = RF(gl_order(n)) * series.coefficient(n)
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
    # the registry grid starts at order 12; the lower orders are checked here
    for order in range(1, 12):
        assert tori.euler_sum_series(which, order) == tori.euler_shifted_series(which, order)


def test_euler_first_coefficient():
    f = tori.euler_sum_series(1, 3)
    assert f.coefficient(1) == ONE / (Q - ONE)


# ---------------------------------------------------------------------------
# expected eigenvectors
# ---------------------------------------------------------------------------


def test_expected_eigenvectors_values():
    assert tori.expected_eigenvectors(1) == ONE
    assert tori.expected_eigenvectors(2) == ONE + ONE / Q
    assert tori.expected_eigenvectors(2).eval(2) == Fraction(3, 2)
    assert tori.expected_eigenvectors(3).eval(2) == Fraction(7, 4)


def test_expected_eigenvectors_partition_sum_f2():
    # types of 3 at q=2: counts 28, 28, 8 with n_1 = 3, 1, 0
    recs = {rec.partition.parts: rec for rec in tori.type_distribution(3)}
    assert recs[(1, 1, 1)].count.eval(2) == 28
    assert recs[(2, 1)].count.eval(2) == 28
    assert recs[(3,)].count.eval(2) == 8
    expectation = Fraction(28 * 3 + 28 * 1 + 8 * 0, 64)
    assert tori.expected_eigenvectors(3).eval(2) == expectation


def test_expected_eigenvectors_routes_agree():
    for n in range(1, 13):
        closed = tori.binomial_moment(n, {1: 1})
        assert closed == sum((RF.q_power(-i) for i in range(n)), RF(0))
        assert closed == tori.binomial_moment_partition(n, {1: 1})
        assert closed == tori.expected_eigenvectors_series(n)
        assert closed == tori.expected_eigenvectors(n)


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
    return [l.multiplicities() for s in range(w + 1) for l in tori.partitions(s)]


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


def test_binomial_moment_rejects_negative_orders():
    for k in ({1: -1}, {0: 1}):
        with pytest.raises(ValueError):
            tori.binomial_moment(3, k)


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
    assert tori.mod2_bias(1) == ONE
    assert tori.mod2_bias(4) == RF.q_power(6)
    assert tori.mod2_bias_partition(2).eval(2) == 2  # 3 - 1


def test_mod2_bias_routes_agree():
    for n in range(1, 13):
        formula = tori.mod2_bias_formula(n)
        assert formula == tori.mod2_bias_partition(n)
        assert formula == tori.mod2_bias_series(n)


def test_bias_is_square_root_of_total():
    for n in range(1, 13):
        assert tori.mod2_bias_formula(n) * tori.mod2_bias_formula(n) == tori.total_tori_formula(n)
