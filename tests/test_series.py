"""Truncated power series: arithmetic, exp/log, powers, substitution, and the
on-demand exp coefficients."""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqftori import exact, sqfree, tori
from sqftori.exact import ONE, Q, RationalFunction
from sqftori.series import ExpCoefficients, TruncatedSeries

RF = RationalFunction.from_fraction


def qq_series(order, terms):
    """A series whose coefficients are the constants `terms` of Q(q)."""
    return TruncatedSeries.from_terms(order, {k: RF(v) for k, v in terms.items()})


def one(order):
    return TruncatedSeries.one(order)


# ---------------------------------------------------------------------------
# mul / div
# ---------------------------------------------------------------------------


def test_mul_difference_of_squares():
    f = qq_series(2, {0: 1, 1: 1})
    g = qq_series(2, {0: 1, 1: -1})
    assert (f * g).coeffs == (1, 0, -1)


def test_mul_inverse_pair():
    order = 3
    geom = one(order) / TruncatedSeries.from_terms(order, {0: ONE, 1: -Q})
    recovered = geom * TruncatedSeries.from_terms(order, {0: ONE, 1: -Q})
    assert recovered == one(order)


def test_orders_take_the_minimum():
    f = qq_series(5, {0: 1, 1: 1})
    g = qq_series(3, {0: 1})
    assert (f * g).order == 3


def test_div_closed_form_squarefree_series():
    # (1 - qu^2)/(1 - qu) has coefficients q^n - q^(n-1) for n >= 2
    order = 6
    num = TruncatedSeries.from_terms(order, {0: ONE, 2: -Q})
    den = TruncatedSeries.from_terms(order, {0: ONE, 1: -Q})
    f = num / den
    assert f.coeffs[0] == ONE
    assert f.coeffs[1] == Q
    for n in range(2, order + 1):
        assert f.coeffs[n] == RationalFunction.q_power(n) - RationalFunction.q_power(n - 1)


def test_div_geometric():
    f = one(3) / qq_series(3, {0: 1, 1: -1})
    assert f.coeffs == (1, 1, 1, 1)


def test_div_by_itself():
    f = qq_series(4, {0: 2, 1: 3, 2: -1})
    assert (f / f).coeffs == (1, 0, 0, 0, 0)


def test_div_requires_unit_constant_term():
    with pytest.raises(ZeroDivisionError):
        one(3) / qq_series(3, {1: 1})


# ---------------------------------------------------------------------------
# exp / log / pow
# ---------------------------------------------------------------------------


def test_exp_log_inverse_pair():
    f = qq_series(6, {0: 1, 1: 1})
    assert f.log().exp() == f


def test_log_mercator():
    f = one(4) / qq_series(4, {0: 1, 1: -1})
    assert f.log().coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))


def test_exp_over_rational_functions():
    f = TruncatedSeries.from_terms(3, {1: ONE / (Q - ONE)})
    expected = ONE / (RationalFunction.from_fraction(2) * (Q - ONE) ** 2)
    assert f.exp().coeffs[2] == expected


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        one(3).exp()


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        qq_series(3, {0: 2}).log()


def test_pow_zero_exponent():
    f = qq_series(4, {0: 1, 1: 7, 2: -2})
    assert f.pow(0) == one(4)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_canonical_text_rendering():
    order = 3
    num = TruncatedSeries.from_terms(order, {0: ONE, 2: -Q})
    den = TruncatedSeries.from_terms(order, {0: ONE, 1: -Q})
    assert str(num / den) == "1 + q*u + (q^2 - q)*u^2 + (q^3 - q^2)*u^3"
    assert str(qq_series(2, {0: 1, 2: Fraction(-1, 2)})) == "1 + 0*u + (-1/2)*u^2"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _series(order):
    return st.lists(_fractions.map(RF), min_size=order + 1, max_size=order + 1).map(
        TruncatedSeries
    )


@settings(max_examples=40, deadline=None)
@given(_series(6))
def test_exp_log_roundtrip_random(f):
    g = TruncatedSeries((RF(0),) + f.coeffs[1:])  # force constant term 0
    assert g.exp().log() == g


_rf_coeffs = st.builds(
    lambda c, k: RationalFunction.from_fraction(c) * RationalFunction.q_power(k),
    _fractions,
    st.integers(min_value=-2, max_value=2),
)


@settings(max_examples=15, deadline=None)
@given(st.lists(_rf_coeffs, min_size=5, max_size=5))
def test_exp_log_roundtrip_over_rational_functions(coeffs):
    zero = RationalFunction.from_fraction(0)
    g = TruncatedSeries((zero,) + tuple(coeffs[1:]))
    assert g.exp().log() == g


@settings(max_examples=40, deadline=None)
@given(_series(6), st.integers(min_value=0, max_value=5))
def test_integer_pow_matches_repeated_multiplication(f, k):
    g = TruncatedSeries((RF(1),) + f.coeffs[1:])  # constant term 1
    expected = one(6)
    for _ in range(k):
        expected = expected * g
    assert g.pow(k) == expected


@settings(max_examples=40, deadline=None)
@given(_series(7))
def test_derivative_of_exp(f):
    g = TruncatedSeries((RF(0),) + f.coeffs[1:])
    e = g.exp()

    def derivative(s):  # d/du, one order lower
        return TruncatedSeries(RF(k) * c for k, c in enumerate(s.coeffs) if k)

    assert derivative(e) == derivative(g) * TruncatedSeries(e.coeffs[:-1])


@settings(max_examples=40, deadline=None)
@given(_series(5), _series(5))
def test_mul_then_div_recovers(f, g):
    if g.coeffs[0] == 0:
        return
    assert (f * g) / g == f


# ---------------------------------------------------------------------------
# on-demand exp coefficients
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_rf_coeffs, min_size=7, max_size=7),
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12),
)
def test_exp_coefficients_read_in_any_order_equal_the_series_exp(coeffs, reads):
    g = TruncatedSeries((RF(0),) + tuple(coeffs[1:]))
    expected = g.exp()
    asked = []

    def weighted(k):
        asked.append(k)
        return RF(k) * g.coeffs[k]

    memo = ExpCoefficients.from_log(weighted, ONE)
    for n in reads + sorted(reads, reverse=True) + sorted(reads):
        assert memo[n] == expected.coeffs[n]
    # each k*f_k is computed once, in increasing k, up to the highest read
    assert asked == list(range(1, max(reads) + 1))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(_rf_coeffs, min_size=7, max_size=7),
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12),
)
def test_exp_coefficients_with_weights_that_depend_on_n_hold_the_rescaled_exp(coeffs, reads):
    # c_n g_n for c_n = prod_{i<=n} (q^i - 1): the weight of c_(n-k) g_(n-k)
    # in n c_n g_n is k*f_k c_n/c_(n-k), as for the torus cycle index
    g = TruncatedSeries((RF(0),) + tuple(coeffs[1:]))
    expected = g.exp()
    scale = [ONE]
    for i in range(1, 7):
        scale.append(scale[-1] * (Q**i - ONE))
    asked = []

    def weight(n, k):
        asked.append((n, k))
        return RF(k) * g.coeffs[k] * scale[n] / scale[n - k]

    memo = ExpCoefficients(weight, ONE)
    for n in reads + sorted(reads, reverse=True):
        assert memo[n] == scale[n] * expected.coeffs[n]
    # at most once per (n, k), in increasing n
    assert len(set(asked)) == len(asked)
    assert [n for n, _ in asked] == sorted(n for n, _ in asked)


def test_exp_coefficients_run_in_the_ring_of_their_weights():
    # over QPoly numerators and over Q(q), the same exp(sum_k q^k u^k / k) = 1/(1 - qu)
    on_numerators = ExpCoefficients.from_log(exact.QPoly.q_power, exact.QPoly.constant(1))
    in_qq = ExpCoefficients.from_log(RationalFunction.q_power, ONE)
    for n in range(10):
        coefficient = on_numerators[n]
        assert isinstance(coefficient, exact.QPoly)
        assert RationalFunction(coefficient) == in_qq[n]
        assert coefficient == exact.QPoly.q_power(n)
    # weights q^k/k, f = sum_k q^k u^k / k^2: g_2 = (q * q + q^2/2) / 2, by
    # the exact division of a QPoly by n
    rational = ExpCoefficients.from_log(lambda k: exact.QPoly.q_power(k) / k, exact.QPoly.constant(1))
    assert rational[2] == exact.QPoly([0, 0, Fraction(3, 4)])


def test_exp_coefficients_refuse_a_negative_exponent():
    with pytest.raises(IndexError):
        ExpCoefficients(lambda n, k: ONE, ONE)[-1]


def test_clearing_the_symbolic_caches_leaves_no_memo(clear_symbolic_caches):
    sqfree.squarefree_count(6)
    sqfree.moebius_signed_sum(6)
    sqfree.inverse_factorization_series(6)
    sqfree.binomial_moment(6, {1: 2})
    tori.cycle_index_coefficient(5, -1)
    tori.expected_eigenvectors_series(5)
    clear_symbolic_caches()
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, ExpCoefficients)]
