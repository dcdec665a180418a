"""Truncated power series: arithmetic, exp/log, powers, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqftori.exact import ONE, Q, RationalFunction
from sqftori.series import RATIONALS, RATIONAL_FUNCTIONS, TruncatedSeries

QQ = RATIONALS
RQ = RATIONAL_FUNCTIONS


def qq_series(order, terms):
    return TruncatedSeries.from_terms(QQ, order, {k: Fraction(v) for k, v in terms.items()})


def one(order, ring=QQ):
    return TruncatedSeries.one(ring, order)


# ---------------------------------------------------------------------------
# add / mul / div
# ---------------------------------------------------------------------------


def test_mul_difference_of_squares():
    f = qq_series(2, {0: 1, 1: 1})
    g = qq_series(2, {0: 1, 1: -1})
    assert (f * g).coeffs == (1, 0, -1)


def test_mul_inverse_pair():
    order = 3
    geom = one(order, RQ) / TruncatedSeries.from_terms(RQ, order, {0: ONE, 1: -Q})
    recovered = geom * TruncatedSeries.from_terms(RQ, order, {0: ONE, 1: -Q})
    assert recovered == one(order, RQ)


def test_add_identity():
    f = qq_series(4, {0: 2, 3: 5})
    assert f + TruncatedSeries.from_terms(QQ, 4, {}) == f


def test_orders_take_the_minimum():
    f = qq_series(5, {0: 1, 1: 1})
    g = qq_series(3, {0: 1})
    assert (f + g).order == 3
    assert (f * g).order == 3


def test_mixed_rings_rejected():
    with pytest.raises(ValueError):
        qq_series(3, {0: 1}) + one(3, RQ)


def test_div_closed_form_squarefree_series():
    # (1 - qu^2)/(1 - qu) has coefficients q^n - q^(n-1) for n >= 2
    order = 6
    num = TruncatedSeries.from_terms(RQ, order, {0: ONE, 2: -Q})
    den = TruncatedSeries.from_terms(RQ, order, {0: ONE, 1: -Q})
    f = num / den
    assert f.coefficient(0) == ONE
    assert f.coefficient(1) == Q
    for n in range(2, order + 1):
        assert f.coefficient(n) == RationalFunction.q_power(n) - RationalFunction.q_power(n - 1)


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
    f = TruncatedSeries.from_terms(RQ, 3, {1: ONE / (Q - ONE)})
    expected = ONE / (RationalFunction.from_fraction(2) * (Q - ONE) ** 2)
    assert f.exp().coefficient(2) == expected


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
# substitution / coefficient access
# ---------------------------------------------------------------------------


def test_substitute_u_over_q():
    order = 4
    geom = one(order, RQ) / TruncatedSeries.from_terms(RQ, order, {0: ONE, 1: -ONE})
    shifted = geom.substitute(RationalFunction.q_power(-1))
    for k in range(order + 1):
        assert shifted.coefficient(k) == RationalFunction.q_power(-k)


def test_substitute_u_squared():
    f = qq_series(4, {0: 1, 1: 1})
    assert f.substitute(Fraction(1), 2).coeffs == (1, 0, 1, 0, 0)


def test_substitute_alternating():
    geom = one(5) / qq_series(5, {0: 1, 1: -1})
    assert geom.substitute(Fraction(-1)).coeffs == (1, -1, 1, -1, 1, -1)


def test_coefficient_past_order_is_an_error():
    f = qq_series(4, {0: 1})
    with pytest.raises(IndexError):
        f.coefficient(5)
    with pytest.raises(IndexError):
        f.coefficient(-1)


def test_canonical_text_rendering():
    order = 3
    num = TruncatedSeries.from_terms(RQ, order, {0: ONE, 2: -Q})
    den = TruncatedSeries.from_terms(RQ, order, {0: ONE, 1: -Q})
    assert str(num / den) == "1 + q*u + (q^2 - q)*u^2 + (q^3 - q^2)*u^3"
    assert str(qq_series(2, {0: 1, 2: Fraction(-1, 2)})) == "1 + 0*u + (-1/2)*u^2"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _series(order):
    return st.lists(_fractions, min_size=order + 1, max_size=order + 1).map(
        lambda cs: TruncatedSeries(QQ, cs)
    )


@settings(max_examples=40, deadline=None)
@given(_series(6))
def test_exp_log_roundtrip_random(f):
    g = TruncatedSeries(QQ, (Fraction(0),) + f.coeffs[1:])  # force constant term 0
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
    g = TruncatedSeries(RQ, (zero,) + tuple(coeffs[1:]))
    assert g.exp().log() == g


@settings(max_examples=40, deadline=None)
@given(_series(6), st.integers(min_value=0, max_value=5))
def test_integer_pow_matches_repeated_multiplication(f, k):
    g = TruncatedSeries(QQ, (Fraction(1),) + f.coeffs[1:])  # constant term 1
    expected = one(6)
    for _ in range(k):
        expected = expected * g
    assert g.pow(k) == expected


@settings(max_examples=40, deadline=None)
@given(_series(7))
def test_derivative_of_exp(f):
    g = TruncatedSeries(QQ, (Fraction(0),) + f.coeffs[1:])
    e = g.exp()
    lhs = e.derivative()
    rhs = g.derivative() * e.truncate(e.order - 1)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(_series(5), _series(5))
def test_mul_then_div_recovers(f, g):
    if g.coeffs[0] == 0:
        return
    assert (f * g) / g == f
