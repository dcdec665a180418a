"""Exact arithmetic: polynomials in q, the field Q(q), |GL(n,q)|."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqftori import exact
from sqftori.exact import (
    ONE,
    Q,
    QPoly,
    RationalFunction,
    gl_order,
    parse_rational_function,
    poly_gcd,
    render_rational_function,
)

RF = RationalFunction


def poly(*coeffs):
    """QPoly from lowest-degree-first integer coefficients."""
    return QPoly(coeffs)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_common_factor():
    # (q^2 - q) / (q - 1) -> q
    f = RF(poly(0, -1, 1), poly(-1, 1))
    assert f == RF(poly(0, 1))
    assert str(f) == "q"


def test_normalize_zero():
    assert RF(QPoly(), poly(0, 0, 0, 1)) == RF(0)
    assert str(RF(0)) == "0"


def test_normalize_content():
    # (2q + 2) / 2 -> q + 1
    assert RF(poly(2, 2), poly(2)) == RF(poly(1, 1))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RF(poly(1), QPoly())


def test_denominator_made_monic():
    f = RF(poly(1), poly(0, 2))  # 1/(2q)
    assert f.den.leading() == 1
    assert f.eval(1) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------


def test_add_common_denominator():
    a = RF(poly(1), poly(-1, 1))  # 1/(q-1)
    b = RF(poly(1), poly(1, 1))  # 1/(q+1)
    assert a + b == RF(poly(0, 2), poly(-1, 0, 1))  # 2q/(q^2-1)


def test_mul_inverse():
    assert Q * (ONE / Q) == ONE


def test_div_exact_cancellation():
    assert RF(poly(-1, 0, 1)) / RF(poly(-1, 1)) == RF(poly(1, 1))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / RF(0)


def test_constants_hash_like_the_scalars_they_equal():
    half = RF.from_fraction(Fraction(1, 2))
    assert 1 in {ONE}
    assert ONE in {1}
    assert Fraction(1, 2) in {half}
    assert {RF(0): "zero"}[0] == "zero"
    assert len({ONE, 1, Fraction(1), half, Fraction(1, 2), Q}) == 3


def test_eval():
    assert RF(poly(0, -1, 1)).eval(2) == 2
    assert (ONE + ONE / Q).eval(2) == Fraction(3, 2)
    assert Q.eval(7) == 7


def test_eval_pole():
    with pytest.raises(ZeroDivisionError):
        (ONE / (Q - ONE)).eval(1)


def test_pow_negative():
    assert Q**-2 == RF(poly(1), poly(0, 0, 1))


# ---------------------------------------------------------------------------
# |GL(n, q)|
# ---------------------------------------------------------------------------


def _invertible_matrix_count(n: int, p: int) -> int:
    """Brute-force count of invertible n x n matrices over F_p."""

    def det(m):
        if n == 1:
            return m[0][0] % p
        if n == 2:
            return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        ) % p

    count = 0
    for entries in itertools.product(range(p), repeat=n * n):
        m = [entries[i * n : (i + 1) * n] for i in range(n)]
        if det(m) != 0:
            count += 1
    return count


def test_gl_order_small():
    assert gl_order(0) == QPoly([1])
    assert gl_order(1) == poly(-1, 1)
    assert gl_order(2) == poly(0, 1, -1, -1, 1)  # q^4 - q^3 - q^2 + q


@pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
def test_gl_order_matches_matrix_enumeration(n, p):
    assert gl_order(n).eval(p) == _invertible_matrix_count(n, p)


def test_gl_order_degree():
    for n in range(1, 7):
        assert gl_order(n).degree == n * n


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------


def test_render_descending():
    assert str(RF(poly(0, -1, 1))) == "q^2 - q"
    assert str(RF(poly(3, Fraction(1, 2)))) == "1/2*q + 3"
    assert str(RF(poly(1), poly(1, 1))) == "(1)/(q + 1)"


@pytest.mark.parametrize(
    "text",
    ["q^2 - q", "1", "0", "(q^2 - q)/(q + 1)", "1/2*q^2 + 3", "-q + 1", "(1)/(q)"],
)
def test_parse_roundtrip(text):
    assert render_rational_function(parse_rational_function(text)) == text


# ---------------------------------------------------------------------------
# property tests: field axioms and evaluation homomorphism
# ---------------------------------------------------------------------------

_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_polys = st.lists(_fractions, min_size=0, max_size=4).map(QPoly)
_nonzero_polys = _polys.filter(lambda f: not f.is_zero())
_rfs = st.builds(RF, _polys, _nonzero_polys)
_nonzero_rfs = st.builds(RF, _nonzero_polys, _nonzero_polys)


@settings(max_examples=60, deadline=None)
@given(_rfs, _rfs, _rfs)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RF(0) == a
    assert a * ONE == a
    assert a + (-a) == RF(0)


@settings(max_examples=60, deadline=None)
@given(_nonzero_rfs)
def test_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE


@settings(max_examples=60, deadline=None)
@given(_rfs, _rfs, st.integers(min_value=-3, max_value=5))
def test_eval_is_a_homomorphism(a, b, q0):
    try:
        av, bv = a.eval(q0), b.eval(q0)
        sv = (a + b).eval(q0)
        pv = (a * b).eval(q0)
    except ZeroDivisionError:
        return  # pole at q0; nothing to compare
    assert sv == av + bv
    assert pv == av * bv


@settings(max_examples=40, deadline=None)
@given(_nonzero_polys, _nonzero_polys)
def test_poly_gcd_divides_both(a, b):
    g, ca, cb = poly_gcd(a, b)
    assert (a % g).is_zero()
    assert (b % g).is_zero()
    assert g.leading() == 1
    assert (g * ca, g * cb) == (a, b)


@settings(max_examples=40, deadline=None)
@given(_polys, _nonzero_polys)
def test_rf_canonical_form_is_unique(num, den):
    f = RF(num, den)
    # scaling numerator and denominator together leaves the representation fixed
    g = RF(num * poly(0, 3), den * poly(0, 3))
    assert (f.num, f.den) == (g.num, g.den)


@settings(max_examples=60, deadline=None)
@given(_rfs)
def test_render_parse_roundtrip_random(f):
    assert parse_rational_function(render_rational_function(f)) == f


# ---------------------------------------------------------------------------
# the heuristic gcd against its Euclidean fallback, and canonical forms
# ---------------------------------------------------------------------------


def _euclidean(a, b):
    """poly_gcd(a, b) with the heuristic giving up, so the fallback runs."""
    with mock.patch.object(exact, "_heu_gcd", lambda f, g: None):
        return poly_gcd(a, b)


# rational and integer coefficients of either sign, zero, constants and
# monomials c*q^k
_gcd_operands = st.one_of(
    _polys,
    st.lists(st.integers(min_value=-1000, max_value=1000), max_size=6).map(QPoly),
    st.builds(QPoly.q_power, st.integers(min_value=0, max_value=4), _fractions),
)


@settings(max_examples=150, deadline=None)
@given(_gcd_operands, _gcd_operands, _gcd_operands)
@example(QPoly(), poly(0, 0, 1), poly(1, 1))
@example(poly(3), poly(-2, 0, -5), poly(-1, 1))
@example(poly(0, 0, -4), poly(0, 6), poly(0, 1))
@example(poly(-7, 2, 9), poly(5, -3), poly(-1, 0, 0, -2))
def test_heuristic_gcd_matches_euclidean_with_planted_factor(a, b, c):
    a, b = a * c, b * c
    got = poly_gcd(a, b)
    assert got == _euclidean(a, b)
    g, ca, cb = got
    assert (g * ca, g * cb) == (a, b)
    assert g.is_zero() or g.leading() == 1
    if not c.is_zero():
        assert (g % c).is_zero()


@pytest.mark.parametrize(
    "f,g,gcd",
    [
        # (q - 1)(2q^2 + 2q - 1) and (q - 1)(q + 2)
        ((1, -3, 0, 2), (-2, 1, 1), (-1, 1)),
        # -(q^2 + 1)(3q - 5) and (q^2 + 1)(q^3 - 7): negative leading coefficient
        ((5, -3, 5, -3), (-7, 0, -7, 1, 0, 1), (1, 0, 1)),
        # coprime, with coefficients far above the evaluation point's floor
        ((10**12 + 1, 3, 1), (-(10**9), 1), (1,)),
        # (1000q - 999)^2 and (1000q - 999)(q^4 + 1)
        ((998001, -1998000, 1000000), (-999, 1000, 0, 0, -999, 1000), (-999, 1000)),
    ],
)
def test_heuristic_gcd_succeeds_and_agrees_with_euclidean(f, g, gcd):
    f, g = list(f), list(g)
    found = exact._heu_gcd(f, g)
    assert found is not None
    h, cf, cg = found
    assert h == list(gcd)
    assert exact._euclidean_gcd(f, g)[0] == list(gcd)
    assert exact._mul(h, cf) == f and exact._mul(h, cg) == g


@settings(max_examples=60, deadline=None)
@given(
    _rfs,
    st.lists(
        st.tuples(
            st.sampled_from("+-*/^"), _rfs, st.integers(min_value=-2, max_value=2)
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_rf_stays_canonical_after_arithmetic(f, steps):
    for op, g, k in steps:
        if op == "+":
            f = f + g
        elif op == "-":
            f = f - g
        elif op == "*":
            f = f * g
        elif op == "/" and not g.is_zero():
            f = f / g
        elif op == "^" and not (k < 0 and f.is_zero()):
            f = f**k
    assert f.den.leading() == 1
    assert _euclidean(f.num, f.den)[0] == poly(1)
    assert parse_rational_function(str(f)) == f
