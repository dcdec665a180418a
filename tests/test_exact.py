"""Exact arithmetic: polynomials in q, the field Q(q), |GL(n,q)|."""

import itertools
from fractions import Fraction

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
    poly_gcd,
)

RF = RationalFunction


def poly(*coeffs):
    """QPoly from lowest-degree-first integer coefficients."""
    return QPoly(coeffs)


def monomial(k, c):
    """c*q^k."""
    return QPoly([0] * k + [c])


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
# rendering
# ---------------------------------------------------------------------------


def test_render_descending():
    assert str(RF(poly(0, -1, 1))) == "q^2 - q"
    assert str(RF(poly(3, Fraction(1, 2)))) == "1/2*q + 3"
    assert str(RF(poly(1), poly(1, 1))) == "(1)/(q + 1)"


_FIXED_TEXTS = [
    (Q**2 - Q, "q^2 - q"),
    (ONE, "1"),
    (RF(0), "0"),
    ((Q**2 - Q) / (Q + ONE), "(q^2 - q)/(q + 1)"),
    (RF(poly(3, 0, Fraction(1, 2))), "1/2*q^2 + 3"),
    (ONE - Q, "-q + 1"),
    (ONE / Q, "(1)/(q)"),
]


@pytest.mark.parametrize("value,text", _FIXED_TEXTS, ids=[text for _, text in _FIXED_TEXTS])
def test_render_fixed_texts(value, text):
    assert str(value) == text


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
@given(_rfs, _rfs, _nonzero_polys, st.integers(min_value=0, max_value=4), _fractions.filter(bool))
def test_equal_text_exactly_when_equal_value(f, g, h, k, c):
    # the same value built another way; values that differ from it by the
    # term c*q^k in the numerator or the denominator, or by the factor c;
    # and an unrelated one
    same = RF(f.num * h, f.den * h)
    near = [RF(f.num + monomial(k, c), f.den), RF(f.num * QPoly.constant(c), f.den)]
    if not (f.den + monomial(k, c)).is_zero():
        near.append(RF(f.num, f.den + monomial(k, c)))
    assert str(same) == str(f)
    for v in (same, *near, g):
        assert (str(v) == str(f)) == (v == f)


# ---------------------------------------------------------------------------
# the one gcd, the division by q^i - 1, nested denominators, canonical forms
# ---------------------------------------------------------------------------


# rational and integer coefficients of either sign, zero, constants and
# monomials c*q^k
_gcd_operands = st.one_of(
    _polys,
    st.lists(st.integers(min_value=-1000, max_value=1000), max_size=6).map(QPoly),
    st.builds(monomial, st.integers(min_value=0, max_value=4), _fractions),
)


@settings(max_examples=150, deadline=None)
@given(_gcd_operands, _gcd_operands, _gcd_operands)
@example(QPoly(), poly(0, 0, 1), poly(1, 1))
@example(poly(3), poly(-2, 0, -5), poly(-1, 1))
@example(poly(0, 0, -4), poly(0, 6), poly(0, 1))
@example(poly(-7, 2, 9), poly(5, -3), poly(-1, 0, 0, -2))
def test_poly_gcd_with_planted_factor(a, b, c):
    a, b = a * c, b * c
    g, ca, cb = poly_gcd(a, b)
    assert (g * ca, g * cb) == (a, b)
    assert g.is_zero() or g.leading() == 1
    if not c.is_zero():
        # c divides g: its cofactor against gcd(g, c) is a constant
        assert poly_gcd(g, c)[2].degree <= 0


@pytest.mark.parametrize(
    "f,g,gcd",
    [
        # (q - 1)(2q^2 + 2q - 1) and (q - 1)(q + 2)
        ((1, -3, 0, 2), (-2, 1, 1), (-1, 1)),
        # -(q^2 + 1)(3q - 5) and (q^2 + 1)(q^3 - 7): negative leading coefficient
        ((5, -3, 5, -3), (-7, 0, -7, 1, 0, 1), (1, 0, 1)),
        # coprime, with coefficients of 10^12
        ((10**12 + 1, 3, 1), (-(10**9), 1), (1,)),
        # (1000q - 999)^2 and (1000q - 999)(q^4 + 1)
        ((998001, -1998000, 1000000), (-999, 1000, 0, 0, -999, 1000), (-999, 1000)),
    ],
)
def test_euclidean_gcd_on_hard_cases(f, g, gcd):
    f, g = list(f), list(g)
    h, cf, cg = exact._euclidean_gcd(f, g)
    assert h == list(gcd)
    assert exact._mul(h, cf) == f and exact._mul(h, cg) == g


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=8), st.integers(min_value=1, max_value=7), st.data())
def test_division_by_q_power_minus_one_inverts_the_product(z, i, data):
    product = exact._times_q_power_minus_one(z, i)
    assert exact._divided_by_q_power_minus_one(product, i) == z
    # a nonzero remainder of degree below i is refused
    rem = data.draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=i, max_size=i).filter(any))
    with pytest.raises(ArithmeticError):
        exact._divided_by_q_power_minus_one([c + r for c, r in zip(product, rem)] + product[i:], i)


_int_numerators = st.one_of(
    st.integers(min_value=-9, max_value=9).map(QPoly.constant),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=4).map(QPoly),
)
_monic_int_polys = st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(lambda z: QPoly(z + [1]))


@settings(max_examples=100, deadline=None)
@given(_int_numerators, _int_numerators, _monic_int_polys, _monic_int_polys, st.booleans())
@example(QPoly.constant(1), QPoly.constant(1), poly(-1, 1), poly(1, 1), False)
@example(QPoly.constant(1), QPoly.constant(1), poly(Fraction(1, 2), 1), poly(1, 1), False)
def test_add_over_the_larger_of_two_nested_denominators(a, b, d, r, half):
    # a/d + b/(d*r) in either order, with a half in d or without
    if half:
        d = d + QPoly.constant(Fraction(1, 2))
    for s, t in itertools.permutations((RF(a, d), RF(b, d * r))):
        assert s + t == RF(s.num * t.den + t.num * s.den, s.den * t.den)


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
    assert poly_gcd(f.num, f.den)[0] == poly(1)
