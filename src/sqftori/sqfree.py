"""Counts and expectations for square-free monic polynomials over F_q.

Everything is an exact element of Q(q).  The central tool is the
factorization generating function

    prod_{d>=1} (1 - u^d)^(-N(d,q)) = 1/(1 - qu),

where N(d,q) is the number of monic irreducible polynomials of degree d.
Truncating at order N only needs the factors with d <= N, since higher
degrees cannot touch the coefficients of u^0..u^N.

The quadratic-factor statistics use two interchangeable routes: direct
coefficient extraction from a closed-form series, and a finite-n formula
driven by two integer sequences defined by their generating functions.
Their exact agreement in Q(q) is the heart of the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import ONE, Q, RationalFunction
from .series import RATIONALS, RATIONAL_FUNCTIONS, TruncatedSeries

#: default truncation order for verification runs; covers every displayed
#: coefficient with headroom and still builds in well under a second.
DEFAULT_ORDER = 24

_RING = RATIONAL_FUNCTIONS


def _mobius(n: int) -> int:
    if n < 1:
        raise ValueError("Moebius function needs a positive argument")
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


@lru_cache(maxsize=None)
def count_irreducibles(d: int) -> RationalFunction:
    """N(d,q): monic irreducible degree-d polynomials over F_q.

    Gauss' formula N(d,q) = (1/d) * sum_{e|d} mu(e) q^(d/e); always a
    polynomial in q with rational coefficients.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    acc = RationalFunction(0)
    for e in range(1, d + 1):
        if d % e == 0:
            m = _mobius(e)
            if m:
                acc = acc + RationalFunction.from_fraction(Fraction(m, d)) * RationalFunction.q_power(d // e)
    return acc


def _binomial_factor(order: int, d: int, sign: int, negate_exponent: bool) -> TruncatedSeries:
    """(1 + sign*u^d) ** E for E = +-N(d,q), as a truncated series over Q(q).

    The binomial series: sum_k C(E,k) sign^k u^(dk), where
    C(E,k) = E(E-1)...(E-k+1)/k! is a polynomial in q.
    """
    e = count_irreducibles(d)
    if negate_exponent:
        e = -e
    terms = {0: ONE}
    c = ONE
    for k in range(1, order // d + 1):
        c = c * (e - (k - 1)) * RationalFunction.from_fraction(Fraction(sign, k))
        terms[d * k] = c
    return TruncatedSeries.from_terms(_RING, order, terms)


@lru_cache(maxsize=None)
def squarefree_product_series(order: int) -> TruncatedSeries:
    """prod_{d<=order} (1 + u^d)^N(d,q): square-free monic polynomials by degree."""
    acc = TruncatedSeries.one(_RING, order)
    for d in range(1, order + 1):
        acc = acc * _binomial_factor(order, d, +1, False)
    return acc


@lru_cache(maxsize=None)
def signed_product_series(order: int) -> TruncatedSeries:
    """prod_{d<=order} (1 - u^d)^N(d,q): sign-weighted square-free count."""
    acc = TruncatedSeries.one(_RING, order)
    for d in range(1, order + 1):
        acc = acc * _binomial_factor(order, d, -1, False)
    return acc


@lru_cache(maxsize=None)
def inverse_factorization_series(order: int) -> TruncatedSeries:
    """prod_{d<=order} (1 - u^d)^(-N(d,q)): all monic polynomials by degree."""
    acc = TruncatedSeries.one(_RING, order)
    for d in range(1, order + 1):
        acc = acc * _binomial_factor(order, d, -1, True)
    return acc


def geometric_q_series(order: int) -> TruncatedSeries:
    """1/(1 - qu), the generating function of all monic polynomials."""
    one = TruncatedSeries.one(_RING, order)
    return one / TruncatedSeries.from_terms(_RING, order, {0: ONE, 1: -Q})


@lru_cache(maxsize=None)
def _closed_squarefree_series(order: int) -> TruncatedSeries:
    """(1 - qu^2)/(1 - qu), the closed form of the square-free product."""
    num = TruncatedSeries.from_terms(_RING, order, {0: ONE, 2: -Q})
    den = TruncatedSeries.from_terms(_RING, order, {0: ONE, 1: -Q})
    return num / den


def _working_order(n: int) -> int:
    return n if n > DEFAULT_ORDER else DEFAULT_ORDER


def squarefree_count_formula(n: int) -> RationalFunction:
    """q^n - q^(n-1) for n >= 2; q for n = 1; 1 for n = 0."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n == 0:
        return ONE
    if n == 1:
        return Q
    return RationalFunction.q_power(n) - RationalFunction.q_power(n - 1)


def squarefree_count(n: int) -> RationalFunction:
    """Number of square-free monic degree-n polynomials, by the product route."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return squarefree_product_series(_working_order(n)).coefficient(n)


def moebius_signed_sum(n: int) -> RationalFunction:
    """Sum of (-1)^(number of irreducible factors) over square-free monic
    degree-n polynomials, extracted from the signed product.

    Equals the coefficient of u^n in 1 - qu: the sum vanishes for all
    n >= 2, which is what makes discriminants equidistribute between
    residues and nonresidues.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    return signed_product_series(_working_order(n)).coefficient(n)


# ---------------------------------------------------------------------------
# expected number of linear factors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _linear_factor_series(order: int) -> TruncatedSeries:
    """qu/(1+u) * (1-qu^2)/(1-qu): the x-derivative of the marked product at x=1."""
    num = TruncatedSeries.from_terms(_RING, order, {1: Q})
    den = TruncatedSeries.from_terms(_RING, order, {0: ONE, 1: ONE})
    return (num / den) * _closed_squarefree_series(order)


def expected_linear_factors_series(n: int) -> RationalFunction:
    """Series route: extract [u^n] and divide by the square-free count."""
    if n < 2:
        raise ValueError("the linear-factor expectation needs n >= 2")
    coeff = _linear_factor_series(_working_order(n)).coefficient(n)
    return coeff / squarefree_count_formula(n)


def expected_linear_factors_sum(n: int) -> RationalFunction:
    """Closed form: the alternating partial sum 1 - 1/q + ... +- 1/q^(n-2)."""
    if n < 2:
        raise ValueError("the linear-factor expectation needs n >= 2")
    acc = RationalFunction(0)
    for i in range(n - 1):
        term = RationalFunction.q_power(-i)
        acc = acc + (term if i % 2 == 0 else -term)
    return acc


def expected_linear_factors(n: int) -> RationalFunction:
    """Expected number of distinct roots of a random square-free monic
    degree-n polynomial, by the closed-form partial sum."""
    return expected_linear_factors_sum(n)


# ---------------------------------------------------------------------------
# excess of irreducible over reducible quadratic factors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _quad_excess_series(order: int) -> TruncatedSeries:
    """[1/(1+(u/q)^2) - 1/(1+u/q)^2] * (u^2/2) * (1-u^2/q)/(1-u).

    The coefficient of u^n is E[n_2 - C(n_1,2)] for a uniform square-free
    monic degree-n polynomial, where n_i counts degree-i irreducible
    factors.
    """
    one = TruncatedSeries.one(_RING, order)
    inv_q = RationalFunction.q_power(-1)
    a = one + TruncatedSeries.from_terms(_RING, order, {2: RationalFunction.q_power(-2)})
    b = one + TruncatedSeries.from_terms(_RING, order, {1: inv_q})
    bracket = one / a - one / (b * b)
    front = TruncatedSeries.from_terms(
        _RING, order, {2: RationalFunction.from_fraction(Fraction(1, 2))}
    )
    tail_num = TruncatedSeries.from_terms(_RING, order, {0: ONE, 2: -inv_q})
    tail_den = TruncatedSeries.from_terms(_RING, order, {0: ONE, 1: -ONE})
    return bracket * front * (tail_num / tail_den)


def quad_excess_exact(n: int) -> RationalFunction:
    """E[n_2 - C(n_1,2)] by direct coefficient extraction."""
    if n < 2:
        raise ValueError("the quadratic excess needs n >= 2")
    return _quad_excess_series(_working_order(n)).coefficient(n)


@dataclass(frozen=True)
class SequenceTable:
    """One of the two integer sequences in the finite-n excess formula.

    The sequences are defined by their generating functions
    (the verbal patterns are only a cross-check):

        kind "a":  sum_i a_i u^i = u(1+u) / ((1-u)^2 (1+u^2))
        kind "b":  sum_i b_i u^i = 1 / ((1-u)^2 (1+u^2)) - 1

    ``values[i-1]`` holds the i-th term.
    """

    kind: str
    values: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        if i < 1 or i > len(self.values):
            raise IndexError(f"sequence index {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]

    @staticmethod
    def generate(kind: str, count: int) -> "SequenceTable":
        if kind not in ("a", "b"):
            raise ValueError("sequence kind must be 'a' or 'b'")
        order = count
        ring = RATIONALS
        one = TruncatedSeries.one(ring, order)
        u = TruncatedSeries.u(ring, order)
        den = (one - u) * (one - u) * (one + u * u)
        if kind == "a":
            f = (u + u * u) / den
        else:
            f = one / den - one
        values = []
        for i in range(1, count + 1):
            c = f.coefficient(i)
            if c.denominator != 1 or c <= 0:
                raise ArithmeticError(f"sequence {kind} produced a non-positive term {c} at {i}")
            values.append(int(c))
        return SequenceTable(kind, tuple(values))


@lru_cache(maxsize=None)
def _default_tables(count: int) -> tuple[SequenceTable, SequenceTable]:
    return SequenceTable.generate("a", count), SequenceTable.generate("b", count)


def quad_excess_formula(
    n: int,
    a_table: SequenceTable | None = None,
    b_table: SequenceTable | None = None,
) -> RationalFunction:
    """The finite-n excess formula.

    0 for n = 2, 1/q for n = 3, and for n >= 4

        [ sum_{i=1..n-3} (-1)^(i+1) a_i / q^i ] - (-1)^n b_{n-3} / q^(n-2).
    """
    if n < 2:
        raise ValueError("the quadratic excess needs n >= 2")
    if n == 2:
        return RationalFunction(0)
    if n == 3:
        return RationalFunction.q_power(-1)
    if a_table is None or b_table is None:
        a_default, b_default = _default_tables(max(n - 3, 1))
        a_table = a_table or a_default
        b_table = b_table or b_default
    acc = RationalFunction(0)
    for i in range(1, n - 2):
        term = RationalFunction.from_fraction(Fraction(a_table[i])) * RationalFunction.q_power(-i)
        acc = acc + (term if i % 2 == 1 else -term)
    tail = RationalFunction.from_fraction(Fraction(b_table[n - 3])) * RationalFunction.q_power(-(n - 2))
    return acc - (tail if n % 2 == 0 else -tail)


def quad_excess_limit() -> RationalFunction:
    """The n -> infinity limit of the quadratic excess:

        (1/q) (1 - 1/q) / ((1 + 1/q)^2 (1 + 1/q^2))

    which normalizes to q^2 (q-1) / ((q+1)^2 (q^2+1)).  Its expansion in
    powers of 1/q starts 1/q - 3/q^2 + 4/q^3 - 4/q^4 + ...
    """
    inv_q = RationalFunction.q_power(-1)
    one_plus = ONE + inv_q
    return (
        inv_q
        * (ONE - inv_q)
        / (one_plus * one_plus * (ONE + RationalFunction.q_power(-2)))
    )


__all__ = [
    "DEFAULT_ORDER",
    "SequenceTable",
    "count_irreducibles",
    "expected_linear_factors",
    "expected_linear_factors_series",
    "expected_linear_factors_sum",
    "geometric_q_series",
    "inverse_factorization_series",
    "moebius_signed_sum",
    "quad_excess_exact",
    "quad_excess_formula",
    "quad_excess_limit",
    "signed_product_series",
    "squarefree_count",
    "squarefree_count_formula",
    "squarefree_product_series",
]
