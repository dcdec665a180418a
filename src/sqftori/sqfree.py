"""Counts and expectations for square-free monic polynomials over F_q.

Everything is an exact element of Q(q).  The central tool is the
factorization generating function

    prod_{d>=1} (1 - u^d)^(-N(d,q)) = 1/(1 - qu),

where N(d,q) is the number of monic irreducible polynomials of degree d.
Truncating at order N only needs the factors with d <= N, since higher
degrees cannot touch the coefficients of u^0..u^N.

Each degree product is one exp of its logarithm (`_degree_product`):

    prod_d (1 + sign*u^d)^(e_d) = exp(-sum_d e_d sum_k (-sign)^k u^(dk)/k).

At sign +1 and e_d = N(d,q) it is the powerset of the irreducibles (the
square-free f), at sign -1 and e_d = -N(d,q) their multiset (all monic f):
the Polya exponentials of Flajolet and Sedgewick, Analytic Combinatorics, I.2.

Every expectation is a combination of binomial moments E[prod_d C(X_d, k_d)],
X_d the number of degree-d irreducible factors.  Marking the square-free
product as prod_d (1 + x_d u^d)^N(d,q) and setting x_d = 1 + t_d gives
all of them in one closed form (`binomial_moment`): with s = sum_d d*k_d,

    E[prod_d C(X_d, k_d)] = prod_d C(N(d,q), k_d)
        * [u^(n-s)] (1-qu^2)/(1-qu) prod_d (1+u^d)^(-k_d) / S_n,

S_n = q^n - q^(n-1) (n >= 2) the number of square-free f of degree n.

It is checked against routes that share no intermediate value with it:
the alternating partial sum for E[X_1], and for E[X_2 - C(X_1,2)] a
finite-n formula driven by two integer sequences defined by their
generating functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .exact import ONE, Q, ZERO, RationalFunction
from .series import TruncatedSeries

#: default truncation order for verification runs; covers every displayed
#: coefficient with headroom and still builds in well under a second.
DEFAULT_ORDER = 24


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


def _degree_product(order: int, sign: int, exponents) -> TruncatedSeries:
    """prod over (d, e) of (1 + sign*u^d)^e, as the one exp of the module docstring."""
    log = [ZERO] * (order + 1)
    for d, e in exponents:
        for k in range(1, order // d + 1):
            log[d * k] = log[d * k] + e * RationalFunction.from_fraction(Fraction(-((-sign) ** k), k))
    return TruncatedSeries(log).exp()


@lru_cache(maxsize=None)
def squarefree_product_series(order: int) -> TruncatedSeries:
    """prod_{d<=order} (1 + u^d)^N(d,q): square-free monic polynomials by degree."""
    return _degree_product(order, +1, ((d, count_irreducibles(d)) for d in range(1, order + 1)))


@lru_cache(maxsize=None)
def signed_product_series(order: int) -> TruncatedSeries:
    """prod_{d<=order} (1 - u^d)^N(d,q): sign-weighted square-free count."""
    return _degree_product(order, -1, ((d, count_irreducibles(d)) for d in range(1, order + 1)))


@lru_cache(maxsize=None)
def inverse_factorization_series(order: int) -> TruncatedSeries:
    """prod_{d<=order} (1 - u^d)^(-N(d,q)): all monic polynomials by degree."""
    return _degree_product(order, -1, ((d, -count_irreducibles(d)) for d in range(1, order + 1)))


def geometric_q_series(order: int) -> TruncatedSeries:
    """1/(1 - qu), the generating function of all monic polynomials."""
    one = TruncatedSeries.one(order)
    return one / TruncatedSeries.from_terms(order, {0: ONE, 1: -Q})


@lru_cache(maxsize=None)
def _closed_squarefree_series(order: int) -> TruncatedSeries:
    """(1 - qu^2)/(1 - qu), the closed form of the square-free product."""
    return TruncatedSeries.from_terms(order, {0: ONE, 2: -Q}) * geometric_q_series(order)


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
# binomial moments E[prod_d C(X_d, k_d)]
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _moment_series(order: int, k: tuple[tuple[int, int], ...]) -> TruncatedSeries:
    """(1-qu^2)/(1-qu) * prod_d (1+u^d)^(-k_d), for k as sorted (d, k_d) pairs."""
    return _closed_squarefree_series(order) * _degree_product(order, +1, ((d, -kd) for d, kd in k))


def binomial_moment(n: int, k: Mapping[int, int]) -> RationalFunction:
    """E[prod_d C(X_d, k_d)] for a uniform square-free monic f of degree n,
    X_d the number of degree-d irreducible factors of f, by the closed form
    of the module docstring; it is 0 when sum_d d*k_d > n."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if any(d < 1 or kd < 0 for d, kd in k.items()):
        raise ValueError(f"moment orders need positive degrees and non-negative orders: {dict(k)}")
    key = tuple(sorted((d, kd) for d, kd in k.items() if kd))
    s = sum(d * kd for d, kd in key)
    if s > n:
        return RationalFunction(0)
    out = _moment_series(_working_order(n), key).coefficient(n - s)
    for d, kd in key:  # times C(N(d,q), k_d) = N(N-1)...(N-k_d+1)/k_d!
        for i in range(kd):
            out = out * (count_irreducibles(d) - i) / (i + 1)
    return out / squarefree_count_formula(n)


def expected_linear_factors(n: int) -> RationalFunction:
    """Expected number of distinct roots of a random square-free monic
    degree-n polynomial, E[X_1], as the alternating partial sum
    1 - 1/q + ... +- 1/q^(n-2)."""
    if n < 2:
        raise ValueError("the linear-factor expectation needs n >= 2")
    acc = RationalFunction(0)
    for i in range(n - 1):
        term = RationalFunction.q_power(-i)
        acc = acc + (term if i % 2 == 0 else -term)
    return acc


def quad_excess_exact(n: int) -> RationalFunction:
    """E[X_2 - C(X_1,2)], the excess of irreducible over reducible
    quadratic factors, from the binomial moments."""
    if n < 2:
        raise ValueError("the quadratic excess needs n >= 2")
    return binomial_moment(n, {2: 1}) - binomial_moment(n, {1: 2})


# ---------------------------------------------------------------------------
# the finite-n quadratic excess formula
# ---------------------------------------------------------------------------


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
        one = TruncatedSeries.one(count)
        u = TruncatedSeries.from_terms(count, {1: ONE})
        den = (one - u) * (one - u) * (one + u * u)
        f = (u + u * u) / den if kind == "a" else one / den - one
        values = []
        for i in range(1, count + 1):
            c = f.coefficient(i)
            value = c.num[0]
            if c != value or value.denominator != 1 or value <= 0:
                raise ArithmeticError(f"sequence {kind} produced a non-positive term {c} at {i}")
            values.append(int(value))
        return SequenceTable(kind, tuple(values))


@lru_cache(maxsize=None)
def _default_tables(count: int) -> tuple[SequenceTable, SequenceTable]:
    return SequenceTable.generate("a", count), SequenceTable.generate("b", count)


def quad_excess_formula(n: int) -> RationalFunction:
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
    a, b = _default_tables(_working_order(n))
    acc = RationalFunction(0)
    for i in range(1, n - 2):
        term = RationalFunction.from_fraction(Fraction(a[i])) * RationalFunction.q_power(-i)
        acc = acc + (term if i % 2 == 1 else -term)
    tail = RationalFunction.from_fraction(Fraction(b[n - 3])) * RationalFunction.q_power(-(n - 2))
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
    "binomial_moment",
    "count_irreducibles",
    "expected_linear_factors",
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
