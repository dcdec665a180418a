"""Counts and expectations for square-free monic polynomials over F_q.

Every value a report reads is an exact element of Q(q), but it is built
on integer numerators (`QPoly`) and enters Q(q) once, at the end.  The
central tool is the factorization generating function

    prod_{d>=1} (1 - u^d)^(-N(d,q)) = 1/(1 - qu),

where N(d,q) is the number of monic irreducible polynomials of degree d,
d*N(d,q) = sum_{e|d} mu(e) q^(d/e) an integer polynomial (Gauss).
The coefficient of u^n only needs the factors with d <= n, since higher
degrees cannot touch it.

Each degree product is one exp of its logarithm (`_degree_product`), its
coefficients computed on demand, each once (`series.ExpCoefficients`),
as `QPoly`s:

    prod_d (1 + sign*u^d)^(e_d) = exp(-sum_d e_d sum_k (-sign)^k u^(dk)/k).

The weight m*[u^m] of the logarithm is a sum of the integer polynomials
d*e_d.  At sign +1 and e_d = N(d,q) the product is the powerset of the
irreducibles (the square-free f), at sign -1 and e_d = -N(d,q) their
multiset (all monic f): the Polya exponentials of Flajolet and Sedgewick,
Analytic Combinatorics, I.2.

Every expectation is a combination of binomial moments E[prod_d C(X_d, k_d)],
X_d the number of degree-d irreducible factors.  Marking the square-free
product as prod_d (1 + x_d u^d)^N(d,q) and setting x_d = 1 + t_d gives
all of them in one closed form (`binomial_moment`): with s = sum_d d*k_d,

    E[prod_d C(X_d, k_d)] = prod_d C(N(d,q), k_d)
        * [u^(n-s)] (1-qu^2)/(1-qu) prod_d (1+u^d)^(-k_d) / S_n,

S_n = q^n - q^(n-1) (n >= 2) the number of square-free f of degree n;
the coefficient is the convolution of the S_j with the integer
coefficients of prod_d (1+u^d)^(-k_d), and C(N(d,q), k_d) a falling
factorial on the numerator d*N(d,q), so the moment is one integer
numerator over an integer times S_n = q^(n-1) (q - 1), and q - 1 divides
that numerator exactly (`_over_squarefree_count`): no gcd is taken.

It is checked against routes that share no intermediate value with it:
the alternating partial sum for E[X_1], and for E[X_2 - C(X_1,2)] a
finite-n formula driven by two integer sequences defined by their
generating functions and generated by the recurrence of their denominator.
Both are built as one numerator over q^(n-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable, Mapping, Sequence

from .exact import _ONE, ONE, QPoly, RationalFunction, _divided_by_q_power_minus_one, _mul, _poly, _raw
from .ffpoly import _prime_factors, check_moment_orders
from .series import ExpCoefficients, TruncatedSeries


def _mobius(n: int) -> int:
    if n < 1:
        raise ValueError("Moebius function needs a positive argument")
    factors = _prime_factors(n)
    return 0 if len(set(factors)) < len(factors) else (-1) ** len(factors)


@lru_cache(maxsize=None)
def _gauss_numerator(d: int) -> tuple[int, ...]:
    """d*N(d,q) = sum_{e|d} mu(e) q^(d/e), Gauss' formula times d: the
    integer coefficients, lowest degree first."""
    z = [0] * (d + 1)
    for e in range(1, d + 1):
        if d % e == 0:
            z[d // e] += _mobius(e)
    return tuple(z)


@lru_cache(maxsize=None)
def count_irreducibles(d: int) -> RationalFunction:
    """N(d,q): monic irreducible degree-d polynomials over F_q, by Gauss'
    formula N(d,q) = (1/d) * sum_{e|d} mu(e) q^(d/e); always a polynomial
    in q with rational coefficients."""
    if d < 1:
        raise ValueError("degree must be positive")
    return RationalFunction(_poly(list(_gauss_numerator(d)), d))


def _weighted_log(m: int, sign: int, scaled_exponent: Callable[[int], Sequence[int]]) -> QPoly:
    """m times the u^m coefficient of the logarithm of the module docstring,
    from the integer numerators scaled_exponent(d) of d*e_d."""
    acc: list[int] = []
    for d in range(1, m + 1):
        if m % d == 0:
            c = -((-sign) ** (m // d))
            z = scaled_exponent(d)
            acc += [0] * (len(z) - len(acc))
            for i, x in enumerate(z):
                acc[i] += c * x
    return _poly(acc, 1)


@lru_cache(maxsize=None)
def _degree_product(sign: int, power: int) -> ExpCoefficients:
    """prod_d (1 + sign*u^d)^(power*N(d,q)), as the one exp of the module
    docstring, on `QPoly` numerators: its weights d*e_d are power times
    Gauss' integer numerators."""
    return ExpCoefficients.from_log(
        lambda m: _weighted_log(m, sign, lambda d: [power * c for c in _gauss_numerator(d)]), _ONE
    )


def inverse_factorization_series(order: int) -> TruncatedSeries:
    """prod_d (1 - u^d)^(-N(d,q)) through u^order: all monic polynomials by degree."""
    product = _degree_product(-1, -1)
    return TruncatedSeries(RationalFunction(product[k]) for k in range(order + 1))


def geometric_q_series(order: int) -> TruncatedSeries:
    """1/(1 - qu) = sum_k q^k u^k, the generating function of all monic polynomials."""
    return TruncatedSeries(RationalFunction.q_power(k) for k in range(order + 1))


def squarefree_count_formula(n: int) -> RationalFunction:
    """q^n - q^(n-1) for n >= 2; q for n = 1; 1 for n = 0, written on integers."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return RationalFunction(_raw((0,) * (n - 1) + (-1, 1), 1) if n >= 2 else QPoly.q_power(n))


def squarefree_count(n: int) -> RationalFunction:
    """Number of square-free monic degree-n polynomials, by the product route."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return RationalFunction(_degree_product(+1, 1)[n])


def moebius_signed_sum(n: int) -> RationalFunction:
    """Sum of (-1)^(number of irreducible factors) over square-free monic
    degree-n polynomials, extracted from the signed product.

    Equals the coefficient of u^n in 1 - qu: the sum vanishes for all
    n >= 2, which is what makes discriminants equidistribute between
    residues and nonresidues.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    return RationalFunction(_degree_product(-1, 1)[n])


# ---------------------------------------------------------------------------
# binomial moments E[prod_d C(X_d, k_d)]
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _moment_factor(k: tuple[tuple[int, int], ...]) -> ExpCoefficients:
    """prod_d (1+u^d)^(-k_d), for k as sorted (d, k_d) pairs; its
    coefficients are integers, held as constant `QPoly`s."""
    orders = dict(k)
    return ExpCoefficients.from_log(lambda m: _weighted_log(m, +1, lambda d: (-d * orders.get(d, 0),)), _ONE)


def binomial_moment(n: int, k: Mapping[int, int]) -> RationalFunction:
    """E[prod_d C(X_d, k_d)] for a uniform square-free monic f of degree n,
    X_d the number of degree-d irreducible factors of f, by the closed form
    of the module docstring; it is 0 when sum_d d*k_d > n.  It enters
    Q(q) once, over S_n, from the integers of `_moment_numerator`.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    return _over_squarefree_count(n, *_moment_numerator(n, check_moment_orders(k)))


def _over_squarefree_count(n: int, num: list[int], den: int) -> RationalFunction:
    """num/den over S_n with no gcd.  For n >= 2, S_n times a moment
    vanishes at q = 1: at k = {} it is S_n, at k = {1: 1} it is c_t + c_(t-1)
    = 0 for c the coefficients of 1/(1+u), and otherwise some C(N(d,1), k_d)
    is 0, as N(1,1) = 1 and N(d,1) = 0 for d >= 2.  So q - 1 divides num
    exactly and the rest is over q^(n-1); S_0 = 1 and S_1 = q are q-powers."""
    if n >= 2:
        num, n = _divided_by_q_power_minus_one(num, 1), n - 1
    return RationalFunction(_poly(num, den), QPoly.q_power(n))


def _integer(c: QPoly) -> int:
    """The integer that the constant `QPoly` c holds; anything else raises."""
    if c.d != 1 or len(c.z) > 1:
        raise ArithmeticError(f"not an integer constant: {c!r}")
    return c.z[0] if c.z else 0


def _moment_numerator(n: int, key: tuple[tuple[int, int], ...]) -> tuple[list[int], int]:
    """S_n E[prod_d C(X_d, k_d)] as integer numerators over an integer: the
    S_j convolved with `_moment_factor`, times prod_d C(N(d,q), k_d) =
    prod_d prod_{i<k_d} (d*N(d,q) - i*d) / (d^k_d k_d!) on Gauss' numerators."""
    t = n - sum(d * kd for d, kd in key)
    if t < 0:
        return [], 1
    factor = _moment_factor(key)
    # [u^t] of (1-qu^2)/(1-qu) times the factor: S_0 = 1, S_1 = q, S_j = q^j - q^(j-1)
    num = [0] * (t + 1)
    for j in range(t + 1):
        c = _integer(factor[t - j])
        num[j] += c
        if j >= 2:
            num[j - 1] -= c
    den = 1
    for d, kd in key:
        gauss = _gauss_numerator(d)
        for i in range(kd):
            num = _mul(num, [gauss[0] - i * d, *gauss[1:]])
        den *= d**kd * factorial(kd)
    return num, den


def expected_linear_factors(n: int) -> RationalFunction:
    """Expected number of distinct roots of a random square-free monic
    degree-n polynomial, E[X_1], as the alternating partial sum
    1 - 1/q + ... +- 1/q^(n-2), built as one numerator over q^(n-2)."""
    if n < 2:
        raise ValueError("the linear-factor expectation needs n >= 2")
    # (-1)^i / q^i is (-1)^i q^(n-2-i) / q^(n-2)
    num = [(-1) ** (n - 2 - j) for j in range(n - 1)]
    return RationalFunction(_poly(num, 1), QPoly.q_power(n - 2))


#: degrees whose quadratic excess `quad_excess_exact` keeps, the most recently used
_EXCESS_MEMO = 256


def quad_excess_exact(n: int) -> RationalFunction:
    """E[X_2 - C(X_1,2)], the excess of irreducible over reducible
    quadratic factors, from the integer numerators of the two binomial
    moments, combined over one denominator and S_n; once per degree,
    since the oracle rows read it at every prime."""
    if n < 2:
        raise ValueError("the quadratic excess needs n >= 2")
    return _quad_excess_exact(n)


@lru_cache(maxsize=_EXCESS_MEMO, typed=True)
def _quad_excess_exact(n: int) -> RationalFunction:
    quad, dq = _moment_numerator(n, ((2, 1),))
    pair, dp = _moment_numerator(n, ((1, 2),))
    num = [a * dp - b * dq for a, b in zip(quad, pair, strict=True)]
    return _over_squarefree_count(n, num, dq * dp)


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
        """The first `count` terms, by the integer recurrence of the common
        denominator (1-u)^2 (1+u^2) = 1 - 2u + 2u^2 - 2u^3 + u^4."""
        if kind not in ("a", "b"):
            raise ValueError("sequence kind must be 'a' or 'b'")
        c = [0, 1, 1] if kind == "a" else [1]  # the numerator; b drops its u^0 term
        c += [0] * (count + 1 - len(c))
        for i in range(1, count + 1):
            c[i] += sum(w * c[i - j] for j, w in ((1, 2), (2, -2), (3, 2), (4, -1)) if j <= i)
        return SequenceTable(kind, tuple(c[1 : count + 1]))


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
    a, b = _default_tables(n - 3)
    # over q^(n-2), the term at 1/q^i is the coefficient of q^(n-2-i)
    num = [0] * (n - 2)
    for i in range(1, n - 2):
        num[n - 2 - i] = a[i] if i % 2 == 1 else -a[i]
    num[0] = -b[n - 3] if n % 2 == 0 else b[n - 3]
    return RationalFunction(_poly(num, 1), QPoly.q_power(n - 2))


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
    "squarefree_count",
    "squarefree_count_formula",
]
