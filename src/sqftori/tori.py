"""F-stable maximal tori of GL_n over the algebraic closure of F_q.

Tori are classified up to the relevant equivalence by partitions of n
(their "type"); the number of tori of type lambda is

    |GL(n,q)| / ( prod_i i^(n_i) n_i!  *  prod_i (q^i - 1)^(n_i) )

with n_i the multiplicity of the part i.  Every headline quantity is
computed along two independent routes: an exact sum over partitions,
and coefficient extraction from the torus analogue of the cycle index

    1 + sum_n u^n/|GL(n,q)| sum_T prod_i x_i^(n_i(T))
        = prod_i exp[ x_i u^i / ((q^i - 1) i) ].

Infinite products over r in powers of 1/q (such as prod_r 1/(1-u/q^r))
are never truncated in r; they enter only through their summatory
closed forms, certified by the Euler functional equations
F(u) = F(u/q)/(1-u/q) and G(u) = (1+u/q) G(u/q).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Mapping

from .exact import ONE, QPoly, RationalFunction, gl_order
from .report import VerificationReport, make_report
from .series import RATIONAL_FUNCTIONS, TruncatedSeries, render_series

_RING = RATIONAL_FUNCTIONS


@dataclass(frozen=True)
class Partition:
    """A partition of n as a weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self.parts))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def _partition_parts(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _partition_parts(n - k, k):
            yield (k,) + rest


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order ((n) first)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(Partition(parts) for parts in _partition_parts(n, n))


def centralizer_order(l: Partition) -> int:
    """z_lambda = prod_i i^(n_i) * n_i!, the S_n centralizer size of the type."""
    out = 1
    for i, m in l.multiplicities().items():
        out *= i**m * factorial(m)
    return out


def torus_type_count(l: Partition) -> RationalFunction:
    """Number of tori of the given type; always a polynomial in q."""
    n = l.n
    if n < 1:
        raise ValueError("the type count needs a partition of n >= 1")
    den = QPoly.constant(centralizer_order(l))
    for i, m in l.multiplicities().items():
        den = den * (QPoly.q_power(i) - QPoly.constant(1)) ** m
    quot, rem = gl_order(n).divmod(den)
    if not rem.is_zero():
        raise ArithmeticError(f"type count for {l} is not a polynomial")
    return RationalFunction(quot)


def irreducible_tori_count(n: int) -> RationalFunction:
    """q^C(n,2)/n * (q-1)(q^2-1)...(q^(n-1)-1): tori of the one-part type."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = RationalFunction.q_power(n * (n - 1) // 2) * RationalFunction.from_fraction(
        Fraction(1, n)
    )
    for i in range(1, n):
        out = out * (RationalFunction.q_power(i) - ONE)
    return out


def total_tori_formula(n: int) -> RationalFunction:
    """q^(n^2 - n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return RationalFunction.q_power(n * n - n)


@dataclass(frozen=True)
class TorusTypeRecord:
    partition: Partition
    centralizer: int
    count: RationalFunction
    probability: RationalFunction


@lru_cache(maxsize=None)
def type_distribution(n: int) -> tuple[TorusTypeRecord, ...]:
    """Counts and exact probabilities for every type of partition of n.

    The probabilities sum to 1 in Q(q) (the Cayley identity).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    total = total_tori_formula(n)
    records = []
    for l in partitions(n):
        count = torus_type_count(l)
        records.append(
            TorusTypeRecord(
                partition=l,
                centralizer=centralizer_order(l),
                count=count,
                probability=count / total,
            )
        )
    return tuple(records)


def total_tori(n: int) -> RationalFunction:
    """Total number of tori, as the sum of the type counts."""
    acc = RationalFunction(0)
    for rec in type_distribution(n):
        acc = acc + rec.count
    return acc


# ---------------------------------------------------------------------------
# the cycle-index generating function
# ---------------------------------------------------------------------------

#: series built once at this order serve every smaller coefficient request
_SERIES_CACHE_ORDER = 12


def _series_order(n: int) -> int:
    return max(n, _SERIES_CACHE_ORDER)


def cycle_index_series(order: int, weights: Mapping[int, Fraction | int]) -> TruncatedSeries:
    """exp( sum_{i<=order} w_i u^i / ((q^i - 1) i) ) over Q(q).

    This is the product over i of exp[w_i u^i/((q^i-1) i)] with the
    rational constants w_i standing in for the marks.
    """
    arg = {
        i: RationalFunction.from_fraction(Fraction(weights[i]))
        / ((RationalFunction.q_power(i) - ONE) * i)
        for i in range(1, order + 1)
        if Fraction(weights[i]) != 0
    }
    return TruncatedSeries.from_terms(_RING, order, arg).exp()


@lru_cache(maxsize=None)
def _uniform_cycle_series(weight: Fraction, order: int) -> TruncatedSeries:
    return cycle_index_series(order, {i: weight for i in range(1, order + 1)})


def cycle_index_coefficient(
    n: int, weights: Mapping[int, Fraction | int]
) -> RationalFunction:
    """|GL(n,q)| times the u^n coefficient of the weighted cycle index.

    With all weights 1 this is the total number of tori.  The u^n
    coefficient only involves the weights for part sizes up to n, so
    uniform weight maps are served from a shared higher-order build.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    missing = [i for i in range(1, n + 1) if i not in weights]
    if missing:
        raise ValueError(f"weights missing for part sizes {missing}")
    values = {Fraction(weights[i]) for i in range(1, n + 1)}
    if len(values) == 1:
        coeff = _uniform_cycle_series(values.pop(), _series_order(n)).coefficient(n)
    else:
        coeff = cycle_index_series(n, weights).coefficient(n)
    return RationalFunction(gl_order(n)) * coeff


# ---------------------------------------------------------------------------
# Euler identities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def euler_sum_series(which: int, order: int) -> TruncatedSeries:
    """The summatory side of the two Euler identities.

    which=1:  1 + sum_n u^n / ( q^n (1-1/q)...(1-1/q^n) )
              (equals prod_{r>=1} 1/(1-u/q^r))
    which=2:  1 + sum_n u^n / ( q^C(n+1,2) (1-1/q)...(1-1/q^n) )
              (equals prod_{r>=1} (1+u/q^r))
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    coeffs = [ONE]
    c = ONE
    for k in range(1, order + 1):
        step = RationalFunction.q_power(k if which == 2 else 1) * (
            ONE - RationalFunction.q_power(-k)
        )
        c = c / step
        coeffs.append(c)
    return TruncatedSeries(_RING, coeffs)


def euler_shifted_series(which: int, order: int) -> TruncatedSeries:
    """The functional-equation side built from the summatory side:

    which=1:  F(u/q) / (1 - u/q)
    which=2:  (1 + u/q) * G(u/q)
    """
    inv_q = RationalFunction.q_power(-1)
    shifted = euler_sum_series(which, order).substitute(inv_q)
    if which == 1:
        return shifted / TruncatedSeries.from_terms(_RING, order, {0: ONE, 1: -inv_q})
    return TruncatedSeries.from_terms(_RING, order, {0: ONE, 1: inv_q}) * shifted


def euler_identity_check(which: int, order: int) -> VerificationReport:
    """Check the functional equation that pins down the infinite product:
    the summatory side equals `euler_shifted_series`.

    Together with the constant term 1, either equation determines every
    coefficient, so passing at the given order certifies the summatory
    form coefficientwise.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    start = time.perf_counter()
    lhs = euler_sum_series(which, order)
    rhs = euler_shifted_series(which, order)
    elapsed = int((time.perf_counter() - start) * 1000)
    return make_report(
        f"euler-identity-{which}",
        {"order": order, "which": which},
        render_series(lhs),
        render_series(rhs),
        elapsed,
    )


# ---------------------------------------------------------------------------
# expected eigenvectors (fixed lines): E[n_1]
# ---------------------------------------------------------------------------


def _moment_partition(n: int, term) -> RationalFunction:
    """sum over types of P(lambda) * term(multiplicities).

    Accumulated as a plain polynomial sum of weighted counts, divided by
    the total only once at the end.
    """
    acc = QPoly()
    for rec in type_distribution(n):
        w = term(rec.partition.multiplicities())
        if w:
            acc = acc + rec.count.as_polynomial().scale(w)
    return RationalFunction(acc, QPoly.q_power(n * n - n))


def expected_eigenvectors_closed(n: int) -> RationalFunction:
    """1 + 1/q + ... + 1/q^(n-1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    acc = RationalFunction(0)
    for i in range(n):
        acc = acc + RationalFunction.q_power(-i)
    return acc


def expected_eigenvectors_partition(n: int) -> RationalFunction:
    """sum over types of P(lambda) * n_1(lambda)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _moment_partition(n, lambda mult: mult.get(1, 0))


def expected_eigenvectors_series(n: int) -> RationalFunction:
    """|GL(n,q)|/q^(n^2-n) times [u^n] of u/(q-1) * F(u).

    The front factor has the single term u, so the coefficient needed is
    just F's coefficient of u^(n-1) scaled by 1/(q-1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    f = euler_sum_series(1, _series_order(n))
    coeff = f.coefficient(n - 1) / (RationalFunction.q_power(1) - ONE)
    return coeff * RationalFunction(gl_order(n)) / total_tori_formula(n)


def expected_eigenvectors(n: int) -> RationalFunction:
    """Expected number of fixed lines of a uniform torus, by the closed form."""
    return expected_eigenvectors_closed(n)


# ---------------------------------------------------------------------------
# excess of reducible over irreducible dimension-2 subtori
# ---------------------------------------------------------------------------


def _one_minus_qpow(k: int) -> RationalFunction:
    return ONE - RationalFunction.q_power(-k)


def pair_moment_closed(n: int) -> RationalFunction:
    """E[C(n_1,2)] = q^2 (1-1/q^(n-1)) (1-1/q^n) / (2 (q-1)^2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    q = RationalFunction.q_power(1)
    return (
        q
        * q
        * _one_minus_qpow(n - 1)
        * _one_minus_qpow(n)
        / (RationalFunction.from_fraction(2) * (q - ONE) ** 2)
    )


def pair_moment_partition(n: int) -> RationalFunction:
    if n < 2:
        raise ValueError("n must be at least 2")
    return _moment_partition(
        n, lambda mult: mult.get(1, 0) * (mult.get(1, 0) - 1) // 2
    )


def quad_moment_closed(n: int) -> RationalFunction:
    """E[n_2] = q^2 (1-1/q^(n-1)) (1-1/q^n) / (2 (q^2-1))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    q = RationalFunction.q_power(1)
    return (
        q
        * q
        * _one_minus_qpow(n - 1)
        * _one_minus_qpow(n)
        / (RationalFunction.from_fraction(2) * (q * q - ONE))
    )


def quad_moment_partition(n: int) -> RationalFunction:
    if n < 2:
        raise ValueError("n must be at least 2")
    return _moment_partition(n, lambda mult: mult.get(2, 0))


def tori_quad_excess_closed(n: int) -> RationalFunction:
    """(1/q) (1-1/q^(n-1)) (1-1/q^n) / ((1-1/q)(1-1/q^2))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return (
        RationalFunction.q_power(-1)
        * _one_minus_qpow(n - 1)
        * _one_minus_qpow(n)
        / (_one_minus_qpow(1) * _one_minus_qpow(2))
    )


def tori_quad_excess_partition(n: int) -> RationalFunction:
    """Partition sum of C(n_1,2) - n_2 (reducible minus irreducible pairs)."""
    return pair_moment_partition(n) - quad_moment_partition(n)


def tori_quad_excess(n: int) -> RationalFunction:
    """E[C(n_1,2) - n_2], by the closed form."""
    return tori_quad_excess_closed(n)


def tori_quad_excess_limit() -> RationalFunction:
    """The n -> infinity limit (1/q) / ((1-1/q)(1-1/q^2)).

    Its expansion in powers of 1/q is 1/q + 1/q^2 + 2/q^3 + 2/q^4 + ...
    """
    return RationalFunction.q_power(-1) / (_one_minus_qpow(1) * _one_minus_qpow(2))


# ---------------------------------------------------------------------------
# the mod-2 bias of the number of irreducible factors
# ---------------------------------------------------------------------------


def mod2_bias_formula(n: int) -> RationalFunction:
    """q^((n^2-n)/2), the square root of the number of tori."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return RationalFunction.q_power(n * (n - 1) // 2)


def mod2_bias_partition(n: int) -> RationalFunction:
    """sum over types of (-1)^(n - number of parts) * count."""
    if n < 1:
        raise ValueError("n must be at least 1")
    acc = QPoly()
    for rec in type_distribution(n):
        c = rec.count.as_polynomial()
        acc = acc + (-c if (n - rec.partition.num_parts) % 2 else c)
    return RationalFunction(acc)


def mod2_bias_series(n: int) -> RationalFunction:
    """Series route: weights -1 composed with u -> -u in the cycle index."""
    if n < 1:
        raise ValueError("n must be at least 1")
    flipped = _uniform_cycle_series(Fraction(-1), _series_order(n)).substitute(
        _RING.from_int(-1)
    )
    return RationalFunction(gl_order(n)) * flipped.coefficient(n)


def mod2_bias(n: int) -> RationalFunction:
    """Tori with factor count = n mod 2, minus the others, by the formula."""
    return mod2_bias_formula(n)
