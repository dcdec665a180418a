"""F-stable maximal tori of GL_n over the algebraic closure of F_q.

Tori are classified up to the relevant equivalence by partitions of n
(their "type"); the number of tori of type lambda is

    |GL(n,q)| / ( prod_i i^(n_i) n_i!  *  prod_i (q^i - 1)^(n_i) )

with n_i the multiplicity of the part i.  Every headline quantity is
computed along two independent routes: an exact sum over partitions,
and the torus analogue of the cycle index

    1 + sum_n u^n/|GL(n,q)| sum_T prod_i x_i^(n_i(T))
        = prod_i exp[ x_i u^i / ((q^i - 1) i) ].

The series route sets every mark x_i to one rational weight w
(`cycle_index_coefficient`): w = 1 counts the tori, w = -1 gives the mod-2 bias.

Each expectation is a combination of binomial moments E[prod_i C(n_i, k_i)];
with x_i = 1 + t_i the cycle index gives all of them in one closed form,

    E[prod_i C(n_i, k_i)] = (|GL_n|/q^(n^2-n)) * (q^(m^2-m)/|GL_m|)
                            * prod_i 1/(i^k_i k_i! (q^i - 1)^k_i),

with m = n - sum_i i*k_i (`binomial_moment`), checked against the
partition sum (`binomial_moment_partition`).

Infinite products over r in powers of 1/q (such as prod_r 1/(1-u/q^r))
are never truncated in r; they enter only through their summatory
closed forms, certified by the Euler functional equations
F(u) = F(u/q)/(1-u/q) and G(u) = (1+u/q) G(u/q).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterator, Mapping

from .exact import ONE, QPoly, RationalFunction, gl_order
from .series import TruncatedSeries

# tori builds no reports; `make_report` is bound here only because
# perfbench/test_perfbench.py checks that the tracer patches `tori.make_report`.
# Drop it together with that entry of the benchmark test (ROADMAP item 6).
from .report import make_report  # noqa: F401,E402


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


def _type_sum(n: int, weight) -> RationalFunction:
    """sum over the types lambda of n of weight(lambda) * count(lambda).

    Accumulated as a plain polynomial sum; an expectation divides it by
    the total q^(n^2-n) once at the end.
    """
    acc = QPoly()
    for rec in type_distribution(n):
        w = weight(rec.partition)
        if w:
            acc = acc + rec.count.as_polynomial().scale(w)
    return RationalFunction(acc)


def total_tori(n: int) -> RationalFunction:
    """Total number of tori, as the sum of the type counts."""
    return _type_sum(n, lambda l: 1)


# ---------------------------------------------------------------------------
# the cycle-index generating function
# ---------------------------------------------------------------------------

#: series built once at this order serve every smaller coefficient request
_SERIES_CACHE_ORDER = 12


def _series_order(n: int) -> int:
    return max(n, _SERIES_CACHE_ORDER)


@lru_cache(maxsize=None)
def cycle_index_series(weight: Fraction | int, order: int) -> TruncatedSeries:
    """exp( sum_{i<=order} w u^i / ((q^i - 1) i) ) over Q(q): the cycle
    index with every mark x_i set to the one rational weight w."""
    w = RationalFunction.from_fraction(Fraction(weight))
    arg = {i: w / ((RationalFunction.q_power(i) - ONE) * i) for i in range(1, order + 1)}
    return TruncatedSeries.from_terms(order, arg).exp()


def cycle_index_coefficient(n: int, weight: Fraction | int) -> RationalFunction:
    """|GL(n,q)| times the u^n coefficient of the cycle index at weight w:
    the sum over the tori of w^(number of parts), their number at w = 1.
    Read off one shared build at order max(n, 12)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    coeff = cycle_index_series(weight, _series_order(n)).coefficient(n)
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
    return TruncatedSeries(coeffs)


def euler_shifted_series(which: int, order: int) -> TruncatedSeries:
    """The functional-equation side built from the summatory side:

    which=1:  F(u/q) / (1 - u/q)
    which=2:  (1 + u/q) * G(u/q)

    Together with the constant term 1, either functional equation
    determines every coefficient, so equality with `euler_sum_series`
    at a given order certifies the summatory form coefficientwise.
    """
    inv_q = RationalFunction.q_power(-1)
    shifted = euler_sum_series(which, order).substitute(inv_q)
    if which == 1:
        return shifted / TruncatedSeries.from_terms(order, {0: ONE, 1: -inv_q})
    return TruncatedSeries.from_terms(order, {0: ONE, 1: inv_q}) * shifted


# ---------------------------------------------------------------------------
# binomial moments E[prod_i C(n_i, k_i)]
# ---------------------------------------------------------------------------


def binomial_moment(n: int, k: Mapping[int, int]) -> RationalFunction:
    """E[prod_i C(n_i, k_i)] for a uniform torus of GL_n, n_i the parts equal
    to i, by the closed form of the module docstring; it is 0 when
    sum_i i*k_i > n.  k = {1: 1} gives the expected number of fixed lines,
    {1: 2} and {2: 1} the reducible and irreducible dimension-2 subtori.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if any(i < 1 or ki < 0 for i, ki in k.items()):
        raise ValueError(f"moment orders need positive parts and non-negative orders: {dict(k)}")
    m = n - sum(i * ki for i, ki in k.items())
    if m < 0:
        return RationalFunction(0)
    out = RationalFunction(gl_order(n) // gl_order(m))
    out = out * RationalFunction.q_power(m * m - m - n * n + n)
    for i, ki in k.items():
        out = out / ((RationalFunction.q_power(i) - ONE) ** ki * (i**ki * factorial(ki)))
    return out


def binomial_moment_partition(n: int, k: Mapping[int, int]) -> RationalFunction:
    """The same moment as a sum over the types: sum of P(lambda) prod_i C(n_i(lambda), k_i)."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def weight(l: Partition) -> int:
        mult = l.multiplicities()
        return prod(comb(mult.get(i, 0), ki) for i, ki in k.items())

    return _type_sum(n, weight) / total_tori_formula(n)


def expected_eigenvectors(n: int) -> RationalFunction:
    """Expected number of fixed lines of a uniform torus, E[n_1] = 1 + 1/q + ... + 1/q^(n-1)."""
    return binomial_moment(n, {1: 1})


def expected_eigenvectors_series(n: int) -> RationalFunction:
    """E[n_1] as |GL(n,q)|/q^(n^2-n) times [u^n] of u/(q-1) * F(u).

    The front factor has the single term u, so the coefficient needed is
    just F's coefficient of u^(n-1) scaled by 1/(q-1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    f = euler_sum_series(1, _series_order(n))
    coeff = f.coefficient(n - 1) / (RationalFunction.q_power(1) - ONE)
    return coeff * RationalFunction(gl_order(n)) / total_tori_formula(n)


def _one_minus_qpow(k: int) -> RationalFunction:
    return ONE - RationalFunction.q_power(-k)


def tori_quad_excess(n: int) -> RationalFunction:
    """E[C(n_1,2) - n_2], the excess of reducible over irreducible dimension-2
    subtori: (1/q) (1-1/q^(n-1)) (1-1/q^n) / ((1-1/q)(1-1/q^2))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return binomial_moment(n, {1: 2}) - binomial_moment(n, {2: 1})


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
    return _type_sum(n, lambda l: (-1) ** (n - l.num_parts))


def mod2_bias_series(n: int) -> RationalFunction:
    """Series route: (-1)^n times the cycle index at weight -1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return cycle_index_coefficient(n, -1) * (-1) ** n


def mod2_bias(n: int) -> RationalFunction:
    """Tori with factor count = n mod 2, minus the others, by the formula."""
    return mod2_bias_formula(n)
