"""F-stable maximal tori of GL_n over the algebraic closure of F_q.

Tori are classified up to the relevant equivalence by partitions of n
(their "type"), written as in the F_p oracle `ffpoly`: a tuple of parts,
largest first.  `type_counts(n)` pairs each type with its number of
tori, as `SquareFreeStats.type_counts` pairs each factorization type
with its number of polynomials.  The number of tori of type lambda is

    |GL(n,q)| / ( prod_i i^(n_i) n_i!  *  prod_i (q^i - 1)^(n_i) )

with n_i the multiplicity of the part i.  It is computed on integer
numerators by one depth-first walk over the partitions (`_type_walk`):
|GL(n,q)| / q^C(n,2) is divided by one more q^i - 1 per step, by synthetic
division (`exact._divided_by_q_power_minus_one`), so a prefix of parts that
several types share is divided once, and each count then once by
z_lambda = prod_i i^(n_i) n_i!.
Sums over the types (`_type_sum`) add the counts over their common
denominator n!, which every z_lambda divides, and only from q^C(n,2) up:
every count carries the factor q^C(n,2) of |GL(n,q)|.  The weight-1 sum,
the total, is taken once per rank, for `total_tori` and the zeroth
binomial moment alike.  Every headline quantity is computed along two
independent routes: an exact sum over partitions, and the torus analogue
of the cycle index

    1 + sum_n u^n/|GL(n,q)| sum_T prod_i x_i^(n_i(T))
        = prod_i exp[ x_i u^i / ((q^i - 1) i) ].

The series route sets every mark x_i to an integer weight w
(`cycle_index_coefficient`): w = 1 counts the tori, w = -1 gives the mod-2
bias.  Its coefficients are computed on demand, each once
(`series.ExpCoefficients`), on integer numerators: scaled by
prod_{i<=n} (q^i - 1), the weight of each earlier coefficient in the
recurrence is an integer polynomial (`_gl_ratio`), so no gcd is taken.
At w = 1 it is Euler's F below.

Each expectation is a combination of binomial moments E[prod_i C(n_i, k_i)];
with x_i = 1 + t_i the cycle index gives all of them in one closed form,

    E[prod_i C(n_i, k_i)] = (|GL_n|/q^(n^2-n)) * (q^(m^2-m)/|GL_m|)
                            * prod_i 1/(i^k_i k_i! (q^i - 1)^k_i),

with m = n - sum_i i*k_i (`binomial_moment`), checked against the
partition sum (`binomial_moment_partition`).  It is computed with no gcd:
prod_{m<j<=n} (q^j - 1) is divided by each q^i - 1 in turn, exactly, since
the cyclotomic Phi_d divides at least floor((n-m)/d) of its factors and
no more parts i than that are multiples of d.

Infinite products over r in powers of 1/q (such as prod_r 1/(1-u/q^r))
are never truncated in r; they enter only through their summatory
closed forms, certified by the Euler functional equations
F(u) = F(u/q)/(1-u/q) and G(u) = (1+u/q) G(u/q), whose two sides are
built on one list of integer numerators (`_euler_numerators`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import accumulate, zip_longest
from math import comb, factorial, prod
from typing import Iterator, Mapping

from .exact import (
    _ONE, ONE, QPoly, RationalFunction, _coprime, _divided_by_q_power_minus_one, _poly, _raw,
    _times_q_power_minus_one, gl_order
)
from .ffpoly import check_moment_orders
from .series import ExpCoefficients, TruncatedSeries

# tori builds no reports; `make_report` is bound here only because
# perfbench/test_perfbench.py checks that the tracer patches `tori.make_report`.
# Drop it together with that entry of the benchmark test (ROADMAP item 7).
from .report import make_report  # noqa: F401,E402


def _partition_parts(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _partition_parts(n - k, k):
            yield (k,) + rest


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, parts largest first, in reverse-lexicographic
    order ((n) first)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(_partition_parts(n, n))


def centralizer_order(parts: tuple[int, ...]) -> int:
    """z_lambda = prod_i i^(n_i) * n_i!, the S_n centralizer size of the type."""
    return prod(i**m * factorial(m) for i, m in Counter(parts).items())


def _type_walk(types) -> Iterator[RationalFunction]:
    """The counts of the types, partitions of one n >= 1, in turn.

    q^C(n,2) is coprime to every q^i - 1, so only prod_{k<=n} (q^k - 1) is
    divided: path[j] holds it divided by the first j parts of the type
    before, so a prefix that consecutive types share is divided once.
    """
    n = sum(types[0])
    shift = n * (n - 1) // 2
    path = [list(gl_order(n).z[shift:])]
    prev = (0,)  # no type starts with it, so the first shares no prefix
    for parts in types:
        j = next(j for j, (a, b) in enumerate(zip(parts, prev)) if a != b)
        del path[j + 1 :]
        for k in range(j + 1, len(parts) + 1):
            try:
                path.append(_divided_by_q_power_minus_one(path[-1], parts[k - 1]))
            except ArithmeticError as exc:
                raise ArithmeticError(f"type count for {parts[:k]} is not a polynomial") from exc
        yield _coprime(_poly([0] * shift + path[-1], centralizer_order(parts)), _ONE)
        prev = parts


def torus_type_count(parts: tuple[int, ...]) -> RationalFunction:
    """Number of tori of the type with these parts; always a polynomial in q,
    by the one path of `_type_walk` that ends at the type."""
    if any(isinstance(i, bool) or not isinstance(i, int) for i in parts):
        raise ValueError(f"parts must be ints: {parts}")
    if any(i < 1 for i in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if sum(parts) < 1:
        raise ValueError("the type count needs a partition of n >= 1")
    return next(_type_walk((parts,)))


def irreducible_tori_count(n: int) -> RationalFunction:
    """q^C(n,2)/n * (q-1)(q^2-1)...(q^(n-1)-1): tori of the one-part type."""
    if n < 1:
        raise ValueError("n must be at least 1")
    z = reduce(_times_q_power_minus_one, range(1, n), [0] * (n * (n - 1) // 2) + [1])
    return RationalFunction(_poly(z, n))


def total_tori_formula(n: int) -> RationalFunction:
    """q^(n^2 - n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return RationalFunction.q_power(n * n - n)


@lru_cache(maxsize=None)
def type_counts(n: int) -> tuple[tuple[tuple[int, ...], RationalFunction], ...]:
    """One (type, number of tori of that type) pair per partition of n, in
    the order of `partitions`; they sum to q^(n^2-n) (the Cayley identity).
    In that order `_type_walk` is depth-first, each prefix divided once."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(zip(partitions(n), _type_walk(partitions(n))))


def _type_sum(n: int, weight) -> RationalFunction:
    """sum over the types lambda of n of weight(lambda) * count(lambda),
    for an integer weight.

    Every count is q^C(n,2), the q-power of |GL(n,q)|, times an integer
    polynomial of degree C(n,2) over a denominator d_lambda that divides
    z_lambda, hence n!; so the sum is accumulated as one list of the
    integer numerators from q^C(n,2) up, over n!, and the C(n,2) zeros
    below are put back once, when it enters Q(q).  An expectation divides
    it by the total q^(n^2-n), whose own sum `_total_tori` keeps.
    """
    shift = n * (n - 1) // 2
    acc = [0] * (shift + 1)
    common = factorial(n)
    for parts, count in type_counts(n):
        w = weight(parts)
        if w:
            poly = count.as_polynomial()
            w *= common // poly.d
            acc = [a + w * c for a, c in zip(acc, poly.z[shift:], strict=True)]
    return _coprime(_poly([0] * shift + acc, common), _ONE)


#: arguments whose value each memo of the type sums and moments keeps
_MEMO = 256


def total_tori(n: int) -> RationalFunction:
    """Total number of tori, as the sum of the type counts."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _total_tori(n)


@lru_cache(maxsize=_MEMO, typed=True)
def _total_tori(n: int) -> RationalFunction:
    return _type_sum(n, lambda parts: 1)


# ---------------------------------------------------------------------------
# the cycle-index generating function
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl_ratio(n: int, k: int) -> QPoly:
    """prod_{n-k<i<=n} (q^i - 1) / (q^k - 1) for 1 <= k <= n, an integer polynomial.

    Exactly one i = j in the range is a multiple of k, and its factor
    divided by q^k - 1 is 1 + q^k + ... + q^(j-k); the other factors are
    multiplied in as they are.
    """
    j = n - n % k
    z = [0] * (j - k + 1)
    z[::k] = [1] * (j // k)
    z = reduce(_times_q_power_minus_one, (i for i in range(n - k + 1, n + 1) if i != j), z)
    return _raw(tuple(z), 1)


@lru_cache(maxsize=None)
def _cycle_index(weight: int) -> ExpCoefficients:
    """H_n = prod_{i<=n} (q^i - 1) * [u^n] exp( sum_k w u^k / ((q^k - 1) k) ):
    the cycle index with every mark x_i set to the integer weight w, scaled
    so that |GL(n,q)| times its u^n coefficient is q^C(n,2) H_n.

    The weight of H_(n-k) in n*H_n is w * `_gl_ratio(n, k)`, an integer
    polynomial, so every H_n is integer numerators over a divisor of n!,
    found with no gcd and no polynomial division.  At w = 1, H_n over
    prod_{i<=n} (q^i - 1) is the coefficient of Euler's
    F(u) = prod_{r>=1} 1/(1 - u/q^r), whose logarithm has the same terms.
    """
    return ExpCoefficients(lambda n, k: _poly([weight * c for c in _gl_ratio(n, k).z], 1), _ONE)


def cycle_index_coefficient(n: int, weight: int) -> RationalFunction:
    """|GL(n,q)| times the u^n coefficient of the cycle index at the integer
    weight w: the sum over the tori of w^(number of parts), their number at
    w = 1."""
    if isinstance(weight, bool) or not isinstance(weight, int):
        raise ValueError(f"the cycle index weight must be an int, not {weight!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    h = _cycle_index(weight)[n]
    return RationalFunction(_poly([0] * (n * (n - 1) // 2) + list(h.z), h.d))


# ---------------------------------------------------------------------------
# Euler identities
# ---------------------------------------------------------------------------


def _euler_numerators(which: int, order: int) -> tuple[list[list[int]], list[list[int]]]:
    """(t, P), k <= order, as integer numerators: the summatory u^k coefficient is t_k / P_k,
    t_k = q^C(k,2) (which=1) or 1 (which=2) and P_k = prod_{j<=k} (q^j - 1)."""
    if isinstance(which, bool) or not isinstance(which, int) or which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, not {which!r}")
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise ValueError(f"the order must be an int >= 0, not {order!r}")
    t = [[0] * (k * (k - 1) // 2) + [1] if which == 1 else [1] for k in range(order + 1)]
    return t, list(accumulate(range(1, order + 1), _times_q_power_minus_one, initial=[1]))


def euler_sum_series(which: int, order: int) -> TruncatedSeries:
    """The summatory side of the two Euler identities.

    which=1:  1 + sum_n u^n / ( q^n (1-1/q)...(1-1/q^n) )
              (equals prod_{r>=1} 1/(1-u/q^r))
    which=2:  1 + sum_n u^n / ( q^C(n+1,2) (1-1/q)...(1-1/q^n) )
              (equals prod_{r>=1} (1+u/q^r))
    """
    t, dens = _euler_numerators(which, order)
    return TruncatedSeries(RationalFunction(_poly(z, 1), _poly(den, 1)) for z, den in zip(t, dens))


def euler_shifted_series(which: int, order: int) -> TruncatedSeries:
    """The functional-equation side, F(u/q) / (1 - u/q) (which=1) or
    (1 + u/q) G(u/q) (which=2).  With c_k = t_k / P_k the summatory
    coefficients, its u^k coefficient is q^-k sum_{j<=k} c_j, or
    q^-k (c_k + c_(k-1)); the P_j nest, so that is one integer list over
    q^k P_k: S_k = (q^k - 1) S_(k-1) + t_k, or t_k + (q^k - 1) t_(k-1).

    Together with the constant term 1, either functional equation
    determines every coefficient, so equality with `euler_sum_series`
    at a given order certifies the summatory form coefficientwise.
    """
    t, dens = _euler_numerators(which, order)
    out, num = [], []
    for k, den in enumerate(dens):
        prev = num if which == 1 else (t[k - 1] if k else [])
        num = [a + b for a, b in zip_longest(_times_q_power_minus_one(prev, k), t[k], fillvalue=0)]
        out.append(RationalFunction(_poly(num, 1), _poly([0] * k + den, 1)))
    return TruncatedSeries(out)


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
    return _binomial_moment(n, check_moment_orders(k))


@lru_cache(maxsize=_MEMO, typed=True)
def _binomial_moment(n: int, key: tuple[tuple[int, int], ...]) -> RationalFunction:
    m = n - sum(i * ki for i, ki in key)
    if m < 0:
        return RationalFunction(0)
    # |GL_n| q^(m^2-m) / (|GL_m| q^(n^2-n)) over z_lambda prod_i (q^i - 1), lambda the parts k
    # counts; the q^i - 1 divide exactly, leaving constant term +-1 over z_lambda and a q-power
    parts = [i for i, ki in key for _ in range(ki)]
    num = reduce(_times_q_power_minus_one, range(m + 1, n + 1), [1])
    num = reduce(_divided_by_q_power_minus_one, parts, num)
    shift = n * (n - 1) // 2 - m * (m - 1) // 2
    return RationalFunction(_poly(num, centralizer_order(parts)), QPoly.q_power(shift))


def binomial_moment_partition(n: int, k: Mapping[int, int]) -> RationalFunction:
    """The same moment as a sum over the types: sum of P(lambda) prod_i C(n_i(lambda), k_i)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _binomial_moment_partition(n, check_moment_orders(k))


@lru_cache(maxsize=_MEMO, typed=True)
def _binomial_moment_partition(n: int, key: tuple[tuple[int, int], ...]) -> RationalFunction:
    if not key:  # every weight is 1: the memoized total, not a second weight-1 sum
        return _total_tori(n) / total_tori_formula(n)
    moment = _type_sum(n, lambda parts: prod(comb(parts.count(i), ki) for i, ki in key))
    return moment / total_tori_formula(n)


def expected_eigenvectors_series(n: int) -> RationalFunction:
    """E[n_1] as |GL(n,q)|/q^(n^2-n) times [u^n] of u/(q-1) * F(u).

    The front factor has the single term u, so the coefficient needed is
    just F's coefficient of u^(n-1) scaled by 1/(q-1); F is read off the
    cycle index at weight 1, as H_(n-1) over prod_{i<n} (q^i - 1).  With
    |GL(n,q)| = q^C(n,2) prod_{i<=n} (q^i - 1) that leaves
    `_gl_ratio(n, 1)` * H_(n-1) over q^C(n,2).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return RationalFunction(_gl_ratio(n, 1) * _cycle_index(1)[n - 1], QPoly.q_power(n * (n - 1) // 2))


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
    inv_q = RationalFunction.q_power(-1)
    return inv_q / ((ONE - inv_q) * (ONE - RationalFunction.q_power(-2)))


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
    return _type_sum(n, lambda parts: (-1) ** (n - len(parts)))


def mod2_bias_series(n: int) -> RationalFunction:
    """Series route: (-1)^n times the cycle index at weight -1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    h = cycle_index_coefficient(n, -1)
    return -h if n % 2 else h
