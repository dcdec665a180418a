"""The Q(q) routes that the tests hold the integer-numerator kernels of
``sqftori.sqfree`` and ``sqftori.tori`` to, as ``fp_reference`` is for the sieve.

Every value is built in `RationalFunction` arithmetic, in canonical form
after each operation: the torus cycle index as the `TruncatedSeries.exp`
of its logarithm, times |GL(n,q)|, and the square-free binomial moment
from N(d,q) by Gauss' formula over Q(q), its moment factor as the exp of
its logarithm and C(N(d,q), k_d) as a falling-factorial product; the
torus type counts, binomial moments and irreducible count, the Euler
summatory coefficients and the square-free quadratic excess as the
products, quotients and differences of their definitions, and 1/(1 - qu)
by series division.  It shares no intermediate value with the package's
kernels, which never leave integer numerators before the end.  Simple and
slow; only tests call it, so it checks no input.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod
from typing import Mapping

from sqftori.exact import ONE, Q, RationalFunction, gl_order
from sqftori.series import TruncatedSeries

RF = RationalFunction


def cycle_index_coefficients(order: int, weight: int) -> list[RationalFunction]:
    """|GL(n,q)| [u^n] exp( sum_i w u^i / ((q^i - 1) i) ) for n = 0..order."""
    log = {i: RF.from_fraction(weight) / ((RF.q_power(i) - ONE) * i) for i in range(1, order + 1)}
    series = TruncatedSeries.from_terms(order, log).exp()
    return [RF(gl_order(n)) * c for n, c in enumerate(series.coeffs)]


def _mobius(n: int) -> int:
    primes = [d for d in range(2, n + 1) if n % d == 0 and all(d % e for e in range(2, d))]
    if any(n % (d * d) == 0 for d in primes):
        return 0
    return (-1) ** len(primes)


def count_irreducibles(d: int) -> RationalFunction:
    """N(d,q) = (1/d) sum_{e|d} mu(e) q^(d/e), one Q(q) term at a time."""
    acc = RF(0)
    for e in range(1, d + 1):
        if d % e == 0 and _mobius(e):
            acc = acc + RF.from_fraction(Fraction(_mobius(e), d)) * RF.q_power(d // e)
    return acc


def moment_factor(order: int, k: Mapping[int, int]) -> TruncatedSeries:
    """prod_d (1+u^d)^(-k_d) through u^order, as the exp of
    -sum_d k_d sum_j (-1)^(j+1) u^(dj) / j."""
    log = {}
    for d, kd in k.items():
        for j in range(1, order // d + 1):
            term = RF.from_fraction(Fraction(-kd * (-1) ** (j + 1), j))
            log[d * j] = log.get(d * j, RF(0)) + term
    return TruncatedSeries.from_terms(order, log).exp()


def geometric_q_series(order: int) -> TruncatedSeries:
    """1/(1 - qu) through u^order, by dividing 1 by 1 - qu."""
    return TruncatedSeries.one(order) / TruncatedSeries.from_terms(order, {0: ONE, 1: -Q})


def squarefree_count(n: int) -> RationalFunction:
    """S_n: 1, q, then q^n - q^(n-1)."""
    return ONE if n == 0 else Q if n == 1 else RF.q_power(n) - RF.q_power(n - 1)


def binomial_moment(n: int, k: Mapping[int, int]) -> RationalFunction:
    """E[prod_d C(X_d, k_d)] for a uniform square-free monic f of degree n:
    prod_d C(N(d,q), k_d) [u^(n-s)] (1-qu^2)/(1-qu) prod_d (1+u^d)^(-k_d) / S_n."""
    t = n - sum(d * kd for d, kd in k.items())
    if t < 0:
        return RF(0)
    factor = moment_factor(t, k)
    out = sum((squarefree_count(j) * factor.coeffs[t - j] for j in range(t + 1)), RF(0))
    for d, kd in k.items():
        for i in range(kd):
            out = out * (count_irreducibles(d) - i) / (i + 1)
    return out / squarefree_count(n)


def quad_excess_exact(n: int) -> RationalFunction:
    """E[X_2 - C(X_1,2)] for a uniform square-free monic f of degree n, as
    the difference of two moments."""
    return binomial_moment(n, {2: 1}) - binomial_moment(n, {1: 2})


def torus_type_count(parts: tuple[int, ...]) -> RationalFunction:
    """|GL(n,q)| / (z_lambda prod_i (q^(lambda_i) - 1)), one division at a time."""
    out = RF(gl_order(sum(parts))) / prod(i**m * factorial(m) for i, m in Counter(parts).items())
    for i in parts:
        out = out / (RF.q_power(i) - ONE)
    return out


def irreducible_tori_count(n: int) -> RationalFunction:
    """q^C(n,2)/n * (q-1)(q^2-1)...(q^(n-1)-1), one product at a time."""
    out = RF.q_power(n * (n - 1) // 2) * RF.from_fraction(Fraction(1, n))
    for i in range(1, n):
        out = out * (RF.q_power(i) - ONE)
    return out


def torus_binomial_moment(n: int, k: Mapping[int, int]) -> RationalFunction:
    """E[prod_i C(n_i, k_i)] for a uniform torus of GL_n:
    q^(C(m,2) - C(n,2)) prod_{m<i<=n} (q^i - 1) / prod_i i^k_i k_i! (q^i - 1)^k_i."""
    m = n - sum(i * ki for i, ki in k.items())
    if m < 0:
        return RF(0)
    out = RF.q_power(m * (m - 1) // 2 - n * (n - 1) // 2)
    for i in range(m + 1, n + 1):
        out = out * (RF.q_power(i) - ONE)
    for i, ki in k.items():
        out = out / ((RF.q_power(i) - ONE) ** ki * (i**ki * factorial(ki)))
    return out


def euler_sum_coefficients(which: int, order: int) -> list[RationalFunction]:
    """The u^k coefficients, k <= order, of 1 + sum_k u^k / (q^k (1-1/q)...(1-1/q^k))
    (which=1) or of 1 + sum_k u^k / (q^C(k+1,2) (1-1/q)...(1-1/q^k)) (which=2),
    each the one before divided by one more step."""
    coeffs = [ONE]
    for k in range(1, order + 1):
        step = RF.q_power(k if which == 2 else 1) * (ONE - RF.q_power(-k))
        coeffs.append(coeffs[-1] / step)
    return coeffs
