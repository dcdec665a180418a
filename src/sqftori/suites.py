"""Identity registry: every identity is a data row, and one runner makes the reports.

A row maps a report name to a parameter grid taken from a `RunConfig`
and to the two routes of the identity.  `_run` evaluates both routes at
every grid point, renders them in canonical text form and makes one
`VerificationReport` per point; it is the only place where routes are
compared.  Each suite is its row table, callable with a `RunConfig` to
run its rows through `_run`, and ``verify_all`` concatenates every suite.

Routes look library functions up on their module when called
(``sqfree.f(n)``, never a stored ``f``), so a row always evaluates what
the module binds at that moment.

Oracle rows are emitted only for grid points whose p^n fits the
enumeration budget.  Discriminant enumeration adds a resultant pass
over the square-free polynomials, so that suite caps the degree at 6
(the full identity is polynomial in q; larger degrees add cost, not
verification power).
"""

from __future__ import annotations

import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Callable

from . import ffpoly, sqfree, tori
from .exact import RationalFunction, render_poly
from .report import RunConfig, VerificationReport, make_report

#: largest degree used for discriminant equidistribution checks
DISC_N_CAP = 6

_INTRO_QUAD_EXCESS = (1, -3, 4, -4, 5, -7, 8, -8)
_INTRO_SUBTORI_EXCESS = (1, 1, 2, 2, 3, 3, 4, 4)


def _run(rows: dict, config: RunConfig) -> list[VerificationReport]:
    """One report per row and grid point, timed over both routes.

    Each row maps an identity name to ``(grid, lhs, rhs)``: ``grid(config)``
    lists (parameters, arguments) pairs, both routes are called with the
    arguments, and the report carries the parameters.
    """
    reports = []
    for name, (grid, lhs_route, rhs_route) in rows.items():
        for params, args in grid(config):
            start = time.perf_counter()
            lhs = lhs_route(*args)
            rhs = rhs_route(*args)
            elapsed = int((time.perf_counter() - start) * 1000)
            reports.append(make_report(name, params, str(lhs), str(rhs), elapsed))
    return reports


class _Suite(dict):
    """A row table that runs itself: ``suite(config)`` is ``_run(suite, config)``."""

    def __call__(self, config: RunConfig) -> list[VerificationReport]:
        return _run(self, config)


# ---------------------------------------------------------------------------
# parameter grids and helpers shared by the routes
# ---------------------------------------------------------------------------


def _each_n(first: int, last: Callable[[RunConfig], int]):
    """The grid n = first..last(config)."""
    return lambda config: [({"n": n}, (n,)) for n in range(first, last(config) + 1)]


def _point(params: dict, *args):
    """A grid of one point that does not depend on the configuration."""
    return lambda config: [(params, args)]


_DEGREES = _each_n(2, lambda config: config.series_order)
_RANKS = _each_n(1, lambda config: config.n_max)
_RANKS_FROM_2 = _each_n(2, lambda config: config.n_max)


def _oracle(config: RunConfig, n_cap: int | None = None, min_p: int = 2):
    """Every (p, n) with n >= 2 whose p^n fits the enumeration budget."""
    top = config.n_max if n_cap is None else min(config.n_max, n_cap)
    return [
        ({"n": n, "q": p}, (n, p))
        for p in config.primes
        if p >= min_p
        for n in range(2, top + 1)
        if p**n <= config.enumeration_budget
    ]


def _euler_point(which: int):
    def grid(config: RunConfig):
        order = max(config.n_max, 12)  # every rank, and at least acceptance criterion 7's 12
        return [({"order": order, "which": which}, (which, order))]

    return grid


@lru_cache(maxsize=None)
def _oracle_stats(n: int, p: int) -> ffpoly.SquareFreeStats:
    """One enumeration per (n, p), with the discriminant classes wherever
    the discriminant suite reads them (odd p, n <= DISC_N_CAP)."""
    return ffpoly.enumerate_stats(n, p, discriminants=p % 2 == 1 and n <= DISC_N_CAP)


def _joined(values) -> str:
    return ", ".join(str(c) for c in values)


def _gl_order_value(n: int, p: int) -> int:
    """|GL(n,p)| computed numerically (not through the symbolic polynomial)."""
    return prod(p**n - p**i for i in range(n))


def _type_count_value(parts: tuple[int, ...], p: int) -> Fraction:
    """The type count at q = p, from its defining quotient in integers."""
    den = tori.centralizer_order(parts) * prod(p**i - 1 for i in parts)
    return Fraction(_gl_order_value(sum(parts), p), den)


def _type_name(parts: tuple[int, ...]) -> str:
    """The `type` parameter of a report: (2,1,1), and (1) for one part."""
    return "(" + ",".join(map(str, parts)) + ")"


# ---------------------------------------------------------------------------
# square-free polynomial identities
# ---------------------------------------------------------------------------

factorization_reports = _Suite({
    "factorization-identity": (
        lambda config: [({"order": config.series_order}, (config.series_order,))],
        lambda order: sqfree.inverse_factorization_series(order),
        lambda order: sqfree.geometric_q_series(order),
    ),
})

squarefree_count_reports = _Suite({
    "squarefree-count-symbolic": (
        _DEGREES,
        lambda n: sqfree.squarefree_count(n),
        lambda n: sqfree.squarefree_count_formula(n),
    ),
    "squarefree-count-oracle": (
        _oracle,
        lambda n, p: sqfree.squarefree_count(n).eval(p),
        lambda n, p: _oracle_stats(n, p).squarefree_count,
    ),
})

linear_factor_reports = _Suite({
    "linear-factors-symbolic": (
        _DEGREES,
        lambda n: sqfree.expected_linear_factors(n),
        lambda n: sqfree.binomial_moment(n, {1: 1}),
    ),
    "linear-factors-oracle": (
        _oracle,
        lambda n, p: sqfree.expected_linear_factors(n).eval(p),
        lambda n, p: _oracle_stats(n, p).binomial_moment({1: 1}),
    ),
})


quad_excess_reports = _Suite({
    "quad-excess-finite-n": (
        _DEGREES,
        lambda n: sqfree.quad_excess_formula(n),
        lambda n: sqfree.quad_excess_exact(n),
    ),
    "quad-excess-limit-series": (
        _point({"order": len(_INTRO_QUAD_EXCESS)}, len(_INTRO_QUAD_EXCESS)),
        lambda order: _joined(sqfree.quad_excess_limit().inverse_q_expansion(order)[1:]),
        lambda order: _joined(_INTRO_QUAD_EXCESS),
    ),
    "quad-excess-oracle": (
        _oracle,
        lambda n, p: sqfree.quad_excess_exact(n).eval(p),
        lambda n, p: _oracle_stats(n, p).binomial_moment({2: 1}) - _oracle_stats(n, p).binomial_moment({1: 2}),
    ),
})

mu_sum_reports = _Suite({
    "mu-signed-sum-symbolic": (
        _DEGREES,
        lambda n: sqfree.moebius_signed_sum(n),
        lambda n: RationalFunction(0),
    ),
    "mu-signed-sum-oracle": (
        _oracle,
        lambda n, p: _oracle_stats(n, p).mu_sum,
        lambda n, p: 0,
    ),
})

discriminant_reports = _Suite({
    "discriminant-balance": (
        lambda config: _oracle(config, DISC_N_CAP, min_p=3),
        lambda n, p: _oracle_stats(n, p).disc_residue,
        lambda n, p: _oracle_stats(n, p).disc_nonresidue,
    ),
})


# ---------------------------------------------------------------------------
# maximal torus identities
# ---------------------------------------------------------------------------

tori_count_reports = _Suite({
    "tori-total-partition": (
        _RANKS,
        lambda n: tori.total_tori(n),
        lambda n: tori.total_tori_formula(n),
    ),
    "tori-total-series": (
        _RANKS,
        lambda n: tori.cycle_index_coefficient(n, 1),
        lambda n: tori.total_tori_formula(n),
    ),
})


def _tori_type_rows(n: int) -> dict:
    """The type table of rank n: one grid point per partition of n."""

    def types(config: RunConfig):
        return [
            (
                {
                    "n": n,
                    "type": _type_name(parts),
                    "nonnegative_coefficients": min(count.num.z) >= 0,
                },
                (parts, count),
            )
            for parts, count in tori.type_counts(n)
        ]

    def types_at_q(config: RunConfig):
        return [
            ({"n": n, "q": p, "type": _type_name(parts)}, (parts, count, p))
            for parts, count in tori.type_counts(n)
            for p in config.primes
        ]

    return {
        "tori-type-polynomial": (
            types,
            lambda parts, count: count,
            lambda parts, count: render_poly(count.num),
        ),
        "tori-type-count-at-q": (
            types_at_q,
            lambda parts, count, p: count.eval(p),
            lambda parts, count, p: _type_count_value(parts, p),
        ),
        "irreducible-type-match": (
            _point({"n": n}, n),
            lambda n: tori.torus_type_count((n,)),
            lambda n: tori.irreducible_tori_count(n),
        ),
        "tori-type-total": (
            _point({"n": n}, n),
            lambda n: tori.total_tori(n),
            lambda n: tori.total_tori_formula(n),
        ),
    }


def tori_type_reports(config: RunConfig, n: int) -> list[VerificationReport]:
    return _run(_tori_type_rows(n), config)


eigenvector_reports = _Suite({
    "eigenvectors-partition": (
        _RANKS,
        lambda n: tori.binomial_moment(n, {1: 1}),
        lambda n: tori.binomial_moment_partition(n, {1: 1}),
    ),
    "eigenvectors-series": (
        _RANKS,
        lambda n: tori.binomial_moment(n, {1: 1}),
        lambda n: tori.expected_eigenvectors_series(n),
    ),
})

subtori_excess_reports = _Suite({
    "subtori-excess-partition": (
        _RANKS_FROM_2,
        lambda n: tori.tori_quad_excess(n),
        lambda n: tori.binomial_moment_partition(n, {1: 2}) - tori.binomial_moment_partition(n, {2: 1}),
    ),
    "subtori-excess-pair-moment": (
        _RANKS_FROM_2,
        lambda n: tori.binomial_moment(n, {1: 2}),
        lambda n: tori.binomial_moment_partition(n, {1: 2}),
    ),
    "subtori-excess-quad-moment": (
        _RANKS_FROM_2,
        lambda n: tori.binomial_moment(n, {2: 1}),
        lambda n: tori.binomial_moment_partition(n, {2: 1}),
    ),
    "subtori-excess-limit-series": (
        _point({"order": len(_INTRO_SUBTORI_EXCESS)}, len(_INTRO_SUBTORI_EXCESS)),
        lambda order: _joined(tori.tori_quad_excess_limit().inverse_q_expansion(order)[1:]),
        lambda order: _joined(_INTRO_SUBTORI_EXCESS),
    ),
})

mod2_bias_reports = _Suite({
    "mod2-bias-partition": (
        _RANKS,
        lambda n: tori.mod2_bias_partition(n),
        lambda n: tori.mod2_bias_formula(n),
    ),
    "mod2-bias-series": (
        _RANKS,
        lambda n: tori.mod2_bias_series(n),
        lambda n: tori.mod2_bias_formula(n),
    ),
})

euler_reports = _Suite({
    f"euler-identity-{which}": (
        _euler_point(which),
        lambda which, order: tori.euler_sum_series(which, order),
        lambda which, order: tori.euler_shifted_series(which, order),
    )
    for which in (1, 2)
})

cayley_reports = _Suite({
    "type-probability-sum": (
        _RANKS,
        lambda n: tori.binomial_moment_partition(n, {}),
        lambda n: RationalFunction(1),
    ),
})


#: the suites of ``sqftori sqfree`` and ``sqftori tori``, by command name
SQFREE_SUITES = {
    "count": squarefree_count_reports,
    "expected-linear": linear_factor_reports,
    "quad-excess": quad_excess_reports,
    "discriminant": discriminant_reports,
    "mu-sum": mu_sum_reports,
}

TORI_SUITES = {
    "count": tori_count_reports,
    "eigenvectors": eigenvector_reports,
    "quad-excess": subtori_excess_reports,
    "bias": mod2_bias_reports,
    "euler": euler_reports,
    "cayley": cayley_reports,
}


def verify_all(config: RunConfig) -> list[VerificationReport]:
    """Every identity suite at the configured sizes: the factorization
    identity, both command tables and the type tables of every rank."""
    reports = factorization_reports(config)
    for suite in (*SQFREE_SUITES.values(), *TORI_SUITES.values()):
        reports += suite(config)
    # the type counts at q = p run only under `tori types`
    for n in range(1, config.n_max + 1):
        reports += tori_type_reports(replace(config, primes=()), n)
    return reports
