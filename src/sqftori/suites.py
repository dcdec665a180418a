"""Identity registry: every identity is a data row, and one runner makes the reports.

A row maps a report name to a parameter grid taken from a `RunConfig`
and to the two routes of the identity.  `_run` evaluates both routes at
every grid point, renders them in canonical text form and makes one
`VerificationReport` per point; it is the only place where routes are
compared.  Each suite is one call of `_run`, and ``verify_all``
concatenates every suite; an injected sequence table lets tests
exercise the failure path without touching the real tables.

Routes look library functions up on their module when called
(``sqfree.f(n)``, never a stored ``f``), so a row always evaluates what
the module binds at that moment.

Oracle rows are emitted only for grid points whose p^n fits the
enumeration budget.  Discriminant enumeration pays for a scalar
resultant per square-free polynomial, so that suite caps the degree at
6 (the full identity is polynomial in q; larger degrees add cost, not
verification power).
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import ffpoly, sqfree, tori
from .exact import RationalFunction, render_poly, render_rational_function
from .report import RunConfig, VerificationReport, make_report
from .series import TruncatedSeries, render_series

#: largest degree used for discriminant equidistribution checks
DISC_N_CAP = 6

_INTRO_QUAD_EXCESS = (1, -3, 4, -4, 5, -7, 8, -8)
_INTRO_SUBTORI_EXCESS = (1, 1, 2, 2, 3, 3, 4, 4)


def _render(value) -> str:
    if isinstance(value, RationalFunction):
        return render_rational_function(value)
    if isinstance(value, TruncatedSeries):
        return render_series(value)
    return str(value)


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
            reports.append(make_report(name, params, _render(lhs), _render(rhs), elapsed))
    return reports


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
        order = max(12, config.n_max)
        return [({"order": order, "which": which}, (which, order))]

    return grid


@lru_cache(maxsize=None)
def _oracle_stats(n: int, p: int, discriminants: bool) -> ffpoly.SquareFreeStats:
    return ffpoly.enumerate_stats(
        n, p, budget=p**n, discriminants=discriminants
    )


def _oracle_mean(n: int, p: int, total: Callable[[ffpoly.SquareFreeStats], int]) -> Fraction:
    """An oracle total over square-free polynomials, divided by their number."""
    stats = _oracle_stats(n, p, False)
    return Fraction(total(stats), stats.squarefree_count)


def _joined(values) -> str:
    return ", ".join(str(c) for c in values)


def _gl_order_value(n: int, p: int) -> int:
    """|GL(n,p)| computed numerically (not through the symbolic polynomial)."""
    out = 1
    pn = p**n
    for i in range(n):
        out *= pn - p**i
    return out


def _type_count_value(rec: tori.TorusTypeRecord, p: int) -> Fraction:
    """The type count at q = p, from its defining quotient in integers."""
    den = rec.centralizer
    for i, m in rec.partition.multiplicities().items():
        den *= (p**i - 1) ** m
    return Fraction(_gl_order_value(rec.partition.n, p), den)


def _probability_sum(n: int) -> RationalFunction:
    acc = RationalFunction(0)
    for rec in tori.type_distribution(n):
        acc = acc + rec.probability
    return acc


# ---------------------------------------------------------------------------
# square-free polynomial identities
# ---------------------------------------------------------------------------

_FACTORIZATION = {
    "factorization-identity": (
        lambda config: [({"order": config.series_order}, (config.series_order,))],
        lambda order: sqfree.inverse_factorization_series(order),
        lambda order: sqfree.geometric_q_series(order),
    ),
}

_SQUAREFREE_COUNT = {
    "squarefree-count-symbolic": (
        _DEGREES,
        lambda n: sqfree.squarefree_count(n),
        lambda n: sqfree.squarefree_count_formula(n),
    ),
    "squarefree-count-oracle": (
        _oracle,
        lambda n, p: sqfree.squarefree_count(n).eval(p),
        lambda n, p: _oracle_stats(n, p, False).squarefree_count,
    ),
}

_LINEAR_FACTOR = {
    "linear-factors-symbolic": (
        _DEGREES,
        lambda n: sqfree.expected_linear_factors_sum(n),
        lambda n: sqfree.expected_linear_factors_series(n),
    ),
    "linear-factors-oracle": (
        _oracle,
        lambda n, p: sqfree.expected_linear_factors(n).eval(p),
        lambda n, p: _oracle_mean(n, p, lambda s: s.sum_n1),
    ),
}


def _quad_excess_rows(
    a_table: sqfree.SequenceTable | None, b_table: sqfree.SequenceTable | None
) -> dict:
    return {
        "quad-excess-finite-n": (
            _DEGREES,
            lambda n: sqfree.quad_excess_formula(n, a_table, b_table),
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
            lambda n, p: _oracle_mean(n, p, lambda s: s.sum_n2 - s.sum_n1_pairs),
        ),
    }


_MU_SUM = {
    "mu-signed-sum-symbolic": (
        _DEGREES,
        lambda n: sqfree.moebius_signed_sum(n),
        lambda n: RationalFunction(0),
    ),
    "mu-signed-sum-oracle": (
        _oracle,
        lambda n, p: _oracle_stats(n, p, False).mu_sum,
        lambda n, p: 0,
    ),
}

_DISCRIMINANT = {
    "discriminant-balance": (
        lambda config: _oracle(config, DISC_N_CAP, min_p=3),
        lambda n, p: _oracle_stats(n, p, True).disc_residue,
        lambda n, p: _oracle_stats(n, p, True).disc_nonresidue,
    ),
}


# ---------------------------------------------------------------------------
# maximal torus identities
# ---------------------------------------------------------------------------

_TORI_COUNT = {
    "tori-total-partition": (
        _RANKS,
        lambda n: tori.total_tori(n),
        lambda n: tori.total_tori_formula(n),
    ),
    "tori-total-series": (
        _RANKS,
        lambda n: tori.cycle_index_coefficient(n, {i: 1 for i in range(1, n + 1)}),
        lambda n: tori.total_tori_formula(n),
    ),
}


def _tori_type_rows(n: int, with_evaluations: bool) -> dict:
    """The type table of rank n: one grid point per partition of n."""

    def types(config: RunConfig):
        return [
            (
                {
                    "n": n,
                    "type": str(rec.partition),
                    "nonnegative_coefficients": not any(c < 0 for c in rec.count.num.z),
                },
                (rec,),
            )
            for rec in tori.type_distribution(n)
        ]

    def types_at_q(config: RunConfig):
        return [
            ({"n": n, "q": p, "type": str(rec.partition)}, (rec, p))
            for rec in tori.type_distribution(n)
            for p in (config.primes if with_evaluations else ())
        ]

    return {
        "tori-type-polynomial": (
            types,
            lambda rec: rec.count,
            lambda rec: render_poly(rec.count.num),
        ),
        "tori-type-count-at-q": (
            types_at_q,
            lambda rec, p: rec.count.eval(p),
            lambda rec, p: _type_count_value(rec, p),
        ),
        "irreducible-type-match": (
            _point({"n": n}, n),
            lambda n: tori.torus_type_count(tori.Partition((n,))),
            lambda n: tori.irreducible_tori_count(n),
        ),
        "tori-type-total": (
            _point({"n": n}, n),
            lambda n: tori.total_tori(n),
            lambda n: tori.total_tori_formula(n),
        ),
    }


_EIGENVECTOR = {
    "eigenvectors-partition": (
        _RANKS,
        lambda n: tori.expected_eigenvectors_closed(n),
        lambda n: tori.expected_eigenvectors_partition(n),
    ),
    "eigenvectors-series": (
        _RANKS,
        lambda n: tori.expected_eigenvectors_closed(n),
        lambda n: tori.expected_eigenvectors_series(n),
    ),
}

_SUBTORI_EXCESS = {
    "subtori-excess-partition": (
        _RANKS_FROM_2,
        lambda n: tori.tori_quad_excess_closed(n),
        lambda n: tori.tori_quad_excess_partition(n),
    ),
    "subtori-excess-pair-moment": (
        _RANKS_FROM_2,
        lambda n: tori.pair_moment_closed(n),
        lambda n: tori.pair_moment_partition(n),
    ),
    "subtori-excess-quad-moment": (
        _RANKS_FROM_2,
        lambda n: tori.quad_moment_closed(n),
        lambda n: tori.quad_moment_partition(n),
    ),
    "subtori-excess-limit-series": (
        _point({"order": len(_INTRO_SUBTORI_EXCESS)}, len(_INTRO_SUBTORI_EXCESS)),
        lambda order: _joined(tori.tori_quad_excess_limit().inverse_q_expansion(order)[1:]),
        lambda order: _joined(_INTRO_SUBTORI_EXCESS),
    ),
}

_MOD2_BIAS = {
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
}

_EULER = {
    f"euler-identity-{which}": (
        _euler_point(which),
        lambda which, order: tori.euler_sum_series(which, order),
        lambda which, order: tori.euler_shifted_series(which, order),
    )
    for which in (1, 2)
}

_CAYLEY = {
    "type-probability-sum": (
        _RANKS,
        lambda n: _probability_sum(n),
        lambda n: RationalFunction(1),
    ),
}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def factorization_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_FACTORIZATION, config)


def squarefree_count_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_SQUAREFREE_COUNT, config)


def linear_factor_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_LINEAR_FACTOR, config)


def quad_excess_reports(
    config: RunConfig,
    a_table: sqfree.SequenceTable | None = None,
    b_table: sqfree.SequenceTable | None = None,
) -> list[VerificationReport]:
    return _run(_quad_excess_rows(a_table, b_table), config)


def mu_sum_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_MU_SUM, config)


def discriminant_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_DISCRIMINANT, config)


def tori_count_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_TORI_COUNT, config)


def tori_type_reports(
    config: RunConfig, n: int, with_evaluations: bool = True
) -> list[VerificationReport]:
    return _run(_tori_type_rows(n, with_evaluations), config)


def eigenvector_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_EIGENVECTOR, config)


def subtori_excess_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_SUBTORI_EXCESS, config)


def mod2_bias_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_MOD2_BIAS, config)


def euler_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_EULER, config)


def cayley_reports(config: RunConfig) -> list[VerificationReport]:
    return _run(_CAYLEY, config)


def verify_all(
    config: RunConfig,
    a_table: sqfree.SequenceTable | None = None,
    b_table: sqfree.SequenceTable | None = None,
) -> list[VerificationReport]:
    """Every identity suite at the configured sizes."""
    reports: list[VerificationReport] = []
    reports += factorization_reports(config)
    reports += squarefree_count_reports(config)
    reports += linear_factor_reports(config)
    reports += quad_excess_reports(config, a_table, b_table)
    reports += mu_sum_reports(config)
    reports += discriminant_reports(config)
    reports += tori_count_reports(config)
    for n in range(1, config.n_max + 1):
        reports += tori_type_reports(config, n, with_evaluations=False)
    reports += eigenvector_reports(config)
    reports += subtori_excess_reports(config)
    reports += mod2_bias_reports(config)
    reports += euler_reports(config)
    reports += cayley_reports(config)
    return reports
