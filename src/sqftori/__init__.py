"""Exact two-route verification of counting identities for square-free
monic polynomials over F_q and F-stable maximal tori of GL_n.

Symbolic computations live in Q(q) (exact rational-function arithmetic);
brute-force oracles enumerate polynomials over prime fields.  Every
identity is checked by comparing independent routes exactly, never
approximately.
"""

from .exact import (
    QPoly,
    RationalFunction,
    gl_order,
    render_poly,
    render_rational_function,
)
from .ffpoly import SquareFreeStats, check_prime, enumerate_stats
from .report import RunConfig, VerificationReport
from .series import TruncatedSeries
from .sqfree import (
    SequenceTable,
    count_irreducibles,
    expected_linear_factors,
    moebius_signed_sum,
    quad_excess_exact,
    quad_excess_formula,
    quad_excess_limit,
    squarefree_count,
)
from .tori import (
    centralizer_order,
    irreducible_tori_count,
    partitions,
    tori_quad_excess,
    torus_type_count,
    total_tori,
    type_counts,
)

__version__ = "0.1.0"
