"""The exhaustive oracle: scalar polynomial ops and bulk enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqftori import ffpoly, sqfree
from sqftori.ffpoly import (
    EnumerationBudgetError,
    FieldPoly,
    PrimeField,
    count_irreducible_factors,
    count_irreducible_quadratic_factors,
    count_linear_factors,
    discriminant_class,
    enumerate_stats,
    irreducible_polynomials,
    is_irreducible,
    is_squarefree,
    poly_gcd,
    resultant,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def fp(field, *coeffs):
    return FieldPoly(field, coeffs)


# ---------------------------------------------------------------------------
# fields and polynomials
# ---------------------------------------------------------------------------


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_field_mismatch_is_an_error():
    with pytest.raises(ValueError):
        poly_gcd(fp(F2, 1, 1), fp(F3, 1, 1))


def test_poly_division():
    f = fp(F3, 1, 0, 1) * fp(F3, 2, 1) + fp(F3, 1)
    q, r = f.divmod(fp(F3, 1, 0, 1))
    assert q == fp(F3, 2, 1)
    assert r == fp(F3, 1)


# ---------------------------------------------------------------------------
# gcd / square-freeness
# ---------------------------------------------------------------------------


def test_gcd_examples():
    assert poly_gcd(fp(F2, 0, 1, 1), fp(F2, 1, 1)) == fp(F2, 1, 1)  # x^2+x vs x+1
    f = fp(F2, 0, 1, 1)
    assert poly_gcd(f, FieldPoly(F2, [])) == f
    # x^2 + 1 = (x+1)^2 over F_2
    assert poly_gcd(fp(F2, 1, 0, 1), fp(F2, 1, 1)) == fp(F2, 1, 1)


def test_gcd_of_two_zeros_is_undefined():
    with pytest.raises(ValueError):
        poly_gcd(FieldPoly(F2, []), FieldPoly(F2, []))


def test_is_squarefree():
    assert is_squarefree(fp(F2, 0, 1, 1))  # x(x+1)
    assert not is_squarefree(fp(F2, 0, 0, 1))  # x^2
    assert is_squarefree(fp(F3, 0, 1, 0, 1))  # derivative is the unit 1
    assert not is_squarefree(fp(F2, 1, 0, 1))  # (x+1)^2


def test_is_squarefree_requires_monic():
    with pytest.raises(ValueError):
        is_squarefree(fp(F3, 1, 2))


# ---------------------------------------------------------------------------
# factor statistics
# ---------------------------------------------------------------------------


def test_count_linear_factors():
    assert count_linear_factors(fp(F2, 0, 1, 1)) == 2
    assert count_linear_factors(fp(F2, 1, 1, 1)) == 0
    assert count_linear_factors(fp(F3, 0, 2, 0, 1)) == 3  # x^3 - x


def test_count_linear_factors_rejects_non_squarefree():
    with pytest.raises(ValueError):
        count_linear_factors(fp(F2, 0, 0, 1))


def test_count_irreducible_quadratic_factors():
    assert count_irreducible_quadratic_factors(fp(F2, 1, 1, 1)) == 1
    assert count_irreducible_quadratic_factors(fp(F2, 0, 1, 1)) == 0
    assert count_irreducible_quadratic_factors(fp(F3, 0, 1, 0, 1)) == 1  # x(x^2+1)


def test_count_irreducible_factors():
    assert count_irreducible_factors(fp(F2, 0, 1, 1)) == 2  # x(x+1)
    assert count_irreducible_factors(fp(F2, 1, 1, 1)) == 1
    assert count_irreducible_factors(fp(F3, 0, 1, 0, 1)) == 2
    # x(x+1)(x^2+x+1) over F_2
    f = fp(F2, 0, 1, 1) * fp(F2, 1, 1, 1)
    assert count_irreducible_factors(f) == 3


def test_degree_accounting():
    field = F3
    from sqftori.ffpoly import _monic_polys

    for f in _monic_polys(field, 4):
        if not is_squarefree(f):
            continue
        n1 = count_linear_factors(f)
        n2 = count_irreducible_quadratic_factors(f)
        assert n1 + 2 * n2 <= 4


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------


def test_resultant_linear_case():
    F7 = PrimeField(7)
    for a in range(7):
        for b in range(7):
            r = resultant(fp(F7, -a, 1), fp(F7, -b, 1))
            assert r == (a - b) % 7


def test_resultant_shared_root_criterion():
    f = fp(F3, 0, 1, 1)  # x(x+1)
    g = fp(F3, 0, 1)  # x
    assert resultant(f, g) == 0
    assert resultant(fp(F3, 1, 0, 1), fp(F3, 0, 1)) == 1


def test_resultant_zero_input_rejected():
    with pytest.raises(ValueError):
        resultant(FieldPoly(F3, []), fp(F3, 1))


_f5_polys = st.lists(
    st.integers(min_value=0, max_value=4), min_size=1, max_size=5
).map(lambda cs: FieldPoly(F5, cs)).filter(lambda f: not f.is_zero())


@settings(max_examples=60, deadline=None)
@given(_f5_polys, _f5_polys, _f5_polys)
def test_resultant_multiplicative(a, b, c):
    assert resultant(a, b * c) == resultant(a, b) * resultant(a, c) % 5


def test_discriminant_class_examples():
    assert discriminant_class(fp(F3, 1, 0, 1)) == "nonresidue"  # disc(x^2+1) = -4 = 2
    assert discriminant_class(fp(F3, 2, 0, 1)) == "residue"  # disc(x^2-1) = 4 = 1


def test_discriminant_class_rejections():
    with pytest.raises(ValueError):
        discriminant_class(fp(F2, 1, 1, 1))  # p = 2
    with pytest.raises(ValueError):
        discriminant_class(fp(F3, 0, 0, 1))  # not square-free


def test_discriminant_equidistribution_f3_quadratics():
    stats = enumerate_stats(2, 3)
    assert stats.squarefree_count == 6
    assert stats.disc_residue == 3
    assert stats.disc_nonresidue == 3


# ---------------------------------------------------------------------------
# irreducibles by sieve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quadratic_irreducible_count_matches_formula(p):
    found = irreducible_polynomials(p, 2)
    assert len(found) == sqfree.count_irreducibles(2).eval(p) == (p * p - p) // 2
    for g in found:
        assert is_irreducible(g)


@pytest.mark.parametrize("p,d", [(2, 3), (2, 4), (3, 3), (5, 3)])
def test_sieve_irreducibles_agree_with_trial_division(p, d):
    from sqftori.ffpoly import _monic_polys

    sieved = set(irreducible_polynomials(p, d))
    direct = {f for f in _monic_polys(PrimeField(p), d) if is_irreducible(f)}
    assert sieved == direct
    assert len(sieved) == sqfree.count_irreducibles(d).eval(p)


def _index(f):
    """Base-p index of a monic polynomial: its non-leading coefficients."""
    return sum(c * f.field.p**i for i, c in enumerate(f.coeffs[:-1]))


@pytest.mark.parametrize("chunk", [None, 4])
def test_product_walk_matches_fieldpoly_products(monkeypatch, chunk):
    from sqftori.ffpoly import _monic_polys, _product_indices

    if chunk is not None:
        # a tiny chunk forces the walk to branch over blocks of a
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
        monkeypatch.setattr(ffpoly, "_IRR_CACHE", {})
    for p, e, m in [(2, 1, 5), (3, 2, 3), (5, 1, 3), (7, 2, 1), (13, 1, 2)]:
        field = PrimeField(p)
        irr = [g for g in _monic_polys(field, e) if is_irreducible(g)]
        G = np.array([list(g.coeffs) for g in irr], dtype=np.int64)
        batches = list(_product_indices(G, p, m))
        assert max(len(b) for b in batches) <= ffpoly._CHUNK
        expected = sorted(_index(g * h) for g in irr for h in _monic_polys(field, m))
        assert sorted(np.concatenate(batches).tolist()) == expected
    for p, d in [(2, 5), (3, 4)]:
        direct = [f for f in _monic_polys(PrimeField(p), d) if is_irreducible(f)]
        assert irreducible_polynomials(p, d) == direct


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_stats_examples():
    s = enumerate_stats(2, 2)
    assert s.total_monic == 4
    assert s.squarefree_count == 2
    assert s.sum_n1 == 2
    assert s.mu_sum == 0
    assert s.disc_residue is None  # p = 2

    assert enumerate_stats(3, 3).squarefree_count == 18


def test_enumerate_stats_counts_match_formula():
    for p in (2, 3, 5):
        for n in range(2, 6):
            s = enumerate_stats(n, p)
            assert s.total_monic == p**n
            assert s.squarefree_count == p**n - p ** (n - 1)
            if p != 2:
                assert s.disc_residue + s.disc_nonresidue == s.squarefree_count
                assert s.disc_residue == s.disc_nonresidue


@pytest.mark.parametrize(
    "p,n",
    [
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
        (3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
        (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2),
    ],
)
def test_sieve_and_direct_methods_agree(p, n):
    assert enumerate_stats(n, p, method="sieve") == enumerate_stats(n, p, method="direct")


_small_grid = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 10) if p**n <= 729]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_small_grid))
def test_sieve_equals_direct_property(point):
    p, n = point
    assert enumerate_stats(n, p, method="sieve") == enumerate_stats(n, p, method="direct")


@pytest.mark.parametrize("p,n", [(1009, 2), (101, 3)])
def test_large_p_closed_forms(p, n):
    s = enumerate_stats(n, p, discriminants=False)
    assert s.total_monic == p**n
    assert s.squarefree_count == p**n - p ** (n - 1)
    assert s.mu_sum == 0


def test_stats_sieve_stops_below_degree_n(monkeypatch):
    # degree-n irreducibles are read off the unmarked polynomials, not sieved
    monkeypatch.setattr(ffpoly, "_IRR_CACHE", {})
    enumerate_stats(4, 3)
    assert len(ffpoly._IRR_CACHE[3]) == 4


def test_enumerate_budget():
    with pytest.raises(EnumerationBudgetError) as exc:
        enumerate_stats(10, 3, budget=1000)
    assert str(3**10) in str(exc.value)


def test_enumerate_rejects_budget_above_the_maximum(monkeypatch):
    # refused before anything is allocated: neither method runs
    def refuse(*args):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(ffpoly, "_stats_sieve", refuse)
    monkeypatch.setattr(ffpoly, "_stats_direct", refuse)
    for method in ("sieve", "direct"):
        with pytest.raises(EnumerationBudgetError) as exc:
            enumerate_stats(2, 2, budget=ffpoly.MAX_BUDGET + 1, method=method)
        assert str(ffpoly.MAX_BUDGET) in str(exc.value)


def test_enumerate_rejects_degree_zero():
    with pytest.raises(ValueError):
        enumerate_stats(0, 3)


def test_enumerate_discriminants_optional():
    s = enumerate_stats(3, 3, discriminants=False)
    assert s.disc_residue is None and s.disc_nonresidue is None
    full = enumerate_stats(3, 3, discriminants=True)
    assert (s.n, s.p, s.squarefree_count, s.sum_n1, s.sum_n2, s.mu_sum) == (
        full.n,
        full.p,
        full.squarefree_count,
        full.sum_n1,
        full.sum_n2,
        full.mu_sum,
    )
