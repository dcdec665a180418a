"""The exhaustive oracle: scalar polynomial ops and bulk enumeration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqftori import ffpoly, sqfree
from sqftori.ffpoly import (
    EnumerationBudgetError,
    FieldPoly,
    PrimeField,
    _disc_residue,
    _disc_residues,
    _monic_polys,
    count_irreducible_factors,
    count_irreducible_quadratic_factors,
    count_linear_factors,
    discriminant_class,
    enumerate_stats,
    factor_degrees,
    irreducible_polynomials,
    is_irreducible,
    is_prime,
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
    assert factor_degrees(f) == (2, 1, 1)
    assert factor_degrees(fp(F3, 0, 1, 0, 1) * fp(F3, 1, 2, 0, 1)) == (3, 2, 1)  # x(x^2+1)(x^3+2x+1)


def test_degree_accounting():
    field = F3
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


def _squarefree_polys(p, n):
    """(index, f) for every monic square-free f of degree n, in index order."""
    return [(i, f) for i, f in enumerate(_monic_polys(PrimeField(p), n)) if is_squarefree(f)]


@pytest.mark.parametrize("chunk", [None, 8])
def test_batched_discriminant_matches_scalar_per_row(monkeypatch, chunk):
    # p | n at (3, 3), (3, 6) and (5, 5): f' loses its leading terms; n = 1 at (3, 1)
    if chunk is not None:
        # blocks of one to four rows put every block edge under test
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
    for p, n in [(3, 1), (3, 3), (3, 6), (5, 5), (7, 4)]:
        polys = _squarefree_polys(p, n)
        got = _disc_residues(np.array([i for i, _ in polys]), n, p)
        assert got.tolist() == [_disc_residue(f) for _, f in polys]


@pytest.mark.parametrize("chunk", [None, 8])
@pytest.mark.parametrize("p,n", [(1009, 2), (101, 3)])
def test_batched_discriminant_at_large_p(monkeypatch, chunk, p, n):
    # every row against the closed-form discriminant of x^2 + b*x + c or
    # x^3 + a*x^2 + b*x + c, which is nonzero exactly on the square-free
    # rows; the scalar resultant (about 10 us a row) and the pass in tiny
    # blocks run on a strided sample of the million rows
    idx = np.arange(p**n, dtype=np.int64)
    c, b, a = idx % p, idx // p % p, idx // p**2 % p
    if n == 2:
        disc = (b * b - 4 * c) % p
    else:
        disc = (a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c) % p
    sf = np.flatnonzero(disc)
    assert len(sf) == p**n - p ** (n - 1)
    squares = np.zeros(p, dtype=bool)
    squares[np.arange(1, p) ** 2 % p] = True
    if chunk is None:
        assert np.array_equal(_disc_residues(sf, n, p), squares[disc[sf]])
    else:
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
    sample = sf[::211]
    field = PrimeField(p)
    expected = [_disc_residue(FieldPoly(field, row)) for row in ffpoly._monic_rows(sample, p, n).tolist()]
    assert _disc_residues(sample, n, p).tolist() == expected


#: the pass runs on int32 while 2p^2 < 2^31: the largest prime that keeps
#: that width, the smallest above it, and the largest prime within
#: MAX_BUDGET; at n = 2 over F_65537 the products of residues overflow int32
_NARROW_TOP, _WIDE_BOTTOM, _BUDGET_TOP, _OVERFLOW = 32749, 32771, 99999989, 65537


def test_width_edge_primes():
    assert 2 * _NARROW_TOP**2 < 2**31 < 2 * _WIDE_BOTTOM**2
    assert not any(is_prime(q) for q in range(_NARROW_TOP + 1, _WIDE_BOTTOM))
    assert not any(is_prime(q) for q in range(_BUDGET_TOP + 1, ffpoly.MAX_BUDGET + 1))
    assert all(is_prime(q) for q in (_NARROW_TOP, _WIDE_BOTTOM, _BUDGET_TOP, _OVERFLOW))
    assert (_OVERFLOW - 1) ** 2 >= 2**31


def test_discriminant_class_reuses_the_field_of_f(monkeypatch):
    # building PrimeField(p) again re-runs trial division, about 1 ms at this p
    f = fp(PrimeField(_BUDGET_TOP), 1, 0, 1)
    calls = []
    monkeypatch.setattr(ffpoly, "is_prime", lambda p: calls.append(p) or True)
    assert discriminant_class(f) == "residue"  # disc(x^2+1) = -4, and p = 1 mod 4
    assert calls == []


@pytest.mark.parametrize("chunk", [None, 8])
@pytest.mark.parametrize(
    "p,n",
    [(_NARROW_TOP, 1), (_NARROW_TOP, 2), (_WIDE_BOTTOM, 1), (_WIDE_BOTTOM, 2), (_BUDGET_TOP, 1), (_OVERFLOW, 2)],
)
def test_batched_discriminant_at_the_width_edges(monkeypatch, chunk, p, n):
    # a strided sample of the square-free rows, both ends included: every
    # x + c, and x^2 + b*x + c with b^2 - 4c != 0
    if chunk is not None:
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
    idx = np.append(np.arange(0, p**n, p**n // 500 + 1), p**n - 1)
    if n == 2:
        idx = idx[(idx // p * (idx // p) - 4 * (idx % p)) % p != 0]
    field = PrimeField(p)
    expected = [_disc_residue(FieldPoly(field, row)) for row in ffpoly._monic_rows(idx, p, n).tolist()]
    assert _disc_residues(idx, n, p).tolist() == expected


#: a few arrays of about _CHUNK entries each, as the product walk and the
#: discriminant blocks hold at a time
_CHUNK_ALLOWANCE = 4 * 2**20


def test_discriminant_pass_at_large_p_stays_chunk_sized():
    # a block at a time: a full-size int64 copy of the million indices alone
    # would be 7.8 MiB above the bool output
    p, n = 1009, 2
    square = math.prod(ffpoly._type_code(n, p)[0][:-1])  # the first code not square-free
    sf = np.flatnonzero(ffpoly._factor_codes(n, p) < square).astype(np.int32)
    tracemalloc.start()
    try:
        out = _disc_residues(sf, n, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 4 * 2**20


def test_discriminant_classes_need_no_array_of_all_squarefree_indices():
    # the square-free indices go to the batched resultant a window at a
    # time; an int32 index for each of the 706k square-free polynomials
    # alone would be 2.7 MiB
    n, p = 7, 7
    ffpoly._irreducible_arrays(p, n // 2)
    tracemalloc.start()
    try:
        stats = enumerate_stats(n, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.disc_residue + stats.disc_nonresidue == stats.squarefree_count == p**n - p ** (n - 1)
    codes_bytes = np.dtype(ffpoly._type_code(n, p)[1]).itemsize * p**n
    assert peak - codes_bytes < _CHUNK_ALLOWANCE


# every odd p with a point p^n <= 729 of degree 2 or more
_odd_points = [
    (p, n) for p in range(3, 28, 2) if is_prime(p) for n in range(1, 7) if p**n <= 729
]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_odd_points))
def test_batched_discriminant_follows_stickelberger(point):
    # Stickelberger (Swan 1962): for odd p and square-free f with r
    # irreducible factors, disc f is a square exactly when n - r is even
    p, n = point
    radices = ffpoly._type_code(n, p)[0]
    types = [ffpoly._code_type(code, n, radices) for code in ffpoly._factor_codes(n, p).tolist()]
    idx = [i for i, parts in enumerate(types) if parts is not None]
    got = _disc_residues(np.array(idx), n, p)
    assert got.tolist() == [(n - len(types[i])) % 2 == 0 for i in idx]


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
    sieved = set(irreducible_polynomials(p, d))
    direct = {f for f in _monic_polys(PrimeField(p), d) if is_irreducible(f)}
    assert sieved == direct
    assert len(sieved) == sqfree.count_irreducibles(d).eval(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sieve_irreducible_counts_beyond_trial_division(p):
    # the zero codes of the marking pass at each degree, up to 5^6 polynomials
    for d in range(1, 7):
        assert len(irreducible_polynomials(p, d)) == sqfree.count_irreducibles(d).eval(p)


def test_sieve_keeps_every_linear_polynomial_at_large_p():
    p = 3137
    assert [f.coeffs for f in irreducible_polynomials(p, 1)] == [(c, 1) for c in range(p)]


def _index(f):
    """Base-p index of a monic polynomial: its non-leading coefficients."""
    return sum(c * f.field.p**i for i, c in enumerate(f.coeffs[:-1]))


@pytest.mark.parametrize("chunk", [None, 4])
def test_product_walk_matches_fieldpoly_products(monkeypatch, chunk):
    from sqftori.ffpoly import _product_indices

    if chunk is not None:
        # a tiny chunk forces the walk to branch over blocks of a
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
        monkeypatch.setattr(ffpoly, "_IRR_CACHE", {})
    for p, e, m in [(2, 1, 5), (3, 2, 3), (5, 1, 3), (7, 2, 1), (13, 1, 2), (9973, 1, 1)]:
        field = PrimeField(p)
        irr = [g for g in _monic_polys(field, e) if is_irreducible(g)]
        if p == 9973:
            # the three g of largest index: the products' indices reach
            # p^2 - 1, near 10^8, the scale of MAX_BUDGET
            irr = irr[-3:]
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
    assert s.binomial_moment({1: 1}) * s.squarefree_count == 2  # two roots in all
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
    # factors of degree above n/2 are read off the marked degree sum, not
    # sieved: the cache holds degrees 0..n//2
    monkeypatch.setattr(ffpoly, "_IRR_CACHE", {})
    enumerate_stats(4, 3)
    assert len(ffpoly._IRR_CACHE[3]) == 3
    enumerate_stats(5, 3)
    assert len(ffpoly._IRR_CACHE[3]) == 3


@pytest.mark.parametrize("chunk", [None, 4])
def test_factor_codes_match_trial_division_per_polynomial(monkeypatch, chunk):
    # the sieve = direct tests compare totals, in which errors can cancel;
    # here each polynomial's code is decoded and its whole type, every m_d,
    # checked on its own; at (2, 8) the radices of degrees 1 to 4 are capped
    # by the number of irreducibles, not by n//d
    if chunk is not None:
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
        monkeypatch.setattr(ffpoly, "_IRR_CACHE", {})
    for p, n in [(2, 8), (3, 5), (5, 4), (7, 3)]:
        radices = ffpoly._type_code(n, p)[0]
        codes = ffpoly._factor_codes(n, p).tolist()
        for code, f in zip(codes, _monic_polys(PrimeField(p), n), strict=True):
            parts = ffpoly._code_type(code, n, radices)
            if not is_squarefree(f):
                assert parts is None, f
            else:
                assert parts == factor_degrees(f), f
                assert (parts.count(1), parts.count(2)) == (
                    count_linear_factors(f),
                    count_irreducible_quadratic_factors(f),
                ), f


def test_square_walk_at_large_p_stays_chunk_sized():
    # at n = 2 the squares of the p linear g have no cofactor digits; the
    # walk must not build its per-(g, a) tables for them, which at p = 1009
    # would be 3*p^2 int64 entries (about 70 MiB over the code array)
    p = 1009
    ffpoly._irreducible_arrays(p, 1)
    tracemalloc.start()
    try:
        codes = ffpoly._factor_codes(2, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few arrays of at most about _CHUNK*(e+1) int64 entries at a time
    assert peak - codes.nbytes < 8 * 2**20


def test_stats_histogram_makes_no_copy_of_the_packed_codes():
    # the histogram sorts the packed uint32 codes in place; a flattened copy
    # (as np.unique makes) would put the peak at 2.5 times the packed array
    n, p = 9, 5
    ffpoly._irreducible_arrays(p, n // 2)
    tracemalloc.start()
    try:
        enumerate_stats(n, p, discriminants=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 4 * p**n


def test_stats_peak_is_two_and_a_half_bytes_per_polynomial():
    # uint16 type codes, sorted in place, and runs found by binary search:
    # no bool or index array of p^n entries is made beside them
    n, p = 9, 5
    ffpoly._irreducible_arrays(p, n // 2)
    tracemalloc.start()
    try:
        enumerate_stats(n, p, discriminants=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * p**n + _CHUNK_ALLOWANCE


@pytest.mark.parametrize("p,n,dtype", [(2, 15, np.uint16), (5, 10, np.uint16), (2, 16, np.uint32)])
def test_type_code_width_by_enumeration(p, n, dtype):
    assert ffpoly._factor_codes(n, p).dtype == dtype


def test_type_code_width_rule():
    # from (n, p) alone: nothing is sieved or enumerated
    assert ffpoly._type_code(14, 3)[1] is np.uint32
    radices, dtype = ffpoly._type_code(26, 2)
    assert dtype is np.uint32 and math.prod(radices) - 1 == 117_573_119
    # every point within the budget fits in uint32: n = 1 has no digits
    # whatever p, and n >= 2 needs p^2 <= MAX_BUDGET
    assert ffpoly._type_code(1, _BUDGET_TOP) == ([1], np.uint16)
    for p in range(2, math.isqrt(ffpoly.MAX_BUDGET) + 1):
        if is_prime(p):
            n = 2
            while p**n <= ffpoly.MAX_BUDGET:
                assert math.prod(ffpoly._type_code(n, p)[0]) <= 2**32, (p, n)
                n += 1
    # beyond the budget the rule refuses, before anything is allocated
    with pytest.raises(ValueError):
        ffpoly._type_code(40, 2)


def test_factor_counts_rejects_an_unmarked_small_factor():
    # square-free, but its marked degrees sum to 2 of 4: the other factors
    # would have degree <= n/2 and should have been marked
    radices = ffpoly._type_code(4, 3)[0]
    with pytest.raises(RuntimeError):
        ffpoly._code_type(radices[0], 4, radices)  # m_1 = 0, m_2 = 1


def test_irreducible_polynomials_checks_the_budget_first(monkeypatch):
    def refuse(*args):
        raise AssertionError("sieve ran")

    monkeypatch.setattr(ffpoly, "_irreducible_arrays", refuse)
    with pytest.raises(EnumerationBudgetError) as exc:
        irreducible_polynomials(2, 27)
    assert str(ffpoly.MAX_BUDGET) in str(exc.value)


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


def test_direct_method_decides_squarefreeness_once_per_polynomial(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return is_squarefree(f)

    monkeypatch.setattr(ffpoly, "is_squarefree", counted)
    enumerate_stats(4, 3, method="direct")
    assert len(calls) == 3**4


def test_enumerate_discriminants_optional():
    s = enumerate_stats(3, 3, discriminants=False)
    assert s.disc_residue is None and s.disc_nonresidue is None
    full = enumerate_stats(3, 3, discriminants=True)
    moments = (s.binomial_moment({1: 1}), s.binomial_moment({2: 1}))
    assert (s.n, s.p, s.squarefree_count, *moments, s.mu_sum) == (
        full.n,
        full.p,
        full.squarefree_count,
        full.binomial_moment({1: 1}),
        full.binomial_moment({2: 1}),
        full.mu_sum,
    )
