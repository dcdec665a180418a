"""The exhaustive oracle, held to the scalar reference in fp_reference."""

import functools
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fp_reference
from fp_reference import (
    FieldPoly,
    count_linear_factors,
    disc_residue,
    factor_degrees,
    is_squarefree,
    monic_polys,
    poly_gcd,
    resultant,
    stats_direct,
)
from sqftori import ffpoly, sqfree, suites
from sqftori.ffpoly import (
    EnumerationBudgetError,
    _disc_residues,
    check_prime,
    enumerate_stats,
    is_prime,
)
from sqftori.report import RunConfig


def fp(p, *coeffs):
    return FieldPoly(p, coeffs)


def _irreducible(f):
    return is_squarefree(f) and factor_degrees(f) == (f.degree,)


def _polys(idx, p, n):
    """The monic degree-n polynomials with these indices."""
    return [FieldPoly(p, row) for row in ffpoly._monic_rows(idx, p, n, np.int64)[::-1].T.tolist()]


def _codes(n, p):
    """The sieve's type code of every monic degree-n polynomial, by index:
    each slab copied out of the one buffer before the next overwrites it."""
    return np.concatenate([codes.copy() for _, codes in ffpoly._factor_codes(n, p)])


def _slab_bytes(n, p):
    """The size of the sieve's one code buffer at (n, p)."""
    s, k = ffpoly._slab_shape(n, p)
    return k * p ** (n - s) * np.dtype(ffpoly._type_code(n, p)[1]).itemsize


def _sieved(p, d):
    """The sieve's monic irreducibles of degree d, in index order."""
    return [FieldPoly(p, row) for row in ffpoly._irreducibles(p, d).tolist()]


# ---------------------------------------------------------------------------
# fields and polynomials
# ---------------------------------------------------------------------------


def test_prime_field_rejects_composites():
    for bad in (6, 1, 3.0, True):
        with pytest.raises(ValueError):
            check_prime(bad)


def test_prime_factors_trial_division():
    # the one trial division behind is_prime, the Moebius function and the
    # primes of p - 1 that pick a generator for the orbit classes
    for n in [*range(1, 5001), 2**31 - 1, 2**31 - 2, 99999989, 10**8]:
        factors = ffpoly._prime_factors(n)
        assert factors == sorted(factors), n
        assert all(is_prime(f) for f in factors), n
        assert math.prod(factors) == n
    sieve = [False, False] + [True] * (10**4 - 2)
    for d in range(2, 100):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, 10**4, d))
    assert [is_prime(n) for n in range(10**4)] == sieve
    for n in range(1, 1001):
        assert sum(sqfree._mobius(d) for d in range(1, n + 1) if n % d == 0) == (n == 1), n


def test_poly_division():
    assert fp(3, 1, 0, 1) * fp(3, 2, 1) == fp(3, 2, 1, 2, 1)
    f = fp(3, 0, 1, 2, 1)  # (x^2 + 1)(x + 2) + 1
    q, r = divmod(f, fp(3, 1, 0, 1))
    assert q == fp(3, 2, 1)
    assert r == fp(3, 1)


# ---------------------------------------------------------------------------
# gcd / square-freeness
# ---------------------------------------------------------------------------


def test_gcd_examples():
    assert poly_gcd(fp(2, 0, 1, 1), fp(2, 1, 1)) == fp(2, 1, 1)  # x^2+x vs x+1
    f = fp(2, 0, 1, 1)
    assert poly_gcd(f, FieldPoly(2, [])) == f
    # x^2 + 1 = (x+1)^2 over F_2
    assert poly_gcd(fp(2, 1, 0, 1), fp(2, 1, 1)) == fp(2, 1, 1)


def test_is_squarefree():
    assert is_squarefree(fp(2, 0, 1, 1))  # x(x+1)
    assert not is_squarefree(fp(2, 0, 0, 1))  # x^2
    assert is_squarefree(fp(3, 0, 1, 0, 1))  # derivative is the unit 1
    assert not is_squarefree(fp(2, 1, 0, 1))  # (x+1)^2


# ---------------------------------------------------------------------------
# factor statistics
# ---------------------------------------------------------------------------


def test_count_linear_factors():
    assert count_linear_factors(fp(2, 0, 1, 1)) == 2
    assert count_linear_factors(fp(2, 1, 1, 1)) == 0
    assert count_linear_factors(fp(3, 0, 2, 0, 1)) == 3  # x^3 - x


def test_count_irreducible_quadratic_factors():
    assert factor_degrees(fp(2, 1, 1, 1)).count(2) == 1
    assert factor_degrees(fp(2, 0, 1, 1)).count(2) == 0
    assert factor_degrees(fp(3, 0, 1, 0, 1)).count(2) == 1  # x(x^2+1)


def test_count_irreducible_factors():
    assert factor_degrees(fp(2, 0, 1, 1)) == (1, 1)  # x(x+1)
    assert factor_degrees(fp(2, 1, 1, 1)) == (2,)
    assert factor_degrees(fp(3, 0, 1, 0, 1)) == (2, 1)
    # x(x+1)(x^2+x+1) over F_2
    assert factor_degrees(fp(2, 0, 1, 1) * fp(2, 1, 1, 1)) == (2, 1, 1)
    assert factor_degrees(fp(3, 0, 1, 0, 1) * fp(3, 1, 2, 0, 1)) == (3, 2, 1)  # x(x^2+1)(x^3+2x+1)


def test_degree_accounting():
    for f in monic_polys(3, 4):
        if not is_squarefree(f):
            continue
        n1 = count_linear_factors(f)
        n2 = factor_degrees(f).count(2)
        assert n1 + 2 * n2 <= 4


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------


def test_resultant_linear_case():
    for a in range(7):
        for b in range(7):
            r = resultant(fp(7, -a, 1), fp(7, -b, 1))
            assert r == (a - b) % 7


def test_resultant_shared_root_criterion():
    f = fp(3, 0, 1, 1)  # x(x+1)
    g = fp(3, 0, 1)  # x
    assert resultant(f, g) == 0
    assert resultant(fp(3, 1, 0, 1), fp(3, 0, 1)) == 1


_f5_polys = st.lists(
    st.integers(min_value=0, max_value=4), min_size=1, max_size=5
).map(lambda cs: FieldPoly(5, cs)).filter(lambda f: not f.is_zero())


@settings(max_examples=60, deadline=None)
@given(_f5_polys, _f5_polys, _f5_polys)
def test_resultant_multiplicative(a, b, c):
    assert resultant(a, b * c) == resultant(a, b) * resultant(a, c) % 5


def test_discriminant_class_examples():
    assert not disc_residue(fp(3, 1, 0, 1))  # disc(x^2+1) = -4 = 2
    assert disc_residue(fp(3, 2, 0, 1))  # disc(x^2-1) = 4 = 1


def test_discriminant_equidistribution_f3_quadratics():
    stats = enumerate_stats(2, 3)
    assert stats.squarefree_count == 6
    assert stats.disc_residue == 3
    assert stats.disc_nonresidue == 3


def _squarefree_polys(p, n):
    """(index, f) for every monic square-free f of degree n, in index order."""
    return [(i, f) for i, f in enumerate(monic_polys(p, n)) if is_squarefree(f)]


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_monic_rows_are_digit_major_with_the_leading_one_first(dtype):
    # the one base-p decoder, in the layout and width the discriminant pass uses
    p, n = 3, 4
    rows = ffpoly._monic_rows(np.arange(p**n), p, n, dtype)
    assert rows.dtype == dtype and rows.shape == (n + 1, p**n)
    assert rows.flags.c_contiguous
    assert rows[::-1].T.tolist() == [list(f.coeffs) for f in monic_polys(p, n)]


@pytest.mark.parametrize("chunk", [None, 8])
def test_batched_discriminant_matches_scalar_per_row(monkeypatch, chunk):
    # p | n at (3, 3), (3, 6) and (5, 5): f' loses its leading terms; n = 1 at (3, 1)
    if chunk is not None:
        # blocks of one to four rows put every block edge under test
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
    for p, n in [(3, 1), (3, 3), (3, 6), (5, 5), (7, 4)]:
        polys = _squarefree_polys(p, n)
        got = _disc_residues(np.array([i for i, _ in polys]), n, p)
        assert got.tolist() == [disc_residue(f) for _, f in polys]


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
    expected = [disc_residue(f) for f in _polys(sample, p, n)]
    assert _disc_residues(sample, n, p).tolist() == expected


#: the pass runs on int16 while 2p^2 < 2^15 and on int32 while 2p^2 < 2^31:
#: the largest prime that keeps each width, the smallest above it, and the
#: largest prime within MAX_BUDGET; at n = 2 over F_191 the products of
#: residues overflow int16, over F_65537 int32
_INT16_TOP, _INT16_ABOVE, _INT16_OVERFLOW = 127, 131, 191
_NARROW_TOP, _WIDE_BOTTOM, _BUDGET_TOP, _OVERFLOW = 32749, 32771, 99999989, 65537


def test_width_edge_primes():
    assert 2 * _INT16_TOP**2 < 2**15 < 2 * _INT16_ABOVE**2
    assert not any(is_prime(q) for q in range(_INT16_TOP + 1, _INT16_ABOVE))
    assert 2 * _NARROW_TOP**2 < 2**31 < 2 * _WIDE_BOTTOM**2
    assert not any(is_prime(q) for q in range(_NARROW_TOP + 1, _WIDE_BOTTOM))
    assert not any(is_prime(q) for q in range(_BUDGET_TOP + 1, ffpoly.MAX_BUDGET + 1))
    primes = (_INT16_TOP, _INT16_ABOVE, _INT16_OVERFLOW, _NARROW_TOP, _WIDE_BOTTOM, _BUDGET_TOP, _OVERFLOW)
    assert all(is_prime(q) for q in primes)
    assert (_INT16_OVERFLOW - 1) ** 2 >= 2**15
    assert (_OVERFLOW - 1) ** 2 >= 2**31


@pytest.mark.parametrize("chunk", [None, 8])
@pytest.mark.parametrize(
    "p,n",
    [
        (_INT16_TOP, 1),
        (_INT16_TOP, 2),
        (_INT16_TOP, 3),
        (_INT16_ABOVE, 2),
        (_INT16_OVERFLOW, 2),
        (_NARROW_TOP, 1),
        (_NARROW_TOP, 2),
        (_WIDE_BOTTOM, 1),
        (_WIDE_BOTTOM, 2),
        (_BUDGET_TOP, 1),
        (_OVERFLOW, 2),
    ],
)
def test_batched_discriminant_at_the_width_edges(monkeypatch, chunk, p, n):
    # a strided sample of the square-free rows, both ends included: every
    # x + c, and the square-free x^2 + b*x + c and x^3 + a*x^2 + b*x + c
    if chunk is not None:
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
    idx = np.append(np.arange(0, p**n, p**n // 500 + 1), p**n - 1)
    polys = _polys(idx, p, n)
    keep = [is_squarefree(f) for f in polys]
    expected = [disc_residue(f) for f, k in zip(polys, keep) if k]
    assert _disc_residues(idx[keep], n, p).tolist() == expected


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 3), (5, 5), (7, 4)])
def test_batched_discriminant_refuses_rows_that_are_not_squarefree(p, n):
    # Res(f', f) = 0 leaves deg b > 0 after the last step, also where f' = 0
    # (x^3 + c over F_3, x^5 + c over F_5): each such row is refused alone,
    # and one among all the square-free rows is counted as one
    flags = [is_squarefree(f) for f in monic_polys(p, n)]
    for i, ok in enumerate(flags):
        if not ok:
            with pytest.raises(ArithmeticError):
                _disc_residues(np.array([i]), n, p)
    rows = np.flatnonzero(flags)
    mixed = np.insert(rows, len(rows) // 2, flags.index(False))
    with pytest.raises(ArithmeticError, match=f"on 1 of {len(mixed)} rows"):
        _disc_residues(mixed, n, p)


#: a few arrays of about _CHUNK entries each, as the marking and the
#: discriminant blocks hold at a time
_CHUNK_ALLOWANCE = 4 * 2**20


def _sieve_irreducibles(p, top):
    """Cache the irreducibles of degrees 1..top, so that a measured pass
    does not sieve them."""
    for d in range(1, top + 1):
        ffpoly._irreducibles(p, d)


def test_discriminant_pass_at_large_p_stays_chunk_sized():
    # a block at a time: a full-size int64 copy of the million indices alone
    # would be 7.8 MiB above the bool output
    p, n = 1009, 2
    square = math.prod(ffpoly._type_code(n, p)[0][:-1])  # the first code not square-free
    sf = np.flatnonzero(_codes(n, p) < square).astype(np.int32)
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
    _sieve_irreducibles(p, n // 2)
    tracemalloc.start()
    try:
        stats = enumerate_stats(n, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.disc_residue + stats.disc_nonresidue == stats.squarefree_count == p**n - p ** (n - 1)
    assert peak - _slab_bytes(n, p) < _CHUNK_ALLOWANCE


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 3)])
def test_discriminant_classes_across_many_windows(monkeypatch, p, n):
    # 64 codes a window: 4 to 10 windows, each cut into blocks of 10 to 16
    # rows with a partial one at its end; a window dropped or counted twice
    # moves the classes off the direct walk's
    monkeypatch.setattr(ffpoly, "_CHUNK", 64)
    assert p**n > 3 * 64
    assert enumerate_stats(n, p) == stats_direct(n, p)


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
    types = [ffpoly._code_type(code, n, radices) for code in _codes(n, p).tolist()]
    idx = [i for i, parts in enumerate(types) if parts is not None]
    got = _disc_residues(np.array(idx), n, p)
    assert got.tolist() == [(n - len(types[i])) % 2 == 0 for i in idx]


# ---------------------------------------------------------------------------
# irreducibles by sieve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quadratic_irreducible_count_matches_formula(p):
    found = _sieved(p, 2)
    assert len(found) == sqfree.count_irreducibles(2).eval(p) == (p * p - p) // 2
    for g in found:
        assert _irreducible(g)


@pytest.mark.parametrize("p,d", [(2, 3), (2, 4), (3, 3), (5, 3)])
def test_sieve_irreducibles_agree_with_trial_division(p, d):
    sieved = set(_sieved(p, d))
    direct = {f for f in monic_polys(p, d) if _irreducible(f)}
    assert sieved == direct
    assert len(sieved) == sqfree.count_irreducibles(d).eval(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sieve_irreducible_counts_beyond_trial_division(p):
    # the zero codes of the marking pass at each degree, up to 5^6 polynomials
    for d in range(1, 7):
        assert len(ffpoly._irreducibles(p, d)) == sqfree.count_irreducibles(d).eval(p)


def test_sieve_keeps_every_linear_polynomial_at_large_p():
    p = 3137
    assert ffpoly._irreducibles(p, 1).tolist() == [[c, 1] for c in range(p)]


def _index(f):
    """Base-p index of a monic polynomial: its non-leading coefficients."""
    return sum(c * f.p**i for i, c in enumerate(f.coeffs[:-1]))


def _moduli(p, e, square):
    """The monic irreducibles of degree e over F_p, or their squares, as
    FieldPolys and as the coefficient rows `_Moduli` takes."""
    polys = [g * g if square else g for g in _sieved(p, e)]
    return polys, np.array([list(M.coeffs) for M in polys], dtype=np.int64)


#: (p, n, e, square): the moduli g or g^2 for g irreducible of degree e,
#: of degree D = e or 2e, up to D = n (whose one multiple is M itself)
_modulus_cases = [
    (2, 9, 1, False), (2, 9, 2, True), (2, 8, 4, False), (2, 8, 4, True),
    (3, 5, 1, False), (3, 5, 2, False), (3, 6, 1, True), (3, 6, 3, True),
    (5, 4, 1, False), (5, 4, 2, False), (5, 4, 1, True),
    (7, 3, 1, False), (7, 3, 1, True), (13, 2, 1, False), (13, 2, 1, True),
]


@pytest.mark.parametrize("chunk", [None, 4, 64])
@pytest.mark.parametrize("slab", [None, 5, 30])
def test_multiples_are_exactly_each_modulus_multiples(monkeypatch, chunk, slab):
    # each modulus alone: the slabs hold the classes of the even values of
    # the top s digits, then of the odd ones, k at a time, so a slab of two
    # or more classes has gaps; each slab's marks lie in its classes, packed
    # back to back, and put back at their indices they are strictly
    # increasing within the slab, and over all slabs exactly the indices of
    # M*h over the p^(n-D) monic h; all moduli of a degree together, as the
    # sieve marks them, make the same multiset in arrays of at most _CHUNK.
    # Moduli of degree D > n - s are made once, with every multiple at its
    # own index
    if chunk is not None:
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
    if slab is not None:
        monkeypatch.setattr(ffpoly, "_SLAB", slab)
    seen = set()
    for p, n, e, square in _modulus_cases:
        polys, rows = _moduli(p, e, square)
        D = rows.shape[1] - 1
        s, k = ffpoly._slab_shape(n, p)
        if D > n - s:
            slabs, r = [np.zeros(1, dtype=np.int64)], n - D
        else:
            order = np.r_[0 : p**s : 2, 1 : p**s : 2]
            slabs, r = [np.sort(order[i : i + k]) for i in range(0, p**s, k)], n - D - s
        unit = p ** (r + D)  # the indices of one class
        if any((np.diff(tops) > 1).any() for tops in slabs):
            seen.add("gaps")

        def marks(M):
            moduli = ffpoly._Moduli(M, p, n, r)
            seen.add("shared" if D > n - s else "table" if moduli.table is not None else "direct")
            out = []
            for tops in slabs:
                arrays = list(moduli.multiples(tops))
                assert all(len(a) <= ffpoly._CHUNK for a in arrays)
                got = np.concatenate(arrays)
                assert ((0 <= got) & (got < len(tops) * unit)).all(), (p, n, D)
                out.append(tops[got // unit] * unit + got % unit)
            return out

        expected = [sorted(_index(M * h) for h in monic_polys(p, n - D)) for M in polys]
        for M, row in zip(expected, rows):
            got = marks(row[None, :])
            assert all((np.diff(part) > 0).all() for part in got), (p, n, D)
            assert sorted(np.concatenate(got).tolist()) == M, (p, n, D)
        assert sorted(np.concatenate(marks(rows)).tolist()) == sorted(i for M in expected for i in M)
    # both ways of marking under test at the default sizes, the shared
    # moduli under small slabs, and slabs with gaps at 30
    if chunk is None:
        assert {"table", "direct"} <= seen
    if slab is not None:
        assert "shared" in seen
    assert ("gaps" in seen) == (slab == 30)


def _check_moduli_setup(p, n, r, rows):
    """`_Moduli` of the monic moduli with these non-leading coefficient
    rows: residues[j] is x^(D+j) mod M by division, steps[j][:, a] is
    -a*residues[t+j] mod p; returns (t, e)."""
    M = np.array([row + [1] for row in rows], dtype=np.int64)
    D = M.shape[1] - 1
    moduli = ffpoly._Moduli(M, p, n, r)
    assert moduli.residues.shape == (n - D + 1, D, len(rows))
    assert moduli.residues.dtype == (np.uint32 if 2 * p - 2 >= 2**16 else np.uint16)
    for m, row in enumerate(M.tolist()):
        for j in range(n - D + 1):
            rem = list((FieldPoly(p, [0] * (D + j) + [1]) % FieldPoly(p, row)).coeffs)
            assert moduli.residues[j, :, m].tolist() == rem + [0] * (D - len(rem)), (p, row, j)
    t, e = moduli.t, len(moduli.steps)
    residues = moduli.residues.astype(np.int64)
    for j in range(e):
        for a in range(p):
            assert moduli.steps[j, :, a].tolist() == (-a * residues[t + j] % p).tolist(), (p, j, a)
    return t, e


@pytest.mark.parametrize(
    "p,n,D,r,moduli,t,e",
    [(2, 12, 2, 10, 1, 4, 6), (3, 8, 2, 5, 3, 1, 4), (5, 7, 1, 5, 5, 3, 2), (7, 6, 3, 3, 2, 0, 3), (40009, 2, 1, 1, 3, 0, 0)],
)
def test_moduli_setup_with_tables_and_steps(p, n, D, r, moduli, t, e):
    # cases with a table (t > 0), with two or more expanded digits, and
    # at a p whose residues need uint32
    rows = [[(m * 7 + i * 3 + 1) % p for i in range(D)] for m in range(moduli)]
    assert _check_moduli_setup(p, n, r, rows) == (t, e)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_moduli_setup_equals_division(data):
    # drawn moduli, not only irreducibles or their squares: the residues
    # of x^(D+j) and the step planes follow from M alone
    p = data.draw(st.sampled_from([2, 3, 5, 7, 40009]), label="p")
    D = data.draw(st.integers(1, 2 if p > 7 else 4), label="D")
    n = data.draw(st.integers(D, 2 if p > 7 else 10), label="n")
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=D, max_size=D), min_size=1, max_size=6))
    _check_moduli_setup(p, n, data.draw(st.integers(0, n - D), label="r"), rows)


@functools.lru_cache(maxsize=None)
def _trial_types(p, n):
    """The factorization type of each monic degree-n polynomial by trial
    division, None where it is not square-free, in index order."""
    return [factor_degrees(f) if is_squarefree(f) else None for f in monic_polys(p, n)]


_code_points = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 10) if p**n <= 729]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_code_points), st.data())
def test_factor_codes_match_trial_division_over_random_slabs(point, data):
    # every polynomial's decoded type, under a random slab size and batch
    # size, against trial division of that polynomial alone; the
    # irreducibles are sieved under the same sizes
    p, n = point
    slab = data.draw(st.integers(min_value=1, max_value=p**n), label="_SLAB")
    chunk = data.draw(st.sampled_from([4, 64, ffpoly._CHUNK]), label="_CHUNK")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ffpoly, "_SLAB", slab)
        patch.setattr(ffpoly, "_CHUNK", chunk)
        ffpoly._irreducibles.cache_clear()
        try:
            radices = ffpoly._type_code(n, p)[0]
            codes = _codes(n, p).tolist()
        finally:
            ffpoly._irreducibles.cache_clear()
    assert [ffpoly._code_type(code, n, radices) for code in codes] == _trial_types(p, n)


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
        (5, 2), (5, 3), (5, 4), (5, 5), (3, 6), (7, 2), (7, 3), (11, 2),
    ],
)
def test_sieve_and_direct_methods_agree(p, n):
    # (3, 3), (3, 6) and (5, 5) have p | n at odd p, where the orbits of
    # the scaling have p - 1 > 1 members
    assert enumerate_stats(n, p) == stats_direct(n, p)


_small_grid = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 10) if p**n <= 729]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_small_grid))
def test_sieve_equals_direct_property(point):
    p, n = point
    assert enumerate_stats(n, p) == stats_direct(n, p)


@functools.lru_cache(maxsize=None)
def _direct(n, p):
    return stats_direct(n, p)


def test_slabs_tile_the_index_range(monkeypatch):
    # without tops, consecutive slabs from index 0 to p^n, each k values of
    # the top s digits wide but the last, and all views of one buffer; with
    # tops, _SLAB // p^(n-c) classes of c digits a slab, packed back to back
    # in the order given, consecutive or not
    monkeypatch.setattr(ffpoly, "_SLAB", 30)
    p, n = 7, 3
    assert ffpoly._slab_shape(n, p) == (2, 4)  # 7^2 > 30 >= 7, and 4 * 7 <= 30
    slabs = [(starts.tolist(), codes.size, codes.base) for starts, codes in ffpoly._factor_codes(n, p)]
    runs = [range(top, min(top + 4, p * p)) for top in range(0, p * p, 4)]
    assert [starts for starts, _, _ in slabs] == [[top * p for top in run] for run in runs]
    assert [size for _, size, _ in slabs] == [4 * p] * 12 + [p]
    assert len({id(buffer) for _, _, buffer in slabs}) == 1
    assert ffpoly._orbit_classes(n, p, 2) == ((0, 7), (1, 21), (3, 21))

    def read(*args):
        return [(starts.tolist(), codes.size) for starts, codes in ffpoly._factor_codes(n, p, *args)]

    assert read(2, [0, 1, 3]) == [([0, 7, 21], 21)]
    # more than k classes are split in order, a gap or not
    assert read(2, [0, 1, 2, 3, 4, 9]) == [([0, 7, 14, 21], 28), ([28, 63], 14)]
    # classes deeper than the slab depth: 30 classes of one index a slab
    assert [(len(starts), size) for starts, size in read(3)] == [(30, 30)] * 11 + [(13, 13)]
    # one slab, addressed by the top digit, so one class of it is a slab too
    monkeypatch.setattr(ffpoly, "_SLAB", p**n)
    assert ffpoly._slab_shape(n, p) == (1, p)
    assert read(1, [0]) == [([0], p * p)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sieve_equals_direct_across_slab_edges(monkeypatch, p):
    # slab sizes around each power of p: from two slabs up to one per index
    # (p^n of them), slabs that hold several values of the top digits and a
    # shorter last one, and quotients shorter than the s digits a slab fixes,
    # whose multiples are made once and shared out; types and discriminant classes
    # are compared whole, and the irreducibles are sieved in slabs too
    seen = set()
    for n in range(1, 7):
        if p**n > 729:
            break
        sizes = {c * p**t + dd for t in range(n) for c in (1, 2, (p + 1) // 2) for dd in (-1, 0, 1)}
        for size in sorted(z for z in sizes if 1 <= z < p**n):
            monkeypatch.setattr(ffpoly, "_SLAB", size)
            ffpoly._irreducibles.cache_clear()
            s, k = ffpoly._slab_shape(n, p)
            slabs = -(-(p**s) // k)
            seen.add("two" if slabs == 2 else "all" if slabs == p**s else "some")
            if any(m < s for d in range(1, n // 2 + 1) for m in (n - d, n - 2 * d)):
                seen.add("short")
            assert enumerate_stats(n, p) == _direct(n, p), (n, size)
    ffpoly._irreducibles.cache_clear()
    assert {"two", "all", "short"} <= seen


def test_slabbed_discriminants_at_large_p(monkeypatch):
    # x^2, x^2 + 1 and x^2 + 11, 11 the least non-residue, stand for all
    # p^2 when a class fixes both digits: two slabs of at most two classes,
    # then all three packed in one slab, x^2 + 11 right after x^2 + 1;
    # every class against the closed-form discriminant b^2 - 4c of
    # x^2 + b*x + c over all p^2, and the whole statistics against the one
    # class of the default depth
    p, n = 719, 2
    assert ffpoly._read_classes(n, p) == (1, ((0, p),))
    whole = enumerate_stats(n, p)
    b, c = np.divmod(np.arange(p**n, dtype=np.int64), p)
    disc = (b * b - 4 * c) % p
    squares = np.zeros(p, dtype=bool)
    squares[np.arange(1, p) ** 2 % p] = True
    for slab, slabs in [(2, [([0, 1], 2), ([11], 1)]), (100, [([0, 1, 11], 3)])]:
        monkeypatch.setattr(ffpoly, "_SLAB", slab)
        assert ffpoly._slab_shape(n, p)[0] == 2
        assert ffpoly._read_classes(n, p) == (2, ((0, p), (1, p * (p - 1) // 2), (11, p * (p - 1) // 2)))
        slabbed, read = _slabs_read(n, p, discriminants=True)
        assert read == slabs
        assert slabbed == whole
        assert slabbed.disc_residue == np.count_nonzero(squares[disc])
        assert slabbed.disc_nonresidue == np.count_nonzero(disc) - slabbed.disc_residue
        assert slabbed.type_counts == (((1, 1), p * (p - 1) // 2), ((2,), p * (p - 1) // 2))


def _slabs_read(n, p, discriminants=False):
    """enumerate_stats(n, p), and the (class starts, size) of every slab
    of degree n that it reads."""
    slabs = []
    factor_codes = ffpoly._factor_codes

    def recorded(*args):
        for starts, codes in factor_codes(*args):
            if args[:2] == (n, p):
                slabs.append((starts.tolist(), codes.size))
            yield starts, codes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ffpoly, "_factor_codes", recorded)
        stats = enumerate_stats(n, p, discriminants=discriminants)
    return stats, slabs


def test_stats_sieve_one_polynomial_per_orbit():
    # at (10, 5), p | n, nine classes of the top three digits c9 c8 c7
    # (000, 001, 010, 020, and 1xx), three 5^7 to a slab; at (9, 5) eight
    # classes of 5^6, all in one slab
    tops = [0, 1, 5, 10, 25, 26, 27, 28, 29]
    assert _slabs_read(10, 5)[1] == [([top * 5**7 for top in tops[i : i + 3]], 3 * 5**7) for i in (0, 3, 6)]
    assert _slabs_read(9, 5)[1] == [([top * 5**6 for top in (0, 1, 5, 6, 7, 10, 11, 12)], 8 * 5**6)]


@pytest.mark.parametrize(
    "p,n,depth",
    [
        (5, 7, 1), (5, 8, 2), (5, 9, 3), (5, 10, 3),  # p >= 5: as deep as the floor allows
        (7, 6, 1), (3, 10, 1),  # the classes of depth 2 would hold fewer than _CHUNK/8
        (2, 15, 1), (2, 17, 1), (2, 16, 2),  # p = 2: deeper reads fewer only where p | n
        (3, 11, 1), (3, 12, 3), (3, 13, 3),  # p = 3: depth 2 reads fewer only where p | n
        (2, 26, 8), (5, 11, 4), (97, 4, 2), (3137, 2, 1),  # never above the slab depth
    ],
)
def test_read_classes_take_the_depth_that_reads_fewest(p, n, depth):
    c, classes = ffpoly._read_classes(n, p)
    assert c == depth >= ffpoly._slab_shape(n, p)[0]
    assert classes == ffpoly._orbit_classes(n, p, c)


def test_reads_per_default_grid_point():
    # a point reads its classes times the class size: at depth 1 one or two
    # classes of p^(n-1) (p | n), deeper at 5^8, 5^9 and 5^10; 2,089,445 in
    # all when every class fixed as many digits as a slab
    deeper = {(8, 5): 3 * 5**6, (9, 5): 8 * 5**6, (10, 5): 9 * 5**7}
    total = 0
    for _, (n, p) in suites._oracle(RunConfig()):
        reads = sum(size for _, size in _slabs_read(n, p)[1])
        assert reads == deeper.get((n, p), (1 if n % p else 2) * p ** (n - 1)), (p, n)
        total += reads
    assert total == 933_195


_orbit_points = [(3, 4), (3, 5), (5, 3), (7, 3), (13, 2), (2, 5),  # p does not divide n
                 (3, 3), (3, 6), (5, 5), (7, 7),  # p | n, p odd
                 (2, 2), (2, 6), (2, 8)]  # p = 2, n even: no reduction


@functools.lru_cache(maxsize=None)
def _full_range_stats(n, p):
    """SquareFreeStats from a histogram of the codes of all p^n
    polynomials, with discriminant classes at odd p."""
    codes = _codes(n, p)
    radices = ffpoly._type_code(n, p)[0]
    types = {}
    for code, count in zip(*np.unique(codes, return_counts=True)):
        parts = ffpoly._code_type(int(code), n, radices)
        if parts is not None:
            types[parts] = types.get(parts, 0) + int(count)
    disc = (None, None)
    if p % 2:
        square = math.prod(radices[:-1])
        residue = int(np.count_nonzero(_disc_residues(np.flatnonzero(codes < square), n, p)))
        disc = (residue, sum(types.values()) - residue)
    return ffpoly.SquareFreeStats(n, p, p**n, tuple(sorted(types.items())), *disc)


def _at_depth(c):
    """A `_read_classes` that reads the classes of depth c."""
    return lambda n, p: (c, ffpoly._orbit_classes(n, p, c))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_orbit_points), st.data())
def test_orbit_representatives_equal_the_full_range(point, data):
    # the weighted classes against every polynomial's code: the class depth
    # c from 1 to n, where there are at most 64 classes, and apart from it
    # a slab size of at least one class, so that a slab holds one class or
    # several, consecutive or not, and the slab depth is anything up to c
    p, n = point
    expected = _full_range_stats(n, p)
    depths = [c for c in range(1, n + 1) if len(ffpoly._orbit_classes(n, p, c)) <= 64]
    c = data.draw(st.sampled_from(depths), label="c")
    slab = data.draw(st.integers(min_value=p ** (n - c), max_value=p**n), label="_SLAB")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ffpoly, "_SLAB", slab)
        patch.setattr(ffpoly, "_read_classes", _at_depth(c))
        assert ffpoly._slab_shape(n, p)[0] <= c
        assert enumerate_stats(n, p) == expected


@pytest.mark.parametrize("p,n,c", [(5, 5, 2), (3, 6, 3)])
def test_one_slab_packs_classes_that_are_not_consecutive(monkeypatch, p, n, c):
    # two classes a slab, p | n: at 5^5 the tops 0, 1 | 2, 5 of c4 c3, at
    # 3^6 seven classes of c5 c4 c3; types and discriminant classes against
    # every polynomial's code
    monkeypatch.setattr(ffpoly, "_SLAB", 2 * p ** (n - c))
    monkeypatch.setattr(ffpoly, "_read_classes", _at_depth(c))
    stats, slabs = _slabs_read(n, p, discriminants=True)
    gaps = [starts for starts, _ in slabs if len(starts) == 2 and starts[1] - starts[0] > p ** (n - c)]
    assert gaps and all(size <= 2 * p ** (n - c) for _, size in slabs)
    assert stats == _full_range_stats(n, p)


def _affine_image(f, a, b):
    """a^(-n) f(ax + b), made monic, by Horner's rule."""
    g = FieldPoly(f.p, [])
    for c in reversed(f.coeffs):
        g = g * FieldPoly(f.p, [b, a])
        g = FieldPoly(f.p, [g.coeffs[0] + c if g.coeffs else c, *g.coeffs[1:]])
    return g.monic()


@pytest.mark.parametrize(
    "p,n",
    [(3, 4), (5, 3), (7, 4), (2, 5),  # p does not divide n
     (3, 3), (5, 5), (7, 7),  # p | n, p odd
     (2, 4), (2, 6)],  # p = 2, n = 0 and 2 mod 4
)
def test_orbit_classes_are_the_affine_orbits(p, n):
    # every top-s tuple, as x^n plus its top s terms, under all p(p-1)
    # maps f -> a^(-n) f(ax + b): each class is the least top value of an
    # orbit, weighted by the orbit's size, and at s = 1 the table is one
    # class of weight p where p does not divide n, else {0: 1, 1: p - 1}
    for s in range(1, min(3, n) + 1):
        orbits = set()
        for top in range(p**s):
            f = FieldPoly(p, [0] * (n - s) + [top // p**i % p for i in range(s)] + [1])
            images = {_index(_affine_image(f, a, b)) // p ** (n - s) for a in range(1, p) for b in range(p)}
            orbits.add(frozenset(images))
        expected = tuple(sorted((min(orbit), len(orbit)) for orbit in orbits))
        classes = ffpoly._orbit_classes(n, p, s)
        assert classes == expected, (p, n, s)
        assert sum(weight for _, weight in classes) == p**s
        if s == 1:
            assert classes == (((0, p),) if n % p else ((0, 1), (1, p - 1)))


@pytest.mark.parametrize("p,n", [(1009, 2), (101, 3)])
def test_large_p_closed_forms(p, n):
    s = enumerate_stats(n, p, discriminants=False)
    assert s.total_monic == p**n
    assert s.squarefree_count == p**n - p ** (n - 1)
    assert s.mu_sum == 0


def test_stats_sieve_stops_below_degree_n(monkeypatch):
    # factors of degree above n/2 are read off the marked degree sum, not
    # sieved: only degrees 1..n//2 are
    sieved = []
    factor_codes = ffpoly._factor_codes
    monkeypatch.setattr(ffpoly, "_factor_codes", lambda n, p, *classes: sieved.append((n, p)) or factor_codes(n, p, *classes))
    ffpoly._irreducibles.cache_clear()
    enumerate_stats(4, 3)
    assert sorted(sieved) == [(1, 3), (2, 3), (4, 3)]
    enumerate_stats(5, 3)
    assert sorted(sieved) == [(1, 3), (2, 3), (4, 3), (5, 3)]
    assert ffpoly._irreducibles.cache_info().currsize == 2


@pytest.mark.parametrize("chunk", [None, 4])
def test_factor_codes_match_trial_division_per_polynomial(monkeypatch, chunk):
    # the sieve = direct tests compare totals, in which errors can cancel;
    # here each polynomial's code is decoded and its whole type, every m_d,
    # checked on its own; at (2, 8) the radices of degrees 1 to 4 are capped
    # by the number of irreducibles, not by n//d
    if chunk is not None:
        monkeypatch.setattr(ffpoly, "_CHUNK", chunk)
        ffpoly._irreducibles.cache_clear()
    for p, n in [(2, 8), (3, 5), (5, 4), (7, 3)]:
        radices = ffpoly._type_code(n, p)[0]
        codes = _codes(n, p).tolist()
        for code, f in zip(codes, monic_polys(p, n), strict=True):
            parts = ffpoly._code_type(code, n, radices)
            if not is_squarefree(f):
                assert parts is None, f
            else:
                assert parts == factor_degrees(f), f
                assert parts.count(1) == count_linear_factors(f), f


def test_square_walk_at_large_p_stays_chunk_sized():
    # at n = 2 the marks of the p linear g and of their squares are made in
    # arrays of at most _CHUNK; an array of p^2 int64 entries would be
    # about 8 MiB over the code array at p = 1009
    p = 1009
    _sieve_irreducibles(p, 1)
    tracemalloc.start()
    try:
        for _ in ffpoly._factor_codes(2, p):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few arrays of at most _CHUNK entries at a time
    assert peak - _slab_bytes(2, p) < 8 * 2**20


def test_marking_at_large_p_batches_by_marks_not_by_p(monkeypatch):
    # the marks are batched by how many they are, never by p: np.add.at is
    # called once per _CHUNK marks, but for one short array per slab and
    # mark group
    p, n = 3137, 2
    _sieve_irreducibles(p, 1)
    sizes = []

    def add_at(codes, idx, weight):
        sizes.append(len(idx))
        np.add.at(codes, idx, weight)

    counting = types.ModuleType("numpy")
    counting.__getattr__ = lambda name: getattr(np, name)
    counting.add = types.SimpleNamespace(at=add_at)
    monkeypatch.setattr(ffpoly, "np", counting)
    for _ in ffpoly._factor_codes(n, p):
        pass
    s, k = ffpoly._slab_shape(n, p)
    slabs, groups = -(-(p**s) // k), 2 * (n // 2)  # the irreducibles and their squares
    assert sum(sizes) == p * p + p  # g*h for p linear g and p linear h, and the p squares
    assert len(sizes) <= -(-sum(sizes) // ffpoly._CHUNK) + slabs * groups


def test_marking_at_p_2_stays_chunk_sized():
    # the moduli's residues, steps and tables, and the arrays of one batch
    # of marks at a time: at p = 2 the quotients have up to 20 digits, and
    # no array per digit may stay alive
    p, n = 2, 22
    _sieve_irreducibles(p, n // 2)
    tracemalloc.start()
    try:
        for _ in ffpoly._factor_codes(n, p):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - _slab_bytes(n, p) <= 6 * 2**20


def test_stats_histogram_makes_no_copy_of_the_packed_codes():
    # the histogram sorts the packed uint32 codes in place; a flattened copy
    # (as np.unique makes) would put the peak at 2.5 times the packed array
    n, p = 9, 5
    _sieve_irreducibles(p, n // 2)
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
    _sieve_irreducibles(p, n // 2)
    tracemalloc.start()
    try:
        enumerate_stats(n, p, discriminants=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * p**n + _CHUNK_ALLOWANCE


def test_stats_peak_is_one_slab_at_5_to_the_10():
    # 4 slabs of 5^8 codes: the peak does not grow with p^n; one uint16
    # code array of all 5^10 polynomials alone would be 18.6 MiB
    n, p = 10, 5
    _sieve_irreducibles(p, n // 2)
    tracemalloc.start()
    try:
        enumerate_stats(n, p, discriminants=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _slab_bytes(n, p) <= 2 * ffpoly._SLAB
    assert peak < _slab_bytes(n, p) + _CHUNK_ALLOWANCE


@pytest.mark.parametrize("discriminants,mib", [(False, 1.7), (True, 1.9)])
def test_peak_at_5_to_the_10_is_the_documented_one(discriminants, mib):
    # the peaks that MAX_BUDGET's comment and the README give; with the
    # irreducibles cached, the call holds next to nothing when it returns
    _sieve_irreducibles(5, 5)
    tracemalloc.start()
    try:
        enumerate_stats(10, 5, discriminants=discriminants)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20
    assert held <= 64 * 2**10


@pytest.mark.parametrize("p,n,dtype", [(2, 15, np.uint16), (5, 10, np.uint16), (2, 16, np.uint32)])
def test_type_code_width_by_enumeration(p, n, dtype):
    assert next(ffpoly._factor_codes(n, p))[1].dtype == dtype


def test_type_code_width_rule():
    # from the irreducibles of degree <= n/2 alone: no degree-n code is made
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


def test_irreducible_rows_of_many_primes_do_not_pile_up():
    # the cache is bounded: 50 primes at degrees 1 and 2 ask for 100 pairs
    ffpoly._irreducibles.cache_clear()
    primes = [p for p in range(2, 300) if is_prime(p)][:50]
    assert len(primes) == 50
    for p in primes:
        ffpoly._type_code(4, p)
        assert ffpoly._irreducibles.cache_info().currsize <= ffpoly._irreducibles.cache_info().maxsize
    assert ffpoly._irreducibles.cache_info().maxsize == 64
    assert ffpoly._irreducibles.cache_info().currsize == 64
    ffpoly._irreducibles.cache_clear()


def test_factor_counts_rejects_an_unmarked_small_factor():
    # square-free, but its marked degrees sum to 2 of 4: the other factors
    # would have degree <= n/2 and should have been marked
    radices = ffpoly._type_code(4, 3)[0]
    with pytest.raises(RuntimeError):
        ffpoly._code_type(radices[0], 4, radices)  # m_1 = 0, m_2 = 1


def test_enumerate_rejects_budget_above_the_maximum(monkeypatch):
    # refused before anything is allocated: the sieve does not run
    def refuse(*args):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(ffpoly, "_stats_sieve", refuse)
    assert 2**27 > ffpoly.MAX_BUDGET
    with pytest.raises(EnumerationBudgetError) as exc:
        enumerate_stats(27, 2)
    assert str(ffpoly.MAX_BUDGET) in str(exc.value)
    with pytest.raises(ValueError, match="not prime"):
        enumerate_stats(2, 4)


def test_enumerate_refuses_a_huge_degree_without_forming_p_to_the_n():
    # 3^(10^6) alone is 193 KiB and has too many digits to print; 3^(10^8)
    # takes minutes to form
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError) as exc:
            enumerate_stats(10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(ffpoly.MAX_BUDGET) in str(exc.value)
    assert peak < 2**16


def test_enumerate_rejects_degree_zero(monkeypatch):
    # and a degree or field size that is not an int, before anything is allocated
    def refuse(*args):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(ffpoly, "_stats_sieve", refuse)
    for n, p in [(0, 3), (2.0, 3), (True, 3), (2, 3.0), (2, True)]:
        with pytest.raises(ValueError):
            enumerate_stats(n, p)


def test_direct_method_decides_squarefreeness_once_per_polynomial(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return is_squarefree(f)

    monkeypatch.setattr(fp_reference, "is_squarefree", counted)
    stats_direct(4, 3)
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
