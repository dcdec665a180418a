"""Brute-force ground truth over prime fields F_p.

Enumerates all p^n monic degree-n polynomials and counts the
square-free ones by factorization type: the degrees of their distinct
irreducible factors, a partition of n.  The square-free count, the
binomial moments of the factor counts and the sign (-1)^(number of
factors) are sums over the types; discriminant residue classes are
counted beside them.  Everything is integer arithmetic, so the results
are exact and byte-reproducible.

The oracle is a sieve.  The per-polynomial type codes are accumulated
by marking every product (irreducible g) * (monic h) of degree n with
deg(g) <= n/2, and every g^2*h with a square mark.  A type code is
mixed-radix: digit d is m_d, the number of distinct degree-d
irreducible factors, with radix min(n//d, N(d, p)) + 1, and the number
of repeated factors sits on top; the codes are uint16 where they fit,
else uint32.  The code array is never held whole: it is marked, read
and overwritten one slab at a time, in one buffer of at most _SLAB
codes.  A slab is the indices whose top s digits take one of a run of
values, s the fewest digits with p^(n-s) <= _SLAB (s = 0: one slab).
The products are monic, so for each g the top s digits of g*h fix the
top s coefficients of h; the walk starts from the index of g times
those top terms and adds only the other coefficients of h, so no
product outside the slab is made.  The few products whose cofactor has
fewer than s digits (g^2 with deg g near n/2) are made once and shared
out by slab.  The products are built in the index domain, vectorized
with numpy: each coefficient a of h adds a*g to a window of deg(g)+1
base-p digits, digit by digit mod p, so no coefficient rows are formed.
A repeated factor has degree at most n/2, so the square-free
polynomials are exactly those without a square mark, and the
irreducibles those with code 0: the same pass at each degree d <= n/2
yields the g.  Each is hit once per irreducible factor of degree <=
n/2; when those degrees sum to S < n, the rest is one irreducible
factor of degree n - S > n/2, which is added when the code is decoded.
The types are read off a histogram of each slab's codes, sorted in
place, with each distinct code decoded once at the end.  Discriminant
classes come from one batched Euclidean resultant Res(f', f) over each
slab's square-free polynomials, passed on one window of codes at a
time, in digit-major numpy blocks of int16 up to p = 127, int32 up to
p = 32749 and int64 above, each step on the rows still live, with
Euler's criterion once per polynomial at the end.

The tests hold the sieve to a scalar reference, ``tests/fp_reference.py``,
which walks one polynomial at a time with the definitional operations
(derivative gcd for square-freeness, trial division for the type, a
Euclidean resultant for the discriminant), simple and slow.

A polynomial is encoded as the base-p integer of its non-leading
coefficients with the constant term fastest, which fixes the
enumeration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Mapping

import numpy as np

#: the most polynomials one enumeration may visit, checked before
#: anything is allocated.  It bounds time, not memory: the sieve holds one
#: slab of at most _SLAB type codes (2 MiB in uint16, 4 MiB in uint32,
#: needed only at p = 2 with n >= 16 and p = 3 with n >= 14) and arrays of
#: about _CHUNK entries beside it, so above the interpreter with numpy it
#: peaks near 3 MiB at 5^10, 5 MiB at 9973^2 with or without discriminant
#: classes, and 8 MiB at 2^26, the largest uint32 point, whose walk nests
#: deepest.  It also keeps every product-walk index below 2^31
MAX_BUDGET = 100_000_000

_CHUNK = 1 << 16

#: the most type codes the sieve holds at once: it marks, counts and
#: reads the code array one slab of at most this many indices at a time
_SLAB = 1 << 20


class EnumerationBudgetError(ValueError):
    """Raised when an enumeration would visit more than MAX_BUDGET polynomials."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> None:
    """Raise ValueError unless p is an int, 2 <= p < 2^31 and prime, by
    trial division."""
    # a float or bool p passes the range and trial division checks
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError(f"prime must be an int, not {p!r}")
    if not 2 <= p < 2**31:
        raise ValueError(f"field size {p} out of range")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def check_moment_orders(k: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """The orders k = {d: k_d} of a binomial moment as sorted (d, k_d) pairs
    with k_d > 0; ValueError unless every d is an int >= 1 and every k_d an
    int >= 0 (a bool or float is refused, as by `check_prime`)."""
    for d, kd in k.items():
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (d, kd)) or d < 1 or kd < 0:
            raise ValueError(f"moment orders need int degrees >= 1 and int orders >= 0: {dict(k)}")
    return tuple(sorted((d, kd) for d, kd in k.items() if kd))


# ---------------------------------------------------------------------------
# discriminant classes
# ---------------------------------------------------------------------------


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p), also for negative x, in the dtype of x, by floor
    division: on the 6 x 9362 rows the pass reduces at (n, p) = (6, 7),
    about 20x faster than % in int16, 15x in int32, 7x in int64.  Built in
    place on the quotient, it allocates one array, as %."""
    r = x // p
    r *= -p
    r += x
    return r


def _disc_residues(idx: np.ndarray, n: int, p: int) -> np.ndarray:
    """Whether disc(f) is a nonzero square in F_p for each index of a
    monic square-free f of degree n, p odd.

    Runs the Euclidean resultant Res(f', f) = Res(f, f') on all rows of a
    block of at most _CHUNK coefficients at once; b = f stays monic even
    when p | n.  Blocks are digit-major and top-aligned, as `_monic_rows`
    decodes them (row 0 holds the coefficients of x^deg), so every
    operation runs on vectors as long as the block.  In each step, with
    s = deg a + deg b the same in every row:
      - where lc(a) != 0 and deg a < deg b, swap a and b, at a sign
        (-1)^(deg a * deg b);
      - set a to lc(b)*a - lc(a)*x^(deg a - deg b)*b, at a factor
        lc(b)^-deg b, and drop its leading term, now zero, at a factor
        (-1)^deg b * lc(b).
    Only the quadratic character matters and chi(x/y) = chi(xy), so the
    accumulator takes lc(b) where deg b is even; the signs (-1)^deg b
    telescope to (-1)^(n(n-1)) = 1, and the other signs are kept as a
    parity.  Row i of a holds the coefficient of x^(deg a - i), with
    deg a = s - deg b, so its rows past deg a are zero, as are those of b
    past deg b: a step touches only the top max(s - min deg b, max deg b) + 1
    rows of the block.  After 2n-1 steps a square-free row has
    deg a = deg b = 0 (a constant b keeps taking its factors of
    Res(a, b) = b^deg a), and Euler's criterion runs once per row; a row
    left with deg b > 0 has Res(f', f) = 0 and is refused.
    Intermediates stay below 2p^2, so the blocks are int16 while
    2p^2 < 2^15 (p <= 127), int32 while 2p^2 < 2^31 (p <= 32749), else int64.
    """
    out = np.empty(len(idx), dtype=bool)
    block = max(1, _CHUNK // (n + 1))  # rows of n+1 coefficients
    dtype = np.int16 if 2 * p * p < 2**15 else np.int32 if 2 * p * p < 2**31 else np.int64
    for lo in range(0, len(idx), block):
        b = _monic_rows(idx[lo : lo + block], p, n, dtype)
        a = np.zeros_like(b)
        a[:n] = _mod(b[:n] * (np.arange(n, 0, -1) % p).astype(dtype)[:, None], p)  # f' at formal degree n-1
        acc = np.ones(b.shape[1], dtype=dtype)
        db = np.full_like(acc, n)
        sign = np.full_like(acc, n * (n - 1) // 2 % 2)  # disc f = (-1)^(n(n-1)/2) Res(f, f'), as bit 0
        for s in range(2 * n - 1, 0, -1):
            live = min(n + 1, max(s - int(db.min()), int(db.max())) + 1)
            la, lb = a[:live], b[:live]
            swap = (a[0] != 0) & (db > s // 2)
            if s % 2 == 0:  # (s - db) * db is odd only where s is even and db odd
                sign ^= swap & db
            d = (lb - la) * swap  # swap in place
            la += d
            lb -= d
            db += swap * (s - 2 * db)
            acc = np.where(db & 1, acc, _mod(acc * b[0], p))
            la[:-1] = _mod(b[0] * la[1:] - a[0] * lb[1:], p)
            la[-1] = 0
        if db.any():
            raise ArithmeticError(f"Res(f', f) = 0 on {np.count_nonzero(db)} of {db.size} rows: not square-free")
        acc = np.where(sign & 1, p - acc, acc)
        chi = np.ones_like(acc)
        e = (p - 1) // 2
        while e:
            if e & 1:
                chi = _mod(chi * acc, p)
            acc = _mod(acc * acc, p)
            e >>= 1
        out[lo : lo + block] = chi == 1
    return out


# ---------------------------------------------------------------------------
# irreducible polynomials by sieve
# ---------------------------------------------------------------------------

def _monic_rows(idx: np.ndarray, p: int, degree: int, dtype: type[np.signedinteger]) -> np.ndarray:
    """The coefficients of monic polynomials by index, digit-major with the
    leading 1 first: row r holds the coefficients of x^(degree - r), one
    column per index, in the given dtype.

    Digit i of an index in base p is coefficient i."""
    rows = np.empty((degree + 1, len(idx)), dtype=dtype)
    rows[0] = 1
    work = idx.astype(np.int64)
    for i in range(degree):
        q = work // p
        rows[degree - i] = work - q * p
        work = q
    return rows


def _product_indices(
    G: np.ndarray, p: int, m: int, s: int = 0, top: int = 0, count: int = 1
) -> Iterator[np.ndarray]:
    """Indices of g*h over all rows g of G and all monic h of degree m >= s
    whose product's top s digits, read as one base-p number, lie in
    top..top+count-1: one slab of the code array, less its first index.
    With s = 0 that is every product, at its own index.

    G holds coefficient rows (leading 1 included) of fixed degree e; the
    products are monic of degree n=e+m and are encoded by their n
    non-leading coefficients.  No rows of h or g*h are formed: the walk
    starts from `_slab_starts`, the index of g times x^m and the top s
    terms of h that the slab fixes, and adds the other terms a_j*x^j*g of
    h one j at a time, each of which changes only digits j..j+e, to
    (old + a_j*g_i) mod p.  No yielded array is longer than _CHUNK, or
    than count where a single g has more products.  Indices are int32:
    every caller has p^n <= MAX_BUDGET, and no intermediate exceeds
    2*p^n < 2^31.
    """
    e = G.shape[1] - 1
    free = m - s  # the cofactor digits the walk adds; the slab fixes the rest
    pows = p ** np.arange(e + m + 1, dtype=np.int32)
    a = np.arange(p, dtype=np.int64)[:, None]
    # rows of G at a time: their starts and their (g, a) tables stay within
    # _CHUNK entries; the walk splits the rows further where their products
    # would not
    batch = max(1, _CHUNK // max(count, p * (e + 1)))
    for lo in range(0, len(G), batch):
        g = G[lo : lo + batch]
        start = _slab_starts(g, p, m, s, top, count)
        ag = _mod(a * g[:, None, :], p).astype(np.int32)
        # per g and a: the index of a*g, and, digit-major so that each
        # digit's slice is contiguous, the thresholds p - a*g_i at which
        # digit i wraps
        step = ag @ pows[: e + 1]
        thr = np.ascontiguousarray(np.moveaxis(p - ag, 2, 0))
        yield from _add_cofactor_digits(start, step, thr, pows, 0, free)


def _slab_starts(G: np.ndarray, p: int, m: int, s: int, top: int, count: int) -> np.ndarray:
    """For each row g of G and each T in top..top+count-1, the index, less
    top*p^(n-s), of g*(x^m + h_(m-1)*x^(m-1) + ... + h_(m-s)*x^(m-s)), the
    top terms of every cofactor h of g whose product's top s digits read T.

    g*h is monic, so its coefficient f_(n-k) is h_(m-k) plus the sum of
    g_(e-i)*h_(m-k+i) over i = 1..k: solved from k = 1 up, the top s
    digits of f fix those of h, as the top of (T's terms) div g.  The
    other terms of h times g have degree below n - s, so digit n - s up
    of every product from this start reads T.  Shape (len(G), count).
    """
    e = G.shape[1] - 1
    n = e + m
    digits = _monic_rows(np.arange(top, top + count), p, s, np.int64)  # row k: digit s - k of each T
    h = [1]  # h[k] is h_(m-k), per g and T
    for k in range(1, s + 1):
        h.append(_mod(digits[k] - sum(G[:, e - i, None] * h[k - i] for i in range(1, min(k, e) + 1)), p))
    # coefficients 0..e-1 of g*(x^s + h_(m-1)*x^(s-1) + ... + h_(m-s)): digits m-s..n-s-1
    low = np.zeros((len(G), count, e), dtype=np.int64)
    low[:, :, s:] = G[:, None, : max(0, e - s)]
    for k in range(max(1, s - e + 1), s + 1):
        low[:, :, s - k :] += h[k][:, :, None] * G[:, None, : e - s + k]
    low = _mod(low, p) @ p ** np.arange(m - s, n - s, dtype=np.int64)
    return (low + np.arange(count) * p ** (n - s)).astype(np.int32)


def _add_cofactor_digits(
    V: np.ndarray, step: np.ndarray, thr: np.ndarray, pows: np.ndarray, j: int, m: int
) -> Iterator[np.ndarray]:
    """Extend the partial products V[b, k] of g_b by cofactor digits j..m-1.

    All a in F_p are taken at once along a numpy axis while the result
    fits in _CHUNK; beyond that the rows g are taken in blocks, and a
    single row's a in blocks.  Adding a*g to digits
    j..j+e adds step[b, a] * p^j to the index, less p^(j+i+1) for each
    digit i that wraps, that is where old_i >= p - a*g_i.
    """
    if j == m:
        yield V.ravel()
        return
    B, K = V.shape
    e1, p = thr.shape[0], thr.shape[2]
    if B > 1 and V.size * p > _CHUNK:
        rows = max(1, _CHUNK // (K * p))
        for b in range(0, B, rows):
            yield from _add_cofactor_digits(V[b : b + rows], step[b : b + rows], thr[:, b : b + rows], pows, j, m)
        return
    wrap = pows[j + 1 : j + e1 + 1]
    rest = V // pows[j]
    old = []
    for _ in range(e1):
        q = rest // p
        old.append((rest - q * p)[:, None, :])
        rest = q
    del rest, q  # every level of the walk is alive at once: free what it is done with
    shift = step * pows[j]
    s = max(1, _CHUNK // V.size)
    for a0 in range(0, p, s):
        W = V[:, None, :] + shift[:, a0 : a0 + s, None]
        for i in range(e1):
            W -= (old[i] >= thr[i, :, a0 : a0 + s, None]) * wrap[i]
        if a0 + s >= p:
            del old
        yield from _add_cofactor_digits(W.reshape(B, -1), step, thr, pows, j + 1, m)


@lru_cache(maxsize=64)
def _irreducibles(p: int, d: int) -> np.ndarray:
    """Coefficient rows, constant term first, of the monic irreducibles of
    degree d >= 1: a transposed view of their `_monic_rows`.

    The cache holds 64 (p, d) pairs, the least recently used dropped first:
    `verify all` at its defaults reads 15, and a process that asks for
    many primes does not keep the rows of every one.

    They are the zero codes of _factor_codes(d, p), slab by slab: no
    factor of degree <= d/2 and no square mark.  At d = 1 nothing is
    marked, so all p linear polynomials are kept.
    """
    zeros = [np.flatnonzero(codes == 0) + base for base, codes in _factor_codes(d, p)]
    return _monic_rows(np.concatenate(zeros), p, d, np.int64)[::-1].T


# ---------------------------------------------------------------------------
# exhaustive statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquareFreeStats:
    """Exact totals over all monic degree-n polynomials over F_p.

    ``type_counts`` holds one (type, count) pair, sorted by type, for every
    factorization type of a square-free polynomial that occurs: the
    degrees of its distinct irreducible factors, largest first, a
    partition of n.  Every other total is a sum over it.
    ``disc_residue``/``disc_nonresidue`` are populated only when
    discriminants were requested and p is odd; otherwise None.
    """

    n: int
    p: int
    total_monic: int
    type_counts: tuple[tuple[tuple[int, ...], int], ...]
    disc_residue: int | None = None
    disc_nonresidue: int | None = None

    def _type_sum(self, weight: Callable[[tuple[int, ...]], int]) -> int:
        return sum(count * weight(parts) for parts, count in self.type_counts)

    @property
    def squarefree_count(self) -> int:
        return self._type_sum(lambda parts: 1)

    def binomial_moment(self, k: Mapping[int, int]) -> Fraction:
        """E[prod_d C(X_d, k_d)] over the square-free polynomials, X_d the
        number of degree-d irreducible factors (k = {1: 1}: the mean root count)."""
        key = check_moment_orders(k)
        total = self._type_sum(lambda parts: math.prod(math.comb(parts.count(d), kd) for d, kd in key))
        return Fraction(total, self.squarefree_count)

    @property
    def mu_sum(self) -> int:
        """Sum of the Moebius sign (-1)^(number of irreducible factors)."""
        return self._type_sum(lambda parts: -1 if len(parts) % 2 else 1)


def _check_budget(n: int, p: int) -> None:
    # p >= 2, so a degree of MAX_BUDGET's bit length or more is over it
    # without forming p^n, which at n = 10^6 has too many digits to print
    if n >= MAX_BUDGET.bit_length() or p**n > MAX_BUDGET:
        raise EnumerationBudgetError(
            f"enumerating degree {n} over F_{p} visits {p}^{n} polynomials, "
            f"above the maximum of {MAX_BUDGET}"
        )


def _type_code(n: int, p: int) -> tuple[list[int], type[np.unsignedinteger]]:
    """The digit radices of the degree-n type code over F_p, and its dtype.

    Digit d, for 1 <= d <= n/2, is m_d, the number of distinct irreducible
    factors of degree d: at most n//d, and at most N(d, p), the number of
    monic irreducibles of degree d that the sieve found, so its radix is
    min(n//d, N(d, p)) + 1.  The top digit is the number of repeated
    factors, at most n//2.  The codes are uint16 where every code fits,
    else uint32; within MAX_BUDGET the largest code, 117573119, is at
    (p, n) = (2, 26).
    """
    radices = [min(n // d, len(_irreducibles(p, d))) + 1 for d in range(1, n // 2 + 1)] + [n // 2 + 1]
    for dtype in (np.uint16, np.uint32):
        if math.prod(radices) <= np.iinfo(dtype).max + 1:
            return radices, dtype
    raise ValueError(f"the type codes of degree {n} over F_{p} do not fit in 32 bits")


def _slab_shape(n: int, p: int) -> tuple[int, int]:
    """(s, k): each slab of the degree-n code array holds the indices whose
    top s digits take one of k consecutive values, s the fewest digits
    with p^(n-s) <= _SLAB and k as many values as fit in _SLAB, so that a
    large p at a small n makes a few slabs, not p tiny ones.  One slab
    (s = 0) holds every index where p^n <= _SLAB."""
    s = 0
    while p ** (n - s) > _SLAB:
        s += 1
    return s, min(p**s, _SLAB // p ** (n - s))


def _factor_codes(n: int, p: int) -> Iterator[tuple[int, np.ndarray]]:
    """The type code of every monic degree-n polynomial, one slab of
    consecutive indices at a time, in index order: pairs (base, codes),
    codes[i] the code of index base + i.  Every slab is a view of one
    buffer, which the next slab overwrites.

    Each product g*h with g irreducible of degree d <= n/2 adds the weight
    of digit d, and each g^2*h the weight of the top digit.  A repeated
    factor g has 2*deg(g) <= n, so exactly the polynomials that are not
    square-free get a square mark: their codes are the ones at or above
    the product of the lower radices.  A cofactor h with at least s
    digits is walked into each slab from the top terms the slab fixes;
    the few products whose cofactor is shorter (g^2 with deg g near n/2)
    are made once, sorted, and each slab marks its range of them.
    """
    radices, dtype = _type_code(n, p)
    # sieved before the code buffer is made, so their passes add nothing to its peak
    irr = [_irreducibles(p, d) for d in range(1, n // 2 + 1)]
    s, k = _slab_shape(n, p)
    unit = p ** (n - s)
    marks = []  # (rows of g or g^2, degree of the cofactors, weight)
    for d, g in enumerate(irr, 1):
        squares = np.zeros((len(g), 2 * d + 1), dtype=np.int64)
        for i in range(d + 1):
            squares[:, i : i + d + 1] += g[:, i, None] * g
        squares %= p
        marks.append((g, n - d, dtype(math.prod(radices[: d - 1]))))
        marks.append((squares, n - 2 * d, dtype(math.prod(radices[:-1]))))
    short = [
        (np.sort(np.concatenate([np.empty(0, np.int32), *_product_indices(G, p, m)])), weight)
        for G, m, weight in marks
        if m < s
    ]
    codes = np.empty(k * unit, dtype=dtype)
    for top in range(0, p**s, k):
        count = min(k, p**s - top)
        base, slab = top * unit, codes[: count * unit]
        slab.fill(0)
        for G, m, weight in marks:
            if m >= s:
                for idx in _product_indices(G, p, m, s, top, count):
                    np.add.at(slab, idx, weight)
        for idx, weight in short:
            lo, hi = idx.searchsorted([base, base + slab.size])
            np.add.at(slab, idx[lo:hi] - base, weight)
        yield base, slab


def _code_type(code: int, n: int, radices: list[int]) -> tuple[int, ...] | None:
    """The factorization type of a square-free polynomial, largest degree
    first, from its type code, or None when it is not square-free.

    Factors of degree <= n/2 are counted in the digits.  Their degrees sum
    to some S <= n, and the rest is one irreducible factor of degree
    n - S > n/2, since two would have degrees summing past n.
    """
    parts: list[int] = []
    rest = code
    for d, radix in enumerate(radices[:-1], 1):
        rest, m = divmod(rest, radix)
        parts[:0] = [d] * m
    if rest:
        return None
    big = n - sum(parts)
    if 0 < 2 * big <= n:
        raise RuntimeError(f"square-free code {code} leaves a factor of degree {big} unmarked")
    return (big,) * (big > 0) + tuple(parts)


def _disc_residue_count(codes: np.ndarray, base: int, square: np.unsignedinteger, n: int, p: int) -> int:
    """How many square-free polynomials of a slab have disc f a nonzero
    square, p odd.

    The square-free indices are gathered one window of the slab at a time
    and passed to _disc_residues, which splits them into blocks, so no
    array of all of them is made.
    """
    residue = 0
    for lo in range(0, codes.size, _CHUNK):
        idx = np.flatnonzero(codes[lo : lo + _CHUNK] < square) + (base + lo)
        residue += int(np.count_nonzero(_disc_residues(idx, n, p)))
    return residue


def _count_codes(codes: np.ndarray, square: np.unsignedinteger, counts: dict[int, int]) -> None:
    """Add the number of polynomials of a slab with each square-free code
    to counts.

    The codes are sorted in place, which puts the square-free ones first,
    and each run of equal codes is found by binary search, so no other
    array of their length is made."""
    codes.sort()
    # a search key of another dtype would make searchsorted cast all codes
    lo, end = 0, int(codes.searchsorted(square))
    while lo < end:
        code = codes[lo]
        hi = int(codes.searchsorted(code, side="right"))
        counts[int(code)] = counts.get(int(code), 0) + hi - lo
        lo = hi


def _stats_sieve(n: int, p: int, discriminants: bool) -> SquareFreeStats:
    radices, dtype = _type_code(n, p)
    square = dtype(math.prod(radices[:-1]))  # the first code that is not square-free
    discriminants = discriminants and p % 2 == 1
    residue = 0
    counts: dict[int, int] = {}
    for base, codes in _factor_codes(n, p):
        if discriminants:
            # before the sort, which loses the indices
            residue += _disc_residue_count(codes, base, square, n, p)
        _count_codes(codes, square, counts)
    squarefree = sum(counts.values())
    return SquareFreeStats(
        n=n,
        p=p,
        total_monic=p**n,
        # each distinct code decoded once
        type_counts=tuple(sorted((_code_type(code, n, radices), c) for code, c in counts.items())),
        disc_residue=residue if discriminants else None,
        disc_nonresidue=squarefree - residue if discriminants else None,
    )


def enumerate_stats(n: int, p: int, *, discriminants: bool = True) -> SquareFreeStats:
    """Exact statistics over all p^n monic degree-n polynomials over F_p, by
    the sieve.

    A composite p and p^n above MAX_BUDGET are refused before anything is
    allocated.  Discriminant classes (odd p only) are still most of the
    time (about 80% at 7^6 and at 3137^2: 0.02 s against 0.004 s without,
    and 0.7 s against 0.14 s) and can be switched off.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"degree must be an int, not {n!r}")
    if n < 1:
        raise ValueError("degree must be at least 1")
    check_prime(p)
    _check_budget(n, p)
    return _stats_sieve(n, p, discriminants)
