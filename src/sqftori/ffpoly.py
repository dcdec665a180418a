"""Brute-force ground truth over prime fields F_p.

Counts the square-free monic degree-n polynomials by factorization
type: the degrees of their distinct irreducible factors, a partition of
n.  The square-free count, the binomial moments of the factor counts and
the sign (-1)^(number of factors) are sums over the types; discriminant
residue classes are counted beside them.  Everything is integer
arithmetic, so the results are exact and byte-reproducible.

Every total is invariant under f(x) -> a^(-n) f(ax + b), which permutes
the classes of indices with given top c digits, so the oracle reads one
class per orbit, weighted by the orbit's size (`_orbit_classes`), at the
depth c that reads fewest (`_read_classes`).

The oracle is a sieve.  A type code is mixed-radix: digit d is m_d, the
number of distinct degree-d irreducible factors, with radix
min(n//d, N(d, p)) + 1, and the number of repeated factors sits on top;
the codes are uint16 where they fit, else uint32.  They are accumulated
by marking every monic multiple of degree n of each modulus M = g or g^2,
g irreducible with deg(g) <= n/2, the multiples of g^2 with a square
mark, one slab at a time in one buffer of at most _SLAB codes, a slab
being up to _SLAB // p^(n-c) classes packed back to back.
The multiples are marked from the quotient side: a monic f of degree n
is a multiple of M, of degree D, exactly when f = x^D*F + u with F monic
of degree n - D and u = -x^D*F mod M, so each F gives one multiple, at
index idx(F)*p^D + idx(u).  The top c digits of f are those of F, so a
class is a run of quotients.  u is linear in the digits of F: the lowest
are read from a table per modulus, the next added one at a time along a
numpy axis, the highest by one product per batch of prefixes, each in
whole-array steps (`_Moduli`).  The moduli whose quotients have fewer
than c digits have their marks made once and shared out by slab.  A
repeated factor has degree at most n/2, so the square-free polynomials
are exactly those without a square mark, and the irreducibles those with
code 0: the same pass at each degree d <= n/2 yields the g.  When the
marked degrees sum to S < n, the rest is one irreducible factor of
degree n - S > n/2, added when the code is decoded.  The types are read
off each run of classes of equal weight, sorted in place.
Discriminant classes come from one batched Euclidean resultant
Res(f', f) over each class's square-free polynomials, in digit-major
numpy blocks of int16 up to p = 127, int32 up to p = 32749 and int64
above, each step in place on the rows still live, with Euler's criterion
once per polynomial at the end.

The tests hold the sieve to a scalar reference, ``tests/fp_reference.py``,
which walks one polynomial at a time with the definitional operations
(derivative gcd for square-freeness, trial division for the type, a
Euclidean resultant for the discriminant), simple and slow.

A polynomial is encoded as the base-p integer of its non-leading
coefficients with the constant term fastest, which fixes the
enumeration order.
"""

from __future__ import annotations

import ctypes
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterator, Mapping

import numpy as np

#: the largest p^n one enumeration may count, checked before anything is
#: allocated; the sieve reads one class per orbit of the affine maps, at
#: most 2p^(n-1) of them, and 17/32 of the 2^26 at the top (136 classes
#: of 2^18).  It bounds time, not memory: the sieve holds one slab of at
#: most _SLAB type codes (0.5 MiB in uint16, 1 MiB in uint32, needed only
#: at p = 2 with n >= 16 and p = 3 with n >= 14) and arrays of about
#: _CHUNK entries beside it, so above the interpreter with numpy it peaks
#: near 1.7 MiB at 5^10 (1.9 MiB with discriminant classes), 1 MiB at
#: 9973^2 and 5.6 MiB at 2^26, the largest uint32 point
MAX_BUDGET = 100_000_000

_CHUNK = 1 << 16

try:
    # glibc's; numpy has imported ctypes already
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # another C library, or no handle on the process
    _malloc_trim = None

#: the most type codes the sieve holds at once: it marks, counts and
#: reads the code array one slab of at most this many indices at a time
_SLAB = 1 << 18


class EnumerationBudgetError(ValueError):
    """Raised when an enumeration would count more than MAX_BUDGET polynomials."""


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1 with multiplicity, nondecreasing, by
    trial division."""
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == [p]


def check_prime(p: int) -> None:
    """Raise ValueError unless p is an int, 2 <= p < 2^31 and prime, by
    the trial division of `_prime_factors`."""
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


def _mod(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p in [0, p), also for negative x, in the dtype of x, by floor
    division: on the 6 x 9362 rows the pass reduces at (n, p) = (6, 7),
    about 20x faster than % in int16, 15x in int32, 7x in int64.  Built in
    place on the quotient, in out where given, it allocates at most one
    array, as %."""
    r = np.floor_divide(x, p, out=out)
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
        # made in a call, so that no array or view of a block outlives it
        out[lo : lo + block] = _disc_block(idx[lo : lo + block], n, p, dtype)
    return out


def _disc_block(idx: np.ndarray, n: int, p: int, dtype: type[np.signedinteger]) -> np.ndarray:
    """`_disc_residues` on one block of rows, in one dtype.  Each step
    works in place and in one buffer of the block's shape, so it allocates
    no array of rows."""
    b = _monic_rows(idx, p, n, dtype)
    a = np.zeros_like(b)
    work = np.empty_like(b)
    np.multiply(b[:n], (np.arange(n, 0, -1) % p).astype(dtype)[:, None], out=work[:n])
    _mod(work[:n], p, out=a[:n])  # f' at formal degree n-1
    acc = np.ones(b.shape[1], dtype=dtype)
    db = np.full_like(acc, n)
    sign = np.full_like(acc, n * (n - 1) // 2 % 2)  # disc f = (-1)^(n(n-1)/2) Res(f, f'), as bit 0
    for s in range(2 * n - 1, 0, -1):
        live = min(n + 1, max(s - int(db.min()), int(db.max())) + 1)
        la, lb, w = a[:live], b[:live], work[:live]
        swap = (a[0] != 0) & (db > s // 2)
        if s % 2 == 0:  # (s - db) * db is odd only where s is even and db odd
            sign ^= swap & db
        np.subtract(lb, la, out=w)  # swap in place
        w *= swap
        la += w
        lb -= w
        db += swap * (s - 2 * db)
        acc = np.where(db & 1, acc, _mod(acc * b[0], p))
        # lc(b)*a - lc(a)*x^(deg a - deg b)*b, one row up
        d = w[:-1]
        np.multiply(la[1:], b[0], out=d)
        np.multiply(lb[1:], a[0], out=la[1:])
        d -= la[1:]
        _mod(d, p, out=la[:-1])
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
    return chi == 1


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


def _unsigned(top: int) -> type[np.unsignedinteger]:
    """uint16 where it holds top, else uint32: the marking's small values
    need no more, and uint8 would page in numpy loops that nothing else
    runs (64 KiB of resident code)."""
    return np.uint16 if top < 2**16 else np.uint32


class _Moduli:
    """Monic moduli M of one degree D, whose monic multiples of degree n
    are made for a few classes of quotients at a time.

    f = x^D*F + u is a multiple of M exactly when u = -x^D*F mod M, so M
    has one multiple for each monic F of degree n - D, at index
    idx(F)*p^D + idx(u).  u is linear in the digits of F,
    u = -(x^n + sum_j F_j x^(D+j)) mod M, and is built from the residues
    x^k mod M, k = D..n: `residues` has shape (n - D + 1, D, len(M)),
    coefficient i of x^(D+j) mod M at [j, i], the moduli innermost, in a
    dtype that holds 2p - 2.  They are made in one int64 array, each row
    from the last, and reduced once.

    Of the lowest r digits of a quotient, which `multiples` leaves free,
    the lowest t are read from a table, t the largest at which the tables
    of all the moduli hold at most _CHUNK entries and at most 1/16 of each
    modulus' p^(n-D) multiples (t = 0: no table).  The next e are added one
    at a time along a new axis, from `steps`: steps[j, :, a] = -a*x^(D+t+j)
    mod M for every a in F_p, all made in one broadcast, e the largest at
    which p^e blocks of p^t quotients fit in _CHUNK marks and the steps in
    _CHUNK entries; the lowest of them is added to the digits of u a few
    at a time, as many as fit in _CHUNK entries.  The rest, a prefix shared
    by p^e blocks, is one product of the prefixes' digits with the residues.
    """

    def __init__(self, M: np.ndarray, p: int, n: int, r: int):
        D, nm = M.shape[1] - 1, len(M)
        self.p, self.D, self.r = p, D, r
        res = np.empty((n - D + 1, D, nm), dtype=np.int64)
        res[0] = -M[:, :D].T % p  # x^D = x^D - M mod M
        for j in range(1, n - D + 1):
            # x * x^(D+j-1): each coefficient moves up one, and the top one returns times x^D mod M;
            # reduced at the end, as row j stays below p^(j+1) <= p^n
            np.multiply(res[j - 1, -1], res[0], out=res[j])
            res[j, 1:] += res[j - 1, :-1]
        res %= p
        self.residues = res.astype(_unsigned(2 * p - 2))
        t = 0
        while t < r and nm * p ** (D + t + 1) <= _CHUNK and 16 * p ** (D + t + 1) <= p ** (n - D):
            t += 1
        self.t = t
        self.table = self._table(res[:t]) if t else None
        e = 0
        while e < r - t and p ** (t + e + 1) <= _CHUNK and (e + 1) * D * p * nm <= _CHUNK:
            e += 1
        steps = -np.arange(p)[:, None] * res[t : t + e, :, None, :] % p
        self.steps = steps.astype(_unsigned(max(2 * p - 2, p**D - 1)))  # a sum of two, and idx(u) < p^D

    def _table(self, res: np.ndarray) -> np.ndarray:
        """Entry [m, w, L], for every residue w (by index) and L < p^t, is
        L*p^D + idx(w - sum_(j<t) L_j x^(D+j) mod M_m), L_j the digits of
        L and res the residues of j < t in int64: the p^t multiples, less
        the first index, of a block of quotients whose higher digits leave
        residue w; shape (len(M), p^D, p^t), in a dtype that holds
        p^(D+t) - 1, made one digit of w at a time along a new axis."""
        p, D, t, nm = self.p, self.D, self.t, res.shape[2]
        digits = _monic_rows(np.arange(p**t), p, t, np.int64)[:0:-1]  # digits[j]: digit j of each L
        low = np.dot(res.reshape(t, -1).T, digits).reshape(D, nm, 1, -1)  # [i, m, 0, L]: the sum, unreduced
        # [i, m, a, L]: digit i of the entries where digit i of w is a, times p^i
        dtype = _unsigned(p ** (D + t) - 1)
        planes = (_mod(np.arange(p)[:, None] - low, p) * (p ** np.arange(D))[:, None, None, None]).astype(dtype)
        table = planes[-1] + np.arange(p**t, dtype=dtype) * dtype(p**D)
        for plane in planes[-2::-1]:  # each lower digit of w along a new axis
            table = (table[:, :, None, :] + plane[:, None, :, :]).reshape(nm, -1, p**t)
        return table

    def multiples(self, tops: np.ndarray) -> Iterator[np.ndarray]:
        """The multiples whose quotients, less their lowest r digits, take
        the values tops (r = n - D and tops = [0]: every multiple), those of
        each top packed after the last's, in arrays of at most _CHUNK,
        increasing for each modulus and top."""
        p, r, t, e = self.p, self.r, self.t, len(self.steps)
        # (block, modulus) pairs in one array: at most _CHUNK marks
        units = max(1, _CHUNK // p**t)
        per = p ** (r - t - e)  # prefixes of p^e blocks under one top
        P = (tops[:, None] * per + np.arange(per)).ravel()
        moduli = max(1, units // (len(P) * p**e))
        prefixes = max(1, units // (moduli * p**e))
        for m0 in range(0, self.residues.shape[2], moduli):
            # -x^(D+t+e+k) mod M for the prefix digits k, the last for x^n
            R = -self.residues[t + e :, :, m0 : m0 + moduli].astype(np.int64)
            for first in range(0, len(P), prefixes):
                # made in a call, so that none of its arrays outlives the yield
                yield self._marks(R, m0, P[first : first + prefixes], first)

    def _marks(self, R: np.ndarray, m0: int, P: np.ndarray, first: int) -> np.ndarray:
        """The multiples of moduli m0.. (R their negated residues of the
        prefix digits and of x^n, in int64) whose quotients have the
        prefixes P, P[0] the first'th of the run."""
        p, D, t, e = self.p, self.D, self.t, len(self.steps)
        K, nm = len(R) - 1, R.shape[2]
        digits = _monic_rows(P, p, K, np.int64)[::-1]  # the prefix's, then F's leading 1
        W = np.dot(digits.T, R.reshape(K + 1, -1)).reshape(len(P), D, nm).transpose(1, 0, 2)
        W = _mod(W, p).astype(self.steps.dtype, order="C")
        steps = self.steps[..., m0 : m0 + nm]
        for step in steps[:0:-1]:  # each expanded digit but the lowest along a new axis
            W = (W[:, :, None, :] + step[:, None, :, :]).reshape(D, -1, W.shape[2])
        if e > 1:  # a sum of e residues
            W -= W // p * p
        v = np.zeros((W.shape[1] * p ** min(e, 1), nm), dtype=W.dtype)  # idx(u), blocks by moduli
        k = max(1, _CHUNK // v.size)  # digits of u made at once, the lowest expanded digit added here
        for i in range((D - 1) // k * k, -1, -k):
            x = W[i : i + k, :, None, :]
            if e:
                x = x + steps[0, i : i + k, None, :, :]
                np.minimum(x, x - p, out=x)
            for digit in x[::-1]:  # by Horner's rule
                v *= p
                v += digit.reshape(v.shape)
        del W, x, digit
        v = v[:, :, None] if self.table is None else self.table[np.arange(m0, m0 + nm), v]
        idx = v.astype(np.intp)
        idx += ((np.arange(len(v)) + first * p**e) * p ** (D + t))[:, None, None]  # each block's place
        return idx.ravel()


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
    zeros = [np.flatnonzero(codes == 0) + starts[0] for starts, codes in _factor_codes(d, p)]
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
            f"enumerating degree {n} over F_{p} counts {p}^{n} polynomials, "
            f"above the maximum of {MAX_BUDGET}"
        )


def _type_code(n: int, p: int) -> tuple[list[int], type[np.unsignedinteger]]:
    """The digit radices of the degree-n type code over F_p, and its dtype.

    Digit d, for 1 <= d <= n/2, is m_d, the number of distinct irreducible
    factors of degree d: at most n//d, and at most N(d, p), the number of
    monic irreducibles of degree d that the sieve found, so its radix is
    min(n//d, N(d, p)) + 1.  The top digit is the number of repeated
    factors, at most n//2.  The codes are `_unsigned`: uint16 where every
    code fits, else uint32; within MAX_BUDGET the largest code, 117573119,
    is at (p, n) = (2, 26).
    """
    radices = [min(n // d, len(_irreducibles(p, d))) + 1 for d in range(1, n // 2 + 1)] + [n // 2 + 1]
    top = math.prod(radices) - 1
    if top >= 2**32:
        raise ValueError(f"the type codes of degree {n} over F_{p} do not fit in 32 bits")
    return radices, _unsigned(top)


def _slab_shape(n: int, p: int) -> tuple[int, int]:
    """(s, k): s >= 1 the fewest top digits with p^(n-s) <= _SLAB, so that
    a slab holds whole classes of s or more digits, and k the classes of s
    digits that fit in a slab, so that a large p at a small n makes a few
    slabs, not p tiny ones (s = 1, k = p where p^n <= _SLAB)."""
    s = 1
    while p ** (n - s) > _SLAB:
        s += 1
    return s, min(p**s, _SLAB // p ** (n - s))


def _read_classes(n: int, p: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(c, `_orbit_classes(n, p, c)`): the classes the statistics read.
    c starts at the slab depth of `_slab_shape`; up to c = 3, a deeper c is
    tried while its classes still hold _CHUNK/8 polynomials, enough to
    carry their own pass, and p^c <= _CHUNK/16, and taken where it reads
    fewer: at p >= 5 always; at p = 2 only to c = 2 where n is even; at
    p = 3 where 3 | n, else only to c = 3."""
    c = _slab_shape(n, p)[0]
    best = c, _orbit_classes(n, p, c)
    while c < 3 and p ** (n - c - 1) >= _CHUNK // 8 and p ** (c + 1) <= _CHUNK // 16:
        c += 1
        classes = _orbit_classes(n, p, c)
        if len(classes) * p ** (n - c) < len(best[1]) * p ** (n - best[0]):
            best = c, classes
    return best


def _factor_codes(
    n: int, p: int, c: int | None = None, tops: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The type codes of the monic degree-n polynomials in the classes of
    c top digits with the top values tops (by default the slab depth and
    every value), in slabs of at most _SLAB codes: pairs
    (starts, codes), codes[i*p^(n-c) + j] the code of index starts[i] + j.
    Every slab is a view of one buffer, which the next slab overwrites.

    Each multiple of an irreducible g of degree d <= n/2 adds the weight
    of digit d, and each multiple of g^2 the weight of the top digit, so
    the codes at or above the product of the lower radices are those of
    the polynomials that are not square-free.  The moduli of one degree
    and weight are marked together, as one `_Moduli`.
    """
    radices, dtype = _type_code(n, p)
    # sieved before the code buffer is made, so their passes add nothing to its peak
    irr = [_irreducibles(p, d) for d in range(1, n // 2 + 1)]
    if c is None:
        c = _slab_shape(n, p)[0]
    tops = np.arange(p**c) if tops is None else np.asarray(tops, dtype=np.int64)
    unit = p ** (n - c)  # the indices of one class
    k = min(len(tops), _SLAB // unit)  # classes per slab
    groups = []  # (moduli, weight) marked slab by slab
    shared = []  # (sorted indices, weight) of the marks made once
    for d, g in enumerate(irr, 1):
        squares = np.zeros((len(g), 2 * d + 1), dtype=np.int64)
        for i in range(d + 1):
            squares[:, i : i + d + 1] += g[:, i, None] * g
        squares %= p
        for M, weight in ((g, dtype(math.prod(radices[: d - 1]))), (squares, dtype(math.prod(radices[:-1])))):
            D = M.shape[1] - 1
            if D > n - c:
                # quotients shorter than c digits: every multiple at its own index
                idx = np.concatenate(list(_Moduli(M, p, n, n - D).multiples(np.zeros(1, dtype=np.int64))))
                shared.append((np.sort(idx), weight))
            else:
                groups.append((_Moduli(M, p, n, n - D - c), weight))
    codes = np.empty(k * unit, dtype=dtype)
    for i in range(0, len(tops), k):
        starts = tops[i : i + k] * unit
        slab = codes[: len(starts) * unit]
        slab.fill(0)
        for moduli, weight in groups:
            for idx in moduli.multiples(tops[i : i + k]):
                np.add.at(slab, idx, weight)
                del idx  # before the next array is made
        # one search per run of consecutive classes, each starting at slot a
        at = starts.tolist()
        runs = [a for a in range(len(at)) if a == 0 or at[a] != at[a - 1] + unit]
        for idx, weight in shared:
            for a, b in zip(runs, runs[1:] + [len(at)]):
                lo, hi = idx.searchsorted([at[a], at[b - 1] + unit])
                np.add.at(slab, idx[lo:hi] - (at[a] - a * unit), weight)
        yield starts, slab


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
    """How many square-free polynomials of a class have disc f a nonzero
    square, p odd.

    The square-free indices are gathered one window of the class at a time
    and passed to _disc_residues, which splits them into blocks, so no
    array of all of them is made.
    """
    residue = 0
    for lo in range(0, codes.size, _CHUNK):
        idx = np.flatnonzero(codes[lo : lo + _CHUNK] < square) + (base + lo)
        residue += int(np.count_nonzero(_disc_residues(idx, n, p)))
    return residue


def _count_codes(codes: np.ndarray, square: np.unsignedinteger, counts: dict[int, int], weight: int) -> None:
    """Add weight times the number of polynomials with each square-free
    code to counts.

    The codes are sorted in place, which puts the square-free ones first.
    Where every code is one already in counts, as in most classes after the
    first, one search finds every run; else each run is found by binary
    search.  No other array of their length is made."""
    codes.sort()
    # a search key of another dtype would make searchsorted cast all codes
    end = int(codes.searchsorted(square))
    if counts:
        keys = np.array(sorted(counts), dtype=codes.dtype)
        sizes = codes[:end].searchsorted(keys, side="right") - codes[:end].searchsorted(keys)
        if sizes.sum() == end:
            for key, size in zip(keys.tolist(), sizes.tolist()):
                counts[key] += weight * size
            return
    lo = 0
    while lo < end:
        code = codes[lo]
        hi = int(codes.searchsorted(code, side="right"))
        counts[int(code)] = counts.get(int(code), 0) + weight * (hi - lo)
        lo = hi


def _orbit_classes(n: int, p: int, s: int) -> tuple[tuple[int, int], ...]:
    """Sorted pairs (top, weight), one per orbit of the affine maps
    f(x) -> a^(-n) f(ax + b) on the values of the top s digits: top the
    least value in the orbit, weight its size.

    Coefficient k of the image is a^(k-n) sum_(j>=k) C(j, k) b^(j-k) c_j,
    c_n = 1, so the top s digits of the image depend only on those of f.
    The maps keep the factorization type and, as n(n-1) is even, the
    quadratic character of the discriminant, so all classes of an orbit
    hold the same statistics.  At s = 1 the top digit c goes to
    (c + n*b)/a.  At s >= 2 (p <= 97 and p^s < 2^14 at the default _SLAB)
    the orbits are those of translation by 1 and scaling by a generator.
    """
    if s == 1:
        return ((0, p),) if n % p else ((0, 1), (1, p - 1))
    factors = set(_prime_factors(p - 1))
    g = next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
    top = np.arange(p**s)
    digits = _monic_rows(top, p, s, np.int64)  # row i: c_(n-i), and c_n = 1
    shift = scale = 0  # the top values of f(x + 1) and g^n f(x/g), by Horner's rule
    for i in range(1, s + 1):
        shift = shift * p + sum(math.comb(n - j, n - i) * digits[j] for j in range(i + 1)) % p
        scale = scale * p + pow(g, i, p) * digits[i] % p
    least = top
    for perm, order in ((shift, p), (scale, p - 1)):
        # the least over each cycle of perm, by doubling: after j steps, over x .. perm^(2^j - 1)(x)
        while order > 1:
            least = np.minimum(least, least[perm])
            perm, order = perm[perm], (order + 1) // 2
    # counted in Python: numpy's counting calls would page in about 0.1 MiB
    # of resident code that nothing else runs
    return tuple(sorted(Counter(least.tolist()).items()))


def _stats_sieve(n: int, p: int, discriminants: bool) -> SquareFreeStats:
    radices, dtype = _type_code(n, p)
    square = dtype(math.prod(radices[:-1]))  # the first code that is not square-free
    discriminants = discriminants and p % 2 == 1
    c, classes = _read_classes(n, p)
    unit = p ** (n - c)  # the indices of one class
    weights = {top * unit: weight for top, weight in classes}
    residue = 0
    counts: dict[int, int] = {}
    for starts, slab in _factor_codes(n, p, c, [top for top, _ in classes]):
        slots = [(start, weights[start]) for start in starts.tolist()]
        if discriminants:
            # one view per class, before the sort, which loses the indices
            for i, (start, weight) in enumerate(slots):
                residue += weight * _disc_residue_count(slab[i * unit : (i + 1) * unit], start, square, n, p)
        # one view per run of classes of equal weight
        lo = 0
        for weight, run in groupby(weight for _, weight in slots):
            hi = lo + len(list(run))
            _count_codes(slab[lo * unit : hi * unit], square, counts, weight)
            lo = hi
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
    the sieve over one polynomial per orbit.

    A composite p and p^n above MAX_BUDGET are refused before anything is
    allocated.  Discriminant classes (odd p only) are still most of the
    time (0.0022 s against 0.0007 s without at 7^6, 0.11 s against 0.0082 s
    at 5^10) and can be switched off.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"degree must be an int, not {n!r}")
    if n < 1:
        raise ValueError("degree must be at least 1")
    check_prime(p)
    _check_budget(n, p)
    stats = _stats_sieve(n, p, discriminants)
    if _malloc_trim is not None:
        # give the freed code buffer back to the system: glibc keeps a
        # freed heap top below twice the largest mapped block it has freed,
        # so the buffer of a sieve whose slabs are as large as the last
        # sieve's comes from the heap and would stay resident
        _malloc_trim(0)
    return stats
