"""Brute-force ground truth over prime fields F_p.

Enumerates all p^n monic degree-n polynomials and counts the
square-free ones by factorization type: the degrees of their distinct
irreducible factors, a partition of n.  The square-free count, the
binomial moments of the factor counts and the sign (-1)^(number of
factors) are sums over the types; discriminant residue classes are
counted beside them.  Everything is integer arithmetic, so the results
are exact and byte-reproducible.

Two enumeration methods produce identical stats:

``direct``
    One polynomial at a time with the definitional scalar operations
    (derivative gcd for square-freeness, trial division for the type, a
    Euclidean resultant for the discriminant).
    Simple, slow, used for cross-checks at small sizes.

``sieve``
    The default.  The per-polynomial type codes are accumulated by
    marking every product (irreducible g) * (monic h) of degree n with
    deg(g) <= n/2, and every g^2*h with a square mark.  A type code is
    mixed-radix: digit d is m_d, the number of distinct degree-d
    irreducible factors, with radix min(n//d, N(d, p)) + 1, and the
    number of repeated factors sits on top; the codes are uint16 where
    they fit, else uint32.  The products are built in the index domain,
    vectorized with numpy: starting from the index of g*x^deg(h), each
    coefficient a of h adds a*g to a window of deg(g)+1 base-p digits,
    digit by digit mod p, so no coefficient rows are formed.  A repeated
    factor has degree at most n/2, so the square-free polynomials are
    exactly those without a square mark, and the irreducibles those with
    code 0: the same pass at each degree d <= n/2 yields the g.
    Each is hit once per irreducible factor of degree <= n/2; when those
    degrees sum to S < n, the rest is one irreducible factor of degree
    n - S > n/2, which is added when the code is decoded.  The types are
    read off one histogram of the codes, sorted in place, each distinct
    code decoded once.  Discriminant classes come from one batched
    Euclidean resultant Res(f', f) over the square-free polynomials,
    gathered window by window, in digit-major int32 numpy blocks (int64
    above p = 2^15), with Euler's criterion once per polynomial at the
    end.

A polynomial is encoded as the base-p integer of its non-leading
coefficients with the constant term fastest, which fixes the
enumeration order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Literal, Mapping

import numpy as np

#: hard cap on polynomial visits per enumeration call
DEFAULT_BUDGET = 10_000_000

#: the largest budget accepted anywhere: above the 29 MiB of the
#: interpreter with numpy, the sieve peaks at about 2.4 bytes per
#: polynomial with uint16 type codes (22 MiB at 5^10 = 9.8M polynomials,
#: 24 MiB at 3137^2), and the same with discriminant classes, whose pass
#: holds arrays of about _CHUNK entries (24 MiB at 3137^2, 8 MiB at 5^9);
#: uint32 codes, needed only at p = 2 with n >= 16 and p = 3 with n >= 14,
#: take about 5 to 6 bytes (23 MiB at 3^14 = 4.8M with or without
#: discriminant classes, 24 MiB at 2^22 = 4.2M), so 10^8 polynomials stay
#: near 0.2 GiB, and the largest uint32 point, 2^26, near 0.3 GiB;
#: it also keeps every product-walk index below 2^31
MAX_BUDGET = 100_000_000

_CHUNK = 1 << 16


class EnumerationBudgetError(ValueError):
    """Raised when an enumeration would exceed the configured budget."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """F_p for a prime p, checked by trial division at construction."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not 2 <= p < 2**31:
            raise ValueError(f"field size {p} out of range")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PrimeField is immutable")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class FieldPoly:
    """Dense polynomial over F_p, coefficients lowest degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs):
        cs = [c % field.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FieldPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check_same_field(self, other: "FieldPoly"):
        if self.field.p != other.field.p:
            raise ValueError(
                f"field mismatch: F_{self.field.p} vs F_{other.field.p}"
            )

    def __add__(self, other: "FieldPoly") -> "FieldPoly":
        self._check_same_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FieldPoly(self.field, out)

    def __neg__(self) -> "FieldPoly":
        return FieldPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "FieldPoly") -> "FieldPoly":
        return self + (-other)

    def __mul__(self, other: "FieldPoly") -> "FieldPoly":
        self._check_same_field(other)
        if self.is_zero() or other.is_zero():
            return FieldPoly(self.field, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca:
                for j, cb in enumerate(other.coeffs):
                    out[i + j] += ca * cb
        return FieldPoly(self.field, out)

    def divmod(self, other: "FieldPoly") -> tuple["FieldPoly", "FieldPoly"]:
        self._check_same_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = self.field.inv(other.leading())
        quot = [0] * max(len(rem) - db, 0)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] % p
            if c == 0:
                continue
            c = c * inv_lead % p
            quot[k - db] = c
            for j, cb in enumerate(other.coeffs):
                rem[k - db + j] -= c * cb
        return FieldPoly(self.field, quot), FieldPoly(self.field, rem)

    def __mod__(self, other: "FieldPoly") -> "FieldPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "FieldPoly") -> "FieldPoly":
        return self.divmod(other)[0]

    def monic(self) -> "FieldPoly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        inv = self.field.inv(self.coeffs[-1])
        return FieldPoly(self.field, [c * inv for c in self.coeffs])

    def derivative(self) -> "FieldPoly":
        return FieldPoly(
            self.field, [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    def eval(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldPoly)
            and self.field.p == other.field.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def __repr__(self) -> str:
        return f"FieldPoly(F_{self.field.p}, {list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                x = "x" if k == 1 else f"x^{k}"
                parts.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(parts)


def poly_gcd(a: FieldPoly, b: FieldPoly) -> FieldPoly:
    """Monic gcd by the Euclidean algorithm; gcd(f, 0) = monic f."""
    a._check_same_field(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_squarefree(f: FieldPoly) -> bool:
    """True when gcd(f, f') is constant, for monic f of degree >= 1."""
    if not f.is_monic() or f.degree < 1:
        raise ValueError("square-freeness is defined for monic polynomials of degree >= 1")
    return poly_gcd(f, f.derivative()).degree == 0


def _require_squarefree(f: FieldPoly, what: str):
    if not is_squarefree(f):
        raise ValueError(f"{what} is only defined for square-free polynomials")


def count_linear_factors(f: FieldPoly) -> int:
    """Number of roots of a monic square-free f in F_p."""
    _require_squarefree(f, "the linear-factor count")
    return sum(1 for x in range(f.field.p) if f.eval(x) == 0)


def _monic_polys(field: PrimeField, degree: int) -> Iterator[FieldPoly]:
    """All monic polynomials of the given degree, constant term fastest.

    The order matches the base-p index encoding used by the sieve."""
    for high in itertools.product(range(field.p), repeat=degree):
        yield FieldPoly(field, list(high[::-1]) + [1])


def count_irreducible_quadratic_factors(f: FieldPoly) -> int:
    """Number of monic irreducible quadratics dividing a square-free f.

    Trial division over all p^2 monic quadratics, with irreducibility
    decided by absence of roots.
    """
    _require_squarefree(f, "the quadratic-factor count")
    field = f.field
    count = 0
    for g in _monic_polys(field, 2):
        if any(g.eval(x) == 0 for x in range(field.p)):
            continue
        if (f % g).is_zero():
            count += 1
    return count


def is_irreducible(f: FieldPoly) -> bool:
    """Trial division by every monic polynomial of at most half the degree."""
    if f.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    for d in range(1, f.degree // 2 + 1):
        for g in _monic_polys(f.field, d):
            if (f % g).is_zero():
                return False
    return True


def factor_degrees(f: FieldPoly) -> tuple[int, ...]:
    """The factorization type of a monic square-free f: the degrees of its
    (distinct) irreducible factors, largest first, a partition of deg f.

    Divides out factors in order of increasing degree; a divisor found at
    the lowest remaining degree is automatically irreducible, and what is
    left once twice that degree exceeds its own is irreducible.  Intended
    for small fields; cost grows like p^(n/2).
    """
    _require_squarefree(f, "the factorization type")
    return _factor_degrees(f)


def _factor_degrees(f: FieldPoly) -> tuple[int, ...]:
    """factor_degrees for an f already known to be square-free."""
    rem = f
    degrees = []
    d = 1
    while rem.degree > 0:
        if 2 * d > rem.degree:
            degrees.append(rem.degree)
            break
        for g in _monic_polys(rem.field, d):
            if rem.degree >= d and (rem % g).is_zero():
                rem = rem // g
                degrees.append(d)
        d += 1
    return tuple(reversed(degrees))


def count_irreducible_factors(f: FieldPoly) -> int:
    """Number of (distinct) irreducible factors of a monic square-free f."""
    return len(factor_degrees(f))


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------


def resultant(a: FieldPoly, b: FieldPoly) -> int:
    """Res(a, b) as an element of F_p, with the convention

        Res(a, b) = lc(a)^deg(b) * prod over roots alpha of a of b(alpha),

    computed by the Euclidean remainder recurrence; zero exactly when
    gcd(a, b) is nonconstant."""
    a._check_same_field(b)
    if a.is_zero() or b.is_zero():
        raise ValueError("the resultant of the zero polynomial is not defined")
    p = a.field.p
    res = 1
    while True:
        da, db = a.degree, b.degree
        if da == 0:
            return res * pow(a.coeffs[0], db, p) % p
        if db == 0:
            return res * pow(b.coeffs[0], da, p) % p
        if (da * db) % 2:
            res = -res % p
        if da < db:
            a, b = b, a
            continue
        r = a % b
        if r.is_zero():
            return 0
        res = res * pow(b.leading(), da - r.degree, p) % p
        a, b = b, r


def _disc_residue(f: FieldPoly) -> bool:
    """True when disc(f) is a nonzero square in F_p (f monic square-free)."""
    n, p = f.degree, f.field.p
    r = resultant(f, f.derivative())
    if n * (n - 1) // 2 % 2:
        r = -r % p
    return pow(r, (p - 1) // 2, p) == 1


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p), also for negative x, in the dtype of x, by floor
    division: on a 7 x 9362 block about 18x faster than % in int32, 6x in
    int64.  Built in place on the quotient, it allocates one array, as %."""
    r = x // p
    r *= -p
    r += x
    return r


def _disc_block(n: int) -> int:
    """Rows per block of _disc_residues: n+1 coefficients of each, at most
    _CHUNK in all."""
    return max(1, _CHUNK // (n + 1))


def _disc_residues(idx: np.ndarray, n: int, p: int) -> np.ndarray:
    """Whether disc(f) is a nonzero square in F_p for each index of a
    monic square-free f of degree n, p odd: _disc_residue, batched.

    Runs the Euclidean resultant Res(f', f) = Res(f, f') on all rows of a
    block of at most _CHUNK coefficients at once; b = f stays monic even
    when p | n.  Blocks are digit-major and top-aligned (row 0 holds the
    coefficients of x^deg), so every operation runs on vectors as long as
    the block.  In each step, with s = deg a + deg b the same in every row:
      - where lc(a) != 0 and deg a < deg b, swap a and b, at a sign
        (-1)^(deg a * deg b);
      - set a to lc(b)*a - lc(a)*x^(deg a - deg b)*b, at a factor
        lc(b)^-deg b, and drop its leading term, now zero, at a factor
        (-1)^deg b * lc(b).
    Only the quadratic character matters and chi(x/y) = chi(xy), so the
    accumulator takes lc(b) where deg b is even; the signs (-1)^deg b
    telescope to (-1)^(n(n-1)) = 1.  After 2n-1 steps every row has
    deg a = deg b = 0 (a constant b keeps taking its factors of
    Res(a, b) = b^deg a), and Euler's criterion runs once per row.
    Intermediates stay below 2p^2: int32 where that fits, else int64.
    """
    out = np.empty(len(idx), dtype=bool)
    block = _disc_block(n)
    dtype = np.int32 if 2 * p * p < 2**31 else np.int64
    for lo in range(0, len(idx), block):
        b = _monic_rows(idx[lo : lo + block], p, n).T[::-1]  # digit-major, leading row first
        b = np.ascontiguousarray(b, dtype=dtype)
        a = np.zeros_like(b)
        a[:n] = _mod(b[:n] * (np.arange(n, 0, -1) % p)[:, None], p)  # f' at formal degree n-1
        acc = np.ones(b.shape[1], dtype=dtype)
        db = np.full_like(acc, n)
        sign = np.full_like(acc, n * (n - 1) // 2)  # disc f = (-1)^(n(n-1)/2) Res(f, f')
        for s in range(2 * n - 1, 0, -1):
            swap = (a[0] != 0) & (2 * db > s)
            sign += swap * (s - db) * db
            d = (b - a) * swap  # swap in place
            a += d
            b -= d
            db += swap * (s - 2 * db)
            acc = np.where(db & 1, acc, _mod(acc * b[0], p))
            a[:-1] = _mod(b[0] * a[1:] - a[0] * b[1:], p)
            a[-1] = 0
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


def discriminant_class(f: FieldPoly) -> Literal["residue", "nonresidue"]:
    """Residue class of disc(f) = (-1)^(n(n-1)/2) Res(f, f') in F_p^*.

    Decided by Euler's criterion; only defined for odd p and monic
    square-free f (the discriminant is then nonzero).
    """
    if f.field.p == 2:
        raise ValueError("discriminant classes need an odd field size")
    _require_squarefree(f, "the discriminant class")
    return "residue" if _disc_residue(f) else "nonresidue"


# ---------------------------------------------------------------------------
# irreducible polynomials by sieve
# ---------------------------------------------------------------------------

_IRR_CACHE: dict[int, list[np.ndarray]] = {}


def _monic_rows(idx: np.ndarray, p: int, degree: int) -> np.ndarray:
    """Coefficient rows (with leading 1) of monic polynomials by index.

    Digit i of an index in base p is coefficient i."""
    rows = np.empty((len(idx), degree + 1), dtype=np.int64)
    work = idx.astype(np.int64)
    for i in range(degree):
        q = work // p
        rows[:, i] = work - q * p
        work = q
    rows[:, degree] = 1
    return rows


def _product_indices(G: np.ndarray, p: int, m: int) -> Iterator[np.ndarray]:
    """Indices of g*h over all rows g of G and all monic h of degree m.

    G holds coefficient rows (leading 1 included) of fixed degree e; the
    products are monic of degree n=e+m and are encoded by their n
    non-leading coefficients.  No rows of h or g*h are formed: the walk
    starts from the index of g*x^m and adds the terms a_j*x^j*g of
    h = x^m + sum a_j*x^j one j at a time, each of which changes only
    digits j..j+e, to (old + a_j*g_i) mod p.  No yielded array is longer
    than _CHUNK.  Indices are int32: every caller has p^n <= MAX_BUDGET,
    and no intermediate exceeds 2*p^n < 2^31.
    """
    e = G.shape[1] - 1
    pows = p ** np.arange(e + m + 1, dtype=np.int32)
    start = (G[:, :e] @ pows[m : m + e]).astype(np.int32)  # index of g*x^m
    if m == 0:
        # h = 1: the products are the rows of G themselves
        for lo in range(0, len(start), _CHUNK):
            yield start[lo : lo + _CHUNK]
        return
    a = np.arange(p, dtype=np.int64)[:, None]
    batch = max(1, _CHUNK // p**m)
    for lo in range(0, len(G), batch):
        ag = _mod(a * G[lo : lo + batch, None, :], p).astype(np.int32)
        # per g and a: the index of a*g, and, digit-major so that each
        # digit's slice is contiguous, the thresholds p - a*g_i at which
        # digit i wraps
        step = ag @ pows[: e + 1]
        thr = np.ascontiguousarray(np.moveaxis(p - ag, 2, 0))
        yield from _add_cofactor_digits(start[lo : lo + batch, None], step, thr, pows, 0, m)


def _add_cofactor_digits(
    V: np.ndarray, step: np.ndarray, thr: np.ndarray, pows: np.ndarray, j: int, m: int
) -> Iterator[np.ndarray]:
    """Extend the partial products V[b, k] of g_b by cofactor digits j..m-1.

    All a in F_p are taken at once along a numpy axis while the result
    fits in _CHUNK, and in blocks of a beyond that.  Adding a*g to digits
    j..j+e adds step[b, a] * p^j to the index, less p^(j+i+1) for each
    digit i that wraps, that is where old_i >= p - a*g_i.
    """
    if j == m:
        yield V.ravel()
        return
    B, K = V.shape
    e1, p = thr.shape[0], thr.shape[2]
    wrap = pows[j + 1 : j + e1 + 1]
    rest = V // pows[j]
    old = []
    for _ in range(e1):
        q = rest // p
        old.append((rest - q * p)[:, None, :])
        rest = q
    shift = step * pows[j]
    s = max(1, _CHUNK // V.size)
    for a0 in range(0, p, s):
        W = V[:, None, :] + shift[:, a0 : a0 + s, None]
        for i in range(e1):
            W -= (old[i] >= thr[i, :, a0 : a0 + s, None]) * wrap[i]
        yield from _add_cofactor_digits(W.reshape(B, -1), step, thr, pows, j + 1, m)


def _irreducible_arrays(p: int, max_degree: int) -> list[np.ndarray]:
    """Coefficient arrays of monic irreducibles up to max_degree, cached per p.

    The degree-d irreducibles are the zero codes of _factor_codes(d, p):
    no factor of degree <= d/2 and no square mark.  At d = 1 nothing is
    marked, so all p linear polynomials are kept.
    """
    irr = _IRR_CACHE.setdefault(p, [np.empty((0, 1), dtype=np.int64)])
    for d in range(len(irr), max_degree + 1):
        irr.append(_monic_rows(np.flatnonzero(_factor_codes(d, p) == 0), p, d))
    return irr


def irreducible_polynomials(p: int, degree: int) -> list[FieldPoly]:
    """The sieve's monic irreducibles of the given degree, in index order."""
    field = PrimeField(p)
    _check_budget(degree, p, MAX_BUDGET)
    rows = _irreducible_arrays(p, degree)[degree]
    return [FieldPoly(field, row.tolist()) for row in rows]


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
        if any(d < 1 or kd < 0 for d, kd in k.items()):
            raise ValueError(f"moment orders need positive degrees and non-negative orders: {dict(k)}")
        total = self._type_sum(
            lambda parts: math.prod(math.comb(parts.count(d), kd) for d, kd in k.items())
        )
        return Fraction(total, self.squarefree_count)

    @property
    def mu_sum(self) -> int:
        """Sum of the Moebius sign (-1)^(number of irreducible factors)."""
        return self._type_sum(lambda parts: -1 if len(parts) % 2 else 1)


def _check_budget(n: int, p: int, budget: int) -> int:
    if budget > MAX_BUDGET:
        raise EnumerationBudgetError(
            f"budget {budget} exceeds the maximum of {MAX_BUDGET} polynomials"
        )
    total = p**n
    if total > budget:
        raise EnumerationBudgetError(
            f"enumerating degree {n} over F_{p} visits {total} polynomials; "
            f"requires a budget of at least {total} (configured: {budget})"
        )
    return total


def _type_code(n: int, p: int) -> tuple[list[int], type[np.unsignedinteger]]:
    """The digit radices of the degree-n type code over F_p, and its dtype.

    Digit d, for 1 <= d <= n/2, is m_d, the number of distinct irreducible
    factors of degree d: at most n//d, and at most N(d, p), the number of
    monic irreducibles of degree d, so its radix is min(n//d, N(d, p)) + 1.
    The top digit is the number of repeated factors, at most n//2.  The
    codes are uint16 where every code fits, else uint32; within
    MAX_BUDGET the largest code, 117573119, is at (p, n) = (2, 26).
    """
    count = [0]  # N(d, p) by Gauss: p^d is the sum of e*N(e, p) over e | d
    for d in range(1, n // 2 + 1):
        count.append((p**d - sum(e * count[e] for e in range(1, d) if d % e == 0)) // d)
    radices = [min(n // d, count[d]) + 1 for d in range(1, n // 2 + 1)] + [n // 2 + 1]
    for dtype in (np.uint16, np.uint32):
        if math.prod(radices) <= np.iinfo(dtype).max + 1:
            return radices, dtype
    raise ValueError(f"the type codes of degree {n} over F_{p} do not fit in 32 bits")


def _factor_codes(n: int, p: int) -> np.ndarray:
    """The type code of every monic degree-n polynomial, by index.

    Each product g*h with g irreducible of degree d <= n/2 adds the weight
    of digit d, and each g^2*h the weight of the top digit.  A repeated
    factor g has 2*deg(g) <= n, so exactly the polynomials that are not
    square-free get a square mark: their codes are the ones at or above
    the product of the lower radices.
    """
    radices, dtype = _type_code(n, p)
    irr = _irreducible_arrays(p, n // 2)
    codes = np.zeros(p**n, dtype=dtype)
    square = dtype(math.prod(radices[:-1]))
    for d in range(1, n // 2 + 1):
        g = irr[d]
        weight = dtype(math.prod(radices[: d - 1]))
        for idx in _product_indices(g, p, n - d):
            np.add.at(codes, idx, weight)
        squares = np.zeros((len(g), 2 * d + 1), dtype=np.int64)
        for i in range(d + 1):
            squares[:, i : i + d + 1] += g[:, i, None] * g
        for idx in _product_indices(_mod(squares, p), p, n - 2 * d):
            np.add.at(codes, idx, square)
    return codes


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


def _disc_counts(codes: np.ndarray, square: int, n: int, p: int) -> tuple[int, int]:
    """(residue, nonresidue): how many square-free codes have disc f a
    square, and how many a non-square, p odd.

    The square-free indices are gathered from windows of the code array
    and passed on in whole blocks of _disc_residues, the remainder carried
    into the next window, so no array of all of them is made.
    """
    block = _disc_block(n)
    residue = total = 0
    rest = np.empty(0, dtype=np.int64)
    for lo in range(0, codes.size, _CHUNK):
        idx = np.concatenate((rest, np.flatnonzero(codes[lo : lo + _CHUNK] < square) + lo))
        cut = len(idx) if lo + _CHUNK >= codes.size else len(idx) - len(idx) % block
        residue += int(np.count_nonzero(_disc_residues(idx[:cut], n, p)))
        total += cut
        rest = idx[cut:]
    return residue, total - residue


def _type_histogram(codes: np.ndarray, n: int, radices: list[int]) -> dict[tuple[int, ...], int]:
    """The number of square-free polynomials of each factorization type.

    The codes are sorted in place, which puts the square-free ones first,
    and each run of equal codes is found by binary search, so no other
    array of their length is made.  Each code is decoded once."""
    codes.sort()
    types = {}
    # a search key of another dtype would make searchsorted cast all codes
    lo, end = 0, int(codes.searchsorted(codes.dtype.type(math.prod(radices[:-1]))))
    while lo < end:
        code = codes[lo]
        hi = int(codes.searchsorted(code, side="right"))
        types[_code_type(int(code), n, radices)] = hi - lo
        lo = hi
    return types


def _stats_sieve(n: int, p: int, discriminants: bool) -> SquareFreeStats:
    radices, _ = _type_code(n, p)
    codes = _factor_codes(n, p)
    disc_residue = disc_nonresidue = None
    if discriminants and p % 2 == 1:
        # before the sort, which loses the indices
        disc_residue, disc_nonresidue = _disc_counts(codes, math.prod(radices[:-1]), n, p)
    return SquareFreeStats(
        n=n,
        p=p,
        total_monic=p**n,
        type_counts=tuple(sorted(_type_histogram(codes, n, radices).items())),
        disc_residue=disc_residue,
        disc_nonresidue=disc_nonresidue,
    )


def _stats_direct(n: int, p: int, discriminants: bool) -> SquareFreeStats:
    types: Counter[tuple[int, ...]] = Counter()
    residues: Counter[bool] = Counter()
    want_disc = discriminants and p % 2 == 1
    for f in _monic_polys(PrimeField(p), n):
        if is_squarefree(f):  # decided once here: the helpers below do not check it again
            types[_factor_degrees(f)] += 1
            if want_disc:
                residues[_disc_residue(f)] += 1
    return SquareFreeStats(
        n=n,
        p=p,
        total_monic=p**n,
        type_counts=tuple(sorted(types.items())),
        disc_residue=residues[True] if want_disc else None,
        disc_nonresidue=residues[False] if want_disc else None,
    )


def enumerate_stats(
    n: int,
    p: int,
    *,
    budget: int = DEFAULT_BUDGET,
    method: Literal["sieve", "direct"] = "sieve",
    discriminants: bool = True,
) -> SquareFreeStats:
    """Exact statistics over all p^n monic degree-n polynomials over F_p.

    Both methods visit every polynomial and must return identical stats;
    ``direct`` exists as the slow definitional cross-check of the
    vectorized ``sieve``.  Discriminant classes (odd p only) are still most
    of the time (about 90% at 7^6, 65% at 3137^2) and can be switched off.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    PrimeField(p)
    _check_budget(n, p, budget)
    if method == "sieve":
        return _stats_sieve(n, p, discriminants)
    if method == "direct":
        return _stats_direct(n, p, discriminants)
    raise ValueError(f"unknown enumeration method {method!r}")
