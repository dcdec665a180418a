"""Brute-force ground truth over prime fields F_p.

Enumerates all p^n monic degree-n polynomials and accumulates exact
factor statistics: square-free count, number of roots, number of
irreducible quadratic factors, the sign (-1)^(number of factors), and
discriminant residue classes.  Everything is integer arithmetic, so the
results are exact and byte-reproducible.

Two enumeration methods produce identical stats:

``direct``
    One polynomial at a time with the definitional scalar operations
    (derivative gcd for square-freeness, root counting, trial division,
    a Euclidean resultant for the discriminant).
    Simple, slow, used for cross-checks at small sizes.

``sieve``
    The default.  Irreducible polynomials of degree up to n/2 are
    generated by a sieve (a monic polynomial is composite exactly when
    it is a product g*h with g irreducible of at most half its degree);
    the per-polynomial factor counts are then accumulated by marking
    every product (irreducible g) * (monic h) of degree n with
    deg(g) <= n/2, and every g^2*h with a square mark.  The products
    are built in the index domain, vectorized with numpy: starting from
    the index of g*x^deg(h), each coefficient a of h adds a*g to a window
    of deg(g)+1 base-p digits, digit by digit mod p, so no coefficient
    rows are formed.  A repeated factor has degree at most n/2, so the
    square-free polynomials are exactly those without a square mark.
    Each is hit once per irreducible factor of degree <= n/2; when those
    degrees sum to S < n, the rest is one irreducible factor of degree
    n - S > n/2, whose counts are added when the code is read.  The
    statistics are read off one histogram of the packed per-polynomial
    counters, sorted in place.  Discriminant classes come from one
    batched Euclidean resultant Res(f', f) over all square-free
    polynomials at once, in digit-major int32 numpy blocks (int64 above
    p = 2^15), with Euler's criterion once per polynomial at the end.

A polynomial is encoded as the base-p integer of its non-leading
coefficients with the constant term fastest, which fixes the
enumeration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

#: hard cap on polynomial visits per enumeration call
DEFAULT_BUDGET = 10_000_000

#: the largest budget accepted anywhere: the sieve peaks at about 5 bytes
#: per polynomial (77 MiB at 5^10 = 9.8M polynomials, 29 MiB of which is
#: the interpreter with numpy; the same at 3137^2), and about 10 with
#: discriminant classes (9.8 at 5^9, 9.4 at 3137^2), so 10^8 polynomials
#: stay near 0.5 GiB, or 0.9 GiB;
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


def count_irreducible_factors(f: FieldPoly) -> int:
    """Number of (distinct) irreducible factors of a monic square-free f.

    Divides out factors in order of increasing degree; a divisor found at
    the lowest remaining degree is automatically irreducible.  Intended
    for small fields; cost grows like p^(n/2).
    """
    _require_squarefree(f, "the factor count")
    rem = f
    count = 0
    d = 1
    while rem.degree > 0:
        if 2 * d > rem.degree:
            count += 1
            break
        for g in _monic_polys(rem.field, d):
            if rem.degree >= d and (rem % g).is_zero():
                rem = rem // g
                count += 1
        d += 1
    return count


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
    block = max(1, _CHUNK // (n + 1))
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

    Degree d is sieved: mark every product of an irreducible of degree
    <= d/2 with a monic cofactor; the unmarked polynomials are
    irreducible.  At d = 1 nothing is marked, so all p linear
    polynomials are kept.
    """
    irr = _IRR_CACHE.setdefault(p, [np.empty((0, 1), dtype=np.int64)])
    for d in range(len(irr), max_degree + 1):
        composite = np.zeros(p**d, dtype=bool)
        for e in range(1, d // 2 + 1):
            for idx in _product_indices(irr[e], p, d - e):
                composite[idx] = True
        irr.append(_monic_rows(np.flatnonzero(~composite), p, d))
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

    ``disc_residue``/``disc_nonresidue`` are populated only when
    discriminants were requested and p is odd; otherwise None.
    """

    n: int
    p: int
    total_monic: int
    squarefree_count: int
    sum_n1: int
    sum_n1_pairs: int
    sum_n2: int
    mu_sum: int
    disc_residue: int | None = None
    disc_nonresidue: int | None = None


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


# packed per-polynomial counters, 5 bits each (every count is <= n <= 31),
# over the distinct irreducible factors of degree <= n/2; from bit 20 up,
# the number of repeated factors (at most n/2), so a polynomial is
# square-free exactly when its code is below _SQUARE
_FAC_SHIFT, _DEG_SHIFT, _LIN_SHIFT, _QUAD_SHIFT = 0, 5, 10, 15
_MASK = 31
_SQUARE = np.uint32(1 << 20)


def _factor_codes(n: int, p: int) -> np.ndarray:
    """The packed counters of every monic degree-n polynomial, by index.

    Each product g*h with g irreducible of degree d <= n/2 adds g's
    counters, and each g^2*h adds _SQUARE.  A repeated factor g has
    2*deg(g) <= n, so exactly the polynomials that are not square-free
    get a square mark.
    """
    if n > 31:
        raise ValueError("the sieve packs counters in 5 bits; degree must be <= 31")
    irr = _irreducible_arrays(p, n // 2)
    packed = np.zeros(p**n, dtype=np.uint32)
    for d in range(1, n // 2 + 1):
        code = np.uint32(
            (1 << _FAC_SHIFT)
            | (d << _DEG_SHIFT)
            | ((d == 1) << _LIN_SHIFT)
            | ((d == 2) << _QUAD_SHIFT)
        )
        g = irr[d]
        for idx in _product_indices(g, p, n - d):
            np.add.at(packed, idx, code)
        squares = np.zeros((len(g), 2 * d + 1), dtype=np.int64)
        for i in range(d + 1):
            squares[:, i : i + d + 1] += g[:, i, None] * g
        for idx in _product_indices(_mod(squares, p), p, n - 2 * d):
            np.add.at(packed, idx, _SQUARE)
    return packed


def _factor_counts(code: int, n: int) -> tuple[int, int, int] | None:
    """(distinct irreducible factors, n1, n2) of a square-free polynomial
    from its packed counters, or None when it is not square-free.

    Factors of degree <= n/2 are counted in the code.  Their degrees sum
    to some S <= n, and the rest is one irreducible factor of degree
    n - S > n/2, since two would have degrees summing past n.
    """
    if code >= _SQUARE:
        return None
    big = n - ((code >> _DEG_SHIFT) & _MASK)
    if 0 < 2 * big <= n:
        raise RuntimeError(f"square-free code {code:#x} leaves a factor of degree {big} unmarked")
    return (
        ((code >> _FAC_SHIFT) & _MASK) + (big > 0),
        ((code >> _LIN_SHIFT) & _MASK) + (big == 1),
        ((code >> _QUAD_SHIFT) & _MASK) + (big == 2),
    )


def _stats_sieve(n: int, p: int, discriminants: bool) -> SquareFreeStats:
    packed = _factor_codes(n, p)
    disc_residue = disc_nonresidue = None
    if discriminants and p % 2 == 1:
        # the square-free indices, which the sort below loses: int32, as
        # p^n <= MAX_BUDGET, found chunk by chunk so no int64 copy is made
        sf_indices = np.empty(np.count_nonzero(packed < _SQUARE), dtype=np.int32)
        k = 0
        for lo in range(0, packed.size, _CHUNK):
            found = np.flatnonzero(packed[lo : lo + _CHUNK] < _SQUARE) + lo
            sf_indices[k : k + len(found)] = found
            k += len(found)
        disc_residue = int(np.count_nonzero(_disc_residues(sf_indices, n, p)))
        disc_nonresidue = len(sf_indices) - disc_residue

    # every statistic is a total over the square-free codes, so one
    # histogram of the packed codes carries all of them; it is read off the
    # runs of the codes sorted in place, so no second p^n array is made
    packed.sort()
    starts = np.concatenate(([0], np.flatnonzero(packed[1:] != packed[:-1]) + 1))
    codes = packed[starts]
    counts = np.diff(np.append(starts, packed.size))
    stats = dict.fromkeys(
        ("squarefree_count", "sum_n1", "sum_n1_pairs", "sum_n2", "mu_sum"), 0
    )
    for code, count in zip(codes.tolist(), counts.tolist()):
        factors = _factor_counts(code, n)
        if factors is None:
            continue
        r, n1, n2 = factors
        stats["squarefree_count"] += count
        stats["sum_n1"] += count * n1
        stats["sum_n1_pairs"] += count * (n1 * (n1 - 1) // 2)
        stats["sum_n2"] += count * n2
        stats["mu_sum"] += -count if r % 2 else count

    return SquareFreeStats(
        n=n,
        p=p,
        total_monic=p**n,
        disc_residue=disc_residue,
        disc_nonresidue=disc_nonresidue,
        **stats,
    )


def _stats_direct(n: int, p: int, discriminants: bool) -> SquareFreeStats:
    field = PrimeField(p)
    total = p**n
    sf_count = sum_n1 = sum_pairs = sum_n2 = mu_sum = 0
    disc_residue = disc_nonresidue = None
    want_disc = discriminants and p % 2 == 1
    if want_disc:
        disc_residue = disc_nonresidue = 0
    for f in _monic_polys(field, n):
        if not is_squarefree(f):
            continue
        sf_count += 1
        n1 = count_linear_factors(f)
        sum_n1 += n1
        sum_pairs += n1 * (n1 - 1) // 2
        sum_n2 += count_irreducible_quadratic_factors(f)
        mu_sum += -1 if count_irreducible_factors(f) % 2 else 1
        if want_disc:
            if discriminant_class(f) == "residue":
                disc_residue += 1
            else:
                disc_nonresidue += 1
    return SquareFreeStats(
        n=n,
        p=p,
        total_monic=total,
        squarefree_count=sf_count,
        sum_n1=sum_n1,
        sum_n1_pairs=sum_pairs,
        sum_n2=sum_n2,
        mu_sum=mu_sum,
        disc_residue=disc_residue,
        disc_nonresidue=disc_nonresidue,
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
    of the time (about 90% at 7^6, 70% at 3137^2) and can be switched off.
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
