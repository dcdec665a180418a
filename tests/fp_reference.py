"""The scalar F_p reference that the tests hold the sieve of ``sqftori.ffpoly`` to.

One polynomial at a time, by the definitional operations: derivative gcd,
trial division, a Euclidean resultant, and root counting, the one check
that does not rest on trial division.  Simple and slow; only tests call
it, so it checks no input.  ``monic_polys`` walks the polynomials in the
sieve's index order: base p, constant term fastest.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator

from sqftori.ffpoly import SquareFreeStats


class FieldPoly:
    """Dense polynomial over F_p, coefficients lowest degree first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p, self.coeffs = p, tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: FieldPoly) -> FieldPoly:
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FieldPoly(self.p, out)

    def __divmod__(self, other: FieldPoly) -> tuple[FieldPoly, FieldPoly]:
        p, db = self.p, other.degree
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - db, 0)
        inv = pow(other.coeffs[-1], p - 2, p)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] * inv % p
            if c:
                quot[k - db] = c
                for j, b in enumerate(other.coeffs):
                    rem[k - db + j] -= c * b
        return FieldPoly(p, quot), FieldPoly(p, rem)

    def __mod__(self, other: FieldPoly) -> FieldPoly:
        return divmod(self, other)[1]

    def monic(self) -> FieldPoly:
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return FieldPoly(self.p, [c * inv for c in self.coeffs])

    def derivative(self) -> FieldPoly:
        return FieldPoly(self.p, [k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldPoly) and (self.p, self.coeffs) == (other.p, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"FieldPoly({self.p}, {list(self.coeffs)})"


def poly_gcd(a: FieldPoly, b: FieldPoly) -> FieldPoly:
    """Monic gcd by the Euclidean algorithm; gcd(f, 0) = monic f."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_squarefree(f: FieldPoly) -> bool:
    """True when gcd(f, f') is constant."""
    return poly_gcd(f, f.derivative()).degree == 0


def monic_polys(p: int, degree: int) -> Iterator[FieldPoly]:
    """All monic polynomials of the given degree over F_p, in index order."""
    for high in itertools.product(range(p), repeat=degree):
        yield FieldPoly(p, high[::-1] + (1,))


def count_linear_factors(f: FieldPoly) -> int:
    """Number of roots of f in F_p: its linear factors, f square-free."""
    return sum(f.eval(x) == 0 for x in range(f.p))


def factor_degrees(f: FieldPoly) -> tuple[int, ...]:
    """The factorization type of a square-free f: the degrees of its
    irreducible factors, largest first, a partition of deg f.

    Divides out factors in order of increasing degree; a divisor found at
    the lowest remaining degree is irreducible, and what is left once
    twice that degree exceeds its own is irreducible.  Cost grows like
    p^(n/2).
    """
    rem, degrees, d = f, [], 1
    while rem.degree > 0:
        if 2 * d > rem.degree:
            degrees.append(rem.degree)
            break
        for g in monic_polys(f.p, d):
            q, r = divmod(rem, g)
            if r.is_zero():
                rem = q
                degrees.append(d)
        d += 1
    return tuple(reversed(degrees))


def resultant(a: FieldPoly, b: FieldPoly) -> int:
    """Res(a, b) in F_p, with the convention

        Res(a, b) = lc(a)^deg(b) * prod over roots alpha of a of b(alpha),

    by the Euclidean remainder recurrence; zero exactly when gcd(a, b) is
    nonconstant.  Neither a nor b is zero."""
    p, res = a.p, 1
    while True:
        da, db = a.degree, b.degree
        if da == 0:
            return res * pow(a.coeffs[0], db, p) % p
        if db == 0:
            return res * pow(b.coeffs[0], da, p) % p
        if da * db % 2:
            res = -res % p
        if da < db:
            a, b = b, a
            continue
        r = a % b
        if r.is_zero():
            return 0
        res = res * pow(b.coeffs[-1], da - r.degree, p) % p
        a, b = b, r


def disc_residue(f: FieldPoly) -> bool:
    """True when disc f = (-1)^(n(n-1)/2) Res(f, f') is a nonzero square in
    F_p, by Euler's criterion, for odd p and monic square-free f."""
    n, p = f.degree, f.p
    r = resultant(f, f.derivative())
    if n * (n - 1) // 2 % 2:
        r = -r % p
    return pow(r, (p - 1) // 2, p) == 1


def stats_direct(n: int, p: int) -> SquareFreeStats:
    """``enumerate_stats(n, p)`` by the walk over all p^n polynomials, with
    discriminant classes at odd p."""
    types: Counter[tuple[int, ...]] = Counter()
    residues: Counter[bool] = Counter()
    for f in monic_polys(p, n):
        if is_squarefree(f):
            types[factor_degrees(f)] += 1
            if p % 2:
                residues[disc_residue(f)] += 1
    disc = (residues[True], residues[False]) if p % 2 else (None, None)
    return SquareFreeStats(n, p, p**n, tuple(sorted(types.items())), *disc)
