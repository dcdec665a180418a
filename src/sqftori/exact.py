"""Exact arithmetic in Q and in the field Q(q) of rational functions.

Rational scalars are ``fractions.Fraction`` (already canonical: reduced,
positive denominator).  On top of that this module provides dense
polynomials in the indeterminate q over Q (`QPoly`) and their quotient
field (`RationalFunction`), plus the order of the general linear group
|GL(n,q)| as a polynomial in q, built by `_times_q_power_minus_one`, the
one product by q^i - 1 on integer numerators; `sqfree` and `tori` share
it and its inverse `_divided_by_q_power_minus_one`.

A `QPoly` is stored as integer numerators over one positive common
denominator, (z_0 + z_1 q + ... + z_m q^m) / d with gcd(d, z_0, ..., z_m)
= 1, so all of its arithmetic runs on Python ints: exact division by a
primitive factor is integer division.  Its readers (`coeffs`, indexing,
`leading`, `eval`) still return Fractions.

`poly_gcd` is the one polynomial gcd: a primitive remainder sequence on
the primitive parts, by pseudo-division over Z, returning the cofactors
with the gcd, so cancelling never divides twice.  The report routes
rarely reach it: every denominator of the paper's formulas is a product
of q and of factors q^i - 1, which they cancel by synthetic division
before a value enters Q(q), and whatever is left over a power of q, or
is a power of q over anything (every Euler coefficient), comes off in
`_cancel` with no gcd.

Everything here is immutable and exact; there is no floating point.
Rational functions are kept in a canonical form (numerator and
denominator coprime, denominator monic) so that equality is plain
representation equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]

_new = object.__new__
_set = object.__setattr__


class QPoly:
    """Dense univariate polynomial in q over the rationals.

    The value is sum(z[k] q^k) / d: `z` holds integer numerators lowest
    degree first, with trailing zeros trimmed, and `d` is a positive
    integer coprime to them.  The zero polynomial has z = () and d = 1
    and degree -1.  Equal polynomials have equal (z, d).
    """

    __slots__ = ("z", "d")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        fs = [Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in fs))
        z = [c.numerator * (d // c.denominator) for c in fs]
        while z and not z[-1]:
            z.pop()
        # with d the lcm of the denominators, gcd(d, z) is already 1
        _set(self, "z", tuple(z))
        _set(self, "d", d if z else 1)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("QPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c: Scalar) -> "QPoly":
        c = Fraction(c)
        return _raw((c.numerator,) if c else (), c.denominator)

    @staticmethod
    def q_power(k: int) -> "QPoly":
        """q^k."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        return _raw((0,) * k + (1,), 1)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(c, self.d) for c in self.z)

    @property
    def degree(self) -> int:
        return len(self.z) - 1

    def is_zero(self) -> bool:
        return not self.z

    def leading(self) -> Fraction:
        if not self.z:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.z[-1], self.d)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.z):
            return Fraction(self.z[k], self.d)
        return Fraction(0)

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero polynomial)."""
        for i, c in enumerate(self.z):
            if c:
                return i
        return 0

    def is_monomial(self) -> bool:
        """True for c*q^k with a single nonzero term (constants included)."""
        return bool(self.z) and not any(self.z[:-1])

    def shift_down(self, k: int) -> "QPoly":
        """Divide by q^k; only valid when the valuation is at least k."""
        if k == 0:
            return self
        if any(self.z[:k]):
            raise ValueError(f"polynomial is not divisible by q^{k}")
        return _raw(self.z[k:], self.d)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b, d = self.z, other.z, self.d
        if d != other.d:
            g = gcd(d, other.d)
            sa, sb = other.d // g, d // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            d *= sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, d)

    def __neg__(self) -> "QPoly":
        return _raw(tuple([-c for c in self.z]), self.d)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        return _poly(_mul(self.z, other.z), self.d * other.d)

    def __pow__(self, k: int) -> "QPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, c: int) -> "QPoly":
        """The polynomial divided by a nonzero integer c."""
        if not c:
            raise ZeroDivisionError("polynomial division by zero")
        return _poly(list(self.z), self.d * c)

    def eval(self, x: Scalar) -> Fraction:
        """Exact value at x, by Horner's rule on the numerator of x."""
        x = Fraction(x)
        n, m = x.numerator, x.denominator
        acc, mk = 0, 1
        for c in reversed(self.z):
            acc = acc * n + c * mk
            mk *= m
        # acc = sum z_k n^k m^(deg-k) and mk = m^(deg+1)
        return Fraction(acc * m, mk * self.d)

    # -- comparisons / hashing -----------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.d == other.d and self.z == other.z

    def __hash__(self) -> int:
        return hash((self.z, self.d))

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return render_poly(self)


def _raw(z: tuple[int, ...], d: int) -> QPoly:
    """The QPoly z/d from numerators and denominator already in canonical form."""
    p = _new(QPoly)
    _set(p, "z", z)
    _set(p, "d", d)
    return p


def _poly(z: list[int], d: int) -> QPoly:
    """The QPoly z/d for any integer numerators and nonzero d."""
    while z and not z[-1]:
        z.pop()
    if not z:
        return _ZERO
    if d < 0:
        z = [-c for c in z]
        d = -d
    g = gcd(d, *z)
    if g != 1:
        z = [c // g for c in z]
        d //= g
    return _raw(tuple(z), d)


_ZERO = _raw((), 1)
_ONE = _raw((1,), 1)


# ---------------------------------------------------------------------------
# Z[q] kernels on numerator lists, lowest degree first
# ---------------------------------------------------------------------------


def _mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def _times_q_power_minus_one(z: list[int], i: int) -> list[int]:
    """The integer numerators z times q^i - 1: z shifted up by i, minus z."""
    out = [0] * i + z
    for k, c in enumerate(z):
        out[k] -= c
    return out


def _divided_by_q_power_minus_one(z: list[int], i: int) -> list[int]:
    """The integer numerators z divided by q^i - 1, the inverse of
    `_times_q_power_minus_one`, by synthetic division: each quotient digit
    is a running sum from the top along its residue class mod i, and the
    remainder, which must be zero, is left in the i lowest places."""
    z = list(z)
    for r in range(i):
        z[r::i] = list(accumulate(z[r::i][::-1]))[::-1]
    if any(z[:i]):
        raise ArithmeticError(f"not divisible by q^{i} - 1")
    return z[i:]


def _pseudo_divmod(a, b) -> tuple[list[int], list[int], int]:
    """(quot, rem, m) with m*a = quot*b + rem over Z and deg rem < deg b.

    The running remainder is multiplied by a factor of lc(b) only at a
    step whose leading coefficient lc(b) does not divide, so m stays 1
    whenever the division is exact over Z.
    """
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    quot = [0] * max(len(rem) - db, 0)
    m = 1
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if not c:
            continue
        if c % lb:
            f = lb // gcd(c, lb)
            rem = [x * f for x in rem]
            quot = [x * f for x in quot]
            m *= f
            c *= f
        c //= lb
        quot[k - db] = c
        for j, cb in enumerate(b, k - db):
            rem[j] -= c * cb
    return quot, rem, m


def _exact_quotient(a, b) -> list[int] | None:
    """a / b when b divides a in Z[q], else None (b nonzero).

    Long division by b stays in Z exactly when the quotient is in Z[q],
    so the pseudo-division then needs no factor of lc(b).
    """
    quot, rem, m = _pseudo_divmod(a, b)
    return quot if m == 1 and not any(rem) else None


def _primitive(z) -> tuple[int, list[int]]:
    """(c, f) with z = c*f, f primitive with a positive leading coefficient."""
    c = gcd(*z)
    if z[-1] < 0:
        c = -c
    return c, [x // c for x in z]


def _euclidean_gcd(f, g) -> tuple[list[int], list[int], list[int]]:
    """(h, f/h, g/h) for primitive f, g of positive degree, by a primitive
    remainder sequence over Z.

    Each pseudo-remainder is replaced by its primitive part, which keeps
    the coefficients small, so the last nonzero one, h, is primitive with
    a positive leading coefficient.
    """
    h, b = f, g
    while b:
        rem = _pseudo_divmod(h, b)[1]
        while rem and not rem[-1]:
            rem.pop()
        h, b = b, _primitive(rem)[1] if rem else rem
    return h, _exact_quotient(f, h), _exact_quotient(g, h)


def poly_gcd(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly, QPoly]:
    """(g, a/g, b/g) with g the monic gcd of a and b over Q: the one gcd,
    `_euclidean_gcd` on the primitive parts in Z[q].  The gcd of two zero
    polynomials is zero, with zero cofactors.  The report routes cancel the
    factors q and q^i - 1 they know of instead (see the module docstring).
    """
    if not b.z:
        if not a.z:
            return _ZERO, _ZERO, _ZERO
        return _poly(list(a.z), a.z[-1]), QPoly.constant(a.leading()), _ZERO
    if not a.z:
        return _poly(list(b.z), b.z[-1]), _ZERO, QPoly.constant(b.leading())
    if len(a.z) == 1 or len(b.z) == 1:
        return _ONE, a, b
    ca, f = _primitive(a.z)
    cb, g = _primitive(b.z)
    h, cf, cg = _euclidean_gcd(f, g)
    if len(h) == 1:
        return _ONE, a, b
    # a = (ca/a.d) * h * cf and g = h/lc(h), so a/g = (ca*lc(h)/a.d) * cf;
    # h/lc(h) is canonical as it stands, since h is primitive and lc(h) > 0
    lh = h[-1]
    return (
        _raw(tuple(h), lh),
        _poly([c * ca * lh for c in cf], a.d),
        _poly([c * cb * lh for c in cg], b.d),
    )


class RationalFunction:
    """An element of Q(q) in canonical form.

    Invariants: the denominator is nonzero and monic, and numerator and
    denominator are coprime.  Equal values therefore have identical
    representations, so ``==`` is a plain tuple comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(q)")
        _set_canonical(self, *_cancel(num, den))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RationalFunction is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(c: Scalar) -> "RationalFunction":
        return _coprime(QPoly.constant(c), _ONE)

    @staticmethod
    def q_power(k: int) -> "RationalFunction":
        """q^k for any integer k (negative k gives 1/q^|k|)."""
        if k >= 0:
            return _coprime(QPoly.q_power(k), _ONE)
        return _coprime(_ONE, QPoly.q_power(-k))

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == _ONE

    def as_polynomial(self) -> QPoly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __radd__(self, other) -> "RationalFunction":
        return self.__add__(other)

    def __neg__(self) -> "RationalFunction":
        out = _new(RationalFunction)
        _set(out, "num", -self.num)
        _set(out, "den", self.den)
        return out

    def __sub__(self, other) -> "RationalFunction":
        return self + (-_as_rf(other))

    def __rsub__(self, other) -> "RationalFunction":
        return _as_rf(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        # cross-cancel, after which the products are already coprime
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return _coprime(n1 * n2, d1 * d2)

    def __rmul__(self, other) -> "RationalFunction":
        return self.__mul__(other)

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        n1, n2 = _cancel(self.num, other.num)
        d1, d2 = _cancel(other.den, self.den)
        return _coprime(n1 * d1, d2 * n2)

    def __rtruediv__(self, other) -> "RationalFunction":
        return _as_rf(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero in Q(q)")
            return _coprime(self.den, self.num) ** (-k)
        out = _new(RationalFunction)
        _set(out, "num", self.num ** k)
        _set(out, "den", self.den ** k)
        return out

    def eval(self, q0: Scalar) -> Fraction:
        """Exact value at q = q0; raises ZeroDivisionError at a pole."""
        d = self.den.eval(q0)
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {q0}")
        return self.num.eval(q0) / d

    # -- comparisons / hashing -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RationalFunction.from_fraction(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # a constant compares equal to its int or Fraction, so hashes like it
        if self.den.z == (1,) and len(self.num.z) <= 1:
            return hash(self.num[0])
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        return render_rational_function(self)

    # -- expansions ----------------------------------------------------

    def inverse_q_expansion(self, order: int) -> list[Fraction]:
        """Coefficients of the expansion in powers of 1/q.

        Returns ``[c_0, c_1, ..., c_order]`` with
        f = c_0 + c_1/q + c_2/q^2 + ...; requires deg num <= deg den
        (otherwise f blows up as q -> infinity).
        """
        if self.is_zero():
            return [Fraction(0)] * (order + 1)
        shift = self.den.degree - self.num.degree
        if shift < 0:
            raise ValueError("no expansion at q = infinity: numerator degree too large")
        # substitute q = 1/t and read off the Taylor series in t
        rnum = list(reversed(self.num.coeffs))
        rden = list(reversed(self.den.coeffs))
        out: list[Fraction] = []
        state = [Fraction(0)] * shift + rnum + [Fraction(0)] * (order + 1)
        lead = rden[0]
        for k in range(order + 1):
            c = state[k] / lead
            out.append(c)
            if c:
                for j, d in enumerate(rden):
                    state[k + j] -= c * d
        return out


def _set_canonical(out: RationalFunction, num: QPoly, den: QPoly) -> None:
    """Store num/den, coprime with den nonzero, in `out` with den made monic."""
    if not num.z:
        num, den = _ZERO, _ONE
    elif den.z[-1] != den.d:
        # dividing both by lc(den) = den.z[-1] / den.d
        lc = den.z[-1]
        num = _poly([c * den.d for c in num.z], num.d * lc)
        den = _poly(list(den.z), lc)
    _set(out, "num", num)
    _set(out, "den", den)


def _coprime(num: QPoly, den: QPoly) -> RationalFunction:
    """num/den in canonical form, for coprime num and nonzero den."""
    out = _new(RationalFunction)
    _set_canonical(out, num, den)
    return out


def _as_poly(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial in q")


def _as_rf(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, QPoly)):
        return RationalFunction(x)
    raise TypeError(f"cannot interpret {x!r} as an element of Q(q)")


def _cancel(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly]:
    """a/g and b/g for g = gcd(a, b), with the cheap cases first."""
    if a.degree < 1 or b.degree < 1:
        return a, b
    # common powers of q come off cheaply and cover the frequent
    # monomial denominators without a gcd
    v = min(a.valuation(), b.valuation())
    if v:
        a = a.shift_down(v)
        b = b.shift_down(v)
        if a.degree < 1 or b.degree < 1:
            return a, b
    # a monomial shares no factor beyond the stripped q-power
    if a.is_monomial() or b.is_monomial():
        return a, b
    _, a, b = poly_gcd(a, b)
    return a, b


ZERO = RationalFunction(QPoly())
ONE = RationalFunction(_ONE)
Q = RationalFunction(QPoly.q_power(1))


@lru_cache(maxsize=None)
def gl_order(n: int) -> QPoly:
    """|GL(n,q)| as a polynomial in q: q^C(n,2) * prod_{i=1}^{n} (q^i - 1).

    n = 0 gives the empty product 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    z = reduce(_times_q_power_minus_one, range(1, n + 1), [0] * (n * (n - 1) // 2) + [1])
    return _raw(tuple(z), 1)


# ---------------------------------------------------------------------------
# canonical text rendering
# ---------------------------------------------------------------------------


#: canonical forms whose text `render_poly` keeps, the most recently used
_RENDER_MEMO = 1024


def render_poly(p: QPoly) -> str:
    """q-descending text form, e.g. ``q^2 - q`` or ``1/2*q^2 + 3``.

    The text is a function of the canonical (z, d) alone, so it is kept
    per canonical form: the two sides of a passing report are one value,
    and a value that several rows read is rendered once.
    """
    return _render(p.z, p.d)


@lru_cache(maxsize=_RENDER_MEMO)
def _render(z: tuple[int, ...], d: int) -> str:
    if not z:
        return "0"
    parts: list[str] = []
    for k in range(len(z) - 1, -1, -1):
        c = z[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        # |c|/d in lowest terms, written as str(Fraction) writes it
        g = gcd(c, d)
        mag, den = abs(c) // g, d // g
        coeff = str(mag) if den == 1 else f"{mag}/{den}"
        if k == 0:
            body = coeff
        else:
            var = "q" if k == 1 else f"q^{k}"
            body = var if coeff == "1" else f"{coeff}*{var}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def render_rational_function(f: RationalFunction) -> str:
    """Canonical ``num / den`` form; plain polynomial when den = 1."""
    if f.is_polynomial():
        return render_poly(f.num)
    return f"({render_poly(f.num)})/({render_poly(f.den)})"

