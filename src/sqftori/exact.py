"""Exact arithmetic in Q and in the field Q(q) of rational functions.

Rational scalars are ``fractions.Fraction`` (already canonical: reduced,
positive denominator).  On top of that this module provides dense
polynomials in the indeterminate q over Q (`QPoly`) and their quotient
field (`RationalFunction`), plus the order of the general linear group
|GL(n,q)| as a polynomial in q.

A `QPoly` is stored as integer numerators over one positive common
denominator, (z_0 + z_1 q + ... + z_m q^m) / d with gcd(d, z_0, ..., z_m)
= 1, so all of its arithmetic runs on Python ints: division with
remainder is pseudo-division over Z, and exact division by a primitive
factor is integer division.  Its readers (`coeffs`, indexing, `leading`,
`eval`) still return Fractions.

`poly_gcd` is the heuristic GCDHEU of Char, Geddes and Gonnet (1989) on
the primitive parts: it evaluates both at a large integer, takes the
integer gcd, reads a candidate back from its symmetric base-x digits and
keeps it only when it divides both operands exactly.  When a few
evaluation points all fail it falls back to the Euclidean algorithm.  It
returns the cofactors with the gcd, so cancelling never divides twice.

Everything here is immutable and exact; there is no floating point.
Rational functions are kept in a canonical form (numerator and
denominator coprime, denominator monic) so that equality is plain
representation equality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
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
    def q_power(k: int, c: Scalar = 1) -> "QPoly":
        """c * q^k."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        c = Fraction(c)
        return _raw((0,) * k + (c.numerator,) if c else (), c.denominator)

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
        return _raw(tuple(-c for c in self.z), self.d)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        return _poly(_mul(self.z, other.z), self.d * other.d)

    def scale(self, c: Scalar) -> "QPoly":
        c = Fraction(c)
        return _poly([x * c.numerator for x in self.z], self.d * c.denominator)

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

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Exact polynomial division with remainder over Q.

        Pseudo-division over Z gives m*a = quot*b + rem for the numerators;
        the Q quotient and remainder are those divided by m.
        """
        if not other.z:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem, m = _pseudo_divmod(self.z, other.z)
        return _poly([c * other.d for c in quot], self.d * m), _poly(rem, self.d * m)

    def __floordiv__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

    def monic(self) -> "QPoly":
        if not self.z:
            return self
        return _poly(list(self.z), self.z[-1])

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


def _value(f, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _symmetric_digits(v: int, x: int) -> list[int]:
    """The polynomial h with h(x) = v and every |coefficient| <= x/2."""
    out = []
    half = x // 2
    while v:
        v, c = divmod(v, x)
        if c > half:
            c -= x
            v += 1
        out.append(c)
    return out


#: evaluation points GCDHEU tries before falling back to the Euclidean gcd
_HEU_TRIES = 6


def _heu_gcd(f, g) -> tuple[list[int], list[int], list[int]] | None:
    """GCDHEU: (h, f/h, g/h) for primitive f, g of positive degree, or None.

    h is the gcd of f and g in Z[q], primitive with a positive leading
    coefficient.  It is read off gcd(f(x), g(x)) as symmetric base-x
    digits and kept when it divides both f and g.  Every evaluation
    point x is at least 2*M + 2, where M bounds the roots of f or of g
    (Cauchy: |root| < 1 + max|coefficient| / |lc|), so that one does not
    vanish at x.  At such x a common divisor found this way is the
    greatest: were the gcd h*k, k(x) would divide the content of the
    digit polynomial, whose coefficients are at most x/2, while every
    root of k lies within M of 0, so |k(x)| > (x - 1 - M)^deg k >= x/2
    unless k is constant.
    """
    fn, gn = max(map(abs, f)), max(map(abs, g))
    bound = 2 * min(fn, gn) + 29
    x = max(
        min(bound, 99 * isqrt(bound)),
        2 * min(fn // abs(f[-1]), gn // abs(g[-1])) + 4,
    )
    for _ in range(_HEU_TRIES):
        h = _primitive(_symmetric_digits(gcd(_value(f, x), _value(g, x)), x))[1]
        cf = _exact_quotient(f, h)
        if cf is not None:
            cg = _exact_quotient(g, h)
            if cg is not None:
                return h, cf, cg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _euclidean_gcd(f, g) -> tuple[list[int], list[int], list[int]]:
    """(h, f/h, g/h) by the Euclidean algorithm over Q; the GCDHEU fallback.

    h is primitive with a positive leading coefficient, as from GCDHEU.
    Remainders are rescaled to monic at every step, which keeps their
    coefficients small.
    """
    a, b = _raw(tuple(f), 1), _raw(tuple(g), 1)
    while not b.is_zero():
        a, b = b, (a % b).monic()
    h = _primitive(a.z)[1]
    return h, _exact_quotient(f, h), _exact_quotient(g, h)


def poly_gcd(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly, QPoly]:
    """(g, a/g, b/g) with g the monic gcd of a and b over Q.

    The gcd of two zero polynomials is zero, with zero cofactors.  The
    work is done on the primitive parts in Z[q], by GCDHEU (`_heu_gcd`)
    and, when that gives up, by the Euclidean algorithm.
    """
    if not a.z or not b.z:
        if not b.z:
            return a.monic(), QPoly.constant(a.leading()) if a.z else _ZERO, _ZERO
        return b.monic(), _ZERO, QPoly.constant(b.leading())
    if len(a.z) == 1 or len(b.z) == 1:
        return _ONE, a, b
    ca, f = _primitive(a.z)
    cb, g = _primitive(b.z)
    h, cf, cg = _heu_gcd(f, g) or _euclidean_gcd(f, g)
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
    out = QPoly.q_power(n * (n - 1) // 2)
    for i in range(1, n + 1):
        out = out * (QPoly.q_power(i) - _ONE)
    return out


# ---------------------------------------------------------------------------
# canonical text rendering and parsing
# ---------------------------------------------------------------------------


def render_poly(p: QPoly) -> str:
    """q-descending text form, e.g. ``q^2 - q`` or ``1/2*q^2 + 3``."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.z[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        # |c|/d in lowest terms, written as str(Fraction) writes it
        g = gcd(c, p.d)
        mag, den = abs(c) // g, p.d // g
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


_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?(?:q(?:\^(?P<exp>\d+))?)?$"
)


def _parse_poly(text: str) -> QPoly:
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    # split into signed terms at top level (no parentheses inside a poly)
    chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
    acc = QPoly()
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and "q" not in chunk):
            raise ValueError(f"cannot parse term {chunk!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if "q" in chunk:
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        acc = acc + QPoly.q_power(exp, sign * coef)
    return acc


def parse_rational_function(text: str) -> RationalFunction:
    """Parse the canonical text form produced by rendering.

    Accepts either a bare polynomial (``q^2 - q``) or the quotient form
    ``(num)/(den)``.
    """
    text = text.strip()
    if text.startswith("("):
        m = re.fullmatch(r"\((?P<num>[^()]*)\)\s*/\s*\((?P<den>[^()]*)\)", text)
        if not m:
            raise ValueError(f"cannot parse rational function {text!r}")
        return RationalFunction(_parse_poly(m.group("num")), _parse_poly(m.group("den")))
    return RationalFunction(_parse_poly(text))
