"""Truncated formal power series in u over an exact coefficient ring.

One series engine serves both Q (``fractions.Fraction`` coefficients)
and Q(q) (`RationalFunction` coefficients).  A ring is described by a
small `CoefficientRing` record; the elements themselves carry the
arithmetic through the usual operators, all of it exact.

A series tracks coefficients for u^0 .. u^N inclusive, where the
truncation order N is fixed at construction.  Binary operations take
the minimum of the operand orders, and `coefficient` refuses to read
past the order rather than silently returning zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping

from .exact import RationalFunction


@dataclass(frozen=True)
class CoefficientRing:
    """The capabilities the series engine needs from a coefficient ring.

    The ring must contain Q: `from_fraction` is what makes the exp/log
    recurrences (which divide by integers) possible.  Elements render
    through ``str``.
    """

    name: str
    zero: Any
    one: Any
    from_fraction: Callable[[Fraction], Any]


RATIONALS = CoefficientRing(
    name="Q",
    zero=Fraction(0),
    one=Fraction(1),
    from_fraction=Fraction,
)

RATIONAL_FUNCTIONS = CoefficientRing(
    name="Q(q)",
    zero=RationalFunction(0),
    one=RationalFunction(1),
    from_fraction=RationalFunction.from_fraction,
)


class TruncatedSeries:
    """A power series known through order N, immutable after construction."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoefficientRing, coeffs: Iterable[Any]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_terms(ring: CoefficientRing, order: int, terms: Mapping[int, Any]) -> "TruncatedSeries":
        """Series with the given nonzero terms, zero elsewhere."""
        cs = [ring.zero] * (order + 1)
        for k, v in terms.items():
            if k < 0:
                raise ValueError("negative exponent in a power series")
            if k <= order:
                cs[k] = v
        return TruncatedSeries(ring, cs)

    @staticmethod
    def constant(ring: CoefficientRing, value: Any, order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_terms(ring, order, {0: value})

    @staticmethod
    def one(ring: CoefficientRing, order: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(ring, ring.one, order)

    @staticmethod
    def u(ring: CoefficientRing, order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_terms(ring, order, {1: ring.one})

    # -- queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        """The coefficient of u^n; it is an error to read past the order."""
        if n < 0:
            raise IndexError(f"negative exponent {n}")
        if n > self.order:
            raise IndexError(
                f"coefficient {n} requested from a series of order {self.order}"
            )
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.ring, self.coeffs[: order + 1])

    # -- ring operations -----------------------------------------------

    def _common_order(self, other: "TruncatedSeries") -> int:
        if self.ring is not other.ring:
            raise ValueError(
                f"mixing series over {self.ring.name} and {other.ring.name}"
            )
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._common_order(other)
        return TruncatedSeries(
            self.ring, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)]
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._common_order(other)
        return TruncatedSeries(
            self.ring, [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)]
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._common_order(other)
        zero = self.ring.zero
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == zero:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != zero:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.ring, out)

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, [c * x for x in self.coeffs])

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = self._common_order(other)
        zero = self.ring.zero
        g0 = other.coeffs[0]
        if g0 == zero:
            raise ZeroDivisionError("series division: constant term is not a unit")
        inv = self.ring.one / g0
        out = [zero] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                b = other.coeffs[j]
                if b != zero and out[k - j] != zero:
                    acc = acc - b * out[k - j]
            out[k] = acc * inv
        return TruncatedSeries(self.ring, out)

    # -- transcendental operations --------------------------------------

    def log(self) -> "TruncatedSeries":
        """Formal log; requires constant term 1.

        Computed through (log f)' = f'/f followed by termwise
        integration, which needs only one series division.
        """
        if self.coeffs[0] != self.ring.one:
            raise ValueError("series log requires constant term 1")
        h = self.derivative() / self.truncate(self.order - 1 if self.order else 0)
        zero = self.ring.zero
        out = [zero] * (self.order + 1)
        for k in range(1, self.order + 1):
            c = h.coeffs[k - 1]
            if c != zero:
                out[k] = c * self.ring.from_fraction(Fraction(1, k))
        return TruncatedSeries(self.ring, out)

    def exp(self) -> "TruncatedSeries":
        """Formal exp; requires constant term 0.

        Uses the recurrence g' = f' g, i.e.
        n*g_n = sum_{k=1..n} k * f_k * g_{n-k}.
        """
        zero = self.ring.zero
        if self.coeffs[0] != zero:
            raise ValueError("series exp requires constant term 0")
        n = self.order
        weighted = [self.ring.from_fraction(k) * self.coeffs[k] for k in range(n + 1)]
        out = [zero] * (n + 1)
        out[0] = self.ring.one
        for m in range(1, n + 1):
            acc = zero
            for k in range(1, m + 1):
                w = weighted[k]
                if w != zero and out[m - k] != zero:
                    acc = acc + w * out[m - k]
            out[m] = acc * self.ring.from_fraction(Fraction(1, m))
        return TruncatedSeries(self.ring, out)

    def pow(self, e: int) -> "TruncatedSeries":
        """f**e for an integer e, by repeated squaring (f must be a unit if e < 0)."""
        if e < 0:
            return (TruncatedSeries.one(self.ring, self.order) / self).pow(-e)
        out = TruncatedSeries.one(self.ring, self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def substitute(self, c, d: int = 1) -> "TruncatedSeries":
        """g(u) = f(c * u^d), truncated at the original order."""
        if d < 1:
            raise ValueError("substitution exponent must be a positive integer")
        zero = self.ring.zero
        out = [zero] * (self.order + 1)
        ck = self.ring.one
        for k, a in enumerate(self.coeffs):
            if k * d > self.order:
                break
            if a != zero:
                out[k * d] = a * ck
            ck = ck * c
        return TruncatedSeries(self.ring, out)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/du, one order lower."""
        if self.order == 0:
            return TruncatedSeries(self.ring, [self.ring.zero])
        return TruncatedSeries(
            self.ring,
            [self.ring.from_fraction(k) * self.coeffs[k] for k in range(1, self.order + 1)],
        )

    # -- comparisons / rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring.name, self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.ring.name}, order={self.order})"

    def __str__(self) -> str:
        return render_series(self)


def render_series(f: TruncatedSeries) -> str:
    """Canonical text form ``c0 + c1*u + c2*u^2 + ...``.

    Every tracked coefficient is printed, including zeros, so two series
    render identically exactly when they are equal at the same order.
    """
    parts = []
    for k, c in enumerate(f.coeffs):
        body = str(c)
        if any(ch in body for ch in " +-/*"):
            body = f"({body})"
        if k == 0:
            parts.append(body)
        elif k == 1:
            parts.append(f"{body}*u")
        else:
            parts.append(f"{body}*u^{k}")
    return " + ".join(parts)
