"""Truncated formal power series in u over Q(q).

Every generating function of the paper lives in Q(q): the degree
products, the torus cycle index and the Euler series.  Coefficients are
`RationalFunction` elements, and all arithmetic on them is exact.

A series tracks coefficients for u^0 .. u^N inclusive, where the
truncation order N is fixed at construction.  Binary operations take
the minimum of the operand orders.

A generating function that is only read coefficient by coefficient has no
order: `ExpCoefficients` computes the coefficients of an exp on demand,
each once, and `TruncatedSeries.exp` reads it up to the series' order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exact import ONE, ZERO, RationalFunction


class TruncatedSeries:
    """A power series known through order N, immutable after construction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalFunction]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_terms(order: int, terms: Mapping[int, RationalFunction]) -> "TruncatedSeries":
        """Series with the given nonzero terms, zero elsewhere."""
        cs = [ZERO] * (order + 1)
        for k, v in terms.items():
            if k < 0:
                raise ValueError("negative exponent in a power series")
            if k <= order:
                cs[k] = v
        return TruncatedSeries(cs)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_terms(order, {0: ONE})

    # -- queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    # -- ring operations -----------------------------------------------

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == ZERO:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != ZERO:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        g0 = other.coeffs[0]
        if g0 == ZERO:
            raise ZeroDivisionError("series division: constant term is not a unit")
        inv = ONE / g0
        out = [ZERO] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                b = other.coeffs[j]
                if b != ZERO and out[k - j] != ZERO:
                    acc = acc - b * out[k - j]
            out[k] = acc * inv
        return TruncatedSeries(out)

    # -- transcendental operations --------------------------------------

    def log(self) -> "TruncatedSeries":
        """Formal log; requires constant term 1.

        Computed through (log f)' = f'/f followed by termwise
        integration, which needs only one series division.
        """
        if self.coeffs[0] != ONE:
            raise ValueError("series log requires constant term 1")
        h = self.derivative() / self.truncate(self.order - 1 if self.order else 0)
        out = [ZERO] * (self.order + 1)
        for k in range(1, self.order + 1):
            c = h.coeffs[k - 1]
            if c != ZERO:
                out[k] = c * RationalFunction.from_fraction(Fraction(1, k))
        return TruncatedSeries(out)

    def exp(self) -> "TruncatedSeries":
        """Formal exp; requires constant term 0.  Read off `ExpCoefficients`."""
        if self.coeffs[0] != ZERO:
            raise ValueError("series exp requires constant term 0")
        g = ExpCoefficients(lambda k: RationalFunction.from_fraction(k) * self.coeffs[k])
        return TruncatedSeries(g[m] for m in range(self.order + 1))

    def pow(self, e: int) -> "TruncatedSeries":
        """f**e for an integer e, by repeated squaring (f must be a unit if e < 0)."""
        if e < 0:
            return (TruncatedSeries.one(self.order) / self).pow(-e)
        out = TruncatedSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def substitute(self, c: RationalFunction) -> "TruncatedSeries":
        """g(u) = f(c * u), truncated at the original order."""
        out = []
        ck = ONE
        for a in self.coeffs:
            out.append(a * ck if a != ZERO else ZERO)
            ck = ck * c
        return TruncatedSeries(out)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/du, one order lower."""
        if self.order == 0:
            return TruncatedSeries([ZERO])
        return TruncatedSeries(
            RationalFunction.from_fraction(k) * self.coeffs[k] for k in range(1, self.order + 1)
        )

    # -- comparisons / rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order})"

    def __str__(self) -> str:
        """Canonical text form ``c0 + c1*u + c2*u^2 + ...``.

        Every tracked coefficient is printed, including zeros, so two series
        render identically exactly when they are equal at the same order.
        """
        parts = []
        for k, c in enumerate(self.coeffs):
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


class ExpCoefficients:
    """The coefficients g_n of g = exp(f), f_0 = 0, each computed once, the
    first time it is read, so a generating function has no truncation order.

    `weighted(k)` gives k*f_k; it is called once per k, in increasing k, when
    g_k is first needed.  The recurrence is g' = f' g, i.e.
    n*g_n = sum_{k=1..n} k * f_k * g_{n-k}.
    """

    __slots__ = ("_weighted_coefficient", "_weighted", "_g")

    def __init__(self, weighted: Callable[[int], RationalFunction]):
        self._weighted_coefficient = weighted
        self._weighted = [ZERO]
        self._g = [ONE]

    def __getitem__(self, n: int) -> RationalFunction:
        if n < 0:
            raise IndexError(f"negative exponent {n}")
        weighted, g = self._weighted, self._g
        for m in range(len(g), n + 1):
            weighted.append(self._weighted_coefficient(m))
            acc = ZERO
            for k in range(1, m + 1):
                w = weighted[k]
                if w != ZERO and g[m - k] != ZERO:
                    acc = acc + w * g[m - k]
            g.append(acc * RationalFunction.from_fraction(Fraction(1, m)))
        return g[n]
