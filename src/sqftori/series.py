"""Truncated formal power series in u over Q(q), and the exp recurrence.

A `TruncatedSeries` holds `RationalFunction` coefficients for u^0 .. u^N
inclusive, where the truncation order N is fixed at construction, and all
arithmetic on them is exact.  Binary operations take the minimum of the
operand orders.  A series is built only where a report prints one, and
no report multiplies or divides two (the Euler rows are built in `tori`).

A generating function that is only read coefficient by coefficient has no
order: `ExpCoefficients` computes the coefficients of an exp on demand,
each once.  It runs in whatever ring its weights live in: the degree
products and the torus cycle index run it on `QPoly` numerators, and
`TruncatedSeries.exp` reads it over Q(q) up to the series' order.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

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

        L = log f solves the exp recurrence of `ExpCoefficients` the other
        way: n*f_n = sum_{k=1..n} k*L_k*f_(n-k), and f_0 = 1, so each n*L_n
        follows from the k*L_k before it.
        """
        f = self.coeffs
        if f[0] != ONE:
            raise ValueError("series log requires constant term 1")
        kL = [ZERO]  # k*L_k
        for n in range(1, len(f)):
            acc = f[n] * n
            for k in range(1, n):
                if not (kL[k].is_zero() or f[n - k].is_zero()):
                    acc = acc - kL[k] * f[n - k]
            kL.append(acc)
        return TruncatedSeries([ZERO] + [kL[n] / n for n in range(1, len(f))])

    def exp(self) -> "TruncatedSeries":
        """Formal exp; requires constant term 0.  Read off `ExpCoefficients`."""
        if self.coeffs[0] != ZERO:
            raise ValueError("series exp requires constant term 0")
        g = ExpCoefficients.from_log(lambda k: RationalFunction.from_fraction(k) * self.coeffs[k], ONE)
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

    The recurrence is g' = f' g, i.e. n*g_n = sum_{k=1..n} k * f_k * g_{n-k}.
    `weight(n, k)` gives the factor of g_{n-k} in n*g_n: k*f_k for a plain
    exp (`from_log`), or k*f_k * c_n/c_{n-k} when the memo holds the
    rescaled coefficients c_n*g_n, which depends on n.  It is called at most
    once per (n, k), in increasing n, and not where g_{n-k} is zero.  The
    coefficients live in the ring of `one` and of the weights: anything with
    +, -, *, `is_zero()` and exact division by a positive int.
    """

    __slots__ = ("_weight", "_zero", "_g")

    def __init__(self, weight: Callable[[int, int], Any], one):
        self._weight = weight
        self._zero = one - one
        self._g = [one]

    @classmethod
    def from_log(cls, weighted: Callable[[int], Any], one) -> "ExpCoefficients":
        """exp(f) from `weighted(k)` = k*f_k, which is called once per k, in
        increasing k, when g_k is first needed."""
        known = [None]

        def weight(n: int, k: int):
            while len(known) <= k:
                known.append(weighted(len(known)))
            return known[k]

        return cls(weight, one)

    def __getitem__(self, n: int):
        if n < 0:
            raise IndexError(f"negative exponent {n}")
        weight, g = self._weight, self._g
        for m in range(len(g), n + 1):
            acc = self._zero
            for k in range(1, m + 1):
                if not g[m - k].is_zero():
                    w = weight(m, k)
                    if not w.is_zero():
                        acc = acc + w * g[m - k]
            g.append(acc / m)
        return g[n]
