"""Structured pass/fail records and their table/CSV/JSON renderings.

A `VerificationReport` stores both sides of an identity in canonical
text form; the check passes exactly when the two renderings are
identical (canonical forms are unique, so string equality is value
equality).  Report lists are sorted by identity name and parameters so
that output files are byte-reproducible for a fixed configuration;
``elapsed_ms`` is informational only and never part of a comparison.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .ffpoly import MAX_BUDGET, is_prime


@dataclass(frozen=True)
class VerificationReport:
    identity_name: str
    parameters: Mapping[str, Any]
    lhs_rendered: str
    rhs_rendered: str
    passed: bool
    elapsed_ms: int = 0

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "identity_name": self.identity_name,
            "parameters": dict(self.parameters),
            "lhs_rendered": self.lhs_rendered,
            "rhs_rendered": self.rhs_rendered,
            "pass": self.passed,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def make_report(
    identity_name: str,
    parameters: Mapping[str, Any],
    lhs_rendered: str,
    rhs_rendered: str,
    elapsed_ms: int = 0,
) -> VerificationReport:
    return VerificationReport(
        identity_name=identity_name,
        parameters=dict(parameters),
        lhs_rendered=lhs_rendered,
        rhs_rendered=rhs_rendered,
        passed=lhs_rendered == rhs_rendered,
        elapsed_ms=elapsed_ms,
    )


@dataclass(frozen=True)
class RunConfig:
    """Sizes and output settings for a verification run."""

    n_max: int = 10
    primes: tuple[int, ...] = (2, 3, 5)
    series_order: int = 24
    enumeration_budget: int = 10_000_000
    output_format: str = "table"
    output_path: str | None = None

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.series_order < self.n_max:
            raise ValueError(
                f"series order {self.series_order} is smaller than n_max {self.n_max}"
            )
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"repeated prime in {list(self.primes)}")
        if self.enumeration_budget > MAX_BUDGET:
            raise ValueError(
                f"enumeration budget {self.enumeration_budget} exceeds the "
                f"maximum of {MAX_BUDGET} polynomials"
            )
        if self.primes and self.enumeration_budget < min(self.primes):
            raise ValueError(
                "enumeration budget is below the smallest requested field size"
            )
        if self.output_format not in ("table", "csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "primes": list(self.primes),
            "series_order": self.series_order,
            "enumeration_budget": self.enumeration_budget,
            "output_format": self.output_format,
            "output_path": self.output_path,
        }


def _param_sort_key(parameters: Mapping[str, Any]):
    key = []
    for k in sorted(parameters):
        v = parameters[k]
        if isinstance(v, bool) or not isinstance(v, int):
            key.append((k, 1, str(v)))
        else:
            key.append((k, 0, v))
    return tuple(key)


def sort_reports(reports: Sequence[VerificationReport]) -> list[VerificationReport]:
    return sorted(reports, key=lambda r: (r.identity_name, _param_sort_key(r.parameters)))


def summarize(reports: Sequence[VerificationReport]) -> dict:
    passed = sum(1 for r in reports if r.passed)
    return {"passed": passed, "failed": len(reports) - passed}


def reports_to_json(
    config: RunConfig,
    reports: Sequence[VerificationReport],
    include_timing: bool = True,
) -> str:
    payload = {
        "config": config.to_json_dict(),
        "reports": [r.to_json_dict(include_timing) for r in sort_reports(reports)],
        "summary": summarize(reports),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity_name", "n", "q", "lhs", "rhs", "pass"])
    for r in sort_reports(reports):
        writer.writerow(
            [
                r.identity_name,
                r.parameters.get("n", ""),
                r.parameters.get("q", ""),
                r.lhs_rendered,
                r.rhs_rendered,
                "true" if r.passed else "false",
            ]
        )
    return buf.getvalue()


def reports_to_table(reports: Sequence[VerificationReport]) -> str:
    rows = [["identity", "n", "q", "extra", "lhs", "rhs", "pass"]]
    for r in sort_reports(reports):
        extra = " ".join(
            f"{k}={r.parameters[k]}"
            for k in sorted(r.parameters)
            if k not in ("n", "q")
        )
        rows.append(
            [
                r.identity_name,
                str(r.parameters.get("n", "")),
                str(r.parameters.get("q", "")),
                extra,
                r.lhs_rendered,
                r.rhs_rendered,
                "ok" if r.passed else "FAIL",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    s = summarize(reports)
    lines.append(f"passed {s['passed']} / failed {s['failed']}")
    return "\n".join(lines) + "\n"


def failing_names(reports: Sequence[VerificationReport]) -> list[str]:
    seen: list[str] = []
    for r in sort_reports(reports):
        if not r.passed and r.identity_name not in seen:
            seen.append(r.identity_name)
    return seen
