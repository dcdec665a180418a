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
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Sequence

from .ffpoly import MAX_BUDGET, check_prime


@dataclass(frozen=True)
class VerificationReport:
    identity_name: str
    parameters: Mapping[str, Any]
    lhs_rendered: str
    rhs_rendered: str
    passed: bool
    elapsed_ms: int = 0

    def to_json_dict(self) -> dict:
        """The report as a JSON object: the reference that `reports_to_json`
        writes through its `_REPORT` template (a field added here goes there
        too, and the tests compare the two)."""
        return {
            "identity_name": self.identity_name,
            "parameters": dict(self.parameters),
            "lhs_rendered": self.lhs_rendered,
            "rhs_rendered": self.rhs_rendered,
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }


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


# The three size bounds below keep a cold run to a few seconds; the README
# ("Command line") gives the time and peak memory measured at each of them.

#: the largest n_max a run accepts; the type tables of every rank up to
#: n_max set the cost
MAX_N_MAX = 24

#: the largest series order a run accepts
MAX_ORDER = 300

#: the largest rank `tori types --n` accepts
MAX_TYPE_RANK = 28


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
        # a float or bool size would fail deep inside the run, or run wrongly;
        # check_prime checks the primes the same way
        for name in ("n_max", "series_order", "enumeration_budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.n_max > MAX_N_MAX:
            raise ValueError(f"n_max {self.n_max} exceeds the maximum of {MAX_N_MAX}")
        if self.series_order > MAX_ORDER:
            raise ValueError(f"series order {self.series_order} exceeds the maximum of {MAX_ORDER}")
        if self.series_order < self.n_max:
            raise ValueError(
                f"series order {self.series_order} is smaller than n_max {self.n_max}"
            )
        for p in self.primes:
            check_prime(p)
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"repeated prime in {list(self.primes)}")
        if self.enumeration_budget < 1:
            raise ValueError(f"enumeration budget {self.enumeration_budget} is below 1")
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
        return {**asdict(self), "primes": list(self.primes)}


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


#: how json.dumps writes a scalar of each exact type; any other type is
#: left to json.dumps itself
_SCALARS = {
    str: encode_basestring_ascii,
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
}

#: one report in the list, the keys of `VerificationReport.to_json_dict` sorted,
#: as json.dumps(indent=2) lays it out
_REPORT = """
    {
      "elapsed_ms": %s,
      "identity_name": %s,
      "lhs_rendered": %s,
      "parameters": %s,
      "pass": %s,
      "rhs_rendered": %s
    }"""


def _scalar(value) -> str:
    return _SCALARS.get(type(value), json.dumps)(value)


def _nested(obj) -> str:
    """obj as json.dumps(sort_keys=True, indent=2) writes it one level in."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n  ")


def _parameters(parameters: Mapping[str, Any]) -> str:
    items = ",".join(
        f"\n        {encode_basestring_ascii(k)}: {_scalar(parameters[k])}" for k in sorted(parameters)
    )
    return "{" + items + "\n      }" if items else "{}"


def _report_json(r: VerificationReport) -> str:
    return _REPORT % (
        _scalar(r.elapsed_ms),
        encode_basestring_ascii(r.identity_name),
        encode_basestring_ascii(r.lhs_rendered),
        _parameters(r.parameters),
        _scalar(r.passed),
        encode_basestring_ascii(r.rhs_rendered),
    )


def reports_to_json(config: RunConfig, reports: Sequence[VerificationReport]) -> str:
    """The reports, sorted, with the configuration and the summary: the
    bytes of json.dumps(payload, sort_keys=True, indent=2) + "\\n" for the
    payload {"config", "reports", "summary"} of `to_json_dict`s.

    Each report is written through one template, its strings quoted by
    the json module's own C escaper, where json.dumps would run its
    pure-Python encoder (which ``indent`` forces) over every value.
    Parameter names are strings.
    """
    body = ",".join([_report_json(r) for r in sort_reports(reports)])
    return '{\n  "config": %s,\n  "reports": [%s%s,\n  "summary": %s\n}\n' % (
        _nested(config.to_json_dict()),
        body,
        "\n  ]" if body else "]",
        _nested(summarize(reports)),
    )


def _extra(parameters: Mapping[str, Any]) -> str:
    """The parameters other than n and q, as sorted k=v pairs."""
    return " ".join(f"{k}={parameters[k]}" for k in sorted(parameters) if k not in ("n", "q"))


def _rows(reports: Sequence[VerificationReport], verdicts: tuple[str, str]) -> list[list[str]]:
    """One row per report, in report order: the identity, n, q, the other
    parameters, both sides and verdicts[passed]."""
    return [
        [
            r.identity_name,
            str(r.parameters.get("n", "")),
            str(r.parameters.get("q", "")),
            _extra(r.parameters),
            r.lhs_rendered,
            r.rhs_rendered,
            verdicts[r.passed],
        ]
        for r in sort_reports(reports)
    ]


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity_name", "n", "q", "extra", "lhs", "rhs", "pass"])
    writer.writerows(_rows(reports, ("false", "true")))
    return buf.getvalue()


def reports_to_table(reports: Sequence[VerificationReport]) -> str:
    rows = [["identity", "n", "q", "extra", "lhs", "rhs", "pass"], *_rows(reports, ("FAIL", "ok"))]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    s = summarize(reports)
    lines.append(f"passed {s['passed']} / failed {s['failed']}")
    return "\n".join(lines) + "\n"


def failing_names(reports: Sequence[VerificationReport]) -> list[str]:
    return sorted({r.identity_name for r in reports if not r.passed})
