"""Command-line front end.

    sqftori sqfree  {count,expected-linear,quad-excess,discriminant,mu-sum}
    sqftori tori    {count,eigenvectors,quad-excess,bias,euler,cayley,types}
    sqftori verify  all

Exit codes: 0 all checks pass, 1 at least one identity failed, 2 usage,
configuration or I/O error.  Reports go to stdout (or --out) as an
aligned table, CSV, or JSON; ``verify all`` defaults to the JSON report.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import suites
from .report import (
    RunConfig,
    failing_names,
    reports_to_csv,
    reports_to_json,
    reports_to_table,
    summarize,
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--n-max",
        type=int,
        default=RunConfig.n_max,
        help="largest degree / rank (default %(default)s)",
    )
    common.add_argument(
        "--prime",
        type=int,
        action="append",
        dest="primes",
        help=f"oracle prime, repeatable (default {' '.join(map(str, RunConfig.primes))})",
    )
    common.add_argument(
        "--order",
        type=int,
        default=RunConfig.series_order,
        help="series truncation order (default %(default)s)",
    )
    common.add_argument(
        "--budget",
        type=int,
        default=RunConfig.enumeration_budget,
        help="enumeration budget in polynomial visits (default %(default)s)",
    )
    common.add_argument("--format", choices=("table", "csv", "json"), default=None)
    common.add_argument("--out", default=None, help="write the report to this file")

    parser = argparse.ArgumentParser(
        prog="sqftori",
        description="Exact verification of square-free polynomial and maximal torus counts.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    sqf = sub.add_parser("sqfree", help="square-free polynomial identities")
    sqf_sub = sqf.add_subparsers(dest="command", required=True)
    for name in _SQFREE_SUITES:
        sqf_sub.add_parser(name, parents=[common])

    tor = sub.add_parser("tori", help="maximal torus identities")
    tor_sub = tor.add_subparsers(dest="command", required=True)
    for name in _TORI_SUITES:
        tor_sub.add_parser(name, parents=[common])
    types = tor_sub.add_parser("types", parents=[common])
    types.add_argument("--n", type=int, default=4, help="rank for the type table (default 4)")

    ver = sub.add_parser("verify", help="run every identity suite")
    ver_sub = ver.add_subparsers(dest="command", required=True)
    ver_sub.add_parser("all", parents=[common])

    return parser


_SQFREE_SUITES = {
    "count": suites.squarefree_count_reports,
    "expected-linear": suites.linear_factor_reports,
    "quad-excess": suites.quad_excess_reports,
    "discriminant": suites.discriminant_reports,
    "mu-sum": suites.mu_sum_reports,
}

_TORI_SUITES = {
    "count": suites.tori_count_reports,
    "eigenvectors": suites.eigenvector_reports,
    "quad-excess": suites.subtori_excess_reports,
    "bias": suites.mod2_bias_reports,
    "euler": suites.euler_reports,
    "cayley": suites.cayley_reports,
}


def _config_from_args(args) -> RunConfig:
    if args.command == "types" and args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.group == "verify" else "table"
    return RunConfig(
        n_max=args.n_max,
        primes=tuple(args.primes) if args.primes else RunConfig.primes,
        series_order=args.order,
        enumeration_budget=args.budget,
        output_format=fmt,
        output_path=args.out,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.group == "sqfree":
        reports = _SQFREE_SUITES[args.command](config)
    elif args.group == "tori":
        if args.command == "types":
            reports = suites.tori_type_reports(config, args.n)
        else:
            reports = _TORI_SUITES[args.command](config)
    else:
        reports = suites.verify_all(config)
    if not reports:
        print("error: the configuration leaves no identity to check", file=sys.stderr)
        return 2

    if config.output_format == "json":
        rendered = reports_to_json(config, reports)
    elif config.output_format == "csv":
        rendered = reports_to_csv(reports)
    else:
        rendered = reports_to_table(reports)

    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        s = summarize(reports)
        print(
            f"wrote {config.output_path}: passed {s['passed']} / failed {s['failed']}"
        )
    else:
        sys.stdout.write(rendered)

    failures = failing_names(reports)
    if failures:
        for name in failures:
            print(f"FAILED: {name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
