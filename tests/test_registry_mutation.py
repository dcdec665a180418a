"""Every identity of the registry fails when one of its sides is corrupted.

The rows are collected from `suites` itself: every module-level table of
rows, plus the row builder, called with arguments that give every row
at least one grid point.  A row added to a table is covered without
editing this file; a new builder makes `test_every_row_is_collected` fail
until it is listed in `BUILDERS`.

One side of a row is perturbed by one: an int or Fraction side gains 1,
a Q(q) side gains ONE, a series side gains 1 in its last coefficient,
and a row whose two sides are both rendered lists gains 1 in the last
listed number.
"""

from fractions import Fraction

import pytest

from sqftori import cli, suites
from sqftori.exact import ONE, RationalFunction
from sqftori.report import RunConfig
from sqftori.series import TruncatedSeries

#: small enough to run the whole registry in a few milliseconds warm, large
#: enough that every row, oracle and discriminant rows included, has a point
CONFIG = RunConfig(n_max=4, primes=(2, 3), series_order=6, enumeration_budget=81)
TYPE_RANK = 3

#: row builders of `suites` and the arguments that reach every row they build
BUILDERS = {
    "_tori_type_rows": (TYPE_RANK,),
}


def _is_row_table(value) -> bool:
    return (
        isinstance(value, dict)
        and bool(value)
        and all(
            isinstance(row, tuple) and len(row) == 3 and all(map(callable, row))
            for row in value.values()
        )
    )


def _tables() -> list[dict]:
    tables = [value for value in vars(suites).values() if _is_row_table(value)]
    tables += [getattr(suites, name)(*args) for name, args in BUILDERS.items()]
    return tables


def _registry() -> dict:
    """Every row of every suite, by identity name."""
    rows = {}
    for table in _tables():
        assert not rows.keys() & table.keys(), "an identity name is declared twice"
        rows.update(table)
    return rows


def _bumped(value):
    """`value` plus one, in the value's own ring."""
    if isinstance(value, TruncatedSeries):
        *head, last = value.coeffs
        return TruncatedSeries((*head, last + ONE))
    if isinstance(value, RationalFunction):
        return value + ONE
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value + 1
    raise TypeError(f"no perturbation for {type(value).__name__}")


def _bumped_list(text: str) -> str:
    head, _, last = text.rpartition(", ")
    return f"{head}, {Fraction(last) + 1}"


def _corrupted(row):
    """The row with one side perturbed; the side is chosen by the value types
    at the row's first grid point."""
    grid, lhs, rhs = row
    points = grid(CONFIG)
    assert points, "the row has no grid point at the test configuration"
    _, args = points[0]
    if not isinstance(lhs(*args), str):
        return grid, lambda *a: _bumped(lhs(*a)), rhs
    if not isinstance(rhs(*args), str):
        return grid, lhs, lambda *a: _bumped(rhs(*a))
    return grid, lambda *a: _bumped_list(lhs(*a)), rhs


def test_every_row_is_collected():
    builders = {name for name in vars(suites) if name.endswith("_rows")}
    assert builders == set(BUILDERS)
    produced = suites.verify_all(CONFIG) + suites.tori_type_reports(CONFIG, TYPE_RANK)
    assert {r.identity_name for r in produced} == set(_registry())
    assert all(r.passed for r in produced)


@pytest.mark.parametrize("name", sorted(_registry()))
def test_corrupting_one_side_fails_exactly_that_row(name):
    rows = _registry()
    rows[name] = _corrupted(rows[name])
    reports = suites._run(rows, CONFIG)
    own = [r for r in reports if r.identity_name == name]
    assert own
    assert not any(r.passed for r in own)
    assert all(r.passed for r in reports if r.identity_name != name)


def test_cli_exits_1_and_names_a_corrupted_row(capsys, monkeypatch):
    name = "type-probability-sum"
    monkeypatch.setitem(suites._CAYLEY, name, _corrupted(suites._CAYLEY[name]))
    argv = ["verify", "all", "--n-max", "3", "--order", "3", "--budget", "3"]
    assert cli.main(argv) == 1
    failed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAILED:")]
    assert failed == [f"FAILED: {name}"]
