"""The README's library example runs, and each commented value is what it computes."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _starts_with_value(comment: str, value) -> bool:
    """The comment begins with str(value) or repr(value), followed by its end or a comma."""
    return any(re.match(re.escape(text) + r"(,|$)", comment) for text in (str(value), repr(value)))


def test_readme_library_example_values():
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        line = lines[stmt.end_lineno - 1]
        assert "#" in line, f"README example without a commented value: {line}"
        comment = line.split("#", 1)[1].strip()
        assert _starts_with_value(comment, value), f"{line!r} computes {value!r}"
        checked += 1
    assert checked == 7
