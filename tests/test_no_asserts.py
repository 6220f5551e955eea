"""The package has one way to fail: a raised error.  An ``assert`` is
dropped under ``python -O``, so a check written as one would stop
checking there and the same manifest could write a different report."""

import ast
from pathlib import Path

import cocontra

SRC = Path(cocontra.__file__).parent


def test_no_assert_statement_in_the_package():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC.parent)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: " + ", ".join(found)
