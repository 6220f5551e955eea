"""The package ships only code that something in it, or the benchmark,
reaches.  A module-level function or class, or a method, whose name is
used nowhere outside its own body is dead weight: every pass imports and
compiles it, and no command runs it.  Checks of the paper that no command
runs live in the tests (``tests/paper_checks.py``), not in ``src/``.

A use is a name or an attribute in another part of the package; an
import, and so a package ``__init__`` re-export, is not a use.  Any
occurrence of the name in ``perfbench/*.py`` counts too, since the
benchmark's tracer binds functions by their names as strings."""

import ast
import re
from pathlib import Path

import cocontra

SRC = Path(cocontra.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _definitions(tree):
    """(name, node) of every module-level function and class and of every
    non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.name, item


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def unreached():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
             for path in sorted(SRC.rglob("*.py"))}
    uses = {}
    for tree in trees.values():
        for name, node in _uses(tree):
            uses.setdefault(name, []).append(node)
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted(PERFBENCH.glob("*.py")))
    found = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if any(id(use) not in own for use in uses.get(name, ())):
                continue
            if re.search(rf"\b{re.escape(name)}\b", bench):
                continue
            found.append(f"{path.relative_to(SRC.parent)}:{node.lineno} "
                         f"{name}")
    return found


def test_every_definition_is_used_outside_its_own_body():
    found = unreached()
    assert not found, "definitions nothing uses: " + ", ".join(found)
