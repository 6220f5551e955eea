"""The package ships only code that something in it, or the benchmark,
reaches.  A module-level function or class, or a method, that nothing
uses outside its own body is dead weight: every pass imports and
compiles it, and no command runs it.  Checks of the paper that no command
runs live in the tests (``tests/paper_checks.py``), not in ``src/``.

A use of a module-level function or class is resolved through imports:
its name in its own module, a name bound to it by ``from .m import f``
(or an absolute ``from cocontra.m import f``), or ``m.f`` with ``m`` a
name bound to its module, where a package's ``__init__`` re-export leads
on to the module that defines it.  So a definition is not kept alive by
a same-named one in another module.  An import, and so a re-export, is
not a use.

Methods are matched by name only: a use is the name or an attribute of
that name anywhere in the package, so a method that nothing calls passes
when another definition of its name is used (a ``rho`` method beside
``VComodule.rho``, say).  Such a method is found only by reading its
callers.  Any occurrence of a name in ``perfbench/*.py`` counts too, for
every kind of definition, since the benchmark's tracer binds functions
by their names as strings."""

import ast
import re
from pathlib import Path

import cocontra

SRC = Path(cocontra.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_name(root: Path, path: Path) -> str:
    parts = [root.name, *path.relative_to(root).with_suffix("").parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_level(tree):
    """(name, node) of every module-level function and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node


def _methods(tree):
    """(name, node) of every non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.name, item


def _bindings(mod: str, is_package: bool, tree, modules) -> dict:
    """The names that ``from ... import`` binds in module ``mod``:
    {local name: ("module", name)} for a module of the package and
    {local name: ("symbol", module, name)} for anything else it holds."""
    here = mod.split(".") if is_package else mod.split(".")[:-1]
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = here[:len(here) - node.level + 1]
            target = ".".join(base + ([node.module] if node.module else []))
        else:
            target = node.module or ""
        if target not in modules:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            full = f"{target}.{alias.name}"
            out[local] = (("module", full) if full in modules
                          else ("symbol", target, alias.name))
    return out


def unreached(src: Path = SRC, perfbench: Path = PERFBENCH) -> list:
    paths = sorted(src.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path)) for path in paths}
    names = {path: _module_name(src, path) for path in paths}
    modules = set(names.values())
    defined = {names[p]: {n for n, _ in _module_level(t)}
               for p, t in trees.items()}
    binds = {names[p]: _bindings(names[p], p.name == "__init__.py", t,
                                 modules) for p, t in trees.items()}

    def resolve(mod, name, seen=()):
        """The (module, name) that defines what ``name`` means in mod."""
        if name in defined[mod]:
            return mod, name
        bound = binds[mod].get(name)
        if bound is None or bound[0] != "symbol" or (mod, name) in seen:
            return None
        return resolve(bound[1], bound[2], (*seen, (mod, name)))

    resolved, by_name = {}, {}
    for path, tree in trees.items():
        mod = names[path]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name, target = node.id, resolve(mod, node.id)
            elif isinstance(node, ast.Attribute):
                name, target = node.attr, None
                if isinstance(node.value, ast.Name):
                    bound = binds[mod].get(node.value.id)
                    if bound is not None and bound[0] == "module":
                        target = resolve(bound[1], node.attr)
            else:
                continue
            by_name.setdefault(name, []).append(node)
            if target is not None:
                resolved.setdefault(target, []).append(node)
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted(perfbench.glob("*.py")))
    found = []
    for path, tree in trees.items():
        mod = names[path]
        for kind, defs in (("module", _module_level(tree)),
                           ("method", _methods(tree))):
            for name, node in defs:
                uses = (resolved.get((mod, name), ()) if kind == "module"
                        else by_name.get(name, ()))
                own = {id(n) for n in ast.walk(node)}
                if any(id(use) not in own for use in uses):
                    continue
                if re.search(rf"\b{re.escape(name)}\b", bench):
                    continue
                found.append(f"{path.relative_to(src.parent)}:{node.lineno} "
                             f"{name}")
    return found


def test_every_definition_is_used_outside_its_own_body():
    found = unreached()
    assert not found, "definitions nothing uses: " + ", ".join(found)


def test_a_same_named_definition_elsewhere_is_no_use(tmp_path):
    """Uses are resolved through imports, re-exports and module
    attributes, so a function is not kept by another of its name."""
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    files = {
        "__init__.py": "",
        "sub/__init__.py": "from .b import f\nfrom .c import g\n",
        "a.py": "def f():\n    return f()\n\n\ndef g():\n    pass\n",
        "sub/b.py": "def f():\n    pass\n",
        "sub/c.py": "def g():\n    pass\n\n\ndef h():\n    pass\n",
        "d.py": "from . import sub\nfrom .sub import f\n\n\n"
                "def main():\n    return f(), sub.g()\n",
        "e.py": "from .d import main\n\n\n"
                "def k(x):\n    return x.h(), main()\n",
    }
    for name, text in files.items():
        (pkg / name).write_text(text)
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text('NAMES = ["k"]\n')
    assert unreached(pkg, bench) == [
        "pkg/a.py:1 f", "pkg/a.py:5 g", "pkg/sub/c.py:5 h"]
