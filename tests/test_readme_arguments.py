"""The README's table of manifest arguments is the command table, row by
row: every command, argument, accepted kind or type and default; and
every function its table of enumerators names exists."""

import importlib
import re
from pathlib import Path

from cocontra import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _cell(name, arg):
    text = f"`{name}`: " + " / ".join(
        ([arg.type.__name__] if arg.type else []) + list(arg.kinds))
    if arg.default is cli.REQUIRED:
        return text
    if arg.default is None:
        return text + ", optional"
    return text + f", default {arg.default}"


def _readme_rows():
    lines = README.read_text().splitlines()
    start = lines.index("| command | arguments |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("| `"):
            break
        command, arguments = line.strip("| ").split(" | ")
        rows[command.strip("`")] = arguments
    return rows


def test_readme_rows_are_the_command_table():
    expected = {
        command: "; ".join(_cell(n, a) for n, a in entry.args.items())
        for command, entry in cli.COMMANDS.items()
    }
    assert _readme_rows() == expected


def _budget_table_names():
    """Every `module.function` named in the first column of the README's
    table of enumerators."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| enumerator | reached from | projected count |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first = line.strip("| ").split(" | ")[0]
        names += re.findall(r"`(\w+(?:\.\w+)+)`", first)
    return names


def test_readme_budget_table_names_code_that_exists():
    names = _budget_table_names()
    assert names
    missing = []
    for name in names:
        module, attr = name.rsplit(".", 1)
        try:
            getattr(importlib.import_module(f"cocontra.{module}"), attr)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, "README budget rows name no code: " + ", ".join(
        missing)
