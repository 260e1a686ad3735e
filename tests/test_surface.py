"""The public surface carries only names that the package itself uses."""

import ast
from pathlib import Path

import bgrank

PACKAGE = Path(bgrank.__file__).parent

# the paper's leading term for the rank counts, to be printed by `asympt`
AWAITING_A_CALLER = {"wright_asymptotic", "rank_count_params"}


def _exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def _used_names() -> set[str]:
    """Names read as a variable or an attribute in any module but __init__;
    definitions and imports do not count."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_in_the_package():
    exported = _exported_names()
    assert AWAITING_A_CALLER <= exported
    unused = exported - _used_names() - AWAITING_A_CALLER
    assert not unused, f"exported but never used inside bgrank: {sorted(unused)}"
