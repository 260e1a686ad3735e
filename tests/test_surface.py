"""The public surface carries only names that the package itself uses."""

import ast
from pathlib import Path

import bgrank

PACKAGE = Path(bgrank.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

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


def _defined_names() -> set[str]:
    """Public functions, classes and constants defined at module level."""
    defined = set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
    return {name for name in defined if not name.startswith("_")}


def _used_names(paths) -> set[str]:
    """Names read as a variable or an attribute in ``paths``; definitions and
    imports do not count."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_in_the_package():
    exported = _exported_names()
    assert AWAITING_A_CALLER <= exported
    unused = exported - _used_names(MODULES) - AWAITING_A_CALLER
    assert not unused, f"exported but never used inside bgrank: {sorted(unused)}"


def test_every_public_definition_has_a_reader():
    # perfbench reads the package too (the cache priming check reads
    # inspect_cache_file); a name read by neither is dead weight
    defined = _defined_names()
    assert AWAITING_A_CALLER <= defined
    unread = defined - _used_names([*MODULES, *PERFBENCH.glob("*.py")]) - AWAITING_A_CALLER
    assert not unread, f"defined but never read in bgrank or perfbench: {sorted(unread)}"
