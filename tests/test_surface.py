"""Every name has one import path, its module, and every public definition
has a reader."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bgrank

PACKAGE = Path(bgrank.__file__).parent
ROOT = Path(__file__).parents[1]
PERFBENCH = ROOT / "perfbench"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

# the paper's leading term for the rank counts, to be printed by `asympt`
AWAITING_A_CALLER = {"wright_asymptotic", "rank_count_params"}


def _fresh_python(code: str) -> dict:
    """What ``code`` prints as JSON in a new interpreter run from the repo
    root, with ``src`` on the path so that any import of bgrank succeeds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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


def test_the_package_namespace_binds_only_the_version():
    got = _fresh_python(
        "import json, sys, bgrank; print(json.dumps({"
        "'submodules': sorted(m for m in sys.modules if m.startswith('bgrank.')), "
        "'public': sorted(k for k in vars(bgrank) if not k.startswith('_')), "
        "'version_type': type(bgrank.__version__).__name__}))"
    )
    assert got == {"submodules": [], "public": [], "version_type": "str"}


def test_packaging_reads_the_version_without_importing_bgrank():
    pytest.importorskip("setuptools")
    got = _fresh_python(
        "import json, sys\n"
        "from setuptools.config.pyprojecttoml import read_configuration\n"
        "version = read_configuration('pyproject.toml')['project']['version']\n"
        "print(json.dumps({'version': version, 'imported': 'bgrank' in sys.modules}))"
    )
    assert got == {"version": bgrank.__version__, "imported": False}


def test_every_public_definition_has_a_reader():
    # perfbench reads the package too (the cache priming check reads
    # inspect_cache_file); a name read by neither is dead weight
    defined = _defined_names()
    assert AWAITING_A_CALLER <= defined
    unread = defined - _used_names([*MODULES, *PERFBENCH.glob("*.py")]) - AWAITING_A_CALLER
    assert not unread, f"defined but never read in bgrank or perfbench: {sorted(unread)}"


def test_series_keeps_no_state_but_the_p_and_p2_memos():
    # the module docstring promises process-wide memos for p and p2 only;
    # dunders such as __builtins__ are the interpreter's, not state
    got = _fresh_python(
        "import json, bgrank.series as s; print(json.dumps(sorted("
        "k for k, v in vars(s).items() "
        "if isinstance(v, (list, dict, set)) and not k.startswith('__'))))"
    )
    assert got == ["_P", "_P2"]


def test_each_table_request_rule_is_raised_in_one_place():
    # the request rules live in series.check_table_request alone: a second
    # copy (a builder's or cmd_table's) could drift from it
    raised = {"a must lie in [0, b)": [], "b must be >= 2": [], "n_max must be >= 0": []}
    for path in (PACKAGE / "series.py", PACKAGE / "cli.py"):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                    message = node.exc.args[0]
                    if isinstance(message, ast.Constant) and message.value in raised:
                        raised[message.value].append(f"{path.name}:{owner}")
    assert raised == {message: ["series.py:check_table_request"] for message in raised}


def test_onset_verdicts_are_reached_in_turan_alone():
    # cmd_onset reads its rows from turan.onset_atlas and formats them: a
    # verdict rule of its own (a second scan, an inheritance) could drift
    # from the atlas, which the library's callers read too
    (onset,) = [
        node
        for node in ast.parse((PACKAGE / "cli.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_onset"
    ]
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(onset)
        if isinstance(node, ast.Call)
    }
    assert "onset_atlas" in called
    assert not called & {"is_hyperbolic", "jensen_poly", "hyperbolicity_onset"}


def _squares_a_term(node) -> bool:
    """x * x or x ** 2 for an entry, a name or an expression x: alpha(m)^2
    in the order-2 inequality, a_{m+1}^2, a_{m+2}^2 and
    (a_{m+1} a_{m+2} - a_m a_{m+3})^2 in the order-3 one."""
    if not isinstance(node, ast.BinOp) or not isinstance(node.left, (ast.Name, ast.Subscript, ast.BinOp)):
        return False
    if isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    return isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant) and node.right.value == 2


def test_turan_inequalities_are_computed_in_one_place():
    # turan_report's order-2, order-3 and convexity scans and the onset
    # scan's degree-2 and degree-3 verdicts all read turan._turan_scan: a
    # second copy of either inequality could drift from it
    squaring = {
        top.name
        for top in ast.parse((PACKAGE / "turan.py").read_text()).body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if _squares_a_term(node)
    }
    assert squaring == {"_turan_scan"}
    # both orders run through its one loop, so the failure-and-equality rule
    # is written once
    scan = _top_level(ast.parse((PACKAGE / "turan.py").read_text()), "_turan_scan")
    assert len([node for node in ast.walk(scan) if isinstance(node, ast.For)]) == 1


def _top_level(tree: ast.Module, name: str):
    """The module-level definition or assignment of ``name`` in ``tree``."""
    (node,) = [
        top
        for top in tree.body
        if getattr(top, "name", None) == name
        or any(getattr(target, "id", None) == name for target in getattr(top, "targets", ()))
    ]
    return node


def test_turan_orders_are_listed_in_turan_alone():
    # --order's choices and how far each order's scan reads come from
    # turan.TURAN_ORDERS, through which turan_report checks every window: a
    # second list of the orders or of their reach could drift from it
    naming = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value == "convexity"
    }
    assert naming == {"turan.py"}
    cmd_turan = _top_level(ast.parse((PACKAGE / "cli.py").read_text()), "cmd_turan")
    assert not [node for node in ast.walk(cmd_turan) if isinstance(node, ast.BinOp)]
    report = _top_level(ast.parse((PACKAGE / "turan.py").read_text()), "turan_report")
    lengths = [
        node for node in ast.walk(report) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"
    ]
    assert len(lengths) == 1  # one window check for every order


def test_each_stat_has_one_entry_in_cli():
    # a stat's cache kind, selectors, route, builder and --n-max cap are one
    # cli._STATS entry: a second dict keyed by stat could miss a stat or drift
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    keyed = [node for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value == "pbar-ab"]
    stats = _top_level(tree, "_STATS").value
    assert len(keyed) == 1 and any(key is keyed[0] for key in stats.keys)


def _places_beads(node) -> bool:
    """Bead b put onto runner b % t at height b // t: an append to a list
    indexed by a remainder or of a quotient, a comprehension of quotients
    filtered by a remainder, or a divmod."""

    def is_op(expr, op) -> bool:
        return isinstance(expr, ast.BinOp) and isinstance(expr.op, op)

    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "divmod"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "append":
        target = node.func.value
        return (isinstance(target, ast.Subscript) and is_op(target.slice, ast.Mod)) or any(
            is_op(arg, ast.FloorDiv) for arg in node.args
        )
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)) and is_op(node.elt, ast.FloorDiv):
        return any(is_op(sub, ast.Mod) for gen in node.generators for cond in gen.ifs for sub in ast.walk(cond))
    return False


def test_beads_go_onto_runners_in_one_place():
    # the t-abacus is built by partitions._runners alone; every core, quotient
    # and rank reads its runners, and a second placement could drift from it
    placed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            placed += [f"{path.name}:{owner}" for node in ast.walk(top) if _places_beads(node)]
    assert placed == ["partitions.py:_runners"]
