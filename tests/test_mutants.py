"""The mutant list of tools/mutants.py stays applicable: tier-1 runs no
mutant, but a snippet edited away or a test renamed fails here."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_applies_once_and_names_existing_tests():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants) >= 13
    for mutant in mutants:
        assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet and mutant.tests, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            defined = {node.name for node in ast.parse((ROOT / path).read_text()).body if hasattr(node, "name")}
            assert name in defined, f"{mutant.name}: no {test}"
