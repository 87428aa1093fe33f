"""The mutant list of `tests/mutants.py` still fits the code and the tests.

Running the mutants takes minutes; this check takes milliseconds. It fails
when a change moves a mutant's text, or renames or removes a test that a
mutant lists, so the list is mended with the change that drifts it.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT


def _test_functions(path: str) -> set[str]:
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_a_mutant_applies_once_and_lists_existing_tests(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.text) == 1
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert name.partition("[")[0] in _test_functions(path), test
