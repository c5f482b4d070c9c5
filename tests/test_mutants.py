"""scripts/mutants.py runs the tests against deliberately broken copies of the library."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
sys.modules["mutants"] = mutants  # dataclasses look their module up there
_SPEC.loader.exec_module(mutants)

FAST = next(m for m in mutants.MUTANTS if m.name == "inverse-read-off-zero")


def test_a_mutant_is_caught_and_a_no_op_survives():
    assert mutants.run(FAST) == mutants.CAUGHT
    assert mutants.run(dataclasses.replace(FAST, new=FAST.old)) == mutants.SURVIVED
    assert mutants.run(dataclasses.replace(FAST, old="no such text")) == mutants.NOT_FOUND


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_once_and_names_tests_that_read_no_pinned_data(mutant):
    assert (ROOT / "src" / "bgains" / mutant.file).read_text().count(mutant.old) == 1
    for test in mutant.tests:
        module = ROOT / test.partition("::")[0]
        assert '.json"' not in module.read_text(), test
