"""The mutant list of ``mutants.py``: each mutant names one place in the tree."""

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    # an edit that moves or rewrites the mutated text fails here, so the
    # list is updated with the code it mutates
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.expected in ("killed", "equivalent")
    assert bool(mutant.reason) == (mutant.expected == "equivalent")
