"""The committed mutants of tests/mutants.json stay applicable.

tests/run_mutants.py applies each mutant and runs its tests; that takes
minutes and is not tier-1.  This fast check keeps the list from rotting:
each snippet occurs exactly once in its file, and the mutated file still
compiles, so a mutant is killed by its tests and not by a syntax error.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())
KEYS = {"id", "file", "snippet", "replacement", "tests", "why"}


def test_ids_are_unique():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_snippet_occurs_once(mutant):
    assert KEYS <= set(mutant) <= KEYS | {"equivalent"}
    assert mutant["why"] and mutant.get("equivalent", "reason") and mutant["tests"]
    assert all((ROOT / t).is_file() for t in mutant["tests"])
    text = (ROOT / mutant["file"]).read_text()
    assert text.count(mutant["snippet"]) == 1
    mutated = text.replace(mutant["snippet"], mutant["replacement"])
    assert mutated != text
    compile(mutated, mutant["file"], "exec")
