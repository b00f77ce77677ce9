"""The catalogue of ``scripts/mutants.py`` stays current: each replacement's
old text occurs exactly once in today's tree, and each named test exists.
Running the catalogue itself takes minutes, so it stays outside this suite."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "scripts", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("entry", mutants.CATALOGUE, ids=lambda entry: entry.name)
def test_catalogue_entry_is_current(entry):
    assert entry.kind in ("mutant", "reversion")
    assert entry.edits and all(old != new for _path, old, new in entry.edits)
    assert mutants.stale_edits(entry) == []
    assert entry.tests or entry.kind == "reversion"
    for test in entry.tests:
        path, name = test.split("[")[0].split("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            assert f"def {name}(" in f.read(), test
