"""Golden lock on the perturbation scenarios' absolute outputs.

``test_core_equivalence.py`` compares the two scheduler cores inside
one build, so a change that moves both cores the same way passes it.
This test pins every :mod:`repro.analysis.perturb` scenario (the shrunk
fig3–fig9 + sample_sort code paths) to committed ``float.hex`` metrics,
so the outputs cannot drift between commits unnoticed.

A change that alters the model on purpose regenerates the file::

    PYTHONPATH=src python tests/analysis/test_scenario_golden.py --write

and says so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis import perturb

GOLDEN = Path(__file__).with_name("golden") / "perturb_scenarios.json"


def _canonical(name):
    return perturb._canonical_metrics(perturb._SCENARIOS[name]())


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario():
    assert sorted(_golden()) == perturb.scenario_names()


@pytest.mark.parametrize("name", perturb.scenario_names())
def test_scenario_matches_golden(name):
    assert _canonical(name) == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_scenario_golden.py --write")
    table = {name: _canonical(name) for name in perturb.scenario_names()}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(table)} scenarios)")
