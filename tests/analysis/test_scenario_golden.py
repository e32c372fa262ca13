"""Golden lock on the perturbation scenarios' outputs and event timelines.

This test pins every :mod:`repro.analysis.perturb` scenario (the shrunk
fig3–fig9 + sample_sort code paths) to committed golden files, so
neither can drift between commits unnoticed:

* ``perturb_scenarios.json`` — the scenario's metrics in ``float.hex``
  form;
* ``perturb_timelines.json`` — a digest of its event timeline: the
  sha256 of the ordered ``time.hex()`` of every processed heap entry,
  plus the number of entries processed.  Timestamps only, no callback
  names: renaming or restructuring a firmware step keeps the digest,
  while any shifted, added or dropped entry changes it.

A change that alters the model on purpose regenerates both files::

    PYTHONPATH=src python tests/analysis/test_scenario_golden.py --write

and says so in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import perturb, race

GOLDEN = Path(__file__).with_name("golden") / "perturb_scenarios.json"
TIMELINES = Path(__file__).with_name("golden") / "perturb_timelines.json"


def _canonical(name):
    return perturb._canonical_metrics(perturb._SCENARIOS[name]())


def _timeline(name):
    """Run ``name`` under the FIFO shadow scheduler (the engine's own
    tie order) and digest the time of every entry it processes.  The
    monitored heap core counts one ``events_processed`` per pop, so the
    entry count is the scenario's total ``events_processed``."""
    with race.detected() as tracker:
        perturb._SCENARIOS[name]()
    times = ",".join(when.hex() for when, _label in tracker.trace)
    return {
        "events_processed": len(tracker.trace),
        "timeline_sha256": hashlib.sha256(times.encode()).hexdigest(),
    }


def _load(path):
    return json.loads(path.read_text())


def test_golden_covers_every_scenario():
    assert sorted(_load(GOLDEN)) == perturb.scenario_names()
    assert sorted(_load(TIMELINES)) == perturb.scenario_names()


@pytest.mark.parametrize("name", perturb.scenario_names())
def test_scenario_matches_golden(name):
    assert _canonical(name) == _load(GOLDEN)[name]


@pytest.mark.parametrize("name", perturb.scenario_names())
def test_timeline_matches_golden(name):
    assert _timeline(name) == _load(TIMELINES)[name]


def _write(path, table):
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(table)} scenarios)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_scenario_golden.py --write")
    names = perturb.scenario_names()
    _write(GOLDEN, {name: _canonical(name) for name in names})
    _write(TIMELINES, {name: _timeline(name) for name in names})
