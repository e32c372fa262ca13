"""Golden lock on the ring64 scenario (``repro.bench.shard64``).

``test_coordinator.py`` compares the sharded modes against a 1-shard
run of the same build, so a change that moves every mode the same way
passes it.  This test pins the full-size scenario's ``islands``
metrics — per-host arrival counts and ``float.hex`` timestamp digests,
per-switch and per-link cell counters — to a committed file, at one
shard and through the in-process sharded engine at two.

A change that alters the model on purpose regenerates the file::

    PYTHONPATH=src python tests/sim/shard/test_ring64_golden.py --write

and says so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

from repro.bench import shard64

GOLDEN = Path(__file__).with_name("golden") / "ring64_islands.json"


def _islands(n_shards, mode):
    """The run's ``islands`` dict, round-tripped through JSON so its
    integer island keys compare against the file's string keys."""
    result = shard64.run(n_shards, mode=mode)
    return json.loads(json.dumps(result["islands"], sort_keys=True))


def test_ring64_one_shard_matches_golden():
    assert _islands(1, "local") == json.loads(GOLDEN.read_text())


def test_ring64_inline_two_shards_matches_golden():
    assert _islands(2, "inline") == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_ring64_golden.py --write")
    GOLDEN.write_text(
        json.dumps(_islands(1, "local"), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
