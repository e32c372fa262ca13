"""Engine behaviour lock: randomized timelines and the seed loop.

Two layers of evidence:

* **timeline goldens** — randomized engine-level workloads (seeds 0–7,
  with and without timers) log every executed entry as
  ``(now.hex(), kind, tag)``; the log's sha256, its length,
  ``events_processed`` and the final clock must match the digests in
  ``golden/engine_timelines.json``, including FIFO order inside
  same-timestamp tie groups.  The file was generated when the engine
  still had two scheduler cores, and both reproduced it;
* **seed-loop identity** — the engine's run loop must behave exactly
  like the seed engine's hand-written loop, verified against a
  verbatim copy of the original ``run()``/``step()``.

The figure scenarios' outputs and timelines are pinned by
``tests/analysis/test_scenario_golden.py``.  A change that alters the
engine's order on purpose regenerates the timeline file::

    PYTHONPATH=src python tests/sim/test_core_equivalence.py --write

and says so in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.sim import Simulator, engine

GOLDEN = Path(__file__).with_name("golden") / "engine_timelines.json"


# --------------------------------------------------------------------------
# Randomized engine-level workloads
# --------------------------------------------------------------------------

def _exercise(sim, seed, log, use_timers=True):
    """Drive one randomized workload; append every execution to ``log``.

    The mix covers every scheduling entry point: relative and absolute
    callbacks (with deliberate same-timestamp ties), far-future entries
    (protocol-timer distances), generator processes, triggered events,
    and (optionally) timers with mid-run cancellation.  RNG draws happen
    only inside executed entries, so two runs consume the stream
    identically exactly when their execution orders match — any
    divergence shows up as differing logs.
    """
    rng = random.Random(seed)
    counter = [0]
    live_timers = []

    def spawn():
        counter[0] += 1
        tag = counter[0]
        roll = rng.random()
        if roll < 0.30:
            # tie-heavy: a handful of fixed offsets collide constantly
            sim.schedule_callback(rng.choice((0.0, 1.0, 2.5)), cb, tag)
        elif roll < 0.55:
            sim.schedule_callback(round(rng.uniform(0.0, 40.0), 3), cb, tag)
        elif roll < 0.65:
            sim.schedule_callback_at(
                sim.now + round(rng.uniform(0.0, 10.0), 3), cb, tag
            )
        elif roll < 0.75:
            # far future: millisecond protocol-timer distances
            sim.schedule_callback(round(rng.uniform(5e3, 3e5), 1), cb, tag)
        elif roll < 0.85:
            sim.process(proc(tag))
        elif roll < 0.95 or not use_timers:
            ev = sim.event()
            ev.callbacks.append(lambda e, t=tag: log.append(
                (sim.now.hex(), "ev", t)
            ))
            ev.succeed(delay=round(rng.uniform(0.0, 20.0), 3))
        else:
            h = sim.schedule_timer(
                round(rng.uniform(0.0, 60.0), 3), timer_cb, tag
            )
            live_timers.append(h)

    def cb(tag):
        log.append((sim.now.hex(), "cb", tag))
        if use_timers and live_timers and rng.random() < 0.3:
            live_timers.pop(rng.randrange(len(live_timers))).cancel()
        for _ in range(rng.randrange(3)):
            if counter[0] < 400:
                spawn()

    def timer_cb(tag):
        log.append((sim.now.hex(), "tm", tag))

    def proc(tag):
        yield sim.timeout(round(rng.uniform(0.0, 15.0), 3))
        log.append((sim.now.hex(), "pr", tag))
        if counter[0] < 400:
            spawn()

    for _ in range(25):
        spawn()
    sim.run()


def _timeline(seed, use_timers=True):
    sim = Simulator()
    log = []
    _exercise(sim, seed, log, use_timers=use_timers)
    return log, sim.events_processed, sim.now.hex()


def _digest(seed, use_timers):
    """The golden record of one randomized run: the sha256 of its
    execution log (one ``now.hex() kind tag`` line per entry), the
    entry count and the final clock."""
    log, processed, now = _timeline(seed, use_timers=use_timers)
    lines = "\n".join(f"{t} {kind} {tag}" for t, kind, tag in log)
    return {
        "log_sha256": hashlib.sha256(lines.encode()).hexdigest(),
        "log_len": len(log),
        "events_processed": processed,
        "now": now,
    }


def _golden_key(seed, use_timers):
    return f"seed{seed}-{'timers' if use_timers else 'no-timers'}"


@pytest.mark.parametrize("use_timers", [True, False], ids=["timers", "no-timers"])
@pytest.mark.parametrize("seed", range(8))
def test_randomized_timeline_matches_golden(seed, use_timers):
    expected = json.loads(GOLDEN.read_text())[_golden_key(seed, use_timers)]
    assert _digest(seed, use_timers) == expected
    assert expected["log_len"] > 50  # the workload exercised the engine
    assert expected["events_processed"] >= expected["log_len"]


# --------------------------------------------------------------------------
# The engine vs. the seed engine's verbatim loop
# --------------------------------------------------------------------------

class _SeedLoopSimulator(Simulator):
    """The seed engine's hand-written ``run``/``step``, verbatim.

    The engine's run loop (which adds timer dispatch) must behave
    byte-for-byte like this original.  Timers postdate the seed, so
    seed-comparison workloads exclude them.
    """

    __slots__ = ()

    def step(self):
        if not self._heap:
            raise engine.SimulationError(
                "step() on an empty schedule: nothing left to run"
            )
        item = engine.heapq.heappop(self._heap)
        self._now = item[0]
        self.events_processed += 1
        event = item[2]
        if event is None:
            item[3](*item[4])
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until=None):
        if until is not None and until < self._now:
            raise ValueError(
                f"until ({until}) lies in the past (now={self._now})"
            )
        heap = self._heap
        pop = engine.heapq.heappop
        processed = 0
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self._now = until
                    return
                item = pop(heap)
                self._now = item[0]
                processed += 1
                event = item[2]
                if event is None:
                    item[3](*item[4])
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
        finally:
            self.events_processed += processed
        if until is not None:
            self._now = until


@pytest.mark.parametrize("seed", range(4))
def test_unmonitored_loops_match_seed_behaviour(seed):
    reference = []
    sim = _SeedLoopSimulator()
    _exercise(sim, seed, reference, use_timers=False)
    expected = (reference, sim.events_processed, sim.now.hex())
    assert _timeline(seed, use_timers=False) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_core_equivalence.py --write")
    table = {
        _golden_key(seed, timers): _digest(seed, timers)
        for seed in range(8)
        for timers in (True, False)
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(table)} timelines)")
