"""The in-process sharded engine: routing, merge rule, parity, A/B.

Layers of evidence, mirroring ``tests/sim/test_core_equivalence.py``:

* **selection** — ``REPRO_SIM_SHARDS``/``use_shards`` routes
  :class:`Simulator` construction, and shards=1 collapses to the plain
  single-core class (byte-identical by construction, not by testing);
* **merge-rule regressions** — same-timestamp entries on different
  timelines drain in ascending shard order regardless of insertion
  order, and the global clock reads the executing entry's timestamp
  *during* execution;
* **randomized parity** — tie-free randomized workloads spread over
  2/4 shards produce the exact single-core timeline;
* **figure-scenario identity** — every perturbation scenario (shrunk
  fig3–fig9 + sample_sort) yields bit-identical metrics under the
  sharded engine at 2 and 4 shards, driving the real codec, lookahead
  asserts, and cross-timeline scheduling via the auto-partitioned star.
"""

import random

import pytest

from repro.analysis import perturb
from repro.sim import Simulator, engine
from repro.sim.shard.errors import ShardError
from repro.sim.shard.sharded import ShardedSimulator


# --------------------------------------------------------------------------
# Engine selection
# --------------------------------------------------------------------------

def test_use_shards_routes_simulator_construction():
    with engine.use_shards(3):
        assert engine.shard_count() == 3
        sim = Simulator()
        assert type(sim) is ShardedSimulator
        assert sim.n_shards == 3
    assert engine.shard_count() == 1


def test_shards_one_is_the_plain_single_core_class():
    with engine.use_shards(1):
        sim = Simulator()
    assert type(sim) is Simulator  # not a subclass: zero added overhead


def test_set_shards_validates():
    with pytest.raises(ValueError):
        engine.set_shards(0)
    with pytest.raises(ValueError):
        engine.set_shards(-2)


def test_shard_scope_validates_range():
    sim = ShardedSimulator(2)
    with pytest.raises(ShardError):
        sim.shard_scope(2)
    with sim.shard_scope(1):
        assert sim.current_shard == 1
    assert sim.current_shard == 0


# --------------------------------------------------------------------------
# Merge-rule regressions
# --------------------------------------------------------------------------

def test_same_timestamp_cross_shard_ties_drain_in_shard_order():
    """Insertion order says shard 1 first; the merge rule says shard 0."""
    sim = ShardedSimulator(2)
    order = []
    with sim.shard_scope(1):
        sim.schedule_callback_at(5.0, order.append, "shard1-first-insert")
    with sim.shard_scope(0):
        sim.schedule_callback_at(5.0, order.append, "shard0-second-insert")
        sim.schedule_callback_at(5.0, order.append, "shard0-third-insert")
    sim.run()
    # ascending shard id wins the tie; FIFO seq order holds within a shard
    assert order == [
        "shard0-second-insert", "shard0-third-insert", "shard1-first-insert",
    ]


def test_global_clock_reads_executing_timestamp():
    sim = ShardedSimulator(3)
    seen = []
    for shard, at in ((2, 1.5), (1, 2.5), (0, 4.0)):
        with sim.shard_scope(shard):
            sim.schedule_callback_at(at, lambda s=shard: seen.append((sim.now, s)))
    sim.run()
    assert seen == [(1.5, 2), (2.5, 1), (4.0, 0)]


def test_run_until_reanchors_every_timeline():
    sim = ShardedSimulator(2)
    with sim.shard_scope(1):
        sim.schedule_callback_at(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    # relative scheduling on *either* shard now uses the global base
    fired = []
    with sim.shard_scope(0):
        sim.schedule_callback(1.0, lambda: fired.append(sim.now))
    sim.run(until=5.0)
    assert fired == [5.0]


def test_events_processed_sums_timelines_and_stats_merge():
    sim = ShardedSimulator(2)
    for shard in (0, 1):
        with sim.shard_scope(shard):
            sim.schedule_callback_at(1.0 + shard, lambda: None)
    sim.run()
    assert sim.events_processed == 2
    stats = sim.stats()
    assert stats["core"] == "sharded-heap"
    assert stats["shards"] == 2
    assert stats["events_per_shard"] == [1, 1]
    assert stats["cross_messages"] == 0


def test_earliest_output_time_is_peek_plus_lookahead():
    with engine.use_shards(1):
        sim = Simulator()
    assert sim.earliest_output_time(5.0) == float("inf")
    sim.schedule_callback_at(3.0, lambda: None)
    assert sim.earliest_output_time(5.0) == 8.0
    assert sim.earliest_output_time() == 3.0


# --------------------------------------------------------------------------
# Randomized parity (tie-free workloads)
# --------------------------------------------------------------------------

def _drive(sim, seed, n_shards, log):
    """Replay a seed-derived workload; continuous timestamps keep the
    probability of a cross-shard tie at zero, so the merged timeline
    must equal the single-core one *exactly* (cross-shard tie order is
    the one freedom the engine does not promise)."""
    scope = getattr(sim, "shard_scope", None)

    def fire(tag, depth):
        log.append((sim.now.hex(), tag))
        rng = random.Random(f"{seed}:{tag}")
        if depth < 3:
            for i in range(rng.randrange(3)):
                sim.schedule_callback(
                    rng.uniform(0.0625, 40.0), fire, f"{tag}.{i}", depth + 1
                )

    def proc(tag):
        rng = random.Random(f"{seed}:p{tag}")
        for i in range(3):
            yield sim.timeout(rng.uniform(0.0625, 15.0))
            log.append((sim.now.hex(), f"p{tag}.{i}"))

    boot = random.Random(seed)
    for tag in range(24):
        shard = tag % n_shards
        ctx = scope(shard) if scope is not None else _null()
        with ctx:
            sim.schedule_callback_at(boot.uniform(0.0, 30.0), fire, str(tag), 0)
            if tag % 5 == 0:
                sim.process(proc(tag))
    sim.run()


class _null:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_shards", [2, 4])
def test_randomized_timeline_matches_single_core(seed, n_shards):
    with engine.use_shards(1):
        base_sim = Simulator()
    base_log = []
    _drive(base_sim, seed, n_shards, base_log)

    sharded = ShardedSimulator(n_shards)
    shard_log = []
    _drive(sharded, seed, n_shards, shard_log)

    assert shard_log == base_log
    assert len(base_log) > 50
    assert sharded.events_processed == base_sim.events_processed
    assert sharded.now.hex() == base_sim.now.hex()
    # the work genuinely spread: no timeline hogged everything
    per_shard = sharded.stats()["events_per_shard"]
    assert sum(1 for c in per_shard if c > 0) == n_shards


# --------------------------------------------------------------------------
# Figure scenarios through the auto-partitioned star
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n_shards", [1, 2, 4])
@pytest.mark.parametrize("name", perturb.scenario_names())
def test_figure_scenario_bit_identical_across_shard_counts(name, n_shards):
    with engine.use_shards(1):
        baseline = perturb._canonical_metrics(perturb._SCENARIOS[name]())
    with engine.use_shards(n_shards):
        sharded = perturb._canonical_metrics(perturb._SCENARIOS[name]())
    assert sharded == baseline


def test_figure_scenario_actually_crosses_the_cut():
    """The A/B above is vacuous unless traffic really uses the channels."""
    with engine.use_shards(2):
        sim_holder = {}
        orig = ShardedSimulator._schedule_cross

        def spy(self, *args, **kw):
            sim_holder["sim"] = self
            return orig(self, *args, **kw)

        ShardedSimulator._schedule_cross = spy
        try:
            perturb._SCENARIOS["fig3"]()
        finally:
            ShardedSimulator._schedule_cross = orig
    assert sim_holder["sim"].cross_messages > 0
