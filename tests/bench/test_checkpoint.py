"""Phase-boundary checkpointing: fork/serial identity, keying, and the
persistent warm-snapshot store."""

import pickle

import pytest

from repro.bench import cache, checkpoint, parallel
from repro.sim import Simulator

POINTS = [2.0, 5.0, 11.0]


def _build_warm():
    """Cheap deterministic warm world: a self-rescheduling counter run
    to its phase boundary."""
    sim = Simulator()
    state = {"n": 0}

    def tick():
        state["n"] += 1
        if sim.now < 200.0:
            sim.schedule_callback(1.0, tick)

    sim.schedule_callback(0.0, tick)
    sim.run(until=50.0)
    return sim, state


def _run_point(world, extra):
    sim, state = world
    sim.run(until=sim.now + extra)
    return (state["n"], sim.now.hex(), sim.events_processed)


def test_fork_and_serial_sweeps_are_identical():
    serial = checkpoint.sweep(_build_warm, _run_point, POINTS, use_fork=False)
    assert len(serial) == len(POINTS)
    # monotone: a longer suffix sees at least as many ticks
    assert serial[0][0] < serial[-1][0]
    if not parallel.fork_available():
        pytest.skip("os.fork not usable here")
    forked = checkpoint.sweep(_build_warm, _run_point, POINTS, use_fork=True)
    assert forked == serial


def test_fork_leaves_parent_world_pristine():
    if not parallel.fork_available():
        pytest.skip("os.fork not usable here")
    world = _build_warm()
    warm_n, warm_now = world[1]["n"], world[0].now
    results = [
        checkpoint._run_forked(world, _run_point, p) for p in POINTS
    ]
    # every child saw the same warm state; the parent never advanced
    assert world[1]["n"] == warm_n
    assert world[0].now == warm_now
    assert results == checkpoint.sweep(
        _build_warm, _run_point, POINTS, use_fork=False
    )


def test_sweep_counters_and_empty_points():
    checkpoint.reset_counters()
    assert checkpoint.sweep(_build_warm, _run_point, []) == []
    assert (checkpoint.forked_points, checkpoint.rebuilt_points) == (0, 0)
    checkpoint.sweep(_build_warm, _run_point, POINTS, use_fork=False)
    assert checkpoint.rebuilt_points == len(POINTS)
    checkpoint.reset_counters()


def test_kill_switch_disables_fork(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CHECKPOINT", "0")
    assert not checkpoint.enabled()
    checkpoint.reset_counters()
    checkpoint.sweep(_build_warm, _run_point, POINTS)  # use_fork=None
    assert checkpoint.forked_points == 0
    assert checkpoint.rebuilt_points == len(POINTS)
    checkpoint.reset_counters()


# --------------------------------------------------------------------------
# Snapshot keying: anything that could change the warm world changes the key
# --------------------------------------------------------------------------

def test_snapshot_key_varies_with_tag_and_params():
    base = checkpoint.snapshot_key("fig3", {"warmup": 400})
    assert checkpoint.snapshot_key("fig3", {"warmup": 401}) != base
    assert checkpoint.snapshot_key("fig4", {"warmup": 400}) != base
    assert checkpoint.snapshot_key("fig3", {"warmup": 400}) == base


def test_snapshot_key_invalidated_by_source_digest(monkeypatch):
    base = checkpoint.snapshot_key("fig3", {"warmup": 400})
    monkeypatch.setattr(cache, "source_digest", lambda: "0" * 64)
    assert checkpoint.snapshot_key("fig3", {"warmup": 400}) != base


def test_snapshot_key_invalidated_by_numpy_version(monkeypatch):
    base = checkpoint.snapshot_key("fig3", {"warmup": 400})
    monkeypatch.setattr(cache, "numpy_tag", lambda: "numpy=0.0")
    assert checkpoint.snapshot_key("fig3", {"warmup": 400}) != base


def test_snapshot_key_invalidated_by_schema(monkeypatch):
    base = checkpoint.snapshot_key("fig3", {"warmup": 400})
    monkeypatch.setattr(checkpoint, "CHECKPOINT_SCHEMA", 999)
    assert checkpoint.snapshot_key("fig3", {"warmup": 400}) != base


# --------------------------------------------------------------------------
# Persistent snapshot store
# --------------------------------------------------------------------------

TICKS = []


def _count(tag):
    TICKS.append(tag)


def _build_store_world():
    sim = Simulator()
    for i, delay in enumerate([60.0, 70.0, 80.0]):
        sim.schedule_callback(delay, _count, i)
    sim.run(until=55.0)
    return sim


@pytest.fixture
def tmp_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SIM_CHECKPOINT", raising=False)
    TICKS.clear()
    yield


def test_warm_world_stores_then_loads(tmp_store):
    key = checkpoint.snapshot_key("store-test", {"v": 1})
    assert checkpoint.load_snapshot(key) is None

    built = checkpoint.warm_world("store-test", {"v": 1}, _build_store_world)
    assert built.now == 55.0
    assert (checkpoint.snapshot_dir() / f"{key}.pkl").exists()

    loaded = checkpoint.warm_world(
        "store-test", {"v": 1}, lambda: pytest.fail("should hit the store")
    )
    assert loaded.now == 55.0
    loaded.run()
    assert TICKS == [0, 1, 2]
    assert loaded.now == 80.0


def test_load_snapshot_unlinks_corrupt_entries(tmp_store):
    key = "0" * 64
    directory = checkpoint.snapshot_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.pkl"
    path.write_bytes(b"not a pickle")
    assert checkpoint.load_snapshot(key) is None
    assert not path.exists()


def test_store_snapshot_refuses_event_worlds(tmp_store):
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)

    sim.process(proc(), name="p")
    # pending Event entries cannot snapshot: the engine's typed error
    # propagates and no blob (not even a temp file) is left behind
    from repro.sim.engine import SimulationError

    with pytest.raises(SimulationError, match="pending Event"):
        checkpoint.store_snapshot("e" * 64, sim)
    assert not (checkpoint.snapshot_dir() / ("e" * 64 + ".pkl")).exists()
    leftovers = list(checkpoint.snapshot_dir().glob("*.tmp"))
    assert leftovers == []