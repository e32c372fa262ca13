"""Scheduler mechanisms: timers, pooling, step, run-until, stats.

The observable-contract tests live in ``test_core_equivalence.py``;
this file pins down the mechanisms — O(1) timer cancellation, handle
recycling through the pool, step/run agreement, pausing at ``until``
and the stats report.
"""

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError


# --------------------------------------------------------------------------
# Timer semantics
# --------------------------------------------------------------------------

def test_timer_fires_with_args():
    sim = Simulator()
    fired = []
    sim.schedule_timer(5.0, fired.append, "a")
    sim.schedule_timer(3.0, fired.append, "b")
    sim.run()
    assert fired == ["b", "a"]
    assert sim.now == 5.0


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    keep = sim.schedule_timer(4.0, fired.append, "keep")
    drop = sim.schedule_timer(2.0, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.when == 4.0


def test_cancel_is_idempotent_and_late_cancel_is_noop():
    sim = Simulator()
    fired = []
    h = sim.schedule_timer(1.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    h.cancel()  # already fired: no-op
    h.cancel()  # and again
    assert fired == ["x"]


def test_cancelled_timer_entry_still_advances_clock():
    """A dead entry is popped as a no-op but its timestamp is still
    observed — run() drains the schedule, exactly like the seed."""
    sim = Simulator()
    sim.schedule_timer(7.0, lambda: None).cancel()
    sim.run()
    assert sim.now == 7.0


def test_timer_cancel_inside_callback():
    sim = Simulator()
    fired = []
    victim = sim.schedule_timer(10.0, fired.append, "victim")
    sim.schedule_callback(5.0, victim.cancel)
    sim.run()
    assert fired == []


# --------------------------------------------------------------------------
# Handle pooling (identity proves recycling)
# --------------------------------------------------------------------------

def test_pool_recycles_handle_after_fire():
    sim = Simulator()
    first = sim.schedule_timer(1.0, lambda: None)
    sim.run()
    second = sim.schedule_timer(1.0, lambda: None)
    assert second is first


def test_pool_recycles_handle_after_cancel():
    sim = Simulator()
    first = sim.schedule_timer(1.0, lambda: None)
    first.cancel()
    sim.run()  # the dead entry pops; the handle returns to the pool
    second = sim.schedule_timer(1.0, lambda: None)
    assert second is first
    fired = []
    second.cancel()
    third = sim.schedule_timer(0.5, fired.append, "live")
    sim.run()
    assert third is not second  # second's entry is still in flight
    assert fired == ["live"]


def test_pool_does_not_recycle_in_flight_handles():
    sim = Simulator()
    first = sim.schedule_timer(5.0, lambda: None)
    second = sim.schedule_timer(6.0, lambda: None)
    assert second is not first


# --------------------------------------------------------------------------
# Draining: peek, step, run-until
# --------------------------------------------------------------------------

def test_peek_reports_the_earliest_entry():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.schedule_callback(50.0, lambda: None)
    assert sim.peek() == 50.0
    sim.schedule_callback(60.0, lambda: None)
    assert sim.peek() == 50.0
    sim.schedule_callback(10.0, lambda: None)
    assert sim.peek() == 10.0


def test_step_drains_in_run_order():
    def build(sim, log):
        sim.schedule_callback(2.0, log.append, "b")
        sim.schedule_callback(1.0, log.append, "a")
        sim.schedule_timer(32768.0, log.append, "far")
        sim.schedule_callback(2.0, log.append, "c")  # same-time tie

    ref_sim, ref = Simulator(), []
    build(ref_sim, ref)
    ref_sim.run()

    sim, log = Simulator(), []
    build(sim, log)
    steps = 0
    while sim.peek() != float("inf"):
        sim.step()
        steps += 1
    assert log == ref == ["a", "b", "c", "far"]
    assert steps == sim.events_processed == ref_sim.events_processed
    with pytest.raises(SimulationError, match="empty schedule"):
        sim.step()


def test_run_until_pauses_and_resumes():
    sim = Simulator()
    order = []
    sim.schedule_callback(10.0, order.append, "early")
    sim.schedule_callback(30.0, order.append, "late")
    sim.run(until=20.0)
    assert order == ["early"]
    assert sim.now == 20.0
    with pytest.raises(ValueError, match="lies in the past"):
        sim.run(until=5.0)
    sim.run()
    assert order == ["early", "late"]


def test_stats_report_shape():
    sim = Simulator()
    sim.schedule_callback(1.0, lambda: None)
    sim.schedule_timer(2.0, lambda: None)
    assert sim.stats() == {
        "core": "heap",
        "schedules": 2,
        "depth": 2,
        "timer_pool_size": 0,
        "batch_fused": 0,
    }
    sim.run()
    assert sim.stats()["depth"] == 0
    assert sim.stats()["timer_pool_size"] == 1
