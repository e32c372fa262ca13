"""Perturbation harness tests: canonicalization, verdicts, scenarios.

Includes the before/after regression for the ModelTransport arrival
race: a miniature rebuild of the *old* delivery pattern (per-message
processes racing for the destination CPU) is CONFIRMED by the harness,
while the shipped arrival-arbiter code is not.
"""

import pytest

from repro.analysis import perturb
from repro.analysis.race import detected
from repro.sim import Resource, Simulator
from repro.splitc import CM5, ModelTransport


def _scenario(monkeypatch, fn, name="tmp"):
    monkeypatch.setitem(perturb._SCENARIOS, name, fn)
    return name


# -- canonicalization ------------------------------------------------------

def test_canonical_trace_groups_by_timestamp():
    trace = [(1.0, "a"), (1.0, "b"), (1.0, "a"), (2.5, "c")]
    groups = perturb._canonical_trace(trace)
    assert groups == [
        ((1.0).hex(), (("a", 2), ("b", 1))),
        ((2.5).hex(), (("c", 1),)),
    ]


def test_canonical_trace_is_order_insensitive_within_groups():
    fifo = perturb._canonical_trace([(1.0, "a"), (1.0, "b")])
    lifo = perturb._canonical_trace([(1.0, "b"), (1.0, "a")])
    assert fifo == lifo


def test_canonical_metrics_hex_floats():
    out = perturb._canonical_metrics({"x": 0.1, "n": 3})
    assert out == {"x": (0.1).hex(), "n": "3"}


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        perturb.run_scenario("no-such-figure")


def test_registry_covers_all_figures():
    assert {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "sample_sort"} \
        <= set(perturb.scenario_names())


# -- verdict classification ------------------------------------------------

def _racy_metric():
    """A metric that genuinely depends on the same-timestamp tie order."""
    sim = Simulator()
    order = []
    sim.schedule_callback(1.0, order.append, 10.0)
    sim.schedule_callback(1.0, order.append, 20.0)
    sim.run()
    return {"first": order[0]}


def _stable_metric():
    sim = Simulator()
    seen = []
    sim.schedule_callback(1.0, seen.append, 10.0)
    sim.schedule_callback(2.0, seen.append, 20.0)
    sim.run()
    return {"first": seen[0]}


def test_order_dependent_scenario_is_confirmed(monkeypatch):
    name = _scenario(monkeypatch, _racy_metric)
    verdict = perturb.race_check(name, random_orders=1)
    assert verdict.diverged
    assert verdict.status in ("CONFIRMED", "DIVERGED")
    assert any(diff.metric_diffs for diff in verdict.diffs)
    assert "lifo" in verdict.format()


def test_stable_scenario_is_clean(monkeypatch):
    name = _scenario(monkeypatch, _stable_metric)
    verdict = perturb.race_check(name, random_orders=1)
    assert not verdict.diverged
    assert verdict.status == "CLEAN"
    assert verdict.confirmed == []


def test_trace_reorder_without_metric_divergence_is_benign(monkeypatch):
    """Same-timestamp commuting work: traces may reorder group-internally
    only (which canonicalization absorbs); metrics are the verdict."""

    def commuting():
        sim = Simulator()
        acc = []
        sim.schedule_callback(1.0, acc.append, 1.0)
        sim.schedule_callback(1.0, acc.append, 2.0)
        sim.run()
        return {"total": sum(acc)}  # addition commutes

    name = _scenario(monkeypatch, commuting)
    verdict = perturb.race_check(name, random_orders=1)
    assert not verdict.diverged
    assert verdict.status == "CLEAN"


# -- the ModelTransport arrival race: before / after -----------------------

def _old_style_delivery_metrics():
    """The pre-fix delivery pattern: one process per message, each
    sleeping the wire latency then contending for the destination CPU.
    Which message wins the same-instant contention is a heap-insertion
    accident, and the handler log shows it."""
    sim = Simulator()
    cpu = Resource(sim, 1, name="rx.cpu")
    log = []

    def deliver(src):
        yield sim.timeout(5.0)  # both arrive at t=5
        yield from cpu.use(3.0)
        log.append(src)

    sim.process(deliver(0))
    sim.process(deliver(1))
    sim.run()
    return {"first_handled": float(log[0])}


def test_old_delivery_pattern_is_confirmed_by_harness(monkeypatch):
    name = _scenario(monkeypatch, _old_style_delivery_metrics, "old-deliver")
    verdict = perturb.race_check(name, random_orders=2)
    assert verdict.diverged, "per-message CPU contention must diverge"


def _model_transport_metrics():
    """The shipped code: rank 1 and rank 2 both message rank 0 at the
    same instant; the arrival arbiter must pin the delivery order."""
    sim = Simulator()
    tp = ModelTransport(sim, CM5, 3)
    log = []

    def handler(src, data):
        log.append(src)

    tp.attach(0, handler)

    def sender(rank):
        yield from tp.send(rank, 0, b"x")

    sim.process(sender(1))
    sim.process(sender(2))
    sim.run()
    return {"first": float(log[0]), "second": float(log[1])}


def test_model_transport_arrivals_are_order_stable(monkeypatch):
    name = _scenario(monkeypatch, _model_transport_metrics, "mt-arrivals")
    verdict = perturb.race_check(name, random_orders=2)
    assert not verdict.diverged, verdict.format()
    # fixed-priority arbitration: lowest source rank delivered first
    baseline = verdict.baseline.metrics
    assert baseline["first"] == (1.0).hex()
    assert baseline["second"] == (2.0).hex()


def test_fig5_scenario_has_no_confirmed_races():
    """The figure-5 Split-C run is stable under lifo and random:1.

    This is not a proof that fig5 is free of tie-order races: with more
    seeded shuffles it diverges (see
    ``test_fig5_receiver_cpu_race_is_latent``).  random:1 happens not to
    reorder the racing pair, and it stays that way only while the
    transport schedules the same entries in the same order."""
    verdict = perturb.race_check("fig5", random_orders=1)
    assert not verdict.diverged, verdict.format()
    assert verdict.confirmed == []


#: fig5's per-order metrics under race_check(random_orders=8), recorded
#: from the generator ModelTransport.  random:3 and random:5 hit the
#: latent receiver-CPU race.
_FIG5_STABLE = {
    "comm_us": "0x1.036e51e5f53dbp+11",
    "total_us": "0x1.4df8fe5e8c7f0p+11",
    "verified": "1",
}
_FIG5_RACED = {
    "comm_us": "0x1.04009b0a8786dp+11",
    "total_us": "0x1.4e8b47831ec82p+11",
    "verified": "1",
}
FIG5_ORDER_METRICS = {
    "fifo": _FIG5_STABLE,
    "lifo": _FIG5_STABLE,
    **{
        f"random:{seed}": _FIG5_RACED if seed in (3, 5) else _FIG5_STABLE
        for seed in range(1, 9)
    },
}


@pytest.fixture(scope="module")
def fig5_eight_orders():
    return perturb.race_check("fig5", random_orders=8)


def test_fig5_perturbation_outcomes_are_pinned(fig5_eight_orders):
    verdict = fig5_eight_orders
    got = {"fifo": verdict.baseline.metrics}
    got.update((run.order, run.metrics) for run in verdict.runs)
    assert got == FIG5_ORDER_METRICS


@pytest.mark.xfail(
    strict=True,
    reason="latent receiver-CPU race: an arrival batch can start at the "
    "instant an earlier hold on the same CPU ends, with no schedule edge "
    "between them, so random:3 and random:5 change fig5's comm_us and "
    "total_us",
)
def test_fig5_receiver_cpu_race_is_latent(fig5_eight_orders):
    assert not fig5_eight_orders.diverged, fig5_eight_orders.format()


# -- run_scenario plumbing -------------------------------------------------

def test_run_scenario_returns_canonical_run(monkeypatch):
    name = _scenario(monkeypatch, _stable_metric)
    run = perturb.run_scenario(name, tie="lifo")
    assert run.tie == "lifo"
    assert run.order == "lifo"
    assert run.metrics == {"first": (10.0).hex()}
    assert run.entries > 0
    assert run.trace_groups


def test_run_scenario_restores_instrumentation(monkeypatch):
    from repro.sim import engine

    name = _scenario(monkeypatch, _stable_metric)
    previous = (engine._monitor_factory, engine.access_hook)
    perturb.run_scenario(name)
    assert (engine._monitor_factory, engine.access_hook) == previous
