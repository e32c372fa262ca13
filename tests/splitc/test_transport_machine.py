"""ModelTransport's callback NIC pump and receive path.

The pump and the per-batch receive path run as ``Store.get_then`` /
``Resource.use_then`` steps rather than generator processes, and the
Split-C handlers return their reply instead of sending it.  These tests
pin a contended three-rank exchange to values recorded from the
generator transport it replaced:

* rank 0 computes while read replies and puts arrive, so receive
  overheads queue behind the compute hold;
* ranks 1 and 2 send at the same instants, so rank 0 drains arrival
  batches holding both sources;
* the traffic mixes small messages, a bulk put and a bulk ``get`` reply.

The handler times and ``events_processed`` are checked directly; the
timestamp-only timeline digest is the one
``tests/analysis/test_scenario_golden.py`` computes.
"""

import hashlib

import numpy as np

from repro.analysis import race
from repro.sim import Resource, Simulator
from repro.splitc import CM5, ModelTransport, SplitC

NPROCS = 3

#: every handler call: (time, receiving rank, source rank, message
#: kind), recorded from the generator transport.
PINNED_HANDLERS = [
    (12.0, 1, 0, 1),
    (12.0, 2, 0, 1),
    (49.0, 0, 1, 5),
    (52.0, 0, 1, 2),
    (58.0, 0, 2, 2),
    (61.0, 0, 1, 10),
    (61.0, 1, 0, 4),
    (70.0, 0, 1, 3),
    (70.0, 1, 0, 6),
    (76.0, 0, 2, 5),
    (76.0, 1, 0, 4),
    (79.0, 1, 0, 4),
    (82.0, 0, 2, 10),
    (85.0, 2, 0, 4),
    (88.0, 0, 2, 3),
    (91.0, 2, 0, 4),
    (97.0, 2, 0, 4),
    (98.7, 0, 1, 7),
    (101.7, 0, 1, 8),
    (114.7, 0, 2, 8),
    (123.7, 1, 0, 9),
    (126.7, 2, 0, 9),
]
PINNED_EVENTS = 144
PINNED_TIMELINE = "0e304e1a0f12ca9395ee991ac0ca3b7d73ac568df51f2e52f22f865a0365d94a"


def app(sc, out):
    if sc.rank == 0:
        f1 = yield from sc.read_async(1, "a", 3)
        f2 = yield from sc.read_async(2, "a", 5)
        yield from sc.compute(40.0)  # the read replies land during this hold
        v1 = yield from sc.read_wait(f1, "a")
        v2 = yield from sc.read_wait(f2, "a")
        out["reads"] = (v1, v2)
        out["get"] = (yield from sc.get_bulk(1, "a", 8, 24)).tolist()
        yield from sc.compute(10.0)
    else:
        yield from sc.put_bulk(0, "b", 8 * sc.rank, np.full(8, float(sc.rank)))
        yield from sc.store_scalar2(0, "c", sc.rank, float(sc.rank), 4 + sc.rank, 2.0)
        yield from sc.write(0, "c", 10 + sc.rank, 1.0)
        yield from sc.sync()
    yield from sc.barrier()


def exchange():
    """Run the exchange; returns (sim, handler calls, app results)."""
    sim = Simulator()
    tp = ModelTransport(sim, CM5, NPROCS)
    scs = [SplitC(tp, r) for r in range(NPROCS)]
    calls, out = [], {}
    for sc in scs:
        sc.alloc("a", 64)[:] = 100.0 * sc.rank + np.arange(64)
        sc.alloc("b", 32)
        sc.alloc("c", 16)
        handler = tp._handlers[sc.rank]

        def recording(src, raw, _rank=sc.rank, _handler=handler):
            calls.append((sim.now, _rank, src, raw[0]))
            return _handler(src, raw)

        tp.attach(sc.rank, recording)
    procs = [sim.process(app(sc, out)) for sc in scs]
    sim.run()
    assert not any(p.is_alive for p in procs), "a rank stalled"
    out["b"] = scs[0].local("b").tolist()
    out["c"] = scs[0].local("c").tolist()
    return sim, calls, out


def test_contended_exchange_matches_generator_transport(monkeypatch):
    grants, batches = [], []
    granted_then = Resource._granted_then
    drain = ModelTransport._drain

    def counting(self, *args):
        grants.append(self.name)
        return granted_then(self, *args)

    def recording_drain(self, dst, arrival):
        batches.append((dst, sorted({m[0] for m in self._arrivals[dst][arrival]})))
        return drain(self, dst, arrival)

    monkeypatch.setattr(Resource, "_granted_then", counting)
    monkeypatch.setattr(ModelTransport, "_drain", recording_drain)
    sim, calls, out = exchange()
    # The scenario really exercises what it claims to.
    assert "pe0.cpu" in grants
    assert (0, [1, 2]) in batches
    assert out["reads"] == (103.0, 205.0)
    assert out["get"] == [100.0 + i for i in range(8, 32)]
    assert out["b"][8:24] == [1.0] * 8 + [2.0] * 8
    assert calls == PINNED_HANDLERS
    assert sim.events_processed == PINNED_EVENTS


def test_contended_exchange_timeline_matches_generator_transport():
    with race.detected() as tracker:
        exchange()
    times = ",".join(when.hex() for when, _label in tracker.trace)
    assert len(tracker.trace) == PINNED_EVENTS
    assert hashlib.sha256(times.encode()).hexdigest() == PINNED_TIMELINE
