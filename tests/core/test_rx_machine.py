"""The SBA-200 receive firmware's callback state machine.

The i960 receive path runs as ``Store.get_then`` / ``Resource.use_then``
steps rather than a generator process.  These tests pin its timing to
values recorded from the generator firmware it replaced:

* a bidirectional exchange in which each host's transmit firmware holds
  the i960 while cells arrive, so receive steps queue for it -- on both
  scheduler cores and for every NI model that runs the machine;
* the ``ni_rx`` spans (``rx_cell``/``rx_single``/``rx_packet``) it
  emits under ``repro.obs``.
"""

import hashlib

import pytest

from repro import obs
from repro.core import UNetCluster
from repro.core.endpoint import Endpoint
from repro.sim import Resource, Simulator, engine

from tests.core.conftest import run

#: single-cell, multi-cell and inline-size messages, sent back to back
#: from both hosts at once.
SIZES = (8, 1000, 40, 3000, 36, 200, 16, 4000)

#: delivery times (us) of every PDU, per NI model: (receiving
#: endpoint, time, length) in delivery order, recorded from the
#: generator receive firmware.
PINNED = {
    "direct": [
        ("bob.ep0", 37.55714285714286, 8),
        ("alice.ep0", 37.55714285714286, 8),
        ("bob.ep0", 196.95714285714286, 1000),
        ("alice.ep0", 196.95714285714286, 1000),
        ("bob.ep0", 230.95714285714286, 40),
        ("alice.ep0", 230.95714285714286, 40),
        ("bob.ep0", 425.3571428571429, 3000),
        ("alice.ep0", 425.3571428571429, 3000),
        ("bob.ep0", 459.3571428571429, 36),
        ("alice.ep0", 459.3571428571429, 36),
        ("bob.ep0", 494.8571428571429, 200),
        ("alice.ep0", 494.8571428571429, 200),
        ("bob.ep0", 508.3571428571429, 16),
        ("alice.ep0", 508.3571428571429, 16),
        ("alice.ep0", 681.8857142857153, 4000),
        ("bob.ep0", 681.8857142857153, 4000),
    ],
    "fore": [
        ("alice.ep0", 122.05, 8),
        ("bob.ep0", 122.05, 8),
        ("alice.ep0", 339.2999999999998, 1000),
        ("bob.ep0", 339.2999999999998, 1000),
        ("alice.ep0", 366.7499999999998, 40),
        ("bob.ep0", 366.7499999999998, 40),
        ("alice.ep0", 805.3000000000014, 3000),
        ("bob.ep0", 805.3000000000014, 3000),
        ("alice.ep0", 832.7500000000015, 36),
        ("bob.ep0", 832.7500000000015, 36),
        ("alice.ep0", 874.0000000000017, 200),
        ("bob.ep0", 874.0000000000017, 200),
        ("alice.ep0", 901.4500000000018, 16),
        ("bob.ep0", 901.4500000000018, 16),
        ("alice.ep0", 1215.2500000000055, 4000),
        ("bob.ep0", 1215.2500000000055, 4000),
    ],
    "sba200": [
        ("bob.ep0", 37.55714285714286, 8),
        ("alice.ep0", 37.55714285714286, 8),
        ("bob.ep0", 195.95714285714286, 1000),
        ("alice.ep0", 195.95714285714286, 1000),
        ("bob.ep0", 209.45714285714286, 40),
        ("alice.ep0", 209.45714285714286, 40),
        ("bob.ep0", 419.9857142857145, 3000),
        ("alice.ep0", 419.9857142857145, 3000),
        ("bob.ep0", 433.4857142857145, 36),
        ("alice.ep0", 433.4857142857145, 36),
        ("bob.ep0", 468.9857142857145, 200),
        ("alice.ep0", 468.9857142857145, 200),
        ("bob.ep0", 482.4857142857145, 16),
        ("alice.ep0", 482.4857142857145, 16),
        ("alice.ep0", 675.5142857142868, 4000),
        ("bob.ep0", 675.5142857142868, 4000),
    ],
}


def exchange(ni_kind, monkeypatch):
    """Both hosts send ``SIZES`` to each other at t=0 and receive the
    other side's messages; returns every endpoint delivery."""
    deliveries = []
    deliver = Endpoint.deliver

    def recording_deliver(self, descriptor):
        deliveries.append((self.name, self.sim.now, descriptor.length))
        return deliver(self, descriptor)

    monkeypatch.setattr(Endpoint, "deliver", recording_deliver)
    sim = Simulator()
    cluster = UNetCluster.pair(sim, ni_kind=ni_kind)
    sa = cluster.open_session("alice", "pa", segment_size=128 * 1024)
    sb = cluster.open_session("bob", "pb", segment_size=128 * 1024)
    ch_a, ch_b = cluster.connect_sessions(sa, sb)

    def side(session, channel):
        yield from session.provide_receive_buffers(8)
        for i, size in enumerate(SIZES):
            yield from session.send_copy(channel.ident, bytes([i]) * size)

    def drain(session):
        for _ in SIZES:
            desc = yield from session.recv()
            if not desc.is_inline:
                yield from session.repost_free(desc)

    run(sim, side(sa, ch_a), side(sb, ch_b), drain(sa), drain(sb))
    return deliveries


@pytest.mark.parametrize("core", ["calendar", "heap"])
@pytest.mark.parametrize("ni_kind", sorted(PINNED))
def test_contended_delivery_times_match_generator_firmware(ni_kind, core, monkeypatch):
    grants = []
    granted_then = Resource._granted_then

    def counting(self, *args):
        grants.append(self.name)
        return granted_then(self, *args)

    monkeypatch.setattr(Resource, "_granted_then", counting)
    with engine.use_core(core):
        deliveries = exchange(ni_kind, monkeypatch)
    # The receive machine really queued behind the transmit firmware.
    assert {name.split(".")[0] for name in grants} == {"alice", "bob"}
    assert deliveries == PINNED[ni_kind]


#: sha256 over the ni_rx spans (name, host, t0, t1, attrs, parent name)
#: of one exchange, recorded from the generator receive firmware.
PINNED_SPANS = {
    "fore": (
        "eaf930f0c4dcc5ef4f6599a7905858b903d0d0666457c20fe0a19e83f2db7e20",
        354,
    ),
    "sba200": (
        "d8fde177a55cb6a3350348517d86405958ce66f3157d74f9b81912ea1b32b7ac",
        354,
    ),
}


def ni_rx_spans(ni_kind, monkeypatch):
    with obs.collecting() as collector:
        exchange(ni_kind, monkeypatch)
    rows = []
    for span in collector.spans:
        if span.layer != "ni_rx":
            continue
        attrs = sorted((span.attrs or {}).items())
        parent = span.parent.name if span.parent is not None else None
        rows.append(
            f"{span.name}|{span.host}|{span.t0.hex()}|{span.t1.hex()}|{attrs}|{parent}"
        )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest(), len(rows)


@pytest.mark.parametrize("ni_kind", sorted(PINNED_SPANS))
def test_ni_rx_spans_match_generator_firmware(ni_kind, monkeypatch):
    assert ni_rx_spans(ni_kind, monkeypatch) == PINNED_SPANS[ni_kind]
