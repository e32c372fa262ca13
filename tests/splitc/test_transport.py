"""Transport timing semantics (LogP model) and UNetTransport plumbing."""

import pytest

from repro.core import UNetCluster
from repro.sim import Simulator
from repro.splitc import CM5, MEIKO_CS2, ModelTransport, UNetTransport
from repro.splitc.machines import MachineSpec


def collect(sim, transport, rank, hits):
    def handler(src, data):
        hits.append((sim.now, src, data))

    transport.attach(rank, handler)


class TestModelTransportTiming:
    def test_small_message_cost(self):
        """Sender busy o; delivery after o + L + o."""
        sim = Simulator()
        tp = ModelTransport(sim, CM5, 2)
        hits = []
        collect(sim, tp, 1, hits)

        def sender():
            yield from tp.send(0, 1, b"m")
            return sim.now

        p = sim.process(sender())
        sim.run()
        assert p.value == pytest.approx(CM5.overhead_us)
        expected = CM5.overhead_us + CM5.one_way_wire_us + CM5.overhead_us
        assert hits[0][0] == pytest.approx(expected)

    def test_bulk_serialization_at_bandwidth(self):
        sim = Simulator()
        tp = ModelTransport(sim, CM5, 2)
        hits = []
        collect(sim, tp, 1, hits)
        nbytes = 100_000

        def sender():
            yield from tp.send_bulk(0, 1, bytes(nbytes))

        sim.process(sender())
        sim.run()
        wire = CM5.bulk_wire_us(nbytes)
        expected = CM5.overhead_us + wire + CM5.one_way_wire_us + CM5.overhead_us
        assert hits[0][0] == pytest.approx(expected, rel=0.01)

    def test_per_source_ordering(self):
        """A bulk followed by a small message from one source must not
        be overtaken."""
        sim = Simulator()
        tp = ModelTransport(sim, CM5, 2)
        hits = []
        collect(sim, tp, 1, hits)

        def sender():
            yield from tp.send_bulk(0, 1, bytes(50_000))
            yield from tp.send(0, 1, b"after")

        sim.process(sender())
        sim.run()
        assert [h[2] for h in hits][-1] == b"after"
        assert len(hits) == 2

    def test_machine_parameters_differentiate(self):
        """The same exchange is slower on the higher-overhead Meiko."""
        def rtt(machine: MachineSpec) -> float:
            sim = Simulator()
            tp = ModelTransport(sim, machine, 2)
            times = {}

            def echo(src, data):
                return data, False

            def done(src, data):
                times["t1"] = sim.now

            tp.attach(1, echo)
            tp.attach(0, done)

            def client():
                yield from tp.send(0, 1, b"x")

            sim.process(client())
            sim.run()
            return times["t1"]

        assert rtt(CM5) < rtt(MEIKO_CS2)

    def test_handlers_can_send_without_deadlock(self):
        """Reply-from-handler re-acquires the CPU (regression test for
        the re-entrant resource deadlock)."""
        sim = Simulator()
        tp = ModelTransport(sim, CM5, 2)
        got = {}

        def echo(src, data):
            return b"re:" + data, False

        def sink(src, data):
            got["reply"] = data

        tp.attach(1, echo)
        tp.attach(0, sink)

        def client():
            yield from tp.send(0, 1, b"hello")

        sim.process(client())
        sim.run(until=1e6)
        assert got.get("reply") == b"re:hello"

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelTransport(Simulator(), CM5, 0)


class TestUNetTransport:
    def _build(self, nprocs=3):
        sim = Simulator()
        cluster = UNetCluster(sim, [(f"h{i}", 60.0) for i in range(nprocs)])
        return sim, UNetTransport(cluster, nprocs=nprocs)

    def test_small_messages_use_single_cell_requests(self):
        sim, tp = self._build(2)
        hits = []
        collect(sim, tp, 1, hits)

        def main():
            yield from tp.start()
            yield from tp.send(0, 1, b"tiny")

        sim.process(main())
        sim.run(until=1e6)
        assert hits and hits[0][2] == b"tiny"
        # single-cell request: delivered on the ~70 us UAM timescale
        assert hits[0][0] < 200.0

    def test_bulk_goes_via_uam_store(self):
        sim, tp = self._build(2)
        hits = []
        collect(sim, tp, 1, hits)
        blob = bytes(i % 256 for i in range(10_000))

        def main():
            yield from tp.start()
            yield from tp.send_bulk(0, 1, blob)

        sim.process(main())
        sim.run(until=1e7)
        assert hits and hits[0][2] == blob

    def test_replies_over_36_bytes_or_flagged_bulk_use_uam_store(self):
        """A handler's reply goes bulk when flagged or when it does not
        fit one UAM request, exactly as ``send``/``send_bulk`` route."""
        sim, tp = self._build(2)
        replies = {b"long": (bytes(range(40)), False), b"bulk": (b"tiny", True)}
        stored = []
        store = tp.uams[1].store

        def recording_store(channel, data, **kwargs):
            stored.append(data)
            return store(channel, data, **kwargs)

        tp.uams[1].store = recording_store
        tp.attach(1, lambda src, data: replies[data])
        hits = []
        collect(sim, tp, 0, hits)

        def main():
            yield from tp.start()
            yield from tp.send(0, 1, b"long")
            yield from tp.send(0, 1, b"bulk")

        sim.process(main())
        sim.run(until=1e7)
        assert stored == [bytes(range(40)), b"tiny"]
        assert [h[2] for h in hits] == stored

    def test_all_pairs_connected(self):
        sim, tp = self._build(3)
        for a in range(3):
            peers = set(tp._channel_to[a])
            assert peers == {b for b in range(3) if b != a}

    def test_too_few_hosts_rejected(self):
        sim = Simulator()
        cluster = UNetCluster.pair(sim)
        with pytest.raises(ValueError):
            UNetTransport(cluster, nprocs=3)
