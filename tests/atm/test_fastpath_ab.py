"""A/B equivalence: cell-train fast path vs. per-cell simulation.

The analytic fast path in :mod:`repro.atm.link` must be *bit-identical*
to the per-cell path it replaces — same delivery timestamps, same cell
ordering, same sender completion times — or every figure in the paper
reproduction silently shifts.  These tests pin that equivalence at the
link level, through the switch, and end-to-end through the benchmark
harness.
"""

import pytest

import repro.atm.link as linkmod
from repro.atm.aal5 import segment_pdu
from repro.atm.network import AtmNetwork
from repro.atm.switch import Switch
from repro.sim import Simulator


def _run_frame(fast_path, payload=bytes(4000)):
    """Push one AAL5 frame a->b; return (deliveries, done_time, link)."""
    sim = Simulator()
    net = AtmNetwork(sim, n_ports=2)
    pa = net.attach("a")
    pb = net.attach("b")
    pair = net.open_virtual_circuit("a", "b")
    pa.tx_link.fast_path = fast_path

    got = []
    pb.set_rx_sink(lambda cell: got.append((sim.now, cell.vci, cell.seq)))

    def producer():
        yield pa.tx_link.put_train(segment_pdu(payload, pair.tx))
        return sim.now

    p = sim.process(producer())
    sim.run()
    return got, p.value, pa.tx_link


class TestLinkLevelEquivalence:
    def test_delivery_timestamps_bit_identical(self):
        fast, fast_done, fast_link = _run_frame(True)
        slow, slow_done, slow_link = _run_frame(False)
        assert len(fast) == len(slow) > 1
        # Exact float equality, not approx: the fast path computes the
        # same absolute finish times the per-cell path would.
        assert fast == slow
        assert fast_done == slow_done
        # The fast path really was exercised: whole trains, not cells.
        assert fast_link.trains_sent == 1
        assert slow_link.trains_sent == 0
        assert fast_link.cells_sent == slow_link.cells_sent

    def test_every_cell_delivered_both_paths(self):
        payload = bytes(range(256)) * 8
        expected = len(segment_pdu(payload, 42))
        for fast_path in (True, False):
            got, _, _ = _run_frame(fast_path, payload)
            assert len(got) == expected

    def test_single_cell_frame_never_trains(self):
        # A one-cell PDU takes the per-cell path even with fast_path on.
        got, _, link = _run_frame(True, payload=b"x")
        assert len(got) == 1
        assert link.trains_sent == 0


class TestContendingTrains:
    def _contend(self, fast_path):
        """Two hosts blast frames at the same destination port."""
        sim = Simulator()
        net = AtmNetwork(sim, n_ports=3)
        pa = net.attach("a")
        pb = net.attach("b")
        pc = net.attach("c")
        pair_ac = net.open_virtual_circuit("a", "c")
        pair_bc = net.open_virtual_circuit("b", "c")
        pa.tx_link.fast_path = fast_path
        pb.tx_link.fast_path = fast_path

        got = []
        pc.set_rx_sink(lambda cell: got.append((sim.now, cell.vci, cell.seq)))

        def blast(port, vci):
            yield port.tx_link.put_train(segment_pdu(bytes(2000), vci))

        sim.process(blast(pa, pair_ac.tx))
        sim.process(blast(pb, pair_bc.tx))
        sim.run()
        return got

    def test_interleaving_at_contended_port_identical(self):
        assert self._contend(True) == self._contend(False)


class TestEndToEndEquivalence:
    @pytest.fixture
    def _flip_default(self, monkeypatch):
        def flip(value):
            monkeypatch.setattr(linkmod, "FAST_PATH_DEFAULT", value)

        return flip

    def test_raw_rtt_identical(self, _flip_default):
        from repro.bench import raw_rtt

        _flip_default(True)
        fast = raw_rtt(1024, n=4).mean_us
        _flip_default(False)
        slow = raw_rtt(1024, n=4).mean_us
        assert fast == slow

    def test_raw_bandwidth_identical(self, _flip_default):
        from repro.bench import raw_bandwidth

        _flip_default(True)
        fast = raw_bandwidth(2048).bytes_per_second
        _flip_default(False)
        slow = raw_bandwidth(2048).bytes_per_second
        assert fast == slow


class TestCarriedTrains:
    """The switch carries a train through an output fed by one input port
    in one heap entry; every observable must match per-cell forwarding
    (``FAST_PATH_DEFAULT=False``), across mid-train route changes too."""

    PAYLOAD = bytes(4000)  # 84 cells

    @pytest.fixture
    def arrivals(self, monkeypatch):
        """The carried train's arrival floats at the switch input."""
        seen = []
        receive_train = Switch._receive_train

        def spy(switch, port, train):
            seen.append(list(train.arrivals_us))
            receive_train(switch, port, train)

        monkeypatch.setattr(Switch, "_receive_train", spy)
        self._run(True, monkeypatch)
        monkeypatch.setattr(Switch, "_receive_train", receive_train)
        assert len(seen) == 1 and len(seen[0]) == len(segment_pdu(self.PAYLOAD, 32))
        return seen[0]

    def _run(self, fast_path, monkeypatch, teardown_at=None, second_at=None):
        """a -> c train; optionally tear its circuit down, or open b -> c
        and send on it, at ``*_at`` (a simulated time).  Returns what
        host c saw, the switch, and the output link to c."""
        monkeypatch.setattr(linkmod, "FAST_PATH_DEFAULT", fast_path)
        sim = Simulator()
        net = AtmNetwork(sim, n_ports=3)
        pa, pb, pc = (net.attach(name) for name in "abc")
        pair = net.open_virtual_circuit("a", "c")
        got = []
        pc.set_rx_sink(lambda cell: got.append((sim.now, cell.vci, cell.seq)))
        pa.tx_link.put_train(segment_pdu(self.PAYLOAD, pair.tx))
        if teardown_at is not None:
            sim.run(until=teardown_at)
            net.close_virtual_circuit("a", "c", pair)
        if second_at is not None:
            sim.run(until=second_at)
            pair_bc = net.open_virtual_circuit("b", "c")
            pb.tx_link.put_train(segment_pdu(bytes(1000), pair_bc.tx))
        sim.run()
        return got, net.switch, net.switch.output_links[2]

    def _instants(self, arrivals):
        cell_us = arrivals[1] - arrivals[0]
        mid = len(arrivals) // 2
        return [
            arrivals[0],  # on the first cell: only it keeps the route
            arrivals[0] + 1.0,  # before the carry entry has claimed
            arrivals[mid],  # exactly on a mid-train cell's arrival float
            arrivals[mid] + cell_us / 2,  # between two cells
            arrivals[-1] - cell_us / 4,  # just before the last cell
            arrivals[-1] + 1.0,  # after the train: nothing to take back
        ]

    def test_undisturbed_train_is_carried(self, monkeypatch):
        got, switch, link = self._run(True, monkeypatch)
        ref, ref_switch, ref_link = self._run(False, monkeypatch)
        assert got == ref
        assert switch._carried and not ref_switch._carried
        assert switch.cells_switched == ref_switch.cells_switched == len(ref)
        assert (link.cells_sent, link.bytes_sent) == (ref_link.cells_sent, ref_link.bytes_sent)

    def test_teardown_across_the_train(self, arrivals, monkeypatch):
        for when in self._instants(arrivals):
            got, switch, link = self._run(True, monkeypatch, teardown_at=when)
            ref, ref_switch, ref_link = self._run(False, monkeypatch, teardown_at=when)
            assert switch._carried, when
            assert got == ref, when
            assert switch.cells_unrouted == ref_switch.cells_unrouted, when
            assert switch.cells_switched == ref_switch.cells_switched, when
            assert (link.cells_sent, link.bytes_sent, link._busy_until) == (
                ref_link.cells_sent, ref_link.bytes_sent, ref_link._busy_until
            ), when
        # The mid-train instants really split the train.
        mid = self._instants(arrivals)[2]
        ref, ref_switch, _ = self._run(False, monkeypatch, teardown_at=mid)
        assert 0 < ref_switch.cells_unrouted < len(arrivals)

    def test_second_input_mid_train_interleaves_identically(self, arrivals, monkeypatch):
        for when in self._instants(arrivals):
            got, switch, _ = self._run(True, monkeypatch, second_at=when)
            ref, _, _ = self._run(False, monkeypatch, second_at=when)
            assert switch._carried, when
            assert got == ref, when
        mid = self._instants(arrivals)[2]
        ref, _, _ = self._run(False, monkeypatch, second_at=mid)
        vcis = [vci for _, vci, _ in ref]
        assert vcis != sorted(vcis)  # the two circuits really interleave

    def _overflow(self, fast_path, monkeypatch, queue_cells):
        """A 4x faster input overruns a short output queue mid-train; with
        one slot it overflows before the carry entry, on a cell that has
        already arrived."""
        monkeypatch.setattr(linkmod, "FAST_PATH_DEFAULT", fast_path)
        sim = Simulator()
        switch = Switch(sim, n_ports=2, output_queue_cells=queue_cells)
        switch.add_route(0, 32, 1, 33)
        got = []
        switch.output_links[1].connect(lambda cell: got.append((sim.now, cell.vci, cell.seq)))
        tx = linkmod.Link(sim, bandwidth_bps=4 * linkmod.TAXI_140_BPS)
        tx.connect(switch.input_sink(0), train_sink=switch.input_train_sink(0))
        tx.put_train(segment_pdu(self.PAYLOAD, 32))
        sim.run()
        return got, switch

    @pytest.mark.parametrize("queue_cells", [1, 4])
    def test_queue_overflow_hands_the_rest_per_cell(self, monkeypatch, queue_cells):
        from repro import obs

        def observe(fast_path):
            with obs.collecting() as col:
                got, switch = self._overflow(fast_path, monkeypatch, queue_cells)
            spans = sorted((s.t0, s.t1, s.name, s.layer, s.host) for s in col.spans)
            return got, switch, spans, col.metrics.snapshot()

        got, switch, spans, metrics = observe(True)
        ref, ref_switch, ref_spans, ref_metrics = observe(False)
        assert switch._carried
        assert got == ref
        assert (spans, metrics) == (ref_spans, ref_metrics)
        drops = switch.output_links[1].cells_dropped
        assert drops == ref_switch.output_links[1].cells_dropped > 0
        assert switch.cells_switched == ref_switch.cells_switched

    @pytest.mark.parametrize("teardown", [False, True])
    def test_observations_identical_under_obs(self, arrivals, monkeypatch, teardown):
        from repro import obs

        when = self._instants(arrivals)[3] if teardown else None

        def observe(fast_path):
            with obs.collecting() as col:
                got, switch, _ = self._run(fast_path, monkeypatch, teardown_at=when)
            spans = sorted((s.t0, s.t1, s.name, s.layer, s.host) for s in col.spans)
            return got, spans, col.metrics.snapshot(), bool(switch._carried)

        got, spans, metrics, carried = observe(True)
        ref, ref_spans, ref_metrics, _ = observe(False)
        assert carried
        assert got == ref
        assert [s for s in spans if s[2] == "xbar"] == [s for s in ref_spans if s[2] == "xbar"]
        assert spans == ref_spans
        assert metrics == ref_metrics
