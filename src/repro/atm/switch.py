"""Output-buffered ATM switch in the style of the Fore ASX-200.

Each port is a full-duplex fiber attachment: cells arriving on a port's
input are looked up in a per-(port, VCI) routing table, relabelled with
the outgoing VCI, and forwarded after a fixed switching latency to the
output link of the destination port.  Output contention is absorbed by
the (finite) output link queue; overflow drops cells, which downstream
turns into AAL5 CRC failures -- the paper's §7.8 cell-loss discussion.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.atm.cell import ATM_CELL_SIZE, Cell
from repro.atm.link import TAXI_140_BPS, CellTrain, Link
from repro.obs import metrics as _metrics
from repro.sim import Simulator, Tracer
from repro.sim import engine as _engine


@dataclass(frozen=True)
class SwitchRoute:
    out_port: int
    out_vci: int


class _CarriedTrain:
    """A train the switch forwards in one heap entry (``Switch._carry``).
    A route change lowers ``cut``; deliveries at or past it are void."""

    __slots__ = ("switch", "port", "route", "link", "cells", "arrivals", "cut", "claimed", "busy_us")

    def __init__(self, switch: "Switch", port: int, route: SwitchRoute, train: CellTrain):
        self.switch = switch
        self.port = port
        self.route = route
        self.link = switch.output_links[route.out_port]
        self.cells = train.cells
        self.arrivals = train.arrivals_us
        self.cut = len(train.cells)
        self.claimed = False  # the carry has claimed the output link
        self.busy_us = None  # the link's busy_us metric before the carry

    def deliver(self, i: int, cell: Cell, start: float, depth: int) -> None:
        """Cell ``i`` leaves the output link.  Its per-cell observations
        are emitted here, where the cell is past any rollback; histograms
        and high-water marks do not depend on the order they are fed."""
        if i >= self.cut:
            return
        sw = self.switch
        _o = obs.active
        if _o is not None:
            arrival = self.arrivals[i]
            lat = sw.switching_latency_us
            _o.add_complete(arrival, arrival + lat, "xbar", "switch", host=sw.name)
            _o.add_complete(start, sw.sim._now, "cell", "wire", host=self.link.name)
        _m = _metrics.active
        if _m is not None:
            _m.observe(self.link._mk_txq, depth)
            _m.gauge_max(sw._mk_buf, depth)
        self.link._deliver_cell(cell)


class Switch:
    """An N-port VCI-translating cell switch."""

    __slots__ = (
        "sim",
        "n_ports",
        "switching_latency_us",
        "name",
        "tracer",
        "_routes",
        "output_links",
        "cells_switched",
        "cells_unrouted",
        "remote_peers",
        "_k_unrouted",
        "_mk_unrouted",
        "_mk_buf",
        "_fanin",
        "_carried",
    )

    def __init__(
        self,
        sim: Simulator,
        n_ports: int,
        bandwidth_bps: float = TAXI_140_BPS,
        switching_latency_us: float = 2.0,
        output_queue_cells: int = 256,
        propagation_us: float = 0.3,
        name: str = "asx200",
        tracer: Optional[Tracer] = None,
    ):
        if n_ports < 1:
            raise ValueError("switch needs at least one port")
        self.sim = sim
        self.n_ports = n_ports
        self.switching_latency_us = switching_latency_us
        self.name = name
        self.tracer = tracer if tracer is not None else Tracer()
        self._routes: Dict[Tuple[int, int], SwitchRoute] = {}
        self.output_links = [
            Link(
                sim,
                bandwidth_bps=bandwidth_bps,
                propagation_us=propagation_us,
                name=f"{name}.out{p}",
                tracer=self.tracer,
                queue_cells=output_queue_cells,
            )
            for p in range(n_ports)
        ]
        self.cells_switched = 0
        self.cells_unrouted = 0
        #: Cut-edge stubs for trunk ports whose far-end switch lives on
        #: another shard: ``remote_peers[port]`` refuses attribute
        #: access (the ``cross-shard-state`` lint rule is the static
        #: counterpart of that runtime guard).
        self.remote_peers: Dict[int, object] = {}
        # Built once: _receive() runs per cell on the event hot path.
        self._k_unrouted = f"{name}.unrouted"
        self._mk_unrouted = f"switch.{name}.unrouted"
        self._mk_buf = f"switch.{name}.buffer_high_water"
        #: Per output port: input port -> number of routes into it.
        self._fanin = [Counter() for _ in range(n_ports)]
        #: Per output port: the train last carried through it.
        self._carried: Dict[int, _CarriedTrain] = {}

    # -- trunks (multi-switch fabrics) ----------------------------------
    def trunk_inlet(self, port: int):
        """``(cell_sink, train_sink)`` for wiring a trunk into ``port``.

        Local fabrics pass these straight to the peer switch's output
        link; partitioned fabrics register them as the cut-edge inlet.
        """
        return self.input_sink(port), self.input_train_sink(port)

    def connect_trunk(self, out_port: int, peer: "Switch", peer_port: int) -> None:
        """Wire ``out_port``'s fiber into ``peer``'s input ``peer_port``
        (both switches on the same timeline)."""
        sink, train_sink = peer.trunk_inlet(peer_port)
        self.output_links[out_port].connect(sink, train_sink=train_sink)

    def bind_trunk_cut(self, out_port: int, ctx, edge) -> None:
        """Materialize ``out_port``'s trunk fiber as a cut channel.

        ``ctx`` is a :class:`~repro.sim.shard.ShardContext`; the far-end
        switch is represented only by a stub from here on.
        """
        self._check_port(out_port)
        channel = ctx.bind_cut(self.output_links[out_port], edge)
        self.remote_peers[out_port] = channel.stub

    def add_route(self, in_port: int, in_vci: int, out_port: int, out_vci: int) -> None:
        self._check_port(in_port)
        self._check_port(out_port)
        key = (in_port, in_vci)
        if key in self._routes:
            raise ValueError(f"route already exists for port {in_port} VCI {in_vci}")
        if _engine.access_hook is not None:
            _engine.access_hook(id(self._routes), f"routes:{self.name}", "w")
        self._reroute(in_port, out_port)
        self._routes[key] = SwitchRoute(out_port, out_vci)
        self._fanin[out_port][in_port] += 1

    def remove_route(self, in_port: int, in_vci: int) -> None:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self._routes), f"routes:{self.name}", "w")
        route = self._routes.pop((in_port, in_vci))
        self._reroute(in_port, route.out_port)
        self._fanin[route.out_port] -= Counter((in_port,))  # drops zero counts

    def has_route(self, in_port: int, in_vci: int) -> bool:
        return (in_port, in_vci) in self._routes

    def input_sink(self, port: int):
        """The callable to wire a host's TX link into."""
        self._check_port(port)

        def sink(cell: Cell, _port: int = port) -> None:
            self._receive(_port, cell)

        return sink

    def input_train_sink(self, port: int):
        """Train-aware variant of :meth:`input_sink`.

        Cell ``i`` of a :class:`CellTrain` is forwarded as if it arrived
        alone at ``arrivals_us[i]``.  A train whose output port only this
        input routes into, on a link with no loss function, the fast path
        on and no shard cut, is *carried*: one heap entry runs
        :meth:`Link.send`'s admission per cell at its own claim time.
        Other trains are expanded into per-cell receives.  Rollback rule:
        a route change at ``t`` touching a carried train's input or output
        port takes back the cells arriving after ``t`` and re-receives
        them per cell; one arriving exactly at ``t`` keeps its route."""
        self._check_port(port)

        def sink(train: CellTrain, _port: int = port) -> None:
            self._receive_train(_port, train)

        return sink

    def _receive(self, port: int, cell: Cell) -> None:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self._routes), f"routes:{self.name}", "r")
        route = self._routes.get((port, cell.vci))
        if route is None:
            self.cells_unrouted += 1
            self.tracer.count(self._k_unrouted)
            _m = _metrics.active
            if _m is not None:
                _m.count(self._mk_unrouted)
            return
        _o = obs.active
        if _o is not None:
            now = self.sim._now
            _o.add_complete(
                now, now + self.switching_latency_us, "xbar", "switch", host=self.name
            )
        self.sim.schedule_callback(self.switching_latency_us, self._forward, route, cell)

    def _receive_train(self, port: int, train: CellTrain) -> None:
        # Fires at the first cell's arrival; the rest are still on the
        # wire.  Carried, or received per cell at each arrival float.
        cells = train.cells
        vci = cells[0].vci
        route = self._routes.get((port, vci))
        if route is not None:
            link = self.output_links[route.out_port]
            if (
                len(self._fanin[route.out_port]) == 1
                and link.loss_fn is None
                and link.fast_path
                and link._cut is None
                and all(cell.vci == vci for cell in cells)
            ):
                if _engine.access_hook is not None:
                    _engine.access_hook(id(self._routes), f"routes:{self.name}", "r")
                carried = _CarriedTrain(self, port, route, train)
                self._carried[route.out_port] = carried
                self.sim.schedule_callback(self.switching_latency_us, self._carry, carried)
                return
        arrivals = train.arrivals_us
        schedule_at = self.sim.schedule_callback_at
        self._receive(port, cells[0])
        for i in range(1, len(cells)):
            schedule_at(arrivals[i], self._receive, port, cells[i])

    def _carry(self, train: _CarriedTrain) -> None:
        # Link.send per cell at its claim time: prune, queue check, claim.
        # Entries served by a later claim time are skipped, not popped:
        # until the train has arrived, a rollback may need the queue back.
        link = train.link
        if _engine.access_hook is not None:
            _engine.access_hook(id(link), f"link:{link.name}", "w")
        train.claimed = True
        link._prune()
        starts = link._starts
        busy = link._busy_until
        lat = self.switching_latency_us
        prop = link.propagation_us
        cell_time = link.cell_time_us(ATM_CELL_SIZE)
        schedule_at = self.sim.schedule_callback_at
        _m = _metrics.active
        if _m is not None:
            train.busy_us = _m.counters[link._mk_busy]
        served = 0
        queued = len(starts)
        for i, arrival in enumerate(train.arrivals[: train.cut]):
            claim = arrival + lat
            while served < queued and starts[served] <= claim:
                served += 1
            depth = queued - served
            if depth >= link.capacity:
                # Overflow: per cell from here, so Link.send counts the drop.
                self._uncarry(train, i)
                break
            start = busy if busy > claim else claim
            busy = start + cell_time
            starts.append(start)
            queued += 1
            if _m is not None:
                _m.count(link._mk_busy, busy - start)
            cell = train.cells[i].with_vci(train.route.out_vci)
            schedule_at(busy + prop, train.deliver, i, cell, start, depth + 1)
        link._busy_until = busy
        n = train.cut
        self.cells_switched += n
        link.cells_sent += n
        link.bytes_sent += n * ATM_CELL_SIZE

    def _reroute(self, in_port: int, out_port: int) -> None:
        """Roll back the carried train a route change at now touches."""
        for train in self._carried.values():
            kept = bisect_right(train.arrivals, self.sim._now, 0, train.cut)
            n = train.cut - kept
            if not n or (train.port != in_port and train.route.out_port != out_port):
                continue
            if train.claimed:
                link = train.link
                # The tail's claims are the newest on a link only this
                # train feeds: pop them, free the wire after the last kept.
                starts = link._starts
                for _ in range(n):
                    starts.pop()
                cell_time = link.cell_time_us(ATM_CELL_SIZE)
                link._busy_until = starts[-1] + cell_time
                self.cells_switched -= n
                link.cells_sent -= n
                link.bytes_sent -= n * ATM_CELL_SIZE
                _m = _metrics.active
                if _m is not None and train.busy_us is not None:
                    busy_us = train.busy_us  # a float sum: replay kept cells
                    for start in list(starts)[-kept:]:
                        busy_us += start + cell_time - start
                    _m.counters[link._mk_busy] = busy_us
            self._uncarry(train, kept)

    def _uncarry(self, train: _CarriedTrain, i: int) -> None:
        """Hand cells ``i`` up to ``train.cut`` to the per-cell path."""
        now = self.sim._now
        lat = self.switching_latency_us
        schedule_at = self.sim.schedule_callback_at
        for j in range(i, train.cut):
            arrival = train.arrivals[j]
            if arrival > now:
                schedule_at(arrival, self._receive, train.port, train.cells[j])
                continue
            _o = obs.active  # already routed: on to the output, as _receive does
            if _o is not None:
                _o.add_complete(arrival, arrival + lat, "xbar", "switch", host=self.name)
            schedule_at(arrival + lat, self._forward, train.route, train.cells[j])
        train.cut = i

    def _forward(self, route: SwitchRoute, cell: Cell) -> None:
        self.cells_switched += 1
        link = self.output_links[route.out_port]
        link.send(cell.with_vci(route.out_vci))
        _m = _metrics.active
        if _m is not None:
            # Output contention lives in the per-port link queues; the
            # switch-level high-water gauge is the max across all ports.
            _m.gauge_max(self._mk_buf, len(link._starts))

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ValueError(f"port {port} out of range (0..{self.n_ports - 1})")
