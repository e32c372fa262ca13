"""Point-to-point fiber link model.

A :class:`Link` is a unidirectional pipe with finite bandwidth and a
fixed propagation delay.  Cells are serialized: each occupies the link
for ``53 * 8 / bandwidth`` seconds, and back-to-back cells pipeline (the
paper's ~6 us/cell round-trip increment is two link serializations).

A loss function can be attached to model the dropped-cell scenarios of
§7.8; dropping any cell of an AAL5 PDU kills the whole PDU downstream.

The link is modelled *analytically*: instead of a pump process that
wakes up once per cell, admission and serialization times are computed
in closed form when a cell is claimed, and only the externally visible
occurrences (serialization end when a loss function needs to see it,
delivery at the far end) are scheduled — as bare callbacks, not events.
A whole AAL5 cell train submitted via :meth:`put_train` costs a single
heap entry when the receiving end is train-aware.  The timestamps are
identical to per-cell simulation (``fast_path=False`` forces the
per-cell schedule and is asserted equal in tests).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Sequence

from repro import obs
from repro.atm.cell import Cell
from repro.obs import metrics as _metrics
from repro.sim import Event, Simulator, Tracer
from repro.sim import engine as _engine
from repro.sim.shard.errors import ShardError

#: 140 Mbit/s TAXI fiber used throughout the paper's testbed.
TAXI_140_BPS = 140_000_000.0
#: Classic 10 Mbit/s Ethernet, for the Figure 6 baseline.
ETHERNET_10_BPS = 10_000_000.0

#: Process-wide default for the analytic train fast path; the A/B
#: equivalence tests flip this to compare against per-cell scheduling.
FAST_PATH_DEFAULT = True


class CellTrain:
    """A back-to-back burst of cells with an analytic arrival schedule.

    Cell ``i`` arrives at ``arrivals_us[i]``.  The one train-aware sink,
    the switch input, accepts the whole train in one heap entry and
    carries or expands it itself; everyone else (the NI receive FIFO
    included) receives plain per-cell deliveries.  The arrival floats
    are exactly the ones the per-cell path would schedule, so this is
    bit-identical to per-cell simulation.
    """

    __slots__ = ("cells", "arrivals_us")

    def __init__(self, cells: List[Cell], arrivals_us: List[float]):
        self.cells = cells
        self.arrivals_us = arrivals_us

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def first_us(self) -> float:
        return self.arrivals_us[0]


class Link:
    """Unidirectional serialized link delivering cells to a sink callable."""

    __slots__ = (
        "sim",
        "bandwidth_bps",
        "propagation_us",
        "name",
        "tracer",
        "loss_fn",
        "_sink",
        "_train_sink",
        "capacity",
        "fast_path",
        "cells_sent",
        "cells_dropped",
        "bytes_sent",
        "trains_sent",
        "_busy_until",
        "_starts",
        "_cut",
        "remote_peer",
        "_k_txq_drop",
        "_k_loss",
        "_mk_txq",
        "_mk_busy",
        "_mk_drop",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = TAXI_140_BPS,
        propagation_us: float = 0.3,
        name: str = "link",
        tracer: Optional[Tracer] = None,
        loss_fn: Optional[Callable[[Cell], bool]] = None,
        queue_cells: float = float("inf"),
        fast_path: Optional[bool] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_us < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_us = propagation_us
        self.name = name
        self.tracer = tracer if tracer is not None else Tracer()
        self.loss_fn = loss_fn
        self._sink: Optional[Callable[[Cell], None]] = None
        self._train_sink: Optional[Callable[[CellTrain], None]] = None
        self.capacity = queue_cells
        self.fast_path = FAST_PATH_DEFAULT if fast_path is None else fast_path
        self.cells_sent = 0
        self.cells_dropped = 0
        self.bytes_sent = 0
        self.trains_sent = 0
        # Analytic serialization state: when the wire frees up, and the
        # serialization-start time of every claimed-but-unstarted cell
        # (pruned lazily; a cell whose serialization has started is "in
        # service", not queued, exactly like the old pump's Store).
        self._busy_until = 0.0
        self._starts: deque = deque()
        # Cut-edge state: when this link crosses a shard boundary, final
        # deliveries are routed through ``_cut`` (a channel) instead of
        # being scheduled locally, and ``remote_peer`` is a stub that
        # refuses attribute access (the far end is not coherent here).
        self._cut = None
        self.remote_peer = None
        # Tracer keys are built once here: send()/_finish_cell() run per
        # cell on the event hot path and must not re-format strings.
        self._k_txq_drop = f"{name}.txq_drop"
        self._k_loss = f"{name}.loss"
        # Metric keys likewise: the guarded metric calls in _claim()/
        # send() must not pay per-cell string formatting.
        self._mk_txq = f"link.{name}.txq_depth"
        self._mk_busy = f"link.{name}.busy_us"
        self._mk_drop = f"link.{name}.drops"

    # -- shard cut ------------------------------------------------------
    def cut_lookahead_us(self) -> float:
        """Delivery-time bound this link guarantees across a cut.

        On the analytic fast path the emitting event *is* the sender's
        claim, and the delivery it schedules lands at least one cell
        serialization plus the propagation delay later.  With a loss
        function (or ``fast_path=False``) the serialization end is its
        own event and only the propagation delay separates it from the
        delivery — the lookahead a cut edge may promise shrinks to that.
        """
        if self.loss_fn is None and self.fast_path:
            return self.cell_time_us(53) + self.propagation_us
        return self.propagation_us

    def bind_cut(self, channel) -> None:
        """Route this link's deliveries through a cross-shard channel.

        The channel's registered edge must not promise more lookahead
        than the link's current configuration guarantees — a too-large
        promise would let the coordinator grant unsafe windows.
        """
        if self._cut is not None:
            raise ShardError(f"link {self.name!r} is already bound to a cut")
        if channel.edge.lookahead_us > self.cut_lookahead_us() + 1e-12:
            raise ShardError(
                f"cut edge {channel.edge.name!r} promises "
                f"{channel.edge.lookahead_us} us lookahead but link "
                f"{self.name!r} only guarantees {self.cut_lookahead_us()} us"
            )
        self._cut = channel
        self.remote_peer = channel.stub

    def connect(
        self,
        sink: Callable[[Cell], None],
        train_sink: Optional[Callable[[CellTrain], None]] = None,
    ) -> None:
        """Attach the receiving end; must be called before traffic flows.

        ``train_sink``, when given, receives whole :class:`CellTrain`
        batches from :meth:`put_train` in one event instead of per-cell
        deliveries."""
        self._sink = sink
        self._train_sink = train_sink

    def set_queue_capacity(self, cells: float) -> None:
        """Resize the transmit queue (NI models bound it to their FIFO depth)."""
        if cells <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = cells

    def cell_time_us(self, wire_bytes: int = 53) -> float:
        return wire_bytes * 8 / self.bandwidth_bps * 1e6

    # -- admission ------------------------------------------------------
    def _prune(self) -> None:
        now = self.sim._now
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()

    def _claim(self, cell: Cell) -> float:
        """Claim the next serialization slot; returns the finish time."""
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"link:{self.name}", "w")
        now = self.sim._now
        start = self._busy_until
        if start < now:
            start = now
        finish = start + self.cell_time_us(cell.wire_bytes)
        self._busy_until = finish
        self._starts.append(start)
        _o = obs.active
        if _o is not None:
            # The link is analytic, so wire occupancy is known in closed
            # form at claim time: serialization plus propagation.  (On
            # lossy links a claimed cell may still be dropped at the
            # serialization end; the span then overstates by one flight.)
            _o.add_complete(
                start, finish + self.propagation_us, "cell", "wire", host=self.name
            )
        _m = _metrics.active
        if _m is not None:
            # busy_us accumulates serialization time; dividing by the
            # span of the run gives link utilization in the report.
            _m.observe(self._mk_txq, len(self._starts))
            _m.count(self._mk_busy, finish - start)
        return finish

    def _schedule_cell(self, cell: Cell, finish: float) -> None:
        sim = self.sim
        if self.loss_fn is not None or not self.fast_path:
            # Per-cell path: the serialization end is observable (loss
            # decision, counters) and must fire at the right sim time.
            sim.schedule_callback_at(finish, self._finish_cell, cell)
        else:
            self.cells_sent += 1
            self.bytes_sent += cell.wire_bytes
            if self._cut is not None:
                self._cut.send_cell(finish + self.propagation_us, cell)
            else:
                sim.schedule_callback_at(
                    finish + self.propagation_us, self._deliver_cell, cell
                )

    # -- producer API ---------------------------------------------------
    def send(self, cell: Cell) -> bool:
        """Enqueue a cell for transmission.

        Returns False if the transmit queue overflowed (cell dropped).
        """
        self._prune()
        if len(self._starts) >= self.capacity:
            if _engine.access_hook is not None:
                _engine.access_hook(id(self), f"link:{self.name}", "r")
            self.cells_dropped += 1
            self.tracer.count(self._k_txq_drop)
            _m = _metrics.active
            if _m is not None:
                _m.count(self._mk_drop)
            return False
        self._schedule_cell(cell, self._claim(cell))
        return True

    def put(self, cell: Cell) -> Event:
        """Blocking enqueue: returns an event that triggers once the cell
        fits in the transmit queue.  Used by NI models that pace
        themselves to the wire instead of dropping."""
        self._prune()
        sim = self.sim
        event = Event(sim)
        queued = len(self._starts)
        if queued < self.capacity:
            self._schedule_cell(cell, self._claim(cell))
            event.succeed()
        else:
            # The cell is admitted the instant the head-of-queue cell
            # ahead of it starts serializing and frees a queue slot.
            # Triggered at the exact analytic float, not now + delta.
            admit = self._starts[queued - int(self.capacity)]
            self._schedule_cell(cell, self._claim(cell))
            event._ok = True
            sim._schedule_event_at(event, admit)
        return event

    def put_train(self, cells: Sequence[Cell]) -> Event:
        """Enqueue a back-to-back burst; triggers when the last cell has
        been admitted to the transmit queue (identical pacing to calling
        :meth:`put` per cell, computed in one pass).

        When the fast path is on, no loss function is attached, and the
        receiver is train-aware, the whole burst costs one heap entry.
        """
        sim = self.sim
        event = Event(sim)
        if not cells:
            return event.succeed()
        self._prune()
        starts = self._starts
        capacity = self.capacity
        last_admit = sim._now
        finishes = []
        for cell in cells:
            queued = len(starts)
            if queued >= capacity:
                admit = starts[queued - int(capacity)]
                if admit > last_admit:
                    last_admit = admit
            finishes.append(self._claim(cell))
        if self.loss_fn is not None or not self.fast_path:
            for cell, finish in zip(cells, finishes):
                sim.schedule_callback_at(finish, self._finish_cell, cell)
        else:
            self.cells_sent += len(cells)
            self.bytes_sent += sum(cell.wire_bytes for cell in cells)
            propagation = self.propagation_us
            if self._cut is not None:
                if len(cells) > 1:
                    # Whole burst in one channel record; the far side
                    # re-expands at the same analytic arrival floats.
                    self.trains_sent += 1
                    arrivals = [finish + propagation for finish in finishes]
                    self._cut.send_train(arrivals, list(cells))
                else:
                    self._cut.send_cell(finishes[0] + propagation, cells[0])
            elif self._train_sink is not None and len(cells) > 1:
                # One heap entry for the whole burst, carrying the exact
                # per-cell arrival floats the per-cell path would use.
                self.trains_sent += 1
                arrivals = [finish + propagation for finish in finishes]
                train = CellTrain(list(cells), arrivals)
                sim.schedule_callback_at(arrivals[0], self._deliver_train, train)
            else:
                for cell, finish in zip(cells, finishes):
                    sim.schedule_callback_at(
                        finish + propagation, self._deliver_cell, cell
                    )
        event._ok = True
        sim._schedule_event_at(event, last_admit)
        return event

    # -- scheduled occurrences -----------------------------------------
    def _finish_cell(self, cell: Cell) -> None:
        self.cells_sent += 1
        self.bytes_sent += cell.wire_bytes
        if self.loss_fn is not None and self.loss_fn(cell):
            self.cells_dropped += 1
            self.tracer.count(self._k_loss)
            _m = _metrics.active
            if _m is not None:
                _m.count(self._mk_drop)
            return
        if self._cut is not None:
            # Per-cell path across a cut: the emitting event is this
            # serialization end, so only the propagation delay separates
            # it from delivery.  A loss function attached *after* the
            # edge was bound would have let the edge promise the wider
            # fast-path lookahead — refuse rather than corrupt windows.
            if self._cut.edge.lookahead_us > self.propagation_us + 1e-12:
                raise ShardError(
                    f"link {self.name!r} entered the per-cell path but its "
                    f"cut edge promises {self._cut.edge.lookahead_us} us "
                    f"lookahead (> propagation {self.propagation_us} us); "
                    f"loss functions must be attached before the cut is bound"
                )
            self._cut.send_cell(self.sim._now + self.propagation_us, cell)
            return
        self.sim.schedule_callback(self.propagation_us, self._deliver_cell, cell)

    def _deliver_cell(self, cell: Cell) -> None:
        sink = self._sink
        if sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        sink(cell)

    def _deliver_train(self, train: CellTrain) -> None:
        train_sink = self._train_sink
        if train_sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        train_sink(train)
