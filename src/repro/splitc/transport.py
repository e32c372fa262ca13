"""AM transports for the Split-C runtime.

Both transports move *bytes* produced by the runtime's codec and hand
them to a per-rank message callback.  The callback runs in the
receiving rank's context (its CPU time is charged there) and may itself
send messages.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.sim import AnyOf, Event, Resource, Simulator, Store
from repro.splitc.machines import MachineSpec

#: message callback: (src_rank, raw_bytes) -> generator
MessageHandler = Callable[[int, bytes], object]


class ModelTransport:
    """LogP-style transport parameterized by a Table 2 machine spec.

    Per message: the sender's CPU is busy for ``overhead_us``; the
    sender's NIC serializes bulk data at ``bandwidth_bps``; after the
    one-way wire latency the receiver's CPU is busy for ``overhead_us``
    and the handler runs.  Message order is preserved per source.

    Messages from *different* sources that arrive at the same instant
    are delivered in fixed-priority order (lowest source rank first,
    then send order).  The arbitration happens at schedule time: the
    wire latency is strictly positive, so every message landing at
    instant T registers with the receiver's arrival batch before T, and
    a single drain event per (receiver, T) plays the batch back in
    sorted order.  Without this the delivery order — and therefore the
    receive-overhead serialization on the destination CPU — would be an
    accident of heap insertion order, which the schedule-order race
    detector flags and the tie-break perturbation harness confirms as
    metric divergence.
    """

    def __init__(self, sim: Simulator, machine: MachineSpec, nprocs: int):
        if nprocs < 1:
            raise ValueError("need at least one processor")
        self.sim = sim
        self.machine = machine
        self.nprocs = nprocs
        self.cpus = [Resource(sim, 1, name=f"pe{r}.cpu") for r in range(nprocs)]
        self._nic_out: List[Store] = [Store(sim) for _ in range(nprocs)]
        self._handlers: Dict[int, MessageHandler] = {}
        #: per-receiver: arrival instant -> [(src, send seq, data), ...]
        self._arrivals: List[Dict[float, List[Tuple[int, int, bytes]]]] = [
            dict() for _ in range(nprocs)
        ]
        self._arrival_seq = 0
        self.messages = 0
        self.bulk_bytes = 0
        for rank in range(nprocs):
            sim.process(self._nic_pump(rank), name=f"pe{rank}.nic")

    def attach(self, rank: int, handler: MessageHandler) -> None:
        self._handlers[rank] = handler

    # -- sending (generators, called from app/handler context) -----------
    def send(self, src: int, dst: int, data: bytes):
        """Small Active Message: sender busy for one overhead."""
        yield from self.cpus[src].use(self.machine.overhead_us)
        self.messages += 1
        self._nic_out[src].try_put((dst, data, 0))

    def send_bulk(self, src: int, dst: int, data: bytes):
        """Bulk transfer: sender overhead, then the NIC streams it."""
        yield from self.cpus[src].use(self.machine.overhead_us)
        self.messages += 1
        self.bulk_bytes += len(data)
        self._nic_out[src].try_put((dst, data, len(data)))

    # -- internals ---------------------------------------------------------
    def _nic_pump(self, rank: int):
        while True:
            dst, data, bulk_bytes = yield self._nic_out[rank].get()
            if bulk_bytes:
                # serialization onto the network at machine bandwidth
                yield self.sim.timeout(self.machine.bulk_wire_us(bulk_bytes))
            self._post(rank, dst, data)

    def _post(self, src: int, dst: int, data: bytes) -> None:
        """Register an arrival one wire latency from now.

        The first message landing at an instant schedules that instant's
        drain; later same-instant messages only join the batch, so the
        drain sees the complete set (registration strictly precedes the
        arrival instant because ``one_way_wire_us`` > 0)."""
        arrival = self.sim.now + self.machine.one_way_wire_us
        self._arrival_seq += 1
        batch = self._arrivals[dst].get(arrival)
        if batch is None:
            self._arrivals[dst][arrival] = [(src, self._arrival_seq, data)]
            self.sim.schedule_callback_at(arrival, self._drain, dst, arrival)
        else:
            batch.append((src, self._arrival_seq, data))

    def _drain(self, dst: int, arrival: float) -> None:
        batch = self._arrivals[dst].pop(arrival)
        batch.sort()
        self.sim.process(self._deliver_batch(dst, batch))

    def _deliver_batch(self, dst: int, batch: List[Tuple[int, int, bytes]]):
        for src, _seq, data in batch:
            # receive overhead holds the CPU; the handler body runs
            # outside the hold (its own sends re-acquire the CPU)
            yield from self.cpus[dst].use(self.machine.overhead_us)
            handler = self._handlers.get(dst)
            if handler is not None:
                yield from handler(src, data)

    # -- compute charging for the runtime -------------------------------
    def compute(self, rank: int, cm5_us: float):
        """Charge local computation, scaled by the machine's CPU speed."""
        yield from self.cpus[rank].use(self.machine.compute_us(cm5_us))


class UNetTransport:
    """Split-C over real U-Net Active Messages on the simulated cluster.

    Each rank is one workstation running a UAM instance, with channels
    to every other rank.  A single per-rank driver process owns the UAM
    object: it flushes the rank's outbox and polls, so handler execution
    is single-threaded per rank exactly as in the real library.
    """

    SMALL_HANDLER = 1
    BULK_HANDLER = 2
    #: staging region in each peer's UAM memory, per source rank
    STAGE_BYTES = 96 * 1024
    #: floor on each rank's communication segment; runs of up to 4
    #: ranks fit inside it and keep their historical layout
    MIN_SEGMENT_BYTES = 512 * 1024

    def __init__(self, cluster, nprocs: int, window: int = 8):
        from repro.am import UAM, UamConfig
        from repro.core.segment import align_up

        self.sim = cluster.sim
        self.cluster = cluster
        self.nprocs = nprocs
        names = cluster.host_names[:nprocs]
        if len(names) < nprocs:
            raise ValueError("cluster has too few hosts")
        self.sessions = []
        self.uams: List = []
        self._handlers: Dict[int, MessageHandler] = {}
        self._outbox: List[Deque[Tuple[int, bytes, bool]]] = [
            deque() for _ in range(nprocs)
        ]
        self._outbox_events: List[List[Event]] = [[] for _ in range(nprocs)]
        self._stage_slot = [[0] * nprocs for _ in range(nprocs)]
        self._rank_of_channel: List[Dict[int, int]] = [dict() for _ in range(nprocs)]
        self._channel_to: List[Dict[int, int]] = [dict() for _ in range(nprocs)]
        cfg = UamConfig(window=window, memory_size=(nprocs + 1) * self.STAGE_BYTES)
        # UAM.open_channel takes 3w buffers (w transmit, 2w receive)
        # from the segment for each of the rank's nprocs-1 peers.
        need = (nprocs - 1) * 3 * window * align_up(cfg.buffer_size)
        segment_size = max(self.MIN_SEGMENT_BYTES, need)
        for rank, name in enumerate(names):
            session = cluster.open_session(
                name, f"splitc-{rank}", segment_size=segment_size,
                send_ring=128, recv_ring=128, free_ring=128,
            )
            self.sessions.append(session)
            self.uams.append(UAM(session, cfg))
        self._connect_all()
        for rank in range(nprocs):
            self._install_handlers(rank)
        self.started = False

    def _connect_all(self) -> None:
        for a in range(self.nprocs):
            for b in range(a + 1, self.nprocs):
                ch_a, ch_b = self.cluster.connect_sessions(
                    self.sessions[a], self.sessions[b]
                )
                self._channel_to[a][b] = ch_a.ident
                self._channel_to[b][a] = ch_b.ident
                self._rank_of_channel[a][ch_a.ident] = b
                self._rank_of_channel[b][ch_b.ident] = a

    def start(self):
        """Open all UAM channels and launch the drivers; run once."""
        if self.started:
            return
        self.started = True
        for rank in range(self.nprocs):
            for peer, channel in self._channel_to[rank].items():
                yield from self.uams[rank].open_channel(channel)
        for rank in range(self.nprocs):
            self.sim.process(self._driver(rank), name=f"splitc.drv{rank}")

    def attach(self, rank: int, handler: MessageHandler) -> None:
        self._handlers[rank] = handler

    def _install_handlers(self, rank: int) -> None:
        uam = self.uams[rank]

        def small(uam_obj, channel_id, msg, _rank=rank):
            src = self._rank_of_channel[_rank].get(channel_id)
            handler = self._handlers.get(_rank)
            if src is not None and handler is not None:
                yield from handler(src, msg.payload)

        def bulk(uam_obj, channel_id, msg, _rank=rank):
            src = self._rank_of_channel[_rank].get(channel_id)
            handler = self._handlers.get(_rank)
            if src is None or handler is None:
                return
            raw = bytes(uam_obj.memory[msg.base : msg.base + msg.total])
            yield from handler(src, raw)

        uam.register_handler(self.SMALL_HANDLER, small)
        uam.register_handler(self.BULK_HANDLER, bulk)

    # -- sending ------------------------------------------------------------
    def send(self, src: int, dst: int, data: bytes):
        """Queue a small message; the driver transmits it."""
        self._enqueue(src, dst, data, bulk=len(data) > 36)
        return
        yield  # pragma: no cover

    def send_bulk(self, src: int, dst: int, data: bytes):
        self._enqueue(src, dst, data, bulk=True)
        return
        yield  # pragma: no cover

    def _enqueue(self, src: int, dst: int, data: bytes, bulk: bool) -> None:
        self._outbox[src].append((dst, data, bulk))
        waiters, self._outbox_events[src] = self._outbox_events[src], []
        for event in waiters:
            event.succeed()

    def _stage_addr(self, src: int, dst: int) -> int:
        """Rotating staging slots in dst's memory for bulk from src."""
        slot = self._stage_slot[src][dst]
        self._stage_slot[src][dst] = (slot + 1) % 4
        return src * self.STAGE_BYTES + slot * (self.STAGE_BYTES // 4)

    def _driver(self, rank: int):
        uam = self.uams[rank]
        outbox = self._outbox[rank]
        while True:
            while outbox:
                dst, data, bulk = outbox.popleft()
                channel = self._channel_to[rank][dst]
                if bulk:
                    addr = self._stage_addr(rank, dst)
                    yield from uam.store(
                        channel, data, remote_addr=addr,
                        handler=self.BULK_HANDLER,
                    )
                else:
                    yield from uam.request(channel, self.SMALL_HANDLER, data)
            progressed = yield from uam.poll()
            if progressed or outbox:
                continue
            wakeup = Event(self.sim)
            self._outbox_events[rank].append(wakeup)
            recv = uam.session.endpoint.wait_recv(uam.session.caller)
            # arm the retransmission timer only while something is
            # actually outstanding: idle drivers must be quiescent
            needs_timer = any(
                peer.unacked or peer.ack_owed for peer in uam._peers.values()
            )
            if needs_timer:
                timer = self.sim.timeout(uam.cfg.rto_us)
                yield AnyOf(self.sim, [wakeup, recv, timer])
                if timer.triggered and not (wakeup.triggered or recv.triggered):
                    yield from uam.poll_wait(timeout_us=1.0)
            else:
                yield AnyOf(self.sim, [wakeup, recv])

    # -- compute charging -------------------------------------------------
    def compute(self, rank: int, cm5_us: float):
        """Charge local computation on the rank's real host CPU (the ATM
        cluster machines are ~3.2x a CM-5 node)."""
        from repro.splitc.machines import ATM_CLUSTER

        host = self.sessions[rank].host
        yield from host.cpu.compute_raw(cm5_us / ATM_CLUSTER.cpu_factor)
