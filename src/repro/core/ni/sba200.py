"""U-Net firmware on the Fore SBA-200's i960 coprocessor (§4.2.2).

The i960 is modelled as a capacity-1 resource: transmit and receive
firmware compete for it, just as on the real 25 MHz part.  Message data
genuinely flows: send descriptors are gathered out of the communication
segment, segmented into AAL5 cells, serialized onto the TAXI fiber,
switched, reassembled (CRC-checked), and scattered into receive buffers
popped off the destination endpoint's free queue.

Fast paths from the paper:

* single-cell sends are optimized (payload <= 40 bytes rides in the
  descriptor, no buffer management);
* single-cell receives go "directly into the next receive queue entry",
  skipping the free queue;
* multi-cell receives pull fixed-size buffers off the free queue and
  DMA the descriptor in when the last cell arrives.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.atm.aal5 import Reassembler, cells_for_pdu, segment_pdu
from repro.atm.cell import Cell
from repro.atm.network import NetworkPort
from repro.core.descriptors import SINGLE_CELL_MAX, SendDescriptor
from repro.core.endpoint import Endpoint
from repro.core.ni.base import NetworkInterface
from repro.core.ni.costs import Sba200Costs
from repro.host import Workstation
from repro.sim import Resource, Tracer


class Sba200UNet(NetworkInterface):
    """Base-level U-Net on re-programmed SBA-200 firmware."""

    #: Firmware identity recorded on obs spans (Fore overrides this).
    obs_firmware = "unet-sba200"

    __slots__ = (
        "costs",
        "i960",
        "single_cell_optimization",
        "reassembler",
        "send_errors",
        "pdus_sent",
        "pdus_received",
        "_k_tx_badchannel",
        "_k_rx_bad_pdu",
        "_k_rx_unmatched",
        "_rx_obs",
        "_rx_span",
        "_rx_channel",
    )

    def __init__(
        self,
        host: Workstation,
        port: NetworkPort,
        costs: Optional[Sba200Costs] = None,
        tracer: Optional[Tracer] = None,
        single_cell_optimization: bool = True,
    ):
        self.costs = costs if costs is not None else Sba200Costs()
        super().__init__(
            host, port, input_fifo_cells=self.costs.input_fifo_cells, tracer=tracer
        )
        #: The single on-board processor; TX and RX firmware share it.
        self.i960 = Resource(self.sim, capacity=1, name=f"{self.name}.i960")
        self.single_cell_optimization = single_cell_optimization
        self.reassembler = Reassembler()
        self.port.tx_link.set_queue_capacity(self.costs.tx_queue_cells)
        self.send_errors = 0
        self.pdus_sent = 0
        self.pdus_received = 0
        # Per-packet counter keys, built once (the firmware loops run per
        # cell/PDU and must not re-format strings).
        self._k_tx_badchannel = f"{self.name}.tx_badchannel"
        self._k_rx_bad_pdu = f"{self.name}.rx_bad_pdu"
        self._k_rx_unmatched = f"{self.name}.rx_unmatched"
        # Receive-machine state of the cell in flight (see _rx_cell).
        self._rx_obs = None
        self._rx_span = None
        self._rx_channel = None
        # Start polling from a zero-delay entry, where a receive process
        # would take its first step.
        self.sim.schedule_callback(0.0, self._rx_done)

    # -- transmit ---------------------------------------------------------
    def _on_attach(self, endpoint: Endpoint) -> None:
        self.sim.process(
            self._tx_firmware(endpoint), name=f"{self.name}.tx.{endpoint.name}"
        )

    def _gather(self, endpoint: Endpoint, desc: SendDescriptor) -> bytes:
        if desc.inline is not None:
            return desc.inline
        parts = [endpoint.segment.read(off, length) for off, length in desc.bufs]
        return b"".join(parts)

    def _tx_firmware(self, endpoint: Endpoint):
        """Service one endpoint's send queue (the i960 polls these
        i960-resident queues without DMA, §4.2.2)."""
        costs = self.costs
        while not endpoint.destroyed:
            yield endpoint.send_queue.wait_nonempty()
            if endpoint.destroyed:
                return
            desc = endpoint.send_queue.pop()
            if desc is None:
                continue
            channel = endpoint.channels.get(desc.channel)
            if channel is None or not channel.open:
                self.send_errors += 1
                self.tracer.count(self._k_tx_badchannel)
                continue
            payload = self._gather(endpoint, desc)
            n_cells = cells_for_pdu(len(payload))
            single = (
                self.single_cell_optimization
                and n_cells == 1
                and len(payload) <= SINGLE_CELL_MAX
            )
            if single:
                cost = costs.i960_tx_poll_us + costs.i960_tx_single_us
            else:
                cost = (
                    costs.i960_tx_poll_us
                    + costs.i960_tx_packet_us
                    + costs.i960_tx_per_cell_us * n_cells
                )
            _o = obs.active
            _sp = (
                _o.begin(
                    self.sim.now,
                    "tx_single" if single else "tx_packet",
                    "ni_tx",
                    host=self.host.name,
                )
                if _o is not None
                else None
            )
            yield from self.i960.use(cost)
            cells = segment_pdu(payload, channel.tx_vci)
            # Paced by the outbound cell queue: back-pressure propagates
            # to the send ring when the fiber is busy.  The whole AAL5
            # train goes down in one claim; the event fires when the
            # last cell has been admitted, same pacing as per-cell puts.
            yield self.port.tx_link.put_train(cells)
            if _sp is not None:
                _o.annotate(
                    _sp,
                    cells=n_cells,
                    bytes=len(payload),
                    firmware=self.obs_firmware,
                )
                _o.end(_sp, self.sim.now)
            desc.injected = True
            if desc.completion is not None and not desc.completion.triggered:
                desc.completion.succeed()
            endpoint.messages_sent += 1
            self.pdus_sent += 1

    # -- receive ------------------------------------------------------------
    # The i960 polls the network input FIFO (§4.2.2).  The firmware is a
    # callback state machine over Store.get_then / Resource.use_then,
    # one step per heap entry (DESIGN.md §5, "Callback firmware"):
    #
    #   _rx_cell     a cell is taken off the FIFO; per-cell i960 work
    #   _rx_frame    AAL5 reassembly and demux once that work is done
    #   _rx_pdu      a complete PDU picks its path; per-PDU i960 work
    #   _rx_single / _rx_packet   delivery into the endpoint
    #   _rx_done     close the cell's span, wait for the next cell
    #
    # One cell is in flight at a time, so its span and channel live on
    # the NI.
    def _rx_cell(self, cell: Cell) -> None:
        _o = obs.active
        self._rx_obs = _o
        if _o is not None:
            self._rx_span = _o.begin(
                self.sim.now, "rx_cell", "ni_rx", host=self.host.name
            )
        self.i960.use_then(self.costs.i960_rx_per_cell_us, self._rx_frame, cell)

    def _rx_frame(self, cell: Cell) -> None:
        first_of_pdu = self.reassembler.pending_cells(cell.vci) == 0
        payload = self.reassembler.push(cell)
        if payload is None:
            if cell.last:
                self.tracer.count(self._k_rx_bad_pdu)
            self._rx_done()
            return
        channel = self.mux.demux(cell.vci)
        if channel is None:
            self.tracer.count(self._k_rx_unmatched)
            self._rx_done()
            return
        self._rx_channel = channel
        self._rx_pdu(payload, first_of_pdu and cell.last)

    def _rx_pdu(self, payload: bytes, one_cell: bool) -> None:
        """Take one reassembled PDU for ``self._rx_channel`` (``one_cell``:
        it arrived as a single cell) down the single-cell path, straight
        into the receive queue, or the buffered path through the free
        queue."""
        single = (
            self.single_cell_optimization
            and one_cell
            and len(payload) <= SINGLE_CELL_MAX
        )
        _sp = self._rx_span
        if _sp is not None:
            _o = self._rx_obs
            _sp.name = "rx_single" if single else "rx_packet"
            _o.annotate(_sp, bytes=len(payload), firmware=self.obs_firmware)
        if single:
            self.i960.use_then(self.costs.i960_rx_single_us, self._rx_single, payload)
        else:
            self.i960.use_then(self.costs.i960_rx_packet_us, self._rx_packet, payload)

    def _rx_single(self, payload: bytes) -> None:
        if self._deliver_inline(self._rx_channel, payload):
            self.pdus_received += 1
        self._rx_done()

    def _rx_packet(self, payload: bytes) -> None:
        if self._deliver_buffered(self._rx_channel, payload):
            self.pdus_received += 1
        self._rx_done()

    def _rx_done(self) -> None:
        _sp = self._rx_span
        if _sp is not None:
            self._rx_span = None
            self._rx_obs.end(_sp, self.sim.now)
        self.input_fifo.get_then(self._rx_cell)
