"""The three figure workloads: their points, the calls into the program's
public entry points, the correctness checks and the simulated counters.

A *point* is one figure measurement.  :func:`execute` is the only code
the benchmark times or profiles: it builds the point's world and calls
the layer entry points (``repro.bench.ip.*_on``, the ``build_*`` world
builders, ``repro.splitc.harness.run_on_machine`` /
``run_on_unet_cluster``).  :func:`inspect` then reads the simulated
outputs and counters from the objects the call left behind, outside the
timed region.
"""

from __future__ import annotations

import importlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

WORKLOADS = ("ip_stream", "splitc_logp", "uam_fullstack")

#: Figure 7's message sizes and Figure 8's write sizes and curves
#: (``benchmarks/bench_fig7_udp_bandwidth.py``, ``bench_fig8_...``).
UDP_SIZES = (1000, 1500, 1536, 2048, 3000, 4096, 6000, 8000)
TCP_WRITE_SIZES = (1024, 2048, 4096, 8192)
TCP_CURVES = (
    ("unet", 8192),
    ("unet", 32768),
    ("kernel-atm", 8192),
    ("kernel-atm", 64 * 1024 - 1),
)

#: Figure 5 labels of the small-message apps each Split-C workload runs,
#: with the problem sizes (keys or vertices per rank) they run at.  The
#: sizes are Figure 5's divided by four, so a 30-second run holds a dozen
#: or more input draws: each slot's median then sits out the passes a
#: busy neighbour slowed, and connected components' cost, which follows
#: its graph's round count, varies by a tenth to a fifth between seeds.
SPLITC_APPS = (
    ("radix sort (small msg)", {"n_per_proc": 1024}),
    ("sample sort (small msg)", {"n_per_proc": 1024}),
    ("connected components", {"n_per_proc": 256}),
)
UAM_APPS = (
    ("connected components", {"n_per_proc": 256}),
    ("sample sort (small msg)", {"n_per_proc": 1024}),
)
SPLITC_NPROCS = 8
#: ``run_on_unet_cluster`` at 8 ranks raises SegmentRangeError (the
#: 512 KB segment in UNetTransport is hard-coded); 4 is what the tests
#: and the perturbation scenario validate.
UAM_NPROCS = 4

#: Counters read after each point.  The simulation is deterministic, so
#: a point that runs again, traced or not, repeats them exactly.
COUNTERS = (
    "sim.events",
    "sim.batch.fused",
    "atm.cells_sent",
    "atm.trains_sent",
    "atm.cells_switched",
    "atm.cells_dropped",
    "core.ni.pdus_received",
    "core.ni.input_fifo_drops",
    "am.retransmissions",
    "am.requests",
    "am.replies",
    "ip.udp.sent",
    "ip.udp.received",
    "ip.tcp.retransmits",
)


@dataclass(frozen=True)
class Point:
    name: str
    kind: str  # "udp", "tcp", "logp" or "uam"
    params: Tuple[Tuple[str, Any], ...]

    def param(self, key: str) -> Any:
        return dict(self.params)[key]


@dataclass
class Outcome:
    #: simulated figure outputs: ints as ints, floats as ``float.hex``
    outputs: Dict[str, Any]
    counters: Dict[str, int]
    #: engine core name, from ``Simulator.stats()["core"]``
    core: str
    problems: List[str] = field(default_factory=list)


def points(workload: str, seed: int, index: int) -> List[Point]:
    """The points of pass ``index`` of ``workload``, drawn from ``seed``.

    Every pass draws fresh inputs, so a run averages over many draws.
    The k-th point of every pass is the same kind of point (its *slot*).
    """
    if workload == "ip_stream":
        half = len(UDP_SIZES) // 2
        # Each slot walks a seeded order of its sizes, one per pass, so
        # every four passes cover them all: a slot's median time then
        # hardly depends on the seed (a kernel UDP point costs a third
        # less at 1000 bytes than at 2048).  One size from each half of
        # Figure 7's list per stack keeps short and long trains in every
        # pass.
        slots = [("udp", kind, sizes) for kind in ("unet", "kernel-atm")
                 for sizes in (UDP_SIZES[:half], UDP_SIZES[half:])]
        slots += [("tcp", curve, TCP_WRITE_SIZES) for curve in TCP_CURVES]
        out = []
        for slot, (proto, how, sizes) in enumerate(slots):
            order = random.Random(f"{workload}:{seed}:slot{slot}").sample(sizes, len(sizes))
            size = order[index % len(order)]
            if proto == "udp":
                out.append(Point(f"udp.{how}.{size}", "udp", (("kind", how), ("size", size))))
            else:
                kind, window = how
                out.append(Point(f"tcp.{kind}.w{window}.{size}", "tcp",
                                 (("kind", kind), ("window", window), ("write_size", size))))
        return out
    if workload in ("splitc_logp", "uam_fullstack"):
        rng = random.Random(f"{workload}:{seed}:{index}")
        apps = SPLITC_APPS if workload == "splitc_logp" else UAM_APPS
        kind = "logp" if workload == "splitc_logp" else "uam"
        out = []
        for label, sizes in apps:
            app_seed = rng.randrange(1, 1 << 20)
            slug = label.replace(" (small msg)", "_small").replace(" ", "_")
            out.append(Point(f"{kind}.{slug}.seed{app_seed}", kind,
                             (("label", label), ("seed", app_seed)) + tuple(sizes.items())))
        return out
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------- execute
#: The program modules each workload's points call into.
PROGRAM_MODULES = {
    "ip_stream": ("repro.bench.ip",),
    "splitc_logp": ("repro.splitc.harness", "repro.splitc.apps", "repro.splitc.machines"),
    "uam_fullstack": ("repro.core", "repro.splitc.harness", "repro.splitc.apps"),
}


def import_program(workload: str) -> None:
    for module in PROGRAM_MODULES[workload]:
        importlib.import_module(module)


def build_first_world(workload: str) -> Any:
    """Build and boot the world the workload's first point starts from
    (what ``setup_s`` times after the imports)."""
    if workload == "ip_stream":
        from repro.bench.ip import build_unet_pair

        return build_unet_pair()
    if workload == "splitc_logp":
        from repro.sim import Simulator
        from repro.splitc.machines import ATM_CLUSTER
        from repro.splitc.transport import ModelTransport

        return ModelTransport(Simulator(), ATM_CLUSTER, SPLITC_NPROCS)
    return _uam_cluster()


def _uam_cluster():
    from repro.core import UNetCluster
    from repro.sim import Simulator

    # run_on_unet_cluster's own host specs at UAM_NPROCS ranks; built
    # here so the cluster's simulator and links stay readable afterwards
    return UNetCluster(Simulator(), [(f"node{i}", 60.0) for i in range(UAM_NPROCS)])


def _figure5_app(label: str):
    from repro.splitc.apps import FIGURE5_SUITE

    for name, app, params in FIGURE5_SUITE:
        if name == label:
            return app, params
    raise KeyError(label)


@contextmanager
def _capture_transports():
    """Record the Split-C transports the harness constructs.

    ``run_on_machine`` and ``run_on_unet_cluster`` return only an
    ``AppResult``; the transport holds the simulator and the UAM
    endpoints whose counters the benchmark reports.  The wrapper returns
    the very object the harness would have built.
    """
    from repro.splitc import harness

    made: List[Any] = []
    saved = harness.ModelTransport, harness.UNetTransport

    def recording(cls):
        def make(*args, **kwargs):
            transport = cls(*args, **kwargs)
            made.append(transport)
            return transport

        return make

    harness.ModelTransport = recording(saved[0])
    harness.UNetTransport = recording(saved[1])
    try:
        yield made
    finally:
        harness.ModelTransport, harness.UNetTransport = saved


def execute(point: Point) -> Tuple[Any, ...]:
    """Run one point through the program's entry points (timed)."""
    if point.kind in ("udp", "tcp"):
        from repro.bench import ip

        kind = point.param("kind")
        build = ip.build_unet_pair if kind == "unet" else ip.build_kernel_atm_pair
        world = build()
        if point.kind == "udp":
            return world, ip.udp_bandwidth_on(world, point.param("size"))
        return world, ip.tcp_bandwidth_on(
            world, point.param("write_size"), kind=kind, window=point.param("window"),
        )
    from repro.splitc.harness import run_on_machine, run_on_unet_cluster

    params = dict(point.params)
    label = params.pop("label")
    app, figure_params = _figure5_app(label)
    params = dict(figure_params, **params)
    with _capture_transports() as made:
        if point.kind == "logp":
            from repro.splitc.machines import ATM_CLUSTER

            result = run_on_machine(
                ATM_CLUSTER, app, nprocs=SPLITC_NPROCS, label=label, **params
            )
            cluster = None
        else:
            cluster = _uam_cluster()
            result = run_on_unet_cluster(
                app, nprocs=UAM_NPROCS, label=label, cluster=cluster, **params
            )
    return made[0], cluster, result


# ----------------------------------------------------------------- inspect
def _hex(value: float) -> str:
    return float(value).hex()


def _cluster_counters(cluster, counters: Dict[str, int]) -> None:
    switch = cluster.network.switch
    nis = [host.ni for host in cluster.hosts.values()]
    tx_links = [ni.port.tx_link for ni in nis]
    counters["atm.cells_sent"] += sum(link.cells_sent for link in tx_links)
    counters["atm.trains_sent"] += sum(link.trains_sent for link in tx_links)
    counters["atm.cells_switched"] += switch.cells_switched
    counters["atm.cells_dropped"] += (
        sum(link.cells_dropped for link in tx_links + switch.output_links)
        + switch.cells_unrouted
    )
    counters["core.ni.pdus_received"] += sum(ni.pdus_received for ni in nis)
    counters["core.ni.input_fifo_drops"] += sum(ni.input_fifo_drops for ni in nis)


def _tracer_total(cluster, suffix: str) -> int:
    return sum(n for key, n in cluster.tracer.counters.items() if key.endswith(suffix))


def inspect(point: Point, raw: Tuple[Any, ...]) -> Outcome:
    """Simulated outputs, counters and invariant violations of one point."""
    counters = dict.fromkeys(COUNTERS, 0)
    problems: List[str] = []
    if point.kind in ("udp", "tcp"):
        world, result = raw
        sim, cluster, stack_a, stack_b = world
        _cluster_counters(cluster, counters)
        # The entry points return only a result record; the sockets and
        # connections they opened are read back from the stacks' tables.
        if point.kind == "udp":
            outputs = {
                "send_rate": _hex(result.send_rate),
                "recv_rate": _hex(result.recv_rate),
                "sent": result.sent,
                "received": result.received,
                "drops": result.drops,
            }
            counters["ip.udp.sent"] = result.sent
            counters["ip.udp.received"] = result.received
            problems += _udp_problems(point, result, cluster, stack_a, stack_b)
        else:
            outputs = {
                "bytes_per_second": _hex(result.bytes_per_second),
                "window": result.window,
                "retransmits": result.retransmits,
            }
            conns = list(stack_a._tcp_conns.values()) + list(stack_b._tcp_listeners.values())
            counters["ip.tcp.retransmits"] = sum(c.retransmits for c in conns)
            problems += _tcp_problems(point, stack_a, stack_b)
    else:
        transport, cluster, result = raw
        sim = transport.sim
        outputs = {
            "total_us": _hex(result.total_us),
            "compute_us": _hex(result.compute_us),
            "comm_us": _hex(result.comm_us),
            "verified": int(result.verified),
        }
        if not result.verified:
            problems.append("result not verified against its serial ground truth")
        if cluster is not None:
            _cluster_counters(cluster, counters)
            for uam in transport.uams:
                counters["am.retransmissions"] += uam.retransmissions
                counters["am.requests"] += uam.requests_sent
                counters["am.replies"] += uam.replies_sent
    stats = sim.stats()
    counters["sim.events"] = sim.events_processed
    counters["sim.batch.fused"] = stats["batch_fused"]
    return Outcome(outputs, counters, stats["core"], problems)


def _udp_problems(point, result, cluster, stack_a, stack_b) -> List[str]:
    problems = []
    sock_a = stack_a._udp_sockets[5000]
    sock_b = stack_b._udp_sockets[6000]
    if result.sent != result.received + result.drops:
        problems.append(f"sent {result.sent} != received {result.received} + drops {result.drops}")
    if sock_b.received != result.received:
        problems.append(f"receiving socket counted {sock_b.received}, result says {result.received}")
    if point.param("kind") == "unet":
        if result.drops:
            problems.append(f"U-Net UDP dropped {result.drops} datagrams")
        return problems
    if sock_a.sent != result.sent:
        problems.append(f"sending socket counted {sock_a.sent}, result says {result.sent}")
    # Datagrams lost at a counted, datagram-granular site: the device
    # output queue, the socket buffer, and PDUs the NI had no buffer for.
    counted = (
        stack_a.device.tx_drops + stack_b.sockbuf_drops
        + _tracer_total(cluster, ".rx_nobuf")
    )
    cell_losses = _tracer_total(cluster, ".rxfifo_drop") + sum(
        link.cells_dropped for link in cluster.network.switch.output_links
    )
    # A lost cell can take one or two datagrams with it (a lost end-of-PDU
    # cell merges two PDUs), so only a bound holds once cells were lost.
    if counted > result.drops or (cell_losses == 0 and counted != result.drops):
        problems.append(
            f"drops {result.drops} do not reconcile with counted drops {counted} "
            f"({cell_losses} cells lost)"
        )
    return problems


def _tcp_problems(point, stack_a, stack_b) -> List[str]:
    ws = point.param("write_size")
    written = max(1, 600_000 // ws) * ws  # tcp_bandwidth_on's default total
    (client,) = stack_a._tcp_conns.values()
    server = stack_b._tcp_listeners[7000]
    problems = []
    if client.bytes_sent != written:
        problems.append(f"TCP sent {client.bytes_sent} bytes, application wrote {written}")
    if server.bytes_received != written:
        problems.append(f"TCP received {server.bytes_received} bytes, application wrote {written}")
    return problems


def derived(counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer ratios of a pass's summed counters (0 where the layer
    did no work)."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    am_useful = counters["am.requests"] + counters["am.replies"]
    return {
        "sim.events": counters["sim.events"],
        "sim.batch.fused_share": ratio(counters["sim.batch.fused"], counters["sim.events"]),
        "atm.cells_sent": counters["atm.cells_sent"],
        "atm.cells_per_train": ratio(counters["atm.cells_sent"], counters["atm.trains_sent"]),
        "atm.cells_switched": counters["atm.cells_switched"],
        "atm.cells_dropped": counters["atm.cells_dropped"],
        "core.ni.pdus_received": counters["core.ni.pdus_received"],
        "core.ni.input_fifo_drops": counters["core.ni.input_fifo_drops"],
        "am.retransmissions": counters["am.retransmissions"],
        "am.useful_ratio": ratio(am_useful, am_useful + counters["am.retransmissions"]),
        "ip.udp.delivered_ratio": ratio(counters["ip.udp.received"], counters["ip.udp.sent"]),
        "ip.tcp.retransmits": counters["ip.tcp.retransmits"],
    }
