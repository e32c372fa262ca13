#!/usr/bin/env python3
# simlint: disable-file=wall-clock -- this benchmark measures host time, not
# simulated time.
"""Cold host-time benchmark of three figure workloads, with per-layer
attribution of the host time.

Run from the repository root:

    python3 figbench/run.py --workload ip_stream --seed 1 --seconds 30 --trace 0

Workloads: ``ip_stream`` (Figure 7/8 UDP and TCP streams), ``splitc_logp``
(Figure 5's small-message Split-C apps on the U-Net ATM LogP model) and
``uam_fullstack`` (Split-C over UAM on a 4-host simulated ATM cluster).

``--trace 0`` runs passes over the workload's points for ``--seconds``
with no tracing, each pass on a fresh input draw, and reports the
end-to-end metrics.  ``--trace 1`` repeats the first draw untraced for
``--seconds``, runs it once more under ``cProfile``, checks that every
simulated counter is identical across all of them, and reports
per-layer metrics.  Each point's simulated outputs are checked against the
invariants in ``workloads.py`` and, where the point appears there,
against ``golden/<workload>.json``.  The last line of standard output
is the JSON result; one span per point goes to ``out/``.

``--write-golden`` runs untraced passes for ``--seconds`` (the committed
files came from ``--seed 1 --seconds 120``) and rewrites the workload's
golden file with every point it drew; do that only for a change that
alters the model on purpose.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"
DEFAULT_SEED = 1
SETUP_PROBES = 5

# One thread: numpy's BLAS pools would otherwise add threads to the
# process whose CPU time is measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import layers  # noqa: E402  (after the thread settings)
import workloads  # noqa: E402

#: Metric-name suffix -> unit; the first match wins, the rest are counts.
UNITS = (
    ("_s", "s"),
    ("_mb", "MB"),
    ("ns_per_event", "ns"),
    ("cells_per_train", "cells"),
    ("trace_overhead", "x"),
    ("share", "fraction"),
    ("ratio", "fraction"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ set-up
def setup_probe(workload: str) -> int:
    """Child-process body: time the imports and the first world."""
    t0 = time.perf_counter()
    workloads.import_program(workload)
    workloads.build_first_world(workload)
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of imports + first world."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


# ------------------------------------------------------------------- passes
class Run:
    """Runs passes over a workload's points and checks every outcome."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        path = GOLDEN / f"{workload}.json"
        self.golden = json.loads(path.read_text())["points"] if path.is_file() else {}
        self.t_start = time.perf_counter()
        self.first = {}  # point name -> outcome of its first run
        self.passes = 0
        self.cores = set()
        self.spans = []
        self.attempted = 0
        self.failures = []  # (pass, point name, problem)

    def one_pass(self, phase: str, draw: int, profiler=None) -> dict:
        """Run the points of input draw ``draw``; returns {name: outcome}."""
        index = self.passes
        self.passes += 1
        outcomes = {}
        for slot, point in enumerate(workloads.points(self.workload, self.seed, draw)):
            self.attempted += 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                raw = profiler.runcall(workloads.execute, point) if profiler else workloads.execute(point)
            except Exception:  # a failing point is reported, the run goes on
                raw = None
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            t1, c1 = time.perf_counter(), time.process_time()
            self.spans.append({
                "name": point.name, "parent": self.workload, "phase": phase,
                "pass": index, "draw": draw, "slot": slot, "start": t0 - self.t_start,
                "end": t1 - self.t_start, "cpu_s": c1 - c0, "ok": raw is not None,
            })
            if raw is None:
                self.failures.append((index, point.name, error))
                continue
            outcome = workloads.inspect(point, raw)
            del raw
            gc.collect()  # free this point's world before the next is timed
            self.cores.add(outcome.core)
            for problem in self.check(point, outcome, phase):
                self.failures.append((index, point.name, problem))
            outcomes[point.name] = outcome
        return outcomes

    def check(self, point, outcome, phase):
        problems = list(outcome.problems)
        expected = self.golden.get(point.name)
        if expected is not None and expected != outcome.outputs:
            problems.append(f"outputs {outcome.outputs} differ from golden {expected}")
        first = self.first.setdefault(point.name, outcome)
        if first is not outcome:
            if first.outputs != outcome.outputs:
                problems.append(f"{phase} outputs differ from the point's first run")
            diff = {k: (first.counters[k], v) for k, v in outcome.counters.items()
                    if first.counters[k] != v}
            if diff:
                problems.append(f"{phase} counters differ from the point's first run: {diff}")
        return problems

    def figure_time(self, phase: str, cpu: bool = False) -> float:
        """Host time of one pass over the figure's points: for each slot
        of a pass, the median over the ``phase`` passes, summed.  A slot
        holds the same kind of point in every pass, and its median shrugs
        off the passes in which another process held the CPU."""
        samples = {}
        for span in self.spans:
            if span["phase"] == phase and span["ok"]:
                value = span["cpu_s"] if cpu else span["end"] - span["start"]
                samples.setdefault(span["slot"], []).append(value)
        return sum(statistics.median(v) for v in samples.values())

    def failed_points(self) -> int:
        return len({(i, name) for i, name, _ in self.failures})


def summed(outcomes: dict) -> dict:
    total = dict.fromkeys(workloads.COUNTERS, 0)
    for outcome in outcomes.values():
        for key, value in outcome.counters.items():
            total[key] += value
    return total


def isolation_problems() -> list:
    from repro.bench import cache

    return [f"bench result cache served {cache.hits} hits"] if cache.hits else []


# ------------------------------------------------------------------ results
def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, run: Run) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "engine_core": sorted(run.cores),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": run.passes,
    }


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def run_passes(run: Run, seconds: float, fresh_draws: bool = True) -> list:
    """Untraced passes while the run is expected to end within half a
    pass of ``seconds``; each on a fresh input draw, or all on draw 0.
    Returns each pass's {name: outcome}."""
    t0 = time.perf_counter()
    passes = []
    while True:
        passes.append(run.one_pass("untraced", len(passes) if fresh_draws else 0))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def end_to_end(args, run: Run) -> dict:
    setup_s = measure_setup(args.workload)
    workloads.import_program(args.workload)
    run_passes(run, args.seconds)
    return {
        "wall_s": run.figure_time("untraced"),
        "cpu_s": run.figure_time("untraced", cpu=True),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(args, run: Run) -> dict:
    workloads.import_program(run.workload)
    untraced = run_passes(run, args.seconds, fresh_draws=False)[0]
    profiler = cProfile.Profile()
    run.one_pass("traced", 0, profiler)
    profiler.create_stats()
    attributed = layers.attribute(profiler.stats, SRC, BENCH)
    total = sum(entry["self_s"] for entry in attributed.values()) or 1.0
    metrics = {}
    for layer in layers.LAYERS + ("unattributed",):
        metrics[f"{layer}.self_s"] = attributed[layer]["self_s"]
        metrics[f"{layer}.share"] = attributed[layer]["self_s"] / total
        if layer != "unattributed":
            metrics[f"{layer}.calls"] = attributed[layer]["calls"]
    counters = summed(untraced)
    metrics.update(workloads.derived(counters))
    metrics["sim.host_ns_per_event"] = (
        run.figure_time("untraced") * 1e9 / counters["sim.events"] if counters["sim.events"] else 0.0
    )
    metrics["trace_overhead"] = (
        run.figure_time("traced", cpu=True) / run.figure_time("untraced", cpu=True)
    )
    return metrics


def write_golden(args, run: Run) -> int:
    workloads.import_program(args.workload)
    outcomes = {}
    for one in run_passes(run, args.seconds):
        outcomes.update(one)
    bad = [(name, p) for _, name, p in run.failures if not p.startswith("outputs ")]
    for name, problem in bad:
        print(f"FAIL {name}: {problem}")
    if bad:
        return 1
    GOLDEN.mkdir(exist_ok=True)
    body = {"seed": args.seed, "points": {n: o.outputs for n, o in sorted(outcomes.items())}}
    path = GOLDEN / f"{args.workload}.json"
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outcomes)} points to {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"figbench: no program source under {SRC}", file=sys.stderr)
        return 2
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        print(f"figbench: unset {', '.join(knobs)}: the benchmark runs the defaults",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)
    run = Run(args.workload, args.seed)
    if args.write_golden:
        return write_golden(args, run)
    metrics = end_to_end(args, run) if args.trace == 0 else per_layer(args, run)
    problems = isolation_problems()

    for index, name, problem in run.failures:
        print(f"FAIL {name} (pass {index}): {problem}")
    for problem in problems:
        print(f"FAIL {args.workload}: {problem}")
    failed = run.failed_points()
    print(f"{'failed_share':<28} {failed / max(1, run.attempted):>16.6g} fraction")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6g} {unit_of(name)}")
    prov = provenance(args, run)
    print("provenance " + json.dumps(prov, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans_file.write_text(json.dumps({"provenance": prov, "spans": run.spans}, indent=1) + "\n")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
