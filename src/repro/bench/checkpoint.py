"""Phase-boundary checkpointing for sweeps that share a warmup prefix.

:mod:`repro.bench.cache` memoizes *whole* sweep points; this module
splits a point into two phases so the expensive half is computed once:

* a **warmup prefix** shared by every point of the sweep — building the
  cluster, booting protocol stacks, running warmup traffic until the
  world is in steady state;
* a per-point **suffix** — the short measurement that actually differs.

Two mechanisms, picked by what the warmed world contains:

* :func:`sweep` — **fork-based cloning** for arbitrary worlds.  The
  warm world is built once in-process and each point runs in a forked
  child against a copy-on-write clone; results come back over a pipe.
  This handles process/generator worlds (whose pending
  :class:`~repro.sim.Event` entries cannot be snapshotted) and costs no
  serialization.  Falls back to rebuilding the warmup per point — with
  bit-identical results, the A/B tests rely on it — when ``os.fork`` is
  unavailable or ``REPRO_SIM_CHECKPOINT=0``.
* :func:`store_snapshot` / :func:`load_snapshot` — **persistent
  snapshots** for callback/timer-only worlds.  The whole warmed
  :class:`~repro.sim.Simulator` (pickling it drags the reachable model
  world along through the bound methods in its schedule) is stored
  content-addressed under the bench-cache directory, keyed like a cache
  entry: parameters, source digest, engine configuration and
  :data:`CHECKPOINT_SCHEMA`.  Editing any model source orphans every
  stored snapshot; bumping the schema retires old layouts in one
  stroke.

Known unsoundness (documented, not defended): a snapshot taken while a
timer is outstanding restores the *same* :class:`TimerHandle` objects,
so restoring twice into the same process aliases their cancellation
state; the timer free list is not part of the snapshot and restarts
empty; and the restored world re-reads engine
configuration (the shard count) from the restoring process, which is a
feature for A/B work and a foot-gun otherwise.  See DESIGN.md §12.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, TypeVar

from repro.bench import cache, parallel

W = TypeVar("W")
T = TypeVar("T")
R = TypeVar("R")

#: Version of the snapshot/checkpoint layout.  Part of every snapshot
#: key *and* of the whole-run cache key (:func:`repro.bench.cache
#: .cache_key`), so a layout change invalidates both kinds of entry.
CHECKPOINT_SCHEMA = 1

#: process-wide counters, reported by benchmarks/bench_perf.py
forked_points = 0
rebuilt_points = 0


def enabled() -> bool:
    """True unless ``REPRO_SIM_CHECKPOINT=0`` disables fork cloning."""
    return os.environ.get("REPRO_SIM_CHECKPOINT", "1") != "0"


def _run_forked(world: W, run_point: Callable[[W, T], R], point: T) -> R:
    """Run one point in a forked child; the parent never sees the
    child's mutations, so ``world`` stays pristine for the next fork."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process, exits below
        os.close(read_fd)
        status = 1
        try:
            payload = pickle.dumps(
                run_point(world, point), protocol=pickle.HIGHEST_PROTOCOL
            )
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            # never fall through to the parent's control flow
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, wait_status = os.waitpid(pid, 0)
    if wait_status != 0 or not payload:
        raise RuntimeError(
            f"checkpoint child for point {point!r} failed "
            f"(wait status {wait_status}, {len(payload)} bytes)"
        )
    return pickle.loads(payload)


def sweep(
    build_warm: Callable[[], W],
    run_point: Callable[[W, T], R],
    points: Iterable[T],
    use_fork: Optional[bool] = None,
) -> List[R]:
    """Run every point against a warmed world, cloning when possible.

    ``build_warm`` must be deterministic and ``run_point`` must not
    depend on anything outside ``world`` and ``point``: the contract is
    that *fork-clone-then-measure* and *rebuild-then-measure* produce
    identical results, which the A/B tests assert literally.  Results
    are returned in input order.
    """
    global forked_points, rebuilt_points
    points = list(points)
    if not points:
        return []
    if use_fork is None:
        use_fork = enabled() and parallel.fork_available()
    if use_fork:
        world = build_warm()
        results = [_run_forked(world, run_point, point) for point in points]
        forked_points += len(points)
        return results
    # Serial fallback: the warmup re-runs per point.  Slow but exactly
    # equivalent — each point still sees a freshly-warmed world.
    results = [run_point(build_warm(), point) for point in points]
    rebuilt_points += len(points)
    return results


# ------------------------------------------------------- persistent snapshots
def snapshot_dir() -> Path:
    return cache.cache_dir() / "checkpoints"


def snapshot_key(tag: str, params: Any) -> str:
    """Content address of a warm snapshot.

    Keyed exactly like a whole-run cache entry — warmup parameters,
    model sources, engine configuration — plus :data:`CHECKPOINT_SCHEMA`
    so old snapshot layouts are never deserialized by new code.
    """
    from repro.sim import engine

    h = hashlib.sha256()
    h.update(tag.encode())
    h.update(b"\0")
    h.update(cache._canonical(params).encode())
    h.update(b"\0")
    h.update(cache.source_digest().encode())
    h.update(b"\0shards=%d" % engine.shard_count())
    h.update(b"\0")
    h.update(cache.numpy_tag().encode())
    h.update(b"\0ckpt=%d" % CHECKPOINT_SCHEMA)
    return h.hexdigest()


def store_snapshot(key: str, sim: Any) -> bool:
    """Pickle a warmed simulator (world included) under ``key``.

    Atomic rename, best-effort like the result cache: a snapshot store
    that cannot *write* is just a slow snapshot store.  A world with
    pending :class:`~repro.sim.Event` entries is a caller bug, not a
    storage hiccup — the engine's typed ``SimulationError`` propagates
    (use :func:`sweep`'s fork path for process worlds).
    """
    directory = snapshot_dir()
    tmp = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f".{key}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(sim, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, directory / f"{key}.pkl")
        return True
    except (OSError, pickle.PickleError):
        return False
    finally:
        if tmp is not None and tmp.exists():
            try:
                os.unlink(tmp)
            except OSError:
                pass


def load_snapshot(key: str) -> Any:
    """Return the warmed simulator stored under ``key``, or ``None``.

    Corrupt entries are unlinked and treated as a miss, mirroring
    :func:`repro.bench.cache.lookup`.
    """
    path = snapshot_dir() / f"{key}.pkl"
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, pickle.PickleError, EOFError, AttributeError):
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def warm_world(
    tag: str,
    params: Any,
    build: Callable[[], Any],
    use_store: Optional[bool] = None,
) -> Any:
    """Build-or-load a warmed callback-only world.

    ``build`` constructs and warms the world, returning its simulator;
    the result is persisted so later *processes* (not just later points)
    skip the warmup.  Falls back to plain ``build()`` when the snapshot
    cannot be stored or checkpointing is disabled.
    """
    if use_store is None:
        use_store = enabled() and cache.enabled()
    if not use_store:
        return build()
    key = snapshot_key(tag, params)
    sim = load_snapshot(key)
    if sim is None:
        sim = build()
        store_snapshot(key, sim)
    return sim


def reset_counters() -> None:
    global forked_points, rebuilt_points
    forked_points = rebuilt_points = 0
