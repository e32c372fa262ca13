"""Core event loop: events, timeouts, processes, and condition events.

Simulated time is a float in microseconds.  All scheduling is
deterministic: events scheduled for the same instant fire in the order
they were scheduled (a monotonically increasing sequence number breaks
ties).

Scheduler v2 (the "calendar" core).  The flat binary heap of the seed
engine is replaced by a three-tier calendar queue:

* **front slot** — the imminent entry is held in plain closure cells
  (when/seq/kind/fn/args) outside any container.  Model code dominated
  by schedule-one-pop-one chains (link deliveries, firmware polls)
  never touches the heap at all: scheduling into an empty front slot is
  five cell stores, popping it is five cell reads.
* **near heap** — entries inside the current horizon window go to a
  classic ``heapq`` binary heap (C-implemented; at the depths this
  repo's models produce it beats a bucketed ring, which is why the
  "ring of time buckets" degenerates to one sorted bucket plus the
  front slot — see DESIGN.md §5 for the measurements).
* **far list** — entries at or beyond the horizon are *appended
  unsorted* (O(1)) to an overflow list and only organized (promoted
  into the near heap) when simulated time reaches them.  Protocol
  timers milliseconds out (TCP RTO/delayed-ACK) therefore never churn
  the near heap.  The horizon window adapts: when a promotion drains
  the far list entirely the window doubles, so the split tracks the
  observed event horizon of the workload.

Entries are uniform 5-tuples ``(when, seq, kind, a, b)`` where ``kind``
discriminates the payload::

    (when, seq, None,  fn, args)     # a scheduled callback
    (when, seq, False, handle, None) # a pooled timer (cancellable)
    (when, seq, event, None, None)   # a triggered Event

``seq`` is unique, so tuple comparison never reaches the third element
and the shapes coexist safely.  Timers are :class:`TimerHandle` objects
drawn from a per-simulator free list: ``schedule_timer`` returns a
handle whose ``cancel()`` is O(1) (a flag write — no tombstone event,
no heap surgery); the entry is discarded and the handle recycled when
its timestamp is reached.

The observable contract of the seed engine is preserved exactly: same
``(time, seq)`` total order (A/B-tested against the seed heap, kept
available as the ``heap`` core), same error behaviour, same
``events_processed`` accounting, and an unchanged
``_MonitoredSimulator`` so REPRO_RACE / REPRO_OBS instrumentation keep
working.  Select the reference core with ``REPRO_SIM_CORE=heap`` or
:func:`set_core`.

The callback/timer/event dispatch logic — drifted-by-copy between the
base and monitored run loops in earlier revisions — is rendered from
the single ``_DISPATCH_TEMPLATE`` below into every loop body at import
time, so the cores cannot diverge again.
"""

from __future__ import annotations

import heapq
import os
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Schedule-order instrumentation (installed by :mod:`repro.analysis.race`).
#: ``_monitor_factory`` builds one ShadowScheduler monitor per Simulator
#: created while armed; ``access_hook`` is called by state objects
#: (segments, rings, resources, links) on reads/writes so the race
#: detector can attribute accesses to the executing heap entry.  Both are
#: ``None`` in normal operation: unmonitored simulators carry ``self._mon
#: = None`` and the hot run loop is entirely untouched.
_monitor_factory: Optional[Callable[[], Any]] = None
access_hook: Optional[Callable[[int, str, str], None]] = None
#: True when the installed monitor can follow the in-process sharded
#: engine's multiple timelines (it exposes ``shard_view(k)`` — the obs
#: span monitor does; the race detector's shadow scheduler does not, so
#: race-monitored runs keep collapsing to one single-heap timeline).
_monitor_shard_aware: bool = False


def set_instrumentation(
    monitor_factory: Optional[Callable[[], Any]],
    access: Optional[Callable[[int, str, str], None]] = None,
    shard_aware: bool = False,
) -> None:
    """Install (or clear, with ``None``) the schedule-order monitor
    factory and the state-access hook.  Only simulators constructed
    while a factory is installed are monitored.  ``shard_aware``
    declares that the monitor supports per-shard views, letting
    ``REPRO_SIM_SHARDS > 1`` keep the sharded engine instead of
    collapsing to the single monitored timeline."""
    global _monitor_factory, access_hook, _monitor_shard_aware
    _monitor_factory = monitor_factory
    access_hook = access
    _monitor_shard_aware = shard_aware if monitor_factory is not None else False


#: Version tag of the ``snapshot()``/``restore()`` blob layout.  Bumped
#: whenever the entry encoding or the dict shape changes; checkpoint
#: cache keys incorporate it so stale blobs can never be replayed.
SNAPSHOT_SCHEMA = 1


def _check_snapshot_schema(state: Any) -> None:
    got = state.get("schema") if isinstance(state, dict) else None
    if got != SNAPSHOT_SCHEMA:
        raise SimulationError(
            f"snapshot schema mismatch: blob says {got!r}, this engine "
            f"speaks {SNAPSHOT_SCHEMA} (regenerate the checkpoint)"
        )


_SNAPSHOT_EVENT_MSG = (
    "snapshot(): the schedule holds pending Event entries (processes, "
    "timeouts, store handshakes); in-process checkpointing covers "
    "callback/timer worlds only — process worlds checkpoint via "
    "repro.bench.checkpoint's fork-based sweeps"
)


#: Available scheduler cores.  ``calendar`` is the v2 default; ``heap``
#: is the seed binary-heap engine, kept selectable as the A/B reference.
CORES = ("calendar", "heap")

_core = os.environ.get("REPRO_SIM_CORE", "calendar")
if _core not in CORES:  # pragma: no cover - env misuse
    raise ValueError(f"REPRO_SIM_CORE must be one of {CORES}, got {_core!r}")

#: Number of shard timelines new simulators partition their schedule
#: across.  1 (the default) constructs the plain single-timeline engine
#: — byte-identical code path to previous releases.  N > 1 routes
#: construction to :class:`repro.sim.shard.ShardedSimulator`, the
#: multi-timeline core with deterministic cross-shard merging (see
#: DESIGN.md §8).  Instrumentation (REPRO_RACE / REPRO_OBS) wins over
#: sharding: monitored runs always use the single heap timeline.
_shards = int(os.environ.get("REPRO_SIM_SHARDS", "1"))
if _shards < 1:  # pragma: no cover - env misuse
    raise ValueError(f"REPRO_SIM_SHARDS must be >= 1, got {_shards}")


def set_shards(n: int) -> None:
    """Select the shard count for subsequently constructed simulators.

    ``1`` restores the plain single-timeline engine.  Existing
    simulators are unaffected."""
    global _shards
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"shard count must be a positive integer, got {n!r}")
    _shards = n


def shard_count() -> int:
    """Shard count new simulators will be built with."""
    return _shards


class use_shards:
    """Context manager: construct simulators with ``n`` shard timelines.

    >>> with use_shards(4):
    ...     sim = Simulator()   # 4-timeline sharded engine
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"shard count must be a positive integer, got {n!r}")
        self._n = n
        self._saved: Optional[int] = None

    def __enter__(self) -> "use_shards":
        self._saved = _shards
        set_shards(self._n)
        return self

    def __exit__(self, *exc: Any) -> None:
        set_shards(self._saved or 1)


def set_core(name: str) -> None:
    """Select the scheduler core used by subsequently constructed
    simulators (``calendar`` or ``heap``).  Existing simulators are
    unaffected; monitored simulators always use the heap discipline."""
    global _core
    if name not in CORES:
        raise ValueError(f"unknown scheduler core {name!r}; choose from {CORES}")
    _core = name


def current_core() -> str:
    """Name of the core new simulators will use."""
    return _core


class use_core:
    """Context manager: run a block under a specific scheduler core.

    >>> with use_core("heap"):
    ...     sim = Simulator()   # seed binary-heap engine
    """

    def __init__(self, name: str):
        if name not in CORES:
            raise ValueError(f"unknown scheduler core {name!r}; choose from {CORES}")
        self._name = name
        self._saved: Optional[str] = None

    def __enter__(self) -> "use_core":
        self._saved = _core
        set_core(self._name)
        return self

    def __exit__(self, *exc: Any) -> None:
        set_core(self._saved or "calendar")


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (double-trigger, bad yield...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, and runs its callbacks when the simulator
    pops it off the schedule.  Events may only trigger once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    #: Class-level default; only :class:`_InterruptEvent` overrides it.
    _interrupting = False

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None  # None = pending
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(
                f"cannot trigger {delay} us into the past "
                f"(causality violation at t={self.sim._now})"
            )
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every waiting process.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(
                f"cannot trigger {delay} us into the past "
                f"(causality violation at t={self.sim._now})"
            )
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self


class Timeout(Event):
    """An event that triggers ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    # Field init is flattened (no super().__init__ call): Timeout is the
    # single hottest Event subclass in process-based models.
    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        sim._schedule(self, delay)


class _Initialize(Event):
    """Internal event used to kick off a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        self.sim = sim
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        sim._schedule(self, 0.0)


class _InterruptEvent(Event):
    """The failed event delivering an :class:`Interrupt` to a process."""

    __slots__ = ()

    _interrupting = True


class Process(Event):
    """A running generator; doubles as the event of its own termination.

    The generator yields :class:`Event` instances.  When the yielded
    event triggers, the process resumes with the event's value (or the
    exception, if the event failed).
    """

    __slots__ = ("_generator", "name", "_target", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self._generator = generator
        # Bound send/throw cached: _resume is the single hottest method
        # in process-based models (one call per resumption).
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._ok is not None:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        event = _InterruptEvent(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume)
        self.sim._schedule(event, 0.0)

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            # An interrupt can race with normal termination; it is void
            # once the process has finished.
            if event._interrupting:
                event._defused = True
            return
        self._target = None
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                # Defuse: the waiting process handles the failure.
                event._defused = True
                next_event = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
            try:
                self._throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc2:
                self.fail(exc2)
            return
        self._target = next_event
        if next_event.callbacks is None:
            # Already processed: resume immediately at the current time.
            stub = Event(self.sim)
            stub._ok = next_event._ok
            stub._value = next_event._value
            stub.callbacks.append(self._resume)
            self.sim._schedule(stub, 0.0)
        else:
            next_event.callbacks.append(self._resume)


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._count = 0
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.events and self._ok is None:
            self.succeed({})

    def _satisfied(self, n_done: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied(self._count):
            # Report only events that actually fired (were processed) by
            # the time the condition was met.
            self.succeed(
                {
                    e: e._value
                    for e in self.events
                    if (e.processed or e is event) and e._ok
                }
            )


class AnyOf(_Condition):
    """Triggers when the first of ``events`` triggers."""

    __slots__ = ()

    def _satisfied(self, n_done: int) -> bool:
        return n_done >= 1


class AllOf(_Condition):
    """Triggers when all of ``events`` have triggered."""

    __slots__ = ()

    def _satisfied(self, n_done: int) -> bool:
        return n_done == len(self.events)


class TimerHandle:
    """A cancellable, pooled timer returned by ``schedule_timer``.

    ``cancel()`` is O(1): it flips a flag and returns — no tombstone
    event is scheduled and no heap entry is removed.  The dead entry is
    discarded (and the handle recycled onto the simulator's free list)
    when simulated time reaches its timestamp.

    **Lifetime discipline**: a handle is only valid until its timer
    fires or until ``cancel()`` is called.  The engine recycles handles,
    so a holder must drop its reference when the timer fires (first
    statement of the callback) or right after cancelling; calling
    ``cancel()`` on a stale handle may cancel an unrelated, newer timer
    that reused the object.
    """

    __slots__ = ("_when", "_fn", "_args", "_alive")

    def __init__(self) -> None:
        self._when = 0.0
        self._fn: Optional[Callable] = None
        self._args: tuple = ()
        self._alive = False

    @property
    def when(self) -> float:
        """Absolute fire time this handle was armed for."""
        return self._when

    @property
    def alive(self) -> bool:
        """True while the timer is armed and not cancelled."""
        return self._alive

    def cancel(self) -> None:
        """Disarm the timer.  O(1); idempotent."""
        self._alive = False


# ---------------------------------------------------------------------------
# Run-loop codegen.
#
# The callback / timer / event dispatch below is THE single source of
# truth for what happens when a schedule entry fires.  It is rendered
# (with per-site accessor expressions) into the calendar core's run
# loops, the heap core's run loop and step(), and the monitored step(),
# so the bodies cannot drift apart by copy-editing again.
# ---------------------------------------------------------------------------

_DISPATCH_TEMPLATE = """\
x = $X$
if x is None:
$CB_PRE$
    a = $ARGS$
$CLEAR_CB$
    if a:
        $CB$(*a)
    else:
        $CB$()
elif x is False:
    h = $FN$
$CLEAR_TM$
    if h._alive:
        h._alive = False
        hf = h._fn
        ha = h._args
        h._fn = None
        h._args = ()
        $POOL$.append(h)
        if ha:
            hf(*ha)
        else:
            hf()
    else:
        $POOL$.append(h)
else:
$CLEAR_EV$
    callbacks, x.callbacks = x.callbacks, None
    for callback in callbacks:
        callback(x)
    if x._ok is False and not x._defused:
        raise x._value
"""


def _render(template: str, **subs: str) -> str:
    for key, value in subs.items():
        template = template.replace(f"${key}$", value)
    return template


def _indent(src: str, pad: str) -> str:
    return "".join(pad + ln if ln.strip() else ln for ln in src.splitlines(True))


def _dispatch(x: str, fn: str, args: str, pool: str, pad: str) -> str:
    """Render the dispatch for heap-item sites: the popped tuple owns its
    payload, so no cells need clearing and the markers expand to nothing."""
    return _indent(
        _render(
            _DISPATCH_TEMPLATE,
            X=x, FN=fn, CB=fn, ARGS=args, POOL=pool,
            CB_PRE="", CLEAR_CB="", CLEAR_TM="", CLEAR_EV="",
        ),
        pad,
    )


def _dispatch_front(pad: str) -> str:
    """Render the dispatch for the decomposed front slot.

    Each kind clears exactly the cells its fill path stored (see the
    empty-front invariant below), and every payload is bound to a local
    *before* its cell is cleared — the payload may schedule new entries,
    which refill the front slot mid-dispatch."""
    return _indent(
        _render(
            _DISPATCH_TEMPLATE,
            X="fx", FN="f3", CB="fn", ARGS="f4", POOL="pool",
            CB_PRE="    fn = f3",
            CLEAR_CB="    f3 = None\n    f4 = None",
            CLEAR_TM="    fx = None\n    f3 = None",
            CLEAR_EV="    fx = None",
        ),
        pad,
    )


# The calendar core lives in closures over plain cells (seq, the front
# slot, the horizon) rather than instance attributes: cell access is
# measurably cheaper than slot access in the two hottest functions
# (schedule_callback and the run loop).  ``sim._now`` stays a real slot
# because model code reads ``sim.now`` mid-callback.
#
# Front-slot cells: ``fw`` (when; -1.0 = empty), ``fs`` (seq), ``fx``
# (kind: None/False/Event), ``f3``/``f4`` (payload).  Invariants:
#   * every near-heap entry has when < horizon; horizon only grows
#   * far entries are >= the horizon they were inserted under, so
#     far_min >= horizon > every near-heap entry — heap pops never
#     need a far check
#   * the front slot bypasses the horizon, so the front-pop path alone
#     must check ``far_min <= front`` (a stale front can postdate a
#     far entry scheduled later)
#   * while the front is empty (``fw < 0``) the cells ``fx``/``f3``/
#     ``f4`` are all None: each fill path stores only the cells its
#     entry kind uses, and the front dispatch clears exactly those —
#     callbacks never touch ``fx``, events never touch ``f3``/``f4``
# ``far_min`` is +inf whenever the far list is empty.

_CAL_LOOP_TEMPLATE = """\
def $NAME$($ARGS$):
    nonlocal fw, fx, f3, f4, far_min, seq
    seq0 = seq
    pend0 = (fw >= 0.0) + len(heap) + len(far)
    try:
        while True:
            w = fw
            if w >= 0.0:
                if heap:
                    h0 = heap[0]
                    hw = h0[0]
                    if hw < w or (hw == w and h0[1] < fs):
$GUARD_HEAP0$
                        item = pop(heap)
                        sim._now = hw
$DISPATCH_ITEM$
                        continue
                if far_min <= w:
                    _promote()
                    continue
$GUARD_FRONT$
                fw = -1.0
                sim._now = w
$DISPATCH_FRONT$
                continue
            if heap:
$GUARD_HEAP1$
                item = pop(heap)
                sim._now = item[0]
$DISPATCH_ITEM$
                continue
            if far_min != INF:
$GUARD_FAR$
                _promote()
                continue
            break
$TAIL$
    finally:
        pend1 = (fw >= 0.0) + len(heap) + len(far)
        sim.events_processed += (seq - seq0) + pend0 - pend1
"""

_CAL_FACTORY_TEMPLATE = '''\
def _build_calendar_core(sim, width):
    INF = float("inf")
    heap = []
    far = []
    pool = []
    sim._heap = heap
    seq = 0
    fw = -1.0
    fs = 0
    fx = None
    f3 = None
    f4 = None
    far_min = INF
    horizon = width
    pushes = 0
    spills = 0
    promotions = 0
    pool_hits = 0
    pool_misses = 0

    def schedule_callback(delay, fn, *args):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay}")
        seq += 1
        when = sim._now + delay
        w = fw
        if w < 0.0:
            # Empty-front invariant: fx/f3/f4 are already None, so a
            # callback fill only touches the cells it uses.
            fw = when
            fs = seq
            f3 = fn
            f4 = args
            return
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = None
            f3 = fn
            f4 = args
        else:
            e = (when, seq, None, fn, args)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]

    def schedule_callback_at(when, fn, *args):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        if when < sim._now:
            raise SimulationError(
                f"callback time {when} lies in the past (now={sim._now}): "
                f"causality violation"
            )
        seq += 1
        w = fw
        if w < 0.0:
            fw = when
            fs = seq
            f3 = fn
            f4 = args
            return
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = None
            f3 = fn
            f4 = args
        else:
            e = (when, seq, None, fn, args)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]

    def _schedule(event, delay=0.0):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        seq += 1
        when = sim._now + delay
        w = fw
        if w < 0.0:
            fw = when
            fs = seq
            fx = event
            return
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = event
            f3 = None
            f4 = None
        else:
            e = (when, seq, event, None, None)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]

    def _schedule_event_at(event, when):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        if when < sim._now:
            raise SimulationError(
                f"event time {when} lies in the past (now={sim._now}): "
                f"causality violation"
            )
        seq += 1
        w = fw
        if w < 0.0:
            fw = when
            fs = seq
            fx = event
            return
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = event
            f3 = None
            f4 = None
        else:
            e = (when, seq, event, None, None)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]

    def schedule_timer(delay, fn, *args):
        nonlocal seq, fw, fs, fx, f3, f4, far_min, pushes, spills
        nonlocal pool_hits, pool_misses
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay}")
        if pool:
            h = pool.pop()
            pool_hits += 1
        else:
            h = TimerHandle()
            pool_misses += 1
        seq += 1
        when = sim._now + delay
        h._when = when
        h._fn = fn
        h._args = args
        h._alive = True
        w = fw
        if w < 0.0:
            fw = when
            fs = seq
            fx = False
            f3 = h
            return h
        if when < w:
            e = (w, fs, fx, f3, f4)
            fw = when
            fs = seq
            fx = False
            f3 = h
            f4 = None
        else:
            e = (when, seq, False, h, None)
        if e[0] < horizon:
            pushes += 1
            push(heap, e)
        else:
            spills += 1
            far.append(e)
            if e[0] < far_min:
                far_min = e[0]
        return h

    def _promote():
        # Pull every far entry inside the next horizon window into the
        # near heap.  Called only when the far list holds the earliest
        # pending timestamp, so the new window starts at far_min.
        nonlocal far_min, horizon, width, promotions
        promotions += 1
        horizon = far_min + width
        keep = []
        for e in far:
            if e[0] < horizon:
                push(heap, e)
            else:
                keep.append(e)
        far[:] = keep
        if keep:
            m = keep[0][0]
            for e in keep:
                if e[0] < m:
                    m = e[0]
            far_min = m
        else:
            far_min = INF
            if width < 1048576.0:
                # The whole overflow fit one window: the window is
                # narrower than the observed event horizon, so widen it.
                width *= 2.0

$RUN_ALL$

$RUN_UNTIL$

    def run(until=None):
        if until is None:
            _run_all()
            return
        if until < sim._now:
            raise ValueError(f"until ({until}) lies in the past (now={sim._now})")
        _run_until(until)

    def step():
        nonlocal fw, fx, f3, f4
        while True:
            w = fw
            if w >= 0.0:
                if heap:
                    h0 = heap[0]
                    if h0[0] < w or (h0[0] == w and h0[1] < fs):
                        item = pop(heap)
                        break
                if far_min <= w:
                    _promote()
                    continue
                item = (w, fs, fx, f3, f4)
                fw = -1.0
                fx = None
                f3 = None
                f4 = None
                break
            if heap:
                item = pop(heap)
                break
            if far_min != INF:
                _promote()
                continue
            raise SimulationError("step() on an empty schedule: nothing left to run")
        sim._now = item[0]
        sim.events_processed += 1
$DISPATCH_STEP$

    def peek():
        m = INF
        if fw >= 0.0:
            m = fw
        if heap and heap[0][0] < m:
            m = heap[0][0]
        if far_min < m:
            m = far_min
        return m

    def stats():
        return {
            "core": "calendar",
            "schedules": seq,
            "front_inserts": seq - pushes - spills,
            "near_pushes": pushes,
            "far_spills": spills,
            "promotions": promotions,
            "near_depth": len(heap) + (fw >= 0.0),
            "far_depth": len(far),
            "near_window_us": width,
            "timer_pool_hits": pool_hits,
            "timer_pool_misses": pool_misses,
            "timer_pool_size": len(pool),
            "batch_fused": 0,  # no batch kernels; kept for figbench readers
        }

    def snapshot():
        # Entries in (when, seq) order; callbacks and timers only.  A
        # pending Event means a process/store handshake is in flight --
        # generator frames are not snapshot-able in-process.
        entries = []
        if fw >= 0.0:
            entries.append((fw, fs, fx, f3, f4))
        entries.extend(heap)
        entries.extend(far)
        entries.sort(key=lambda e: (e[0], e[1]))
        recs = []
        for e in entries:
            k = e[2]
            if k is None:
                recs.append((e[0], e[1], 0, e[3], e[4]))
            elif k is False:
                recs.append((e[0], e[1], 1, e[3], None))
            else:
                raise SimulationError(_SNAPSHOT_EVENT_MSG)
        return {
            "schema": SNAPSHOT_SCHEMA,
            "core": "calendar",
            "now": sim._now,
            "seq": seq,
            "events_processed": sim.events_processed,
            "width": width,
            "entries": recs,
        }

    def restore(state):
        # Replaces the whole schedule; seq continues from the snapshot
        # so the replayed suffix allocates identical (when, seq) pairs.
        # Scheduler micro-stats (pushes/spills/promotions/pool) are NOT
        # restored -- they are diagnostics of this core instance, not
        # simulation state.
        nonlocal seq, fw, fs, fx, f3, f4, far_min, horizon, width
        _check_snapshot_schema(state)
        heap.clear()
        far.clear()
        fw = -1.0
        fs = 0
        fx = None
        f3 = None
        f4 = None
        sim._now = state["now"]
        seq = state["seq"]
        sim.events_processed = state["events_processed"]
        width = state["width"]
        horizon = sim._now + width
        far_min = INF
        for when, sq, kind, a, b in state["entries"]:
            if kind == 0:
                e = (when, sq, None, a, b)
            else:
                e = (when, sq, False, a, None)
            if when < horizon:
                push(heap, e)
            else:
                far.append(e)
                if when < far_min:
                    far_min = when

    return (schedule_callback, schedule_callback_at, _schedule,
            _schedule_event_at, schedule_timer, run, step, peek, stats,
            snapshot, restore)
'''


def _calendar_loop(name: str, bounded: bool) -> str:
    if bounded:
        guard = "if {when} > until:\n    sim._now = until\n    return\n"
        subs = dict(
            NAME=name,
            ARGS="until",
            GUARD_HEAP0=_indent(guard.format(when="hw"), " " * 24),
            GUARD_FRONT=_indent(guard.format(when="w"), " " * 16),
            GUARD_HEAP1=_indent(guard.format(when="heap[0][0]"), " " * 16),
            GUARD_FAR=_indent(guard.format(when="far_min"), " " * 16),
            TAIL=_indent("sim._now = until\n", " " * 8),
        )
    else:
        subs = dict(
            NAME=name, ARGS="", GUARD_HEAP0="", GUARD_FRONT="",
            GUARD_HEAP1="", GUARD_FAR="", TAIL="",
        )
    src = _render(_CAL_LOOP_TEMPLATE, **subs)
    # The two DISPATCH_ITEM sites sit at different depths; render each.
    parts = src.split("$DISPATCH_ITEM$\n")
    assert len(parts) == 3, "loop template must contain two item dispatch sites"
    src = (
        parts[0]
        + _dispatch("item[2]", "item[3]", "item[4]", "pool", " " * 24)
        + parts[1]
        + _dispatch("item[2]", "item[3]", "item[4]", "pool", " " * 16)
        + parts[2]
    )
    src = src.replace("$DISPATCH_FRONT$\n", _dispatch_front(" " * 16))
    return src


def _build_calendar_factory() -> Callable:
    src = _render(
        _CAL_FACTORY_TEMPLATE,
        RUN_ALL=_indent(_calendar_loop("_run_all", bounded=False), " " * 4),
        RUN_UNTIL=_indent(_calendar_loop("_run_until", bounded=True), " " * 4),
        DISPATCH_STEP=_dispatch("item[2]", "item[3]", "item[4]", "pool", " " * 8),
    )
    namespace: dict = {
        "TimerHandle": TimerHandle,
        "SimulationError": SimulationError,
        "push": heapq.heappush,
        "pop": heapq.heappop,
        "SNAPSHOT_SCHEMA": SNAPSHOT_SCHEMA,
        "_check_snapshot_schema": _check_snapshot_schema,
        "_SNAPSHOT_EVENT_MSG": _SNAPSHOT_EVENT_MSG,
    }
    exec(compile(src, "<repro.sim.engine:calendar-core>", "exec"), namespace)
    return namespace["_build_calendar_core"]


# Heap-core run/step: the seed engine's loop skeleton with the shared
# dispatch rendered in.  ``$ON_EXECUTE$`` is empty for the plain heap
# core and the monitor hook for _MonitoredSimulator.

_HEAP_RUN_TEMPLATE = '''\
def _heap_run(self, until=None):
    """Run until the heap drains or simulated time reaches ``until``."""
    if until is not None and until < self._now:
        raise ValueError(f"until ({until}) lies in the past (now={self._now})")
    # Inlined step() body: one tuple pop and a branch per entry, with
    # the heap and heappop bound to locals.
    heap = self._heap
    pool = self._timer_pool
    processed = 0
    try:
        while heap:
            if until is not None and heap[0][0] > until:
                self._now = until
                return
            item = pop(heap)
            self._now = item[0]
            processed += 1
$ON_EXECUTE$
$DISPATCH$
    finally:
        self.events_processed += processed
    if until is not None:
        self._now = until
'''

_HEAP_STEP_TEMPLATE = '''\
def _heap_step(self):
    """Process the next scheduled heap entry (event, callback, timer)."""
    if not self._heap:
        raise SimulationError("step() on an empty schedule: nothing left to run")
    pool = self._timer_pool
    item = pop(self._heap)
    self._now = item[0]
    self.events_processed += 1
$ON_EXECUTE$
$DISPATCH$
'''


def _build_heap_loop(template: str, name: str, monitored: bool) -> Callable:
    hook = "self._mon.on_execute(item)\n" if monitored else ""
    src = _render(
        template,
        ON_EXECUTE=_indent(hook, " " * (12 if "while heap" in template else 4)),
        DISPATCH=_dispatch(
            "item[2]", "item[3]", "item[4]", "pool",
            " " * (12 if "while heap" in template else 4),
        ),
    )
    namespace: dict = {
        "SimulationError": SimulationError,
        "pop": heapq.heappop,
    }
    exec(compile(src, f"<repro.sim.engine:{name}>", "exec"), namespace)
    fn = namespace[template.split("(")[0].split()[-1]]
    fn.__name__ = name
    return fn


class Simulator:
    """The discrete-event scheduler (calendar core).

    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(10.0)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    10.0
    """

    __slots__ = (
        "_now",
        "_heap",
        "_seq",
        "events_processed",
        "_mon",
        "_timer_pool",
        # Calendar-core entry points (per-instance closures over the
        # scheduler cells; the heap/monitored subclasses use ordinary
        # methods instead and never assign these slots).
        "schedule_callback",
        "schedule_callback_at",
        "schedule_timer",
        "_schedule",
        "_schedule_event_at",
        "run",
        "step",
        "peek",
        "stats",
        "snapshot",
        "restore",
    )

    #: Default near-window width (µs) separating the near heap from the
    #: far overflow list; adapts upward per-instance (DESIGN.md §5).
    NEAR_WINDOW_US = 4096.0

    def __new__(cls) -> "Simulator":
        # When instrumentation is armed, construction routes to the
        # monitored subclass so the base class never pays a per-schedule
        # ``_mon`` check: REPRO_RACE off keeps the exact hot path.  The
        # seed heap core stays selectable for A/B reference runs, and
        # REPRO_SIM_SHARDS > 1 routes to the sharded multi-timeline
        # engine.  A shard-aware monitor (obs spans) rides along into
        # the sharded engine; a shard-blind one (the race detector's
        # shadow scheduler needs one totally-ordered container) wins
        # over sharding and collapses to the single monitored timeline.
        if cls is Simulator:
            if _monitor_factory is not None and not (
                _shards > 1 and _monitor_shard_aware
            ):
                return object.__new__(_MonitoredSimulator)
            if _shards > 1:
                from repro.sim.shard.sharded import ShardedSimulator

                return object.__new__(ShardedSimulator)
            if _core == "heap":
                return object.__new__(_HeapSimulator)
        return object.__new__(cls)

    def __init__(self):
        self._now = 0.0
        #: Total schedule entries processed (events + callbacks +
        #: timers, including cancelled timers); perf metric.
        self.events_processed = 0
        #: ShadowScheduler monitor; always None here (armed construction
        #: routes to _MonitoredSimulator before this __init__ runs).
        self._mon = None
        (
            self.schedule_callback,
            self.schedule_callback_at,
            self._schedule,
            self._schedule_event_at,
            self.schedule_timer,
            self.run,
            self.step,
            self.peek,
            self.stats,
            self.snapshot,
            self.restore,
        ) = _build_calendar_core(self, self.NEAR_WINDOW_US)

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    # -- checkpointing ---------------------------------------------------
    # ``snapshot()`` / ``restore()`` are per-core (calendar: closures
    # assigned in __init__; heap/monitored: methods below).  Both speak
    # the same SNAPSHOT_SCHEMA dict, so a blob restores across cores —
    # the (when, seq) order is core-agnostic.  Pickling a simulator
    # pickles its snapshot; the schedule's bound callbacks drag the
    # reachable world along, so ``pickle.dumps(sim)`` checkpoints a
    # callback/timer world in one blob.  Unpickling rebuilds the core
    # under the *current* engine configuration (core/shards selection).
    def __getstate__(self) -> dict:
        return self.snapshot()

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self.restore(state)

    # -- conservative-synchronization accounting ------------------------
    def earliest_output_time(self, lookahead_us: float = 0.0) -> float:
        """Lower bound on the timestamp of anything this timeline can
        still emit: no pending entry fires before ``peek()``, and every
        externally visible effect an entry produces is at least
        ``lookahead_us`` after the entry itself (link serialization +
        propagation + switch transit on cut edges — DESIGN.md §8).  The
        sharded coordinator exchanges this EOT as its null message;
        ``inf`` means the timeline is drained and promises nothing."""
        nxt = self.peek()
        return nxt if nxt == float("inf") else nxt + lookahead_us

    # -- event factories ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)


class _HeapSimulator(Simulator):
    """The seed binary-heap engine, kept as the A/B reference core.

    Selected with ``REPRO_SIM_CORE=heap`` / ``set_core("heap")``.  Same
    observable contract as the calendar core: identical ``(time, seq)``
    total order, identical ``events_processed``, identical errors.  Its
    dispatch body is rendered from the same template as the calendar
    core's, so the two cannot drift.
    """

    __slots__ = ()

    def __init__(self):
        self._now = 0.0
        self._heap: List[tuple] = []
        self._seq = 0
        self.events_processed = 0
        self._timer_pool: List[TimerHandle] = []
        self._mon = None

    # -- scheduling -----------------------------------------------------
    # Negative delays cannot reach ``_schedule``: Timeout.__init__ and
    # Event.succeed/fail validate before calling, keeping this free of
    # per-event checks.
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event, None, None))

    def schedule_callback(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, None, fn, args))

    def schedule_callback_at(self, when: float, fn: Callable, *args: Any) -> None:
        if when < self._now:
            raise SimulationError(
                f"callback time {when} lies in the past (now={self._now}): "
                f"causality violation"
            )
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, None, fn, args))

    def _schedule_event_at(self, event: Event, when: float) -> None:
        if when < self._now:
            raise SimulationError(
                f"event time {when} lies in the past (now={self._now}): "
                f"causality violation"
            )
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, event, None, None))

    def schedule_timer(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay}")
        pool = self._timer_pool
        h = pool.pop() if pool else TimerHandle()
        self._seq += 1
        when = self._now + delay
        h._when = when
        h._fn = fn
        h._args = args
        h._alive = True
        heapq.heappush(self._heap, (when, self._seq, False, h, None))
        return h

    run = _build_heap_loop(_HEAP_RUN_TEMPLATE, "run", monitored=False)
    step = _build_heap_loop(_HEAP_STEP_TEMPLATE, "step", monitored=False)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    def stats(self) -> dict:
        return {
            "core": "heap",
            "schedules": self._seq,
            "near_depth": len(self._heap),
            "timer_pool_size": len(self._timer_pool),
        }

    def snapshot(self) -> dict:
        """Same blob layout as the calendar core's ``snapshot()``."""
        recs = []
        for e in sorted(self._heap):
            k = e[2]
            if k is None:
                recs.append((e[0], e[1], 0, e[3], e[4]))
            elif k is False:
                recs.append((e[0], e[1], 1, e[3], None))
            else:
                raise SimulationError(_SNAPSHOT_EVENT_MSG)
        return {
            "schema": SNAPSHOT_SCHEMA,
            "core": "heap",
            "now": self._now,
            "seq": self._seq,
            "events_processed": self.events_processed,
            "width": Simulator.NEAR_WINDOW_US,
            "entries": recs,
        }

    def restore(self, state: dict) -> None:
        _check_snapshot_schema(state)
        heap = []
        for when, sq, kind, a, b in state["entries"]:
            if kind == 0:
                heap.append((when, sq, None, a, b))
            else:
                heap.append((when, sq, False, a, None))
        heapq.heapify(heap)
        self._heap[:] = heap
        self._now = state["now"]
        self._seq = state["seq"]
        self.events_processed = state["events_processed"]


class _MonitoredSimulator(_HeapSimulator):
    """Simulator variant built while instrumentation is armed.

    ``Simulator()`` constructs this subclass (via ``__new__``) whenever
    ``_monitor_factory`` is set, so the ShadowScheduler sees every heap
    push and pop without the base class carrying any per-event checks.
    The monitor may replace the tie-break key (``on_schedule``) to
    perturb same-timestamp ordering; pops are reported via
    ``on_execute`` before the entry runs.  Always uses the plain heap
    discipline: perturbed keys need a single totally-ordered container.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__()
        self._mon = _monitor_factory()

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        seq = self._mon.on_schedule(self._seq, self._now + delay, event)
        heapq.heappush(self._heap, (self._now + delay, seq, event, None, None))

    def schedule_callback(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay}")
        self._seq += 1
        seq = self._mon.on_schedule(self._seq, self._now + delay, fn)
        heapq.heappush(self._heap, (self._now + delay, seq, None, fn, args))

    def schedule_callback_at(self, when: float, fn: Callable, *args: Any) -> None:
        if when < self._now:
            raise SimulationError(
                f"callback time {when} lies in the past (now={self._now}): "
                f"causality violation"
            )
        self._seq += 1
        seq = self._mon.on_schedule(self._seq, when, fn)
        heapq.heappush(self._heap, (when, seq, None, fn, args))

    def _schedule_event_at(self, event: Event, when: float) -> None:
        if when < self._now:
            raise SimulationError(
                f"event time {when} lies in the past (now={self._now}): "
                f"causality violation"
            )
        self._seq += 1
        seq = self._mon.on_schedule(self._seq, when, event)
        heapq.heappush(self._heap, (when, seq, event, None, None))

    def schedule_timer(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay}")
        pool = self._timer_pool
        h = pool.pop() if pool else TimerHandle()
        self._seq += 1
        when = self._now + delay
        h._when = when
        h._fn = fn
        h._args = args
        h._alive = True
        seq = self._mon.on_schedule(self._seq, when, fn)
        heapq.heappush(self._heap, (when, seq, False, h, None))
        return h

    step = _build_heap_loop(_HEAP_STEP_TEMPLATE, "step", monitored=True)

    def run(self, until: Optional[float] = None) -> None:
        """Monitored runs go through step() so every popped entry is
        reported to the ShadowScheduler; speed is secondary here."""
        if until is not None and until < self._now:
            raise ValueError(f"until ({until}) lies in the past (now={self._now})")
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = until


_build_calendar_core = _build_calendar_factory()
