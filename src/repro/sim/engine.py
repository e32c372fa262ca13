"""Core event loop: events, timeouts, processes, and condition events.

Simulated time is a float in microseconds.  All scheduling is
deterministic: events scheduled for the same instant fire in the order
they were scheduled (a monotonically increasing sequence number breaks
ties).

The scheduler is one ``heapq`` binary heap of uniform 5-tuples
``(when, seq, kind, a, b)`` where ``kind`` discriminates the payload::

    (when, seq, None,  fn, args)     # a scheduled callback
    (when, seq, False, handle, None) # a pooled timer (cancellable)
    (when, seq, event, None, None)   # a triggered Event

``seq`` is unique, so tuple comparison never reaches the third element
and the shapes coexist safely.  Timers are :class:`TimerHandle` objects
drawn from a per-simulator free list: ``schedule_timer`` returns a
handle whose ``cancel()`` is O(1) (a flag write — no tombstone event,
no heap surgery); the entry is discarded and the handle recycled when
its timestamp is reached.

:class:`Simulator` is the only scheduler core; ``run`` and ``step``
fire entries through one dispatch, ``_execute``.  When REPRO_RACE /
REPRO_OBS instrumentation is armed, construction routes to
:class:`_MonitoredSimulator`, which reports every push and pop to the
monitor and may perturb the same-timestamp tie order; with
REPRO_SIM_SHARDS > 1 it routes to the sharded engine
(:mod:`repro.sim.shard`).  DESIGN.md §5 records why the engine keeps
one core.
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
SNAPSHOT_SCHEMA = 2


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


class Simulator:
    """The discrete-event scheduler.

    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(10.0)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    10.0
    """

    __slots__ = ("_now", "_heap", "_seq", "events_processed", "_mon", "_timer_pool")

    def __new__(cls) -> "Simulator":
        # When instrumentation is armed, construction routes to the
        # monitored subclass so the base class never pays a per-schedule
        # ``_mon`` check: REPRO_RACE off keeps the exact hot path.
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
        return object.__new__(cls)

    def __init__(self):
        self._now = 0.0
        self._heap: List[tuple] = []
        self._seq = 0
        #: Total schedule entries processed (events + callbacks +
        #: timers, including cancelled timers); perf metric.
        self.events_processed = 0
        self._timer_pool: List[TimerHandle] = []
        #: ShadowScheduler monitor; always None here (armed construction
        #: routes to _MonitoredSimulator, which sets it).
        self._mon = None

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

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

    # -- execution ------------------------------------------------------
    def _execute(self, item: tuple) -> None:
        """Fire one popped entry: callback, timer or triggered event.
        The one dispatch ``run`` and every ``step`` go through."""
        x = item[2]
        if x is None:
            a = item[4]
            if a:
                item[3](*a)
            else:
                item[3]()
        elif x is False:
            h = item[3]
            self._timer_pool.append(h)
            if h._alive:
                h._alive = False
                hf = h._fn
                ha = h._args
                h._fn = None
                h._args = ()
                if ha:
                    hf(*ha)
                else:
                    hf()
        else:
            callbacks, x.callbacks = x.callbacks, None
            for callback in callbacks:
                callback(x)
            if x._ok is False and not x._defused:
                raise x._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or simulated time reaches ``until``."""
        if until is not None and until < self._now:
            raise ValueError(f"until ({until}) lies in the past (now={self._now})")
        heap = self._heap
        execute = self._execute
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self._now = until
                    return
                item = pop(heap)
                self._now = item[0]
                processed += 1
                execute(item)
        finally:
            self.events_processed += processed
        if until is not None:
            self._now = until

    def step(self) -> None:
        """Process the next scheduled heap entry (event, callback, timer)."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule: nothing left to run")
        item = heapq.heappop(self._heap)
        self._now = item[0]
        self.events_processed += 1
        self._execute(item)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    def stats(self) -> dict:
        return {
            "core": "heap",
            "schedules": self._seq,
            "depth": len(self._heap),
            "timer_pool_size": len(self._timer_pool),
            "batch_fused": 0,  # no batch kernels; kept for figbench readers
        }

    # -- checkpointing ---------------------------------------------------
    # The blob lists callbacks and timers in ``(when, seq)`` order.
    # Pickling a simulator pickles its snapshot; the schedule's bound
    # callbacks drag the reachable world along, so ``pickle.dumps(sim)``
    # checkpoints a callback/timer world in one blob.  Unpickling
    # rebuilds the engine under the *current* shard selection.
    def snapshot(self) -> dict:
        recs = []
        for e in sorted(self._heap):
            k = e[2]
            if k is None:
                recs.append((e[0], e[1], 0, e[3], e[4]))
            elif k is False:
                recs.append((e[0], e[1], 1, e[3], None))
            else:
                # A pending Event means a process/store handshake is in
                # flight -- generator frames are not snapshot-able.
                raise SimulationError(_SNAPSHOT_EVENT_MSG)
        return {
            "schema": SNAPSHOT_SCHEMA,
            "now": self._now,
            "seq": self._seq,
            "events_processed": self.events_processed,
            "entries": recs,
        }

    def restore(self, state: dict) -> None:
        """Replace the whole schedule with a ``snapshot()`` blob; ``seq``
        continues from it, so the replayed suffix allocates identical
        ``(when, seq)`` pairs."""
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


class _MonitoredSimulator(Simulator):
    """Simulator variant built while instrumentation is armed.

    ``Simulator()`` constructs this subclass (via ``__new__``) whenever
    ``_monitor_factory`` is set, so the ShadowScheduler sees every heap
    push and pop without the base class carrying any per-event checks.
    The monitor may replace the tie-break key (``on_schedule``) to
    perturb same-timestamp ordering; pops are reported via
    ``on_execute`` before the entry runs.  Perturbed keys need a single
    totally-ordered container, which the heap is.
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

    def step(self) -> None:
        """Process the next heap entry, reporting it to the monitor first."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule: nothing left to run")
        item = heapq.heappop(self._heap)
        self._now = item[0]
        self.events_processed += 1
        self._mon.on_execute(item)
        self._execute(item)

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
