"""Blocking FIFO stores and counted resources for simulated processes."""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, List, Optional

from repro.sim import engine as _engine
from repro.sim.engine import Event, SimulationError, Simulator


class Store:
    """A FIFO channel between processes.

    ``put`` blocks while the store is at ``capacity``; ``get`` blocks while
    it is empty.  Both return events to be yielded from a process.  The
    non-blocking variants ``try_put``/``try_get`` never block and report
    success explicitly; they are what NI hardware models use for queues
    that *drop* on overflow instead of exerting back-pressure.
    ``get_then`` is the callback form of ``get`` for firmware written as
    a state machine rather than a process.
    """

    __slots__ = ("sim", "capacity", "name", "items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        # Waiting getters as "hand over this item" callables: a blocked
        # get() parks its event's succeed, a blocked get_then() a
        # zero-delay schedule of its continuation.
        self._getters: Deque[Callable[[Any], Any]] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"store:{self.name}", "w")
        event = Event(self.sim)
        if self._getters:
            # Hand the item straight to the longest-waiting getter.
            self._getters.popleft()(item)
            event.succeed()
        elif len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"store:{self.name}", "w")
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
            self._drain_putters()
        elif self._putters:
            putter, item = self._putters.popleft()
            putter.succeed()
            event.succeed(item)
        else:
            self._getters.append(event.succeed)
        return event

    def get_then(self, fn: Callable[[Any], Any]) -> None:
        """Callback form of :meth:`get`: ``fn(item)`` runs from its own
        zero-delay heap entry, scheduled exactly where ``get()``'s event
        would trigger -- now if an item is ready, else when a put
        arrives -- so the ``(time, seq)`` timeline is the same."""
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"store:{self.name}", "w")
        sim = self.sim
        if self.items:
            sim.schedule_callback(0.0, fn, self.items.popleft())
            self._drain_putters()
        elif self._putters:
            putter, item = self._putters.popleft()
            putter.succeed()
            sim.schedule_callback(0.0, fn, item)
        else:
            self._getters.append(partial(sim.schedule_callback, 0.0, fn))

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False (drop) when full."""
        if _engine.access_hook is not None:
            _engine.access_hook(
                id(self), f"store:{self.name}", "r" if self.is_full else "w"
            )
        if self._getters:
            self._getters.popleft()(item)
            return True
        if len(self.items) < self.capacity:
            self.items.append(item)
            return True
        return False

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if _engine.access_hook is not None:
            _engine.access_hook(
                id(self), f"store:{self.name}",
                "w" if (self.items or self._putters) else "r",
            )
        if self.items:
            item = self.items.popleft()
            self._drain_putters()
            return item
        if self._putters:
            putter, item = self._putters.popleft()
            putter.succeed()
            return item
        return None

    def _drain_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            self.items.append(item)
            putter.succeed()


class Resource:
    """A counted resource (CPU, DMA engine, bus) with FIFO queueing.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(cost)
        finally:
            resource.release(req)
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_queue", "_seq")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: List[tuple] = []  # heap of (priority, seq, event)
        self._seq = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request(self, priority: int = 0) -> Event:
        """Request the resource; lower ``priority`` values are served
        first (interrupt-level work preempts queued process-level work,
        though never a holder mid-use)."""
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"res:{self.name}", "w")
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._seq += 1
            heapq.heappush(self._queue, (priority, self._seq, event))
        return event

    def release(self, request: Event) -> None:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"res:{self.name}", "w")
        if not request.triggered:
            # The request never got the resource; just remove it.
            entries = [e for e in self._queue if e[2] is not request]
            if len(entries) == len(self._queue):
                raise SimulationError("releasing a request that was never made")
            self._queue = entries
            heapq.heapify(self._queue)
            request.succeed()  # unblock any waiter, resource not held
            return
        self._release_held()

    def _release_held(self) -> None:
        if _engine.access_hook is not None:
            _engine.access_hook(id(self), f"res:{self.name}", "w")
        if self._in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        if self._queue:
            _, _, event = heapq.heappop(self._queue)
            event.succeed()
        else:
            self._in_use -= 1

    def use(self, duration: float, priority: int = 0):
        """Generator helper: hold the resource for ``duration``.

        When the resource is free the request phase is skipped entirely
        (it would succeed at the current instant anyway): one timeout is
        the only scheduled occurrence.  Contended acquisitions take the
        full FIFO request path."""
        if self._in_use < self.capacity and not self._queue:
            if _engine.access_hook is not None:
                _engine.access_hook(id(self), f"res:{self.name}", "w")
            self._in_use += 1
            try:
                yield self.sim.timeout(duration)
            finally:
                self._release_held()
        else:
            request = self.request(priority)
            yield request
            try:
                yield self.sim.timeout(duration)
            finally:
                self.release(request)

    def use_then(self, duration: float, fn: Callable[[Any], Any], arg: Any) -> None:
        """Callback form of :meth:`use`: hold the resource for
        ``duration``, release it, then call ``fn(arg)``.

        Schedules the heap entries ``use()`` schedules, at the same
        ``(time, seq)`` positions: one entry at the end of the hold when
        the resource is free, and when it is contended a grant through
        the FIFO request queue followed by that hold."""
        if self._in_use < self.capacity and not self._queue:
            if _engine.access_hook is not None:
                _engine.access_hook(id(self), f"res:{self.name}", "w")
            self._in_use += 1
            self.sim.schedule_callback(duration, self._release_then, fn, arg)
            return
        request = self.request()
        request.callbacks.append(partial(self._granted_then, duration, fn, arg))

    def _granted_then(self, duration: float, fn, arg, request: Event) -> None:
        self.sim.schedule_callback(
            duration, self._release_request_then, request, fn, arg
        )

    def _release_then(self, fn, arg) -> None:
        self._release_held()
        fn(arg)

    def _release_request_then(self, request: Event, fn, arg) -> None:
        self.release(request)
        fn(arg)
