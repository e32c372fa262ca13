"""Unit tests for Store and Resource."""

import random

import pytest

from repro.sim import Resource, Simulator, SimulationError, Store, engine


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)

        def proc():
            yield store.put("x")
            item = yield store.get()
            return item

        p = sim.process(proc())
        sim.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)

        def getter():
            item = yield store.get()
            return (sim.now, item)

        def putter():
            yield sim.timeout(30.0)
            yield store.put("late")

        p = sim.process(getter())
        sim.process(putter())
        sim.run()
        assert p.value == (30.0, "late")

    def test_put_blocks_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=1)

        def producer():
            yield store.put(1)
            t_before = sim.now
            yield store.put(2)  # blocks until the consumer takes item 1
            return (t_before, sim.now)

        def consumer():
            yield sim.timeout(20.0)
            yield store.get()

        p = sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert p.value == (0.0, 20.0)

    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer():
            for i in range(5):
                yield store.put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_try_put_drops_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put("a")
        assert store.try_put("b")
        assert not store.try_put("c")
        assert len(store) == 2

    def test_try_get_empty_returns_none(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None

    def test_try_put_hands_to_waiting_getter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)

        def getter():
            item = yield store.get()
            return item

        p = sim.process(getter())
        sim.run()  # getter is now blocked
        assert store.try_put("direct")
        sim.run()
        assert p.value == "direct"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Store(Simulator(), capacity=0)

    def test_is_full(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        assert not store.is_full
        store.try_put(1)
        assert store.is_full


class TestResource:
    def test_mutual_exclusion(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        spans = []

        def worker(tag):
            req = res.request()
            yield req
            start = sim.now
            yield sim.timeout(10.0)
            res.release(req)
            spans.append((tag, start, sim.now))

        for tag in "ab":
            sim.process(worker(tag))
        sim.run()
        assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0)]

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        ends = []

        def worker():
            req = res.request()
            yield req
            yield sim.timeout(10.0)
            res.release(req)
            ends.append(sim.now)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert ends == [10.0, 10.0, 20.0]

    def test_use_helper(self):
        sim = Simulator()
        res = Resource(sim)

        def worker():
            yield from res.use(5.0)
            return sim.now

        p1 = sim.process(worker())
        p2 = sim.process(worker())
        sim.run()
        assert (p1.value, p2.value) == (5.0, 10.0)

    def test_release_idle_raises(self):
        sim = Simulator()
        res = Resource(sim)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_queued_count(self):
        sim = Simulator()
        res = Resource(sim)

        def holder():
            yield from res.use(100.0)

        def waiter():
            yield from res.use(1.0)

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=50.0)
        assert res.in_use == 1
        assert res.queued == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_use_is_exception_safe(self):
        """If the holder dies mid-use, the resource is released."""
        sim = Simulator()
        res = Resource(sim)

        def dier():
            try:
                yield from res.use(10.0)
            finally:
                pass

        def killer(target):
            yield sim.timeout(5.0)
            target.interrupt()

        def follower():
            yield sim.timeout(6.0)
            yield from res.use(1.0)
            return sim.now

        p = sim.process(dier())
        sim.process(killer(p))
        f = sim.process(follower())
        with pytest.raises(Exception):
            sim.run()  # the Interrupt escapes dier
        sim.run()
        assert f.value == 7.0


class TestContinuations:
    """``Store.get_then`` / ``Resource.use_then`` schedule exactly the
    heap entries ``get()`` / ``use()`` schedule: a consumer written as a
    callback machine leaves the same timeline as the same consumer
    written as a process."""

    COSTS = (2.0, 3.0, 1.0, 4.0)

    def _world(self, machine, seed):
        rng = random.Random(seed)
        sim = Simulator()
        store = Store(sim, capacity=3, name="fifo")
        res = Resource(sim, name="cpu")
        log = []

        def producer():
            for i in range(40):
                gap = rng.choice((0.0, 0.0, 1.0, 2.0, 7.0))
                if gap:
                    yield sim.timeout(gap)
                if i % 3:
                    if not store.try_put(i):
                        log.append(("drop", sim.now, i))
                else:
                    yield store.put(i)  # blocks while the store is full

        def rival():
            # Holds the resource on integer boundaries, so it ties with
            # (and contends against) the consumer's steps.
            for hold in range(25):
                yield sim.timeout(float(rng.choice((1, 2, 3))))
                yield from res.use(float(hold % 4 + 1))
                log.append(("rival", sim.now))

        costs = self.COSTS
        if machine == "process":

            def consumer():
                while True:
                    item = yield store.get()
                    yield from res.use(costs[item % 4])
                    log.append(("a", sim.now, item))
                    yield from res.use(costs[(item + 1) % 4])
                    log.append(("b", sim.now, item))

            sim.process(consumer())
        else:

            def on_item(item):
                res.use_then(costs[item % 4], after_a, item)

            def after_a(item):
                log.append(("a", sim.now, item))
                res.use_then(costs[(item + 1) % 4], after_b, item)

            def after_b(item):
                log.append(("b", sim.now, item))
                store.get_then(on_item)

            sim.schedule_callback(0.0, store.get_then, on_item)
        sim.process(producer())
        sim.process(rival())
        times = []
        while sim.peek() != float("inf"):
            times.append(sim.peek())
            sim.step()
        return times, sim.events_processed, log

    @pytest.mark.parametrize("core", ["calendar", "heap"])
    @pytest.mark.parametrize("seed", range(6))
    def test_same_timeline_as_process(self, core, seed):
        with engine.use_core(core):
            process = self._world("process", seed)
            machine = self._world("machine", seed)
        assert machine == process
        assert any(entry[0] == "rival" for entry in machine[2])
        assert sum(entry[0] == "b" for entry in machine[2]) > 10

    def test_use_then_contended_waits_in_fifo_order(self):
        sim = Simulator()
        res = Resource(sim)
        done = []

        def holder():
            yield from res.use(10.0)

        sim.process(holder())
        sim.schedule_callback(1.0, res.use_then, 2.0, done.append, "x")
        sim.schedule_callback(2.0, res.use_then, 3.0, done.append, "y")
        sim.run(until=11.0)
        assert (res.in_use, res.queued, done) == (1, 1, [])
        sim.run()
        assert done == ["x", "y"] and sim.now == 15.0
        assert (res.in_use, res.queued) == (0, 0)

    def test_get_then_blocked_then_handed_an_item(self):
        sim = Simulator()
        store = Store(sim)
        got = []
        store.get_then(lambda item: got.append((sim.now, item)))
        sim.schedule_callback(5.0, store.try_put, "late")
        sim.run()
        assert got == [(5.0, "late")] and len(store) == 0

    def test_get_then_unblocks_a_waiting_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.try_put("first")
        put = store.put("second")
        got = []
        store.get_then(got.append)
        sim.run()
        assert got == ["first"] and put.processed
        assert list(store.items) == ["second"]
