"""Unit tests for simulation primitives (queues, semaphores, pipes)."""

import pytest

from repro.sim import Mutex, Notify, Queue, RatePipe, Semaphore, SimError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestQueue:
    def test_put_then_get(self, sim):
        q = Queue(sim)
        q.put("x")

        def proc():
            item = yield q.get()
            return item

        assert sim.run_process(proc()) == "x"

    def test_get_blocks_until_put(self, sim):
        q = Queue(sim)

        def getter():
            item = yield q.get()
            return (sim.now, item)

        def putter():
            yield sim.timeout(50)
            q.put("late")

        sim.process(putter())
        assert sim.run_process(getter()) == (50, "late")

    def test_fifo_order_items(self, sim):
        q = Queue(sim)
        for i in range(5):
            q.put(i)

        def proc():
            out = []
            for _ in range(5):
                out.append((yield q.get()))
            return out

        assert sim.run_process(proc()) == [0, 1, 2, 3, 4]

    def test_fifo_order_getters(self, sim):
        q = Queue(sim)
        results = []

        def getter(name):
            item = yield q.get()
            results.append((name, item))

        sim.process(getter("first"))
        sim.process(getter("second"))

        def putter():
            yield sim.timeout(1)
            q.put("a")
            q.put("b")

        sim.process(putter())
        sim.run()
        assert results == [("first", "a"), ("second", "b")]

    def test_try_get(self, sim):
        q = Queue(sim)
        assert q.try_get() == (False, None)
        q.put(7)
        assert q.try_get() == (True, 7)
        assert len(q) == 0


class TestSemaphore:
    def test_acquire_release(self, sim):
        sem = Semaphore(sim, 2)

        def proc():
            yield sem.acquire()
            yield sem.acquire()
            assert sem.value == 0
            sem.release()
            return sem.value

        assert sim.run_process(proc()) == 1

    def test_blocks_at_zero(self, sim):
        sem = Semaphore(sim, 1)
        log = []

        def holder():
            yield sem.acquire()
            yield sim.timeout(100)
            sem.release()

        def waiter():
            yield sem.acquire()
            log.append(sim.now)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert log == [100]

    def test_negative_initial_value_rejected(self, sim):
        with pytest.raises(SimError):
            Semaphore(sim, -1)

    def test_try_acquire(self, sim):
        sem = Semaphore(sim, 1)
        assert sem.try_acquire()
        assert not sem.try_acquire()
        sem.release()
        assert sem.try_acquire()

    def test_fifo_wakeup(self, sim):
        sem = Semaphore(sim, 0)
        order = []

        def waiter(name):
            yield sem.acquire()
            order.append(name)

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.process(waiter("c"))

        def releaser():
            yield sim.timeout(1)
            for _ in range(3):
                sem.release()

        sim.process(releaser())
        sim.run()
        assert order == ["a", "b", "c"]


class TestMutex:
    def test_critical_section_serializes(self, sim):
        mutex = Mutex(sim)
        spans = []

        def proc(name):
            start = sim.now
            yield from mutex.critical_section(100)
            spans.append((name, start, sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        # b cannot finish its critical section before a releases.
        assert spans == [("a", 0, 100), ("b", 0, 200)]

    def test_unlock_of_unheld_mutex_raises(self, sim):
        mutex = Mutex(sim)
        with pytest.raises(SimError, match="not held"):
            mutex.unlock()
        # The failed unlock added no second unit: lockers still queue.
        holds = []

        def proc(name):
            yield mutex.lock()
            holds.append((name, sim.now))
            yield 10
            mutex.unlock()

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        assert holds == [("a", 0), ("b", 10)]
        with pytest.raises(SimError):
            mutex.unlock()

    def test_semaphore_release_still_counts_up(self, sim):
        sem = Semaphore(sim, value=1)
        sem.release()
        assert sem.value == 2


class TestNotify:
    def test_notify_all_wakes_every_waiter(self, sim):
        cond = Notify(sim)
        woken = []

        def waiter(name):
            value = yield cond.wait()
            woken.append((name, value, sim.now))

        sim.process(waiter("x"))
        sim.process(waiter("y"))
        sim.call_at(30, lambda: cond.notify_all("go"))
        sim.run()
        assert woken == [("x", "go", 30), ("y", "go", 30)]

    def test_waiters_registered_after_notify_need_new_notify(self, sim):
        cond = Notify(sim)
        cond.notify_all()
        woken = []

        def waiter():
            yield cond.wait()
            woken.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert woken == []  # missed the earlier broadcast


class TestRatePipe:
    def test_single_transfer_duration(self, sim):
        pipe = RatePipe(sim, rate=1.0)  # 1 byte/ns

        def proc():
            yield pipe.transmit(1000)
            return sim.now

        assert sim.run_process(proc()) == 1000

    def test_fifo_serialization(self, sim):
        pipe = RatePipe(sim, rate=2.0)
        done = []

        def sender(name, nbytes):
            yield pipe.transmit(nbytes)
            done.append((name, sim.now))

        sim.process(sender("a", 1000))  # 500 ns
        sim.process(sender("b", 1000))  # queued behind a
        sim.run()
        assert done == [("a", 500), ("b", 1000)]

    def test_extra_ns_overhead(self, sim):
        pipe = RatePipe(sim, rate=1.0)

        def proc():
            yield pipe.transmit(100, extra_ns=50)
            return sim.now

        assert sim.run_process(proc()) == 150

    def test_idle_pipe_starts_immediately(self, sim):
        pipe = RatePipe(sim, rate=1.0)

        def proc():
            yield sim.timeout(500)
            yield pipe.transmit(100)
            return sim.now

        assert sim.run_process(proc()) == 600

    def test_occupy(self, sim):
        pipe = RatePipe(sim, rate=1.0)

        def proc():
            yield pipe.occupy(42)
            return sim.now

        assert sim.run_process(proc()) == 42

    def test_rejects_bad_rate(self, sim):
        with pytest.raises(SimError):
            RatePipe(sim, rate=0)

    def test_total_units_accounting(self, sim):
        pipe = RatePipe(sim, rate=1.0)

        def proc():
            yield pipe.transmit(100)
            yield pipe.transmit(200)

        sim.run_process(proc())
        assert pipe.total_units == 300
