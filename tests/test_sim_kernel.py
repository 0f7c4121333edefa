"""Unit tests for the discrete-event simulation kernel."""

import gc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Mutex,
    Process,
    Queue,
    SimError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_succeed_fires_callbacks_with_value(self, sim):
        seen = []
        ev = sim.event()
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed(42)
        sim.run()
        assert seen == [42]

    def test_succeed_twice_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimError):
            ev.succeed()

    def test_callback_on_processed_event_still_runs(self, sim):
        ev = sim.event()
        ev.succeed("late")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["late"]

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimError):
            ev.fail("not an exception")

    def test_delayed_succeed(self, sim):
        ev = sim.event()
        times = []
        ev.add_callback(lambda e: times.append(sim.now))
        ev.succeed(delay=500)
        sim.run()
        assert times == [500]


class TestIntSleep:
    def test_int_sleep_advances_clock(self, sim):
        def proc():
            yield 100
            yield 0
            yield 250
            return sim.now

        assert sim.run_process(proc()) == 350

    def test_int_sleep_takes_the_timeouts_queue_position(self, sim):
        order = []

        def sleeper(name, use_int):
            yield 10 if use_int else sim.timeout(10)
            order.append(name)

        sim.process(sleeper("timeout-first", False))
        sim.process(sleeper("int-second", True))
        sim.process(sleeper("timeout-third", False))
        sim.run()
        assert order == ["timeout-first", "int-second", "timeout-third"]

    def test_interrupt_during_int_sleep(self, sim):
        resumed = []

        def proc(retry):
            try:
                yield 1000
            except Interrupt:
                resumed.append(("interrupted", sim.now))
            yield retry
            resumed.append(("slept", sim.now))
            yield 0
            resumed.append(("again", sim.now))

        # A later, longer sleep ends on time: the stale wake at 1000 is
        # ignored.
        p = sim.process(proc(2000))
        sim.call_at(10, lambda: p.interrupt())
        sim.run()
        assert resumed == [("interrupted", 10), ("slept", 2010),
                           ("again", 2010)]
        assert p.processed and p.ok

    def test_interrupt_during_int_sleep_with_coinciding_wake(self, sim):
        # The new sleep ends exactly when the cut-short one would have:
        # the stale wake goes first and is dropped, the live one resumes
        # the process once, in its own queue position (after a marker
        # queued between the two).
        resumed = []

        def proc():
            try:
                yield 1000
            except Interrupt:
                yield 990
                resumed.append(sim.now)
                yield 0
                resumed.append(sim.now)

        p = sim.process(proc())
        sim.call_at(5, lambda: sim.call_at(
            1000, lambda: resumed.append("marker")))
        sim.call_at(10, lambda: p.interrupt())
        sim.run()
        assert resumed == ["marker", 1000, 1000]
        assert sim.process_wakeups == 4

    def test_served_at_once_get_keeps_its_value(self, sim):
        queue = Queue(sim)
        queue.put("item")
        got = queue.get()
        mutex = Mutex(sim)
        locked = mutex.lock()
        sim.run()
        assert got.processed and got.ok and got.value == "item"
        assert locked.processed and locked.ok


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(100)
            yield sim.timeout(250)
            return sim.now

        assert sim.run_process(proc()) == 350

    def test_zero_timeout_allowed(self, sim):
        def proc():
            yield sim.timeout(0)
            return sim.now

        assert sim.run_process(proc()) == 0

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimError):
            sim.timeout(-1)

    def test_timeout_carries_value(self, sim):
        def proc():
            got = yield sim.timeout(10, value="payload")
            return got

        assert sim.run_process(proc()) == "payload"


class TestProcess:
    def test_return_value_propagates(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_exception_propagates(self, sim):
        def proc():
            yield sim.timeout(1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sim.run_process(proc())

    def test_failed_event_thrown_into_process(self, sim):
        ev = sim.event()

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        ev.fail(RuntimeError("net error"))
        assert sim.run_process(proc()) == "caught net error"

    def test_process_is_waitable_event(self, sim):
        def child():
            yield sim.timeout(100)
            return "child result"

        def parent():
            result = yield sim.process(child())
            return (sim.now, result)

        assert sim.run_process(parent()) == (100, "child result")

    def test_yielding_non_event_is_error(self, sim):
        # An exact int is a sleep; anything else that is not an Event —
        # bools and numpy integers included — is rejected, and so is a
        # negative sleep.
        for bad in ("x", 1.5, None, True, np.int64(5)):
            def proc(bad=bad):
                yield bad

            with pytest.raises(SimError,
                               match="must yield Event instances or int"):
                Simulator().run_process(proc())

        def negative():
            yield -1

        with pytest.raises(SimError, match="negative sleep"):
            sim.run_process(negative())

    def test_rejected_yield_can_be_caught(self, sim):
        def proc():
            try:
                yield "not an event"
            except SimError:
                pass
            yield sim.timeout(5)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert not p.is_alive
        assert p.value == 5

    def test_child_bad_yield_fails_the_child(self, sim):
        def child():
            yield 1.5

        def parent():
            try:
                yield sim.process(child())
            except SimError as exc:
                return f"caught: {exc}"

        assert sim.run_process(parent()).startswith("caught: process")

    def test_negative_sleep_fails_the_process(self, sim):
        def child():
            yield 10
            yield -5

        def parent():
            try:
                yield sim.process(child())
            except SimError:
                return sim.now

        assert sim.run_process(parent()) == 10

    def test_unobserved_process_failure_raises_from_run(self, sim):
        def proc():
            yield sim.timeout(5)
            raise KeyError("lost")

        sim.process(proc())
        with pytest.raises(KeyError):
            sim.run()

    def test_interleaving_is_deterministic(self, sim):
        order = []

        def proc(name, delays):
            for d in delays:
                yield sim.timeout(d)
                order.append((sim.now, name))

        sim.process(proc("a", [10, 10]))
        sim.process(proc("b", [5, 10]))
        sim.run()
        assert order == [(5, "b"), (10, "a"), (15, "b"), (20, "a")]

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []

        def proc(name):
            yield sim.timeout(10)
            order.append(name)

        sim.process(proc("first"))
        sim.process(proc("second"))
        sim.run()
        assert order == ["first", "second"]


def test_finished_process_is_freed_by_refcounting():
    """A finished process holds no reference cycle, so it is reclaimed
    without waiting for the cyclic garbage collector."""
    sim = Simulator()

    def proc():
        yield 5
        yield sim.timeout(1)

    gc.disable()
    try:
        sim.process(proc())
        sim.run()
        assert not [obj for obj in gc.get_objects()
                    if type(obj) is Process and obj.sim is sim]
    finally:
        gc.enable()


class TestInterrupt:
    def test_interrupt_wakes_waiting_process(self, sim):
        forever = sim.event()

        def proc():
            try:
                yield forever
            except Interrupt as intr:
                return ("interrupted", intr.cause, sim.now)

        p = sim.process(proc())
        sim.call_at(77, lambda: p.interrupt("deadline"))
        assert sim.run_process(p_wait(sim, p)) == ("interrupted", "deadline", 77)

    def test_interrupting_finished_process_raises(self, sim):
        def proc():
            yield sim.timeout(1)

        p = sim.process(proc())
        sim.run()
        with pytest.raises(SimError):
            p.interrupt()

    def test_stale_event_after_interrupt_is_ignored(self, sim):
        slow = sim.timeout(1000)

        def proc():
            try:
                yield slow
                return "slow won"
            except Interrupt:
                yield sim.timeout(2000)
                return "resumed after interrupt"

        p = sim.process(proc())
        sim.call_at(10, lambda: p.interrupt())
        sim.run()
        assert p.value == "resumed after interrupt"


def p_wait(sim, proc):
    """Helper process: wait for proc and return its value."""
    result = yield proc
    return result


class TestConditions:
    def test_any_of_returns_first(self, sim):
        def proc():
            fast = sim.timeout(10, value="fast")
            slow = sim.timeout(100, value="slow")
            event, value = yield AnyOf(sim, [fast, slow])
            return (sim.now, value)

        assert sim.run_process(proc()) == (10, "fast")

    def test_all_of_waits_for_all(self, sim):
        def proc():
            values = yield AllOf(
                sim, [sim.timeout(10, "a"), sim.timeout(30, "b"), sim.timeout(20, "c")]
            )
            return (sim.now, values)

        assert sim.run_process(proc()) == (30, ["a", "b", "c"])

    def test_empty_all_of_fires_immediately(self, sim):
        def proc():
            values = yield AllOf(sim, [])
            return values

        assert sim.run_process(proc()) == []

    def test_any_of_failure_propagates(self, sim):
        bad = sim.event()

        def proc():
            yield AnyOf(sim, [sim.timeout(100), bad])

        bad.fail(OSError("link down"))
        with pytest.raises(OSError):
            sim.run_process(proc())


class TestRunUntil:
    def test_run_until_stops_clock(self, sim):
        ticks = []

        def proc():
            while True:
                yield sim.timeout(10)
                ticks.append(sim.now)

        sim.process(proc())
        assert sim.run(until=35) == 35
        assert ticks == [10, 20, 30]

    def test_run_returns_final_time(self, sim):
        def proc():
            yield sim.timeout(123)

        sim.process(proc())
        assert sim.run() == 123

    def test_run_process_detects_deadlock(self, sim):
        def proc():
            yield sim.event()  # nobody ever triggers this

        with pytest.raises(SimError, match="deadlock"):
            sim.run_process(proc())

    def test_call_at(self, sim):
        fired = []
        sim.call_at(42, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42]


# -- same-timestamp FIFO ----------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=15),
                min_size=1, max_size=80))
def test_batched_same_timestamp_dispatch_is_fifo(delays):
    """Callbacks fire in (time, schedule order) — batching a timestamp's
    entries into one bucket must not reorder them."""
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.call_at(delay, lambda d=delay, i=index: fired.append((d, i)))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


def test_mid_batch_same_time_entries_run_after_the_batch():
    """An entry scheduled *during* a batch for the same timestamp runs
    after everything already queued for that timestamp."""
    sim = Simulator()
    fired = []
    sim.call_at(5, lambda: (fired.append("a"),
                            sim.call_soon(lambda: fired.append("late"))))
    sim.call_at(5, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "late"]
    assert sim.now == 5


def test_run_process_preserves_rest_of_final_batch():
    """Entries queued behind the stop event at the same timestamp must
    survive ``run_process`` returning and fire on the next run."""
    sim = Simulator()
    fired = []
    ev = sim.event()

    def other():
        yield sim.timeout(5)
        ev.succeed()

    def sched():
        yield sim.timeout(5)
        sim.call_soon(lambda: sim.call_soon(lambda: fired.append("tail")))

    def main():
        yield ev

    sim.process(other())
    sim.process(sched())
    sim.run_process(main())
    assert fired == []
    assert sim.now == 5
    sim.run()
    assert fired == ["tail"]
    assert sim.now == 5


# -- run(until=...) boundary ------------------------------------------------

def test_run_until_bound_is_exclusive():
    sim = Simulator()
    fired = []
    sim.call_at(10, lambda: fired.append("at10"))
    assert sim.run(until=10) == 10
    assert sim.now == 10
    assert fired == [], "event exactly at the bound must stay queued"
    # A later run picks the boundary event up at the current time.
    assert sim.run(until=11) == 11
    assert fired == ["at10"]


def test_run_until_advances_clock_on_early_drain():
    sim = Simulator()
    sim.call_at(3, lambda: None)
    assert sim.run(until=100) == 100
    assert sim.now == 100


def test_run_until_never_moves_clock_backwards():
    sim = Simulator()
    sim.call_at(7, lambda: None)
    sim.run()
    assert sim.now == 7
    fired = []
    sim.call_at(20, lambda: fired.append("later"))
    assert sim.run(until=5) == 7, "until <= now is a no-op"
    assert fired == []
    sim.run()
    assert fired == ["later"]


# -- int sleeps and pooled events keep the queue order ------------------------

_OPS = st.one_of(
    st.tuples(st.just("sleep"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("timeout"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("soon"), st.just(0)),
    st.tuples(st.just("later"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("get"), st.just(0)),
)


def _run_schedule(scripts, timeouts_only):
    """Run one process per script; log every resumption and callback.

    With ``timeouts_only`` each wait and callback is written with
    ``sim.timeout``: int sleeps and served-at-once ``Queue.get``s as a
    timeout yield, ``call_soon``/``call_later`` as a timeout callback.
    """
    sim = Simulator()
    log = []

    def proc(pid, script):
        queue = Queue(sim)
        for step, (op, delay) in enumerate(script):
            tag = (pid, step)
            if op == "sleep":
                yield sim.timeout(delay) if timeouts_only else delay
            elif op == "timeout":
                yield sim.timeout(delay)
            elif op == "get":
                if timeouts_only:
                    got = yield sim.timeout(0, tag)
                else:
                    queue.put(tag)
                    got = yield queue.get()
                assert got == tag
            else:
                delay = 0 if op == "soon" else delay

                def fire(tag=tag):
                    log.append((sim.now, "callback", tag))

                if timeouts_only:
                    sim.timeout(delay).add_callback(lambda _e, f=fire: f())
                elif op == "soon":
                    sim.call_soon(fire)
                else:
                    sim.call_later(delay, fire)
            log.append((sim.now, "process", tag))

    for pid, script in enumerate(scripts):
        sim.process(proc(pid, script))
    sim.run()
    return log, sim.events_dispatched, sim.process_wakeups


@given(st.lists(st.lists(_OPS, max_size=12), min_size=1, max_size=5))
def test_int_sleeps_dispatch_like_timeouts(scripts):
    """Int sleeps, pooled served-at-once gets and bare callbacks dispatch
    in exactly the order of the same schedule built from timeouts."""
    mixed = _run_schedule(scripts, timeouts_only=False)
    reference = _run_schedule(scripts, timeouts_only=True)
    assert mixed == reference
    assert len(mixed[0]) == sum(
        len(script) + sum(op in ("soon", "later") for op, _ in script)
        for script in scripts)
