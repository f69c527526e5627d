"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Engine, Interrupt, SimulationError
from repro.sim.engine import Event, Timer


def test_clock_starts_at_zero(engine):
    assert engine.now == 0.0


def test_schedule_runs_in_time_order(engine):
    order = []
    engine.schedule(2.0, order.append, "b")
    engine.schedule(1.0, order.append, "a")
    engine.schedule(3.0, order.append, "c")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 3.0


def test_same_time_events_fire_fifo(engine):
    order = []
    for tag in range(5):
        engine.schedule(1.0, order.append, tag)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected(engine):
    with pytest.raises(ValueError):
        engine.schedule(-0.1, lambda: None)


def _process_yielding_nan(engine):
    def proc():
        yield float("nan")

    engine.process(proc())
    engine.run()


@pytest.mark.parametrize("call", [
    lambda engine: engine.schedule(float("nan"), lambda: None),
    lambda engine: engine.schedule_at(float("nan"), lambda: None),
    lambda engine: engine.timeout(float("nan")),
    _process_yielding_nan,
], ids=["schedule", "schedule_at", "timeout", "process-yield"])
def test_nan_time_rejected_and_nothing_queued(engine, call):
    # A NaN compares false with every deadline, so queued it would
    # break the heap's order.
    with pytest.raises(ValueError):
        call(engine)
    assert engine.pending_count == 0


def test_far_future_deadline_does_not_block_run_until(engine):
    engine.timeout(1e16)
    assert engine.run(until=5.0) == 5.0
    assert engine.pending_count == 1


def test_far_future_callback_fires(engine):
    fired = []
    engine.schedule(1e300, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [1e300]


def test_schedule_at_fires_at_the_exact_time(engine):
    engine.run(until=0.2)
    fired = []
    engine.schedule_at(0.9, lambda: fired.append(("at", engine.now)))
    engine.schedule(0.9 - 0.2, lambda: fired.append(("delay", engine.now)))
    engine.run()
    # now + (when - now) misses 0.9 by an ulp; schedule_at does not.
    assert fired == [("delay", 0.8999999999999999), ("at", 0.9)]


def test_schedule_at_rejects_a_past_time(engine):
    engine.run(until=1.0)
    with pytest.raises(ValueError):
        engine.schedule_at(0.999, lambda: None)


def test_schedule_at_keeps_fifo_with_schedule(engine):
    engine.run(until=1.0)
    order = []
    engine.schedule(0.0, order.append, "a")
    engine.schedule_at(1.0, order.append, "b")
    engine.schedule(0.0, order.append, "c")
    engine.schedule_at(1.0, order.append, "d")
    engine.run()
    assert order == ["a", "b", "c", "d"]
    assert engine.now == 1.0


def test_run_until_stops_clock_exactly(engine):
    engine.schedule(5.0, lambda: None)
    engine.run(until=2.5)
    assert engine.now == 2.5
    # The event is still pending and fires on the next run.
    fired = []
    engine.schedule(10.0, fired.append, "late")
    engine.run(until=6.0)
    assert engine.now == 6.0
    assert fired == []


def test_process_sleep_and_return_value(engine):
    def proc():
        yield 1.5
        yield 0.5
        return "done"

    process = engine.process(proc())
    engine.run()
    assert engine.now == 2.0
    assert process.value == "done"
    assert not process.alive


def test_process_waits_on_event(engine):
    gate = engine.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append(value)

    engine.process(waiter())
    engine.schedule(3.0, gate.succeed, 42)
    engine.run()
    assert seen == [42]
    assert engine.now == 3.0


def test_process_waits_on_other_process(engine):
    def child():
        yield 2.0
        return "child-result"

    def parent():
        result = yield engine.process(child())
        return result

    parent_process = engine.process(parent())
    engine.run()
    assert parent_process.value == "child-result"


def test_event_double_trigger_rejected(engine):
    gate = engine.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_late_callback_fires_immediately(engine):
    gate = engine.event()
    gate.succeed("v")
    seen = []
    gate.add_callback(lambda ev: seen.append(ev.value))
    assert seen == ["v"]


def test_timer_cancel(engine):
    fired = []
    timer = Timer(engine, 1.0)
    timer.add_callback(lambda ev: fired.append(True))
    timer.cancel()
    engine.run()
    assert fired == []
    assert not timer.triggered


def test_interrupt_wakes_sleeping_process(engine):
    caught = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt as interrupt:
            caught.append(interrupt.cause)

    process = engine.process(sleeper())
    engine.schedule(1.0, process.interrupt, "stop")
    engine.run()
    assert caught == ["stop"]
    assert engine.now == 1.0


def test_interrupt_finished_process_is_noop(engine):
    def quick():
        yield 0.1

    process = engine.process(quick())
    engine.run()
    process.interrupt("too late")
    engine.run()
    assert process.triggered


def test_uncaught_interrupt_ends_process_cleanly(engine):
    def sleeper():
        yield 100.0

    process = engine.process(sleeper())
    engine.schedule(1.0, process.interrupt, None)
    engine.run()
    assert process.triggered
    assert not process.failed


def test_failed_process_propagates_to_waiter(engine):
    def bad():
        yield 1.0
        raise ValueError("boom")

    def parent():
        try:
            yield engine.process(bad())
        except ValueError as error:
            return "caught:%s" % error

    parent_process = engine.process(parent())
    engine.run()
    assert parent_process.value == "caught:boom"


def test_all_of_collects_values(engine):
    gates = [engine.event() for _ in range(3)]
    done = engine.all_of(gates)
    for index, gate in enumerate(gates):
        engine.schedule(index + 1.0, gate.succeed, index * 10)
    engine.run()
    assert done.triggered
    assert done.value == [0, 10, 20]


def test_all_of_empty_fires_immediately(engine):
    done = engine.all_of([])
    assert done.triggered


def test_all_of_propagates_failure_to_waiter(engine):
    """A failed input must fail the gate — previously the exception was
    silently handed to the waiter as a plain result value."""
    gates = [engine.event() for _ in range(3)]
    caught = []

    def waiter():
        try:
            yield engine.all_of(gates)
        except RuntimeError as error:
            caught.append(str(error))

    engine.process(waiter())
    engine.schedule(1.0, gates[0].succeed, "ok")
    engine.schedule(2.0, gates[1].fail, RuntimeError("boom"))
    engine.run()
    assert caught == ["boom"]


def test_all_of_fails_on_already_failed_input(engine):
    failed = engine.event()
    failed.fail(RuntimeError("early"))
    gate = engine.all_of([failed, engine.event()])
    assert gate.triggered
    assert gate.failed
    assert str(gate.value) == "early"


def test_all_of_ignores_inputs_after_failure(engine):
    gates = [engine.event() for _ in range(3)]
    done = engine.all_of(gates)
    engine.schedule(1.0, gates[1].fail, RuntimeError("first"))
    engine.schedule(2.0, gates[0].succeed, "late-ok")
    engine.schedule(3.0, gates[2].fail, RuntimeError("second"))
    engine.run()
    assert done.failed
    assert str(done.value) == "first"


def test_any_of_failed_winner_fails_gate(engine):
    early, late = engine.event(), engine.event()
    caught = []

    def waiter():
        try:
            yield engine.any_of([early, late])
        except RuntimeError as error:
            caught.append(str(error))

    engine.process(waiter())
    engine.schedule(1.0, early.fail, RuntimeError("lost"))
    engine.schedule(5.0, late.succeed, "second")
    engine.run()
    assert caught == ["lost"]


def test_any_of_fires_on_first(engine):
    early, late = engine.event(), engine.event()
    winner = engine.any_of([early, late])
    engine.schedule(1.0, early.succeed, "first")
    engine.schedule(5.0, late.succeed, "second")
    engine.run()
    assert winner.value is early


def test_stop_engine_from_callback(engine):
    fired = []
    engine.schedule(1.0, fired.append, 1)
    engine.schedule(2.0, engine.stop)
    engine.schedule(3.0, fired.append, 3)
    engine.run()
    assert fired == [1]


def test_process_yields_bad_value_fails(engine):
    def bad():
        yield "not-a-waitable"

    process = engine.process(bad())
    with pytest.raises(SimulationError):
        engine.run()


def test_determinism_two_runs_identical():
    def workload(engine, log):
        def proc(tag):
            for step in range(3):
                yield 0.5 + step * 0.1
                log.append((engine.now, tag, step))

        for tag in ("a", "b", "c"):
            engine.process(proc(tag))
        engine.run()

    first, second = [], []
    workload(Engine(), first)
    workload(Engine(), second)
    assert first == second
