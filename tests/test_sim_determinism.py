"""Determinism locks for the event kernel.

The kernel (:class:`repro.sim.engine.Engine`) must execute exactly the
schedule the reference kernel (:class:`repro.bench.legacy.LegacyEngine`)
executes — same callbacks, same order, same clock readings — for any
workload. These tests replay randomized seeded workloads (plain
callbacks, same-time bursts, timers with racing cancellations,
interruptible processes, succeed/fail events with multiple waiters) on
both kernels and assert the execution logs are identical, and pin one
fixed workload's full event order to a committed golden trace so future
scheduler changes cannot silently reorder anything.

The bounded-heap tests lock the lazy-deletion compaction policy: a
cancel/reschedule churn loop must not accumulate dead entries.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.bench.legacy import LegacyEngine
from repro.sim import Engine, Interrupt

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "engine_event_order.txt")


# -- randomized workload script ----------------------------------------------


def _build_script(seed):
    """A deterministic op list; interpreting it never consumes the rng,
    so both kernels see byte-identical workloads."""
    rng = random.Random(seed)
    ops = []
    for i in range(120):
        ops.append(("cb", rng.uniform(0.0, 4.0), "cb%d" % i))
    for i in range(40):
        # Same-timestamp bursts: FIFO among equal deadlines is the
        # property the kernel must preserve.
        ops.append(("cb", rng.choice([0.25, 1.0, 3.0]), "dup%d" % i))
    for i in range(40):
        create_at = rng.uniform(0.0, 3.0)
        duration = rng.uniform(0.0, 2.0)
        cancel_at = rng.uniform(0.0, 4.0) if rng.random() < 0.6 else None
        ops.append(("timer", create_at, duration, cancel_at, "t%d" % i))
    for i in range(25):
        steps = [rng.uniform(0.0, 1.0) for _ in range(rng.randrange(1, 5))]
        interrupt_at = rng.uniform(0.0, 3.0) if rng.random() < 0.4 else None
        ops.append(("proc", steps, interrupt_at, "p%d" % i))
    for i in range(15):
        fire_at = rng.uniform(0.0, 4.0)
        fail = rng.random() < 0.3
        waiters = rng.randrange(1, 4)
        ops.append(("event", fire_at, fail, waiters, "e%d" % i))
    return ops


def _replay(make_engine, script):
    """Run the script; returns [(now, tag), ...] in execution order."""
    eng = make_engine()
    log = []

    def note(tag):
        log.append((eng.now, tag))

    for op in script:
        kind = op[0]
        if kind == "cb":
            _, when, tag = op
            eng.schedule(when, note, tag)
        elif kind == "timer":
            _, create_at, duration, cancel_at, tag = op

            def create(duration=duration, cancel_at=cancel_at, tag=tag):
                timer = eng.timeout(duration)
                timer.add_callback(lambda _ev: note(tag + ".fired"))
                if cancel_at is not None:
                    delay = max(0.0, cancel_at - eng.now)

                    def do_cancel(timer=timer, tag=tag):
                        timer.cancel()
                        note(tag + ".cancel")

                    eng.schedule(delay, do_cancel)

            eng.schedule(create_at, create)
        elif kind == "proc":
            _, steps, interrupt_at, tag = op

            def body(steps=steps, tag=tag):
                try:
                    for j, delay in enumerate(steps):
                        yield delay
                        note("%s.%d" % (tag, j))
                except Interrupt:
                    note(tag + ".interrupted")

            proc = eng.process(body(), name=tag)
            if interrupt_at is not None:

                def do_interrupt(proc=proc, tag=tag):
                    if proc.alive:
                        proc.interrupt(tag)
                    note(tag + ".intreq")

                eng.schedule(interrupt_at, do_interrupt)
        elif kind == "event":
            _, fire_at, fail, waiters, tag = op
            event = eng.event()
            for w in range(waiters):

                def wait_body(event=event, tag=tag, w=w):
                    try:
                        value = yield event
                        note("%s.w%d=%s" % (tag, w, value))
                    except RuntimeError:
                        note("%s.w%d.failed" % (tag, w))

                eng.process(wait_body(), name="%s.w%d" % (tag, w))

            def fire(event=event, fail=fail, tag=tag):
                if fail:
                    event.fail(RuntimeError(tag))
                else:
                    event.succeed(tag)
                note(tag + ".fired")

            eng.schedule(fire_at, fire)
    eng.run()
    return eng.now, log


@pytest.mark.parametrize("seed", range(6))
def test_engine_matches_legacy_event_order(seed):
    script = _build_script(seed)
    legacy_now, legacy_log = _replay(LegacyEngine, script)
    new_now, new_log = _replay(Engine, script)
    assert new_log == legacy_log
    assert new_now == legacy_now


def test_golden_event_order_trace():
    """One fixed workload's full execution order, pinned byte-for-byte.

    Regenerate (only for an intentional, understood schedule change) by
    running this module's ``_regenerate_golden()`` and committing the
    diff.
    """
    _now, log = _replay(Engine, _build_script(2026))
    rendered = _render(log)
    with open(_GOLDEN_PATH, "r", encoding="utf-8") as fh:
        assert fh.read() == rendered


def _render(log):
    return "".join("%r %s\n" % (now, tag) for now, tag in log)


def _regenerate_golden():  # pragma: no cover - maintenance helper
    _now, log = _replay(Engine, _build_script(2026))
    with open(_GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(_render(log))


# -- bounded-heap locks ------------------------------------------------------


def test_cancel_reschedule_churn_stays_bounded():
    """100k cancel/reschedule cycles: lazy deletion must compact, not
    accumulate — the pre-fix kernel kept every cancelled entry queued
    until its deadline surfaced at the heap top."""
    eng = Engine()
    for _ in range(100_000):
        eng.timeout(5.0).cancel()
    fired = []
    keeper = eng.timeout(5.0)
    keeper.add_callback(lambda _ev: fired.append(eng.now))

    stats = eng.stats()
    assert eng.pending_count == 1
    # Dead entries never pile up: the high-water mark stays near the
    # compaction threshold, orders of magnitude below the churn count.
    assert stats["cancelled_high_water"] < 5_000
    assert stats["compactions"] > 0
    # The heap really is small (not just flagged dead).
    assert len(eng._heap) < 5_000

    eng.run()
    assert fired == [5.0]


def test_interleaved_churn_fires_survivors_in_order():
    """Cancel churn interleaved with live timers: every survivor fires,
    in deadline order, with the dead entries swept around them."""
    eng = Engine()
    fired = []
    for i in range(20_000):
        deadline = 1.0 + (i % 97) * 0.01
        timer = eng.timeout(deadline)
        if i % 5 == 0:
            timer.add_callback(
                lambda _ev, i=i: fired.append((eng.now, i)))
        else:
            timer.cancel()
    eng.run()
    assert len(fired) == 4_000
    assert fired == sorted(fired, key=lambda pair: (pair[0], pair[1]))
    assert eng.pending_count == 0
