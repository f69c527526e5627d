"""Unit tests for seeding and the cost model."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import CostModel, DEFAULT_COSTS, SeedFactory, as_factory, derive_seed
from repro.sim.costs import CostFold, transmission_delay


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_named_streams_independent():
    factory = SeedFactory(42)
    first = factory.rng("gen")
    second = factory.rng("routing")
    a = [first.random() for _ in range(5)]
    b = [second.random() for _ in range(5)]
    assert a != b
    # Re-creating the same name reproduces the stream.
    again = factory.rng("gen")
    assert [again.random() for _ in range(5)] == a


def test_child_factories_do_not_collide():
    root = SeedFactory(7)
    child_a = root.child("x")
    child_b = root.child("y")
    assert child_a.rng("n").random() != child_b.rng("n").random()


def test_as_factory_coercion():
    factory = SeedFactory(3)
    assert as_factory(factory) is factory
    assert as_factory(5).root_seed == 5
    assert as_factory(None).root_seed == 0


def test_cost_model_scaled_copy():
    scaled = DEFAULT_COSTS.scaled(serialize_per_tuple=1.0)
    assert scaled.serialize_per_tuple == 1.0
    assert DEFAULT_COSTS.serialize_per_tuple != 1.0
    assert scaled.heartbeat_timeout == DEFAULT_COSTS.heartbeat_timeout


def test_cost_model_all_costs_nonnegative():
    for field in dataclasses.fields(CostModel):
        value = getattr(DEFAULT_COSTS, field.name)
        if isinstance(value, (int, float)):
            assert value >= 0, field.name


@pytest.mark.parametrize("interval", [0.0, -1e-3, float("nan")])
def test_non_positive_flush_interval_rejected(interval):
    # Zero would re-arm every flusher at one instant forever; a negative
    # interval would schedule flushes in the past.
    with pytest.raises(ValueError):
        DEFAULT_COSTS.scaled(batch_flush_interval=interval)
    with pytest.raises(ValueError):
        CostModel(batch_flush_interval=interval)


def test_transmission_delay_local_vs_remote():
    local = transmission_delay(DEFAULT_COSTS, 1000, remote=False)
    remote = transmission_delay(DEFAULT_COSTS, 1000, remote=True)
    assert local == DEFAULT_COSTS.loopback_latency
    assert remote > local


def test_transmission_delay_scales_with_size():
    small = transmission_delay(DEFAULT_COSTS, 100, remote=True)
    large = transmission_delay(DEFAULT_COSTS, 1_000_000, remote=True)
    assert large > small


def _loop(cost, steps, n):
    for _ in range(n):
        for step in steps:
            cost += step
    return cost


#: Non-negative steps: zero, subnormals, the cost model's own terms
#: (whose sums round, so their order shows) and values large enough to
#: overflow a long run.
_STEPS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 0.1, 0.2,
                     DEFAULT_COSTS.app_compute_per_tuple,
                     DEFAULT_COSTS.serialize_per_tuple
                     + 31 * DEFAULT_COSTS.serialize_per_byte
                     + DEFAULT_COSTS.typhoon_enqueue_per_tuple,
                     DEFAULT_COSTS.deserialize_per_tuple
                     + 31 * DEFAULT_COSTS.deserialize_per_byte,
                     1e300, 1.7976931348623157e308]))
_STARTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(_STARTS, st.lists(_STEPS, min_size=1, max_size=2),
       st.integers(0, 1000), _STARTS, st.integers(0, 1000))
def test_cost_fold_is_the_loop(start, steps, n, other, m):
    """The fold returns the loop's float bit for bit, answered by the
    loop and then by the memo; another start or count in between
    replaces the one memo entry, and a zero result is never served from
    it."""
    steps = tuple(steps)
    fold = CostFold()
    for begin, count in ((start, n), (start, n), (start, m), (other, n),
                         (start, n)):
        assert fold(begin, steps, count).hex() \
            == _loop(begin, steps, count).hex()
    assert fold.hits + fold.misses == 5
    assert fold.hits >= (1 if _loop(start, steps, n) else 0)


def test_cost_fold_keeps_the_addition_order():
    """Float addition does not associate: each repetition adds the steps
    in their order."""
    assert CostFold()(0.3, (0.1, 0.2), 1) == 0.6000000000000001
    assert CostFold()(0.3, (0.2, 0.1), 1) == 0.6


def test_cost_fold_keeps_the_sign_of_zero():
    """``0.0 == -0.0``, so a memo keyed on a zero start would hand one
    sign's answer to the other; zero results are not memoized."""
    fold = CostFold()
    for start, steps, n in ((0.0, (0.0,), 3), (-0.0, (-0.0,), 3),
                            (0.0, (0.0, 0.0), 0), (-0.0, (0.0, 0.0), 0),
                            (-0.0, (-0.0, -0.0), 2)):
        assert fold(start, steps, n).hex() == _loop(start, steps, n).hex()
    assert fold.hits == 0
