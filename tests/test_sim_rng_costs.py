"""Unit tests for seeding and the cost model."""

import dataclasses

import pytest

from repro.sim import CostModel, DEFAULT_COSTS, SeedFactory, as_factory, derive_seed
from repro.sim.costs import transmission_delay


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
