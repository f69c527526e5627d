"""Fig. 8(c)/(d): end-to-end tuple latency CDFs (local / remote).

Paper's shape: latency shrinks with the Typhoon I/O batch size; with
batches smaller than 500, Typhoon's latency is below Storm's.
"""

import pytest

from repro.bench import fig8cd_latency

from conftest import run_once, show
from figure_golden import check_golden

#: The local run is reused by the remote test's remote-vs-local check —
#: computed once per pytest run.
_cache = {}


def _local():
    if "local" not in _cache:
        _cache["local"] = fig8cd_latency(True)
    return _cache["local"]


def _assert_shape(result):
    scalars = result.scalars
    storm = scalars["storm_p50_ms"]
    batches = {batch: scalars["typhoon(%d)_p50_ms" % batch]
               for batch in (100, 250, 500, 1000)}
    # Latency becomes smaller as the batch size decreases.
    assert batches[100] <= batches[250] <= batches[1000]
    assert batches[100] < batches[1000]
    # Batch sizes below 500 beat Storm; the largest batch does not.
    assert batches[100] < storm
    assert batches[250] < storm
    assert batches[1000] > storm
    # Everything is in the paper's millisecond regime (< 20 ms median).
    for value in list(batches.values()) + [storm]:
        assert 0 < value < 20.0


def test_fig8c_latency_local(benchmark):
    result = run_once(benchmark, _local)
    show(result)
    check_golden("fig8c", result)
    _assert_shape(result)


def test_fig8d_latency_remote(benchmark):
    result = run_once(benchmark, fig8cd_latency, False)
    show(result)
    check_golden("fig8d", result)
    _assert_shape(result)
    # Remote adds network latency: remote medians exceed local ones.
    local = _local()
    assert (result.scalars["typhoon(100)_p50_ms"]
            >= local.scalars["typhoon(100)_p50_ms"])
