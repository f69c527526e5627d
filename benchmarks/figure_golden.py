"""Figure golden: the committed scalars of the paper's figures.

``tests/golden/figures.json`` holds, per figure, the scalars its
experiment returns at seed 0 (the numbers ``repro experiment <name>``
prints), in the canonical JSON of ``tests/test_fixed_seed_digests.py``.
Every ``repro experiment`` figure has an entry, and so do the two
ablations of ``benchmarks/test_ablation.py``. Where the scalars hold
less than the figure, the entry holds the rest: the latency figures'
scalars are only the CDF medians, so their entries also hold each
latency CDF's points (``<series>_cdf``); Fig. 10-14's hold each
throughput time series' points (``<series>_series``), and Table 5's its
rendered tables (``tables``).
The figure-shape tests compare their one experiment run against it, so
the figures are checked with no extra runs; a change that claims to
leave virtual time alone must leave every scalar unchanged, and a
mismatch names the first diverging field.

After an intended change, review the diff and rewrite the golden::

    PYTHONPATH=src python benchmarks/figure_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict

from repro.bench import (
    fig8a_forwarding,
    fig8b_forwarding_ack,
    fig8cd_latency,
    fig9_broadcast,
    fig10_fault,
    fig11_autoscale,
    fig12_debug,
    fig14_reconfig,
    table5_debugger,
)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tests.test_fixed_seed_digests import (  # noqa: E402
    canonical,
    first_divergence,
)

GOLDEN = ROOT / "tests" / "golden" / "figures.json"

#: Fig. 9's fan-out sweep, shared with its shape test.
FIG9_SINKS = (2, 3, 4, 5, 6)


def _ablation(run_name: str) -> Callable[[], Any]:
    """The ablation run ``run_name`` of ``benchmarks/test_ablation.py``
    (imported on call: that module imports this one)."""
    def run():
        import test_ablation
        return getattr(test_ablation, run_name)()
    return run


#: Figure name (as ``repro experiment`` spells it) -> the experiment
#: run whose scalars the golden locks.
FIGURES: Dict[str, Callable[[], Any]] = {
    "fig8a": fig8a_forwarding,
    "fig8b": fig8b_forwarding_ack,
    "fig8c": lambda: fig8cd_latency(True),
    "fig8d": lambda: fig8cd_latency(False),
    "fig9": lambda: fig9_broadcast(FIG9_SINKS),
    "fig10-storm": lambda: fig10_fault("storm"),
    "fig10-typhoon": lambda: fig10_fault("typhoon"),
    "fig11-storm": lambda: fig11_autoscale("storm"),
    "fig11-typhoon": lambda: fig11_autoscale("typhoon"),
    "fig12-storm": lambda: fig12_debug("storm"),
    "fig12-typhoon": lambda: fig12_debug("typhoon"),
    "fig14": fig14_reconfig,
    "table5": table5_debugger,
    "ablation-batch-size": _ablation("_batch_ablation"),
    "ablation-locality": _ablation("_scheduler_ablation"),
}

#: Figures whose series are latency CDFs; every other figure's series
#: are throughput time series.
CDF_FIGURES = ("fig8c", "fig8d")

#: Figures whose entries also lock their rendered tables.
TABLE_FIGURES = ("table5",)


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def locked(name: str, result) -> Dict[str, Any]:
    """What the golden entry ``name`` holds of one experiment run."""
    value: Dict[str, Any] = dict(result.scalars)
    suffix = "cdf" if name in CDF_FIGURES else "series"
    for series in result.series.values():
        value["%s_%s" % (series.name.lower(), suffix)] = series.points
    if name in TABLE_FIGURES:
        value["tables"] = result.tables
    return canonical(value)


def check_golden(name: str, result) -> None:
    """Fail with the first diverging field when ``result`` differs
    from the golden entry ``name``."""
    golden = load_golden()
    assert name in golden, "%s has no figure golden entry" % name
    found = first_divergence(golden[name], locked(name, result), name)
    assert found is None, found


def main() -> int:
    old = load_golden() if GOLDEN.exists() else {}
    fresh = {name: locked(name, run()) for name, run in FIGURES.items()}
    for name, value in fresh.items():
        found = first_divergence(old.get(name), value, name) \
            if name in old else "%s: new entry" % name
        print("%-19s %s" % (name, found or "unchanged"))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
