"""Figure golden: the committed scalars of the paper's figures.

``tests/golden/figures.json`` holds, per figure, the scalars its
experiment returns at seed 0 (the numbers ``repro experiment <name>``
prints), in the canonical JSON of ``tests/test_fixed_seed_digests.py``.
The latency figures' scalars are only the CDF medians, so their entries
also hold each latency CDF's points (``<series>_cdf``).
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

#: Figure name (as ``repro experiment`` spells it) -> the experiment
#: run whose scalars the golden locks.
FIGURES: Dict[str, Callable[[], Any]] = {
    "fig8a": fig8a_forwarding,
    "fig8b": fig8b_forwarding_ack,
    "fig8c": lambda: fig8cd_latency(True),
    "fig8d": lambda: fig8cd_latency(False),
    "fig9": lambda: fig9_broadcast(FIG9_SINKS),
}

#: Figures whose entries also lock every latency CDF's points.
CDF_FIGURES = ("fig8c", "fig8d")


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def locked(name: str, result) -> Dict[str, Any]:
    """What the golden entry ``name`` holds of one experiment run."""
    value: Dict[str, Any] = dict(result.scalars)
    if name in CDF_FIGURES:
        for series in result.series.values():
            value["%s_cdf" % series.name.lower()] = series.points
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
        print("%-8s %s" % (name, found or "unchanged"))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
