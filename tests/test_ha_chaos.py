"""Controller-HA chaos regimes (``repro chaos --ha``).

The acceptance property: on a replicated control plane, the three HA
regimes — leader kill mid Fig. 6 update, kill of the freshly promoted
successor, leader/store partition with a stale-master probe — must
converge back to a single master with zero rule divergence, complete
fencing, conserved delivery accounting and a bounded, seed-deterministic
blackout. Plus the CLI surface around it.
"""

import io

import pytest

from repro.cli import main
from repro.core.chaos import (
    HA_REGIMES,
    I_HA_BLACKOUT,
    I_HA_CONVERGENCE,
    I_HA_DIVERGENCE,
    I_HA_FENCING,
    run_chaos,
)


@pytest.mark.parametrize("seed", [0, 1])
def test_ha_regimes_pass_all_invariants(seed):
    result = run_chaos(seed=seed, rate=800.0, mode="ha", duration=20.0)
    assert result.ok, result.render()
    for name in (I_HA_CONVERGENCE, I_HA_DIVERGENCE, I_HA_FENCING,
                 I_HA_BLACKOUT):
        assert result.invariants.result(name).status == "PASS", name
    ha = result.ha
    # All three regimes fired; each schedule entry names one.
    assert [spec.kind for spec in result.schedule.specs] \
        == list(HA_REGIMES)
    assert result.plan.unresolved == []
    # Zero divergence, everything reconciled, fencing saw the probe.
    assert ha["rule_divergence"]["total"] == 0
    assert ha["blackout"]["unreconciled"] == 0
    assert ha["blackout"]["failovers"] >= 4
    assert 0.0 < ha["blackout"]["max_blackout_ms"] \
        <= ha["blackout"]["budget_ms"]
    assert ha["probes"] == 1
    assert ha["fencing"]["switch_rejections"] >= 1
    assert ha["fencing"]["replica_fenced"] >= 1
    # No stale-master FlowMod reached any flow table: every switch ended
    # mastered by the final leader at the final generation.
    for dpid, stats in ha["switches"].items():
        assert stats["master"] == ha["leader"], dpid
        assert stats["master_generation"] == ha["generation"], dpid
        assert stats["pending_controller"] == 0, dpid


def test_ha_run_is_seed_deterministic():
    first = run_chaos(seed=0, rate=800.0, mode="ha", duration=20.0)
    second = run_chaos(seed=0, rate=800.0, mode="ha", duration=20.0)
    assert first.render() == second.render()
    assert first.ha["failovers_detail"] == second.ha["failovers_detail"]
    assert (first.invariants.conservation.to_dict()
            == second.invariants.conservation.to_dict())


def test_ha_runs_differ_across_seeds():
    renders = {run_chaos(seed=seed, rate=800.0, mode="ha",
                         duration=20.0).render()
               for seed in (0, 1)}
    assert len(renders) == 2


def test_cli_chaos_ha_reports_and_passes():
    out = io.StringIO()
    code = main(["chaos", "--ha", "--seed", "0", "--duration", "16",
                 "--rate", "800"], out=out)
    text = out.getvalue()
    assert code == 0, text
    assert "ha summary" in text
    assert "rule_divergence=0" in text
    assert "[FAIL]" not in text


@pytest.mark.parametrize("flag", ["--ha", "--exactly-once"])
def test_cli_chaos_ha_requires_typhoon(flag):
    out = io.StringIO()
    code = main(["chaos", flag, "--system", "storm"], out=out)
    assert code == 2
    assert "typhoon" in out.getvalue()


@pytest.mark.parametrize("mode", ["exactly-once", "ha"])
def test_typhoon_only_modes_reject_storm(mode):
    with pytest.raises(ValueError, match="typhoon"):
        run_chaos(system="storm", mode=mode)


@pytest.mark.parametrize("flags", [("--acked", "--ha"),
                                   ("--acked", "--exactly-once"),
                                   ("--ha", "--exactly-once")])
def test_cli_chaos_mode_flags_are_mutually_exclusive(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["chaos", "--seed", "0", *flags], out=io.StringIO())
    assert exit_info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
