"""Command-line interface (the CLI box in Figs. 1 and 3).

Usage::

    python -m repro list-experiments
    python -m repro experiment fig9 [--seed N]
    python -m repro wordcount [--rate R] [--duration S] [--hosts H]
                              [--system typhoon|storm]

``experiment`` regenerates one of the paper's figures/tables and prints
the same rows/series the benchmark harness reports; ``wordcount`` runs
the Fig. 2 pipeline end to end and prints a topology summary; ``audit``
runs a scenario, quiesces the cluster and prints the per-layer tuple
conservation table (exit status 1 if any tuple is unaccounted for);
``chaos`` runs a seeded fault scenario and checks the chaos invariants
(exit status 1 on any violation); at most one mode flag picks the
regime: ``--acked`` (the full reliability stack, zero permanently-lost
roots), ``--exactly-once`` (the actively replicated workload, zero lost
and zero duplicate committed tuples) or ``--ha`` (a replicated control
plane, four more HA invariants);
``trace`` runs the Fig. 8 forwarding workload with hop-by-hop tracing
enabled and prints the per-hop latency breakdown, verifying that every
sampled tuple's hop segments sum exactly to the end-to-end latency the
metrics registry recorded for it (exit status 1 on any mismatch);
``bench`` runs the congested scheduling scenario (two skewed pipelines
over bandwidth-limited links) under the naive and the resource-aware
scheduler and writes ``BENCH_sched.json`` (exit status 1 if
resource-aware placement loses to naive on throughput or p99).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict, List, Optional

from . import bench
from .core import TyphoonCluster
from .sim import Engine
from .streaming import StormCluster, TopologyConfig
from .workloads import word_count_topology

#: Experiment registry: name -> zero/one-arg callable returning a result.
EXPERIMENTS: Dict[str, Callable] = {
    "fig8a": bench.fig8a_forwarding,
    "fig8b": bench.fig8b_forwarding_ack,
    "fig8c": lambda seed=0: bench.fig8cd_latency(True, seed),
    "fig8d": lambda seed=0: bench.fig8cd_latency(False, seed),
    "fig9": lambda seed=0: bench.fig9_broadcast(seed=seed),
    "fig10-storm": lambda seed=0: bench.fig10_fault("storm", seed),
    "fig10-typhoon": lambda seed=0: bench.fig10_fault("typhoon", seed),
    "fig11-storm": lambda seed=0: bench.fig11_autoscale("storm", seed),
    "fig11-typhoon": lambda seed=0: bench.fig11_autoscale("typhoon", seed),
    "fig12-storm": lambda seed=0: bench.fig12_debug("storm", seed),
    "fig12-typhoon": lambda seed=0: bench.fig12_debug("typhoon", seed),
    "fig14": bench.fig14_reconfig,
    "table5": lambda seed=0: bench.table5_debugger(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Typhoon (CoNEXT'17) reproduction command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-experiments",
                        help="list reproducible figures/tables")

    experiment = commands.add_parser(
        "experiment", help="regenerate one evaluation figure/table")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--seed", type=int, default=0)

    wordcount = commands.add_parser(
        "wordcount", help="run the word-count pipeline end to end")
    wordcount.add_argument("--system", choices=("typhoon", "storm"),
                           default="typhoon")
    wordcount.add_argument("--rate", type=float, default=5000.0,
                           help="sentences/second")
    wordcount.add_argument("--duration", type=float, default=30.0,
                           help="virtual seconds to run")
    wordcount.add_argument("--hosts", type=int, default=3)
    wordcount.add_argument("--splits", type=int, default=2)
    wordcount.add_argument("--counts", type=int, default=4)
    wordcount.add_argument("--seed", type=int, default=0)

    audit = commands.add_parser(
        "audit",
        help="run a scenario and print the tuple-conservation table")
    audit.add_argument("--system", choices=("typhoon", "storm"),
                       default="typhoon")
    audit.add_argument("--rate", type=float, default=2000.0,
                       help="sentences/second")
    audit.add_argument("--duration", type=float, default=20.0,
                       help="virtual seconds to run before auditing")
    audit.add_argument("--hosts", type=int, default=3)
    audit.add_argument("--splits", type=int, default=2)
    audit.add_argument("--counts", type=int, default=4)
    audit.add_argument("--fault-time", type=float, default=None,
                       help="crash one split worker at this virtual time "
                            "(the Fig. 10 failure)")
    audit.add_argument("--settle", type=float, default=2.0,
                       help="drain time after deactivation")
    audit.add_argument("--seed", type=int, default=0)

    chaos = commands.add_parser(
        "chaos",
        help="run a seeded fault scenario and check the chaos invariants")
    chaos.add_argument("--system", choices=("typhoon", "storm", "both"),
                       default="typhoon")
    chaos.add_argument("--seed", type=int, default=0,
                       help="scenario seed (same seed => identical report)")
    chaos.add_argument("--hosts", type=int, default=3)
    chaos.add_argument("--duration", type=float, default=16.0,
                       help="virtual seconds of faulted run")
    chaos.add_argument("--faults", type=int, default=6,
                       help="number of injected faults")
    chaos.add_argument("--rate", type=float, default=1500.0,
                       help="tuples/second from the chaos source")
    modes = chaos.add_mutually_exclusive_group()
    modes.add_argument("--acked", dest="mode", action="store_const",
                       const="acked",
                       help="enable the reliability stack (acking + replay "
                            "+ checkpointing + reliable control) and require "
                            "zero permanently-lost roots")
    modes.add_argument("--exactly-once", dest="mode", action="store_const",
                       const="exactly-once",
                       help="run the actively-replicated workload under "
                            "targeted fault regimes (replica/leader kills, "
                            "broadcast flap, controller outage) and require "
                            "zero lost and zero duplicate committed tuples "
                            "(typhoon only)")
    modes.add_argument("--ha", dest="mode", action="store_const",
                       const="ha",
                       help="run with a replicated control plane (3 "
                            "controller instances, leader election) under "
                            "three fixed HA regimes (leader kill "
                            "mid-update, successor kill, leader/store "
                            "partition; --faults does not apply) and "
                            "require single-master convergence, zero rule "
                            "divergence, complete stale-master fencing and "
                            "bounded failover blackout (typhoon only)")
    chaos.set_defaults(mode="best-effort")

    trace = commands.add_parser(
        "trace",
        help="trace the forwarding workload hop by hop and print the "
             "per-hop latency breakdown")
    trace.add_argument("--seed", type=int, default=0,
                       help="same seed => byte-identical breakdown")
    trace.add_argument("--sample-every", type=int, default=7,
                       help="sample 1 in N tuples (0 disables tracing)")
    trace.add_argument("--rate", type=float, default=50_000.0,
                       help="tuples/second from the forwarding source")
    trace.add_argument("--duration", type=float, default=0.5,
                       help="virtual seconds of traced traffic")
    trace.add_argument("--hosts", type=int, default=2)

    bench_cmd = commands.add_parser(
        "bench",
        help="congested-scenario scheduling benchmark (resource-aware vs "
             "naive placement, SDN bandwidth allocation)")
    bench_cmd.add_argument("--seed", type=int, default=0)
    bench_cmd.add_argument("--output", default="BENCH_sched.json",
                           metavar="PATH",
                           help="where to write the JSON report")
    return parser


def cmd_list_experiments(out=sys.stdout) -> int:
    for name in sorted(EXPERIMENTS):
        out.write("%s\n" % name)
    return 0


def cmd_experiment(name: str, seed: int, out=sys.stdout) -> int:
    result = EXPERIMENTS[name](seed)
    out.write(result.render())
    out.write("\n")
    return 0


def cmd_wordcount(system: str, rate: float, duration: float, hosts: int,
                  splits: int, counts: int, seed: int,
                  out=sys.stdout) -> int:
    engine = Engine()
    cluster_class = TyphoonCluster if system == "typhoon" else StormCluster
    cluster = cluster_class(engine, num_hosts=hosts, seed=seed)
    config = TopologyConfig(batch_size=100, max_spout_rate=rate)
    physical = cluster.submit(word_count_topology(
        "wc", config, splits=splits, counts=counts))
    engine.run(until=duration)
    out.write("system: %s\n" % system)
    out.write("workers: %d across %s\n"
              % (len(physical.assignments), ", ".join(physical.hosts())))
    for component in ("source", "split", "count"):
        executors = cluster.executors_for("wc", component)
        total = sum(e.stats.processed if component != "source"
                    else e.stats.emitted for e in executors)
        out.write("%-8s workers=%d tuples=%d\n"
                  % (component, len(executors), total))
    return 0


def cmd_audit(system: str, rate: float, duration: float, hosts: int,
              splits: int, counts: int, fault_time: Optional[float],
              settle: float, seed: int, out=sys.stdout) -> int:
    from .core.audit import verify_conservation

    engine = Engine()
    cluster_class = TyphoonCluster if system == "typhoon" else StormCluster
    cluster = cluster_class(engine, num_hosts=hosts, seed=seed)
    config = TopologyConfig(batch_size=100, max_spout_rate=rate)
    cluster.submit(word_count_topology(
        "wc", config, splits=splits, counts=counts, fault_time=fault_time))
    engine.run(until=duration)
    report = verify_conservation(cluster, settle=settle, strict=False)
    out.write("system: %s\n" % system)
    out.write(report.render())
    out.write("\n")
    return 0 if report.ok else 1


def cmd_chaos(system: str, seed: int, hosts: int, duration: float,
              faults: int, rate: float, mode: str = "best-effort",
              out=sys.stdout) -> int:
    from .core.chaos import regime_for, run_chaos

    systems = ("typhoon", "storm") if system == "both" else (system,)
    try:
        for name in systems:
            regime_for(name, mode)
    except ValueError as error:
        out.write("%s\n" % error)
        return 2
    results = [run_chaos(name, seed, hosts, duration, faults, rate, mode)
               for name in systems]
    out.write("\n".join(result.render() + "\n" for result in results))
    return 0 if all(result.ok for result in results) else 1


def cmd_trace(seed: int, sample_every: int, rate: float, duration: float,
              hosts: int, out=sys.stdout) -> int:
    from .core.tracing import run_forwarding_trace

    report, tracer, cluster = run_forwarding_trace(
        seed=seed, sample_every=sample_every, rate=rate,
        duration=duration, hosts=hosts)
    out.write(report.render())
    out.write("\n")
    if sample_every == 0:
        # Disabled tracing must be a true no-op: no spans recorded.
        ok = tracer.span_events == 0 and not tracer.traces
        out.write("tracing disabled: %s (span events=%d)\n"
                  % ("OK" if ok else "FAIL", tracer.span_events))
        return 0 if ok else 1
    if report.delivered == 0:
        out.write("hop-sum identity: FAIL (no delivered sampled tuples)\n")
        return 1
    dist = cluster.metrics.distribution("trace.e2e")
    # Per-tuple: each delivered branch's hop segments re-sum exactly to
    # the latency stored at delivery time (same fsum over the same walls).
    per_branch_ok = all(
        math.fsum(wall for _hop, wall, _cost, _event
                  in trace.segments(branch)) == e2e
        for trace in tracer.traces.values()
        for branch, e2e in trace.delivered_branches.items())
    # Aggregate: the report and the metrics registry hold the same e2e
    # sample multiset, and their fsum-based totals agree to the last bit.
    multiset_ok = sorted(report.e2e_values()) == sorted(dist.samples())
    total_ok = report.e2e_sum == dist.total()
    ok = per_branch_ok and multiset_ok and total_ok
    out.write("hop-sum identity vs metrics trace.e2e: %s "
              "(%d deliveries, per-tuple=%s multiset=%s total=%s)\n"
              % ("OK" if ok else "FAIL", report.e2e_count,
                 per_branch_ok, multiset_ok, total_ok))
    return 0 if ok else 1


def cmd_bench(seed: int, output: str, out=sys.stdout) -> int:
    from .bench.harness import write_json_report
    from .bench.sched import check_gates, render_report, run_sched_bench

    result = run_sched_bench(seed=seed)
    out.write(render_report(result))
    out.write("\n")
    write_json_report(result, output)
    out.write("wrote %s\n" % output)
    failures = check_gates(result)
    for failure in failures:
        out.write("GATE FAIL: %s\n" % failure)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-experiments":
        return cmd_list_experiments(out)
    if args.command == "experiment":
        return cmd_experiment(args.name, args.seed, out)
    if args.command == "wordcount":
        return cmd_wordcount(args.system, args.rate, args.duration,
                             args.hosts, args.splits, args.counts,
                             args.seed, out)
    if args.command == "audit":
        return cmd_audit(args.system, args.rate, args.duration, args.hosts,
                         args.splits, args.counts, args.fault_time,
                         args.settle, args.seed, out)
    if args.command == "chaos":
        return cmd_chaos(args.system, args.seed, args.hosts, args.duration,
                         args.faults, args.rate, args.mode, out)
    if args.command == "trace":
        return cmd_trace(args.seed, args.sample_every, args.rate,
                         args.duration, args.hosts, out)
    if args.command == "bench":
        return cmd_bench(args.seed, args.output, out)
    return 2
