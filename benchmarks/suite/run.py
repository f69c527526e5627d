#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

One workload, one run (the last stdout line is a JSON result)::

    python3 benchmarks/suite/run.py --workload fwd-local --seed 3 \\
        --seconds 10 --trace 0

Every workload, three repeats each in round-robin order, each repeat in
a fresh subprocess; prints every end-to-end metric with its unit::

    python3 benchmarks/suite/run.py --seed 0

``--trace`` (or ``--trace 1``) runs the separate traced pass instead and
prints the per-layer split; ``--quick`` shortens every span tenfold for
a smoke run. Results and ``manifest.json`` files go under ``--out``
(default ``benchmarks/suite/results``). See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import random
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "results"

#: Suite form: untraced repeats per workload (one with ``--quick``).
REPEATS = 3
#: The timed span is run as this many equal slices of virtual time.
CHUNKS = 400
#: Slices of the traced pass, whose wrapper-cost fit works per slice.
#: With 400, the held-out check read 0.95-0.97 on control-churn.
TRACE_CHUNKS = 100
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: End-to-end metrics: name -> unit (BENCHMARK.json holds the bounds).
END_TO_END = {
    "run_wall_s": "s",
    "tuples_per_wall_s": "tuples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_tuples_per_vs": "tuples/vs",
}
#: The corrected layer sum must land this close to the untraced wall.
LAYER_SUM_TOLERANCE = 0.10
#: Share of the traced pass's slices left out at each end of the
#: traced/untraced wall ratio when the wrapper cost is fitted.
TRIM = 0.10
#: Wall seconds :func:`reference_work` takes at the nominal machine
#: speed (a shared 2-core x86-64 VM running CPython 3.11).
#: Wall metrics are reported in seconds at this speed.
REFERENCE_S = 0.0046


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Slot:
    __slots__ = ("key", "count")

    def __init__(self, key: int):
        self.key = key
        self.count = 0


class _Event:
    __slots__ = ("due", "number", "key")

    def __init__(self, due: int, number: int, key: str):
        self.due = due
        self.number = number
        self.key = key


#: The large-working-set half of :func:`reference_work` walks these
#: slots in a shuffled order: several MB, well past the caches.
_POOL = [_Slot(index) for index in range(50000)]
_ORDER = random.Random(7).sample(range(len(_POOL)), len(_POOL))
_FRAME = struct.Struct("!IHd")


def _cache_resident_work() -> int:
    heap: List = []
    counts: Dict[int, int] = {}
    slots = [_Slot(index) for index in range(64)]
    for index in range(3000):
        heapq.heappush(heap, ((index * 7919) % 1000, index))
        slot = slots[index & 63]
        slot.count += slot.key
        counts[index & 255] = counts.get(index & 255, 0) + 1
        if len(heap) > 32:
            heapq.heappop(heap)
    return sum(counts.values())


def _memory_bound_work() -> int:
    heap: List = []
    counts: Dict[str, int] = {}
    frames = bytearray()
    total = 0
    for index in range(1200):
        _POOL[_ORDER[(index * 37) % len(_POOL)]].count += 1
        event = _Event((index * 7919) % 1000, index, "k%d" % (index & 511))
        heapq.heappush(heap, (event.due, index, event))
        counts[event.key] = counts.get(event.key, 0) + 1
        frames += _FRAME.pack(index, index & 0xFFFF, event.due * 0.5)
        if len(heap) > 256:
            total += heapq.heappop(heap)[2].number
        if len(frames) > 4096:
            total += sum(_FRAME.unpack_from(frames, 0)[:2])
            frames = bytearray()
    return total


def reference_work() -> int:
    """A fixed slice of pure-Python work with the simulator's flavour,
    timed after every set-up and every slice of the span. Other tenants
    of a shared machine slow it down by about the same factor as the
    simulation, so a time divided by the reference time next to it is
    steady where the raw time is not. It calls nothing in ``src/``, so
    no change there can move it.

    It has two halves of similar length. One keeps its heap, dict and
    slotted objects in the caches; the other allocates events and packs
    frames while touching a pool of objects far larger than the caches.
    Other tenants' load slows the two halves by different factors, and
    their sum tracked the simulator better than either half alone (see
    README.md)."""
    return _cache_resident_work() + _memory_bound_work()


def timed_reference() -> int:
    start = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - start


# -- one run -----------------------------------------------------------------


def counters(scenario) -> Dict[str, int]:
    """Public counters of the cluster's layers (deltas over the span
    become the per-layer counter metrics)."""
    cluster = scenario.cluster
    engine = cluster.engine.stats()
    transports = list(cluster.transports.values())
    switches = cluster.fabric.switches()
    tunnels = {id(tunnel): tunnel for host in cluster.fabric.hosts.values()
               for tunnel in host.tunnels.values()}
    return {
        "tuples": scenario.sink_processed(),
        "events": engine["events_executed"],
        "heap_ops": engine["heap_pushes"] + engine["heap_pops"],
        "entry_allocs": engine["entry_allocs"],
        "tuples_sent": sum(t.tuples_sent for t in transports),
        "fused_tuples": sum(t.fused_tuples for t in transports),
        "fused_flushes": sum(t.fused_flushes for t in transports),
        "cache_hits": sum(s.cache_hits for s in switches),
        "cache_misses": sum(s.cache_misses for s in switches),
        "switch_trains": sum(s.trains for s in switches),
        "tunnel_bytes": sum(t.total_bytes for t in tunnels.values()),
    }


class Run:
    """One workload run: set-up (repeated), warm-up, then the timed span
    in ``chunks`` slices, then the untimed checks. Each set-up and
    each slice is followed by one timed :func:`reference_work`."""

    def __init__(self, workload, seed: int, seconds: float, tracer=None,
                 chunks: int = CHUNKS):
        from scenarios import WARMUP

        self.workload = workload
        self.tracer = tracer
        self.chunks = chunks
        self.setup_ns: List[int] = []
        self.setup_reference_ns: List[int] = []
        scenario = None
        for _ in range(SETUP_REPEATS):
            scenario = None  # free the previous cluster before timing
            gc.collect()
            start = time.perf_counter_ns()
            scenario = workload.scenario(seed)
            scenario.run_to_first_tuple()
            self.setup_ns.append(time.perf_counter_ns() - start)
            self.setup_reference_ns.append(timed_reference())
        self.scenario = scenario
        self.span = workload.span * seconds / 10.0
        engine = scenario.engine
        self.start = engine.now + WARMUP
        scenario.begin(self.start + self.span)
        engine.run(until=self.start)
        gc.collect()
        scenario.mark_span(True)
        self.before = counters(scenario)
        self.trace_before = tracer.snapshot() if tracer else None
        self.chunk_wall_ns: List[int] = []
        self.chunk_reference_ns: List[int] = []

    def chunk(self):
        """Run the next slice; returns its wall ns and wrapped calls."""
        until = self.start + self.span * (len(self.chunk_wall_ns) + 1) \
            / self.chunks
        engine = self.scenario.engine
        tracer = self.tracer
        if tracer is None:
            start = time.perf_counter_ns()
            engine.run(until=until)
            wall, calls = time.perf_counter_ns() - start, 0
        else:
            before = tracer.wrapped_calls()
            wall = tracer.run_engine(engine, until)
            calls = tracer.wrapped_calls() - before
        self.chunk_wall_ns.append(wall)
        self.chunk_reference_ns.append(timed_reference())
        return wall, calls

    def finish(self) -> Dict:
        scenario = self.scenario
        scenario.mark_span(False)
        after = counters(scenario)
        delta = {key: after[key] - self.before[key] for key in after}
        result = {
            "span_vs": self.span,
            "setup_ns": self.setup_ns,
            "setup_reference_ns": self.setup_reference_ns,
            "chunk_wall_ns": self.chunk_wall_ns,
            "chunk_reference_ns": self.chunk_reference_ns,
            "counters": delta,
        }
        if self.tracer is not None:
            result["trace"] = layers.diff(self.tracer.snapshot(),
                                          self.trace_before)
        checks = scenario.finish()
        if self.tracer is not None:
            missing = self.tracer.coverage_failures(self.workload.name)
            checks.require(not missing, "layer entry points never fired: "
                           + ", ".join(missing))
            result["in_bracket_share"] = layers.in_bracket_share()
        result.update({
            "correct": not checks.problems,
            "problems": checks.problems,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "details": checks.details,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return result


def end_to_end(result: Dict) -> Dict[str, float]:
    """End-to-end metrics of one untraced run.

    Wall times are normalized to the nominal machine speed.
    ``run_wall_s`` is the span's raw wall time divided by the span's
    mean reference time (one reference after every slice), so every
    slice counts in full, including work that lands in a few of them
    (failovers, collector pauses). ``setup_s`` is the median set-up,
    each divided by the reference time measured right after it. The raw
    values are in :func:`raw_walls` and the manifest."""
    references = result["chunk_reference_ns"]
    run_wall = (sum(result["chunk_wall_ns"]) / sum(references)
                * len(references) * REFERENCE_S)
    tuples = result["counters"]["tuples"]
    return {
        "run_wall_s": run_wall,
        "tuples_per_wall_s": tuples / run_wall,
        "setup_s": statistics.median(
            wall / reference * REFERENCE_S for wall, reference
            in zip(result["setup_ns"], result["setup_reference_ns"])),
        "peak_rss_mb": result["peak_rss_mb"],
        "virtual_tuples_per_vs": tuples / result["span_vs"],
    }


def raw_walls(result: Dict) -> Dict[str, float]:
    """Un-normalized wall figures of one run, for the record."""
    return {
        "span_wall_s": sum(result["chunk_wall_ns"]) / 1e9,
        "setup_wall_s": statistics.median(result["setup_ns"]) / 1e9,
        "reference_s": statistics.median(result["chunk_reference_ns"]) / 1e9,
    }


# -- traced pass ---------------------------------------------------------------


class BenchmarkError(RuntimeError):
    pass


def _spawn_worker(args, workload: str, traced: bool) -> subprocess.Popen:
    command = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    # One string-hash seed for both copies, so they lay out their dicts
    # alike and differ only by the wrappers.
    return subprocess.Popen(
        command + (["--traced"] if traced else []),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))


def _ask(process: subprocess.Popen, command: Optional[str]) -> Dict:
    if command is not None:
        process.stdin.write(command + "\n")
        process.stdin.flush()
    line = process.stdout.readline()
    if not line:
        code = process.wait(timeout=60)
        raise BenchmarkError("trace worker exited with code %s" % code)
    return json.loads(line)


def trace_workload(args, workload) -> Dict:
    """Run an untraced and a traced copy of one workload in lockstep,
    one slice at a time, so machine-speed drift hits both alike. Which
    copy goes first is drawn for every slice."""
    order = random.Random("lockstep:%d" % args.seed)
    processes: List[subprocess.Popen] = []
    try:
        for traced in (False, True):
            processes.append(_spawn_worker(args, workload.name, traced))
            _ask(processes[-1], None)  # set-up and warm-up done
        walls: List[List[int]] = [[], []]
        calls: List[List[int]] = [[], []]
        for _ in range(TRACE_CHUNKS):
            for copy in order.sample(range(2), 2):
                reply = _ask(processes[copy], "chunk")
                walls[copy].append(reply["wall_ns"])
                calls[copy].append(reply["calls"])
        results = [_ask(process, "finish") for process in processes]
        for process in processes:
            process.wait(timeout=60)
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    return summarize_trace(workload.name, walls, calls, results)


def _kept_slices(walls) -> List[int]:
    """Slices whose traced/untraced wall ratio is not among the
    :data:`TRIM` highest or lowest. A burst of other work on the machine
    that hits one copy's slice and not the other's would skew the fit."""
    plain, traced = walls
    order = sorted(range(len(plain)), key=lambda i: traced[i] / plain[i])
    cut = int(len(order) * TRIM)
    return sorted(order[cut:len(order) - cut])


def _cost_per_call(walls, calls, slices: List[int]) -> float:
    """The traced copy's extra wall ns per wrapped call over ``slices``."""
    plain, traced = walls
    return ratio(sum(traced[i] - plain[i] for i in slices),
                 sum(calls[1][i] for i in slices))


def summarize_trace(name: str, walls, calls, results) -> Dict:
    """Per-layer metrics of a traced pass.

    The wrapper's cost per call is calibrated on the run itself: the
    traced copy's extra wall time over its wrapped calls, on the slices
    :func:`_kept_slices` keeps. The check fits that cost on the kept
    even slices only and corrects the kept odd slices with it; their
    corrected layer sum must land within :data:`LAYER_SUM_TOLERANCE` of
    the untraced wall of the same slices. So the calibration is tested
    on slices it was not fitted on."""
    plain, single = walls
    kept = _kept_slices(walls)
    per_call_ns = _cost_per_call(walls, calls, kept)
    fitted = _cost_per_call(walls, calls, [i for i in kept if i % 2 == 0])
    odd = [i for i in kept if i % 2]
    layer_sum = ratio(sum(single[i] - fitted * calls[1][i] for i in odd),
                      sum(plain[i] for i in odd))
    overhead = sum(single) / sum(plain) - 1.0
    traced = results[1]
    problems = {problem for result in results
                for problem in result["problems"]}
    if len({result["counters"]["tuples"] for result in results}) != 1:
        problems.add("tracing changed the simulated tuple count")
    layer_sum_ok = abs(layer_sum - 1.0) <= LAYER_SUM_TOLERANCE
    if not layer_sum_ok:
        problems.add("corrected layer sum on held-out slices %.3f x "
                     "untraced wall, outside +-%d%%"
                     % (layer_sum, 100 * LAYER_SUM_TOLERANCE))
    span = traced["trace"]
    tuples = traced["counters"]["tuples"]
    per_layer = layers.attribute(layers.TARGETS, span, per_call_ns,
                                 traced["in_bracket_share"])
    total_ns = sum(entry["self_ns"] for entry in per_layer.values())
    metrics: Dict[str, Dict] = {}

    def put(metric: str, value: float, unit: str) -> None:
        metrics[metric] = {"value": value, "unit": unit}

    for layer in layers.LAYERS:
        entry = per_layer[layer]
        put(layer + ".self_ns_per_tuple", ratio(entry["self_ns"], tuples),
            "ns/tuple")
        put(layer + ".share", ratio(entry["self_ns"], total_ns), "ratio")
        if layer != layers.ENGINE:
            put(layer + ".calls_per_tuple", ratio(entry["calls"], tuples),
                "calls/tuple")
    count = traced["counters"]
    flush_slots = [slot + 1 for slot, target in enumerate(layers.TARGETS)
                   if target.kind == "flush"]
    flushes = sum(span["calls"][slot] for slot in flush_slots)
    put("sim.engine.events_per_tuple", ratio(count["events"], tuples),
        "events/tuple")
    put("sim.engine.heap_ops_per_event",
        ratio(count["heap_ops"], count["events"]), "ops/event")
    put("sim.engine.allocs_per_event",
        ratio(count["entry_allocs"], count["events"]), "allocs/event")
    put("core.io_layer.fast_path_fraction",
        ratio(count["fused_tuples"], count["tuples_sent"]), "ratio")
    put("core.io_layer.avg_train_tuples",
        ratio(count["fused_tuples"], count["fused_flushes"]), "tuples")
    put("core.io_layer.empty_flush_fraction",
        ratio(span["empty_flushes"], flushes), "ratio")
    put("sdn.flow.cache_hit_rate",
        ratio(count["cache_hits"], count["cache_hits"] + count["cache_misses"]),
        "ratio")
    put("sdn.switch.switch_trains", count["switch_trains"], "count")
    put("net.tcp.bytes_per_tuple", ratio(count["tunnel_bytes"], tuples),
        "bytes/tuple")
    put("trace_overhead", overhead, "ratio")
    return {
        "workload": name,
        "metrics": metrics,
        "calibration": {
            "per_call_ns": per_call_ns,
            "in_bracket_share": traced["in_bracket_share"],
            "layer_sum_ratio": layer_sum,
            "layer_sum_ok": layer_sum_ok,
        },
        "correct": not problems,
        "problems": sorted(problems),
        "attempted": results[0]["attempted"],
        "failed": results[0]["failed"],
        "chunk_wall_ns": dict(zip(("untraced", "traced"), walls)),
        "chunk_wrapped_calls": calls[1],
        "details": results[0]["details"],
    }


# -- manifest ------------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines() -> int:
    """Non-blank lines under ``src/repro`` (reported, not gated)."""
    total = 0
    for path in sorted((SRC / "repro").rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for line in handle if line.strip())
    return total


def manifest_header(args) -> Dict:
    from scenarios import WARMUP

    return {
        "commit": git_commit(),
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "seconds": args.seconds,
        "chunks": CHUNKS,
        "trace_chunks": TRACE_CHUNKS,
        "setup_repeats": SETUP_REPEATS,
        "warmup_vs": WARMUP,
    }


def workload_parameters(workload, seconds: float) -> Dict:
    params = dict(workload.scenario.parameters())
    params["span_vs"] = workload.span * seconds / 10.0
    return params


def write_manifest(directory: Path, manifest: Dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


def spread(values: List[float]) -> Dict[str, float]:
    middle = statistics.median(values)
    out = {"median": middle, "min": min(values), "max": max(values),
           "range_over_median": ratio(max(values) - min(values), middle)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr_over_median"] = ratio(q3 - q1, middle)
    return out


# -- modes -----------------------------------------------------------------------


def contract_line(correct: bool, attempted: int, failed: int,
                  metrics: Dict[str, Dict]) -> str:
    return json.dumps({"correct": correct, "attempted": max(1, attempted),
                       "failed": failed, "metrics": metrics})


def run_worker(args) -> int:
    """Lockstep worker of the traced pass (reads commands on stdin)."""
    from scenarios import BY_NAME

    workload = BY_NAME[args.workload]
    tracer = None
    if args.traced:
        tracer = layers.Tracer()
        tracer.install()
    run = Run(workload, args.seed, args.seconds, tracer, TRACE_CHUNKS)

    def reply(payload: Dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"ready": True})
    for line in sys.stdin:
        if line.strip() == "chunk":
            wall, calls = run.chunk()
            reply({"wall_ns": wall, "calls": calls})
        elif line.strip() == "finish":
            reply(run.finish())
            return 0
    return 1


def run_single(args, workload) -> int:
    """Single-run form: one run of one workload."""
    out_dir = Path(args.out) / workload.name
    if args.trace:
        summary = trace_workload(args, workload)
        manifest = manifest_header(args)
        manifest["trace"] = {workload.name: summary}
        manifest["parameters"] = {
            workload.name: workload_parameters(workload, args.seconds)}
        write_manifest(out_dir.with_name(workload.name + "-trace"), manifest)
        print_trace(summary)
        correct = summary["correct"]
        print(contract_line(correct, summary["attempted"], summary["failed"],
                            summary["metrics"]))
        return 0 if correct else 1
    run = Run(workload, args.seed, args.seconds)
    for _ in range(CHUNKS):
        run.chunk()
    result = run.finish()
    metrics = end_to_end(result)
    manifest = manifest_header(args)
    manifest["workload"] = workload.name
    manifest["parameters"] = workload_parameters(workload, args.seconds)
    manifest["result"] = result
    manifest["metrics"] = metrics
    manifest["raw"] = raw_walls(result)
    write_manifest(out_dir, manifest)
    print("%s seed=%d span=%g vs" % (workload.name, args.seed, result["span_vs"]))
    for name, value in metrics.items():
        print("  %-26s %14.6g %s" % (name, value, END_TO_END[name]))
    for name, value in manifest["raw"].items():
        print("  %-26s %14.6g s (raw wall clock)" % (name, value))
    for name, value in sorted(result["details"].items()):
        print("  %-26s %14.6g" % (name, value))
    for problem in result["problems"]:
        print("  FAILED: " + problem)
    print(contract_line(
        result["correct"], result["attempted"], result["failed"],
        {name: {"value": value, "unit": END_TO_END[name]}
         for name, value in metrics.items()}))
    return 0 if result["correct"] else 1


def print_trace(summary: Dict) -> None:
    metrics = summary["metrics"]
    calibration = summary["calibration"]
    print("%s traced pass: overhead %.1f%%, %.0f ns per wrapped call "
          "(%.0f%% inside its bracket), corrected layer sum on held-out "
          "slices %.3f x untraced wall: %s"
          % (summary["workload"], 100 * metrics["trace_overhead"]["value"],
             calibration["per_call_ns"],
             100 * calibration["in_bracket_share"],
             calibration["layer_sum_ratio"],
             "PASS" if calibration["layer_sum_ok"] else "FAIL"))
    for layer in layers.LAYERS:
        calls = ("%8.3f calls/tuple"
                 % metrics[layer + ".calls_per_tuple"]["value"]
                 if layer != layers.ENGINE else "")
        print("  %-20s %6.1f%% %12.1f ns/tuple %s"
              % (layer, 100 * metrics[layer + ".share"]["value"],
                 metrics[layer + ".self_ns_per_tuple"]["value"], calls))
    for name, metric in metrics.items():
        if name.rsplit(".", 1)[-1] not in ("self_ns_per_tuple", "share",
                                           "calls_per_tuple"):
            print("  %-36s %12.6g %s" % (name, metric["value"],
                                         metric["unit"]))
    for problem in summary["problems"]:
        print("  FAILED: " + problem)


def run_suite(args) -> int:
    """Every workload, :data:`REPEATS` round-robin repeats (untraced),
    or one traced pass per workload with ``--trace``."""
    from scenarios import WORKLOADS

    out_dir = Path(args.out) / ("suite-trace" if args.trace else "suite")
    manifest = manifest_header(args)
    manifest["parameters"] = {w.name: workload_parameters(w, args.seconds)
                              for w in WORKLOADS}
    correct = True
    attempted = failed = 0
    summary_metrics: Dict[str, Dict] = {}
    if args.trace:
        manifest["trace"] = {}
        for workload in WORKLOADS:
            summary = trace_workload(args, workload)
            print_trace(summary)
            manifest["trace"][workload.name] = summary
            correct &= summary["correct"]
            attempted += summary["attempted"]
            failed += summary["failed"]
            for name, value in summary["metrics"].items():
                summary_metrics[workload.name + "." + name] = value
        write_manifest(out_dir, manifest)
        print(contract_line(correct, attempted, failed, summary_metrics))
        return 0 if correct else 1

    repeats = 1 if args.quick else REPEATS
    manifest["repeats"] = repeats
    runs: Dict[str, List[Dict]] = {w.name: [] for w in WORKLOADS}
    for repeat in range(repeats):
        for workload in WORKLOADS:
            child_out = out_dir / "runs" / ("r%d" % repeat)
            child_manifest = child_out / workload.name / "manifest.json"
            if child_manifest.exists():
                child_manifest.unlink()  # never read a stale one
            code = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload.name, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", "0",
                 "--out", str(child_out)],
                stdout=subprocess.DEVNULL).returncode
            if not child_manifest.exists():
                raise BenchmarkError("%s repeat %d exited with code %d and "
                                     "wrote no manifest"
                                     % (workload.name, repeat, code))
            with open(child_manifest, encoding="utf-8") as handle:
                child = json.load(handle)
            child["exit_code"] = code
            runs[workload.name].append(child)
    manifest["workloads"] = {}
    for workload in WORKLOADS:
        records = runs[workload.name]
        metrics = {}
        print("%s: %d repeats, span %g vs"
              % (workload.name, len(records),
                 records[0]["result"]["span_vs"]))
        for name, unit in END_TO_END.items():
            values = [record["metrics"][name] for record in records]
            stats = spread(values)
            metrics[name] = dict(stats, unit=unit, values=values)
            summary_metrics["%s.%s" % (workload.name, name)] = {
                "value": stats["median"], "unit": unit}
            print("  %-22s %14.6g %-9s [%.6g .. %.6g] spread %.1f%%"
                  % (name, stats["median"], unit, stats["min"], stats["max"],
                     100 * stats["range_over_median"]))
        for name in records[0]["raw"]:
            values = [record["raw"][name] for record in records]
            metrics[name] = dict(spread(values), unit="s", values=values)
            print("  %-22s %14.6g s (raw wall clock, median)"
                  % (name, metrics[name]["median"]))
        details = records[0]["result"]["details"]
        for name in sorted(details):
            print("  %-22s %14.6g   (virtual, repeat 1)"
                  % (name, details[name]))
        for record in records:
            result = record["result"]
            correct &= result["correct"] and record["exit_code"] == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for problem in result["problems"]:
                print("  FAILED: " + problem)
        manifest["workloads"][workload.name] = {
            "metrics": metrics,
            "failed_fraction": ratio(
                sum(r["result"]["failed"] for r in records),
                sum(r["result"]["attempted"] for r in records)),
            "runs": records,
        }
    write_manifest(out_dir, manifest)
    print(contract_line(correct, attempted, failed, summary_metrics))
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall seconds the timed span is sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="run the traced pass (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="suite form: one repeat of tenfold shorter spans")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for manifests")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 1.0
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print("benchmark: no source tree at %s (run from a full checkout)"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from scenarios import BY_NAME

    try:
        if args.worker:
            return run_worker(args)
        if args.workload is None:
            return run_suite(args)
        if args.workload not in BY_NAME:
            print("benchmark: unknown workload %r (choose from %s)"
                  % (args.workload, ", ".join(BY_NAME)), file=sys.stderr)
            return 2
        return run_single(args, BY_NAME[args.workload])
    except (layers.CoverageError, BenchmarkError) as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
