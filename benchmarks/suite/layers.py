"""Outside-in per-layer timing for the traced benchmark pass.

The benchmark never edits ``src/``. Instead, before a traced run builds
its cluster, :meth:`Tracer.install` replaces each layer's public entry points
(methods on classes, functions where the calling module looks them up)
with timing wrappers. A wrapper adds its wall time to its entry point's
slot and tells its caller's slot how long it ran, so each slot ends up
with *self* time: its own duration minus that of the wrapped calls it
made. The simulation engine is the root: its self time is the wall
time of ``Engine.run`` minus every wrapped call it dispatched, which is
engine dispatch plus whatever unwrapped code the event callbacks run.

A wrapper costs time of its own. ``run.py`` calibrates that cost in
situ by running an untraced copy of the workload in lockstep and
dividing the traced copy's extra wall time by its wrapped calls. Part
of the cost falls inside the wrapper's own timed bracket and the rest
in its caller's self time; :func:`in_bracket_share` measures the split
on a wrapped no-op, and :func:`attribute` takes each part off the slot
it landed in.

Install the wrappers before the cluster is built: executors and fabrics
bind methods (``executor.deliver``, ``fabric.receive_from_tunnel``,
component batch hooks) when they are constructed.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

FWD = "fwd-local"
ACKED = "fwd-acked-remote"
BCAST = "bcast-remote-k4"
CHURN = "control-churn"
ALL = (FWD, ACKED, BCAST, CHURN)
REMOTE = (ACKED, BCAST, CHURN)

#: Layers in report order; ``sim.engine`` is the residual root.
LAYERS = ("workloads", "streaming.executor", "streaming.acker",
          "streaming.serialize", "core.io_layer", "net.tcp", "sdn.switch",
          "sdn.flow", "sdn.openflow", "sdn.controller", "coordination.store",
          "core.update", "sim.engine")
ENGINE = "sim.engine"


class CoverageError(RuntimeError):
    """A wrapped entry point is missing, or did not fire on a workload
    that is expected to use it."""


@dataclass(frozen=True)
class Target:
    """One public entry point of a layer."""

    layer: str
    #: Module the name is looked up in when it is called.
    module: str
    #: ``"function"`` or ``"Class.method"`` inside ``module``.
    name: str
    #: Workloads on which the entry point must fire.
    fires_on: Sequence[str] = ()
    #: ``"call"``; ``"generator"`` for Fig. 6 update procedures, timed
    #: per resumption; ``"flush"`` also counts flushes with nothing
    #: pending.
    kind: str = "call"

    @property
    def label(self) -> str:
        return "%s:%s" % (self.module, self.name)


def _targets(layer: str, module: str, names: Dict[str, Sequence[str]],
             kind: str = "call") -> List[Target]:
    return [Target(layer, module, name, tuple(fires_on), kind)
            for name, fires_on in names.items()]


#: Every wrapped entry point, with the workloads it fires on (recorded
#: when the benchmark was defined; the traced pass fails if one stops
#: firing, so a refactor cannot silently move its time into the engine
#: residual). Functions are patched where the caller looks them up.
TARGETS: List[Target] = [
    *_targets("workloads", "repro.workloads.sentences", {
        "SequenceSpout.next_tuple": ALL,
        "SequenceSpout.next_tuple_batch": (FWD, BCAST, CHURN),
        "SequenceCheckBolt.execute": (ACKED, CHURN),
        "SequenceCheckBolt.execute_batch": (FWD,),
        "NullSinkBolt.execute": (BCAST,),
        "NullSinkBolt.execute_batch": (BCAST,),
        "SentenceSpout.next_tuple": (CHURN,),
        "SplitBolt.execute": (CHURN,),
        "CountBolt.execute": (CHURN,),
    }),
    *_targets("streaming.executor", "repro.streaming.executor", {
        "WorkerExecutor.deliver": ALL,
        "_Collector.emit": ALL,
        "_Collector.emit_many": (FWD, BCAST, CHURN),
        "_Collector.ack": (),
        "_Collector.fail": (),
    }),
    *_targets("streaming.acker", "repro.streaming.acker", {
        "AckerBolt.execute": (ACKED,),
    }),
    *_targets("streaming.serialize", "repro.core.io_layer", {
        "encode_tuple": (),
        "encode_tuple_scalar": (ACKED, CHURN),
        "encode_train": (),
        "encode_train_uniform": (FWD, BCAST, CHURN),
        "decode_tuple": ALL,
    }),
    *_targets("streaming.serialize", "repro.core.controller", {
        "encode_tuple": ALL,
        "decode_tuple": (),
    }),
    *_targets("streaming.serialize", "repro.core.control", {
        "encode_tuple": (),
        "decode_tuple": (),
    }),
    *_targets("core.io_layer", "repro.core.io_layer", {
        "TyphoonTransport.send": (ACKED, CHURN),
        "TyphoonTransport.send_many": (),
        "TyphoonTransport.send_interleaved": (FWD, CHURN),
        "TyphoonTransport.send_broadcast": (),
        "TyphoonTransport.send_broadcast_interleaved": (BCAST,),
        "TyphoonTransport.send_offloaded": (),
        "TyphoonTransport.send_to_controller": (),
        "HostFabric.receive_from_tunnel": REMOTE,
        "pack_tuples_spans": (ACKED, CHURN),
        "unpack_payload": ALL,
    }),
    *_targets("core.io_layer", "repro.core.io_layer", {
        "TyphoonTransport.flush": ALL,
    }, kind="flush"),
    *_targets("core.io_layer", "repro.core.controller", {
        "pack_tuples": ALL,
        "unpack_payload": (),
    }),
    *_targets("core.io_layer", "repro.core.packets", {
        "Reassembler.feed": (),
    }),
    *_targets("net.tcp", "repro.net.tcp", {
        "TcpChannel.send": REMOTE,
        "TcpTunnel.send_from": REMOTE,
    }),
    *_targets("sdn.switch", "repro.sdn.switch", {
        "SoftwareSwitch.inject": ALL,
        "SoftwareSwitch.inject_train": (),
    }),
    *_targets("sdn.flow", "repro.sdn.flow", {
        "FlowTable.lookup_cached": ALL,
    }),
    *_targets("sdn.openflow", "repro.sdn.switch", {
        "SoftwareSwitch.handle_message": ALL,
        "SoftwareSwitch.handle_message_from": (CHURN,),
    }),
    *_targets("sdn.controller", "repro.sdn.controller", {
        "SdnController.send": ALL,
        "SdnController.install_flow": ALL,
        "SdnController.delete_flows": (CHURN,),
        "SdnController.install_group": (),
        "SdnController.packet_out": ALL,
        "SdnController.install_meter": (),
        "SdnController.delete_meter": (),
        "SdnController.request_flow_stats": (CHURN,),
        "SdnController.request_port_stats": (),
        "SdnController.request_meter_stats": (),
        "SdnController.connect_switch": (FWD, ACKED, BCAST),
        "SdnController.register_app": ALL,
        "SdnController.fail": (CHURN,),
        "SdnController.recover": (CHURN,),
        "SdnController.drop_backlogs": (CHURN,),
    }),
    *_targets("sdn.controller", "repro.core.controller", {
        "TyphoonControllerApp.on_switch_reconnect": (),
        "TyphoonControllerApp.on_port_status": ALL,
        "TyphoonControllerApp.on_packet_in": (),
    }),
    *_targets("sdn.controller", "repro.core.apps.fault_detector", {
        "FaultDetector.on_start": (CHURN,),
    }),
    *_targets("coordination.store", "repro.coordination.store", {
        "Coordinator.exists": ALL,
        "Coordinator.create": ALL,
        "Coordinator.set": (CHURN,),
        "Coordinator.ensure": ALL,
        "Coordinator.get": ALL,
        "Coordinator.get_data": ALL,
        "Coordinator.children": (CHURN,),
        "Coordinator.delete": (CHURN,),
        "Coordinator.start_session": (CHURN,),
        "Coordinator.session_active": (CHURN,),
        "Coordinator.expire_session": (CHURN,),
        "Coordinator.watch_data": (),
        "Coordinator.watch_children": (CHURN,),
    }),
    *_targets("core.update", "repro.core.update", {
        "scale_up": (CHURN,),
        "scale_down": (CHURN,),
        "replace_computation": (),
        "attach_component": (),
        "detach_component": (),
        "relocate_worker": (),
        "change_grouping": (),
    }, kind="generator"),
]


#: Body of every timing wrapper (see :meth:`Tracer._wrap`). Names
#: start with ``_t_`` so they cannot collide with a wrapped parameter.
_WRAPPER = """\
def {name}({params}):
{precheck}    _t_parent = _t_state[0]
    _t_outer = _t_state[1]
    _t_state[0] = {slot}
    _t_state[1] = 0
    _t_start = _t_clock()
    try:
        return _t_fn({args})
    finally:
        _t_elapsed = _t_clock() - _t_start
        _t_self_ns[{slot}] += _t_elapsed - _t_state[1]
        _t_calls[{slot}] += 1
        _t_child_calls[_t_parent] += 1
        _t_state[0] = _t_parent
        _t_state[1] = _t_outer + _t_elapsed
"""


def _parameters(fn):
    """``fn``'s parameter list as source, the default values it names,
    and the argument list that forwards every parameter."""
    params: List[str] = []
    args: List[str] = []
    defaults: Dict[str, object] = {}
    star = False
    for param in inspect.signature(fn).parameters.values():
        if param.kind is param.VAR_POSITIONAL:
            params.append("*" + param.name)
            args.append("*" + param.name)
            star = True
            continue
        if param.kind is param.VAR_KEYWORD:
            params.append("**" + param.name)
            args.append("**" + param.name)
            continue
        if param.kind is param.KEYWORD_ONLY and not star:
            params.append("*")
            star = True
        text = param.name
        if param.default is not param.empty:
            key = "_t_default_%d" % len(defaults)
            defaults[key] = param.default
            text += "=" + key
        params.append(text)
        args.append(param.name + "=" + param.name
                    if param.kind is param.KEYWORD_ONLY else param.name)
    return ", ".join(params), defaults, ", ".join(args)


class Tracer:
    """Per-slot self time and call counters for one process.

    Slot 0 is the engine root; slot ``i + 1`` belongs to ``targets[i]``.
    ``child_calls[s]`` counts wrapped calls made directly from slot
    ``s``: the calls whose wrapper cost landed in ``s``'s self time.
    """

    def __init__(self, targets: Sequence[Target] = TARGETS):
        self.targets = list(targets)
        size = len(self.targets) + 1
        self.self_ns = [0] * size
        self.calls = [0] * size
        self.child_calls = [0] * size
        self._empty = [0]
        #: [active slot, wrapped-child nanoseconds of the active frame]
        self._state = [0, 0]
        self._undo: List = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target.

        Raises :class:`CoverageError` naming the first target that
        cannot be resolved; nothing is wrapped then."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        resolved = [_resolve(target) for target in self.targets]
        for index, (target, (owner, attr)) in enumerate(
                zip(self.targets, resolved)):
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, index + 1, target.kind))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, slot: int, kind: str = "call"):
        """A wrapper with ``fn``'s own signature, so call sites keep
        their fast exact-argument calls."""
        params, defaults, args = _parameters(fn)
        namespace = {"_t_fn": fn, "_t_state": self._state,
                     "_t_clock": time.perf_counter_ns,
                     "_t_self_ns": self.self_ns, "_t_calls": self.calls,
                     "_t_child_calls": self.child_calls,
                     "_t_empty": self._empty}
        namespace.update(defaults)
        if kind == "generator":
            namespace["_t_proxy"] = _TimedGenerator
            namespace["_t_resume"] = self._wrap(_resume, slot)
            source = ("def %s(%s):\n    return _t_proxy(_t_fn(%s), _t_resume)\n"
                      % (fn.__name__, params, args))
        else:
            precheck = ""
            if kind == "flush":
                precheck = ("    if %s.pending_tuples() == 0:\n"
                            "        _t_empty[0] += 1\n"
                            % args.split(",")[0])
            source = _WRAPPER.format(name=fn.__name__, params=params,
                                     precheck=precheck, slot=slot, args=args)
        exec(source, namespace)
        return namespace[fn.__name__]

    # -- engine root ------------------------------------------------------

    def run_engine(self, engine, until: float) -> int:
        """``engine.run(until)`` as the root frame; returns its wall ns."""
        state = self._state
        state[0] = 0
        state[1] = 0
        start = time.perf_counter_ns()
        engine.run(until=until)
        elapsed = time.perf_counter_ns() - start
        self.self_ns[0] += elapsed - state[1]
        state[1] = 0
        return elapsed

    # -- reading ----------------------------------------------------------

    def snapshot(self) -> Dict[str, List[int]]:
        return {"self_ns": list(self.self_ns), "calls": list(self.calls),
                "child_calls": list(self.child_calls),
                "empty_flushes": self._empty[0]}

    def wrapped_calls(self) -> int:
        return sum(self.calls[1:])

    def coverage_failures(self, workload: str) -> List[str]:
        """Targets expected to fire on ``workload`` that never fired
        since :meth:`install`."""
        return [target.label for index, target in enumerate(self.targets)
                if workload in target.fires_on
                and self.calls[index + 1] == 0]


def _resume(method, *args):
    return method(*args)


class _TimedGenerator:
    """Generator proxy that times each resumption of a Fig. 6 update
    procedure (``yield from`` drives it through send/throw/close)."""

    __slots__ = ("_gen", "_resume")

    def __init__(self, gen, resume):
        self._gen = gen
        self._resume = resume

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self):
        self._gen.close()


def _resolve(target: Target):
    """``(owner, attribute)`` for a target, where ``owner`` is the module
    or class whose ``__dict__`` holds the entry point."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError as exc:
        raise CoverageError("cannot import %s for %s: %s"
                            % (target.module, target.label, exc)) from exc
    parts = target.name.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    attr = parts[-1]
    if owner is None or attr not in getattr(owner, "__dict__", {}) \
            or not callable(owner.__dict__[attr]):
        raise CoverageError("layer entry point %s (%s) does not exist"
                            % (target.label, target.layer))
    return owner, attr


def in_bracket_share(calls: int = 50_000, repeats: int = 5) -> float:
    """Share of a wrapper's own cost that falls inside its timed bracket
    and so is charged to the wrapped entry point rather than to its
    caller, measured on a wrapped no-op (median of ``repeats``)."""
    clock = time.perf_counter_ns
    shares = []
    for _ in range(repeats):
        tracer = Tracer([Target("probe", __name__, "_noop")])
        timed = tracer._wrap(_noop, 1)
        start = clock()
        for _ in range(calls):
            timed()
        wrapped = clock() - start
        start = clock()
        for _ in range(calls):
            _noop()
        plain = clock() - start
        shares.append((tracer.self_ns[1] - plain) / (wrapped - plain))
    shares.sort()
    return min(1.0, max(0.0, shares[len(shares) // 2]))


def _noop():
    return None


def attribute(targets: Sequence[Target], span: Dict[str, List[int]],
              per_call_ns: float, in_bracket: float) -> Dict[str, Dict]:
    """Per-layer corrected self time and calls over a span.

    ``span`` holds slot deltas (``self_ns``, ``calls``, ``child_calls``).
    Each wrapped call's calibrated cost ``per_call_ns`` is taken off the
    wrapped entry point's slot (the ``in_bracket`` share) and off its
    caller's slot (the rest).
    """
    inside = per_call_ns * in_bracket
    outside = per_call_ns - inside
    layers = {name: {"self_ns": 0.0, "calls": 0} for name in LAYERS}
    for slot, layer in enumerate([ENGINE] + [t.layer for t in targets]):
        entry = layers[layer]
        entry["self_ns"] += (span["self_ns"][slot]
                             - inside * span["calls"][slot]
                             - outside * span["child_calls"][slot])
        if slot:
            entry["calls"] += span["calls"][slot]
    return layers


def diff(after: Dict, before: Dict) -> Dict:
    """Slot-wise ``after - before`` of two :meth:`Tracer.snapshot` dicts."""
    out = {}
    for key, value in after.items():
        if isinstance(value, list):
            out[key] = [a - b for a, b in zip(value, before[key])]
        else:
            out[key] = value - before[key]
    return out
