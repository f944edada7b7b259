"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(see :data:`LAYERS`) for the duration of a ``with tracer.installed():``
block and restores every original afterwards.  A function that another
module imported by name (``fifo_schedule_batch`` inside
``repro.sim.fast_events``, the re-exports in package ``__init__``
files) is patched wherever it is bound, found by identity across the
loaded ``repro`` modules.

Each call records its host time; a nested call of the same layer (a
wrapped policy calling its inner policy's ``decide``) counts once, in
the outermost call.  Every call also adds its duration to its caller's
child time, so a layer's self time is exact without keeping every call.
Coarse layers (one call per slot or less) keep each span — name,
start, end, parent — in memory for :meth:`Tracer.dump`; fine-grained
ones (per device, per task batch) keep totals only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One traced layer.

    Attributes:
        name: Span name, also the per-layer metric prefix.
        targets: ``module:attr`` for a function, ``module:Class.attr`` for
            a method; ``module:*.attr`` means every class defined in the
            module that defines ``attr`` itself.
        spans: Keep each call as a span (coarse layers only).
        count: Optional ``count(tracer, args, kwargs, result)`` hook run
            after each outermost call to add the layer's counts.
    """

    name: str
    targets: tuple[str, ...]
    spans: bool = False
    count: Callable | None = None


def _count_fleet_params(tracer, args, kwargs, result):
    tracer.counts["vectorized.fleet_params_builds"] += 1


def _count_fifo(tracer, args, kwargs, result):
    tracer.counts["events.fixpoint_rounds"] += 1
    tracer.counts["events.fifo_rows"] += len(args[0])


def _delta(tracer, owner, key: str, total: int) -> None:
    """Add the growth of ``owner``'s running ``total`` since the last
    call to ``tracer.counts[key]`` (the owner is kept alive in the memo,
    so its id cannot be reused)."""
    seen = tracer.memo.get((id(owner), key), (owner, 0))[1]
    tracer.memo[id(owner), key] = (owner, total)
    tracer.counts[key] += total - seen


def _count_on_slot(tracer, args, kwargs, result):
    state = args[0]
    requested = args[3] if len(args) > 3 else kwargs["requested"]
    tracer.counts["qos.requested"] += sum(1 for r in requested if r)
    _delta(tracer, state, "qos.cold_hits", state.cold_hits)
    _delta(tracer, state, "qos.evictions", state.evictions)


def _count_observe(tracer, args, kwargs, result):
    governor = args[0]
    _delta(tracer, governor, "overload.mode_changes", len(governor.transitions))


def _count_checkpoint(tracer, args, kwargs, result):
    if isinstance(result, bytes):
        tracer.counts["checkpoint.bytes"] += len(result)
    else:
        tracer.counts["checkpoint.count"] += 1


#: The layers the traced run times, by ``repro`` module.
LAYERS = (
    Layer(
        "arrivals.sample",
        ("repro.sim.arrivals:*.sample", "repro.sim.arrivals:*.mean"),
    ),
    Layer(
        "policy.decide",
        tuple(
            f"{module}:*.decide"
            for module in (
                "repro.core.offloading",
                "repro.core.leime",
                "repro.core.centralized",
                "repro.policies.bandit",
                "repro.policies.probabilistic",
                "repro.policies.tabular",
                "repro.resilience.recovery",
                "repro.chaos.control_faults",
            )
        ),
        spans=True,
    ),
    Layer(
        "vectorized.fleet_params",
        ("repro.core.vectorized:FleetParams.from_system",),
        count=_count_fleet_params,
    ),
    Layer(
        "vectorized.slot_costs",
        ("repro.core.vectorized:VectorizedSlotEngine.slot_costs",),
        spans=True,
    ),
    Layer("offloading.slot_cost", ("repro.core.offloading:slot_cost",)),
    Layer(
        "exit_setting.search",
        ("repro.core.exit_setting:branch_and_bound_exit_setting",),
        spans=True,
    ),
    Layer("simulator.run", ("repro.sim.simulator:SlotSimulator.run",), spans=True),
    Layer(
        "overload.observe",
        ("repro.resilience.overload:OverloadGovernor.observe",),
        count=_count_observe,
    ),
    Layer(
        "overload.admit",
        (
            "repro.resilience.overload:AdmissionGate.admit",
            "repro.resilience.overload:AdmissionGate.admit_count",
        ),
    ),
    Layer(
        "qos.on_slot",
        ("repro.resilience.qos:QoSState.on_slot",),
        spans=True,
        count=_count_on_slot,
    ),
    Layer(
        "qos.plan",
        (
            "repro.resilience.qos:plan_device_modes",
            "repro.resilience.qos:QoSState.requested_mask",
        ),
    ),
    Layer("qos.degrade", ("repro.resilience.qos:degrade_system_by_modes",)),
    Layer("qos.share_scales", ("repro.resilience.qos:QoSState.share_scales",)),
    Layer(
        "qos.clamp",
        (
            "repro.resilience.qos:apply_backpressure_by_mode",
            "repro.resilience.qos:drain_stranded_edge_by_mode",
            "repro.resilience.qos:clamp_queues_by_class",
        ),
    ),
    Layer("events.run", ("repro.sim.events:EventSimulator.run",), spans=True),
    Layer("events.fast_run", ("repro.sim.fast_events:run_fast",), spans=True),
    Layer("events.window", ("repro.sim.fast_events:_FastEngine.window",), spans=True),
    Layer(
        "events.fifo",
        ("repro.core.vectorized:fifo_schedule_batch",),
        count=_count_fifo,
    ),
    Layer(
        "streaming.fold",
        (
            "repro.sim.streaming:StreamingTaskStats.observe_generated",
            "repro.sim.streaming:StreamingTaskStats.observe_shed",
            "repro.sim.streaming:StreamingTaskStats.observe_dropped",
            "repro.sim.streaming:StreamingTaskStats.observe_in_flight",
            "repro.sim.streaming:StreamingTaskStats.observe_completed",
            "repro.sim.streaming:StreamingTaskStats.fold_completed",
            "repro.sim.streaming:StreamingTaskStats.fold_dropped",
            "repro.sim.streaming:QuantileSketch.add_many",
        ),
    ),
    Layer(
        "checkpoint.snapshot",
        (
            "repro.chaos.checkpoint:snapshot",
            "repro.chaos.checkpoint:checkpoint_to_bytes",
        ),
        count=_count_checkpoint,
    ),
    Layer("traces.replay", ("repro.traces.replay:replay_trace",), spans=True),
    # The host-speed kernel runs inside the simulator's slot loop: its own
    # layer keeps it out of every program layer's self time.
    Layer("bench.kernel", ("hostspeed:HostClock.tick",)),
)


def _resolve(target: str) -> list[tuple[object, str]]:
    """The ``(owner, attr)`` pairs a target names: a module attribute or
    a class ``__dict__`` entry."""
    module_name, path = target.split(":")
    module = sys.modules.get(module_name)
    if module is None:
        __import__(module_name)
        module = sys.modules[module_name]
    if "." not in path:
        return [(module, path)]
    owner, attr = path.split(".")
    if owner != "*":
        return [(getattr(module, owner), attr)]
    return [
        (cls, attr)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module_name and attr in vars(cls)
    ]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, layers=LAYERS) -> None:
        self.layers = layers
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.memo: dict = {}
        #: ``(id, name, start, end, parent_id)``; parent ``-1`` is the root.
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []  # [name, child_time, span_id]
        self._active: Counter = Counter()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn):
        tracer = self
        name = layer.name
        keep = layer.spans
        count = layer.count
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[name]:  # nested call of the same layer
                return fn(*args, **kwargs)
            frame = [name, 0.0, tracer._next_id]
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                tracer.inclusive[name] += elapsed
                tracer.self_time[name] += elapsed - frame[1]
                tracer.calls[name] += 1
                if keep:
                    tracer.spans.append(
                        (frame[2], name, start, end, -1 if parent is None else parent[2])
                    )
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals: dict[int, object] = {}
        for layer in self.layers:
            for target in layer.targets:
                for owner, attr in _resolve(target):
                    raw = vars(owner)[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, raw.__func__))
                    elif isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(layer, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, raw)
                    originals[id(raw)] = (raw, wrapped)
                    self._saved.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
        # Rebind every module-level alias of a wrapped function.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def scalar_run_s(self) -> float:
        """``EventSimulator.run`` time of runs that did not dispatch to the
        fast engine (no ``events.fast_run`` child)."""
        fast_parents = {s[4] for s in self.spans if s[1] == "events.fast_run"}
        return sum(
            s[3] - s[2]
            for s in self.spans
            if s[1] == "events.run" and s[0] not in fast_parents
        )

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

