"""The benchmark's workloads: seeded inputs, one timed run, the checks.

Every input is built here from ``repro``'s public constructors.  A
workload is two steps:

* ``build(seed, fraction)`` makes the inputs and simulator objects (the
  fleet, its branch-and-bound exit-setting partition, arrival processes,
  traces, fault plans, the QoS config and the policy).  This is what
  ``setup_s`` times.  ``fraction`` scales the fleet (the traced run
  uses 0.5 for its scaling exponents).
* ``execute(inputs, clock)`` runs the simulation once, ticking the host
  clock once per slot (per cell for the tournament), and returns an
  :class:`Outcome` with the simulated metrics and the identity checks.

Simulated arrivals are open loop: seeded Poisson or trace rates that do
not depend on the system's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.chaos import checkpoint as checkpoint_io
from repro.core import exit_setting
from repro.core.offloading import (
    DeviceConfig,
    DriftPlusPenaltyPolicy,
    EdgeSystem,
    FixedRatioPolicy,
)
from repro.experiments.common import TestbedConfig, leime_scheme
from repro.hardware import (
    CLOUD_V100,
    EDGE_I7_3770,
    INTERNET_EDGE_CLOUD,
    NetworkProfile,
    RASPBERRY_PI_3B,
)
from repro.models.exit_rates import ParametricExitCurve
from repro.models.multi_exit import MultiExitDNN
from repro.models.zoo import build_model
from repro.policies import build_policy
from repro.resilience import (
    OverloadControl,
    QoSConfig,
    RecoveryPolicy,
    canonical_outage_plan,
)
from repro.sim.arrivals import PoissonArrivals, TraceArrivals
from repro.sim.environment import StaticEnvironment
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator
from repro.tournament import TournamentSpec, run_cell
from repro.tournament.scenarios import scenario_spec
from repro.traces.generators import (
    WildTraceSpec,
    canonical_flash_crowd,
    canonical_mixed_qos_burst,
    generate_trace,
)
from repro.units import mbps, ms

from hostspeed import HostClock, KernelEnvironment

#: How the fleet workloads size their shared back end.
BACKEND = (
    "one i7-3770 edge, one V100 cloud and the 20 Mbps edge-cloud link, "
    "each scaled by devices/4"
)

#: Lyapunov weight of every drift-plus-penalty policy the benchmark runs.
V = 50.0


@dataclass
class Outcome:
    """One run's simulated results.  Everything here is deterministic
    per seed; ``violations`` lists broken identities (empty when the run
    is correct)."""

    device_slots: int
    attempted: int
    failed: int
    tct_mean_s: float
    tct_p99_s: float
    served_frac: float
    violations: list[str] = field(default_factory=list)
    #: Counts the traced run reports beside its spans.
    counts: dict[str, float] = field(default_factory=dict)

    def signature(self) -> tuple:
        """What two runs of the same inputs must reproduce exactly."""
        return (
            self.device_slots,
            self.attempted,
            self.failed,
            self.tct_mean_s,
            self.tct_p99_s,
            self.served_frac,
            tuple(self.violations),
        )


def _stratified(rng: np.random.Generator, n: int, low: float, high: float):
    """``n`` draws from ``U[low, high]``, one in each of ``n`` equal bands,
    in seeded random order."""
    return low + (high - low) * (rng.permutation(n) + rng.random(n)) / n


def wild_fleet(
    rng: np.random.Generator,
    n: int,
    max_arrivals: float,
    backend_scale: float,
) -> EdgeSystem:
    """``n`` devices from the paper's wild ranges (§II-A) sharing one edge
    whose throughput, like the cloud's and the edge-cloud link's
    bandwidth, scales by ``backend_scale``.

    Devices span Pi-class to Jetson-class (0.5-10x a Raspberry Pi 3B+),
    links draw from 1-30 Mbps / 10-200 ms, and per-slot arrival means
    from ``[0.1, max_arrivals]``.  The deployed partition comes from the
    paper's branch-and-bound exit setting against the fleet averages and
    each device's fair edge slice.

    Each parameter is a stratified (Latin hypercube) draw: one value per
    ``1/n`` band of its range, bands shuffled across devices.  The fleet
    still changes with the seed, but its make-up, and so the work a run
    does, varies far less between seeds than with independent draws."""
    flops = RASPBERRY_PI_3B.flops * _stratified(rng, n, 0.5, 10.0)
    bandwidth = _stratified(rng, n, 1.0, 30.0)
    latency = _stratified(rng, n, 10.0, 200.0)
    means = _stratified(rng, n, 0.1, max_arrivals)
    overhead = _stratified(rng, n, 0.0, 0.1)
    devices = tuple(
        DeviceConfig(
            name=f"dev-{i}",
            flops=float(flops[i]),
            link=NetworkProfile(mbps(float(bandwidth[i])), ms(float(latency[i]))),
            mean_arrivals=float(means[i]),
            overhead=float(overhead[i]),
        )
        for i in range(n)
    )
    edge_flops = EDGE_I7_3770.flops * backend_scale
    cloud_flops = CLOUD_V100.flops * backend_scale
    edge_cloud = NetworkProfile(
        INTERNET_EDGE_CLOUD.bandwidth * backend_scale, INTERNET_EDGE_CLOUD.latency
    )
    averages = exit_setting.AverageEnvironment(
        device_flops=float(flops.mean()),
        edge_flops=edge_flops / n,
        cloud_flops=cloud_flops,
        device_edge=NetworkProfile(
            mbps(float(bandwidth.mean())), ms(float(latency.mean()))
        ),
        edge_cloud=edge_cloud,
        device_overhead=float(overhead.mean()),
    )
    me_dnn = MultiExitDNN(
        build_model("inception-v3"), ParametricExitCurve.from_complexity(0.5)
    )
    # Through the module attribute, so the traced run sees the search.
    plan = exit_setting.branch_and_bound_exit_setting(me_dnn, averages)
    return EdgeSystem(
        devices=devices,
        edge_flops=edge_flops,
        cloud_flops=cloud_flops,
        edge_cloud=edge_cloud,
        partition=plan.partition,
    )


def _scaled(devices: int, fraction: float) -> int:
    return max(4, int(round(devices * fraction)))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


# -- fleet-dpp-steady -------------------------------------------------------


@dataclass(frozen=True)
class FleetDppSteady:
    """The paper's per-slot Lyapunov offloading (§III-D) at fleet scale:
    vectorized drift-plus-penalty over a static fleet.  No overload, QoS,
    fault or event code runs, so this is the bypass case for those
    layers."""

    name: str = "fleet-dpp-steady"
    devices: int = 5000
    slots: int = 40
    max_arrivals: float = 1.0

    def params(self) -> dict:
        return {
            "devices": self.devices,
            "slots": self.slots,
            "simulator": "SlotSimulator(vectorized=True)",
            "policy": f"DriftPlusPenaltyPolicy(v={V}, vectorized=True)",
            "environment": "StaticEnvironment",
            "arrivals": (
                "open loop, stationary Poisson; per-device mean drawn "
                f"from U[0.1, {self.max_arrivals}] tasks/slot"
            ),
            "backend": BACKEND,
        }

    def build(self, seed: int, fraction: float = 1.0) -> dict:
        n = _scaled(self.devices, fraction)
        rng = np.random.default_rng([seed, 1])
        system = wild_fleet(rng, n, self.max_arrivals, n / 4.0)
        return dict(
            system=system,
            arrivals=[PoissonArrivals(d.mean_arrivals) for d in system.devices],
            environment=StaticEnvironment(),
            policy=DriftPlusPenaltyPolicy(v=V, vectorized=True),
            seed=seed,
            ticks=self.slots,
        )

    def execute(self, inputs: dict, clock: HostClock) -> Outcome:
        system = inputs["system"]
        sim = SlotSimulator(
            system=system,
            arrivals=inputs["arrivals"],
            environment=KernelEnvironment(inputs["environment"], clock),
            seed=inputs["seed"],
            vectorized=True,
        )
        result = sim.run(inputs["policy"], self.slots)
        outcome = _fluid_outcome(result, system.num_devices, self.slots)
        outcome.violations += _arrival_check(result, system, self.slots)
        if result.total_shed != 0.0:
            outcome.violations.append(f"ungoverned run shed {result.total_shed}")
        return outcome


def _fluid_outcome(result, n: int, slots: int) -> Outcome:
    """Fluid accounting: per class, generated work is either admitted or
    shed, and the classes sum to the run totals; admitted work is served
    or still queued at the horizon."""
    generated = result.total_generated
    violations = []
    if result.class_flow is not None:
        flow = result.class_flow
        for name, gap in result.class_identity_gaps().items():
            if abs(gap) > 1e-9 * generated:
                violations.append(f"class {name}: generated - admitted - shed = {gap}")
        for label, per_class, total in (
            ("generated", flow.generated, generated),
            ("admitted", flow.admitted, result.total_arrivals),
            ("shed", flow.shed, result.total_shed),
        ):
            if not _close(sum(per_class), total):
                violations.append(
                    f"per-class {label} sums to {sum(per_class)}, run total {total}"
                )
    backlog = result.final_backlog
    values = (result.mean_tct, result.tct_percentile(99), backlog)
    if not all(math.isfinite(v) for v in values) or backlog < 0:
        violations.append(f"non-finite or negative outputs {values}")
    lost = result.total_shed + backlog
    served = 1.0 - lost / generated if generated > 0 else float("nan")
    return Outcome(
        device_slots=n * slots,
        attempted=int(round(generated)),
        failed=int(round(lost)),
        tct_mean_s=result.mean_tct,
        tct_p99_s=result.tct_percentile(99),
        served_frac=served,
        violations=violations,
    )


def _arrival_check(result, system: EdgeSystem, slots: int) -> list[str]:
    """Open-loop Poisson arrivals: the run's generated demand must lie
    within six standard deviations of the configured means."""
    expected = slots * sum(d.mean_arrivals for d in system.devices)
    if abs(result.total_generated - expected) > 6.0 * math.sqrt(expected):
        return [
            f"generated {result.total_generated} is far from the "
            f"open-loop expectation {expected:.1f}"
        ]
    return []


# -- fleet-qos-burst ---------------------------------------------------------


#: The QoS layer of ``fleet-qos-burst``: a memory budget too small for
#: every requested model, so the warm pool serves loads cold through the
#: burst (the pinned set fills it: no evictions), and a shed budget that
#: makes the utility-per-cost ordering run on every degraded slot.
QOS = QoSConfig(memory_fraction=0.5, cold_start_seconds=0.25, shed_budget=50.0)


@dataclass(frozen=True)
class FleetQosBurst:
    """A 10x mixed-QoS burst under overload control and the QoS warm pool:
    the warm pool (quadratic today) and the per-device admission, degrade
    and drain Python dominate while the policy is trivial."""

    name: str = "fleet-qos-burst"
    devices: int = 1000
    slots: int = 60
    base_rate: float = 0.5
    magnitude: float = 10.0

    def params(self) -> dict:
        return {
            "devices": self.devices,
            "slots": self.slots,
            "simulator": "SlotSimulator(vectorized=True)",
            "policy": "FixedRatioPolicy(0.5)",
            "overload": "OverloadControl()",
            "qos": repr(QOS),
            "arrivals": (
                "open loop, canonical_mixed_qos_burst trace: "
                f"{self.base_rate} tasks/slot per device, x{self.magnitude} "
                "crowd over slots S/4..S/2 and x3 echo from 3S/4 on "
                "devices 1..N-1, replayed as deterministic counts"
            ),
            "backend": BACKEND,
        }

    def build(self, seed: int, fraction: float = 1.0) -> dict:
        n = _scaled(self.devices, fraction)
        rng = np.random.default_rng([seed, 2])
        system = wild_fleet(rng, n, 2.0 * self.base_rate, n / 4.0)
        rates = canonical_mixed_qos_burst(
            num_slots=self.slots,
            num_devices=n,
            base_rate=self.base_rate,
            magnitude=self.magnitude,
        )
        return dict(
            system=system,
            arrivals=[TraceArrivals.from_series(rates[:, i]) for i in range(n)],
            environment=StaticEnvironment(),
            policy=FixedRatioPolicy(0.5),
            overload=OverloadControl(),
            qos=QOS,
            seed=seed,
            ticks=self.slots,
        )

    def execute(self, inputs: dict, clock: HostClock) -> Outcome:
        system = inputs["system"]
        sim = SlotSimulator(
            system=system,
            arrivals=inputs["arrivals"],
            environment=KernelEnvironment(inputs["environment"], clock),
            seed=inputs["seed"],
            vectorized=True,
            overload=inputs["overload"],
            qos=inputs["qos"],
        )
        result = sim.run(inputs["policy"], self.slots)
        outcome = _fluid_outcome(result, system.num_devices, self.slots)
        if result.class_flow is None:
            outcome.violations.append("QoS run carried no per-class flow")
        return outcome


# -- edge-faults-serving -----------------------------------------------------


class CheckpointBytes:
    """In-memory checkpoint sink: serialises each checkpoint as it would
    go to disk and keeps only the latest bytes."""

    def __init__(self) -> None:
        self.count = 0
        self.latest = b""

    def __call__(self, checkpoint) -> None:
        # Through the module attribute, so the traced run sees the call.
        self.latest = checkpoint_io.checkpoint_to_bytes(checkpoint)
        self.count += 1


@dataclass(frozen=True)
class EdgeFaultsServing:
    """The task-level fast event engine under an edge outage, with retries,
    streaming metrics and periodic checkpoints, at a fleet size where
    ``engine="auto"`` picks the fast engine."""

    name: str = "edge-faults-serving"
    devices: int = 3000
    slots: int = 30
    max_arrivals: float = 1.0
    checkpoint_every: int = 5
    drain_limit_factor: float = 50.0

    def params(self) -> dict:
        return {
            "devices": self.devices,
            "slots": self.slots,
            "simulator": (
                "EventSimulator(spread_arrivals=True).run(engine='auto', "
                f"metrics='streaming', checkpoint_every={self.checkpoint_every})"
                " with an in-memory sink serialising each checkpoint"
            ),
            "policy": (
                f"DriftPlusPenaltyPolicy(v={V}, vectorized=True) wrapped "
                "by RecoveryPolicy.default() (resilient LEIME)"
            ),
            "faults": "canonical_outage_plan(slots, devices, seed)",
            "arrivals": (
                "open loop, stationary Poisson spread through each slot; "
                f"per-device mean drawn from U[0.1, {self.max_arrivals}] "
                "tasks/slot"
            ),
            "backend": BACKEND,
        }

    def build(self, seed: int, fraction: float = 1.0) -> dict:
        n = _scaled(self.devices, fraction)
        rng = np.random.default_rng([seed, 3])
        system = wild_fleet(rng, n, self.max_arrivals, n / 4.0)
        return dict(
            system=system,
            arrivals=[PoissonArrivals(d.mean_arrivals) for d in system.devices],
            environment=StaticEnvironment(),
            faults=canonical_outage_plan(self.slots, n, seed=seed),
            recovery=RecoveryPolicy.default(),
            policy=DriftPlusPenaltyPolicy(v=V, vectorized=True),
            seed=seed,
            ticks=self.slots,
        )

    def execute(self, inputs: dict, clock: HostClock) -> Outcome:
        system = inputs["system"]
        sim = EventSimulator(
            system=system,
            arrivals=inputs["arrivals"],
            environment=KernelEnvironment(inputs["environment"], clock),
            seed=inputs["seed"],
            spread_arrivals=True,
            faults=inputs["faults"],
            recovery=inputs["recovery"],
        )
        sink = CheckpointBytes()
        result = sim.run(
            inputs["policy"],
            self.slots,
            drain_limit_factor=self.drain_limit_factor,
            engine="auto",
            metrics="streaming",
            checkpoint_every=self.checkpoint_every,
            checkpoint_sink=sink,
        )
        outcome = _event_outcome(result, system.num_devices * self.slots)
        # One per positive multiple of the cadence below the horizon.
        expected = (self.slots - 1) // self.checkpoint_every
        if sink.count != expected:
            outcome.violations.append(
                f"{sink.count} checkpoints, expected {expected}"
            )
        outcome.counts.update(
            {
                "faults.retries": result.total_retries,
                "faults.dropped": result.dropped_count,
            }
        )
        return outcome


def _event_outcome(result, device_slots: int) -> Outcome:
    """Task accounting: every generated task is completed, dropped, shed
    or still in flight — exactly, and per class when QoS is on."""
    generated = result.generated_count
    completed = result.completed_count
    books = (
        completed + result.dropped_count + result.shed_count + result.in_flight_count
    )
    violations = []
    if generated != books:
        violations.append(
            f"generated {generated} != completed + dropped + shed + "
            f"in-flight {books}"
        )
    if result.class_names:
        for name, gap in result.class_identity_gaps().items():
            if gap != 0:
                violations.append(f"class {name}: identity gap {gap}")
    tct = (result.mean_tct, result.tct_percentile(99))
    if generated == 0 or not all(math.isfinite(v) and v > 0 for v in tct):
        violations.append(f"{generated} tasks, TCT mean/p99 {tct}")
    return Outcome(
        device_slots=device_slots,
        attempted=generated,
        failed=generated - completed,
        tct_mean_s=tct[0],
        tct_p99_s=tct[1],
        served_frac=completed / generated if generated else float("nan"),
        violations=violations,
    )


# -- tournament-small --------------------------------------------------------


@dataclass(frozen=True)
class TournamentSmall:
    """The policy tournament at the paper's 4-device scale: every scenario
    kind through both event engines, where fixed per-call cost
    dominates.  An array-native change that adds per-slot cost shows up
    here as a loss while the fleet workloads show a gain.

    A run plays the grid under ``spec_seeds`` tournament seeds: a
    4-device cell's tail latency varies a lot with its seed, and the
    simulated metrics of two grids vary about half as much as one's
    (IQR / median of the p99 over ten run seeds: about 6.5% with two
    grids, 8-13% with one).  ``bandit`` was dropped from the roster so
    that two grids fit the run budget."""

    name: str = "tournament-small"
    policies: tuple[str, ...] = ("leime", "device-only")
    scenarios: tuple[str, ...] = (
        "stationary",
        "diurnal-wild",
        "edge-outage",
        "flash-crowd",
        "mixed-qos-burst",
    )
    devices: int = 4
    slots: int = 80
    spec_seeds: int = 2

    def params(self) -> dict:
        return {
            "devices": self.devices,
            "slots": self.slots,
            "tournament_seeds": [
                f"{self.spec_seeds} x seed + {k}" for k in range(self.spec_seeds)
            ],
            "policies": list(self.policies),
            "scenarios": list(self.scenarios),
            "engines": ["scalar", "fast"],
            "runner": "repro.tournament.run_cell, one cell at a time, no artifact",
            "arrivals": (
                "open loop, per scenario: stationary Poisson 1.5/slot on a "
                "2 Mbps uplink; wild trace at 0.4/slot; outage at 0.3/slot; "
                "8x flash crowd on 0.3/slot; 6x mixed-QoS burst on 0.3/slot"
            ),
        }

    def build(self, seed: int, fraction: float = 1.0) -> dict:
        # ``fraction`` shortens the horizon (the fleet is the paper's).
        # Distinct run seeds never share a tournament seed.
        grids = []
        for k in range(self.spec_seeds):
            spec = TournamentSpec(
                policies=self.policies,
                scenarios=self.scenarios,
                num_slots=max(8, round(self.slots * fraction)),
                num_devices=self.devices,
                seed=self.spec_seeds * seed + k,
            )
            policies = {
                name: build_policy(name, v=spec.v, seed=spec.seed)
                for name in spec.policies
            }
            worlds = [
                scenario_world(spec, scenario_spec(name)) for name in spec.scenarios
            ]
            grids.append((spec, worlds, policies))
        cells = len(self.scenarios) * len(self.policies) * len(spec.engines)
        return dict(grids=grids, ticks=self.spec_seeds * cells)

    def execute(self, inputs: dict, clock: HostClock) -> Outcome:
        cells = {}
        for spec, worlds, _ in inputs["grids"]:
            for world in worlds:
                for engine in spec.engines:
                    for policy in spec.policies:
                        clock.tick()
                        cell = run_cell(spec, world.scenario, policy, engine)
                        key = (spec.seed, world.scenario.name, policy, engine)
                        cells[key] = cell["metrics"]
        clock.tick()
        return _tournament_outcome(inputs["grids"], cells)


@dataclass(frozen=True)
class ScenarioWorld:
    """One scenario's inputs, built as a tournament cell builds them: the
    testbed system with its branch-and-bound partition, the open-loop
    arrival rates (``(slots, devices)``) its arrivals follow, and its
    wild trace, fault plan or QoS config where the kind has one."""

    scenario: object
    system: EdgeSystem
    rates: np.ndarray
    trace: object = None
    faults: object = None
    qos: QoSConfig | None = None


def scenario_world(spec: TournamentSpec, scenario) -> ScenarioWorld:
    """A scenario's world from ``repro``'s public constructors, wired like
    ``repro.tournament.run_cell`` wires it.  ``run_cell`` takes a spec,
    not prebuilt inputs, so each cell builds its own world again: set-up
    times building one world per scenario, and the timed run includes the
    per-cell rebuild."""
    kwargs: dict = {}
    if scenario.bandwidth_mbps is not None:
        kwargs["device_edge"] = NetworkProfile(
            mbps(scenario.bandwidth_mbps), ms(20.0)
        )
    config = TestbedConfig(
        num_devices=spec.num_devices,
        arrival_rate=scenario.arrival_rate,
        v=spec.v,
        **kwargs,
    )
    system = config.system(leime_scheme(config).partition)
    slots, n = spec.num_slots, spec.num_devices
    extras: dict = {}
    if scenario.kind == "wild-trace":
        trace = generate_trace(
            WildTraceSpec(
                num_slots=slots, num_devices=n, arrival_rate=scenario.arrival_rate
            ),
            seed=spec.seed,
        )
        # An offline device reports NaN and contributes no arrivals.
        rates = np.nan_to_num(
            np.broadcast_to(
                trace.channel("arrival_rate").values.reshape(slots, -1), (slots, n)
            )
        )
        extras["trace"] = trace
    elif scenario.kind == "overload":
        rates = canonical_flash_crowd(
            num_slots=slots,
            num_devices=n,
            base_rate=scenario.arrival_rate,
            magnitude=scenario.overload_magnitude,
            crowd_start=slots // 4,
            crowd_stop=max(slots // 4 + 1, (slots * 5) // 8),
        )
    elif scenario.kind == "qos":
        rates = canonical_mixed_qos_burst(
            num_slots=slots,
            num_devices=n,
            base_rate=scenario.arrival_rate,
            magnitude=scenario.overload_magnitude,
        )
        # The cell's pinned class map: device 0 gold, the rest alternate.
        extras["qos"] = QoSConfig(
            class_map=(0,) + tuple(1 + (i % 2) for i in range(1, n))
        )
    else:  # stationary and faults: Poisson at the scenario's rate
        rates = np.full((slots, n), scenario.arrival_rate)
        if scenario.kind == "faults":
            extras["faults"] = canonical_outage_plan(slots, n, seed=spec.seed)
    return ScenarioWorld(scenario=scenario, system=system, rates=rates, **extras)


def _tournament_outcome(grids, cells: dict) -> Outcome:
    violations = []
    expected = {
        (spec.seed, w.scenario.name): float(w.rates.sum())
        for spec, worlds, _ in grids
        for w in worlds
    }
    if not all(math.isfinite(v) for v in expected.values()):
        violations.append(f"non-finite open-loop expectations {expected}")
    for (seed, scenario, policy, engine), m in cells.items():
        label = f"seed {seed} {scenario}/{policy}"
        books = m["completed"] + m["dropped"] + m["shed"] + m["in_flight"]
        if m["tasks"] != books:
            violations.append(f"{label}/{engine}: {m['tasks']} tasks != {books}")
        # Open loop: a cell generates what its scenario's rates prescribe.
        want = expected[seed, scenario]
        if abs(m["tasks"] - want) > 6.0 * math.sqrt(want) + 1.0:
            violations.append(
                f"{label}/{engine}: {m['tasks']} tasks, far from the "
                f"open-loop expectation {want:.1f}"
            )
        if engine != "scalar":
            reference = cells[seed, scenario, policy, "scalar"]
            if m != reference:
                diff = sorted(k for k in m if m[k] != reference.get(k))
                violations.append(
                    f"{label}: {engine} engine disagrees with scalar on {diff}"
                )
    rows = list(cells.values())
    tasks = sum(m["tasks"] for m in rows)
    completed = sum(m["completed"] for m in rows)
    done = [m for m in rows if m["completed"] and m["p99_tct"] is not None]
    if len(done) != len(rows):
        violations.append(f"cells with no completed task: {len(rows) - len(done)}")
    spec = grids[0][0]
    return Outcome(
        device_slots=len(rows) * spec.num_devices * spec.num_slots,
        attempted=tasks,
        failed=tasks - completed,
        tct_mean_s=_geomean(m["mean_tct"] for m in done),
        tct_p99_s=_geomean(m["p99_tct"] for m in done),
        served_frac=completed / tasks if tasks else float("nan"),
        violations=violations,
    )


def _geomean(values) -> float:
    """Geometric mean over cells: each scenario counts by its relative
    change, so the one congested scenario whose queues keep growing
    does not outweigh the rest."""
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs)) if logs else float("nan")


WORKLOADS = {
    w.name: w
    for w in (FleetDppSteady(), FleetQosBurst(), EdgeFaultsServing(), TournamentSmall())
}
