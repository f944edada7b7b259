#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-dpp-steady --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

``--trace 0`` measures the end-to-end metrics (host times normalised to
a reference host speed, see ``hostspeed.py``; raw seconds are printed
beside them).  ``--trace 1`` runs the workload once untraced and then
traced, at full size and, for the fleet workloads, in full/half-size
pairs, and reports the per-layer metrics.  ``--workload all`` runs every
workload in a fresh process of its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A broken
identity, a non-deterministic repeat or a missing kernel tick prints
the reason to standard error and exits 1 without a result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = (
    "fleet-dpp-steady",
    "fleet-qos-burst",
    "edge-faults-serving",
    "tournament-small",
)

#: End-to-end metrics and their units, in print order.
END_TO_END = {
    "setup_s": "s",
    "device_slots_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_tct_mean_s": "s",
    "sim_tct_p99_s": "s",
    "sim_served_frac": "ratio",
}

#: Timed repetitions per run: at least this many, then more until
#: ``--seconds`` have passed (at most ``MAX_REPS``).
MIN_REPS = 3
MAX_REPS = 50
#: Set-up repetitions before each timed repetition (``setup_s`` is the
#: median over all of them): at least ``SETUP_REPS``, then more until
#: ``SETUP_SECONDS`` have passed (at most ``MAX_SETUP_REPS``).  Spread
#: through the run, set-up is timed across the same host-speed regimes
#: as the timed runs rather than in one window of about a second.
SETUP_REPS = 2
SETUP_SECONDS = 0.25
MAX_SETUP_REPS = 100
#: Fleet fraction of the traced run's second, scaling pass.
SCALE_FRACTION = 0.5
#: Full/half-size traced pairs whose median exponent is reported.
SCALE_PAIRS = 3
#: Workloads the traced run repeats at ``SCALE_FRACTION`` of the fleet.
SCALED_WORKLOADS = ("fleet-dpp-steady", "fleet-qos-burst", "edge-faults-serving")
#: Layers whose scaling exponent the traced run reports.
SCALED_LAYERS = ("qos.on_slot", "policy.decide", "simulator.run_self", "events.window")


class BenchmarkError(RuntimeError):
    """A run whose outputs are wrong; no numbers may be recorded."""


def _fail_on(outcome, label: str) -> None:
    if outcome.violations:
        raise BenchmarkError(f"{label}: " + "; ".join(outcome.violations))


def _warm_up(workload, clock) -> None:
    """Import lazily loaded modules, fill caches and warm the kernel."""
    for _ in range(10):
        clock.tick()
    inputs = workload.build(0, fraction=0.1)
    clock.reset()
    workload.execute(inputs, clock)
    clock.reset()


def _timed_setup(workload, seed: int, clock):
    clock.reset()
    clock.tick()
    workload.build(seed)
    clock.tick()
    return clock.timing()


def _timed_run(workload, inputs, clock):
    clock.reset()
    clock.tick()
    outcome = workload.execute(inputs, clock)
    clock.tick()
    timing = clock.timing()
    if timing.ticks < inputs["ticks"] + 2:
        raise BenchmarkError(
            f"the host-speed kernel ran {timing.ticks - 2} times for "
            f"{inputs['ticks']} slots"
        )
    return outcome, timing


def measure(workload, seed: int, seconds: float, clock) -> tuple[dict, object]:
    """End-to-end metrics (untraced): ``(metrics, outcome)``.  Each value
    is ``(normalised, raw)`` for host times, ``(value, None)`` otherwise."""
    from hostspeed import median_total

    _warm_up(workload, clock)
    setups = []
    runs = []
    reference = None
    started = time.perf_counter()
    while len(runs) < MIN_REPS or (
        time.perf_counter() - started < seconds and len(runs) < MAX_REPS
    ):
        burst = time.perf_counter()
        for i in range(MAX_SETUP_REPS):
            if i >= SETUP_REPS and time.perf_counter() - burst >= SETUP_SECONDS:
                break
            setups.append(_timed_setup(workload, seed, clock))
        inputs = workload.build(seed)
        outcome, timing = _timed_run(workload, inputs, clock)
        del inputs
        _fail_on(outcome, workload.name)
        if reference is None:
            reference = outcome
        elif outcome.signature() != reference.signature():
            raise BenchmarkError(
                f"{workload.name}: repeat {len(runs)} of seed {seed} differs "
                f"from the first: {outcome.signature()} != {reference.signature()}"
            )
        runs.append(timing)
    total = median_total(runs)
    metrics = {
        "setup_s": (
            statistics.median(t.normalised_s for t in setups),
            statistics.median(t.raw_s for t in setups),
        ),
        "device_slots_per_s": (
            reference.device_slots / total.normalised_s,
            reference.device_slots / total.raw_s,
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            None,
        ),
        "sim_tct_mean_s": (reference.tct_mean_s, None),
        "sim_tct_p99_s": (reference.tct_p99_s, None),
        "sim_served_frac": (reference.served_frac, None),
    }
    print(f"{workload.name}: seed {seed}, {len(runs)} timed runs, "
          f"{len(setups)} set-ups, parameters {json.dumps(workload.params())}")
    return metrics, reference


def _traced_pass(workload, seed: int, clock, fraction: float):
    """One traced run: ``(tracer, outcome, timing, slowdown)``, where
    ``slowdown`` is the host's median slowdown over the run's ticks."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        inputs = workload.build(seed, fraction)
        outcome, timing = _timed_run(workload, inputs, clock)
    _fail_on(outcome, f"{workload.name} (traced, fraction {fraction})")
    return tracer, outcome, timing, clock.median_slowdown()


def _scaled_times(tracer, slowdown: float) -> dict:
    """The scaled layers' times of one traced pass, at the reference
    host speed."""
    return {
        "qos.on_slot": tracer.inclusive["qos.on_slot"] / slowdown,
        "policy.decide": tracer.inclusive["policy.decide"] / slowdown,
        "simulator.run_self": tracer.self_time["simulator.run"] / slowdown,
        "events.window": tracer.inclusive["events.window"] / slowdown,
    }


def _scale_k(full: float, half: float) -> float:
    """``log2(t_N / t_N/2)``; 0.0 where the layer did not run."""
    if full <= 0.0 or half <= 0.0:
        return 0.0
    return math.log2(full / half)


def scale_exponents(pairs: list[tuple[dict, dict]]) -> dict:
    """Each scaled layer's median exponent over full/half pairs of
    :func:`_scaled_times`; 0.0 for every layer without pairs."""
    return {
        f"{layer}_scale_k": (
            statistics.median(_scale_k(f[layer], h[layer]) for f, h in pairs)
            if pairs
            else 0.0
        )
        for layer in SCALED_LAYERS
    }


def layer_metrics(tracer, outcome, host: dict, exponents: dict) -> dict:
    """The per-layer metrics of one traced run (see README.md): the
    full-size traced pass's layers, the ``host`` figures and the scaling
    ``exponents``."""
    inc = tracer.inclusive
    own = tracer.self_time
    calls = tracer.calls
    counts = tracer.counts

    requested = counts["qos.requested"]
    values = {
        "arrivals.sample_s": inc["arrivals.sample"],
        "arrivals.sample_calls": calls["arrivals.sample"],
        "policy.decide_s": inc["policy.decide"],
        "policy.decide_calls": calls["policy.decide"],
        "vectorized.fleet_params_s": inc["vectorized.fleet_params"],
        "vectorized.fleet_params_builds": counts["vectorized.fleet_params_builds"],
        "vectorized.slot_costs_s": inc["vectorized.slot_costs"],
        "offloading.slot_cost_s": inc["offloading.slot_cost"],
        "offloading.slot_cost_calls": calls["offloading.slot_cost"],
        "exit_setting.search_s": inc["exit_setting.search"],
        "simulator.run_self_s": own["simulator.run"],
        "overload.observe_s": inc["overload.observe"],
        "overload.admit_s": inc["overload.admit"],
        "overload.admit_calls": calls["overload.admit"],
        "overload.mode_changes": counts["overload.mode_changes"],
        "qos.on_slot_s": inc["qos.on_slot"],
        "qos.on_slot_calls": calls["qos.on_slot"],
        "qos.plan_s": inc["qos.plan"],
        "qos.degrade_s": inc["qos.degrade"],
        "qos.share_scales_s": inc["qos.share_scales"],
        "qos.clamp_s": inc["qos.clamp"],
        "qos.cold_hits": counts["qos.cold_hits"],
        "qos.evictions": counts["qos.evictions"],
        "qos.cold_hit_frac": counts["qos.cold_hits"] / requested if requested else 0.0,
        "events.fast_run_s": inc["events.fast_run"],
        "events.fast_self_s": own["events.fast_run"],
        "events.window_s": inc["events.window"],
        "events.window_calls": calls["events.window"],
        "events.fixpoint_rounds": counts["events.fixpoint_rounds"],
        "events.fifo_s": inc["events.fifo"],
        "events.fifo_rows": counts["events.fifo_rows"],
        "events.scalar_run_s": tracer.scalar_run_s(),
        "faults.retries": outcome.counts.get("faults.retries", 0),
        "faults.dropped": outcome.counts.get("faults.dropped", 0),
        "streaming.fold_s": inc["streaming.fold"],
        "checkpoint.snapshot_s": inc["checkpoint.snapshot"],
        "checkpoint.count": counts["checkpoint.count"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "traces.replay_s": inc["traces.replay"],
    }
    values.update(host)
    values.update(exponents)
    return values


def layer_unit(name: str) -> str:
    """Per-layer metric units: host seconds, rates, scaling exponents,
    ratios and counts."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_k"):
        return "exponent"
    if name.endswith(("_frac", "_slowdown")):
        return "ratio"
    return "count"


def trace(workload, seed: int, clock) -> tuple[dict, object]:
    _warm_up(workload, clock)
    inputs = workload.build(seed)
    untraced, plain = _timed_run(workload, inputs, clock)
    _fail_on(untraced, workload.name)
    host = {
        "host.kernel_slowdown": clock.median_slowdown(),
        "host.raw_device_slots_per_s": untraced.device_slots / plain.raw_s,
        "host.device_slots_per_s": untraced.device_slots / plain.normalised_s,
    }
    del inputs
    tracer, outcome, timing, slowdown = _traced_pass(workload, seed, clock, 1.0)
    if outcome.signature() != untraced.signature():
        raise BenchmarkError(f"{workload.name}: tracing changed the outputs")
    host["trace.overhead_frac"] = timing.normalised_s / plain.normalised_s - 1.0
    dump = {"workload": workload.name, "seed": seed, "full": tracer.dump()}
    pairs = []
    if workload.name in SCALED_WORKLOADS:
        full = _scaled_times(tracer, slowdown)
        for i in range(SCALE_PAIRS):
            if i:
                again, _, _, again_slowdown = _traced_pass(workload, seed, clock, 1.0)
                full = _scaled_times(again, again_slowdown)
            half, _, _, half_slowdown = _traced_pass(
                workload, seed, clock, SCALE_FRACTION
            )
            pairs.append((full, _scaled_times(half, half_slowdown)))
            if not i:
                dump["half"] = half.dump()
    values = layer_metrics(tracer, outcome, host, scale_exponents(pairs))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(dump) + "\n")
    print(f"{workload.name}: seed {seed}, spans written to {path.relative_to(ROOT)}")
    return {name: (value, None) for name, value in values.items()}, outcome


def _print_table(metrics: dict, units) -> None:
    for name, (value, raw) in metrics.items():
        extra = "" if raw is None else f"   (raw {raw:.6g} {units(name)})"
        print(f"  {name:32s} {value:>14.6g} {units(name):6s}{extra}")


def run_all(args) -> int:
    """Each workload in a fresh process of its own; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, row in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = row
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    from hostspeed import HostClock
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    clock = HostClock()
    try:
        if args.trace:
            metrics, outcome = trace(workload, args.seed, clock)
            units = layer_unit
        else:
            metrics, outcome = measure(workload, args.seed, args.seconds, clock)
            units = END_TO_END.__getitem__
    except BenchmarkError as exc:
        print(f"incorrect: {exc}", file=sys.stderr)
        return 1
    _print_table(metrics, units)
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units(name)}
            for name, (value, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
