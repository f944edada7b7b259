"""Self-tests of the benchmark (run with ``python3 -m pytest perfbench -q``)."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from hostspeed import HostClock, KernelEnvironment, Timing, median_total  # noqa: E402
from tracer import LAYERS, Tracer, _resolve  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def patch_points() -> dict[tuple[int, str], object]:
    """Every binding the tracer may patch, keyed by owner and name."""
    points = {}
    for layer in LAYERS:
        for target in layer.targets:
            for owner, attr in _resolve(target):
                points[id(owner), attr] = vars(owner)[attr]
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and module is not None:
            for attr, value in vars(module).items():
                if callable(value):
                    points[id(module), attr] = value
    return points


def _bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_spec():
    outcome = Outcome(1, 1, 0, 1.0, 1.0, 1.0)
    host = {
        "host.kernel_slowdown": 1.0,
        "host.raw_device_slots_per_s": 1.0,
        "host.device_slots_per_s": 1.0,
        "trace.overhead_frac": 0.0,
    }
    produced_layers = set(
        run.layer_metrics(Tracer(), outcome, host, run.scale_exponents([]))
    )
    spec = _bench_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names + list(produced_layers) + list(run.END_TO_END):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == produced_layers
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", ["fleet-dpp-steady", "edge-faults-serving"])
def test_kernel_runs_once_per_slot(name):
    # 50 devices: the edge workload then runs the scalar event engine,
    # so both event engines and the fluid path are covered.
    workload = WORKLOADS[name]
    clock = HostClock()
    inputs = workload.build(3, fraction=0.01)
    outcome = workload.execute(inputs, clock)
    assert not outcome.violations
    assert clock.count == inputs["ticks"] == workload.slots


def test_kernel_environment_forwards_everything_else():
    class Inner:
        def devices_at(self, slot, base, rng):
            return tuple(base)

        def system_at(self, slot, base):
            return ("system", slot)

    clock = HostClock()
    env = KernelEnvironment(Inner(), clock)
    base = (1, 2)
    assert env.devices_at(0, base, None) == base
    assert env.system_at(4, None) == ("system", 4)
    assert not hasattr(KernelEnvironment(object(), clock), "system_at")
    assert clock.count == 1


def test_median_total_counts_every_interval_and_drops_a_stall():
    a = Timing(raw=(1.0, 2.0, 3.0), normalised=(1.0, 2.0, 3.0))
    stalled = Timing(raw=(1.0, 9.0, 3.0), normalised=(1.0, 9.0, 3.0))
    total = median_total([a, stalled, a])
    assert total.raw_s == 6.0 and total.normalised_s == 6.0
    with pytest.raises(ValueError):
        median_total([a, Timing(raw=(1.0,), normalised=(1.0,))])


def test_scale_exponents_are_taken_at_reference_speed():
    # The full pass ran in a regime 1.45x slower than the half pass: the
    # exponent of a quadratic layer must still read 2.
    full, half = Tracer(), Tracer()
    full.inclusive["qos.on_slot"] = 4.0 * 1.45
    half.inclusive["qos.on_slot"] = 1.0
    pairs = [
        (run._scaled_times(full, 1.45), run._scaled_times(half, 1.0)),
        (run._scaled_times(half, 1.0), run._scaled_times(half, 1.0)),
        (run._scaled_times(full, 1.45), run._scaled_times(half, 1.0)),
    ]
    exponents = run.scale_exponents(pairs)
    assert math.isclose(exponents["qos.on_slot_scale_k"], 2.0)
    assert exponents["events.window_scale_k"] == 0.0


def test_traced_run_leaves_nothing_patched():
    workload = WORKLOADS["fleet-qos-burst"]
    before = patch_points()
    tracer, outcome, _, _ = run._traced_pass(workload, 5, HostClock(), 0.02)
    after = patch_points()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed
    assert tracer.calls["qos.on_slot"] == workload.slots
    assert tracer.calls["simulator.run"] == 1
    assert tracer.calls["bench.kernel"] == workload.slots + 2


def test_injected_identity_violation_fails_the_command():
    script = (
        "import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
        "import workloads\n"
        "workloads._arrival_check = lambda *args: ['injected violation']\n"
        "import run\n"
        "sys.exit(run.main(['--workload', 'fleet-dpp-steady', '--seconds', '0']))\n"
    ).format(src=str(ROOT / "src"), here=str(HERE))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert proc.returncode == 1
    assert "injected violation" in proc.stderr
    assert '"correct"' not in proc.stdout
