"""Warm-pool exactness and cost: :meth:`QoSState.on_slot` against a
reference oracle, and a wall-clock-free linearity check.

The reference is the straightforward quadratic formulation kept here,
in the test file only: every budget comparison re-sums the resident set,
and every cold load re-sorts the unpinned residents.  The production
pool keeps a running total and one eviction order per slot; its holds,
residency (insertion order included), warm times, loads and counters
must match the reference after every slot.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.resilience.qos import DEFAULT_CLASSES, QoSClass, QoSConfig, QoSState


class ReferencePool(QoSState):
    """The warm pool as a direct transcription of its contract."""

    def on_slot(self, slot, w0, requested):
        holds = [w0] * self.num_devices
        self.loads_this_slot = []
        order = sorted(
            (i for i in range(self.num_devices) if requested[i]),
            key=lambda i: (-self.class_at(i).weight, i),
        )
        pinned: set[int] = set()
        for i in order:
            if i in self.resident:
                self.resident[i] = slot
                pinned.add(i)
                holds[i] = self.ready_at.get(i, w0)
                continue
            need = self.footprints[i]
            if self._used() + need > self.budget + 1e-9:
                victims = sorted(
                    (j for j in self.resident if j not in pinned),
                    key=lambda j: (
                        self.class_at(j).weight,
                        self.resident[j],
                        j,
                    ),
                )
                for j in victims:
                    if self._used() + need <= self.budget + 1e-9:
                        break
                    del self.resident[j]
                    self.ready_at.pop(j, None)
                    self.evictions += 1
            self.cold_hits += 1
            warm_time = w0 + self.load_seconds[i]
            self.loads_this_slot.append((i, self.load_seconds[i]))
            if self._used() + need > self.budget + 1e-9 and pinned:
                holds[i] = warm_time
                continue
            self.resident[i] = slot
            self.ready_at[i] = warm_time
            pinned.add(i)
            holds[i] = warm_time
        return holds


#: Two classes of equal weight, so eviction and request order fall
#: through to their last-used and device tie-breaks.
TIED_CLASSES = (
    QoSClass("gold", share=0.3, weight=3.0, deadline=1.0),
    QoSClass("silver", share=0.4, weight=3.0, deadline=2.0),
    QoSClass("bronze", share=0.3, weight=1.0, deadline=5.0),
)


def _footprints(rng: np.random.Generator, n: int) -> list[float]:
    kind = int(rng.integers(5))
    if kind == 0:  # equal, at the proxy-byte scale of real partitions
        return [float(rng.uniform(1e9, 1e10))] * n
    if kind == 1:  # equal and small: exact sums, budgets on multiples
        return [1.0] * n
    if kind == 2:  # small integers
        return [float(f) for f in rng.integers(1, 8, n)]
    if kind == 3:  # proxy-byte scale, all distinct
        return [float(f) for f in rng.uniform(1e9, 1e10, n)]
    # a few distinct partitions, mixed scales
    menu = [1.0, 3.5, float(rng.uniform(1e9, 1e10)), 2.0**33 / 3.0]
    return [menu[int(k)] for k in rng.integers(0, len(menu), n)]


def _snapshot(state: QoSState, holds: list[float]) -> tuple:
    return (
        holds,
        list(state.resident.items()),
        list(state.ready_at.items()),
        list(state.loads_this_slot),
        state.cold_hits,
        state.evictions,
    )


def _drive_case(case: int) -> tuple[int, int]:
    rng = np.random.default_rng([case, 0x9A7E])
    n = int(rng.integers(1, 48))
    fraction = float(rng.uniform(0.05, 1.0))
    if case % 4 == 0:
        # Budgets on an exact multiple of an equal footprint put the
        # running total right on the comparison boundary.
        fraction = max(int(rng.integers(1, n + 1)), 1) / n
    footprints = _footprints(rng, n)
    budget = None
    if case % 4 == 1:
        # Distinct footprints far above the 1e-9 tolerance and a budget
        # that is exactly the float sum of some of them: whether they fit
        # hinges on the last bits of the resident sum, which a running
        # total drifted by loads and evictions gets wrong.
        footprints = [float(f) for f in rng.uniform(1e9, 1e10, n)]
        budget = sum(footprints[: int(rng.integers(1, n + 1))])
    classes = TIED_CLASSES if case % 3 == 0 else DEFAULT_CLASSES
    config = QoSConfig(classes=classes, memory_fraction=fraction)
    pool, oracle = (
        cls(config, None, case, num_devices=n, footprints=footprints,
            budget=budget)
        for cls in (QoSState, ReferencePool)
    )
    p_request = float(rng.uniform(0.1, 1.0))
    for slot in range(int(rng.integers(10, 40))):
        if rng.random() < 0.05:
            pool.flush()
            oracle.flush()
        requested = [bool(b) for b in rng.random(n) < p_request]
        w0 = slot * 0.5
        got = _snapshot(pool, pool.on_slot(slot, w0, requested))
        want = _snapshot(oracle, oracle.on_slot(slot, w0, requested))
        assert got == want, (case, slot)
    return pool.evictions, pool.cold_hits


def test_warm_pool_matches_reference_oracle() -> None:
    evictions = cold_hits = 0
    for case in range(320):
        e, c = _drive_case(case)
        evictions += e
        cold_hits += c
    # The cases must exercise the eviction path, not only cold loads.
    assert evictions > 1000, evictions
    assert cold_hits > evictions, (cold_hits, evictions)


#: The attributes a pickled pool carries: its derived caches (weights,
#: running total) are rebuilt on load, so checkpoints hold only these.
PICKLED_STATE = (
    "config", "num_devices", "class_of", "footprints", "budget",
    "load_seconds", "resident", "ready_at", "loads_this_slot",
    "shed_spent", "cold_hits", "evictions",
)


def test_checkpoint_round_trip_keeps_state_and_running_total() -> None:
    rng = np.random.default_rng(5)
    footprints = [float(f) for f in rng.uniform(1e9, 1e10, 30)]
    config = QoSConfig(memory_fraction=0.3)
    pool = QoSState(config, None, 5, num_devices=30, footprints=footprints)
    oracle = ReferencePool(
        config, None, 5, num_devices=30, footprints=footprints
    )
    for slot in range(40):
        if slot == 20:
            assert tuple(pool.__getstate__()) == PICKLED_STATE
            pool = pickle.loads(pickle.dumps(pool))
        requested = [bool(b) for b in rng.random(30) < 0.7]
        assert _snapshot(pool, pool.on_slot(slot, slot, requested)) == (
            _snapshot(oracle, oracle.on_slot(slot, slot, requested))
        )


class CountingList(list):
    """A list that counts its indexed reads."""

    reads = 0

    def __getitem__(self, index):
        CountingList.reads += 1
        return super().__getitem__(index)


def _footprint_reads(n: int, slots: int = 12) -> int:
    rng = np.random.default_rng(11)
    footprints = [float(f) for f in rng.uniform(1e9, 1e10, n)]
    pool = QoSState(
        QoSConfig(memory_fraction=0.3),
        None,
        11,
        num_devices=n,
        footprints=footprints,
    )
    # The constructor copies ``footprints=`` into a plain list, so the
    # counting list replaces the copy the pool reads from.
    pool.footprints = CountingList(pool.footprints)
    CountingList.reads = 0
    for slot in range(slots):
        requested = [bool(b) for b in rng.random(n) < 0.5]
        pool.on_slot(slot, float(slot), requested)
    assert pool.evictions > n, "the drive must evict every slot"
    return CountingList.reads


@pytest.mark.parametrize("n", [150, 300])
def test_warm_pool_footprint_reads_scale_linearly(n: int) -> None:
    """Doubling the requested fleet at most about doubles the warm
    pool's footprint reads (a pool that re-sums its resident set per
    cold request reads about four times as many)."""
    small = _footprint_reads(n)
    large = _footprint_reads(2 * n)
    assert large <= 2.3 * small, (small, large, large / small)
