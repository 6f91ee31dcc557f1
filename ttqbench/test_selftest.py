"""Self-tests of the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest -q ttqbench
"""

from __future__ import annotations

import json
import os
import sys
import types

import numpy as np
import pytest

from layers import Boundary, Tracer, installed, master_boundaries, worker_boundaries
from measure import FailureLedger, SeedSchedule, deviation_pct, tail, verify_solution
from report import END_TO_END, PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------- #
# tail rule
# ---------------------------------------------------------------------- #


def test_tail_needs_ten_samples_beyond_and_lies_above_the_median():
    assert tail(list(range(10))) is None
    assert tail(list(range(21))) is None  # rank 11 of 21 is the median
    values = list(range(1, 31))  # 30 samples
    percentile, value = tail(values)
    assert value == 20
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_ignores_input_order():
    values = [float(v) for v in range(100)]
    shuffled = values[::-1]
    assert tail(values) == tail(shuffled) == (90.0, 89.0)


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #


def test_self_time_subtracts_each_child_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("outer")  # [0, 10]
    clock.now = 1.0
    child = tracer.enter("child")  # [1, 4]
    clock.now = 2.0
    grandchild = tracer.enter("grandchild")  # [2, 3]
    clock.now = 3.0
    tracer.exit(grandchild, record=True)
    clock.now = 4.0
    tracer.exit(child, record=True)
    clock.now = 5.0
    counted = tracer.enter("counted")  # [5, 6], no span record
    clock.now = 6.0
    tracer.exit(counted, record=False)
    clock.now = 10.0
    tracer.exit(outer, record=True)

    assert tracer.self_s["grandchild"] == 1.0
    assert tracer.self_s["child"] == 2.0  # 3 s minus the grandchild, not minus it twice
    assert tracer.self_s["counted"] == 1.0
    assert tracer.self_s["outer"] == 6.0  # 10 s minus child (3 s) minus counted (1 s)
    assert sum(tracer.self_s.values()) == tracer.root_s == 10.0
    assert [s[2] for s in tracer.spans] == ["grandchild", "child", "outer"]
    parents = {s[2]: s[1] for s in tracer.spans}
    ids = {s[2]: s[0] for s in tracer.spans}
    assert parents["grandchild"] == ids["child"]
    assert parents["child"] == ids["outer"]
    assert parents["outer"] == 0


def test_spans_must_close_in_order():
    tracer = Tracer(FakeClock())
    first = tracer.enter("a")
    tracer.enter("b")
    with pytest.raises(RuntimeError):
        tracer.exit(first, record=True)


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #


@pytest.fixture
def fake_module():
    module = types.ModuleType("ttqbench_fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    class Thing:
        def method(self, x):
            return module.outer(x)

    module.leaf, module.outer, module.Thing = leaf, outer, Thing
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_wrappers_record_and_are_restored(fake_module):
    originals = (fake_module.leaf, fake_module.outer, fake_module.Thing.__dict__["method"])
    tracer = Tracer()
    boundaries = [
        Boundary("ttqbench_fake:Thing", "method", "thing"),
        Boundary("ttqbench_fake", "outer", "outer"),
        Boundary("ttqbench_fake", "leaf", "leaf", span=False),
    ]
    with installed(tracer, boundaries):
        assert fake_module.Thing().method(1) == 4
    assert tracer.calls == {"thing": 1, "outer": 1, "leaf": 1}
    assert [s[2] for s in tracer.spans] == ["outer", "thing"]  # leaf is counted only
    assert (
        fake_module.leaf, fake_module.outer, fake_module.Thing.__dict__["method"]
    ) == originals


def test_wrappers_are_restored_when_the_run_raises(fake_module):
    original = fake_module.leaf
    with pytest.raises(ZeroDivisionError):
        with installed(Tracer(), [Boundary("ttqbench_fake", "leaf", "leaf")]):
            assert fake_module.leaf is not original
            1 / 0
    assert fake_module.leaf is original


def test_program_boundaries_resolve_and_are_restored():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        pytest.skip("solver sources not present")
    sys.path.insert(0, src)
    try:
        from layers import _resolve

        boundaries = master_boundaries() + worker_boundaries()
        before = [_resolve(b.owner).__dict__[b.attr] for b in boundaries]
        with installed(Tracer(), boundaries):
            during = [_resolve(b.owner).__dict__[b.attr] for b in boundaries]
        after = [_resolve(b.owner).__dict__[b.attr] for b in boundaries]
        assert all(d is not b for d, b in zip(during, before))
        assert all(a is b for a, b in zip(after, before))
    finally:
        sys.path.remove(src)


# ---------------------------------------------------------------------- #
# failure accounting, deviation, verification
# ---------------------------------------------------------------------- #


def test_a_failed_operation_counts_once():
    ledger = FailureLedger()
    assert ledger.record("seed 1", [])
    assert not ledger.record("seed 2", ["infeasible", "objective mismatch"])
    assert not ledger.record("seed 3", ["target not met"])
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.failed / ledger.attempted == pytest.approx(2 / 3)
    assert ledger.reasons == [
        "seed 2: infeasible",
        "seed 2: objective mismatch",
        "seed 3: target not met",
    ]


def test_deviation_against_the_lp_bound():
    assert deviation_pct(200.0, 150.0) == 25.0
    assert deviation_pct(159636.72449590598, 159636.72449590598) == 0.0
    with pytest.raises(ValueError):
        deviation_pct(0.0, 1.0)


def _tiny():
    weights = np.array([[2.0, 3.0, 4.0], [3.0, 1.0, 2.0]])
    capacities = np.array([6.0, 4.0])
    profits = np.array([5.0, 4.0, 6.0])
    return weights, capacities, profits


def test_verify_accepts_a_true_best():
    weights, capacities, profits = _tiny()
    assert verify_solution(weights, capacities, profits, np.array([1, 1, 0]), 9.0) == []


def test_verify_rejects_a_tampered_best():
    weights, capacities, profits = _tiny()
    x = np.array([1, 1, 0])
    assert "solver claimed" in verify_solution(weights, capacities, profits, x, 10.0)[0]
    infeasible = np.array([1, 1, 1])
    assert "infeasible" in verify_solution(weights, capacities, profits, infeasible, 15.0)[0]
    assert verify_solution(weights, capacities, profits, np.array([1, 2, 0]), 13.0)
    assert verify_solution(weights, capacities, profits, np.array([1, 1]), 9.0)


# ---------------------------------------------------------------------- #
# seed schedule
# ---------------------------------------------------------------------- #


def _visit(schedule: SeedSchedule, run_seconds: float, op_seconds: float) -> list[int]:
    clock = FakeClock()

    def operation(seed: int) -> None:
        clock.now += op_seconds

    return schedule.visit(run_seconds, operation, clock)


@pytest.mark.parametrize("run_seconds", [0.1, 5.0, 11.0, 60.0])
def test_seed_schedule_gives_the_same_seed_set_at_any_run_length(run_seconds):
    panel = (1000, 1001, 1002, 1003)
    schedule = SeedSchedule(panel, seed=7)
    visited = _visit(schedule, run_seconds, op_seconds=1.0)
    passes = len(visited) // len(panel)
    assert passes >= 1 and len(visited) == passes * len(panel)
    assert sorted(visited) == sorted(panel * passes)
    assert visited[: len(panel)] == schedule.order()


def test_seed_orders_but_does_not_change_the_panel():
    panel = tuple(range(1000, 1012))
    orders = {tuple(SeedSchedule(panel, seed).order()) for seed in range(20)}
    assert len(orders) > 1
    assert all(sorted(o) == list(panel) for o in orders)
    assert SeedSchedule(panel, 3).order() == SeedSchedule(panel, 3).order()
    assert all(SeedSchedule(panel, s).warmup_seed not in panel for s in range(50))


# ---------------------------------------------------------------------- #
# the declared metrics
# ---------------------------------------------------------------------- #


def test_benchmark_json_declares_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
