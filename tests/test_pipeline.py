"""Tests for the bounded-staleness pipelined master (DESIGN.md §5.9).

Pins the async-mode contracts the ISSUE-9 tentpole promises:

* config validation for ``pipeline`` / ``max_staleness`` / ``queue_depth`` /
  ``burst_timeout_s`` and the runner's keyword wiring,
* seeded determinism under :class:`SerialBackend` replay (inline execution
  makes arrival order equal dispatch order),
* the sync default stays the default — an explicit ``pipeline="sync"`` is
  bit-identical to a plain run,
* round-compatible windows: an async run still yields one
  :class:`RoundStats` per round with a monotone incumbent,
* the staleness bound holds (``pipeline_stats["max_staleness"]`` never
  exceeds the configured cap),
* chaos legs over the multiprocessing backend: a straggler inflates
  only its own burst latency, a crashed worker is failed + respawned, a
  duplicated report is counted and folded once, a dropped report is timed
  out without deadlocking,
* the recorder stream stays schema-valid and carries one
  ``burst_telemetry`` event per (slave, burst) resolution.
"""

from __future__ import annotations

import os

import pytest

from repro.core import Budget, Strategy, TabuSearchConfig, random_solution
from repro.farm import ALPHA_FARM
from repro.master import MasterConfig, MasterProcess
from repro.obs import RunRecorder, validate_stream
from repro.parallel import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    MultiprocessingBackend,
    SerialBackend,
    SlaveTask,
)
from repro.variants import solve_cts1, solve_cts2

ENV_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "101"))

N_SLAVES = 3
N_ROUNDS = 4
EVALS = 2_000


def solve_async(instance, *, backend=None, rng_seed=7, n_slaves=N_SLAVES,
                n_rounds=N_ROUNDS, **kwargs):
    return solve_cts2(
        instance,
        n_slaves=n_slaves,
        n_rounds=n_rounds,
        rng_seed=rng_seed,
        max_evaluations=EVALS,
        backend=backend,
        pipeline="async",
        **kwargs,
    )


class TestConfigValidation:
    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="pipeline"):
            MasterConfig(n_slaves=2, n_rounds=2, pipeline="turbo")

    def test_max_staleness_floor(self):
        with pytest.raises(ValueError, match="max_staleness"):
            MasterConfig(n_slaves=2, n_rounds=2, max_staleness=0)

    def test_queue_depth_floor(self):
        with pytest.raises(ValueError, match="queue_depth"):
            MasterConfig(n_slaves=2, n_rounds=2, queue_depth=0)

    def test_burst_timeout_positive_or_none(self):
        with pytest.raises(ValueError, match="burst_timeout_s"):
            MasterConfig(n_slaves=2, n_rounds=2, burst_timeout_s=0.0)
        cfg = MasterConfig(n_slaves=2, n_rounds=2, burst_timeout_s=None)
        assert cfg.burst_timeout_s is None

    def test_defaults_are_sync_double_buffer(self):
        cfg = MasterConfig(n_slaves=2, n_rounds=2)
        assert cfg.pipeline == "sync"
        assert cfg.max_staleness == 2
        assert cfg.queue_depth == 2


class TestRunnerWiring:
    def test_master_config_conflicts_with_pipeline_kwarg(self, small_instance):
        cfg = MasterConfig(n_slaves=2, n_rounds=2)
        with pytest.raises(ValueError, match="master_config"):
            solve_cts2(
                small_instance,
                max_evaluations=EVALS,
                master_config=cfg,
                pipeline="async",
            )
        with pytest.raises(ValueError, match="master_config"):
            solve_cts2(
                small_instance,
                max_evaluations=EVALS,
                master_config=cfg,
                max_staleness=3,
            )

    def test_explicit_sync_is_bit_identical_to_default(self, small_instance):
        base = solve_cts2(
            small_instance, n_slaves=N_SLAVES, n_rounds=N_ROUNDS,
            rng_seed=7, max_evaluations=EVALS,
        )
        explicit = solve_cts2(
            small_instance, n_slaves=N_SLAVES, n_rounds=N_ROUNDS,
            rng_seed=7, max_evaluations=EVALS, pipeline="sync",
        )
        assert base.pipeline == explicit.pipeline == "sync"
        assert base.pipeline_stats == explicit.pipeline_stats == {}
        assert base.best.value == explicit.best.value
        assert base.value_history == explicit.value_history
        assert base.total_evaluations == explicit.total_evaluations

    def test_cts1_supports_async_too(self, small_instance):
        result = solve_cts1(
            small_instance, n_slaves=N_SLAVES, n_rounds=N_ROUNDS,
            rng_seed=7, max_evaluations=EVALS, pipeline="async",
        )
        assert result.pipeline == "async"
        assert result.n_rounds == N_ROUNDS


class TestSerialAsync:
    def test_seeded_replay_is_deterministic(self, small_instance):
        a = solve_async(small_instance)
        b = solve_async(small_instance)
        assert a.best.value == b.best.value
        assert (a.best.items == b.best.items).all()
        assert a.value_history == b.value_history
        assert a.total_evaluations == b.total_evaluations
        # Wall-clock aggregates (reclaimed idle, master wait) jitter;
        # the schedule-derived stats must replay exactly.
        for key in ("bursts_completed", "burst_failures", "max_staleness",
                    "mean_queue_depth"):
            assert a.pipeline_stats[key] == b.pipeline_stats[key]

    def test_round_compatible_result_shape(self, small_instance):
        result = solve_async(small_instance)
        assert result.pipeline == "async"
        assert result.n_rounds == N_ROUNDS
        assert [s.round_index for s in result.rounds] == list(range(N_ROUNDS))
        history = result.value_history
        assert history == sorted(history), "incumbent regressed"
        assert result.best.value == history[-1]
        assert result.best.is_feasible(small_instance)
        # Async is pure wall-clock: no virtual-farm makespan to report.
        assert result.virtual_seconds == 0.0
        assert result.trace is None

    def test_pipeline_stats_populated_and_bounded(self, small_instance):
        result = solve_async(small_instance)
        stats = result.pipeline_stats
        assert stats["bursts_completed"] == N_SLAVES * N_ROUNDS
        assert stats["burst_failures"] == 0
        assert 0 <= stats["max_staleness"] <= 2  # config default cap
        assert stats["mean_queue_depth"] >= 0.0

    def test_custom_staleness_cap_holds(self, small_instance):
        cfg = MasterConfig(
            n_slaves=N_SLAVES, n_rounds=6, pipeline="async", max_staleness=3
        )
        backend = SerialBackend(N_SLAVES)
        master = MasterProcess(small_instance, cfg, backend, rng_seed=7)
        try:
            result = master.run(budget_per_slave=Budget(max_evaluations=EVALS))
        finally:
            backend.shutdown()
        assert result.pipeline_stats["max_staleness"] <= 3

    def test_recorder_stream_schema_and_burst_events(
        self, small_instance, tmp_path
    ):
        path = tmp_path / "async.jsonl"
        cfg = MasterConfig(n_slaves=N_SLAVES, n_rounds=N_ROUNDS, pipeline="async")
        backend = SerialBackend(N_SLAVES)
        recorder = RunRecorder(path)
        master = MasterProcess(
            small_instance, cfg, backend, rng_seed=7, recorder=recorder
        )
        try:
            master.run(budget_per_slave=Budget(max_evaluations=EVALS))
        finally:
            recorder.close()
            backend.shutdown()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert validate_stream(lines) == []
        kinds = [e["event"] for e in recorder.events]
        # One resolution per (slave, burst); the sync-shaped round group
        # still closes once per burst window.
        assert kinds.count("burst_telemetry") == N_SLAVES * N_ROUNDS
        assert kinds.count("round_start") == N_ROUNDS
        assert kinds.count("round_end") == N_ROUNDS
        bursts = [e for e in recorder.events if e["event"] == "burst_telemetry"]
        assert all(b["outcome"] == "report" for b in bursts)
        assert all(b["staleness"] <= 2 for b in bursts)
        assert recorder.metrics.counter_value(
            "repro_bursts_total", outcome="report"
        ) == N_SLAVES * N_ROUNDS


class TestAsyncGuards:
    def test_farm_model_is_rejected(self, small_instance):
        cfg = MasterConfig(n_slaves=2, n_rounds=2, pipeline="async")
        backend = SerialBackend(2)
        master = MasterProcess(
            small_instance, cfg, backend, rng_seed=0, farm=ALPHA_FARM
        )
        try:
            with pytest.raises(ValueError, match="virtual-farm"):
                master.run(budget_per_slave=Budget(max_evaluations=500))
        finally:
            backend.shutdown()

    def test_sync_only_backend_is_rejected(self, small_instance):
        class SyncOnlyBackend:
            """run_round-only contract (pre-pipeline third-party backend)."""

            def __init__(self, inner):
                self._inner = inner
                self.n_slaves = inner.n_slaves

            def start(self, instance, config):
                return self._inner.start(instance, config)

            def run_round(self, tasks):
                return self._inner.run_round(tasks)

            def shutdown(self):
                return self._inner.shutdown()

        backend = SyncOnlyBackend(SerialBackend(2))
        cfg = MasterConfig(n_slaves=2, n_rounds=2, pipeline="async")
        master = MasterProcess(small_instance, cfg, backend, rng_seed=0)
        try:
            with pytest.raises(TypeError, match="dispatch"):
                master.run(budget_per_slave=Budget(max_evaluations=500))
        finally:
            backend.shutdown()


def _warmup_tasks(instance, n, round_index=99):
    """One cheap task per slave, indexed past any fault schedule."""
    return [
        SlaveTask(
            x_init=random_solution(instance, rng=k),
            strategy=Strategy(8, 2, 10),
            budget=Budget(max_evaluations=200),
            seed=1000 + k,
            round_index=round_index,
            seq_id=round_index * n + k,
        )
        for k in range(n)
    ]


def run_async_master(
    instance,
    backend,
    *,
    n_slaves,
    n_rounds=N_ROUNDS,
    burst_timeout_s=30.0,
    rng_seed=7,
):
    """Async solve with a pinned burst timeout (the runner keeps the
    default; loss-detection tests need a short one)."""
    cfg = MasterConfig(
        n_slaves=n_slaves,
        n_rounds=n_rounds,
        pipeline="async",
        burst_timeout_s=burst_timeout_s,
    )
    master = MasterProcess(instance, cfg, backend, rng_seed=rng_seed)
    return master.run(budget_per_slave=Budget(max_evaluations=EVALS))


def _chaos_backend(n_slaves, plan, **kwargs):
    return MultiprocessingBackend(n_slaves, fault_plan=plan, **kwargs)


@pytest.mark.slow
@pytest.mark.chaos
class TestMultiprocessingAsyncChaos:
    def test_straggler_stalls_only_its_own_bursts(self, small_instance):
        # Factor 15 => the worker sleeps min(0.05 * 14, 1.0) = 0.7 s at
        # burst 1 before reporting.
        plan = FaultPlan(
            events=(FaultEvent(1, 0, FaultKind.STRAGGLE, factor=15.0),)
        )
        backend = _chaos_backend(N_SLAVES, plan)
        with backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            # Warm-up round past the fault schedule: worker startup must
            # not pollute the burst latencies asserted below.
            backend.run_round(_warmup_tasks(small_instance, N_SLAVES))
            result = solve_async(small_instance, backend=backend)
        history = result.value_history
        assert history == sorted(history), "incumbent regressed under straggle"
        assert result.pipeline_stats["burst_failures"] == 0
        # Window 1's latency map attributes the sleep to slave 0 alone.
        idle = result.rounds[1].gather_idle_s
        assert idle[0] >= 0.6
        assert all(idle[k] < 0.5 for k in idle if k != 0)

    def test_crashed_worker_is_failed_and_respawned(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.CRASH),))
        backend = _chaos_backend(2, plan, round_timeout_s=30.0)
        with backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            result = solve_async(
                small_instance, backend=backend, n_slaves=2, n_rounds=6
            )
            # The dead worker's in-flight bursts were failed, the fleet
            # respawned it lazily on the next dispatch, and it served again.
            assert backend.respawns[0] >= 1
        assert result.fault_summary["failed"] >= 1
        assert result.pipeline_stats["burst_failures"] >= 1
        history = result.value_history
        assert history == sorted(history), "incumbent regressed under crash"
        assert result.n_rounds == 6

    def test_duplicate_report_is_counted_and_folded_once(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.DUPLICATE_REPORT),))
        backend = _chaos_backend(N_SLAVES, plan)
        with backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            result = solve_async(small_instance, backend=backend)
        assert result.fault_summary.get("duplicates", 0) >= 1
        # The duplicate never double-resolves a burst: all P*R bursts
        # complete exactly once.
        assert result.pipeline_stats["bursts_completed"] == N_SLAVES * N_ROUNDS
        history = result.value_history
        assert history == sorted(history)

    def test_dropped_report_times_out_not_deadlocks(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.DROP_REPORT),))
        backend = _chaos_backend(2, plan)
        with backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            result = run_async_master(
                small_instance, backend, n_slaves=2, burst_timeout_s=1.0
            )
        assert result.fault_summary["failed"] >= 1
        assert result.n_rounds == N_ROUNDS
        history = result.value_history
        assert history == sorted(history)

    def test_seeded_chaos_solve_keeps_incumbent_monotone(self, small_instance):
        plan = FaultPlan.from_seed(
            ENV_SEED,
            n_slaves=N_SLAVES,
            n_rounds=N_ROUNDS,
            crash_rate=0.1,
            report_drop_rate=0.1,
            duplicate_rate=0.15,
            delay_rate=0.15,
            straggle_rate=0.2,
        )
        backend = _chaos_backend(N_SLAVES, plan)
        with backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            result = run_async_master(
                small_instance, backend, n_slaves=N_SLAVES, burst_timeout_s=2.0
            )
        history = [float(v) for v in result.value_history]
        assert history, "chaos run produced no incumbent history"
        assert history == sorted(history), "incumbent regressed under chaos"
        assert result.best.value == history[-1]
        assert result.n_rounds == N_ROUNDS


@pytest.mark.slow
class TestMultiprocessingAsyncFaultFree:
    def test_completes_with_all_bursts(self, small_instance, mp_context):
        backend = MultiprocessingBackend(N_SLAVES, mp_context=mp_context)
        with backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            result = solve_async(small_instance, backend=backend)
        assert result.pipeline == "async"
        assert result.pipeline_stats["bursts_completed"] == N_SLAVES * N_ROUNDS
        assert result.pipeline_stats["burst_failures"] == 0
        assert result.fault_summary == {}
        history = result.value_history
        assert history == sorted(history)
