"""Round-loop overhead: warm runtimes + multiplexed gather vs the PR-3 loop.

The Fig. 2 master hands out *short* per-round budgets, so the round loop's
fixed costs — rebuilding every slave's search runtime from scratch and the
rank-ordered gather with its per-slave timeouts and 1.0 s duplicate grace
sleep — rival the search itself.  This bench A/Bs the current loop against
a faithful in-bench replica of the PR-3 behaviour on a GK instance at
``P = 8`` with short per-round budgets:

* ``serial warm``  vs ``serial cold`` — per-slave
  :class:`~repro.parallel.runtime.SlaveRuntime` reuse vs per-task
  reconstruction, master-driven, rounds/sec (the headline >= 1.3x gate);
* ``mp warm`` vs ``mp rank-ordered cold`` — persistent workers with the
  ``connection.wait()`` gather vs cold construction plus the old
  rank-ordered ``recv(timeout)`` chain (:class:`RankOrderedBackend`);
* ``dead-rank gather`` — with ``D`` silent slaves and round timeout ``T``
  the multiplexed gather pays ``T`` once, the rank-ordered chain pays
  ``D x T`` sequentially;
* ``straggler attribution`` — one slow slave inflates only its own
  ``last_gather_idle_s`` entry; its peers are collected the moment they
  report.

Every comparison also asserts bit-identical incumbents between the arms —
the warm/multiplexed loop is an *overhead* change, never a trajectory
change.  Results land in ``benchmarks/results/BENCH_round_overhead.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_round_overhead.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Sequence

import pytest

from repro.core import Budget, Strategy, TabuSearchConfig, random_solution
from repro.instances import gk_instance
from repro.obs import RunRecorder
from repro.parallel import (
    CommTimeout,
    FaultEvent,
    FaultKind,
    FaultPlan,
    MultiprocessingBackend,
    SerialBackend,
    SlaveReport,
    SlaveTask,
)
from repro.parallel.message import RESULT_TAG, TASK_TAG

from common import publish, scaled

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_round_overhead.json"

N_SLAVES = 8
EVALS_PER_ROUND = 150  # short budgets: the setup-dominated regime
GK_NUMBER = 10  # GK10-10x100


class RankOrderedBackend(MultiprocessingBackend):
    """PR-3 gather replica: rank-ordered ``recv(timeout)`` + 1.0 s dup grace.

    Lives in the bench only — production keeps the multiplexed loop — so
    the A/B always compares against the exact superseded behaviour instead
    of a guess about it.  Scatter, fault handling and bookkeeping are the
    parent's; only the gather strategy differs.
    """

    def run_round(self, tasks: Sequence[SlaveTask | None]) -> list[SlaveReport]:
        if not self._procs:
            raise RuntimeError("backend not started: call start() first")
        if len(tasks) != self.n_slaves:
            raise ValueError(f"expected {self.n_slaves} tasks; got {len(tasks)}")
        self.last_task_nbytes = {}
        self.last_report_nbytes = {}
        self.last_gather_idle_s = {}
        t_scatter = time.perf_counter()
        sent: list[int] = []
        for k, task in enumerate(tasks):
            if task is None:
                continue
            try:
                comm = self._ensure_alive(k)
                before = comm.bytes_sent
                comm.send(task, tag=TASK_TAG)
                self.last_task_nbytes[k] = comm.bytes_sent - before
                sent.append(k)
            except (BrokenPipeError, OSError):
                self.fault_counters["send_failed"] += 1
                self._bury(k)
        t_gather = time.perf_counter()
        reports: list[SlaveReport] = []
        for k in sent:  # rank order: slave k+1 waits behind slave k
            comm = self._comms[k]
            if comm is None:
                continue
            try:
                before = comm.bytes_received
                report = comm.recv(tag=RESULT_TAG, timeout=self.round_timeout_s)
                self.last_gather_idle_s.setdefault(
                    k, time.perf_counter() - t_gather
                )
                reports.append(report)
                task = tasks[k]
                drain_wait = (
                    1.0
                    if task is not None
                    and self.fault_plan.duplicates_report(task.round_index, k)
                    else 0.0
                )
                while comm.poll(drain_wait):
                    reports.append(comm.recv(tag=RESULT_TAG))
                    drain_wait = 0.0
                self.last_report_nbytes[k] = comm.bytes_received - before
            except (CommTimeout, EOFError, OSError):
                self.fault_counters["gather_lost"] += 1
                self._bury(k)
        t_end = time.perf_counter()
        self.last_master_wait_s = t_end - t_gather
        self.last_phase_seconds = {
            "scatter": t_gather - t_scatter,
            "compute": 0.0,
            "gather": t_end - t_gather,
        }
        self.phase_totals.update(self.last_phase_seconds)
        self.phase_totals["master_wait"] += self.last_master_wait_s
        reports.sort(key=lambda r: (r.slave_id, r.seq_id))
        return reports


# --------------------------------------------------------------------- #
# Rounds/sec arms (direct backend rounds, tasks pre-built outside timing)
# --------------------------------------------------------------------- #
def make_tasks(instance, round_index: int, evals: int):
    return [
        SlaveTask(
            x_init=random_solution(instance, rng=k),
            strategy=Strategy(8, 2, 10),
            budget=Budget(max_evaluations=evals),
            seed=100 * round_index + k,
            round_index=round_index,
            seq_id=round_index * N_SLAVES + k,
        )
        for k in range(N_SLAVES)
    ]


def report_key(r: SlaveReport):
    return (r.slave_id, r.seq_id, r.best, tuple(r.elite), r.evaluations, r.moves)


def _time_rounds(backend, all_tasks, n_warmup: int):
    """Run all rounds on ``backend``; time the post-warm-up ones.

    Returns (wall seconds over the timed rounds, per-round report keys for
    the identity check, cumulative master blocked-wait seconds).
    """
    instance = gk_instance(GK_NUMBER)
    backend.start(instance, TabuSearchConfig(nb_div=10_000))
    try:
        keys = []
        for tasks in all_tasks[:n_warmup]:
            backend.run_round(tasks)
        wait_before = backend.phase_totals["master_wait"]
        t0 = time.perf_counter()
        for tasks in all_tasks[n_warmup:]:
            keys.append([report_key(r) for r in backend.run_round(tasks)])
        wall = time.perf_counter() - t0
        master_wait = backend.phase_totals["master_wait"] - wait_before
        return wall, keys, master_wait
    finally:
        backend.shutdown()


def measure_ab(
    label_a: str,
    factory_a,
    label_b: str,
    factory_b,
    n_rounds: int,
    evals_per_round: int,
    repeats: int = 3,
    n_warmup: int = 3,
) -> dict:
    """Interleaved best-of-``repeats`` A/B of two backend factories.

    Identical tasks feed both arms; every repeat asserts the two arms'
    reports are bit-identical round by round.  Best-of interleaved windows
    is the house defense against host-load drift (cf. bench_fault_overhead).
    """
    instance = gk_instance(GK_NUMBER)
    all_tasks = [
        make_tasks(instance, r, evals_per_round) for r in range(n_warmup + n_rounds)
    ]
    walls: dict[str, list[float]] = {label_a: [], label_b: []}
    waits: dict[str, float] = {}
    keys: dict[str, list] = {}
    for _ in range(max(1, repeats)):
        for label, factory in ((label_a, factory_a), (label_b, factory_b)):
            wall, ks, wait = _time_rounds(factory(), all_tasks, n_warmup)
            walls[label].append(wall)
            keys[label] = ks
            waits[label] = wait
    if keys[label_a] != keys[label_b]:
        raise AssertionError(f"{label_a} reports diverged from {label_b}")
    wall_a, wall_b = min(walls[label_a]), min(walls[label_b])
    return {
        "n_rounds": n_rounds,
        "evals_per_round": evals_per_round,
        "repeats": max(1, repeats),
        f"{label_a}_rounds_per_sec": round(n_rounds / wall_a, 2),
        f"{label_b}_rounds_per_sec": round(n_rounds / wall_b, 2),
        f"{label_a}_master_wait_s": round(waits[label_a], 4),
        f"{label_b}_master_wait_s": round(waits[label_b], 4),
        "speedup": round(wall_b / wall_a, 3),
        "bit_identical": True,
    }


def measure_serial(n_rounds: int, evals_per_round: int, repeats: int = 3) -> dict:
    """Warm vs cold SerialBackend: per-slave arena reuse vs reconstruction."""
    data = measure_ab(
        "warm",
        lambda: SerialBackend(N_SLAVES, warm_runtime=True),
        "cold",
        lambda: SerialBackend(N_SLAVES, warm_runtime=False),
        n_rounds,
        evals_per_round,
        repeats=repeats,
    )
    return data


def measure_multiprocessing(n_rounds: int, evals_per_round: int, repeats: int = 3) -> dict:
    """Warm+multiplexed vs the PR-3 replica (cold + rank-ordered gather)."""
    return measure_ab(
        "warm",
        lambda: MultiprocessingBackend(N_SLAVES, warm_runtime=True),
        "pr3",
        lambda: RankOrderedBackend(N_SLAVES, warm_runtime=False),
        n_rounds,
        evals_per_round,
        repeats=repeats,
    )


# --------------------------------------------------------------------- #
# Gather behaviour under faults (direct backend rounds)
# --------------------------------------------------------------------- #


def measure_dead_rank_gather(n_dead: int = 2, timeout_s: float = 0.4) -> dict:
    """D silent slaves: one shared deadline vs D sequential timeouts."""
    instance = gk_instance(GK_NUMBER)
    n_meas = 2
    plan = FaultPlan(
        events=tuple(
            FaultEvent(r, k, FaultKind.DROP_REPORT)
            for r in range(1, n_meas + 1)
            for k in range(n_dead)
        )
    )
    out = {}
    for arm, cls in (("multiplexed", MultiprocessingBackend), ("pr3", RankOrderedBackend)):
        backend = cls(N_SLAVES, fault_plan=plan, round_timeout_s=timeout_s)
        with backend:
            backend.start(instance, TabuSearchConfig(nb_div=10_000))
            backend.run_round(make_tasks(instance, 0, 300))  # warm-up, no faults
            gathers = []
            for r in range(1, n_meas + 1):
                backend.run_round(make_tasks(instance, r, 300))
                gathers.append(backend.last_phase_seconds["gather"])
        out[arm] = round(min(gathers), 4)
    return {
        "n_dead_ranks": n_dead,
        "round_timeout_s": timeout_s,
        "multiplexed_gather_s": out["multiplexed"],
        "rank_order_gather_s": out["pr3"],
        "rank_order_over_multiplexed": round(out["pr3"] / out["multiplexed"], 2),
    }


def measure_straggler_attribution(factor: float = 15.0) -> dict:
    """One slow slave: only its own gather-idle entry inflates."""
    instance = gk_instance(GK_NUMBER)
    plan = FaultPlan(events=(FaultEvent(1, 0, FaultKind.STRAGGLE, factor=factor),))
    with MultiprocessingBackend(N_SLAVES, fault_plan=plan, round_timeout_s=30.0) as backend:
        backend.start(instance, TabuSearchConfig(nb_div=10_000))
        backend.run_round(make_tasks(instance, 0, 300))  # warm-up
        backend.run_round(make_tasks(instance, 1, 300))
        idle = dict(backend.last_gather_idle_s)
        gather = backend.last_phase_seconds["gather"]
    peers = [v for k, v in idle.items() if k != 0]
    return {
        "straggle_factor": factor,
        "straggler_idle_s": round(idle[0], 4),
        "max_peer_idle_s": round(max(peers), 4),
        "gather_s": round(gather, 4),
        "gather_bounded_by_slowest": gather < idle[0] + 1.0,
    }


def measure_recorder_overhead(n_rounds: int, evals_per_round: int) -> dict:
    """Disabled-recorder cost per round vs the measured round wall time.

    The master issues a bounded number of recorder calls per round
    (round_start, round_telemetry, faults, sgp, isp, round_end — at most
    six); the disabled short-circuit's per-call cost times that count,
    relative to one measured round, bounds what the observability layer
    charges a run nobody asked to record.  Per-call timing (rather than an
    A/B of two full runs) keeps the figure robust to host-load noise.
    """
    recorder = RunRecorder.disabled()
    calls = 200_000
    t0 = time.perf_counter()
    for i in range(calls):
        recorder.emit("round_end", round_index=i)
    per_call_s = (time.perf_counter() - t0) / calls
    assert recorder.events == []

    instance = gk_instance(GK_NUMBER)
    all_tasks = [
        make_tasks(instance, r, evals_per_round) for r in range(n_rounds + 1)
    ]
    backend = SerialBackend(N_SLAVES)
    backend.start(instance, TabuSearchConfig(nb_div=10_000))
    try:
        backend.run_round(all_tasks[0])  # warm-up
        t0 = time.perf_counter()
        for tasks in all_tasks[1:]:
            backend.run_round(tasks)
        round_wall_s = (time.perf_counter() - t0) / n_rounds
    finally:
        backend.shutdown()

    events_per_round = 6
    overhead = per_call_s * events_per_round / round_wall_s
    return {
        "disabled_emit_ns": round(per_call_s * 1e9, 1),
        "events_per_round": events_per_round,
        "round_wall_ms": round(round_wall_s * 1e3, 3),
        "overhead_fraction": overhead,
    }


def measure(*, smoke: bool = False) -> dict:
    n_rounds = 25 if smoke else 60
    repeats = 2 if smoke else 4
    evals = scaled(EVALS_PER_ROUND)
    return {
        "instance": f"GK{GK_NUMBER:02d}",
        "n_slaves": N_SLAVES,
        "smoke": smoke,
        "serial": measure_serial(n_rounds, evals, repeats),
        "multiprocessing": measure_multiprocessing(n_rounds, evals, repeats),
        "dead_rank_gather": measure_dead_rank_gather(),
        "straggler": measure_straggler_attribution(),
        "recorder": measure_recorder_overhead(n_rounds, evals),
        "python": platform.python_version(),
    }


def render(data: dict) -> str:
    s, m = data["serial"], data["multiprocessing"]
    d, st = data["dead_rank_gather"], data["straggler"]
    return "\n".join(
        [
            f"GK instance {data['instance']}, P={data['n_slaves']}, "
            f"{s['evals_per_round']} evals/round",
            f"{'arm':<26} {'rounds/sec':>10}",
            f"{'serial warm':<26} {s['warm_rounds_per_sec']:>10.2f}",
            f"{'serial cold (PR-3)':<26} {s['cold_rounds_per_sec']:>10.2f}"
            f"   -> x{s['speedup']:.2f} (gate: >= 1.3)",
            f"{'mp warm+multiplexed':<26} {m['warm_rounds_per_sec']:>10.2f}",
            f"{'mp cold+rank-order (PR-3)':<26} {m['pr3_rounds_per_sec']:>10.2f}"
            f"   -> x{m['speedup']:.2f}",
            f"mp master blocked-wait: {m['warm_master_wait_s']:.3f}s warm vs "
            f"{m['pr3_master_wait_s']:.3f}s PR-3 over {m['n_rounds']} rounds",
            f"dead ranks ({d['n_dead_ranks']} x {d['round_timeout_s']}s timeout): "
            f"gather {d['multiplexed_gather_s']:.2f}s multiplexed vs "
            f"{d['rank_order_gather_s']:.2f}s rank-ordered "
            f"(x{d['rank_order_over_multiplexed']:.1f})",
            f"straggler: idle {st['straggler_idle_s']:.2f}s on the slow slave, "
            f"{st['max_peer_idle_s']:.2f}s max on its peers; "
            f"gather bounded by slowest: {st['gather_bounded_by_slowest']}",
            "incumbents bit-identical in both A/Bs: "
            f"{s['bit_identical'] and m['bit_identical']}",
            f"disabled recorder: {data['recorder']['disabled_emit_ns']:.0f}ns/emit "
            f"x {data['recorder']['events_per_round']} events/round = "
            f"{data['recorder']['overhead_fraction'] * 100:.4f}% of a "
            f"{data['recorder']['round_wall_ms']:.1f}ms round (gate: < 1%)",
        ]
    )


def check(data: dict, *, smoke: bool) -> None:
    """Hard exactness gates + the headline throughput gate (soft in smoke)."""
    assert data["serial"]["bit_identical"] and data["multiprocessing"]["bit_identical"]
    assert data["straggler"]["max_peer_idle_s"] < data["straggler"]["straggler_idle_s"]
    assert data["dead_rank_gather"]["rank_order_over_multiplexed"] > 1.4
    floor = 1.15 if smoke else 1.3  # smoke runs on noisy CI hosts
    assert data["serial"]["speedup"] >= floor, (
        f"warm-runtime speedup {data['serial']['speedup']} below {floor}"
    )
    overhead = data["recorder"]["overhead_fraction"]
    assert overhead < 0.01, (
        f"disabled recorder costs {overhead * 100:.3f}% of a round (gate: 1%)"
    )


@pytest.mark.benchmark(group="round-overhead")
def test_round_overhead(benchmark, capsys):
    data = benchmark.pedantic(measure, kwargs={"smoke": True}, rounds=1)
    publish("round_overhead", "Round-loop overhead: warm vs PR-3", render(data), capsys)
    check(data, smoke=True)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    data = measure(smoke=args.smoke)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(render(data))
    print(f"-> {args.out}")
    check(data, smoke=args.smoke)


if __name__ == "__main__":
    main()
