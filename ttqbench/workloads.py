"""Workloads and the operation they repeat.

One operation on one solver seed:

1. build and start a backend (timed as ``setup_s``);
2. a target solve: CTS2 with ``target_value`` set, capped at
   ``target_cap_rounds`` rounds (timed as ``time_to_target_s``);
3. a budget solve: CTS2 at a fixed evaluation budget, same seed, same warm
   backend (timed as ``solve_s``; its best gives ``deviation_pct``);
4. shutdown.

Output checks run after the timed calls return.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import Any

from layers import Tracer, installed, master_boundaries, worker_boundaries
from measure import deviation_pct, verify_solution

from repro.core.tabu_search import TabuSearchConfig
from repro.exact.bounds import solve_lp_relaxation
from repro.instances.gk import gk_instance
from repro.parallel.backend_socket import SocketBackend, run_worker
from repro.parallel.backends import MultiprocessingBackend, SerialBackend
from repro.variants import solve_cts2

__all__ = [
    "WORKLOADS",
    "OpResult",
    "Problem",
    "Workload",
    "check_operation",
    "run_operation",
    "serial_reference",
    "verify_result",
]

#: ``gk_instance(24).content_hash()`` this benchmark was calibrated on.
PINNED_CONTENT_HASH = "981983a06cca39dba3ff17db2890bcf7a937ebb9a41caa8d433329dfd253af10"
#: LP-relaxation bound of GK24 (HiGHS), the deviation reference.
PINNED_LP_BOUND = 159636.72449590598


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "serial" | "mp" | "socket"
    n_slaves: int
    evals_per_task: int
    budget_rounds: int
    target_value: float
    target_cap_rounds: int
    panel: tuple[int, ...]
    pipeline: str = "sync"
    #: socket workers this benchmark launches (mp forks one per slave)
    n_workers: int = 0
    #: compare each budget solve with a fresh SerialBackend run
    check_serial: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gk24-serial",
            backend="serial",
            n_slaves=8,
            evals_per_task=400_000,
            budget_rounds=3,
            target_value=157_721.0,
            target_cap_rounds=24,
            panel=tuple(range(1000, 1008)),
            check_serial=True,
        ),
        Workload(
            name="gk24-mp-fine",
            backend="mp",
            n_slaves=2,
            evals_per_task=4_000,
            budget_rounds=200,
            target_value=146_068.0,
            target_cap_rounds=200,
            panel=tuple(range(1000, 1014)),
            check_serial=True,
        ),
        Workload(
            name="gk24-socket-async",
            backend="socket",
            n_slaves=8,
            evals_per_task=400_000,
            budget_rounds=6,
            target_value=157_561.0,
            target_cap_rounds=24,
            panel=tuple(range(1000, 1006)),
            pipeline="async",
            n_workers=2,
        ),
    )
}


@dataclass
class Problem:
    """The pinned instance and its LP bound, computed outside timed regions."""

    instance: Any
    lp_bound: float
    content_hash: str

    @classmethod
    def load(cls) -> "Problem":
        instance = gk_instance(24)
        instance.hot  # build the cached kernel tables before any timing
        return cls(
            instance=instance,
            lp_bound=solve_lp_relaxation(instance).value,
            content_hash=instance.content_hash(),
        )

    def pin_reasons(self) -> list[str]:
        reasons = []
        if self.content_hash != PINNED_CONTENT_HASH:
            reasons.append(f"gk_instance(24) content hash is {self.content_hash}")
        if abs(self.lp_bound - PINNED_LP_BOUND) > 1e-6:
            reasons.append(f"GK24 LP bound is {self.lp_bound!r}, pinned {PINNED_LP_BOUND!r}")
        return reasons


@dataclass
class OpResult:
    seed: int
    setup_s: float
    time_to_target_s: float
    solve_s: float
    deviation_pct: float
    target: Any
    budget: Any
    #: per-layer totals: the master's tracer plus each socket worker's
    layer_summaries: list[dict] = field(default_factory=list)
    spans: list[tuple] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# Backends
# ---------------------------------------------------------------------- #


def _socket_worker(host: str, port: int, traced: bool, conn: Any) -> None:
    """A socket worker that optionally traces itself and reports at exit."""
    try:
        if traced:
            tracer = Tracer()
            with installed(tracer, worker_boundaries()):
                run_worker(host, port)
            conn.send((tracer.summary(), tracer.spans))
        else:
            run_worker(host, port)
            conn.send(None)
    finally:
        conn.close()


class _Fleet:
    """A started backend plus the worker processes this benchmark launched."""

    def __init__(self, workload: Workload, traced: bool) -> None:
        self.workers: list[tuple[Any, Any]] = []
        if workload.backend == "serial":
            self.backend = SerialBackend(workload.n_slaves)
        elif workload.backend == "mp":
            self.backend = MultiprocessingBackend(workload.n_slaves, mp_context="fork")
        else:
            self.backend = SocketBackend(workload.n_slaves, min_workers=workload.n_workers)
            self._launch_workers(workload.n_workers, traced)

    def _launch_workers(self, n: int, traced: bool) -> None:
        host, port = self.backend.listen()
        ctx = mp.get_context("fork")
        for i in range(n):
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_socket_worker,
                args=(host, port, traced, child),
                name=f"ttqbench-worker-{i}",
            )
            proc.start()
            child.close()
            self.workers.append((proc, parent))

    def shutdown(self) -> list[tuple[dict, list]]:
        """Stop everything; returns the traced workers' (summary, spans)."""
        self.backend.shutdown()
        reports = []
        for proc, conn in self.workers:
            try:
                if conn.poll(30.0):
                    reports.append(conn.recv())
            except EOFError:
                pass
            finally:
                conn.close()
            proc.join(timeout=30.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self.workers = []
        return [r for r in reports if r is not None]


# ---------------------------------------------------------------------- #
# The operation
# ---------------------------------------------------------------------- #


def _solve(workload: Workload, problem: Problem, backend: Any, seed: int, rounds: int,
           target: float | None) -> Any:
    return solve_cts2(
        problem.instance,
        n_slaves=workload.n_slaves,
        n_rounds=rounds,
        rng_seed=seed,
        max_evaluations=workload.evals_per_task * rounds,
        target_value=target,
        backend=backend,
        pipeline=workload.pipeline,
    )


def serial_reference(workload: Workload, problem: Problem, seed: int) -> tuple[float, int]:
    """``(best value, total evaluations)`` of a fresh SerialBackend budget solve."""
    result = _solve(workload, problem, None, seed, workload.budget_rounds, None)
    return result.best.value, result.total_evaluations


def verify_result(problem: Problem, label: str, result: Any) -> list[str]:
    inst = problem.instance
    return [
        f"{label}: {reason}"
        for reason in verify_solution(
            inst.weights, inst.capacities, inst.profits, result.best.x, result.best.value
        )
    ]


def check_operation(
    workload: Workload,
    problem: Problem,
    op: OpResult,
    reference: tuple[float, int] | None,
) -> list[str]:
    """Every reason this operation's outputs are wrong (empty = correct)."""
    reasons = verify_result(problem, "target solve", op.target) + verify_result(
        problem, "budget solve", op.budget
    )
    if op.target.best.value < workload.target_value:
        reasons.append(
            f"target {workload.target_value} not met within "
            f"{workload.target_cap_rounds} rounds (best {op.target.best.value})"
        )
    if reference is not None:
        got = (op.budget.best.value, op.budget.total_evaluations)
        if got != reference:
            reasons.append(f"budget solve gave {got}, SerialBackend gave {reference}")
    return reasons


def run_operation(
    workload: Workload,
    problem: Problem,
    seed: int,
    *,
    traced: bool = False,
    budget_rounds: int | None = None,
    with_target: bool = True,
) -> OpResult:
    """Set up, solve to target, solve at budget, shut down -- timed."""
    rounds = workload.budget_rounds if budget_rounds is None else budget_rounds
    tracer = Tracer() if traced else None
    t0 = time.perf_counter()
    fleet = _Fleet(workload, traced)
    try:
        fleet.backend.start(problem.instance, TabuSearchConfig())
        setup_s = time.perf_counter() - t0
        with installed(tracer, master_boundaries() if traced else []):
            t = time.perf_counter()
            target = (
                _solve(workload, problem, fleet.backend, seed,
                       workload.target_cap_rounds, workload.target_value)
                if with_target
                else None
            )
            tts = time.perf_counter() - t
            t = time.perf_counter()
            budget = _solve(workload, problem, fleet.backend, seed, rounds, None)
            solve_s = time.perf_counter() - t
    finally:
        worker_reports = fleet.shutdown()
    op = OpResult(
        seed=seed,
        setup_s=setup_s,
        time_to_target_s=tts,
        solve_s=solve_s,
        deviation_pct=deviation_pct(problem.lp_bound, budget.best.value),
        target=target,
        budget=budget,
    )
    if tracer is not None:
        op.layer_summaries = [tracer.summary()] + [s for s, _ in worker_reports]
        op.spans = [("master", tracer.spans)] + [
            (f"worker-{i}", spans) for i, (_, spans) in enumerate(worker_reports)
        ]
    return op
