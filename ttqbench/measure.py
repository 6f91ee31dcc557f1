"""The benchmark's own arithmetic: seed schedule, statistics, output checks.

Everything here is pure (no solver imports), so the self-tests in
``test_selftest.py`` exercise it directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FailureLedger",
    "SeedSchedule",
    "deviation_pct",
    "tail",
    "verify_solution",
]

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class SeedSchedule:
    """Which solver seeds one run solves, in which order.

    Every run of a workload solves the same fixed panel of solver seeds,
    so no median can move because the seed set changed.  ``--seed``
    orders each pass over the panel and picks the warm-up seed, which lies
    outside the panel.  A run always ends on a whole pass, so its multiset
    of seeds is ``passes`` copies of the panel at any run length.
    """

    panel: tuple[int, ...]
    seed: int

    def order(self) -> list[int]:
        """The panel in this run's visiting order."""
        order = list(self.panel)
        random.Random(self.seed).shuffle(order)
        return order

    @property
    def warmup_seed(self) -> int:
        return max(self.panel) + 1 + self.seed % 997

    def visit(
        self,
        run_seconds: float,
        operation: Callable[[int], object],
        clock: Callable[[], float] = time.perf_counter,
    ) -> list[int]:
        """Call ``operation(seed)`` over whole passes; return the seeds visited.

        A new pass starts only while the run is younger than
        ``run_seconds``; the first pass always runs, and a started pass is
        always finished.
        """
        order = self.order()
        visited: list[int] = []
        t0 = clock()
        while not visited or clock() - t0 < run_seconds:
            for solver_seed in order:
                operation(solver_seed)
                visited.append(solver_seed)
        return visited


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(percentile, value)``, or ``None`` when that percentile would
    not lie above the median (the run is too short to state a tail).
    The value is the order statistic with exactly ``TAIL_BEYOND`` samples
    above it.
    """
    n = len(values)
    rank = n - TAIL_BEYOND  # 1-based rank of the tail sample
    if rank <= (n + 1) / 2:
        return None
    ordered = sorted(values)
    return 100.0 * rank / n, float(ordered[rank - 1])


def deviation_pct(lp_bound: float, value: float) -> float:
    """Percentage gap of ``value`` below the LP bound."""
    if lp_bound <= 0:
        raise ValueError("LP bound must be positive")
    return 100.0 * (lp_bound - value) / lp_bound


def verify_solution(
    weights: np.ndarray,
    capacities: np.ndarray,
    profits: np.ndarray,
    x: np.ndarray,
    claimed_value: float,
) -> list[str]:
    """Reasons ``x`` is not a feasible solution worth ``claimed_value``.

    Recomputes the objective and every constraint load from the instance
    arrays; trusts nothing the solver computed.  Empty list = verified.
    """
    x = np.asarray(x)
    m, n = weights.shape
    if x.shape != (n,):
        return [f"solution has shape {x.shape}, expected ({n},)"]
    if not np.all((x == 0) | (x == 1)):
        return ["solution is not a 0/1 vector"]
    xf = x.astype(np.float64)
    reasons = []
    loads = weights @ xf
    over = np.flatnonzero(loads > capacities + 1e-9)
    if over.size:
        reasons.append(f"infeasible: {over.size} of {m} constraints exceeded")
    value = float(profits @ xf)
    if abs(value - claimed_value) > 1e-6 * max(1.0, abs(value)):
        reasons.append(f"objective is {value!r}, solver claimed {claimed_value!r}")
    return reasons


@dataclass
class FailureLedger:
    """Counts each attempted operation once, failed or not, with reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, label: str, reasons: list[str]) -> bool:
        """Account one operation; returns whether it passed."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.extend(f"{label}: {r}" for r in reasons)
            return False
        return True
