"""The two intensification procedures of §3.2.

Swap intensification
    From the best solution of the last local-search loop (``X_local``),
    exchange a packed component ``i`` against a free component ``j`` with
    ``c_j > c_i`` — "this exchange is realized for each couple (i, j)
    satisfying the previous conditions".  We additionally require the swap to
    preserve feasibility (the paper stays in the feasible domain here); since
    ``c_j > c_i`` every applied swap strictly improves the objective.

Strategic oscillation
    "crossing the feasible domain boundary by accepting infeasible solutions
    during a fixed number of iterations", then projecting back by excluding
    the items with large ``sum_i a_ij / c_j`` ratio.  The paper limits the
    depth of the infeasible excursion to bound the extra computing time
    (§3.2, citing [9]); ``depth`` is that limit.
"""

from __future__ import annotations

import numpy as np

from .construction import fill_greedily, repair
from .kernels import KernelCounters
from .solution import SearchState, Solution

__all__ = ["swap_intensification", "strategic_oscillation", "IntensificationStats"]

#: Packed items the word path of :func:`swap_intensification` tests in one
#: batched pass.  Most applied swaps are found within the first 16–21
#: visited items; much larger blocks waste work past the first hit.
SWAP_BLOCK = 16


class IntensificationStats:
    """Bookkeeping shared by both procedures (feeds the farm cost model).

    Evaluation counts are written to a :class:`~repro.core.kernels.KernelCounters`
    (``intensify_evaluations``), so a thread's move engine and its
    intensification phases share one ledger; pass the thread's counters to
    join it, or omit them for a standalone ledger.
    """

    def __init__(self, counters: KernelCounters | None = None) -> None:
        self.counters = counters if counters is not None else KernelCounters()
        self.swaps_applied = 0
        self.oscillations = 0

    @property
    def evaluations(self) -> int:
        return self.counters.intensify_evaluations

    @evaluations.setter
    def evaluations(self, value: int) -> None:
        self.counters.intensify_evaluations = int(value)

    def reset(self) -> None:
        """Zero the procedure tallies (the shared counters reset separately)."""
        self.swaps_applied = 0
        self.oscillations = 0


def swap_intensification(
    state: SearchState,
    stats: IntensificationStats | None = None,
) -> Solution:
    """Apply improving, feasibility-preserving (1,1)-swaps in place until none is left.

    ``state`` should hold ``X_local`` on entry; on exit it holds the swapped
    solution, which is returned as a snapshot.  Packed items ``i`` are
    visited by ascending profit (stable, so ties go by index); the first
    ``i`` with an admissible partner is swapped against the most profitable
    free ``j`` with ``c_j > c_i`` that fits once ``i`` is removed (first
    maximum by index), and the scan restarts from the cheapest packed item.
    Every visited ``i`` charges its number of richer free items as
    evaluations.  The paper fixes no visiting order; any order that applies
    every admissible couple is conformant because each applied swap strictly
    improves.

    Integer instances take the word path: :data:`SWAP_BLOCK` packed items
    are tested per batched pass of the kernel's prefix-bitset tables, and
    the evaluation charge stops at the first row with a candidate, so the
    applied swaps and the counts equal those of the elementwise path
    (pinned by ``tests/test_bitset.py``).
    """
    stats = stats or IntensificationStats()
    if state.kernel.use_bitset:
        _swap_words(state, stats)
    else:
        _swap_elementwise(state, stats)
    return state.snapshot()


def _swap_words(state: SearchState, stats: IntensificationStats) -> None:
    """The word path of :func:`swap_intensification`, one block at a time."""
    inst = state.instance
    kernel = state.kernel
    profits = inst.profits
    tables = inst.hot.profit_order
    packed_mask = kernel.x.view(np.bool_)
    while 0 < kernel.n_packed < inst.n_items:
        # packed items by ascending profit, stable: the profit order filtered
        packed = tables.order.compress(packed_mask.take(tables.order))
        for start in range(0, packed.size, SWAP_BLOCK):
            block = packed[start : start + SWAP_BLOCK]
            # Per row: {j free : c_j > c_i} as one suffix-bitset row AND,
            # then its members that fit the slack with i removed.
            rows = tables.suffix.take(tables.richer_row.take(block), axis=0)
            rich = np.bitwise_and(kernel.free_words, rows, out=rows)
            n_richer = np.bitwise_count(rich).sum(axis=1)
            cand = kernel.fitting_words_without(block, rich)
            hits = cand.any(axis=1).nonzero()[0]
            if hits.size == 0:
                stats.evaluations += int(n_richer.sum())
                continue
            row = int(hits[0])
            stats.evaluations += int(n_richer[: row + 1].sum())
            candidates = kernel.decode_words_u8(cand[row].view(np.uint8))
            j = candidates[int(np.argmax(profits[candidates]))]
            state.drop(int(block[row]))
            state.add(int(j))
            stats.swaps_applied += 1
            break  # re-derive the packed order after a structural change
        else:
            return


def _swap_elementwise(state: SearchState, stats: IntensificationStats) -> None:
    """The reference path of :func:`swap_intensification`, one item at a time."""
    inst = state.instance
    improved = True
    while improved:
        improved = False
        packed = state.packed_items()
        if packed.size == 0 or state.free_items().size == 0:
            break
        for i in packed[np.argsort(inst.profits[packed], kind="stable")]:
            slack_without_i = state.slack + inst.weights[:, i]
            free = state.free_items()
            richer = free[inst.profits[free] > inst.profits[i]]
            if richer.size == 0:
                continue
            stats.evaluations += int(richer.size)
            fits = np.all(
                inst.weights[:, richer] <= slack_without_i[:, None] + 1e-9,
                axis=0,
            )
            candidates = richer[fits]
            if candidates.size == 0:
                continue
            j = candidates[int(np.argmax(inst.profits[candidates]))]
            state.drop(int(i))
            state.add(int(j))
            stats.swaps_applied += 1
            improved = True
            break  # re-derive packed/free sets after a structural change


def strategic_oscillation(
    state: SearchState,
    depth: int,
    rng: np.random.Generator,
    stats: IntensificationStats | None = None,
) -> Solution:
    """One depth-limited excursion into the infeasible region, in place.

    Forces up to ``depth`` additional items into the knapsack *ignoring*
    capacities (lowest aggregate density first, with random tie-breaking),
    then projects back onto the feasible region by ejecting the items with
    the largest ``sum_i a_ij / c_j`` ratio, and finally tops the solution up
    greedily.  Returns the resulting feasible snapshot.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0; got {depth}")
    inst = state.instance
    stats = stats or IntensificationStats()
    stats.oscillations += 1
    free = state.free_items()
    if free.size > 0 and depth > 0:
        # Rank free items by density with random jitter for tie-breaking.
        order = free[np.argsort(inst.density[free] + rng.random(free.size) * 1e-12)]
        for j in order[:depth]:
            state.add(int(j))
        stats.evaluations += int(min(depth, order.size))
    repair(state)
    fill_greedily(state)
    stats.evaluations += int(state.instance.n_items)
    return state.snapshot()
