"""The paper's compound *move*: a sequence of ``Nb_drop`` Drops then Adds.

§3.1 (following [3]) defines a move from the current solution ``X`` to its
successor ``X'`` as two steps:

1. **Drop** — repeated ``Nb_drop`` times: let ``i*`` be the index of the most
   saturated constraint; drop the packed, non-tabu item ``j*`` maximizing
   ``a_{i*,j} / c_j`` (the least profit per unit of the scarce resource).
2. **Add** — add non-tabu items (tabu allowed under aspiration) "until no
   object can be added".

The :class:`MoveEngine` also counts *candidate evaluations*: the virtual-time
farm model charges slave CPU time proportional to this counter, which is how
the reproduction gets deterministic "execution times" out of a single host
core (see ``repro.farm``).  The counts flow into the thread's shared
:class:`~repro.core.kernels.KernelCounters` (``move_evaluations``), and all
candidate scoring goes through the state's preallocated
:class:`~repro.core.kernels.EvalKernel`.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelCounters
from .solution import SearchState
from .tabu_list import TabuList

__all__ = ["MoveEngine", "MoveRecord"]

#: Signature of a bit generator's ``next_uint32``, called with the GIL held.
_NEXT_UINT32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)


@dataclass
class MoveRecord:
    """What one compound move changed (for tabu updates and diagnostics)."""

    dropped: list[int] = field(default_factory=list)
    added: list[int] = field(default_factory=list)

    @property
    def touched(self) -> list[int]:
        return self.dropped + self.added

    @property
    def hamming_step(self) -> int:
        """Hamming distance between the pre- and post-move solutions."""
        return len(self.dropped) + len(self.added)


class MoveEngine:
    """Applies Drop/Add compound moves to a :class:`SearchState`.

    Parameters
    ----------
    state:
        The mutable search state the engine operates on.  Candidate scoring
        and the fitting scan run through ``state.kernel``.
    tabu:
        Short-term memory consulted for both steps.
    rng:
        Tie-breaking source.  The paper's argmax/argmin rules frequently tie
        on integer data; random tie-breaking keeps parallel threads with
        different seeds on different trajectories.
    """

    def __init__(
        self,
        state: SearchState,
        tabu: TabuList,
        rng: np.random.Generator,
        add_candidates: int = 2,
    ) -> None:
        if add_candidates < 1:
            raise ValueError(f"add_candidates must be >= 1; got {add_candidates}")
        self.state = state
        self.tabu = tabu
        self.rng = rng
        #: Add-step selection breadth: the item is drawn uniformly from the
        #: ``add_candidates`` best-ratio admissible items.  The paper leaves
        #: the Add selection rule unspecified ("one or several components
        #: fixed at 0 are chosen"); breadth > 1 lets parallel threads reach
        #: different maximal completions of the same partial solution, which
        #: measurably improves the FP-57 optimum-hit rate (see DESIGN.md).
        #: 1 recovers the fully greedy deterministic rule.
        self.add_candidates = int(add_candidates)
        #: Shared per-thread evaluation ledger (owned by the state's kernel).
        self.counters: KernelCounters = state.kernel.counters
        n = state.instance.n_items
        #: whole-neighborhood drop-scan scratch: candidate mask and the
        #: masked score vector (-inf on non-candidates)
        self._drop_mask = np.empty(n, dtype=bool)
        self._drop_scores = np.empty(n, dtype=np.float64)
        #: zero-copy bool view of the kernel's 0/1 vector (0/1 int8 is a
        #: valid bool buffer) — the packed-item mask without a compare
        self._x_bool = state.kernel.x.view(np.bool_)
        #: the instance's shared tables: ratio order and twins, profits list
        self._hot = state.kernel.hot

    @property
    def rng(self) -> np.random.Generator:
        """Tie-breaking source; assigning one drops the cached raw draw."""
        return self._rng

    @rng.setter
    def rng(self, rng: np.random.Generator) -> None:
        self._rng = rng
        #: the bit generator's ``next_uint32`` and state address, bound on
        #: the first draw (binding costs ~20 µs, so backend start skips it)
        self._next_uint32 = None
        self._rng_state = 0

    def _draw(self, k: int) -> int:
        """``int(self.rng.integers(0, k))``, drawn straight from the bit generator.

        For ``2 <= k <= 2**32`` numpy's bounded draw is Lemire's
        multiply-shift with rejection over ``next_uint32`` outputs; this
        replays it — same outputs consumed, same value returned — at a
        fraction of a ``Generator.integers`` call (pinned draw for draw by
        ``tests/test_moves.py::TestDirectDraw``).  It calls the bit
        generator's C function directly and so bypasses the Generator's
        lock; that is safe because each engine's generator is private to
        its search thread (and the call holds the GIL).
        """
        if not 2 <= k <= 0x100000000:
            return int(self._rng.integers(0, k))
        next_uint32 = self._next_uint32
        if next_uint32 is None:
            raw = self._rng.bit_generator.ctypes
            next_uint32 = self._next_uint32 = ctypes.cast(raw.next_uint32, _NEXT_UINT32)
            self._rng_state = raw.state_address
        state = self._rng_state
        m = next_uint32(state) * k
        if (m & 0xFFFFFFFF) < k:
            threshold = (0xFFFFFFFF - (k - 1)) % k
            while (m & 0xFFFFFFFF) < threshold:
                m = next_uint32(state) * k
        return m >> 32

    @property
    def evaluations(self) -> int:
        """Cumulative candidate evaluations (farm cost model input)."""
        return self.counters.move_evaluations

    @evaluations.setter
    def evaluations(self, value: int) -> None:
        self.counters.move_evaluations = int(value)

    # ------------------------------------------------------------------ #
    # Drop step
    # ------------------------------------------------------------------ #
    def select_drop(self) -> int | None:
        """Pick the item to drop per the saturated-constraint rule.

        Returns ``None`` when the knapsack is empty.  When every packed item
        is tabu the rule would deadlock; the paper does not specify this
        case, so we fall back to ignoring tabu status (a standard TS escape
        that keeps the thread moving; documented in DESIGN.md §6 notes).

        One whole-neighborhood masked pass: packed-and-non-tabu is a single
        boolean expression over all n items, the precomputed ratio row is
        masked to -inf off-candidates, and ``argmax`` gives the first
        maximum.  When no other item of the row shares its ratio
        (``hot.ratio_twin``) it is the unique maximum; otherwise the ties
        are read off the full score vector.  The tie set (ascending item
        indices) and the number of ``rng`` draws are exactly those of the
        historical candidate-list scan, so trajectories are bit-identical
        (pinned by ``tests/test_golden_trajectory.py``).
        """
        kernel = self.state.kernel
        if kernel.n_packed == 0:
            return None
        i_star = kernel.most_saturated_constraint()
        mask = self._drop_mask
        np.logical_and(self._x_bool, self.tabu.nontabu_mask(), out=mask)
        count = int(np.count_nonzero(mask))
        if count == 0:
            np.copyto(mask, self._x_bool)
            count = kernel.n_packed
        scores = self._drop_scores
        scores.fill(-np.inf)
        np.copyto(scores, kernel.ratio_row(i_star), where=mask)
        self.counters.move_evaluations += count
        j = int(scores.argmax())
        if not self._hot.ratio_twin[i_star, j]:
            return j
        np.equal(scores, scores[j], out=mask)
        ties = mask.nonzero()[0]
        if ties.size == 1:
            return j
        return int(ties[self._draw(ties.size)])

    def drop_step(self, nb_drop: int) -> list[int]:
        """Perform up to ``nb_drop`` drops; returns the dropped indices."""
        dropped: list[int] = []
        kernel = self.state.kernel
        for _ in range(max(0, int(nb_drop))):
            j = self.select_drop()
            if j is None:
                break
            kernel.drop(j)
            dropped.append(j)
        return dropped

    # ------------------------------------------------------------------ #
    # Add step
    # ------------------------------------------------------------------ #
    def select_add(
        self, best_value: float, exclude: set[int] | None = None
    ) -> int | None:
        """Pick the item to add, honouring tabu status and aspiration.

        Among free items that fit the residual capacities, prefer non-tabu
        ones; a tabu item is admissible only if adding it would beat the
        incumbent ``best_value`` (aspiration).  The selection rule mirrors
        the drop rule: minimize ``a_{i*,j} / c_j`` against the currently
        most saturated constraint, i.e. grab the best payoff per unit of
        the scarcest resource.

        ``exclude`` bars items unconditionally — the compound move passes
        the indices it just dropped, since the tabu list is only updated
        *after* the move (Fig. 1 step 9) and re-adding a just-dropped item
        would turn the move into a no-op.  This standalone entry point
        installs them as the kernel's exclusion mask; :meth:`add_step`
        excludes them without touching the kernel on bitset-mode kernels.
        """
        self.state.kernel.set_exclusions(exclude)
        return self._select_add(best_value)

    def _select_add(self, best_value: float, keep: int = -1) -> int | None:
        """The Add selection rule against the kernel's exclusions and ``keep``.

        Bitset-mode kernels work on Python ints: the fitting set (ANDed
        with the ``keep`` bit mask, which bars the Add pass's exclusions)
        is charged by popcount, ANDed with the tabu list's non-tabu int,
        and — failing that — filtered by aspiration bit by bit.  The
        ``k = min(add_candidates, |allowed|)`` best items by (ratio, index)
        are then the first ``k`` admissible entries of the precomputed
        ``hot.ratio_order[i*]``, and for ``add_candidates == 1`` the tie set
        is the run of equal ratios starting at the first admissible entry.
        The generic path scores the decoded candidates with numpy and stays
        the reference: both paths charge the same fitting-set size and
        draw the same item with the same ``rng`` consumption (pinned by
        ``tests/test_bitset.py::TestFittingEquivalence``).
        """
        kernel = self.state.kernel
        if kernel.use_bitset:
            fit = int.from_bytes(kernel.fitting_words().tobytes(), "little") & keep
            n_fitting = fit.bit_count()
            if n_fitting == 0:
                return None
            self.counters.move_evaluations += n_fitting
            allowed = fit & self.tabu.nontabu_int()
            if not allowed:
                # Aspiration: every fitting item is tabu; admit those whose
                # addition beats the incumbent.
                value = kernel.value
                profits = self._hot.profits_list
                while fit:
                    low = fit & -fit
                    if value + profits[low.bit_length() - 1] > best_value:
                        allowed |= low
                    fit ^= low
                if not allowed:
                    return None
            size = allowed.bit_count()
            if size == 1:
                return allowed.bit_length() - 1
            return self._walk_ratio_order(kernel.most_saturated_constraint(), allowed, size)
        fitting = kernel.fitting_items()
        if fitting.size == 0:
            return None
        self.counters.move_evaluations += fitting.size
        nontabu = self.tabu.nontabu_mask()[fitting]
        allowed = fitting[nontabu]
        if allowed.size == 0:
            tabu_items = fitting[~nontabu]
            gains = kernel.value + self.state.instance.profits[tabu_items]
            aspire = tabu_items[gains > best_value]
            if aspire.size == 0:
                return None
            allowed = aspire
        i_star = kernel.most_saturated_constraint()
        ratios = kernel.scores(i_star, allowed)
        if self.add_candidates == 1 or allowed.size == 1:
            return int(allowed[self._argmin_random_tie(ratios)])
        # The k best by (ratio, position): argmin returns the first minimum
        # on every host, where argpartition's order among tied ratios
        # depends on the CPU's SIMD dispatch.
        k = min(self.add_candidates, allowed.size)
        if k == 2:
            first = int(ratios.argmin())
            ratios[first] = np.inf  # kernel scratch, consumed here
            top = (first, int(ratios.argmin()))
        else:
            top = ratios.argsort(kind="stable")[:k]
        return int(allowed[top[self._draw(k)]])

    def _walk_ratio_order(self, i_star: int, allowed: int, size: int) -> int:
        """Draw among the best admissible items of ``allowed`` (``size >= 2``)."""
        items = iter(self._hot.ratio_order[i_star])
        for j in items:
            if allowed >> j & 1:
                break
        if self.add_candidates == 1:
            row = self.state.kernel.ratio_row(i_star)
            ratio = row[j]
            ties = [j]
            for t in items:
                if row[t] != ratio:
                    break
                if allowed >> t & 1:
                    ties.append(t)
            return j if len(ties) == 1 else ties[self._draw(len(ties))]
        k = min(self.add_candidates, size)
        top = [j]
        for t in items:
            if allowed >> t & 1:
                top.append(t)
                if len(top) == k:
                    break
        return top[self._draw(k)]

    def add_step(
        self, best_value: float, exclude: set[int] | None = None
    ) -> list[int]:
        """Add items until none can be added; returns the added indices.

        On bitset-mode kernels the exclusions are a Python-int ``keep`` mask
        ANDed into each fitting set, so the kernel's exclusion mask is never
        written (the pass starts by clearing a mask a standalone
        :meth:`select_add` may have left, a no-op otherwise).  The generic
        path installs the kernel's mask once for the whole pass, and its
        fitting pool shrinks monotonically across the adds.
        """
        kernel = self.state.kernel
        bitset = kernel.use_bitset
        keep = -1
        if bitset:
            kernel.clear_exclusions()
            for j in () if exclude is None else exclude:
                keep &= ~(1 << int(j))
        else:
            kernel.set_exclusions(exclude)
        added: list[int] = []
        while True:
            j = self._select_add(best_value, keep)
            if j is None:
                break
            kernel.add(j)
            added.append(j)
        if not bitset:
            kernel.clear_exclusions()
        return added

    def _argmin_random_tie(self, values: np.ndarray) -> int:
        """Index of the minimum, breaking exact ties uniformly at random."""
        ties = (values == values.min()).nonzero()[0]
        if ties.size == 1:
            return int(ties[0])
        return int(ties[self._draw(ties.size)])

    # ------------------------------------------------------------------ #
    # Compound move
    # ------------------------------------------------------------------ #
    def apply(self, nb_drop: int, best_value: float) -> MoveRecord:
        """One full Drop^``nb_drop``/Add move (Fig. 1, step 5).

        The caller is responsible for marking ``record.touched`` tabu and
        ticking the tabu clock (Fig. 1, steps 8–9), because intensification
        phases reuse the engine without touching the short-term memory.
        """
        record = MoveRecord()
        record.dropped = self.drop_step(nb_drop)
        record.added = self.add_step(best_value, exclude=record.dropped)
        self.counters.moves += 1
        return record
