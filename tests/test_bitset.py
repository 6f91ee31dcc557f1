"""Tests for the packed-bitset codec layer (``repro.core.bitset``) and the
exactness contract of everything built on it: codec round-trips (Hypothesis),
the prefix-bitmask fitting scan vs. the generic float path, the
ratio-order and ratio-twin move-selection tables, the word-level swap
intensification, the packed Hamming/dispersion statistics, the
:class:`Solution` wire codec, and the ``set_exclusions`` no-op short-circuit.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MKPInstance,
    MoveEngine,
    SearchState,
    Solution,
    TabuList,
    fill_greedily,
    greedy_solution,
    mean_pairwise_distance,
    random_solution,
)
from repro.core.bitset import (
    bytes_to_words,
    hamming_words,
    mean_pairwise_hamming,
    n_words,
    pack_bits,
    pack_rows,
    pairwise_hamming,
    popcount,
    unpack_bits,
    words_to_bytes,
)
from repro.core.intensification import IntensificationStats, swap_intensification
from repro.core.strategy import Strategy
from repro.core.termination import Budget
from repro.parallel.message import SlaveReport, SlaveTask

#: Word-boundary sizes the ISSUE pins: single word, 63/64/65 edges, GK-scale.
BOUNDARY_SIZES = (1, 63, 64, 65, 500)


def bit_vectors(n: int):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda bits: np.asarray(bits, dtype=np.int8)
    )


def random_integer_instance(rng: np.random.Generator, n: int | None = None) -> MKPInstance:
    m = int(rng.integers(2, 8))
    if n is None:
        n = int(rng.integers(5, 90))
    weights = rng.integers(1, 50, size=(m, n)).astype(float)
    capacities = (
        weights.sum(axis=1) * rng.uniform(0.3, 0.7, m)
    ).astype(int).astype(float) + 1
    profits = rng.integers(1, 100, size=n).astype(float)
    return MKPInstance(weights, capacities, profits)


# --------------------------------------------------------------------------- #
# Codec round-trips (Hypothesis, satellite task)
# --------------------------------------------------------------------------- #
class TestCodecRoundTrip:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_pack_unpack_roundtrip(self, n):
        @given(bit_vectors(n))
        @settings(max_examples=25, deadline=None)
        def check(x):
            words = pack_bits(x)
            assert words.shape == (n_words(n),)
            assert np.array_equal(unpack_bits(words, n), x)

        check()

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_popcount_matches_sum(self, n):
        @given(bit_vectors(n))
        @settings(max_examples=25, deadline=None)
        def check(x):
            assert popcount(pack_bits(x)) == int(np.sum(x))

        check()

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_hamming_matches_elementwise(self, n):
        @given(bit_vectors(n), bit_vectors(n))
        @settings(max_examples=25, deadline=None)
        def check(a, b):
            expected = int(np.count_nonzero(a != b))
            assert hamming_words(pack_bits(a), pack_bits(b)) == expected

        check()

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_bytes_frame_roundtrip(self, n):
        rng = np.random.default_rng(n)
        x = (rng.random(n) < 0.5).astype(np.int8)
        words = pack_bits(x)
        frame = words_to_bytes(words, n)
        assert len(frame) == (n + 7) // 8
        assert np.array_equal(bytes_to_words(frame, n), words)

    def test_bytes_frame_length_checked(self):
        with pytest.raises(ValueError, match="payload bytes"):
            bytes_to_words(b"\x00" * 3, 500)

    def test_tail_bits_are_zero(self):
        # Codec contract: bits beyond n stay zero, so popcounts need no mask.
        x = np.ones(65, dtype=np.int8)
        words = pack_bits(x)
        assert words[1] == np.uint64(1)
        assert popcount(words) == 65


class TestPairwiseHamming:
    def test_matrix_matches_reference(self):
        rng = np.random.default_rng(3)
        rows = (rng.random((7, 130)) < 0.4).astype(np.int8)
        packed = pack_rows(rows)
        got = pairwise_hamming(packed)
        for i in range(7):
            for j in range(7):
                assert got[i, j] == int(np.count_nonzero(rows[i] != rows[j]))

    def test_mean_matches_gram_formula(self):
        rng = np.random.default_rng(4)
        rows = (rng.random((6, 500)) < 0.3).astype(np.int8)
        xs = rows.astype(np.int64)
        gram = xs @ xs.T
        ones = xs.sum(axis=1)
        expected = int((ones[:, None] + ones[None, :] - 2 * gram).sum()) / (6 * 5)
        assert mean_pairwise_hamming(pack_rows(rows)) == expected

    def test_solution_layer_uses_identical_statistic(self):
        rng = np.random.default_rng(5)
        sols = [
            Solution((rng.random(500) < 0.3).astype(np.int8), float(k))
            for k in range(5)
        ]
        xs = np.stack([s.x for s in sols]).astype(np.int64)
        gram = xs @ xs.T
        ones = xs.sum(axis=1)
        expected = int((ones[:, None] + ones[None, :] - 2 * gram).sum()) / (5 * 4)
        assert mean_pairwise_distance(sols) == expected
        assert mean_pairwise_distance(sols[:1]) == 0.0


# --------------------------------------------------------------------------- #
# Kernel: bitset fitting scan vs. the generic float path
# --------------------------------------------------------------------------- #
class TestFittingEquivalence:
    def test_fitting_items_identical_across_paths(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            inst = random_integer_instance(rng)
            x = greedy_solution(inst).x
            bit = SearchState(inst, x.copy())
            gen = SearchState(inst, x.copy())
            assert bit.kernel.use_bitset
            gen.kernel.use_bitset = False
            assert np.array_equal(bit.fitting_items(), gen.fitting_items())
            # ... and with exclusions layered on top.
            excl = set(map(int, rng.integers(0, inst.n_items, size=3)))
            bit.kernel.set_exclusions(excl)
            gen.kernel.set_exclusions(excl)
            assert np.array_equal(
                bit.kernel.fitting_items(), gen.kernel.fitting_items()
            )

    def test_float_instance_falls_back_to_generic(self):
        inst = MKPInstance(
            weights=np.array([[0.5, 1.25, 2.0]]),
            capacities=np.array([2.5]),
            profits=np.array([1.0, 2.0, 3.0]),
        )
        state = SearchState.empty(inst)
        assert not state.kernel.use_bitset
        assert np.array_equal(state.fitting_items(), [0, 1, 2])

    def test_trajectory_identical_across_paths(self):
        # The strongest equivalence statement: same seeds, same instance,
        # whole compound-move trajectories coincide move for move —
        # including the shared evaluation ledger the farm model charges.
        # The bitset Add rule walks ``hot.ratio_order``; the generic path
        # ranks numpy ratios and is the reference, for the tie run of
        # breadth 1, the two-argmin pick of breadth 2 and the stable sort
        # of breadth 3 alike.  Heavily tied instances exercise the tie run.
        rng = np.random.default_rng(12)
        instances = [random_integer_instance(rng) for _ in range(5)]
        instances += [tied_integer_instance(rng, n) for n in (40, 64, 130)]
        for inst in instances:
            x0 = greedy_solution(inst).x
            for breadth in (1, 2, 3):
                records = []
                for use_bitset in (True, False):
                    state = SearchState(inst, x0.copy())
                    state.kernel.use_bitset = use_bitset
                    tabu = TabuList(inst.n_items, 5)
                    engine = MoveEngine(
                        state, tabu, np.random.default_rng(99), add_candidates=breadth
                    )
                    best = state.value
                    trace = []
                    for _move in range(40):
                        record = engine.apply(2, best)
                        best = max(best, state.value)
                        tabu.tick()
                        if record.touched:
                            tabu.make_tabu(np.asarray(record.touched))
                        trace.append((tuple(record.dropped), tuple(record.added)))
                    records.append(
                        (trace, state.value, engine.evaluations, engine.rng.random())
                    )
                assert records[0] == records[1], (inst.shape, breadth)


def tied_integer_instance(rng: np.random.Generator, n: int) -> MKPInstance:
    """Weights 0-3 and profits 1-4: most ratios recur many times per row."""
    m = int(rng.integers(2, 6))
    weights = rng.integers(0, 4, size=(m, n)).astype(float)
    capacities = np.floor(weights.sum(axis=1) * 0.5) + 1
    profits = rng.integers(1, 5, size=n).astype(float)
    return MKPInstance(weights, capacities, profits)


# --------------------------------------------------------------------------- #
# Move-selection tables: ratio order and ratio twins
# --------------------------------------------------------------------------- #
class TestRatioTables:
    @staticmethod
    def instances():
        rng = np.random.default_rng(31)
        for n in (1, 63, 64, 65):
            yield random_integer_instance(rng, n)
            yield tied_integer_instance(rng, n)
            # one row with every ratio tied, one row with distinct ratios
            weights = np.vstack([np.full(n, 3.0), np.arange(1, n + 1, dtype=float)])
            yield MKPInstance(weights, weights.sum(axis=1), np.full(n, 2.0))

    def test_ratio_order_sorts_by_ratio_then_index(self):
        for inst in self.instances():
            hot = inst.hot
            for i, order in enumerate(hot.ratio_order):
                assert sorted(order) == list(range(inst.n_items))
                keys = [(hot.ratio_matrix[i, j], j) for j in order]
                assert keys == sorted(keys)

    def test_ratio_twin_marks_repeated_ratios(self):
        for inst in self.instances():
            ratios = inst.hot.ratio_matrix
            expected = (ratios[:, :, None] == ratios[:, None, :]).sum(axis=2) > 1
            assert np.array_equal(inst.hot.ratio_twin, expected)

    def test_float_instance_has_twins_but_no_order(self):
        inst = MKPInstance(
            weights=np.array([[0.5, 1.0, 2.0]]),
            capacities=np.array([2.5]),
            profits=np.array([1.0, 2.0, 3.0]),
        )
        assert inst.hot.ratio_order is None
        assert inst.hot.ratio_twin.tolist() == [[True, True, False]]

    def test_nbytes_counts_the_selection_tables(self):
        inst = random_integer_instance(np.random.default_rng(32), 200)
        hot = inst.hot
        m, n = inst.shape
        others = (
            hot.weightsT.nbytes
            + hot.ratio_matrix.nbytes
            + hot.integer.nbytes
            + hot.profit_order.nbytes
        )
        # the twin table plus at least one pointer slot per ratio_order entry
        assert hot.nbytes >= others + hot.ratio_twin.nbytes + m * n * 8


def swap_outcome(inst: MKPInstance, x: np.ndarray, use_bitset: bool) -> tuple:
    state = SearchState(inst, x.copy())
    state.kernel.use_bitset = use_bitset
    stats = IntensificationStats()
    result = swap_intensification(state, stats)
    return result.x.tobytes(), result.value, stats.evaluations, stats.swaps_applied


def after_moves(inst: MKPInstance, x: np.ndarray, n_moves: int, seed: int) -> np.ndarray:
    """The 0/1 vector reached by ``n_moves`` compound moves from ``x``."""
    state = SearchState(inst, x.copy())
    tabu = TabuList(inst.n_items, 5)
    engine = MoveEngine(state, tabu, np.random.default_rng(seed))
    best = state.value
    for _ in range(n_moves):
        record = engine.apply(2, best)
        best = max(best, state.value)
        tabu.tick()
        if record.touched:
            tabu.make_tabu(np.asarray(record.touched))
    return state.x.copy()


class TestSwapIntensificationEquivalence:
    def test_word_path_matches_generic(self):
        # Input states: greedy, random and 20-moves-in solutions on random
        # instances, plus every word-boundary size.  The block-scanned word
        # path must apply the same swaps and charge the same evaluations.
        rng = np.random.default_rng(7)
        cases = []
        for k in range(15):
            inst = random_integer_instance(rng)
            rand = random_solution(inst, rng=k).x
            cases += [
                (inst, greedy_solution(inst).x),
                (inst, rand),
                (inst, after_moves(inst, rand, 20, seed=k)),
            ]
        for n in BOUNDARY_SIZES:
            inst = random_integer_instance(rng, n)
            cases += [
                (inst, random_solution(inst, rng=n).x),
                (inst, after_moves(inst, greedy_solution(inst).x, 20, seed=n)),
            ]
        swapped = 0
        for inst, x in cases:
            word = swap_outcome(inst, x, use_bitset=True)
            assert word == swap_outcome(inst, x, use_bitset=False)
            swapped += word[3] > 0
        assert swapped > len(cases) // 2  # the cases exercise actual swaps


def fill_by_walk(state: SearchState, order: np.ndarray) -> None:
    """Reference greedy fill: walk ``order`` once, adding each free item that fits."""
    weights = state.instance.weights
    slack = state.slack
    for j in order:
        if state.x[j]:
            continue
        if np.all(weights[:, j] <= slack + 1e-9):
            state.add(int(j))
            slack = state.slack


class TestFillEquivalence:
    """``fill_greedily`` against the per-item walk it replaces, on both paths."""

    @staticmethod
    def check(inst: MKPInstance, x: np.ndarray, order: np.ndarray | None) -> bytes:
        walk = SearchState(inst, x.copy())
        fill_by_walk(walk, np.argsort(inst.density, kind="stable") if order is None else order)
        paths = (True, False) if walk.kernel.use_bitset else (False,)
        for use_bitset in paths:
            state = SearchState(inst, x.copy())
            state.kernel.use_bitset = use_bitset
            fill_greedily(state, order)
            assert state.x.tobytes() == walk.x.tobytes()
            assert state.value == walk.value
        return walk.x.tobytes()

    def test_orders_match_the_walk(self):
        rng = np.random.default_rng(31)
        instances = [random_integer_instance(rng) for _ in range(12)]
        instances += [random_integer_instance(rng, n) for n in BOUNDARY_SIZES]
        for inst in instances:
            n = inst.n_items
            empty = np.zeros(n, dtype=np.int8)
            partial = greedy_solution(inst).x.copy()
            partial[rng.permutation(n)[: n // 2]] = 0  # feasible, not maximal
            for x in (empty, partial):
                self.check(inst, x, None)
                self.check(inst, x, rng.permutation(n))  # full order
                self.check(inst, x, rng.permutation(n)[: max(1, n // 3)])  # partial
                # an order made only of packed items adds nothing
                packed = np.flatnonzero(x)
                if packed.size:
                    assert self.check(inst, x, rng.permutation(packed)) == x.tobytes()
                # packed items mixed into a partial order
                mixed = np.concatenate([packed, rng.permutation(n)[: n // 2]])
                self.check(inst, x, rng.permutation(mixed))

    def test_float_instance_matches_the_walk(self):
        rng = np.random.default_rng(32)
        weights = rng.uniform(0.1, 5.0, size=(3, 40))
        inst = MKPInstance(weights, weights.sum(axis=1) * 0.4, rng.uniform(1, 9, 40))
        assert not SearchState.empty(inst).kernel.use_bitset
        empty = np.zeros(40, dtype=np.int8)
        self.check(inst, empty, None)
        self.check(inst, empty, rng.permutation(40)[:25])

    def test_infeasible_start_adds_nothing(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            inst = random_integer_instance(rng)
            state = SearchState(inst, greedy_solution(inst).x.copy())
            for j in np.flatnonzero(state.x == 0):  # overfill past capacity
                state.add(int(j))
                if not state.is_feasible:
                    break
            assert not state.is_feasible
            x = state.x.copy()
            assert self.check(inst, x, None) == x.tobytes()
            assert self.check(inst, x, rng.permutation(inst.n_items)) == x.tobytes()


# --------------------------------------------------------------------------- #
# set_exclusions no-op short-circuit (satellite regression)
# --------------------------------------------------------------------------- #
class TestExclusionShortCircuit:
    def test_unchanged_mask_keeps_generic_pool_warm(self):
        rng = np.random.default_rng(21)
        inst = random_integer_instance(rng)
        state = SearchState.empty(inst)
        kernel = state.kernel
        kernel.use_bitset = False
        kernel.set_exclusions({1, 3})
        kernel.fitting_items()
        assert kernel._pool is not None
        # Re-installing the identical mask must not invalidate the pool.
        kernel.set_exclusions({3, 1})
        assert kernel._pool is not None
        # Clearing when nothing is excluded is likewise free.
        kernel.clear_exclusions()
        kernel.fitting_items()
        pool = kernel._pool
        kernel.set_exclusions(None)
        kernel.clear_exclusions()
        assert kernel._pool is pool
        # A genuinely different mask still invalidates.
        kernel.set_exclusions({2})
        assert kernel._pool is None

    def test_unchanged_mask_still_correct_on_bitset_path(self):
        rng = np.random.default_rng(22)
        inst = random_integer_instance(rng)
        state = SearchState.empty(inst)
        kernel = state.kernel
        kernel.set_exclusions({0, 2})
        first = kernel.fitting_items().copy()
        kernel.set_exclusions({2, 0})
        assert np.array_equal(kernel.fitting_items(), first)
        assert 0 not in first and 2 not in first


# --------------------------------------------------------------------------- #
# Wire codec
# --------------------------------------------------------------------------- #
class TestWireCodec:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_solution_pickle_roundtrip(self, n):
        rng = np.random.default_rng(n)
        x = (rng.random(n) < 0.4).astype(np.int8)
        sol = Solution(x, float(x.sum()))
        clone = pickle.loads(pickle.dumps(sol))
        assert clone == sol
        assert clone.x.dtype == np.int8

    def test_message_roundtrip(self):
        rng = np.random.default_rng(9)
        x = (rng.random(120) < 0.4).astype(np.int8)
        sol = Solution(x, 5.0)
        task = SlaveTask(
            x_init=sol,
            strategy=Strategy(lt_length=9, nb_drop=2, nb_local=40),
            budget=Budget(max_evaluations=1000, target_value=99.0),
            seed=7,
            round_index=3,
            seq_id=12,
        )
        got = pickle.loads(pickle.dumps(task))
        assert got == task
        report = SlaveReport(
            slave_id=2,
            best=sol,
            elite=[sol, Solution(np.zeros(120, dtype=np.int8), 0.0)],
            initial_value=1.0,
            evaluations=123,
            moves=4,
            round_index=3,
            seq_id=12,
        )
        got = pickle.loads(pickle.dumps(report))
        assert got == report

    def test_budget_wire_form_drops_clock_state(self):
        budget = Budget(max_evaluations=10, wall_seconds=30.0).start()
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.max_evaluations == 10
        assert clone.wall_seconds == 30.0
        assert not clone._started

    def test_solution_memoized_packing_is_shared(self):
        x = np.ones(100, dtype=np.int8)
        sol = Solution(x, 100.0)
        assert sol.packed_words() is sol.packed_words()
        assert sol.packed_bytes() == words_to_bytes(pack_bits(x), 100)
        assert sol.distance(Solution(np.zeros(100, dtype=np.int8), 0.0)) == 100
