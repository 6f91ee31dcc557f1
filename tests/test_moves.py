"""Unit tests for :mod:`repro.core.moves` (the Drop/Add compound move)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import MKPInstance, MoveEngine, SearchState, TabuList, greedy_solution


def make_engine(instance, rng, tenure=3):
    state = SearchState.from_solution(instance, greedy_solution(instance))
    tabu = TabuList(instance.n_items, tenure)
    return MoveEngine(state, tabu, rng), state, tabu


class TestDropRule:
    def test_drop_follows_saturated_constraint_rule(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        i_star = state.most_saturated_constraint()
        packed = state.packed_items()
        ratios = (
            small_instance.weights[i_star, packed] / small_instance.profits[packed]
        )
        expected_best = ratios.max()
        j = engine.select_drop()
        actual = small_instance.weights[i_star, j] / small_instance.profits[j]
        assert actual == pytest.approx(expected_best)

    def test_drop_skips_tabu(self, small_instance, rng):
        engine, state, tabu = make_engine(small_instance, rng)
        i_star = state.most_saturated_constraint()
        packed = state.packed_items()
        ratios = small_instance.weights[i_star, packed] / small_instance.profits[packed]
        worst = packed[int(np.argmax(ratios))]
        tabu.make_tabu(worst)
        j = engine.select_drop()
        assert j != worst

    def test_drop_fallback_when_all_tabu(self, small_instance, rng):
        engine, state, tabu = make_engine(small_instance, rng)
        tabu.make_tabu(state.packed_items())
        assert engine.select_drop() is not None

    def test_drop_none_on_empty(self, small_instance, rng):
        state = SearchState.empty(small_instance)
        engine = MoveEngine(state, TabuList(small_instance.n_items, 3), rng)
        assert engine.select_drop() is None

    def test_drop_step_count(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        dropped = engine.drop_step(3)
        assert len(dropped) == 3
        assert all(state.x[j] == 0 for j in dropped)


class TestAddRule:
    def test_add_never_violates_feasibility(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        engine.drop_step(2)
        engine.add_step(best_value=float("inf"))
        assert state.is_feasible

    def test_add_until_maximal(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        engine.drop_step(2)
        engine.add_step(best_value=float("inf"))
        # tabu items may still "fit" but be inadmissible; non-tabu fitting
        # set must be empty
        fitting = state.fitting_items()
        tabu_mask = engine.tabu.tabu_mask(fitting)
        assert fitting[~tabu_mask].size == 0

    def test_add_respects_tabu_without_aspiration(self, small_instance, rng):
        engine, state, tabu = make_engine(small_instance, rng)
        engine.drop_step(1)
        fitting = state.fitting_items()
        assert fitting.size > 0
        tabu.make_tabu(fitting)
        # best so high that no aspiration possible
        assert engine.select_add(best_value=1e12) is None

    def test_aspiration_admits_tabu_item(self, small_instance, rng):
        for use_bitset in (True, False):
            engine, state, tabu = make_engine(small_instance, rng)
            state.kernel.use_bitset = use_bitset
            engine.drop_step(1)
            fitting = state.fitting_items()
            tabu.make_tabu(fitting)
            # incumbent low enough that any add beats it
            j = engine.select_add(best_value=state.value)
            assert j is not None
            assert tabu.is_tabu(j)


class TestCompoundMove:
    def test_apply_returns_record(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        record = engine.apply(2, best_value=state.value)
        assert record.dropped and len(record.dropped) <= 2
        assert record.touched == record.dropped + record.added
        assert record.hamming_step == len(record.touched)

    def test_apply_keeps_feasibility(self, small_instance, rng):
        engine, state, tabu = make_engine(small_instance, rng)
        best = state.value
        for _ in range(50):
            record = engine.apply(2, best)
            best = max(best, state.value)
            tabu.tick()
            if record.touched:
                tabu.make_tabu(np.asarray(record.touched))
            assert state.is_feasible

    def test_evaluation_counter_monotone(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        assert engine.evaluations == 0
        engine.apply(1, best_value=state.value)
        first = engine.evaluations
        assert first > 0
        engine.apply(1, best_value=state.value)
        assert engine.evaluations > first

    def test_nb_drop_zero_is_pure_add(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        record = engine.apply(0, best_value=state.value)
        assert record.dropped == []

    def test_bitset_pass_leaves_no_exclusions(self, small_instance, rng):
        """The bitset Add pass bars the just-dropped items with a Python-int
        keep mask: the kernel's exclusion mask stays empty, yet no dropped
        item comes straight back."""
        engine, state, tabu = make_engine(small_instance, rng, tenure=0)
        assert state.kernel.use_bitset
        best = state.value
        for _ in range(60):
            record = engine.apply(2, best)
            best = max(best, state.value)
            assert state.kernel._n_excluded == 0
            assert not set(record.dropped) & set(record.added)

    def test_add_step_clears_a_standalone_exclusion(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        engine.drop_step(2)
        engine.select_add(best_value=float("inf"), exclude={0, 1})
        assert state.kernel._n_excluded == 2
        engine.add_step(best_value=float("inf"))
        assert state.kernel._n_excluded == 0


class TestTieBreaking:
    def test_random_ties_follow_rng(self):
        """With an all-symmetric instance, different seeds pick different
        drops — the mechanism that decorrelates parallel threads."""
        inst = MKPInstance.from_lists(
            weights=[[1, 1, 1, 1, 1, 1]],
            capacities=[3],
            profits=[1, 1, 1, 1, 1, 1],
        )
        picks = set()
        for seed in range(20):
            state = SearchState(inst, np.array([1, 1, 1, 0, 0, 0], dtype=np.int8))
            engine = MoveEngine(
                state, TabuList(6, 2), np.random.default_rng(seed)
            )
            picks.add(engine.select_drop())
        assert len(picks) > 1

    @pytest.mark.parametrize("breadth", [2, 3])
    def test_add_ties_resolve_to_lowest_positions(self, breadth):
        """The Add rule draws from the ``breadth`` best by (ratio, position):
        with 300 fitting items tied on the ratio, only the lowest indices
        may come out, whatever order the CPU's partition kernel prefers."""
        n = 300
        inst = MKPInstance.from_lists(
            weights=[[1] * n], capacities=[n], profits=[1] * n
        )
        picks = set()
        for seed in range(24):
            state = SearchState.empty(inst)
            engine = MoveEngine(
                state, TabuList(n, 2), np.random.default_rng(seed),
                add_candidates=breadth,
            )
            picks.add(engine.select_add(best_value=0.0))
        assert picks == set(range(breadth))


class TestDirectDraw:
    """``MoveEngine._draw`` replays ``Generator.integers(0, k)`` draw for draw.

    It calls the bit generator's ``next_uint32`` and applies numpy's bounded
    (Lemire) rule itself, so a numpy release that changes the sampler must
    fail here rather than silently move every golden trajectory.
    """

    SIZES = (2, 3, 5, 7, 17, 100, 2**31 + 11, 3 * 2**30, 2**32, 2**32 + 1, 1)

    def test_draws_and_stream_match_integers(self, small_instance):
        state = SearchState.empty(small_instance)
        for seed in range(200):
            engine = MoveEngine(
                state, TabuList(small_instance.n_items, 0), np.random.default_rng(seed)
            )
            reference = np.random.default_rng(seed)
            for step in range(300):
                k = self.SIZES[(seed + step) % len(self.SIZES)]
                assert engine._draw(k) == int(reference.integers(0, k))
                if step % 7 == 0:
                    assert engine.rng.random() == reference.random()
                if step % 50 == 0:
                    assert np.array_equal(engine.rng.permutation(9), reference.permutation(9))
            assert engine.rng.bit_generator.state == reference.bit_generator.state

    def test_reassigned_generator_is_used(self, small_instance):
        state = SearchState.empty(small_instance)
        engine = MoveEngine(
            state, TabuList(small_instance.n_items, 0), np.random.default_rng(1)
        )
        engine._draw(1000)  # binds generator 1's raw draw
        engine.rng = np.random.default_rng(2)
        reference = np.random.default_rng(2)
        assert [engine._draw(1000) for _ in range(20)] == [
            int(reference.integers(0, 1000)) for _ in range(20)
        ]


#: numpy's AVX-512 dispatch targets; naming them in NPY_DISABLE_CPU_FEATURES
#: runs the baseline kernels instead (a no-op on hosts without AVX-512).
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

#: Four seeded runs on a heavily tied instance; leaves ``runs`` behind.
_TIED_RUNS = """
import numpy as np
from repro.core import MKPInstance
from repro.core.strategy import Strategy
from repro.core.tabu_search import TabuSearch
from repro.core.termination import Budget

rng = np.random.default_rng(5)
weights = rng.integers(0, 4, size=(5, 600)).astype(float)
inst = MKPInstance(
    weights,
    np.floor(weights.sum(axis=1) * 0.5),
    rng.integers(1, 5, size=600).astype(float),
)
runs = []
for seed in range(4):
    ts = TabuSearch(inst, Strategy(lt_length=7, nb_drop=2, nb_local=20), rng=seed)
    r = ts.run(budget=Budget(max_evaluations=20_000))
    runs.append([r.best.value, r.evaluations, r.moves])
"""


class TestHostIndependence:
    def test_tied_instance_trajectories_ignore_simd_dispatch(self):
        """Same seed, same trajectory across hosts: a heavily tied 5x600
        instance (weights 0-3, profits 1-4) gives the same (best,
        evaluations, moves) per seed with AVX-512 dispatch disabled."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
        )
        env["NPY_DISABLE_CPU_FEATURES"] = NO_AVX512
        out = subprocess.run(
            [sys.executable, "-c", _TIED_RUNS + "print(__import__('json').dumps(runs))"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        namespace: dict = {}
        exec(_TIED_RUNS, namespace)
        assert json.loads(out.stdout) == namespace["runs"]
