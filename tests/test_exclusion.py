import math
from itertools import permutations

import numpy as np
import pytest

from biasedperm.errors import BudgetExceededError, ValidationError
from biasedperm.kernels import constant_bias, square_table_bias, transitions_me, word_hash_bias
from biasedperm.exclusion import (
    StaircaseWalk,
    all_words,
    area,
    bottom_word,
    hitting_time_to_top,
    measure_boundedness,
    top_word,
    trial_seed,
    walk_to_word,
    word_to_walk,
)


class TestBijection:
    def test_worked_walk(self):
        walk = word_to_walk((0, 1, 0, 0, 1, 0, 1))
        assert walk.steps == ("R", "D", "R", "R", "D", "R", "D")
        assert walk.h == 3 and walk.w == 4

    def test_all_zeros_is_all_right(self):
        walk = word_to_walk((0, 0, 0))
        assert walk.steps == ("R", "R", "R")

    def test_round_trip_exhaustive(self):
        for word in all_words(3, 4):
            assert walk_to_word(word_to_walk(word)) == word
        assert len(list(all_words(3, 4))) == 35

    def test_count_validation(self):
        walk = StaircaseWalk(("R", "D"))
        with pytest.raises(ValidationError):
            walk_to_word(walk, n1=2, n0=0)
        with pytest.raises(ValidationError):
            StaircaseWalk(("X",))


class TestArea:
    def test_extremes(self):
        assert area(bottom_word(3, 4)) == 0
        assert area(top_word(3, 4)) == 12

    def test_each_move_changes_area_by_one(self):
        bias = constant_bias(0.6)
        for word in all_words(3, 3):
            for target in transitions_me(word, bias):
                if target != word:
                    assert abs(area(target) - area(word)) == 1

    def test_stationary_weight_is_bias_power_area(self):
        # cross-check: the exact stationary vector of the constant-bias chain
        # is proportional to ratio^area, and matches the 2-class word formula
        from biasedperm.analysis import build_matrix, enumerate_states, stationary_exact, stationary_formula
        from biasedperm.kernels import GeneralizedExclusionChain
        from biasedperm.model import ClassPartition, KClassParams, build_kclass

        p = 0.7
        kernel = GeneralizedExclusionChain(constant_bias(p), 2, 3)
        space = enumerate_states("binary", n1=2, n0=3)
        pi = stationary_exact(build_matrix(kernel, space))
        lam = p / (1 - p)
        expected = np.array([lam ** area(w) for w in space.states])
        expected /= expected.sum()
        assert np.abs(pi - expected).max() < 1e-12

        part = ClassPartition.from_sizes((3, 2))
        ps = build_kclass(KClassParams(part, {(1, 2): p}))
        word_space = enumerate_states("words", multiplicities=(3, 2))
        formula = stationary_formula(word_space, ps, part)
        relabeled = {tuple(1 if x == 0 else 2 for x in w): float(pi[i])
                     for i, w in enumerate(space.states)}
        for i, w in enumerate(word_space.states):
            assert formula[i] == pytest.approx(relabeled[w], rel=1e-10)


class TestBoundedness:
    def test_constant_bias(self):
        report = measure_boundedness(constant_bias(0.75), 2, 2)
        assert report.min_bias == pytest.approx(3.0)
        assert report.exact

    def test_square_table_minimum_and_witness(self):
        table = {"h": 2, "w": 2, "bias": {"(1,1)": "1.5", "(1,2)": "2.0",
                                          "(2,1)": "1.3", "(2,2)": "1.2"}}
        report = measure_boundedness(square_table_bias(table), 2, 2)
        assert report.min_bias == pytest.approx(1.2)
        assert report.witness_square == (2, 2)

    def test_budget_guard_and_sampling_fallback(self):
        with pytest.raises(BudgetExceededError):
            measure_boundedness(constant_bias(0.75), 8, 8, budget=100)
        report = measure_boundedness(constant_bias(0.75), 8, 8, budget=100,
                                     sample_steps=500, seed=1)
        assert not report.exact
        assert report.min_bias == pytest.approx(3.0)


class TestHitting:
    def test_geometric_case(self):
        # one 1 and one 0: each step swaps with probability p, so the
        # hitting time is geometric with mean 1/p
        p = 0.6
        summary = hitting_time_to_top(constant_bias(p), 1, 1, trials=4000, seed=5)
        assert summary.mean == pytest.approx(1 / p, rel=0.05)

    def test_already_at_top(self):
        summary = hitting_time_to_top(constant_bias(0.75), 0, 4, trials=3, seed=0)
        assert summary.trials == (0, 0, 0)
        assert summary.mean == 0.0

    def test_trials_reproducible_and_order_independent(self):
        bias = constant_bias(0.75)
        five = hitting_time_to_top(bias, 2, 2, trials=5, seed=99).trials
        three = hitting_time_to_top(bias, 2, 2, trials=3, seed=99).trials
        assert five[:3] == three
        again = hitting_time_to_top(bias, 2, 2, trials=5, seed=99).trials
        assert again == five

    def test_seed_split_is_stable(self):
        assert trial_seed(99, 0) != trial_seed(99, 1)
        assert trial_seed(99, 1) == trial_seed(99, 1)

    def test_unbounded_bias_warns(self):
        bias = constant_bias(0.4)
        with pytest.warns(UserWarning, match="bias"):
            hitting_time_to_top(bias, 1, 1, trials=2, seed=0)

    def test_generic_callback_path(self):
        summary = hitting_time_to_top(word_hash_bias, 2, 2, trials=3, seed=7)
        assert all(t > 0 for t in summary.trials)
