import math
from itertools import combinations, permutations

import numpy as np
import pytest

from biasedperm.errors import ValidationError
from biasedperm.model import ClassPartition, constant_bias_set, uniform_set, validate_kclass
from biasedperm import permcore

from conftest import seeded_kclass


def brute_force_log_weight(sigma, ps):
    """Independent oracle: direct product over position pairs."""
    total = 0.0
    for i, j in combinations(range(len(sigma)), 2):
        total += math.log(ps.prob(sigma[i], sigma[j]))
    return total


class TestWeight:
    def test_uniform(self):
        ps = uniform_set(3)
        assert permcore.log_weight((2, 3, 1), ps) == pytest.approx(3 * math.log(0.5))

    def test_identity_constant(self):
        ps = constant_bias_set(3, 0.6)
        assert permcore.log_weight((1, 2, 3), ps) == pytest.approx(3 * math.log(0.6))

    def test_reversal_constant(self):
        ps = constant_bias_set(3, 0.6)
        lw = permcore.log_weight((3, 2, 1), ps)
        assert lw == pytest.approx(brute_force_log_weight((3, 2, 1), ps))
        assert lw == pytest.approx(3 * math.log(0.4))
        ratio = math.exp(lw - permcore.log_weight((1, 2, 3), ps))
        assert ratio == pytest.approx(1.5 ** -3)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(5)
        from biasedperm.model import random_monotone_set

        ps = random_monotone_set(5, rng)
        for sigma in list(permutations(range(1, 6)))[::10]:
            assert permcore.log_weight(sigma, ps) == pytest.approx(
                brute_force_log_weight(sigma, ps), rel=1e-12)

    def test_log_weight_gives_the_former_sum_bit_for_bit(self):
        ps, _ = seeded_kclass(6, 3, seed=[808, 1])
        for sigma in list(permutations(range(1, 7)))[::37]:
            idx = np.asarray(sigma) - 1
            sub = ps.p[np.ix_(idx, idx)]
            former = float(np.log(sub[np.triu_indices(6, k=1)]).sum())
            assert permcore.log_weight(sigma, ps) == former

    @pytest.mark.parametrize("seed", range(4))
    def test_array_form_matches_each_log_weight_bit_for_bit(self, seed):
        from biasedperm.model import random_monotone_set

        sets = [seeded_kclass(7, 3, seed=[808, seed])[0],
                random_monotone_set(7, np.random.default_rng([808, seed]))]
        states = list(permutations(range(1, 8)))[seed::11]
        for ps in sets:
            former = []  # the per-state gather log_weight made before the array form
            for sigma in states:
                idx = np.asarray(sigma) - 1
                sub = ps.p[np.ix_(idx, idx)]
                former.append(float(np.log(sub[np.triu_indices(7, k=1)]).sum()))
            assert permcore.log_weights(states, ps).tolist() == former
            assert [permcore.log_weight(s, ps) for s in states] == former
        assert permcore.log_weights([(1,)], uniform_set(1)).tolist() == [0.0]

    def test_uniform_weights_all_equal(self):
        ps = uniform_set(4)
        weights = {permcore.log_weight(s, ps) for s in permutations(range(1, 5))}
        assert len(weights) == 1


class TestProject:
    def test_worked_word(self):
        # sigma(1), sigma(2) in class 2; sigma(3) in class 1; sigma(4), sigma(5) in class 3
        part = ClassPartition.from_sizes((1, 2, 2))
        sigma = (2, 3, 1, 4, 5)
        assert permcore.project(sigma, part) == (2, 2, 1, 3, 3)

    def test_single_class_constant_word(self):
        part = ClassPartition(4, ())
        assert permcore.project((3, 1, 4, 2), part) == (1, 1, 1, 1)

    def test_identity_sorted_word(self):
        part = ClassPartition.from_sizes((2, 1))
        assert permcore.project((1, 2, 3), part) == (1, 1, 2)

    def test_equal_weight_fibers(self):
        # all permutations projecting to the same word share one weight
        ps, part = seeded_kclass(5, 2, seed=9)
        table = validate_kclass(ps, part)
        by_word = {}
        for sigma in permutations(range(1, 6)):
            word = permcore.project(sigma, part)
            by_word.setdefault(word, []).append(permcore.log_weight(sigma, ps))
        for word, weights in by_word.items():
            assert max(weights) - min(weights) < 1e-12
            # and the shared weight matches the word-level formula
            assert weights[0] == pytest.approx(
                permcore.word_log_weight(word, table), rel=1e-12)


class TestSerialization:
    def test_permutation_spaces(self):
        assert permcore.format_permutation((3, 1, 2)) == "3 1 2"

    def test_word_digits(self):
        assert permcore.format_word((2, 2, 1, 3, 3)) == "22133"

    def test_word_commas_above_nine(self):
        word = (10, 2, 10)
        text = permcore.format_word(word, k=10)
        assert text == "10,2,10"
