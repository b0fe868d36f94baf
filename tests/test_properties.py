"""Property tests over random small models.

Hypothesis draws the models; ``derandomize=True`` fixes the examples, so
the suite stays deterministic, and the example counts are small so it adds
only a few seconds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasedperm import treerep
from biasedperm.analysis import (
    build_csr,
    check_detailed_balance,
    space_for_kernel,
    stationary_formula,
)
from biasedperm.exclusion import walk_to_word, word_to_walk
from biasedperm.kernels import make_bias, make_kernel
from biasedperm.model import (
    ClassPartition,
    KClassParams,
    build_kclass,
    check_weak_monotonicity,
    random_monotone_set,
)

from conftest import random_league_tree

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=20)


@st.composite
def kclass_models(draw, max_n=5):
    """A weakly monotone k-class set: each class's row of cross-class
    probabilities rises with the other class, as in ``seeded_kclass``."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
                 .filter(lambda s: 2 <= sum(s) <= max_n))
    k = len(sizes)
    q = {}
    for a in range(1, k):
        row = sorted(draw(st.lists(st.floats(0.55, 0.95), min_size=k - a,
                                   max_size=k - a)))
        for b, value in zip(range(a + 1, k + 1), row):
            q[(a, b)] = value
    partition = ClassPartition.from_sizes(sizes)
    prob_set = build_kclass(KClassParams(partition, q))
    assert check_weak_monotonicity(prob_set).weakly_monotone
    return prob_set, partition


def _general_sets():
    return st.tuples(st.integers(2, 5), st.integers(0, 2**32 - 1)).map(
        lambda a: (random_monotone_set(a[0], np.random.default_rng(a[1])), None))


MODELS = {
    "mnn": st.one_of(kclass_models(), _general_sets()),
    "mtk": kclass_models(),
    "mk1": kclass_models(),
    "mpp": kclass_models(),
    "mi:1": kclass_models(),
    "mtree": st.tuples(st.integers(2, 5), st.integers(0, 2**32 - 1)).map(
        lambda a: random_league_tree(a[0], np.random.default_rng(a[1]))),
    "me": st.tuples(st.sampled_from(["constant:0.3", "constant:0.75", "word-hash"]),
                    st.integers(1, 4), st.integers(1, 4)),
}


def build(name, model):
    if name == "mtree":
        return make_kernel(name, tree=model)
    if name == "me":
        spec, n1, n0 = model
        return make_kernel(name, bias=make_bias(spec), n1=n1, n0=n0)
    prob_set, partition = model
    return make_kernel(name, prob_set=prob_set, partition=partition)


@pytest.mark.parametrize("name", sorted(MODELS))
@SETTINGS
@given(data=st.data())
def test_every_row_is_stochastic(name, data):
    kernel = build(name, data.draw(MODELS[name]))
    space = space_for_kernel(kernel)
    for state in space.states:
        row = kernel.transitions(state)
        assert all(p >= 0.0 for p in row.values())
        assert abs(math.fsum(row.values()) - 1.0) < 1e-12
        assert all(target in space.index for target in row)


@pytest.mark.parametrize("name", ["mnn", "mtk", "mk1", "mpp"])
@SETTINGS
@given(model=kclass_models())
def test_product_formula_balances(name, model):
    prob_set, partition = model
    kernel = make_kernel(name, prob_set=prob_set, partition=partition)
    space = space_for_kernel(kernel)
    pi = stationary_formula(space, prob_set, partition)
    report = check_detailed_balance(build_csr(kernel, space), pi)
    assert report.max_violation <= 1e-12


@SETTINGS
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.integers(0, 2**32 - 1), st.permutations(range(1, n + 1)))))
def test_tree_strings_round_trip(case):
    seed, sigma = case
    tree = random_league_tree(len(sigma), np.random.default_rng(seed))
    strings = treerep.permutation_to_tree_strings(tuple(sigma), tree)
    assert treerep.tree_strings_to_permutation(strings, tree) == tuple(sigma)


@SETTINGS
@given(st.lists(st.sampled_from([0, 1]), max_size=12))
def test_word_walk_round_trip(word):
    word = tuple(word)
    walk = word_to_walk(word)
    assert walk_to_word(walk, word.count(1), word.count(0)) == word
    assert word_to_walk(walk_to_word(walk)) == walk
