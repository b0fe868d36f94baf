"""Shared fixtures: the bundled 7-leaf example tree and seeded instance pools."""

from __future__ import annotations

import numpy as np
import pytest

from biasedperm.model import (
    ClassPartition,
    KClassParams,
    WeightVector,
    build_from_weights,
    build_kclass,
    check_weak_monotonicity,
    random_monotone_set,
)
from biasedperm import treerep
from biasedperm.analysis import build_matrix, mixing_time_exact, space_for_kernel, stationary_exact
from biasedperm.kernels import GeneralizedExclusionChain, constant_bias

# Seven leaves, three internal nodes; used across the tree and chain tests.
EXAMPLE_TREE = {
    "node": "A",
    "children": [
        {"node": "B", "children": [1, 2, 3],
         "q": {"(1,2)": "0.6", "(1,3)": "0.8", "(2,3)": "0.8"}},
        4,
        {"node": "C", "children": [5, 6], "q": {"(1,2)": "0.9"}},
        7,
    ],
    "q": {"(1,2)": "0.6", "(1,3)": "0.7", "(1,4)": "0.8",
          "(2,3)": "0.8", "(2,4)": "0.8", "(3,4)": "0.7"},
}


@pytest.fixture(scope="session")
def example_tree():
    return treerep.parse_tree(EXAMPLE_TREE)


@pytest.fixture(scope="session")
def exclusion_scans():
    """Criterion 6b's chains (bias 0.75, n1 = total // 2) at totals 6..12:
    {total: (kernel, dense matrix, exact pi, tau(1/4) scanned with tmax=768)}.

    The worst-start scans take seconds, so the tests that need them share
    one run.
    """
    scans = {}
    for total in (6, 8, 10, 12):
        kernel = GeneralizedExclusionChain(constant_bias(0.75), total // 2, total - total // 2)
        matrix = build_matrix(kernel, space_for_kernel(kernel))
        pi = stationary_exact(matrix)
        scans[total] = (kernel, matrix, pi, mixing_time_exact(matrix, pi, 0.25, tmax=768))
    return scans


def random_league_tree_dict(n: int, rng, max_degree: int = 4) -> dict:
    """Random ordered tree over leaves 1..n with seeded q values."""
    counter = [0]

    def build(lo: int, hi: int):
        size = hi - lo + 1
        if size == 1:
            return lo
        degree = int(rng.integers(2, min(max_degree, size) + 1))
        cuts = sorted(rng.choice(np.arange(1, size), size=degree - 1, replace=False))
        edges = [0] + [int(c) for c in cuts] + [size]
        children = [build(lo + edges[i], lo + edges[i + 1] - 1)
                    for i in range(degree)]
        counter[0] += 1
        q = {
            f"({a},{b})": repr(float(rng.uniform(0.55, 0.95)))
            for a in range(1, degree + 1) for b in range(a + 1, degree + 1)
        }
        return {"node": f"N{counter[0]}", "children": children, "q": q}

    root = build(1, n)
    if not isinstance(root, dict):  # n == 1 cannot happen for our tests
        raise AssertionError
    return root


def random_league_tree(n: int, rng, max_degree: int = 4) -> treerep.LeagueTree:
    return treerep.parse_tree(random_league_tree_dict(n, rng, max_degree))


def seeded_kclass_params(n: int, k: int, seed) -> KClassParams:
    """Seeded class sizes and cross-class probabilities, each row of q sorted."""
    rng = np.random.default_rng(seed)
    sizes = _random_sizes(n, k, rng)
    partition = ClassPartition.from_sizes(sizes)
    q = {}
    for a in range(1, k + 1):
        row = np.sort(rng.uniform(0.55, 0.95, size=k - a))
        for off, b in enumerate(range(a + 1, k + 1)):
            q[(a, b)] = float(row[off])
    return KClassParams(partition, q)


def seeded_kclass(n: int, k: int, seed) -> tuple:
    """Weakly monotone bounded k-class instance: (prob_set, partition)."""
    params = seeded_kclass_params(n, k, seed)
    prob_set = build_kclass(params)
    report = check_weak_monotonicity(prob_set)
    assert report.weakly_monotone, "generator must produce weakly monotone sets"
    return prob_set, params.partition


def seeded_prop3_only(n: int, k: int, seed) -> tuple:
    """Seeded k-class instance weakly monotone by prop3 but not by prop2:
    (prob_set, partition).  Draws class sizes and q ~ U(0.55, 0.95) from
    one generator until a draw is prop3-only; k >= 3, since every 2-class
    set with q >= 1/2 satisfies prop2."""
    rng = np.random.default_rng(seed)
    while True:
        partition = ClassPartition.from_sizes(_random_sizes(n, k, rng))
        q = {(a, b): float(rng.uniform(0.55, 0.95))
             for a in range(1, k + 1) for b in range(a + 1, k + 1)}
        prob_set = build_kclass(KClassParams(partition, q))
        report = check_weak_monotonicity(prob_set)
        if report.weakly_monotone and report.prop3 and not report.prop2:
            return prob_set, partition


def family_paths(family, space):
    """The paths of a PathFamily one by one, as (x, y, direction, states),
    states a tuple of the space's states from x to y."""
    for k in range(len(family)):
        chunk = family.states[family.indptr[k]:family.indptr[k + 1]]
        yield (space.states[family.x[k]], space.states[family.y[k]],
               str(family.direction[k]), tuple(space.states[s] for s in chunk))


def _random_sizes(n: int, k: int, rng):
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    edges = [0] + [int(c) for c in cuts] + [n]
    return [edges[i + 1] - edges[i] for i in range(k)]


def stationary_instances():
    """>= 10 seeded parameter sets at n <= 5 spanning all three model families.

    Returns a list of (label, prob_set, partition_or_None, tree_or_None).
    """
    out = []
    for idx, (n, k) in enumerate([(4, 2), (5, 2), (5, 3), (4, 3)]):
        ps, part = seeded_kclass(n, k, seed=[11, idx])
        out.append((f"kclass-n{n}-k{k}", ps, part, None))
    for idx, n in enumerate([4, 5, 5]):
        tree = random_league_tree(n, np.random.default_rng([23, idx]))
        out.append((f"league-n{n}-{idx}", treerep.induced_probabilities(tree),
                    None, tree))
    for idx, w in enumerate([("4", "2", "2", "1"), ("5", "3", "3", "2", "1")]):
        wv = WeightVector.from_strings(w)
        out.append((f"weights-{idx}", build_from_weights(wv),
                    wv.induced_partition(), None))
    for idx, n in enumerate([4, 5]):
        rng = np.random.default_rng([37, idx])
        out.append((f"general-n{n}", random_monotone_set(n, rng), None, None))
    return out
