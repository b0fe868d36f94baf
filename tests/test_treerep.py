from itertools import permutations

import numpy as np
import pytest

from biasedperm.errors import ValidationError
from biasedperm import treerep
from biasedperm.kernels import TreeSwapChain

from conftest import EXAMPLE_TREE, random_league_tree


class TestParse:
    def test_example_tree(self, example_tree):
        assert example_tree.n == 7
        assert set(example_tree.nodes_by_name) == {"A", "B", "C"}

    def test_unary_contraction(self):
        tree = treerep.parse_tree({
            "node": "R",
            "children": [{"node": "U", "children": [{"node": "S",
                          "children": [1, 2], "q": {"(1,2)": "0.7"}}]}, 3],
            "q": {"(1,2)": "0.8"},
        })
        assert set(tree.nodes_by_name) == {"R", "S"}
        assert treerep.induced_probabilities(tree).prob(1, 3) == 0.8

    def test_unary_with_q_rejected(self):
        with pytest.raises(ValidationError, match="unary"):
            treerep.parse_tree({"node": "R", "children": [
                {"node": "U", "children": [1], "q": {"(1,1)": "0.6"}}, 2],
                "q": {"(1,2)": "0.8"}})

    def test_unsorted_leaves_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            treerep.parse_tree({"node": "R", "children": [2, 1],
                                "q": {"(1,2)": "0.7"}})

    def test_wrong_leaf_labels_rejected(self):
        with pytest.raises(ValidationError, match="1..n"):
            treerep.parse_tree({"node": "R", "children": [1, 3],
                                "q": {"(1,2)": "0.7"}})

    def test_missing_q_rejected(self):
        with pytest.raises(ValidationError, match="needs q"):
            treerep.parse_tree({"node": "R", "children": [1, 2, 3],
                                "q": {"(1,2)": "0.7"}})

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            treerep.parse_tree({"node": "R", "children": [1, 2],
                                "q": {"(1,2)": "0.5"}})


    @pytest.mark.parametrize("q", [0.7, 1, None, "abc"])
    def test_q_is_a_decimal_string(self, q):
        # a JSON number once built a league model; kclass and general
        # models refuse it, and so do league trees now
        with pytest.raises(ValidationError, match="q\\(1, 2\\)"):
            treerep.parse_tree({"node": "R", "children": [1, 2], "q": {"(1,2)": q}})

    def test_tree_strings_must_order_each_nodes_branch_labels(self, example_tree):
        strings = treerep.permutation_to_tree_strings(tuple(range(1, 8)), example_tree)
        for bad in (dict(strings, C=(1, 1)), dict(strings, C=(1, 2, 2)),
                    dict(strings, C=(0, 1)), dict(strings, C=([1], 2))):
            with pytest.raises(ValidationError, match="branch labels \\(1, 2\\) of node 'C'"):
                treerep.tree_strings_to_permutation(bad, example_tree)


class TestInducedProbabilities:
    def test_example_values(self, example_tree):
        ps = treerep.induced_probabilities(example_tree)
        assert ps.prob(2, 6) == 0.7
        assert ps.prob(5, 6) == 0.9
        assert ps.prob(6, 2) == pytest.approx(0.3)

    def test_star_tree_constant(self):
        tree = treerep.parse_tree({
            "node": "R", "children": [1, 2, 3],
            "q": {"(1,2)": "0.8", "(1,3)": "0.8", "(2,3)": "0.8"}})
        ps = treerep.induced_probabilities(tree)
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert ps.prob(i, j) == 0.8


def _ref_lca(tree, i, j):
    """The former set-intersection lca: of the common ancestors at which i
    and j take different branches, the one with the fewest leaves."""
    branch = {x: {} for x in range(1, tree.n + 1)}  # leaf -> {id(node): label}
    size = {}  # id(node) -> number of leaf descendants
    by_id = {}

    def walk(node):
        by_id[id(node)] = node
        leaves = []
        for label, child in enumerate(node.children, start=1):
            below = walk(child) if isinstance(child, treerep.TreeNode) else [child]
            for x in below:
                branch[x][id(node)] = label
            leaves += below
        size[id(node)] = len(leaves)
        return leaves

    walk(tree.root)
    best = None
    for node_id in set(branch[i]) & set(branch[j]):
        if branch[i][node_id] != branch[j][node_id]:
            if best is None or size[node_id] < size[best]:
                best = node_id
    return by_id[best].name, branch[i][best], branch[j][best]


class TestLca:
    @staticmethod
    def assert_matches_reference(tree):
        for i in range(1, tree.n + 1):
            for j in range(1, tree.n + 1):
                if i != j:
                    node, a, b = tree.lca(i, j)
                    assert (node.name, a, b) == _ref_lca(tree, i, j)

    def test_example_tree_equals_the_reference(self, example_tree):
        self.assert_matches_reference(example_tree)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_trees_equal_the_reference(self, seed):
        rng = np.random.default_rng([404, seed])
        for n, max_degree in ((6, 2), (7, 3), (9, 4)):
            self.assert_matches_reference(random_league_tree(n, rng, max_degree))

    def test_same_leaf_rejected(self, example_tree):
        with pytest.raises(ValidationError, match="distinct"):
            example_tree.lca(3, 3)

    def test_repeated_leaf_rejected(self):
        with pytest.raises(ValidationError, match="twice"):
            treerep.parse_tree({"node": "R", "children": [1, 2, 2],
                                "q": {"(1,2)": "0.7", "(1,3)": "0.7", "(2,3)": "0.7"}})


class TestTreeStrings:
    def test_worked_example(self, example_tree):
        strings = treerep.permutation_to_tree_strings((6, 1, 4, 3, 2, 7, 5),
                                                      example_tree)
        assert strings["A"] == (3, 1, 2, 1, 1, 4, 3)
        assert strings["B"] == (1, 3, 2)
        assert strings["C"] == (2, 1)

    def test_identity_sorted(self, example_tree):
        strings = treerep.permutation_to_tree_strings(tuple(range(1, 8)),
                                                      example_tree)
        for s in strings.values():
            assert list(s) == sorted(s)

    def test_reverse_on_star(self):
        tree = treerep.parse_tree({
            "node": "R", "children": [1, 2, 3, 4],
            "q": {f"({a},{b})": "0.8" for a in range(1, 5)
                  for b in range(a + 1, 5)}})
        fwd = treerep.permutation_to_tree_strings((1, 2, 3, 4), tree)["R"]
        rev = treerep.permutation_to_tree_strings((4, 3, 2, 1), tree)["R"]
        assert rev == tuple(reversed(fwd))

    def test_worked_round_trip(self, example_tree):
        sigma = (6, 1, 4, 3, 2, 7, 5)
        strings = treerep.permutation_to_tree_strings(sigma, example_tree)
        assert treerep.tree_strings_to_permutation(strings, example_tree) == sigma

    def test_sorted_strings_give_identity(self, example_tree):
        strings = treerep.permutation_to_tree_strings(tuple(range(1, 8)),
                                                      example_tree)
        assert treerep.tree_strings_to_permutation(strings, example_tree) == \
            tuple(range(1, 8))

    def test_exhaustive_round_trip_random_tree(self):
        tree = random_league_tree(6, np.random.default_rng(17), max_degree=3)
        for sigma in permutations(range(1, 7)):
            strings = treerep.permutation_to_tree_strings(sigma, tree)
            assert treerep.tree_strings_to_permutation(strings, tree) == sigma

    def test_count_mismatch_rejected(self, example_tree):
        strings = treerep.permutation_to_tree_strings(tuple(range(1, 8)),
                                                      example_tree)
        bad = dict(strings, C=(1, 1))
        with pytest.raises(ValidationError):
            treerep.tree_strings_to_permutation(bad, example_tree)


class TestLocality:
    def test_moves_touch_only_the_ancestor_string(self):
        # every legal state-changing tree move edits exactly one node's
        # string, by an adjacent transposition of two distinct symbols
        rng = np.random.default_rng(29)
        for trial in range(3):
            n = 5
            tree = random_league_tree(n, rng, max_degree=3)
            kernel = TreeSwapChain(tree)
            for sigma in permutations(range(1, n + 1)):
                before = treerep.permutation_to_tree_strings(sigma, tree)
                for target in kernel.transitions(sigma):
                    if target == sigma:
                        continue
                    moved = [x for x in range(1, n + 1)
                             if sigma.index(x) != target.index(x)]
                    node, _, _ = tree.lca(*sorted(moved))
                    after = treerep.permutation_to_tree_strings(target, tree)
                    for name in before:
                        if name == node.name:
                            assert before[name] != after[name]
                            _assert_adjacent_swap(before[name], after[name])
                        else:
                            assert before[name] == after[name]


def _assert_adjacent_swap(a, b):
    diffs = [k for k in range(len(a)) if a[k] != b[k]]
    assert len(diffs) == 2
    assert diffs[1] == diffs[0] + 1
    assert a[diffs[0]] == b[diffs[1]] and a[diffs[1]] == b[diffs[0]]
    assert a[diffs[0]] != a[diffs[1]]
