import bisect
import math
from itertools import permutations

import numpy as np
import pytest

from biasedperm.analysis import (build_csr, check_detailed_balance, enumerate_states,
                                 space_for_kernel, stationary_formula)
from biasedperm.errors import PropertyViolationError, ValidationError
from biasedperm.model import (
    ClassPartition,
    KClassParams,
    build_general,
    build_kclass,
    check_weak_monotonicity,
    constant_bias_set,
    uniform_set,
    validate_kclass,
)
from biasedperm import kernels, permcore, treerep
from biasedperm.kernels import (
    AdjacentTranspositionChain,
    ClassTranspositionChain,
    CrossClassChain,
    GeneralizedExclusionChain,
    ParticleProcessChain,
    SameClassChain,
    TreeSwapChain,
    constant_bias,
    make_bias,
    make_kernel,
    sample_step,
    sample_steps,
    square_table_bias,
    word_hash_bias,
)

from conftest import EXAMPLE_TREE, random_league_tree, seeded_kclass


def _lift(word, part):
    """The permutation with this class word listing each class in increasing order."""
    members = {c: iter(part.members(c)) for c in range(1, part.k + 1)}
    return tuple(next(members[c]) for c in word)


def assert_row_stochastic(row):
    assert abs(math.fsum(row.values()) - 1.0) < 1e-12
    assert all(p >= 0 for p in row.values())


class TestMnn:
    def test_two_states(self):
        ps = constant_bias_set(2, 0.6)
        row = AdjacentTranspositionChain(ps).transitions((2, 1))
        assert row[(1, 2)] == pytest.approx(0.6)
        assert row[(2, 1)] == pytest.approx(0.4)

    def test_uniform_swap_mass(self):
        ps = uniform_set(4)
        row = AdjacentTranspositionChain(ps).transitions((1, 2, 3, 4))
        non_loop = {k: v for k, v in row.items() if k != (1, 2, 3, 4)}
        assert all(v == pytest.approx(1 / 6) for v in non_loop.values())
        assert len(non_loop) == 3

    def test_hand_enumeration(self):
        ps = constant_bias_set(3, 0.6)
        row = AdjacentTranspositionChain(ps).transitions((1, 2, 3))
        assert row[(2, 1, 3)] == pytest.approx(0.2)
        assert row[(1, 3, 2)] == pytest.approx(0.2)
        assert row[(1, 2, 3)] == pytest.approx(0.6)


class TestMtk:
    def test_worked_class_word(self):
        # class word (3,1,4,2,5,6,3): the two class-3 elements exchange via N;
        # the class-3/class-4 pair at positions (1,3) exchanges via R; the
        # class-4 element cannot reach the class-6 one across class 5.
        part = ClassPartition.from_sizes((1, 1, 2, 1, 1, 1))
        q = {(a, b): 0.7 for a in range(1, 7) for b in range(a + 1, 7)}
        ps = build_kclass(KClassParams(part, q))
        sigma = (3, 1, 5, 2, 6, 7, 4)
        assert permcore.project(sigma, part) == (3, 1, 4, 2, 5, 6, 3)
        moves = {(mv.i, mv.j, mv.direction)
                 for mv in ClassTranspositionChain(ps, part).moves(sigma)}
        assert (1, 7, "N") in moves        # the two class-3 elements
        assert (1, 3, "R") in moves        # class 3 with class 4 across class 1
        assert not any((i, j) == (3, 6) for i, j, _ in moves)  # blocked by class 5
        row = ClassTranspositionChain(ps, part).transitions(sigma)
        assert_row_stochastic(row)
        target = permcore.transpose(sigma, 1, 3)
        lam = (1 - 0.7) / 0.7
        assert row[target] == pytest.approx(lam / 21)

    def test_two_elements_one_class(self):
        ps = uniform_set(2)
        part = ClassPartition(2, ())
        row = ClassTranspositionChain(ps, part).transitions((1, 2))
        assert row[(2, 1)] == pytest.approx(1 / 6)
        assert row[(1, 2)] == pytest.approx(5 / 6)

    def test_singleton_classes_right_move(self):
        ps = constant_bias_set(3, 0.7)
        part = ClassPartition(3, (1, 2))
        row = ClassTranspositionChain(ps, part).transitions((1, 2, 3))
        lam = 0.3 / 0.7
        assert row[(2, 1, 3)] == pytest.approx(lam / 9)

    def test_acceptance_above_one_is_metropolis(self):
        # q violating the row-monotonicity clause pushes the product r of an
        # R move above 1: the move is accepted with probability 1 and its
        # reverse L move with 1/r, so the chain balances the product law
        part = ClassPartition(3, (1, 2))
        q = {(1, 2): 0.95, (1, 3): 0.55, (2, 3): 0.55}
        ps = build_kclass(KClassParams(part, q))
        assert not check_weak_monotonicity(ps).prop2
        kernel = ClassTranspositionChain(ps, part)
        r = (0.45 / 0.55) * ((0.45 / 0.55) * (0.95 / 0.05))
        right = {(mv.i, mv.j, mv.direction): mv.acceptance for mv in kernel.moves((2, 1, 3))}
        left = {(mv.i, mv.j, mv.direction): mv.acceptance for mv in kernel.moves((3, 1, 2))}
        assert right[1, 3, "R"] == 1.0
        assert left[1, 3, "L"] == pytest.approx(1 / r)
        space = enumerate_states("permutations", n=3)
        matrix = build_csr(kernel, space)
        assert np.abs(np.asarray(matrix.sum(axis=1)).ravel() - 1.0).max() < 1e-12
        pi = stationary_formula(space, ps)
        assert np.abs(pi @ matrix - pi).max() < 1e-15
        assert check_detailed_balance(matrix, pi).max_violation < 1e-15

    def test_acceptance_within_one_for_monotone_sets(self):
        for seed in range(4):
            ps, part = seeded_kclass(5, 3, seed=[101, seed])
            kernel = ClassTranspositionChain(ps, part)
            for sigma in permutations(range(1, 6)):
                for mv in kernel.moves(sigma):
                    assert mv.acceptance <= 1.0

    def test_mnn_support_subset_of_mtk(self):
        ps, part = seeded_kclass(5, 2, seed=55)
        mnn, mtk = AdjacentTranspositionChain(ps), ClassTranspositionChain(ps, part)
        for sigma in permutations(range(1, 6)):
            nn = mnn.transitions(sigma)
            tk = mtk.transitions(sigma)
            for target, mass in nn.items():
                if target != sigma and mass > 0:
                    assert tk.get(target, 0.0) > 0.0

    def test_factorization_into_within_and_cross(self):
        # non-loop mtk moves are the disjoint union of the per-class N moves
        # and the L/R moves of the cross-class chain
        ps, part = seeded_kclass(5, 3, seed=77)
        n = 5
        mtk, mk1 = ClassTranspositionChain(ps, part), CrossClassChain(ps, part)
        for sigma in permutations(range(1, 6)):
            moves = mtk.moves(sigma)
            split = {"N": set(), "LR": set()}
            for mv in moves:
                key = "N" if mv.direction == "N" else "LR"
                split[key].add((mv.i, mv.j))
            assert split["N"] & split["LR"] == set()
            word = permcore.project(sigma, part)
            cross = {tuple(p for p in range(1, n + 1) if target[p - 1] != word[p - 1])
                     for target in mk1.transitions(word) if target != word}
            assert cross == split["LR"]
            within = set()
            for c in range(1, part.k + 1):
                row = SameClassChain(ps, part, c).transitions(sigma)
                for target in row:
                    if target != sigma:
                        diff = [p for p in range(1, n + 1)
                                if target[p - 1] != sigma[p - 1]]
                        within.add(tuple(diff))
            assert within == split["N"]

    def test_mk1_equals_mtk_restricted(self):
        # M_k1 on a word moves like M_tk's L and R moves on any permutation
        # with that word
        ps, part = seeded_kclass(4, 2, seed=13)
        mtk, mk1 = ClassTranspositionChain(ps, part), CrossClassChain(ps, part)
        for word in enumerate_states("words", multiplicities=part.sizes).states:
            sigma = _lift(word, part)
            lr_only = {(mv.i, mv.j): mv.acceptance for mv in mtk.moves(sigma)
                       if mv.direction != "N"}
            k1 = mk1.transitions(word)
            expected = {}
            for (i, j), acc in lr_only.items():
                out = list(word)
                out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
                tgt = tuple(out)
                expected[tgt] = expected.get(tgt, 0.0) + acc / 12
            for tgt, mass in expected.items():
                assert k1[tgt] == pytest.approx(mass)
            assert set(k1) - {word} == set(expected)


class TestMi:
    def test_singleton_class_pure_loop(self):
        ps, part = seeded_kclass(4, 2, seed=21)
        c = part.sizes.index(min(part.sizes)) + 1
        if part.sizes[c - 1] == 1:
            row = SameClassChain(ps, part, c).transitions((1, 2, 3, 4))
            assert row == {(1, 2, 3, 4): 1.0}

    def test_adjacent_classmates(self):
        part = ClassPartition.from_sizes((2, 1))
        ps = build_kclass(KClassParams(part, {(1, 2): 0.8}))
        row = SameClassChain(ps, part, 1).transitions((1, 2, 3))
        assert row[(2, 1, 3)] == pytest.approx(0.5)
        assert row[(1, 2, 3)] == pytest.approx(0.5)

    def test_swap_across_other_class(self):
        # class word 1 2 1: picking the right class-1 element swaps across
        # the class-2 element, a move the adjacent chain cannot make
        part = ClassPartition.from_sizes((2, 1))
        ps = build_kclass(KClassParams(part, {(1, 2): 0.8}))
        sigma = (1, 3, 2)
        row = SameClassChain(ps, part, 1).transitions(sigma)
        assert row[(2, 3, 1)] == pytest.approx(0.5)

    def test_empty_class_rejected(self):
        ps = uniform_set(3)
        part = ClassPartition(3, ())
        with pytest.raises(ValidationError):
            SameClassChain(ps, part, 2).transitions((1, 2, 3))


class TestMpp:
    def test_all_same_label_pure_loop(self):
        part = ClassPartition.from_sizes((2,))
        ps = uniform_set(2)
        assert ParticleProcessChain(ps, part).transitions((1, 1)) == {(1, 1): 1.0}

    def test_two_labels(self):
        part = ClassPartition.from_sizes((1, 1))
        ps = build_kclass(KClassParams(part, {(1, 2): 0.8}))
        row = ParticleProcessChain(ps, part).transitions((1, 2))
        assert row[(2, 1)] == pytest.approx(0.2)
        assert row[(1, 2)] == pytest.approx(0.8)

    def test_hand_enumeration_121(self):
        part = ClassPartition.from_sizes((2, 1))
        ps = build_kclass(KClassParams(part, {(1, 2): 0.8}))
        row = ParticleProcessChain(ps, part).transitions((1, 2, 1))
        assert row[(2, 1, 1)] == pytest.approx(0.5 * 0.2)
        assert row[(1, 1, 2)] == pytest.approx(0.5 * 0.8)
        assert_row_stochastic(row)

    def test_matches_exclusion_after_relabeling(self):
        # a 2-class word chain is the exclusion chain under 1->0, 2->1
        part = ClassPartition.from_sizes((2, 2))
        q = 0.75
        ps = build_kclass(KClassParams(part, {(1, 2): q}))
        mpp = ParticleProcessChain(ps, part)
        me = GeneralizedExclusionChain(constant_bias(q), 2, 2)
        for word in [(1, 2, 1, 2), (2, 1, 2, 1), (1, 1, 2, 2), (2, 2, 1, 1)]:
            mpp_row = mpp.transitions(word)
            binary = tuple(0 if x == 1 else 1 for x in word)
            me_row = me.transitions(binary)
            relabeled = {tuple(0 if x == 1 else 1 for x in k): v
                         for k, v in mpp_row.items()}
            assert set(relabeled) == set(me_row)
            for k in me_row:
                assert relabeled[k] == pytest.approx(me_row[k])


class TestMtree:
    def test_two_leaves(self):
        tree = treerep.parse_tree({"node": "R", "children": [1, 2],
                                   "q": {"(1,2)": "0.7"}})
        row = TreeSwapChain(tree).transitions((1, 2))
        assert row[(2, 1)] == pytest.approx(0.3)
        assert row[(1, 2)] == pytest.approx(0.7)

    def test_example_tree_pair_legality(self, example_tree):
        sigma = (6, 1, 4, 3, 2, 7, 5)
        row = TreeSwapChain(example_tree).transitions(sigma)
        # {5,6}: nothing between them descends from their common ancestor
        assert (5, 1, 4, 3, 2, 7, 6) in row
        # {1,2}: element 3 sits between them and shares the ancestor B
        assert permcore.transpose(sigma, 2, 5) not in row

    def test_no_op_mass_folds_into_loop(self, example_tree):
        sigma = tuple(range(1, 8))
        row = TreeSwapChain(example_tree).transitions(sigma)
        assert_row_stochastic(row)
        # identity permutation: every legal pair is already in order, so the
        # self-loop carries all the "place in order" mass
        assert row[sigma] > 0.5


class TestMe:
    def test_single_pair(self):
        row = GeneralizedExclusionChain(constant_bias(0.75), 1, 1).transitions((1, 0))
        assert row[(0, 1)] == pytest.approx(0.75)
        assert row[(1, 0)] == pytest.approx(0.25)

    def test_single_active_position(self):
        row = GeneralizedExclusionChain(constant_bias(0.75), 2, 2).transitions((1, 1, 0, 0))
        assert set(row) == {(1, 0, 1, 0), (1, 1, 0, 0)}
        assert row[(1, 0, 1, 0)] == pytest.approx(0.75 / 3)

    def test_state_dependent_bias_honored(self):
        def bias(word, i):
            return 0.9 if word == (1, 0, 1, 0) else 0.6

        kernel = GeneralizedExclusionChain(bias, 2, 2)
        row_a = kernel.transitions((1, 0, 1, 0))
        row_b = kernel.transitions((0, 1, 1, 0))
        assert row_a[(1, 0, 0, 1)] == pytest.approx(0.9 / 3)
        assert row_b[(0, 1, 0, 1)] == pytest.approx(0.6 / 3)

    def test_word_hash_is_deterministic_and_state_dependent(self):
        a = word_hash_bias((1, 0, 1, 0), 3)
        assert a == word_hash_bias((1, 0, 1, 0), 3)
        assert a != word_hash_bias((0, 1, 1, 0), 3)
        assert 0.55 <= a <= 0.95

    def test_bias_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            GeneralizedExclusionChain(lambda w, i: 1.0, 1, 1).transitions((1, 0))

    @pytest.mark.parametrize("state", [
        (1, 1, 0), (1, 1, 0, 0, 0), (2, 1, 0, 0), [2, 1, 0, 0], (1, 1, 1, 0),
        (2, 0, 0, 0), [0.5, 0.5, 1, 0], (1, 1, 0, -0.0), [1, 0, 1, 0],
        (True, 1, 0, False),
    ])
    def test_chain_validation_matches_the_two_step_check(self, state):
        # reference: the ones count and the length first, then the former
        # module-level row builder's scan for labels outside {0, 1}
        kernel = GeneralizedExclusionChain(constant_bias(0.7), 2, 2)

        def former(state):
            refusal = f"{tuple(state)} is not a word with 2 ones and 2 zeros"
            if sum(state) != 2 or len(state) != 4:
                raise ValidationError(refusal)
            word = tuple(state)
            if any(x not in (0, 1) for x in word):
                raise ValidationError(refusal)
            return _ref_me_row(word, kernel.bias)

        try:
            expected = former(state)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                kernel.transitions(state)
            assert str(caught.value) == str(exc)
        else:
            assert kernel.transitions(state) == expected

    def test_square_table(self, tmp_path):
        table = {"h": 1, "w": 2, "bias": {"(1,1)": "2.0", "(2,1)": "1.5"}}
        bias = square_table_bias(table)
        # word (1,0,0): swapping at 1 adds square (1,1)
        assert bias((1, 0, 0), 1) == pytest.approx(2 / 3)
        # word (0,1,0): swapping at 2 adds square (2,1)
        assert bias((0, 1, 0), 2) == pytest.approx(1.5 / 2.5)
        # reverse direction removes the square
        assert bias((0, 1, 0), 1) == pytest.approx(1 / 3)
        import json

        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        loaded = make_bias(f"square-dependent:{path}")
        assert loaded((1, 0, 0), 1) == bias((1, 0, 0), 1)

    @pytest.mark.parametrize("table", [
        {"h": 1, "w": 1, "bias": {"(1,1)": "NaN"}},
        {"h": 1, "w": 1, "bias": {"(1,1)": "Infinity"}},
        {"h": 1, "w": 1, "bias": {"(1,1)": float("nan")}},
        {"h": 1, "w": 1, "bias": {"(1,1)": "x"}},
        {"h": 1, "w": 1, "bias": {"(1,1)": None}},
        {"h": 1, "w": 1, "bias": {"(1,1)": True}},
        {"h": 1, "w": 1, "bias": [["(1,1)", "2.0"]]},
        {"h": 1.9, "w": 1, "bias": {"(1,1)": "2.0"}},
        {"h": 1, "w": True, "bias": {"(1,1)": "2.0"}},
        {"h": 0, "w": 1, "bias": {}},
    ], ids=["nan", "infinity", "nan-number", "not-decimal", "null", "bool", "list",
            "h-fraction", "w-bool", "no-squares"])
    def test_malformed_square_table_is_refused(self, table):
        # a NaN bias once passed the positivity check and stalled the walk
        with pytest.raises(ValidationError):
            square_table_bias(table)

    def test_square_table_file_that_is_not_json_is_refused(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="bias table"):
            make_bias(f"square-dependent:{path}")


class TestRowSumsAndReversibility:
    def small_kernels(self, example_tree):
        ps, part = seeded_kclass(4, 2, seed=31)
        word_sizes = part.sizes
        tree = treerep.parse_tree({"node": "R", "children": [
            {"node": "S", "children": [1, 2], "q": {"(1,2)": "0.8"}}, 3, 4],
            "q": {"(1,2)": "0.6", "(1,3)": "0.7", "(2,3)": "0.9"}})
        perms = list(permutations(range(1, 5)))
        words = sorted({permcore.project(s, part) for s in perms})
        from biasedperm.exclusion import all_words

        binaries = sorted(all_words(2, 2))
        return [
            (AdjacentTranspositionChain(ps), perms),
            (ClassTranspositionChain(ps, part), perms),
            (SameClassChain(ps, part, 1), perms),
            (CrossClassChain(ps, part), words),
            (ParticleProcessChain(ps, part), words),
            (TreeSwapChain(tree), perms),
            (GeneralizedExclusionChain(constant_bias(0.7), 2, 2), binaries),
        ]

    def test_rows_sum_to_one(self, example_tree):
        for kernel, states in self.small_kernels(example_tree):
            for state in states:
                assert_row_stochastic(kernel.transitions(state))

    def test_non_loop_moves_are_reversible_compatible(self, example_tree):
        for kernel, states in self.small_kernels(example_tree):
            for state in states:
                for target, mass in kernel.transitions(state).items():
                    if target != state and mass > 0:
                        back = kernel.transitions(target)
                        assert back.get(state, 0.0) > 0.0


def _rule_kernels() -> dict:
    """The seven kernels over four items: permutations of 1..4, words with
    class sizes (1, 2, 1), and words with two ones and two zeros."""
    part = ClassPartition.from_sizes((1, 2, 1))
    ps = build_kclass(KClassParams(partition=part, q={(1, 2): 0.6, (1, 3): 0.7, (2, 3): 0.8}))
    tree = treerep.parse_tree({"node": "R", "children": [
        {"node": "S", "children": [1, 2], "q": {"(1,2)": "0.8"}}, 3, 4],
        "q": {"(1,2)": "0.6", "(1,3)": "0.7", "(2,3)": "0.9"}})
    return {"mnn": AdjacentTranspositionChain(ps), "mtk": ClassTranspositionChain(ps, part),
            "mi:2": SameClassChain(ps, part, 2), "mk1": CrossClassChain(ps, part),
            "mpp": ParticleProcessChain(ps, part), "mtree": TreeSwapChain(tree),
            "me": GeneralizedExclusionChain(constant_bias(0.7), 2, 2)}


# not a state of any of the seven kernels: wrong lengths, a repeated label,
# the labels 0 and -1, a wrong multiplicity, entries that do not compare
_NOT_STATES = [(1, 2, 3), (1, 2, 3, 4, 1), (1, 1, 2, 3), (0, 1, 2, 3), (-1, 1, 2, 3),
               (1, 2, 2, 2), (1, 1, 1, 0), ([1], 2, 3, 4), ("a", 1, 2, 2)]

# equal-valued stand-ins for a label that the state rule reads as the int:
# the row is the row of the state it stands for
_STAND_INS = {"list": list,
              "1.0": lambda s: tuple(1.0 if x == 1 else x for x in s),
              "True": lambda s: tuple(True if x == 1 else x for x in s),
              "-0.0": lambda s: tuple(-0.0 if x == 0 else x for x in s)}
_ACCEPTED_STAND_INS = (
    [(name, stand_in) for name in ("mnn", "mtk", "mi:2", "mk1", "mpp", "mtree", "me")
     for stand_in in ("list", "1.0", "True")]
    + [("me", "-0.0")])


class TestStateRule:
    @pytest.mark.parametrize("name", sorted(_rule_kernels()))
    def test_the_kernel_accepts_exactly_its_spaces_states(self, name):
        kernel = _rule_kernels()[name]
        space = space_for_kernel(kernel)
        assert kernel.labels == list(space.states[0])
        for state in space.states:
            assert kernel.check_state(state) == state
            assert_row_stochastic(kernel.transitions(state))
        for state in _NOT_STATES:
            with pytest.raises(ValidationError, match="is not a"):
                kernel.transitions(state)

    @pytest.mark.parametrize("name,stand_in", _ACCEPTED_STAND_INS)
    def test_equal_valued_states_keep_their_rows(self, name, stand_in):
        kernel = _rule_kernels()[name]
        for state in space_for_kernel(kernel).states[:6]:
            assert kernel.transitions(_STAND_INS[stand_in](state)) == kernel.transitions(state)

    def test_stand_ins_read_as_ints(self):
        # 1.0 once reached the rows of mnn, mk1 and mpp, and True those of
        # mk1 and mpp, and crashed them (IndexError, TypeError)
        state = permcore.check_ordering((2.0, True, -0.0), [0, 1, 2], "x")
        assert state == (2, 1, 0) and all(type(x) is int for x in state)
        with pytest.raises(ValidationError, match=r"^\(1\.5, 1\) is not x$"):
            permcore.check_ordering((1.5, 1), [1, 2], "x")

    @pytest.mark.parametrize("state", [(0, 1, 2), (1, 1, 2), (1, 2), (3, 1, 2, 4)])
    def test_mnn_refuses_what_is_not_a_permutation(self, state):
        # these once got rows (0 read p through index -1) or an IndexError
        kernel = AdjacentTranspositionChain(build_general(3, [(1, 2, 0.6), (1, 3, 0.7),
                                                              (2, 3, 0.8)]))
        with pytest.raises(ValidationError, match=r"is not a permutation of 1\.\.3"):
            kernel.transitions(state)

    @pytest.mark.parametrize("name", ["mtk", "mi:2", "me"])
    def test_a_list_entry_is_refused_not_a_type_error(self, name):
        with pytest.raises(ValidationError):
            _rule_kernels()[name].transitions(([1], 2, 3, 4))

    def test_refusal_texts(self):
        kernels_ = _rule_kernels()
        with pytest.raises(ValidationError) as caught:
            kernels_["mtk"].transitions((1, 2, 3))
        assert str(caught.value) == "(1, 2, 3) is not a permutation of 1..4"
        with pytest.raises(ValidationError) as caught:
            kernels_["mpp"].transitions([1, 2, 2, 2])
        assert str(caught.value) == ("(1, 2, 2, 2) is not a word over 1..3 with label "
                                     "counts (1, 2, 1)")
        with pytest.raises(ValidationError) as caught:
            kernels_["me"].transitions((1, 1, 1, 0))
        assert str(caught.value) == "(1, 1, 1, 0) is not a word with 2 ones and 2 zeros"


def _criterion_10_chains():
    """Criterion 10's seven chains, newly built, with their start states."""
    prob_set, partition = seeded_kclass(4, 2, seed=[515, 0])
    word = permcore.project((2, 1, 4, 3), partition)
    big_class = 1 + partition.sizes.index(max(partition.sizes))
    return [
        (AdjacentTranspositionChain(prob_set), (2, 1, 4, 3)),
        (ClassTranspositionChain(prob_set, partition), (2, 1, 4, 3)),
        (SameClassChain(prob_set, partition, big_class), (2, 1, 4, 3)),
        (CrossClassChain(prob_set, partition), word),
        (ParticleProcessChain(prob_set, partition), word),
        (TreeSwapChain(treerep.parse_tree(EXAMPLE_TREE)), (6, 1, 4, 3, 2, 7, 5)),
        (GeneralizedExclusionChain(word_hash_bias, 2, 3), (1, 0, 1, 0, 0)),
    ]


class TestSampler:
    def test_trajectory_reproducible(self):
        kernel = AdjacentTranspositionChain(constant_bias_set(2, 0.6))
        for _ in range(2):
            rng = np.random.default_rng(42)
            states = [(2, 1)]
            for _ in range(20):
                states.append(sample_step(kernel, states[-1], rng))
        rng = np.random.default_rng(42)
        replay = [(2, 1)]
        for _ in range(20):
            replay.append(sample_step(kernel, replay[-1], rng))
        assert replay == states

    def test_all_loop_state_unchanged(self):
        part = ClassPartition.from_sizes((2,))
        kernel = ParticleProcessChain(uniform_set(2), part)
        rng = np.random.default_rng(0)
        assert sample_step(kernel, (1, 1), rng) == (1, 1)

    def test_batched_draws_are_the_scalar_draws(self):
        for kernel, state in _criterion_10_chains():
            scalar, batched = np.random.default_rng(90210), np.random.default_rng(90210)
            expected = [sample_step(kernel, state, scalar) for _ in range(10_000)]
            targets, picks = sample_steps(kernel, state, batched, 10_000)
            assert [targets[i] for i in picks] == expected
            assert len(set(expected)) > 1
            assert batched.random() == scalar.random()  # the streams stay in step

    @pytest.mark.parametrize("cap", [0, 1, 40])
    def test_row_cache_cap_keeps_the_trajectory(self, monkeypatch, cap):
        # past the cap rows are rebuilt, not stored: the same draws
        kernel = GeneralizedExclusionChain(word_hash_bias, 4, 4)
        start = (1, 1, 1, 1, 0, 0, 0, 0)

        def walk(steps=400):
            rng, states = np.random.default_rng(7), [start]
            for _ in range(steps):
                states.append(sample_step(kernel, states[-1], rng))
                assert len(kernel._row_cache) <= kernels._ROW_CACHE_MAX
            return states

        uncapped = walk()
        assert len(set(uncapped)) > 40
        kernel._row_cache.clear()
        monkeypatch.setattr(kernels, "_ROW_CACHE_MAX", cap)
        assert walk() == uncapped
        assert len(kernel._row_cache) == cap

    @pytest.mark.parametrize("cap", [None, 3], ids=["below-cap", "at-cap"])
    def test_every_chain_walks_as_its_rows_alone_give(self, monkeypatch, cap):
        # sample_step reads a cached row straight from the cache: the walk is
        # the one _row gives, while the cache fills and once it is full
        if cap is not None:
            monkeypatch.setattr(kernels, "_ROW_CACHE_MAX", cap)
        for (kernel, start), (twin, _) in zip(_criterion_10_chains(), _criterion_10_chains()):
            sampled, by_row = [start], [start]
            walk_rng, row_rng = np.random.default_rng(11), np.random.default_rng(11)
            for _ in range(300):
                sampled.append(sample_step(kernel, sampled[-1], walk_rng))
                targets, cum = twin._row(by_row[-1])
                by_row.append(targets[bisect.bisect_right(cum, row_rng.random())])
            assert sampled == by_row
            if cap is None:
                assert len(kernel._row_cache) == len(set(sampled[:-1])) < kernels._ROW_CACHE_MAX
            else:
                assert len(set(sampled)) > cap and len(kernel._row_cache) == cap

    def test_row_cache_holds_the_sampled_spaces(self):
        # the 5040 permutations of seven items and the 924 words of (6, 6)
        # stay cached whole
        assert kernels._ROW_CACHE_MAX >= 5040

    def test_empirical_frequencies_match_row(self):
        ps, part = seeded_kclass(4, 2, seed=3)
        kernel = ClassTranspositionChain(ps, part)
        state = (2, 1, 4, 3)
        row = kernel.transitions(state)
        rng = np.random.default_rng(2024)
        draws = 100_000
        counts = {}
        for _ in range(draws):
            nxt = sample_step(kernel, state, rng)
            counts[nxt] = counts.get(nxt, 0) + 1
        for target, p in row.items():
            observed = counts.get(target, 0)
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(observed - draws * p) <= 4 * sigma


class TestRegistry:
    def test_make_kernel_names(self, example_tree):
        ps, part = seeded_kclass(4, 2, seed=8)
        assert make_kernel("mnn", prob_set=ps).name == "mnn"
        assert make_kernel("mtk", prob_set=ps, partition=part).name == "mtk"
        assert make_kernel("mi:2", prob_set=ps, partition=part).name == "mi:2"
        assert make_kernel("mk1", prob_set=ps, partition=part).name == "mk1"
        assert make_kernel("mpp", prob_set=ps, partition=part).name == "mpp"
        assert make_kernel("mtree", tree=example_tree).name == "mtree"
        me = make_kernel("me", bias=constant_bias(0.6), n1=1, n0=1)
        assert me.name == "me"

    def test_unknown_chain_rejected(self):
        with pytest.raises(ValidationError):
            make_kernel("mystery")

    def test_bias_registry(self):
        b = make_bias("constant:0.75")
        assert b.known_min_ratio == pytest.approx(3.0)
        assert make_bias("word-hash") is word_hash_bias
        with pytest.raises(ValidationError):
            make_bias("nope")


# -- the former row builders, kept as references ----------------------------
# Three copies of the adjacent-swap loop and a class view that guessed, per
# state, whether it was a permutation or a word.  The kernels must give the
# same rows: the same values in the same order.


def _ref_finish_row(state, targets):
    total = math.fsum(targets.values())
    if total > 1.0 + 1e-12:
        raise PropertyViolationError(f"transition masses from {state} sum to {total} > 1")
    row = dict(targets)
    row[state] = max(0.0, 1.0 - total)
    return row


def _ref_mnn(sigma, prob_set):
    sigma = tuple(sigma)
    n = len(sigma)
    targets = {}
    if n == 1:
        return _ref_finish_row(sigma, targets)
    base = 1.0 / (n - 1)
    for i in range(2, n + 1):
        p_swap = prob_set.prob(sigma[i - 1], sigma[i - 2])
        out = list(sigma)
        out[i - 2], out[i - 1] = out[i - 1], out[i - 2]
        tgt = tuple(out)
        if tgt != sigma:
            targets[tgt] = targets.get(tgt, 0.0) + base * p_swap
    return _ref_finish_row(sigma, targets)


def _ref_mi(sigma, partition, cls):
    sigma = tuple(sigma)
    if len(sigma) != partition.n or set(sigma) != set(range(1, partition.n + 1)):
        raise ValidationError(f"{sigma} is not a permutation of 1..{partition.n}")
    classes = [partition.class_of(x) for x in sigma]
    positions = [i for i in range(1, partition.n + 1) if classes[i - 1] == cls]
    if not positions:
        raise ValidationError(f"class {cls} is empty")
    base = 1.0 / len(positions)
    targets = {}
    for f in positions:
        for g in range(f - 1, 0, -1):
            if classes[g - 1] == cls:
                out = list(sigma)
                out[f - 1], out[g - 1] = out[g - 1], out[f - 1]
                tgt = tuple(out)
                targets[tgt] = targets.get(tgt, 0.0) + base
                break
    return _ref_finish_row(sigma, targets)


def _ref_mpp(word, prob_set, partition):
    word = tuple(word)
    n = len(word)
    table = validate_kclass(prob_set, partition)
    counts = [0] * partition.k
    for label in word:
        if not 1 <= label <= partition.k:
            raise ValidationError(f"label {label} outside 1..{partition.k}")
        counts[label - 1] += 1
    if tuple(counts) != partition.sizes:
        raise ValidationError("word has the wrong label counts")
    targets = {}
    if n == 1:
        return _ref_finish_row(word, targets)
    base = 1.0 / (n - 1)
    for i in range(2, n + 1):
        left, right = word[i - 2], word[i - 1]
        if left == right:
            continue
        p_swap = float(table[right, left])
        out = list(word)
        out[i - 2], out[i - 1] = out[i - 1], out[i - 2]
        targets[tuple(out)] = targets.get(tuple(out), 0.0) + base * p_swap
    return _ref_finish_row(word, targets)


def _ref_me_row(word, bias):
    n = len(word)
    targets = {}
    if n < 2:
        return _ref_finish_row(word, targets)
    base = 1.0 / (n - 1)
    for i in range(1, n):
        if word[i - 1] == word[i]:
            continue
        p = float(bias(word, i))
        if not 0.0 < p < 1.0:
            raise ValidationError(f"bias callback returned {p}")
        out = list(word)
        out[i - 1], out[i] = out[i], out[i - 1]
        targets[tuple(out)] = targets.get(tuple(out), 0.0) + base * p
    return _ref_finish_row(word, targets)


class _RefClassView:
    def __init__(self, state, prob_set, partition):
        self.state = tuple(state)
        n = partition.n
        if len(self.state) != n:
            raise ValidationError(f"state length {len(self.state)} != n={n}")
        if sorted(self.state) == list(range(1, n + 1)):
            self.classes = tuple(partition.class_of(x) for x in self.state)
            self._p = prob_set.p
            self._offset = 1
        else:
            counts = [0] * partition.k
            for label in self.state:
                if not 1 <= label <= partition.k:
                    raise ValidationError("neither a permutation nor a word")
                counts[label - 1] += 1
            if tuple(counts) != partition.sizes:
                raise ValidationError("word has the wrong label counts")
            self.classes = self.state
            self._p = validate_kclass(prob_set, partition)
            self._offset = 0

    def prob(self, pos_a, pos_b):
        return float(self._p[self.state[pos_a - 1] - self._offset,
                             self.state[pos_b - 1] - self._offset])

    def ratio(self, pos_a, pos_b):
        return self.prob(pos_a, pos_b) / self.prob(pos_b, pos_a)

    def swapped(self, i, j):
        out = list(self.state)
        out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
        return tuple(out)


def _ref_mtk_moves(state, prob_set, partition, directions=("L", "R", "N")):
    view = _RefClassView(state, prob_set, partition)
    classes = view.classes
    n = len(classes)
    moves = []
    for i in range(1, n + 1):
        ci = classes[i - 1]
        if "L" in directions:
            for j in range(i - 1, 0, -1):
                if classes[j - 1] >= ci:
                    if classes[j - 1] > ci:
                        moves.append((j, i, "L", 1.0))
                    break
        if "R" in directions:
            for j in range(i + 1, n + 1):
                if classes[j - 1] >= ci:
                    if classes[j - 1] > ci:
                        acc = view.ratio(j, i)
                        for m in range(i + 1, j):
                            acc *= view.ratio(j, m) * view.ratio(m, i)
                        if acc > 1.0:
                            raise PropertyViolationError("acceptance above 1")
                        moves.append((i, j, "R", acc))
                    break
        if "N" in directions:
            for j in range(i - 1, 0, -1):
                if classes[j - 1] == ci:
                    moves.append((j, i, "N", 1.0))
                    break
    return moves


def _ref_transitions_from_moves(state, prob_set, partition, directions):
    state = tuple(state)
    base = 1.0 / (3 * len(state))
    targets = {}
    view = _RefClassView(state, prob_set, partition)
    for i, j, _, acceptance in _ref_mtk_moves(state, prob_set, partition, directions):
        tgt = view.swapped(i, j)
        if tgt == state:
            continue
        targets[tgt] = targets.get(tgt, 0.0) + base * acceptance
    return _ref_finish_row(state, targets)


def _ref_mtree(sigma, tree, prob_set):
    # the former row: lca and leaf set looked up for every pair on every row
    sigma = tuple(sigma)
    n = tree.n
    pos = {x: i + 1 for i, x in enumerate(sigma)}
    base = 1.0 / (n * (n - 1) / 2)
    targets = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            lo, hi = sorted((pos[a], pos[b]))
            blockers = tree.lca(a, b)[0].leaves
            if any(sigma[m - 1] in blockers for m in range(lo + 1, hi)):
                continue
            p_in = prob_set.prob(a, b)
            in_order = list(sigma)
            in_order[lo - 1], in_order[hi - 1] = a, b
            out_order = list(sigma)
            out_order[lo - 1], out_order[hi - 1] = b, a
            for tgt, mass in ((tuple(in_order), base * p_in),
                              (tuple(out_order), base * (1.0 - p_in))):
                if tgt != sigma:
                    targets[tgt] = targets.get(tgt, 0.0) + mass
    return _ref_finish_row(sigma, targets)


def _words_222_model(seed):
    rng = np.random.default_rng(seed)
    part = ClassPartition.from_sizes((2, 2, 2))
    q12, q13 = np.sort(rng.uniform(0.55, 0.95, size=2))
    q = {(1, 2): float(q12), (1, 3): float(q13),
         (2, 3): float(rng.uniform(0.55, 0.95))}
    ps = build_kclass(KClassParams(part, q))
    assert check_weak_monotonicity(ps).weakly_monotone
    return ps, part


class TestReferenceRows:
    """Every kernel row equals the former builders' row, values and order."""

    @staticmethod
    def assert_rows_equal(kernel, reference, states):
        for state in states:
            expected = list(reference(state).items())
            assert list(kernel.transitions(state).items()) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mnn_and_mtk_on_permutations(self, seed):
        ps, part = seeded_kclass(6, 3, seed=[606, seed])
        perms = enumerate_states("permutations", n=6).states
        self.assert_rows_equal(AdjacentTranspositionChain(ps),
                               lambda s: _ref_mnn(s, ps), perms)
        mtk = ClassTranspositionChain(ps, part)
        self.assert_rows_equal(
            mtk, lambda s: _ref_transitions_from_moves(s, ps, part, ("L", "R", "N")), perms)
        for sigma in perms:
            moves = [(mv.i, mv.j, mv.direction, mv.acceptance) for mv in mtk.moves(sigma)]
            assert moves == _ref_mtk_moves(sigma, ps, part)
            assert ([mv for mv in moves if mv[2] != "N"]
                    == _ref_mtk_moves(sigma, ps, part, ("L", "R")))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mi_on_permutations(self, seed):
        ps, part = seeded_kclass(6, 3, seed=[606, seed])
        perms = enumerate_states("permutations", n=6).states
        for cls in range(1, part.k + 1):
            self.assert_rows_equal(SameClassChain(ps, part, cls),
                                   lambda s: _ref_mi(s, part, cls), perms)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mk1_and_mpp_on_words(self, seed):
        ps, part = _words_222_model([707, seed])
        words = enumerate_states("words", multiplicities=(2, 2, 2)).states
        self.assert_rows_equal(
            CrossClassChain(ps, part),
            lambda s: _ref_transitions_from_moves(s, ps, part, ("L", "R")), words)
        self.assert_rows_equal(ParticleProcessChain(ps, part),
                               lambda s: _ref_mpp(s, ps, part), words)
        # M_tk's moves on a permutation are the reference's moves on its word
        mtk = ClassTranspositionChain(ps, part)
        for word in words:
            sigma = _lift(word, part)
            moves = [(mv.i, mv.j, mv.direction, mv.acceptance) for mv in mtk.moves(sigma)]
            assert moves == _ref_mtk_moves(word, ps, part)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mtree_on_permutations(self, seed):
        tree = random_league_tree(6, np.random.default_rng([808, seed]), max_degree=3)
        ps = treerep.induced_probabilities(tree)
        perms = enumerate_states("permutations", n=6).states
        self.assert_rows_equal(TreeSwapChain(tree), lambda s: _ref_mtree(s, tree, ps),
                               perms)

    @pytest.mark.parametrize("spec", ["constant:0.75", "word-hash"])
    def test_me_at_total_10(self, spec):
        bias = make_bias(spec)
        words = enumerate_states("binary", n1=5, n0=5).states
        self.assert_rows_equal(GeneralizedExclusionChain(bias, 5, 5),
                               lambda s: _ref_me_row(s, bias), words)


class TestListedTranspositions:
    """Every transposition a kernel lists changes the state, and no two reach
    the same target: the row builder keeps one entry per move, with no
    accumulation and no identity fold."""

    @staticmethod
    def listed(monkeypatch, kernel, states):
        calls = []
        build = kernels._transposition_row

        def record(state, moves):
            moves = list(moves)
            calls.append((state, moves))
            return build(state, moves)

        monkeypatch.setattr(kernels, "_transposition_row", record)
        for state in states:
            kernel.transitions(state)
        assert [state for state, _ in calls] == list(states)
        return calls

    def assert_distinct_targets(self, monkeypatch, kernel, states):
        for state, moves in self.listed(monkeypatch, kernel, states):
            targets = [permcore.transpose(state, i, j) for i, j, _ in moves]
            assert state not in targets
            assert len(set(targets)) == len(targets)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permutation_chains(self, monkeypatch, seed):
        ps, part = seeded_kclass(6, 3, seed=[909, seed])
        perms = enumerate_states("permutations", n=6).states
        tree = random_league_tree(6, np.random.default_rng([909, seed]), max_degree=3)
        chains = [make_kernel("mnn", prob_set=ps), make_kernel("mtree", tree=tree),
                  make_kernel("mtk", prob_set=ps, partition=part)]
        chains += [make_kernel(f"mi:{c}", prob_set=ps, partition=part)
                   for c in range(1, part.k + 1)]
        for kernel in chains:
            self.assert_distinct_targets(monkeypatch, kernel, perms)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_word_chains(self, monkeypatch, seed):
        ps, part = _words_222_model([909, seed])
        words = enumerate_states("words", multiplicities=(2, 2, 2)).states
        for name in ("mk1", "mpp"):
            self.assert_distinct_targets(
                monkeypatch, make_kernel(name, prob_set=ps, partition=part), words)

    @pytest.mark.parametrize("spec", ["constant:0.75", "square-table", "word-hash"])
    def test_exclusion_biases(self, monkeypatch, spec):
        if spec == "square-table":
            rng = np.random.default_rng(909)
            bias = square_table_bias({"h": 4, "w": 4, "bias": {
                f"({x},{y})": str(rng.uniform(0.5, 2.0))
                for x in range(1, 5) for y in range(1, 5)}})
        else:
            bias = make_bias(spec)
        words = enumerate_states("binary", n1=4, n0=4).states
        self.assert_distinct_targets(
            monkeypatch, make_kernel("me", bias=bias, n1=4, n0=4), words)
