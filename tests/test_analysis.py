import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from contextlib import closing
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from biasedperm.errors import (
    BudgetExceededError,
    PropertyViolationError,
    ValidationError,
)
from biasedperm.model import (
    ClassPartition,
    KClassParams,
    build_kclass,
    check_weak_monotonicity,
    constant_bias_set,
    random_monotone_set,
    uniform_set,
)
from biasedperm import analysis, exclusion, model, permcore
from biasedperm.analysis import (
    blocks_by_class_positions,
    build_csr,
    build_matrix,
    canonical_path,
    check_detailed_balance,
    collect_canonical_paths,
    comparison_bound,
    congestion,
    enumerate_states,
    fill_spot_check,
    fit_loglog,
    gap_scaling,
    is_irreducible,
    mixing_bracket,
    mixing_time_exact,
    scaling_values,
    space_for_kernel,
    spectral_gap,
    stationary_exact,
    stationary_formula,
    tv_curve,
    verify_decomposition,
)
from biasedperm.kernels import (
    AdjacentTranspositionChain,
    ClassTranspositionChain,
    CrossClassChain,
    GeneralizedExclusionChain,
    ParticleProcessChain,
    TreeSwapChain,
    constant_bias,
    word_hash_bias,
)
from biasedperm.exclusion import area

from conftest import family_paths, random_league_tree, seeded_kclass, seeded_prop3_only


class TestEnumerate:
    def test_permutations(self):
        space = enumerate_states("permutations", n=3)
        assert len(space) == 6
        assert space.states[0] == (1, 2, 3)
        assert space.index[(3, 2, 1)] == 5

    def test_words_multinomial(self):
        space = enumerate_states("words", multiplicities=(2, 1, 1))
        assert len(space) == 12
        assert space.states[0] == (1, 1, 2, 3)

    def test_binary(self):
        space = enumerate_states("binary", n1=3, n0=4)
        assert len(space) == 35

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_states("permutations", n=9, budget=100)

    @staticmethod
    def _matches(expected, kind, **params):
        """The space lists the oracle's states in its order, and the budget
        count is its size: it fits a budget of len(expected), not one less."""
        space = enumerate_states(kind, budget=len(expected), **params)
        assert space.states == tuple(expected)
        with pytest.raises(BudgetExceededError):
            enumerate_states(kind, budget=len(expected) - 1, **params)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_permutations_match_itertools(self, n):
        self._matches(list(permutations(range(1, n + 1))), "permutations", n=n)

    @pytest.mark.parametrize("sizes", [(1,), (3,), (1, 1), (2, 1), (1, 2), (2, 2),
                                       (1, 3, 1), (2, 1, 1, 2), (1, 1, 1, 1, 1),
                                       (4, 4), (3, 3, 3), (2, 3, 4)])
    def test_words_match_the_distinct_orderings(self, sizes):
        labels = [label for label, c in enumerate(sizes, 1) for _ in range(c)]
        self._matches(sorted(set(permutations(labels))), "words", multiplicities=sizes)

    def test_binary_words_match_exclusion_all_words(self):
        for total in range(17):
            for n1 in range(total + 1):
                self._matches(sorted(exclusion.all_words(n1, total - n1)), "binary",
                              n1=n1, n0=total - n1)

    @pytest.mark.parametrize("params", [dict(n1=-1, n0=5), dict(n1=3, n0=-2)])
    def test_negative_binary_sizes_refused(self, params):
        with pytest.raises(ValidationError, match="n[01] must be >= 0"):
            enumerate_states("binary", **params)

    @pytest.mark.parametrize("sizes", [[2.7, 1], [2, 0.5], [True, 2]])
    def test_non_integral_multiplicities_refused(self, sizes):
        with pytest.raises(ValidationError, match="multiplicity must be an integer"):
            enumerate_states("words", multiplicities=sizes)


class TestBuildMatrix:
    def test_two_state_nearest_neighbor(self):
        ps = constant_bias_set(2, 0.6)
        space = enumerate_states("permutations", n=2)
        matrix = build_matrix(AdjacentTranspositionChain(ps), space)
        # state order is [(1,2), (2,1)]
        assert np.allclose(matrix, [[0.6, 0.4], [0.6, 0.4]], atol=1e-15)

    def test_uniform_symmetric_doubly_stochastic(self):
        space = enumerate_states("permutations", n=4)
        matrix = build_matrix(AdjacentTranspositionChain(uniform_set(4)), space)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(matrix.sum(axis=0), 1.0)

    def test_irreducible(self):
        ps, part = seeded_kclass(4, 2, seed=1)
        space = enumerate_states("permutations", n=4)
        for kernel in (AdjacentTranspositionChain(ps),
                       ClassTranspositionChain(ps, part)):
            assert is_irreducible(build_matrix(kernel, space))

    def test_space_mismatch(self):
        from biasedperm.analysis import StateSpace

        ps = uniform_set(3)
        truncated = StateSpace(kind="permutations",
                               states=((1, 2, 3), (2, 1, 3)))
        with pytest.raises(ValidationError, match="space"):
            build_matrix(AdjacentTranspositionChain(ps), truncated)


class TestStationary:
    def test_uniform(self):
        space = enumerate_states("permutations", n=3)
        matrix = build_matrix(AdjacentTranspositionChain(uniform_set(3)), space)
        pi = stationary_exact(matrix)
        assert np.allclose(pi, 1 / 6)

    def test_two_state(self):
        ps = constant_bias_set(2, 0.6)
        space = enumerate_states("permutations", n=2)
        pi = stationary_exact(build_matrix(AdjacentTranspositionChain(ps), space))
        assert pi[space.index[(1, 2)]] == pytest.approx(0.6)
        assert pi[space.index[(2, 1)]] == pytest.approx(0.4)

    def test_constant_bias_matches_inversion_count(self):
        p = 0.7
        lam = p / (1 - p)
        ps = constant_bias_set(3, p)
        space = enumerate_states("permutations", n=3)
        pi = stationary_exact(build_matrix(AdjacentTranspositionChain(ps), space))
        inv = lambda s: sum(1 for a in range(3) for b in range(a + 1, 3)
                            if s[a] > s[b])
        expected = np.array([lam ** -inv(s) for s in space.states])
        expected /= expected.sum()
        assert np.abs(pi - expected).max() < 1e-12

    def test_formula_matches_exact_n6(self):
        ps, part = seeded_kclass(6, 3, seed=5)
        space = enumerate_states("permutations", n=6)
        for kernel in (AdjacentTranspositionChain(ps),
                       ClassTranspositionChain(ps, part)):
            matrix = build_matrix(kernel, space)
            exact = stationary_exact(matrix)
            formula = stationary_formula(space, ps)
            assert np.abs(exact - formula).max() < 1e-10

    def test_word_chain_pushforward(self):
        # the word-chain stationary distribution is the projection image of
        # the permutation-chain one
        ps, part = seeded_kclass(5, 2, seed=12)
        perm_space = enumerate_states("permutations", n=5)
        nn = stationary_exact(build_matrix(AdjacentTranspositionChain(ps),
                                           perm_space))
        word_space = enumerate_states("words", multiplicities=part.sizes)
        pp = stationary_exact(build_matrix(ParticleProcessChain(ps, part),
                                           word_space))
        push = np.zeros(len(word_space))
        for idx, sigma in enumerate(perm_space.states):
            push[word_space.index[permcore.project(sigma, part)]] += nn[idx]
        assert np.abs(push - pp).max() < 1e-10

    def test_reducible_rejected(self):
        matrix = np.eye(3)
        with pytest.raises(ValidationError, match="irreducible"):
            stationary_exact(matrix)


class TestDetailedBalance:
    def test_uniform_exact_zero(self):
        # symmetric matrix, exactly uniform pi: the violation is identically 0
        space = enumerate_states("permutations", n=3)
        matrix = build_matrix(AdjacentTranspositionChain(uniform_set(3)), space)
        report = check_detailed_balance(matrix, np.full(6, 1 / 6))
        assert report.max_violation == 0.0
        assert (report.row, report.col) == (0, 0)

    def test_class_chain_balances(self):
        ps, part = seeded_kclass(5, 3, seed=4)
        space = enumerate_states("permutations", n=5)
        matrix = build_matrix(ClassTranspositionChain(ps, part), space)
        pi = stationary_exact(matrix)
        assert check_detailed_balance(matrix, pi).max_violation < 1e-12

    def test_corrupted_entry_detected_with_witness(self):
        ps = constant_bias_set(3, 0.7)
        space = enumerate_states("permutations", n=3)
        matrix = build_matrix(AdjacentTranspositionChain(ps), space)
        pi = stationary_exact(matrix)
        x, y = 1, 4
        matrix[x, y] += 1e-3
        matrix[x, x] -= 1e-3
        report = check_detailed_balance(matrix, pi)
        assert report.max_violation == pytest.approx(pi[x] * 1e-3, rel=1e-6)
        assert {report.row, report.col} == {x, y}


def _former_reaches_all(matrix):
    """The BFS the strong-components check replaced: all states reached from 0."""
    n = matrix.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(matrix[u] > 0)[0]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(int(v))
        frontier = nxt
    return bool(seen.all())


def _former_stationary_exact(matrix):
    """The dense stationary solve the CSR pipeline replaced (dense input)."""
    n = matrix.shape[0]
    if not (_former_reaches_all(matrix) and _former_reaches_all(matrix.T)):
        raise ValidationError("matrix is not irreducible")
    a = matrix.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    residual = float(np.abs(pi @ matrix - pi).max())
    if residual > 1e-9 or pi.min() < -1e-12:
        raise PropertyViolationError("stationary solve did not converge")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _former_check_detailed_balance(matrix, pi, block=512):
    """The dense block scan the CSR pipeline replaced (dense input)."""
    n = matrix.shape[0]
    worst = -1.0
    at = (0, 0)
    for start in range(0, n, block):
        rows = slice(start, min(start + block, n))
        flow = pi[rows, None] * matrix[rows, :]
        back = (matrix[:, rows] * pi[:, None]).T
        diff = np.abs(flow - back)
        k = int(diff.argmax())
        r, c = divmod(k, n)
        if diff[r, c] > worst:
            worst = float(diff[r, c])
            at = (start + r, c)
    return analysis.BalanceReport(max_violation=worst, row=at[0], col=at[1])


class _FormerPathBuilder:
    def __init__(self, state):
        self.cur = list(state)
        self.states = [tuple(state)]

    def swap(self, p: int):
        self.cur[p - 1], self.cur[p] = self.cur[p], self.cur[p - 1]
        self.states.append(tuple(self.cur))


def _former_lr_path(x, i, j):
    b = _FormerPathBuilder(x)
    for p in range(i, j - 1):
        b.swap(p)
    b.swap(j - 1)
    for p in range(j - 2, i - 1, -1):
        b.swap(p)
    return b


def _former_n_path(x, i, j, classes):
    b = _FormerPathBuilder(x)
    cls = list(classes)

    def swap(p):
        b.swap(p)
        cls[p - 1], cls[p] = cls[p], cls[p - 1]

    target_class = cls[j - 1]
    jb = j
    while jb > i:
        if cls[jb - 2] >= target_class:
            swap(jb - 1)
            jb -= 1
        else:
            l = max(p for p in range(i, jb) if cls[p - 1] >= target_class)
            for m in range(l, jb - 1):
                swap(m)
            for m in range(jb - 1, l - 1, -1):
                swap(m)
            jb = l
    ja = b.cur.index(x[i - 1]) + 1
    while ja < j:
        if cls[ja] > target_class:
            swap(ja)
            ja += 1
        else:
            l = min(p for p in range(ja + 1, j + 1) if cls[p - 1] > target_class)
            for m in range(ja, l):
                swap(m)
            for m in range(l - 2, ja - 1, -1):
                swap(m)
            ja = l
    return b


def _former_collect(kernel, space):
    """The per-edge records collect_canonical_paths built before its flat
    arrays, each path walked on the permutation itself:
    [(x index, y index, prob, direction, states)] in x, then move order."""
    records = []
    for xi, x in enumerate(space.states):
        classes = kernel.classes(x)
        for mv in kernel.moves(x):
            b = (_former_lr_path(x, mv.i, mv.j) if mv.direction in ("L", "R")
                 else _former_n_path(x, mv.i, mv.j, classes))
            assert b.states[-1] == permcore.transpose(x, mv.i, mv.j)
            records.append((xi, space.index[b.states[-1]], mv.prob, mv.direction,
                            tuple(b.states)))
    return records


def _former_congestion(nn_matrix, records, pi, space):
    """The per-step dense lookup and dict accumulation the path arrays
    replaced (dense input, records of ``_former_collect``)."""
    counts, loads = {}, {}
    max_len = 0
    for x_index, _, prob, _, states in records:
        length = len(states) - 1
        max_len = max(max_len, length)
        contribution = length * pi[x_index] * prob
        for a, bstate in zip(states[:-1], states[1:]):
            u, v = space.index[a], space.index[bstate]
            if nn_matrix[u, v] <= 0:
                raise PropertyViolationError(
                    f"path step {a} -> {bstate} is not a nearest-neighbor edge"
                )
            counts[(u, v)] = counts.get((u, v), 0) + 1
            loads[(u, v)] = loads.get((u, v), 0.0) + contribution
    best = 0.0
    best_edge = None
    for (u, v), load in loads.items():
        value = load / (pi[u] * nn_matrix[u, v])
        if value > best:
            best = value
            best_edge = (space.states[u], space.states[v])
    return analysis.CongestionReport(
        constant=best, argmax_edge=best_edge,
        max_path_count=max(counts.values()) if counts else 0,
        max_path_len=max_len, n_paths=len(records))


def _pipeline_kernel(chain):
    prob_set, partition = seeded_kclass(6, 3, seed=[707, 1])
    if chain == "mnn":
        return AdjacentTranspositionChain(prob_set)
    if chain == "mtk":
        return ClassTranspositionChain(prob_set, partition)
    if chain == "mtree":
        return TreeSwapChain(random_league_tree(6, np.random.default_rng([707, 2])))
    if chain == "mk1":
        return CrossClassChain(prob_set, partition)
    if chain == "mpp":
        return ParticleProcessChain(prob_set, partition)
    return GeneralizedExclusionChain(constant_bias(0.75), 6, 6)


class TestCsrPipeline:
    @pytest.mark.parametrize("chain", ["mnn", "mtk", "mtree", "mk1", "mpp", "me"])
    def test_csr_input_matches_the_former_dense_code(self, chain):
        kernel = _pipeline_kernel(chain)
        space = space_for_kernel(kernel)
        csr = build_csr(kernel, space)
        dense = csr.toarray()
        pi = stationary_exact(csr)
        assert np.array_equal(pi, _former_stationary_exact(dense))
        assert np.array_equal(stationary_exact(dense), pi)
        report = check_detailed_balance(csr, pi)
        assert report == _former_check_detailed_balance(dense, pi)
        assert check_detailed_balance(dense, pi) == report
        # a perturbed law breaks the balance at many pairs: same worst pair
        rough = pi * (1.0 + 1e-3 * np.sin(np.arange(len(pi))))
        assert (check_detailed_balance(csr, rough)
                == _former_check_detailed_balance(dense, rough))

    def test_congestion_matches_the_former_dense_code(self):
        prob_set, partition = seeded_kclass(6, 3, seed=[707, 1])
        space = enumerate_states("permutations", n=6)
        kernel = ClassTranspositionChain(prob_set, partition)
        family = collect_canonical_paths(kernel, space)
        nn = build_csr(AdjacentTranspositionChain(prob_set), space)
        pi = stationary_exact(nn)
        report = congestion(nn, family, pi, space)
        assert report == _former_congestion(nn.toarray(), _former_collect(kernel, space),
                                            pi, space)
        assert congestion(nn.toarray(), family, pi, space) == report

    def test_congestion_names_the_first_step_off_the_chain(self):
        prob_set, partition = seeded_kclass(4, 2, seed=[505, 0])
        space = enumerate_states("permutations", n=4)
        kernel = ClassTranspositionChain(prob_set, partition)
        family = collect_canonical_paths(kernel, space)
        dense = build_matrix(AdjacentTranspositionChain(prob_set), space)
        pi = stationary_exact(dense)
        steps = [(space.index[a], space.index[b]) for *_, states in family_paths(family, space)
                 for a, b in zip(states[:-1], states[1:])]
        # remove a late edge, then an earlier one: the earlier is reported
        for u, v in (steps[-1], steps[len(steps) // 3]):
            dense[u, v] = 0.0
        with pytest.raises(PropertyViolationError) as former:
            _former_congestion(dense, _former_collect(kernel, space), pi, space)
        with pytest.raises(PropertyViolationError) as new:
            congestion(sp.csr_matrix(dense), family, pi, space)
        assert str(new.value) == str(former.value)

    def test_irreducible_on_csr_ignores_stored_zeros(self):
        block = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert not is_irreducible(sp.block_diag((block, block), format="csr"))
        # the same two blocks with stored 0.0 entries 0 -> 2 and 2 -> 0
        linked = sp.csr_matrix(
            ([0.5, 0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5],
             [0, 1, 2, 0, 1, 0, 2, 3, 2, 3], [0, 3, 5, 8, 10]), shape=(4, 4))
        assert linked.nnz == 10
        assert not is_irreducible(linked)
        assert not is_irreducible(linked.toarray())
        linked.data[linked.data == 0.0] = 0.25
        assert is_irreducible(linked)

    @pytest.mark.parametrize("chain", ["mnn", "mk1", "me"])
    def test_irreducible_matches_the_former_scan(self, chain):
        kernel = _pipeline_kernel(chain)
        dense = build_matrix(kernel, space_for_kernel(kernel))
        cut = dense.copy()
        cut[:, 0] = 0.0  # nothing enters state 0
        for matrix in (dense, cut):
            former = _former_reaches_all(matrix) and _former_reaches_all(matrix.T)
            assert is_irreducible(sp.csr_matrix(matrix)) == former
        assert is_irreducible(dense) and not is_irreducible(cut)

    def test_non_reversible_cycle_has_the_former_witness(self):
        cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        pi = np.full(3, 1 / 3)
        report = check_detailed_balance(sp.csr_matrix(cycle), pi)
        assert report == _former_check_detailed_balance(cycle, pi)
        assert report == analysis.BalanceReport(1 / 3, 0, 1)

    def test_solve_larger_than_memory_is_refused_before_allocating(self, monkeypatch):
        matrix = build_csr(AdjacentTranspositionChain(uniform_set(6)),
                           enumerate_states("permutations", n=6))
        need = 2 * 8 * 720 ** 2
        monkeypatch.setattr(model, "_physical_memory", lambda: need)
        assert np.allclose(stationary_exact(matrix), 1 / 720)

        def no_solve(*args):
            raise AssertionError("the system was solved")

        monkeypatch.setattr(model, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        with pytest.raises(BudgetExceededError, match="physical memory"):
            stationary_exact(matrix)

    @pytest.mark.parametrize("chain", ["mtk", "me"])
    def test_solve_is_the_former_c_order_system_bit_for_bit(self, chain):
        if chain == "mtk":
            prob_set, partition = seeded_kclass(6, 3, seed=[909, 1])
            kernel = ClassTranspositionChain(prob_set, partition)
        else:
            kernel = GeneralizedExclusionChain(constant_bias(0.75), 5, 5)
        matrix = build_csr(kernel, space_for_kernel(kernel))
        n = matrix.shape[0]
        # the system as it was built before: a C-ordered copy of P^T
        a = matrix.T.tocsr().toarray()
        a[np.diag_indices(n)] -= 1.0
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        former = np.clip(np.linalg.solve(a, b), 0.0, None)
        assert np.array_equal(stationary_exact(matrix), former / former.sum())


class TestSpectralGap:
    def test_two_state_rank_one(self):
        ps = constant_bias_set(2, 0.6)
        space = enumerate_states("permutations", n=2)
        matrix = build_matrix(AdjacentTranspositionChain(ps), space)
        assert spectral_gap(matrix) == pytest.approx(1.0)

    def test_identity_gap_zero(self):
        assert spectral_gap(np.eye(4), np.full(4, 0.25)) == pytest.approx(0.0)

    def test_uniform_gaps_decrease_in_n(self):
        gaps = []
        for n in range(3, 6):
            space = enumerate_states("permutations", n=n)
            matrix = build_matrix(AdjacentTranspositionChain(uniform_set(n)), space)
            gaps.append(spectral_gap(matrix))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_sparse_route_matches_dense(self):
        ps, part = seeded_kclass(5, 2, seed=6)
        space = enumerate_states("permutations", n=5)
        matrix = build_matrix(ClassTranspositionChain(ps, part), space)
        pi = stationary_exact(matrix)
        dense = spectral_gap(matrix, pi)
        sparse = spectral_gap(matrix, pi, dense_cutoff=10)
        assert sparse == pytest.approx(dense, abs=1e-9)

    def test_non_reversible_rejected(self):
        matrix = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(PropertyViolationError, match="reversible"):
            spectral_gap(matrix, np.full(3, 1 / 3))

    def test_graph_and_eigen_modules_load_on_first_use(self, tmp_path):
        # csgraph loads scipy.sparse.linalg and scipy.linalg (+11 MiB RSS):
        # a hitting run builds no matrix and must not import them
        script = textwrap.dedent(f"""
            import sys
            import numpy as np
            import biasedperm
            from biasedperm import analysis, cli
            lazy = ("scipy.sparse.csgraph", "scipy.sparse.linalg")
            config = {{"chain": "me", "bias": "constant:0.75", "n1": 3, "n0": 3,
                       "experiment": "hitting", "trials": 10, "seed": 0}}
            assert cli.run_config(config, out_dir={str(tmp_path)!r}, quiet=True) == 0
            assert not [m for m in lazy if m in sys.modules], "loaded by a hitting run"
            assert analysis.spectral_gap(np.full((2, 2), 0.5)) == 1.0
            assert all(m in sys.modules for m in lazy), "not loaded by spectral_gap"
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


@lru_cache(maxsize=None)
def _seeded_instance(case):
    """(CSR matrix, closed-form pi) of a seeded n = 7 instance."""
    perms = enumerate_states("permutations", n=7)
    prob_set, partition = seeded_kclass(7, 3, seed=[15, 1])
    words = enumerate_states("words", multiplicities=partition.sizes)
    if case.startswith("mnn"):
        high = float(case.split(":")[1])
        prob_set = random_monotone_set(7, np.random.default_rng([15, 3]), 0.5, high)
        kernel, space = AdjacentTranspositionChain(prob_set), perms
    elif case == "mtk":
        kernel, space = ClassTranspositionChain(prob_set, partition), perms
    elif case == "mtree":
        kernel = TreeSwapChain(random_league_tree(7, np.random.default_rng([15, 2])))
        space, prob_set = perms, kernel.prob_set
    elif case == "mk1":
        kernel, space = CrossClassChain(prob_set, partition), words
    else:
        kernel, space = ParticleProcessChain(prob_set, partition), words
    pi = stationary_formula(space, prob_set, partition)
    return build_csr(kernel, space), pi


class TestEdgeRatioStationary:
    """spectral_gap's own pi, from edge ratios along a breadth-first tree."""

    CASES = ["mnn:0.75", "mnn:0.99", "mtk", "mtree", "mk1", "mpp"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_formula(self, case):
        matrix, formula = _seeded_instance(case)
        pi = analysis._stationary_reversible(matrix)
        assert np.abs(pi / formula - 1.0).max() < 1e-13

    @pytest.mark.parametrize("case", CASES)
    def test_gap_matches_the_formula_gap(self, case):
        matrix, formula = _seeded_instance(case)
        assert spectral_gap(matrix) == pytest.approx(spectral_gap(matrix, formula),
                                                     rel=0, abs=1e-12)

    def test_default_range_masses_below_the_lu_resolution(self):
        # the smallest mass of this set is about 5e-17 of the largest, and
        # stationary_exact's LU rounds it to 0; the edge ratios keep it
        matrix, formula = _seeded_instance("mnn:0.99")
        assert formula.min() / formula.max() < 1e-15
        assert analysis._stationary_reversible(matrix).min() > 0.0

    def test_exclusion_area_law(self):
        p, lam = 0.75, 3.0
        kernel = GeneralizedExclusionChain(constant_bias(p), 4, 5)
        space = space_for_kernel(kernel)
        expected = np.array([lam ** area(w) for w in space.states])
        expected /= expected.sum()
        pi = analysis._stationary_reversible(build_csr(kernel, space))
        assert np.abs(pi / expected - 1.0).max() < 1e-13

    def test_word_hash_exclusion_not_reversible(self):
        kernel = GeneralizedExclusionChain(word_hash_bias, 3, 3)
        matrix = build_csr(kernel, space_for_kernel(kernel))
        with pytest.raises(PropertyViolationError, match="reversible"):
            spectral_gap(matrix)

    def test_one_way_edge_not_reversible(self):
        matrix = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(PropertyViolationError, match="reverse transition"):
            spectral_gap(matrix)

    def test_reducible_rejected(self):
        block = np.array([[0.5, 0.5], [0.5, 0.5]])
        matrix = sp.block_diag([block, block], format="csr")
        with pytest.raises(ValidationError, match="irreducible"):
            spectral_gap(matrix)

    def test_one_state_gap_is_one(self):
        assert spectral_gap(np.ones((1, 1))) == 1.0


@lru_cache(maxsize=None)
def _exclusion_matrix(total):
    """Criterion 6b's chain (bias 0.75, n1 = total // 2): matrix and pi."""
    kernel = GeneralizedExclusionChain(constant_bias(0.75), total // 2,
                                       total - total // 2)
    matrix = build_matrix(kernel, space_for_kernel(kernel))
    return matrix, stationary_exact(matrix)


def _former_distances(matrix, pi, tmax, dense_max=256):
    """Every start's |P^t(s, .) - pi|_1 at t = 0..tmax, from the propagation
    the column-block scan replaced: the whole power P^t, times dense P up to
    dense_max states and CSR P above, reduced row by row.  It reduces every
    start at every step."""
    op = sp.csr_matrix(matrix) if matrix.shape[0] > dense_max else matrix
    power = np.eye(matrix.shape[0])
    for _ in range(tmax + 1):
        yield np.abs(power - pi).sum(axis=1)
        power = np.asarray(power @ op)


def _former_tv_curve(matrix, pi, tmax, dense_max=256):
    """The worst-start curve of ``_former_distances``.  With dense_max=0 it
    takes the CSR route at every size, whose summation order the block
    scan reproduces bit for bit."""
    return np.array([0.5 * float(rows.max())
                     for rows in _former_distances(matrix, pi, tmax, dense_max)])


@lru_cache(maxsize=None)
def _former_exclusion_curve(total, tmax):
    """``_former_tv_curve`` of ``_exclusion_matrix(total)``, computed once."""
    return _former_tv_curve(*_exclusion_matrix(total), tmax)


@lru_cache(maxsize=None)
def _mnn_720():
    """The 720-state M_nn chain whose worst start moves across blocks."""
    kernel = AdjacentTranspositionChain(random_monotone_set(6, np.random.default_rng(6)))
    matrix = build_matrix(kernel, space_for_kernel(kernel))  # six blocks
    return matrix, stationary_exact(matrix)


def _former_mixing_time(matrix, pi, eps, tmax=None):
    """mixing_time_exact as it was before its scan became one loop: the
    crossing, horizon and hard-cap checks, then the monotone check and the
    last crossing on the whole curve."""
    if eps <= 0:
        raise ValidationError("eps must be positive")
    analysis.check_horizon(tmax)
    hard_cap = tmax if tmax is not None else analysis._TV_HORIZON
    with closing(analysis._tv_iter(matrix, pi)) as it:
        curve = [next(it)[1]]
        crossing = None if curve[0] > eps else 0
        t = 0
        while True:
            if crossing is not None:
                horizon = tmax if tmax is not None else max(2 * crossing, crossing + 16)
                if t >= horizon:
                    break
            elif tmax is not None and t >= tmax:
                break
            if t >= hard_cap and crossing is None:
                raise BudgetExceededError(
                    f"TV distance still {curve[-1]} > {eps} at the horizon t={t}"
                )
            t, value = next(it)
            curve.append(value)
            if crossing is None and value <= eps:
                crossing = t
    for t in range(len(curve) - 1):
        if curve[t + 1] > curve[t] + 1e-12:
            raise PropertyViolationError(
                f"TV curve is not monotone: tv({t})={curve[t]} < tv({t + 1})={curve[t + 1]}"
            )
    over = [t for t, v in enumerate(curve) if v > eps]
    if over and over[-1] == len(curve) - 1:
        raise BudgetExceededError(
            f"TV distance still {curve[-1]} > {eps} at the horizon t={len(curve) - 1}"
        )
    return over[-1] + 1 if over else 0


def _mtk_matrix():
    """A seeded M_tk chain at n = 5: matrix and pi."""
    prob_set, partition = seeded_kclass(5, 2, seed=[404, 2])
    matrix = build_matrix(ClassTranspositionChain(prob_set, partition),
                          enumerate_states("permutations", n=5))
    return matrix, stationary_exact(matrix)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except (BudgetExceededError, PropertyViolationError) as exc:
        return type(exc), str(exc)


# (eps, tmax, horizon): the TV horizon is cut to 40 steps where the curve
# is never to cross eps, so the scan meets it
FORMER_LOOP_CASES = {
    "no-tmax": (0.25, None, None),
    "tmax": (0.25, 600, None),
    "tmax-before-tau": (0.25, 30, None),
    "first-value-crosses": (1.0, None, None),
    "first-value-crosses-tmax": (1.0, 7, None),
    "tmax-0": (0.25, 0, None),
    "tmax-0-first-value-crosses": (1.0, 0, None),
    "never-crosses": (1e-300, None, 40),
    "never-crosses-tmax": (1e-300, 40, 40),
}


class TestMixing:
    def test_two_state_identical_rows(self):
        ps = constant_bias_set(2, 0.6)
        space = enumerate_states("permutations", n=2)
        matrix = build_matrix(AdjacentTranspositionChain(ps), space)
        pi = stationary_exact(matrix)
        curve = tv_curve(matrix, pi, 3)
        assert curve[0] == pytest.approx(0.6)
        assert curve[1] == pytest.approx(0.0, abs=1e-15)
        assert mixing_time_exact(matrix, pi, 0.25) == 1
        assert mixing_time_exact(matrix, pi, 0.7) == 0  # eps >= TV(0)

    def test_matches_independent_matrix_powers(self):
        space = enumerate_states("permutations", n=3)
        matrix = build_matrix(AdjacentTranspositionChain(uniform_set(3)), space)
        pi = stationary_exact(matrix)
        tau = mixing_time_exact(matrix, pi, 0.25)
        # independent reimplementation via explicit matrix powers
        def tv_at(t):
            power = np.linalg.matrix_power(matrix, t)
            return 0.5 * np.abs(power - pi).sum(axis=1).max()

        assert tv_at(tau) <= 0.25
        assert tau == 0 or tv_at(tau - 1) > 0.25

    def test_tmax_too_small(self):
        space = enumerate_states("permutations", n=4)
        matrix = build_matrix(AdjacentTranspositionChain(uniform_set(4)), space)
        pi = stationary_exact(matrix)
        with pytest.raises(BudgetExceededError, match="horizon"):
            mixing_time_exact(matrix, pi, 1e-6, tmax=2)

    def test_tmax_beyond_the_horizon_is_refused_before_scanning(self, monkeypatch):
        def no_scan(matrix, pi):
            raise AssertionError("the TV scan ran")

        monkeypatch.setattr(analysis, "_tv_iter", no_scan)
        matrix = np.eye(2)
        pi = np.full(2, 0.5)
        tmax = analysis._TV_HORIZON + 1
        with pytest.raises(BudgetExceededError, match="horizon"):
            tv_curve(matrix, pi, tmax)
        with pytest.raises(BudgetExceededError, match="horizon"):
            mixing_time_exact(matrix, pi, 0.25, tmax)

    @pytest.mark.parametrize("tmax", [-1, -3, 2.5, True])
    def test_tmax_is_an_integer_at_least_0(self, tmax):
        # tv_curve once returned [] at -1, a TypeError at 2.5 and read True
        # as 1; mixing_time_exact at -3 reported a budget overrun at t=0
        matrix, pi = np.eye(2), np.full(2, 0.5)
        with pytest.raises(ValidationError, match="tmax must be"):
            tv_curve(matrix, pi, tmax)
        with pytest.raises(ValidationError, match="tmax must be"):
            mixing_time_exact(matrix, pi, 0.25, tmax)

    def test_tv_curve_needs_a_tmax(self):
        # None once reached the scan and raised TypeError (None + 1)
        with pytest.raises(ValidationError, match="tmax must be an integer, got None"):
            tv_curve(np.eye(2), np.full(2, 0.5), None)

    def test_check_horizon_returns_the_integer_it_reads(self):
        assert analysis.check_horizon(None) is None
        assert analysis.check_horizon(0) == 0
        assert type(analysis.check_horizon(4.0)) is int
        assert analysis.check_horizon(analysis._TV_HORIZON) == analysis._TV_HORIZON
        matrix, pi = np.eye(2), np.full(2, 0.5)
        assert np.array_equal(tv_curve(matrix, pi, 2.0), tv_curve(matrix, pi, 2))
        assert len(tv_curve(matrix, pi, 0)) == 1

    def test_non_monotone_curve_rejected(self):
        with pytest.raises(PropertyViolationError, match="monotone"):
            analysis._tau([0.5, 0.3, 0.4], 0.1)

    @pytest.mark.parametrize("case", sorted(FORMER_LOOP_CASES))
    @pytest.mark.parametrize("chain", ["me-6", "me-8", "me-10", "mtk-5"])
    def test_tau_is_the_former_loop(self, monkeypatch, chain, case):
        eps, tmax, horizon = FORMER_LOOP_CASES[case]
        if horizon is not None:
            monkeypatch.setattr(analysis, "_TV_HORIZON", horizon)
        kind, size = chain.split("-")
        matrix, pi = _exclusion_matrix(int(size)) if kind == "me" else _mtk_matrix()
        expected = _outcome(_former_mixing_time, matrix, pi, eps, tmax)
        assert _outcome(mixing_time_exact, matrix, pi, eps, tmax) == expected
        if case == "never-crosses":
            assert expected[0] is BudgetExceededError

    @pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("n1,n0", [(2, 2), (3, 3), (2, 5), (4, 4)])
    def test_bracket_lower_is_exact_tau(self, p, n1, n0):
        kernel = GeneralizedExclusionChain(constant_bias(p), n1, n0)
        space = enumerate_states("binary", n1=n1, n0=n0)
        matrix = build_matrix(kernel, space)
        tau = mixing_time_exact(matrix, stationary_exact(matrix), 0.25)
        lower, upper = mixing_bracket(kernel, 0.25)
        assert lower == tau <= upper

    def test_bracket_refuses_state_dependent_bias(self):
        kernel = GeneralizedExclusionChain(word_hash_bias, 2, 3)
        with pytest.raises(ValidationError, match="constant bias"):
            mixing_bracket(kernel, 0.25)

    def test_bracket_respects_budget(self):
        kernel = GeneralizedExclusionChain(constant_bias(0.75), 3, 3)
        with pytest.raises(BudgetExceededError):
            mixing_bracket(kernel, 0.25, budget=19)

    def test_bracket_single_state(self):
        kernel = GeneralizedExclusionChain(constant_bias(0.75), 3, 0)
        assert mixing_bracket(kernel, 0.25) == (0, 0)

    def test_tv_curve_is_the_former_csr_propagation_bit_for_bit(self):
        matrix, pi = _exclusion_matrix(12)
        assert matrix.shape[0] > 256  # the former CSR route
        assert np.array_equal(tv_curve(matrix, pi, 200), _former_exclusion_curve(12, 200))

    @pytest.mark.parametrize("total", [6, 8, 10])
    def test_tv_curve_matches_the_former_dense_propagation(self, total):
        matrix, pi = _exclusion_matrix(total)
        assert matrix.shape[0] <= 256  # the former dense route
        np.testing.assert_allclose(tv_curve(matrix, pi, 200),
                                   _former_tv_curve(matrix, pi, 200),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tmax", [None, 768])
    def test_exclusion_tau_at_totals_6_to_12(self, tmax, exclusion_scans):
        # the tmax=768 scans are criterion 6b's, shared through the fixture
        taus = [tau if tmax == 768 else mixing_time_exact(matrix, pi, 0.25, tmax)
                for _, matrix, pi, tau in exclusion_scans.values()]
        assert taus == [57, 132, 240, 379]

    def test_tv_curve_is_deterministic_across_threads(self, monkeypatch):
        matrix, pi = _exclusion_matrix(12)
        unpruned = _former_exclusion_curve(12, 200)[:101]
        threaded = tv_curve(matrix, pi, 100)
        assert np.array_equal(threaded, unpruned)
        assert np.array_equal(tv_curve(matrix, pi, 100), threaded)
        # more workers than cores, switching threads as often as possible: a
        # lost or misplaced block update, or a block skipped on a stale
        # running max, would change the curve
        monkeypatch.setattr(analysis, "_usable_cores", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = tv_curve(matrix, pi, 100)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(stressed, unpruned)
        monkeypatch.setattr(analysis, "_usable_cores", lambda: 1)
        assert np.array_equal(tv_curve(matrix, pi, 100), unpruned)

    def test_scan_reduces_only_the_blocks_that_can_hold_the_max(self, monkeypatch):
        matrix, pi = _exclusion_matrix(12)  # 924 states: eight blocks
        monkeypatch.setattr(analysis, "_usable_cores", lambda: 1)  # one dispatch order
        reduced = []
        column_tv = analysis._column_tv

        def counted(*args):
            reduced.append(1)
            return column_tv(*args)

        monkeypatch.setattr(analysis, "_column_tv", counted)
        curve = tv_curve(matrix, pi, 100)
        assert len(reduced) < 8 * 100 // 2
        assert np.array_equal(curve, _former_exclusion_curve(12, 200)[:101])

    @pytest.mark.parametrize("total", [10, 12])
    def test_pruned_scan_is_exact_on_a_non_reversible_chain(self, total):
        kernel = GeneralizedExclusionChain(word_hash_bias, total // 2, total - total // 2)
        matrix = build_matrix(kernel, space_for_kernel(kernel))
        pi = stationary_exact(matrix)
        assert check_detailed_balance(matrix, pi).max_violation > analysis._BALANCE_TOL
        assert np.array_equal(tv_curve(matrix, pi, 200),
                              _former_tv_curve(matrix, pi, 200, dense_max=0))

    @pytest.mark.parametrize("bias", [constant_bias(0.75), word_hash_bias],
                             ids=["constant", "word-hash"])
    def test_scan_reduces_no_one_wide_block(self, bias):
        # 129 states: blocks of 128 and 1 would reduce the last start's
        # column pairwise, not in state order (26 and 187 of 301 values
        # differed); blocks of 127 and 2 keep the order
        kernel = GeneralizedExclusionChain(bias, 1, 128)
        matrix = build_matrix(kernel, space_for_kernel(kernel))
        pi = stationary_exact(matrix)
        assert np.array_equal(tv_curve(matrix, pi, 300),
                              _former_tv_curve(matrix, pi, 300, dense_max=0))

    def test_pruned_scan_follows_the_worst_start_across_blocks(self):
        matrix, pi = _mnn_720()
        distances = list(_former_distances(matrix, pi, 200, dense_max=0))
        worst_blocks = [int(rows.argmax()) // analysis._TV_BLOCK for rows in distances[1:]]
        assert len(set(worst_blocks)) == 3
        assert np.array_equal(tv_curve(matrix, pi, 200),
                              [0.5 * float(rows.max()) for rows in distances])

    def test_pruned_scan_is_exact_for_a_perturbed_pi(self):
        # bias 0.9 mixes fast enough that the curve comes down to the
        # perturbation's scale (about 1e-6) within the scan
        kernel = GeneralizedExclusionChain(constant_bias(0.9), 5, 5)  # 252 states
        matrix = build_matrix(kernel, space_for_kernel(kernel))
        pi = stationary_exact(matrix)
        pi = pi + 4e-6 / len(pi) * np.random.default_rng(0).standard_normal(len(pi))
        assert 5e-7 < np.abs(pi @ matrix - pi).sum() < 2e-6
        assert np.array_equal(tv_curve(matrix, pi, 500),
                              _former_tv_curve(matrix, pi, 500, dense_max=0))

    def test_bound_allows_for_the_residual_of_pi(self, monkeypatch):
        # P swaps states 0 and 128 and holds the rest, so the uniform law is
        # stationary; pi is moved off it to a residual |pi P - pi|_1 of 1e-6.
        # Block 1 (starts 128..255) is eta below block 0's t = 1 value at
        # t = 0, then rises by 4 eta, the whole residual, to 3 eta above it:
        # a bound without the residual would skip block 1 at t = 1 and
        # report block 0's value
        monkeypatch.setattr(analysis, "_usable_cores", lambda: 1)  # block 0 first
        n, eta = 256, 2.5e-7
        swap = np.arange(n)
        swap[[0, 128]] = [128, 0]
        matrix = np.eye(n)[swap]
        pi = np.full(n, 1 / n)
        pi[[0, 1, 128, 255]] += [-3 * eta, -1.5 * eta, -eta, 5.5 * eta]
        assert np.abs(pi @ matrix - pi).sum() == pytest.approx(4 * eta)
        curve = tv_curve(matrix, pi, 3)
        assert curve[1] == pytest.approx(0.5 * (2 - 2 * pi[0]))
        assert np.array_equal(curve, _former_tv_curve(matrix, pi, 3, dense_max=0))

    @pytest.mark.parametrize("tmax", [1, 15, 16, 17, 53])
    @pytest.mark.parametrize("cores", [2, 1])
    def test_chunk_boundaries_keep_the_curve(self, tmax, cores, monkeypatch):
        # a scan read to tmax ends inside a chunk, at its last step, or one
        # step into the next; each read must give the unchunked curve
        monkeypatch.setattr(analysis, "_usable_cores", lambda: cores)
        matrix, pi = _exclusion_matrix(12)
        assert np.array_equal(tv_curve(matrix, pi, tmax),
                              _former_tv_curve(matrix, pi, tmax, dense_max=0))
        matrix, pi = _mnn_720()
        assert np.array_equal(tv_curve(matrix, pi, tmax),
                              _former_tv_curve(matrix, pi, tmax, dense_max=0))

    @pytest.mark.parametrize("t", [0, 1, 15, 16, 17, 40])
    def test_scan_computes_at_most_one_chunk_ahead(self, t, monkeypatch):
        matrix, pi = _exclusion_matrix(10)  # 252 states: two blocks
        products = []
        matvecs = analysis.csr_matvecs

        def counted(*args):
            products.append(1)
            return matvecs(*args)

        monkeypatch.setattr(analysis, "csr_matvecs", counted)
        with closing(analysis._tv_iter(matrix, pi)) as it:
            read = [next(it)[0] for _ in range(t + 1)]
        assert read == list(range(t + 1))
        steps, rest = divmod(len(products), 2)  # one product per block and step
        assert rest == 0
        assert t <= steps <= t + analysis._TV_CHUNK - 1

    def test_closing_mid_chunk_leaves_no_thread_behind(self, monkeypatch):
        monkeypatch.setattr(analysis, "_usable_cores", lambda: 2)
        matrix, pi = _exclusion_matrix(10)  # 252 states: two blocks, two workers
        before = threading.active_count()
        it = analysis._tv_iter(matrix, pi)
        for _ in range(analysis._TV_CHUNK // 2):
            next(it)
        assert threading.active_count() > before
        it.close()
        assert threading.active_count() == before

    def test_scan_leaves_no_thread_behind(self):
        matrix, pi = _exclusion_matrix(10)  # 252 states: two blocks
        before = threading.active_count()
        tv_curve(matrix, pi, 5)
        mixing_time_exact(matrix, pi, 0.25, tmax=300)
        with pytest.raises(BudgetExceededError):
            mixing_time_exact(matrix, pi, 0.25, tmax=5)
        it = analysis._tv_iter(matrix, pi)
        next(it), next(it)
        it.close()
        assert threading.active_count() == before

    def test_single_block_or_core_runs_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(analysis, "ThreadPoolExecutor", no_pool)
        matrix, pi = _exclusion_matrix(6)  # 20 states: one block
        assert mixing_time_exact(matrix, pi, 0.25) == 57
        monkeypatch.setattr(analysis, "_usable_cores", lambda: 1)
        matrix, pi = _exclusion_matrix(10)  # 252 states: two blocks
        assert mixing_time_exact(matrix, pi, 0.25) == 240

    def test_scan_allocates_nothing_per_step(self):
        matrix, pi = _exclusion_matrix(12)  # 924 states: eight blocks
        block_bytes = 8 * 924 * 128
        tracemalloc.start()
        try:
            with closing(analysis._tv_iter(matrix, pi)) as it:
                for _ in range(3):  # t = 0, 1, 2: buffers and pool in place
                    next(it)
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                # three whole chunks are computed while these are read
                for _ in range(3 * analysis._TV_CHUNK):
                    next(it)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < block_bytes / 2

    def test_scan_larger_than_memory_is_refused(self, monkeypatch):
        matrix, pi = _exclusion_matrix(10)  # 252 states: two blocks
        monkeypatch.setattr(analysis, "_usable_cores", lambda: 2)
        # two blocks padded to 128 columns, plus two buffers per worker
        need = 8 * 252 * 128 * (2 + 2 * 2)
        monkeypatch.setattr(model, "_physical_memory", lambda: need)
        assert mixing_time_exact(matrix, pi, 0.25) == 240
        monkeypatch.setattr(model, "_physical_memory", lambda: need - 1)
        with pytest.raises(BudgetExceededError, match="physical memory"):
            tv_curve(matrix, pi, 5)
        with pytest.raises(BudgetExceededError, match="physical memory"):
            mixing_time_exact(matrix, pi, 0.25)

    @pytest.mark.parametrize("chain", ["mnn", "mtk", "me"])
    def test_dense_is_the_csr_bit_for_bit(self, chain):
        prob_set, partition = seeded_kclass(5, 2, seed=[404, 1])
        if chain == "mnn":
            kernel = AdjacentTranspositionChain(prob_set)
        elif chain == "mtk":
            kernel = ClassTranspositionChain(prob_set, partition)
        else:
            kernel = GeneralizedExclusionChain(constant_bias(0.7), 4, 5)
        space = space_for_kernel(kernel)
        dense = build_matrix(kernel, space)
        csr = build_csr(kernel, space)
        assert isinstance(csr, sp.csr_matrix)
        assert np.array_equal(dense, csr.toarray())
        # the element-wise dense construction the CSR route replaced
        reference = np.zeros((len(space), len(space)))
        for i, state in enumerate(space.states):
            for target, prob in kernel.transitions(state).items():
                reference[i, space.index[target]] += prob
        assert np.array_equal(dense, reference)


class TestDecomposition:
    def test_single_block(self):
        ps = constant_bias_set(3, 0.7)
        space = enumerate_states("permutations", n=3)
        matrix = build_matrix(AdjacentTranspositionChain(ps), space)
        pi = stationary_exact(matrix)
        report = verify_decomposition(matrix, pi, np.zeros(6, dtype=int))
        gap = spectral_gap(matrix, pi)
        assert report.gap_projection == 1.0  # 1-state projection convention
        assert report.slack == pytest.approx(gap - 0.5 * gap)
        assert report.holds

    def test_singleton_blocks(self):
        ps = constant_bias_set(3, 0.7)
        space = enumerate_states("permutations", n=3)
        matrix = build_matrix(AdjacentTranspositionChain(ps), space)
        pi = stationary_exact(matrix)
        report = verify_decomposition(matrix, pi, np.arange(6))
        assert report.min_restriction_gap == 1.0
        assert report.holds

    def test_word_chain_class_position_blocks(self):
        part = ClassPartition.from_sizes((1, 1, 2))
        ps = build_kclass(KClassParams(
            part, {(1, 2): 0.7, (1, 3): 0.8, (2, 3): 0.75}))
        space = enumerate_states("words", multiplicities=part.sizes)
        matrix = build_matrix(CrossClassChain(ps, part), space)
        pi = stationary_exact(matrix)
        labels = blocks_by_class_positions(space, [1])
        # one block per position of the lone 1, numbered by that position
        assert labels.tolist() == [word.index(1) for word in space.states]
        report = verify_decomposition(matrix, pi, labels)
        assert len(report.restriction_gaps) == 4
        assert report.holds
        assert report.slack >= 0

    @pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 3, 2)])
    def test_csr_and_dense_input_give_equal_reports(self, sizes):
        part = ClassPartition.from_sizes(sizes)
        ps = build_kclass(KClassParams(
            part, {(1, 2): 0.6, (1, 3): 0.7, (2, 3): 0.8}))
        kernel = CrossClassChain(ps, part)
        space = space_for_kernel(kernel)
        pi = stationary_formula(space, ps, part)
        matrix = build_csr(kernel, space)
        for fix in ([1], [2, 3]):
            labels = blocks_by_class_positions(space, fix)
            assert verify_decomposition(matrix, pi, labels) == \
                verify_decomposition(matrix.toarray(), pi, labels)

    def test_overlapping_blocks_rejected(self):
        # the former list-of-blocks form is not one label per state
        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="one integer label per state"):
            verify_decomposition(matrix, np.array([0.5, 0.5]), [[0, 1], [1]])

    @pytest.mark.parametrize("labels", [
        [[0, 1, 2], [3, 4, 5]],  # blocks, not labels
        [0, 0, 0, 1, 1, -1],  # -1 once aliased state 5
        [0, 0, 1, 1, 2],  # a state left out
        [0, 0, 1, 1, 2, 6],
        [0, 0, 2, 2, 3, 3],  # block 1 empty
        [0.0, 0.0, 1.0, 1.0, 2.0, 2.0],
        [True, True, False, False, True, True],
        ["0"] * 6,
    ])
    def test_labels_that_are_not_a_partition_rejected(self, labels):
        ps = constant_bias_set(3, 0.7)
        space = enumerate_states("permutations", n=3)
        matrix = build_csr(AdjacentTranspositionChain(ps), space)
        with pytest.raises(ValidationError, match="one integer label per state"):
            verify_decomposition(matrix, stationary_exact(matrix), labels)

    def test_blocks_are_sliced_in_state_order_whatever_the_label_order(self):
        part = ClassPartition.from_sizes((2, 2, 2))
        ps = build_kclass(KClassParams(
            part, {(1, 2): 0.6, (1, 3): 0.7, (2, 3): 0.8}))
        kernel = CrossClassChain(ps, part)
        space = space_for_kernel(kernel)
        pi = stationary_formula(space, ps, part)
        matrix = build_csr(kernel, space)
        labels = blocks_by_class_positions(space, [1])
        report = verify_decomposition(matrix, pi, labels)
        reversed_labels = labels.max() - labels  # the same blocks, numbered backwards
        again = verify_decomposition(matrix, pi, reversed_labels.astype(np.uint8))
        assert again.restriction_gaps == report.restriction_gaps[::-1]
        assert again.gap_full == report.gap_full
        assert again.gap_projection == pytest.approx(report.gap_projection, abs=1e-13)


CRITICAL_SNAPSHOTS = [
    (3, 4, 1, 2, 7, 5, 6, 1, 2, 1, 3),
    (3, 4, 1, 2, 7, 5, 1, 2, 1, 3, 6),
    (3, 4, 1, 2, 3, 7, 5, 1, 2, 1, 6),
    (3, 1, 2, 3, 4, 7, 5, 1, 2, 1, 6),
    (3, 3, 1, 2, 4, 7, 5, 1, 2, 1, 6),
    (3, 3, 1, 2, 4, 7, 5, 1, 2, 1, 6),
    (3, 1, 2, 3, 4, 7, 5, 1, 2, 1, 6),
    (3, 4, 1, 2, 3, 7, 5, 1, 2, 1, 6),
    (3, 4, 1, 2, 7, 5, 1, 2, 1, 3, 6),
    (3, 4, 1, 2, 7, 5, 6, 1, 2, 1, 3),
]


class TestCanonicalPaths:
    def test_adjacent_edge_single_step(self):
        ps, part = seeded_kclass(4, 2, seed=2)
        sigma = (1, 2, 3, 4)
        # find an adjacent cross-class move
        kernel = ClassTranspositionChain(ps, part)
        for mv in kernel.moves(sigma):
            if mv.j == mv.i + 1:
                y = permcore.transpose(sigma, mv.i, mv.j)
                path = canonical_path(kernel, sigma, y, mv.direction)
                assert path.length == 1
                break
        else:
            pytest.skip("no adjacent move found")

    def test_worked_same_class_exchange(self):
        # eleven elements whose class word matches the worked example; the
        # ten critical configurations must appear along the path in order
        part = ClassPartition.from_sizes((3, 2, 2, 1, 1, 1, 1))
        q = {(a, b): 0.6 + 0.02 * (b - a)
             for a in range(1, 8) for b in range(a + 1, 8)}
        ps = build_kclass(KClassParams(part, q))
        x = (6, 8, 1, 4, 11, 9, 10, 2, 5, 3, 7)
        assert permcore.project(x, part) == CRITICAL_SNAPSHOTS[0]
        y = permcore.transpose(x, 1, 11)
        path = canonical_path(ClassTranspositionChain(ps, part), x, y, "N")
        words = [permcore.project(s, part) for s in path.states]
        it = iter(words)
        for snapshot in CRITICAL_SNAPSHOTS:
            assert snapshot in it  # consumes the iterator: subsequence in order
        assert path.length <= 4 * 11
        assert path.states[-1] == y

    def test_wrong_direction_rejected(self):
        ps, part = seeded_kclass(4, 2, seed=2)
        sigma = (1, 2, 3, 4)
        kernel = ClassTranspositionChain(ps, part)
        mv = kernel.moves(sigma)[0]
        y = permcore.transpose(sigma, mv.i, mv.j)
        other = {"L": "N", "R": "N", "N": "L"}[mv.direction]
        with pytest.raises(ValidationError):
            canonical_path(kernel, sigma, y, other)

    def test_other_kernels_rejected(self):
        ps, part = seeded_kclass(4, 2, seed=2)
        space = enumerate_states("permutations", n=4)
        for kernel in (AdjacentTranspositionChain(ps), CrossClassChain(ps, part)):
            with pytest.raises(ValidationError, match="M_tk kernel"):
                collect_canonical_paths(kernel, space)
            with pytest.raises(ValidationError, match="M_tk kernel"):
                canonical_path(kernel, (1, 2, 3, 4), (2, 1, 3, 4), "L")

    @pytest.mark.parametrize("n, k, seed", [(4, 2, 0), (5, 2, 1), (5, 3, 2), (6, 2, 3),
                                            (6, 3, 4), (6, 4, 5)])
    def test_family_is_the_former_per_edge_construction(self, n, k, seed):
        ps, part = seeded_kclass(n, k, seed=[313, seed])
        assert check_weak_monotonicity(ps).prop2
        space = enumerate_states("permutations", n=n)
        kernel = ClassTranspositionChain(ps, part)
        family = collect_canonical_paths(kernel, space)
        former = _former_collect(kernel, space)
        assert len(family) == len(former)
        assert family.states.dtype == np.int32
        for k_, (x_index, y_index, prob, direction, states) in enumerate(former):
            assert (family.x[k_], family.y[k_], family.direction[k_]) == (
                x_index, y_index, direction)
            assert family.prob[k_] == prob
            assert family.length[k_] == len(states) - 1
            chunk = family.states[family.indptr[k_]:family.indptr[k_ + 1]]
            assert chunk.tolist() == [space.index[s] for s in states]

    @pytest.mark.parametrize("prop3_only", [False, True])
    def test_single_edge_path_is_the_familys(self, prop3_only):
        ps, part = (seeded_prop3_only(5, 3, seed=[414, 0]) if prop3_only
                    else seeded_kclass(5, 3, seed=[414, 0]))
        space = enumerate_states("permutations", n=5)
        kernel = ClassTranspositionChain(ps, part)
        for x, y, direction, states in family_paths(collect_canonical_paths(kernel, space),
                                                    space):
            assert canonical_path(kernel, x, y, direction).states == states

    def test_every_step_is_adjacent_and_weight_floor_holds(self):
        for seed in range(3):
            ps, part = seeded_kclass(5, 3, seed=[303, seed])
            space = enumerate_states("permutations", n=5)
            logw = {s: permcore.log_weight(s, ps) for s in space.states}
            family = collect_canonical_paths(ClassTranspositionChain(ps, part), space)
            for x, y, _, states in family_paths(family, space):
                floor = min(logw[x], logw[y]) - 1e-9
                for a, b in zip(states[:-1], states[1:]):
                    diff = [p for p in range(5) if a[p] != b[p]]
                    assert len(diff) == 2 and diff[1] == diff[0] + 1
                for s in states:
                    assert logw[s] >= floor
                assert states[-1] == y and len(states) - 1 <= 4 * 5

    @pytest.mark.parametrize("n, k, seed", [(4, 3, 4), (5, 3, 5), (5, 4, 16), (6, 3, 6),
                                            (6, 4, 7)])
    def test_weight_floor_holds_on_prop3_only_sets(self, n, k, seed):
        # on each of these sets the former N construction dips below the
        # lighter endpoint (log margins -0.53 to -4.91); the mirrored one
        # does not, and L and R paths stay the former ones
        ps, part = seeded_prop3_only(n, k, seed=[606, seed])
        space = enumerate_states("permutations", n=n)
        kernel = ClassTranspositionChain(ps, part)
        logw = np.array([permcore.log_weight(s, ps) for s in space.states])
        family = collect_canonical_paths(kernel, space)
        assert set(family.direction) == {"L", "R", "N"}
        inner = np.minimum.reduceat(logw[family.states], family.indptr[:-1])
        assert (inner >= np.minimum(logw[family.x], logw[family.y]) - 1e-12).all()
        assert family.length.max() <= 4 * n
        former = _former_collect(kernel, space)
        for k_, (*_, direction, states) in enumerate(former):
            chunk = family.states[family.indptr[k_]:family.indptr[k_ + 1]]
            if direction != "N":
                assert chunk.tolist() == [space.index[s] for s in states]

    def test_weight_floor_holds_on_a_prop3_only_set(self):
        # weakly monotone by prop3 alone, and M_tk's acceptances stay <= 1
        part = ClassPartition(4, (1, 2))
        ps = build_kclass(KClassParams(part, {(1, 2): 0.8, (1, 3): 0.7, (2, 3): 0.7}))
        report = check_weak_monotonicity(ps)
        assert (report.prop1, report.prop2, report.prop3) == (True, False, True)
        space = enumerate_states("permutations", n=4)
        logw = {s: permcore.log_weight(s, ps) for s in space.states}
        family = collect_canonical_paths(ClassTranspositionChain(ps, part), space)
        assert set(family.direction) == {"L", "R", "N"}
        for x, y, _, states in family_paths(family, space):
            floor = min(logw[x], logw[y]) - 1e-12
            assert all(logw[s] >= floor for s in states)

    def test_n_edges_connect_equal_weights(self):
        ps, part = seeded_kclass(5, 2, seed=7)
        space = enumerate_states("permutations", n=5)
        family = collect_canonical_paths(ClassTranspositionChain(ps, part), space)
        for x, y, direction, _ in family_paths(family, space):
            if direction == "N":
                a = permcore.log_weight(x, ps)
                b = permcore.log_weight(y, ps)
                assert a == pytest.approx(b, abs=1e-12)


class TestCongestion:
    def test_single_class_all_single_edges(self):
        ps = uniform_set(3)
        part = ClassPartition(3, ())
        space = enumerate_states("permutations", n=3)
        family = collect_canonical_paths(ClassTranspositionChain(ps, part), space)
        nn = build_matrix(AdjacentTranspositionChain(ps), space)
        pi = stationary_exact(nn)
        report = congestion(nn, family, pi, space)
        assert report.max_path_len == 1
        assert report.max_path_count == 1
        # every move has mass 1/(3n) = 1/9 over an edge of mass 1/(2(n-1)) = 1/4
        assert report.constant == pytest.approx((1 / 9) / (1 / 4))

    def test_congestion_bound_small_instances(self):
        for seed in range(2):
            ps, part = seeded_kclass(4, 2, seed=[505, seed])
            space = enumerate_states("permutations", n=4)
            family = collect_canonical_paths(ClassTranspositionChain(ps, part), space)
            nn = build_matrix(AdjacentTranspositionChain(ps), space)
            pi = stationary_exact(nn)
            report = congestion(nn, family, pi, space)
            assert report.max_path_count <= 12 * 4 ** 3
            assert report.max_path_len <= 4 * 4

    def test_a_zero_mass_where_a_step_starts_is_refused(self):
        ps, part = seeded_kclass(4, 2, seed=[505, 0])
        space = enumerate_states("permutations", n=4)
        family = collect_canonical_paths(ClassTranspositionChain(ps, part), space)
        nn = build_csr(AdjacentTranspositionChain(ps), space)
        pi = stationary_formula(space, ps, part)
        pi[family.states[0]] = 0.0  # the first step of the first path starts here
        with pytest.raises(PropertyViolationError, match="stationary mass 0.0 of "):
            congestion(nn, family, pi, space)

    @pytest.mark.parametrize("n, k, seed", [(4, 2, 0), (5, 3, 1), (6, 3, 2), (6, 4, 3)])
    def test_congestion_is_the_former_accumulation(self, n, k, seed):
        ps, part = seeded_kclass(n, k, seed=[525, seed])
        space = enumerate_states("permutations", n=n)
        kernel = ClassTranspositionChain(ps, part)
        nn = build_csr(AdjacentTranspositionChain(ps), space)
        pi = stationary_exact(nn)
        report = congestion(nn, collect_canonical_paths(kernel, space), pi, space)
        assert report == _former_congestion(nn.toarray(), _former_collect(kernel, space),
                                            pi, space)


class TestComparisonBound:
    def test_worked_arithmetic(self):
        assert comparison_bound(1.0, 0.5, 1.0, 0.25) == pytest.approx(12.0)

    def test_domain_edges(self):
        with pytest.raises(ValidationError):
            comparison_bound(1.0, 0.5, 1.0, 0.5)
        with pytest.raises(ValidationError):
            comparison_bound(0.0, 0.5, 1.0, 0.25)


class TestScaling:
    def test_constant_family_slope_zero(self):
        fit = fit_loglog([3, 4, 5], [7.0, 7.0, 7.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_too_few_sizes(self):
        with pytest.raises(ValidationError):
            fit_loglog([3, 4], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_non_positive_value_rejected(self, bad):
        with pytest.raises(ValidationError, match="positive values"):
            fit_loglog([3, 4, 5], [1.0, bad, 2.0])

    def test_one_state_size_rejected(self):
        with pytest.raises(ValidationError, match="one-state space"):
            gap_scaling(lambda n: AdjacentTranspositionChain(uniform_set(n)), [1, 2, 3])

    def test_repeated_size_rejected_before_any_build(self):
        def family(n):
            raise AssertionError("a chain was built")

        with pytest.raises(ValidationError, match="must not repeat"):
            gap_scaling(family, [3, 3, 4, 5])

    def test_values_come_one_size_at_a_time(self):
        sweep = scaling_values(lambda n: AdjacentTranspositionChain(uniform_set(n)),
                               [3, 4, 6], budget=30)
        assert next(sweep) == pytest.approx(4.0)
        assert next(sweep) == pytest.approx(10.24, abs=0.005)
        with pytest.raises(BudgetExceededError, match="720 states"):
            next(sweep)

    def test_mixing_times_given_eps(self):
        def family(total):
            return GeneralizedExclusionChain(constant_bias(0.75), total // 2,
                                             total - total // 2)

        assert list(scaling_values(family, [6, 8], eps=0.25)) == [57, 132]

    def test_uniform_nearest_neighbor_slope_smoke(self):
        fit = gap_scaling(
            lambda n: AdjacentTranspositionChain(uniform_set(n)), [3, 4, 5])
        assert 2.0 < fit.slope < 4.0


class TestStationaryBounds:
    def test_minimum_weight_lower_bound(self):
        # min pi >= 1 / (lambda_max^C(n,2) n!)
        for seed in range(3):
            ps, part = seeded_kclass(4, 2, seed=[606, seed])
            space = enumerate_states("permutations", n=4)
            matrix = build_matrix(AdjacentTranspositionChain(ps), space)
            pi = stationary_exact(matrix)
            lam_max = max(ps.ratio(i, j)
                          for i in range(1, 5) for j in range(1, 5) if i != j)
            bound = 1.0 / (lam_max ** math.comb(4, 2) * math.factorial(4))
            assert pi.min() >= bound - 1e-15


class TestFillSpotCheck:
    def test_smoke(self):
        violations, gaps, uniform_gap = fill_spot_check(3, 10, seed=1)
        assert violations == []
        assert len(gaps) == 10
        assert uniform_gap == pytest.approx((1 - math.cos(math.pi / 3)) / 2)
