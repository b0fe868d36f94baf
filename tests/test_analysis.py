import math
import sys
import threading
from functools import lru_cache
from itertools import permutations

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
    constant_bias_set,
    uniform_set,
)
from biasedperm import analysis, permcore
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

from conftest import random_league_tree, seeded_kclass


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


def _former_congestion(nn_matrix, paths, pi, space):
    """The per-step dense lookup the CSR pipeline replaced (dense input)."""
    counts, loads = {}, {}
    max_len = 0
    for rec in paths:
        length = rec.path.length
        max_len = max(max_len, length)
        contribution = length * pi[rec.x_index] * rec.prob
        for a, bstate in zip(rec.path.states[:-1], rec.path.states[1:]):
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
        max_path_len=max_len, n_paths=len(paths), edge_counts=counts)


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
        records = collect_canonical_paths(space, prob_set, partition)
        nn = build_csr(AdjacentTranspositionChain(prob_set), space)
        pi = stationary_exact(nn)
        report = congestion(nn, records, pi, space)
        assert report == _former_congestion(nn.toarray(), records, pi, space)
        assert congestion(nn.toarray(), records, pi, space) == report

    def test_congestion_names_the_first_step_off_the_chain(self):
        prob_set, partition = seeded_kclass(4, 2, seed=[505, 0])
        space = enumerate_states("permutations", n=4)
        records = collect_canonical_paths(space, prob_set, partition)
        dense = build_matrix(AdjacentTranspositionChain(prob_set), space)
        pi = stationary_exact(dense)
        steps = [(space.index[a], space.index[b]) for rec in records
                 for a, b in zip(rec.path.states[:-1], rec.path.states[1:])]
        # remove a late edge, then an earlier one: the earlier is reported
        for u, v in (steps[-1], steps[len(steps) // 3]):
            dense[u, v] = 0.0
        with pytest.raises(PropertyViolationError) as former:
            _former_congestion(dense, records, pi, space)
        with pytest.raises(PropertyViolationError) as new:
            congestion(sp.csr_matrix(dense), records, pi, space)
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
        monkeypatch.setattr(analysis, "_physical_memory", lambda: need)
        assert np.allclose(stationary_exact(matrix), 1 / 720)

        def no_solve(*args):
            raise AssertionError("the system was solved")

        monkeypatch.setattr(analysis, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        with pytest.raises(BudgetExceededError, match="physical memory"):
            stationary_exact(matrix)


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


@lru_cache(maxsize=None)
def _exclusion_matrix(total):
    """Criterion 6b's chain (bias 0.75, n1 = total // 2): matrix and pi."""
    kernel = GeneralizedExclusionChain(constant_bias(0.75), total // 2,
                                       total - total // 2)
    matrix = build_matrix(kernel, space_for_kernel(kernel))
    return matrix, stationary_exact(matrix)


def _former_tv_curve(matrix, pi, tmax):
    """The propagation the column-block scan replaced: the whole power P^t,
    times dense P up to 256 states and CSR P above, reduced row by row."""
    op = sp.csr_matrix(matrix) if matrix.shape[0] > 256 else matrix
    power = np.eye(matrix.shape[0])
    curve = []
    for _ in range(tmax + 1):
        curve.append(0.5 * float(np.abs(power - pi).sum(axis=1).max()))
        power = np.asarray(power @ op)
    return np.array(curve)


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

    def test_non_monotone_curve_rejected(self):
        with pytest.raises(PropertyViolationError, match="monotone"):
            analysis._check_monotone([0.5, 0.3, 0.4], 2)

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
        assert np.array_equal(tv_curve(matrix, pi, 200),
                              _former_tv_curve(matrix, pi, 200))

    @pytest.mark.parametrize("total", [6, 8, 10])
    def test_tv_curve_matches_the_former_dense_propagation(self, total):
        matrix, pi = _exclusion_matrix(total)
        assert matrix.shape[0] <= 256  # the former dense route
        np.testing.assert_allclose(tv_curve(matrix, pi, 200),
                                   _former_tv_curve(matrix, pi, 200),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tmax", [None, 768])
    def test_exclusion_tau_at_totals_6_to_12(self, tmax):
        taus = [mixing_time_exact(*_exclusion_matrix(total), 0.25, tmax)
                for total in (6, 8, 10, 12)]
        assert taus == [57, 132, 240, 379]

    def test_tv_curve_is_deterministic_across_threads(self, monkeypatch):
        matrix, pi = _exclusion_matrix(12)
        threaded = tv_curve(matrix, pi, 50)
        assert np.array_equal(tv_curve(matrix, pi, 50), threaded)
        # more workers than cores, switching threads as often as possible: a
        # lost or misplaced block update would change the curve
        monkeypatch.setattr(analysis, "_usable_cores", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = tv_curve(matrix, pi, 50)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(stressed, threaded)
        monkeypatch.setattr(analysis, "_usable_cores", lambda: 1)
        assert np.array_equal(tv_curve(matrix, pi, 50), threaded)

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
        report = verify_decomposition(matrix, pi, [list(range(6))])
        gap = spectral_gap(matrix, pi)
        assert report.gap_projection == 1.0  # 1-state projection convention
        assert report.slack == pytest.approx(gap - 0.5 * gap)
        assert report.holds

    def test_singleton_blocks(self):
        ps = constant_bias_set(3, 0.7)
        space = enumerate_states("permutations", n=3)
        matrix = build_matrix(AdjacentTranspositionChain(ps), space)
        pi = stationary_exact(matrix)
        report = verify_decomposition(matrix, pi, [[i] for i in range(6)])
        assert report.min_restriction_gap == 1.0
        assert report.holds

    def test_word_chain_class_position_blocks(self):
        part = ClassPartition.from_sizes((1, 1, 2))
        ps = build_kclass(KClassParams(
            part, {(1, 2): 0.7, (1, 3): 0.8, (2, 3): 0.75}))
        space = enumerate_states("words", multiplicities=part.sizes)
        matrix = build_matrix(CrossClassChain(ps, part), space)
        pi = stationary_exact(matrix)
        blocks = blocks_by_class_positions(space, [1])
        assert len(blocks) == 4
        report = verify_decomposition(matrix, pi, blocks)
        assert report.holds
        assert report.slack >= 0

    def test_overlapping_blocks_rejected(self):
        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            verify_decomposition(matrix, np.array([0.5, 0.5]), [[0, 1], [1]])


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
        for mv in analysis.mtk_moves(sigma, ps, part):
            if mv.j == mv.i + 1:
                y = permcore.transpose(sigma, mv.i, mv.j)
                path = canonical_path(sigma, y, mv.direction, ps, part)
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
        path = canonical_path(x, y, "N", ps, part)
        words = [permcore.project(s, part) for s in path.states]
        it = iter(words)
        for snapshot in CRITICAL_SNAPSHOTS:
            assert snapshot in it  # consumes the iterator: subsequence in order
        assert path.length <= 4 * 11
        assert path.states[-1] == y

    def test_wrong_direction_rejected(self):
        ps, part = seeded_kclass(4, 2, seed=2)
        sigma = (1, 2, 3, 4)
        mv = analysis.mtk_moves(sigma, ps, part)[0]
        y = permcore.transpose(sigma, mv.i, mv.j)
        other = {"L": "N", "R": "N", "N": "L"}[mv.direction]
        with pytest.raises(ValidationError):
            canonical_path(sigma, y, other, ps, part)

    def test_every_step_is_adjacent_and_weight_floor_holds(self):
        for seed in range(3):
            ps, part = seeded_kclass(5, 3, seed=[303, seed])
            space = enumerate_states("permutations", n=5)
            logw = {s: permcore.log_weight(s, ps) for s in space.states}
            records = collect_canonical_paths(space, ps, part)
            for rec in records:
                path = rec.path
                floor = min(logw[path.x], logw[path.y]) - 1e-9
                for a, b in zip(path.states[:-1], path.states[1:]):
                    diff = [p for p in range(5) if a[p] != b[p]]
                    assert len(diff) == 2 and diff[1] == diff[0] + 1
                for s in path.states:
                    assert logw[s] >= floor
                assert path.length <= 4 * 5

    def test_prop3_mirror_produces_valid_paths(self):
        ps, part = seeded_kclass(5, 2, seed=404)
        space = enumerate_states("permutations", n=5)
        records = collect_canonical_paths(space, ps, part, prop3_order=True)
        for rec in records:
            assert rec.path.states[-1] == rec.path.y
            for a, b in zip(rec.path.states[:-1], rec.path.states[1:]):
                diff = [p for p in range(5) if a[p] != b[p]]
                assert len(diff) == 2 and diff[1] == diff[0] + 1

    def test_n_edges_connect_equal_weights(self):
        ps, part = seeded_kclass(5, 2, seed=7)
        space = enumerate_states("permutations", n=5)
        for rec in collect_canonical_paths(space, ps, part):
            if rec.path.direction == "N":
                a = permcore.log_weight(rec.path.x, ps)
                b = permcore.log_weight(rec.path.y, ps)
                assert a == pytest.approx(b, abs=1e-12)


class TestCongestion:
    def test_single_class_all_single_edges(self):
        ps = uniform_set(3)
        part = ClassPartition(3, ())
        space = enumerate_states("permutations", n=3)
        records = collect_canonical_paths(space, ps, part)
        nn = build_matrix(AdjacentTranspositionChain(ps), space)
        pi = stationary_exact(nn)
        report = congestion(nn, records, pi, space)
        assert report.max_path_len == 1
        assert report.max_path_count == 1
        # every move has mass 1/(3n) = 1/9 over an edge of mass 1/(2(n-1)) = 1/4
        assert report.constant == pytest.approx((1 / 9) / (1 / 4))

    def test_congestion_bound_small_instances(self):
        for seed in range(2):
            ps, part = seeded_kclass(4, 2, seed=[505, seed])
            space = enumerate_states("permutations", n=4)
            records = collect_canonical_paths(space, ps, part)
            nn = build_matrix(AdjacentTranspositionChain(ps), space)
            pi = stationary_exact(nn)
            report = congestion(nn, records, pi, space)
            assert report.max_path_count <= 12 * 4 ** 3
            assert report.max_path_len <= 4 * 4


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
