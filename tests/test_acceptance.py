"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
The suite is the slow part of the test tree: about 25 s on two cores,
most of it criterion 6b (exact worst-start scans up to 924 states and
two-start brackets up to 184,756 states).
"""

import math
from itertools import permutations

import numpy as np
import pytest

from biasedperm.model import (
    ClassPartition,
    KClassParams,
    build_kclass,
    check_weak_monotonicity,
    uniform_set,
)
from biasedperm import analysis, exclusion, permcore, treerep
from biasedperm.analysis import (
    blocks_by_class_positions,
    build_matrix,
    check_detailed_balance,
    collect_canonical_paths,
    comparison_bound,
    congestion,
    enumerate_states,
    fill_spot_check,
    fit_loglog,
    gap_scaling,
    mixing_bracket,
    mixing_time_exact,
    spectral_gap,
    stationary_exact,
    stationary_formula,
)
from biasedperm.kernels import (
    AdjacentTranspositionChain,
    ClassTranspositionChain,
    CrossClassChain,
    GeneralizedExclusionChain,
    ParticleProcessChain,
    SameClassChain,
    TreeSwapChain,
    constant_bias,
    sample_steps,
    word_hash_bias,
)

from conftest import (EXAMPLE_TREE, family_paths, random_league_tree, seeded_kclass,
                      seeded_prop3_only, stationary_instances)


def report(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


# -- criteria 1 and 2 share the instance sweep ------------------------------


@pytest.fixture(scope="module")
def stationary_sweep():
    rows = []
    for label, prob_set, partition, tree in stationary_instances():
        space = enumerate_states("permutations", n=prob_set.n)
        formula = stationary_formula(space, prob_set)
        chains = {"mnn": AdjacentTranspositionChain(prob_set)}
        if partition is not None:
            chains["mtk"] = ClassTranspositionChain(prob_set, partition)
        if tree is not None:
            chains["mtree"] = TreeSwapChain(tree)
        exact = {}
        balance = {}
        for name, kernel in chains.items():
            matrix = build_matrix(kernel, space)
            pi = stationary_exact(matrix)
            exact[name] = pi
            balance[name] = check_detailed_balance(matrix, pi).max_violation
        rows.append((label, formula, exact, balance))
    return rows


def test_criterion_1_stationarity_agreement(stationary_sweep):
    worst_formula = 0.0
    worst_pair = 0.0
    for label, formula, exact, _ in stationary_sweep:
        for name, pi in exact.items():
            worst_formula = max(worst_formula, float(np.abs(pi - formula).max()))
        if "mtk" in exact:
            worst_pair = max(worst_pair,
                             float(np.abs(exact["mnn"] - exact["mtk"]).max()))
    ok = worst_formula < 1e-10 and worst_pair < 1e-10
    report(1, ok,
           f"{len(stationary_sweep)} instances, n <= 5: max |exact - formula| = "
           f"{worst_formula:.2e}, max |mnn - mtk| = {worst_pair:.2e} (tol 1e-10)")


def test_criterion_2_detailed_balance(stationary_sweep):
    worst = 0.0
    for label, _, _, balance in stationary_sweep:
        for name in ("mnn", "mtk"):
            if name in balance:
                worst = max(worst, balance[name])
    report(2, worst < 1e-12,
           f"max detailed-balance violation over all instances = {worst:.2e} "
           "(tol 1e-12)")


# -- criterion 3: bijections -------------------------------------------------


def test_criterion_3_bijections(example_tree):
    words_checked = 0
    for total in range(0, 17):
        for n1 in range(0, total + 1):
            for word in exclusion.all_words(n1, total - n1):
                assert exclusion.walk_to_word(exclusion.word_to_walk(word)) == word
                words_checked += 1

    # the worked example
    sigma = (6, 1, 4, 3, 2, 7, 5)
    strings = treerep.permutation_to_tree_strings(sigma, example_tree)
    assert strings["A"] == (3, 1, 2, 1, 1, 4, 3)
    assert strings["B"] == (1, 3, 2)
    assert strings["C"] == (2, 1)
    assert treerep.tree_strings_to_permutation(strings, example_tree) == sigma

    perms_checked = 0
    for sigma in permutations(range(1, 8)):
        s = treerep.permutation_to_tree_strings(sigma, example_tree)
        assert treerep.tree_strings_to_permutation(s, example_tree) == sigma
        perms_checked += 1
    for seed in range(5):
        tree = random_league_tree(6, np.random.default_rng([71, seed]))
        for sigma in permutations(range(1, 7)):
            s = treerep.permutation_to_tree_strings(sigma, tree)
            assert treerep.tree_strings_to_permutation(s, tree) == sigma
            perms_checked += 1
    report(3, True,
           f"word<->walk round trip on {words_checked} words (totals <= 16); "
           f"permutation<->tree-strings round trip on {perms_checked} "
           "permutations incl. the worked 7-leaf example")


# -- criteria 4 and 9 share the path instances -------------------------------

PATH_INSTANCES = [(4, 2, 0), (4, 3, 1), (5, 2, 2), (5, 3, 3), (6, 3, 4)]
# weakly monotone by prop3 alone; the former N construction dipped below
# the lighter endpoint on both (log margins -1.00 and -4.91)
PROP3_PATH_INSTANCES = [(5, 3, 5), (6, 4, 7)]


@pytest.fixture(scope="module")
def path_sweep():
    sets = [seeded_kclass(n, k, seed=[909, seed]) for n, k, seed in PATH_INSTANCES]
    sets += [seeded_prop3_only(n, k, seed=[606, seed]) for n, k, seed in PROP3_PATH_INSTANCES]
    rows = []
    for prob_set, partition in sets:
        assert check_weak_monotonicity(prob_set).weakly_monotone
        n, k = prob_set.n, partition.k
        space = enumerate_states("permutations", n=n)
        family = collect_canonical_paths(ClassTranspositionChain(prob_set, partition), space)
        nn_matrix = build_matrix(AdjacentTranspositionChain(prob_set), space)
        pi = stationary_exact(nn_matrix)
        rows.append((n, k, prob_set, partition, space, family, nn_matrix, pi))
    return rows


def test_criterion_4_canonical_paths(path_sweep):
    max_count_seen = 0
    details = []
    for n, k, prob_set, partition, space, family, nn_matrix, pi in path_sweep:
        logw = {s: permcore.log_weight(s, prob_set) for s in space.states}
        for x, y, _, states in family_paths(family, space):
            assert len(states) - 1 <= 4 * n, f"path length {len(states) - 1} > 4n"
            floor = min(logw[x], logw[y]) - 1e-9
            for a, b in zip(states[:-1], states[1:]):
                assert nn_matrix[space.index[a], space.index[b]] > 0
            for s in states:
                assert logw[s] >= floor
        rep = congestion(nn_matrix, family, pi, space)
        assert rep.max_path_count <= 12 * n ** 3
        max_count_seen = max(max_count_seen, rep.max_path_count)
        details.append(f"n={n},k={k}: max|Gamma|={rep.max_path_count} "
                       f"(6n^3={6 * n ** 3}, 12n^3={12 * n ** 3})")
    report(4, True,
           f"{len(path_sweep)} instances: all steps are nearest-neighbor "
           f"edges, lengths <= 4n, weights never dip below the endpoints; "
           + "; ".join(details))


def test_criterion_9_comparison_soundness(path_sweep):
    eps = 0.25
    lines = []
    ok = True
    for n, k, prob_set, partition, space, family, nn_matrix, pi in path_sweep:
        rep = congestion(nn_matrix, family, pi, space)
        p_min = float(np.nanmin(prob_set.p))  # the diagonal is NaN
        ok = ok and rep.max_path_count <= 12 * n ** 3 and rep.constant <= 72 * n ** 4 / p_min
        tk_matrix = build_matrix(ClassTranspositionChain(prob_set, partition),
                                 space)
        tau_tk = mixing_time_exact(tk_matrix, pi, eps)
        tau_nn = mixing_time_exact(nn_matrix, pi, eps)
        bound = comparison_bound(rep.constant, float(pi.min()), tau_tk, eps)
        ok = ok and bound >= tau_nn
        lines.append(f"n={n},k={k}: A={rep.constant:.6g}, bound={bound:.0f} >= tau_nn={tau_nn}")
    report(9, ok, "transferred mixing bound dominates the exact value on "
           "every instance, A <= 72n^4/p_min and max|Gamma| <= 12n^3; "
           + "; ".join(lines))


# -- criterion 5: decomposition ----------------------------------------------


def test_criterion_5_decomposition():
    cases = [
        ((1, 1, 2), (0.7, 0.8, 0.75)),
        ((2, 2, 2), (0.6, 0.8, 0.7)),
        ((2, 3, 3), (0.75, 0.85, 0.8)),
        ((1, 4, 4), (0.7, 0.9, 0.8)),
        ((3, 3, 4), (0.65, 0.8, 0.7)),
    ]
    slacks = []
    for sizes, (q12, q13, q23) in cases:
        partition = ClassPartition.from_sizes(sizes)
        prob_set = build_kclass(KClassParams(
            partition, {(1, 2): q12, (1, 3): q13, (2, 3): q23}))
        space = enumerate_states("words", multiplicities=sizes)
        matrix = build_matrix(CrossClassChain(prob_set, partition), space)
        # the closed-form weights resolve stationary masses far below the
        # linear solver's noise floor; criterion 1 pins the two routes to
        # each other where both are computable
        pi = stationary_formula(space, prob_set, partition)
        labels = blocks_by_class_positions(space, [1])  # one block label per word
        rep = analysis.verify_decomposition(matrix, pi, labels)
        assert rep.holds and rep.slack >= 0
        slacks.append(f"{sizes}: slack={rep.slack:.4f}")
    report(5, True, "restriction/projection inequality holds with nonnegative "
           "slack on 5 three-class word chains (totals <= 10): "
           + "; ".join(slacks))


# -- criterion 6: scaling consistency -----------------------------------------


def test_criterion_6a_uniform_relaxation_slope():
    fit = gap_scaling(lambda n: AdjacentTranspositionChain(uniform_set(n)),
                      [3, 4, 5, 6, 7])
    ok = 2.5 <= fit.slope <= 3.5
    report("6a", ok,
           f"uniform adjacent-transposition relaxation slope = {fit.slope:.3f} "
           f"over n=3..7 (required [2.5, 3.5]); 1/gap = "
           + ", ".join(f"{v:.1f}" for v in fit.values))


def test_criterion_6b_exclusion_mixing_slope(exclusion_scans):
    # Constant-bias exclusion mixes in Theta(n^2) steps, a large-n statement.
    # At totals 6..14 tau(1/4) / (4N(N-1)) still climbs 0.48 -> 0.76 (4N(N-1)
    # is the leading order of the ASEP cutoff location in this chain's steps),
    # so a fit there reads a local slope near 2.7.  The slope is therefore fit
    # at totals 14..20, out of reach of the O(n^2)-per-step worst-start scan,
    # on both ends of the two-start bracket: lower <= tau <= upper.  The
    # lower bound equals the exact worst-start tau at totals 6..12 (asserted
    # here) and at 14; that it keeps matching beyond total 12 is observed,
    # not proved.  The upper bound is rigorous for every size.
    eps = 0.25  # the exact taus at totals 6..12 are the fixture's, at eps = 1/4
    exact = []
    for total, (kernel, _, _, tau) in exclusion_scans.items():
        lower, upper = mixing_bracket(kernel, eps)
        assert lower == tau <= upper, (total, lower, tau, upper)
        exact.append(tau)
    totals = [14, 16, 18, 20]
    brackets = [mixing_bracket(_exclusion_kernel(total), eps, budget=200_000)
                for total in totals]
    lower_fit = fit_loglog(totals, [lo for lo, _ in brackets])
    upper_fit = fit_loglog(totals, [up for _, up in brackets])
    relax = _exclusion_relaxation_slope([6, 8, 10, 12, 14])
    ok = 1.5 <= lower_fit.slope <= 2.5 and 1.5 <= upper_fit.slope <= 2.5
    report("6b", ok,
           f"constant-bias exclusion tau(1/4) slope over totals 14..20 = "
           f"{lower_fit.slope:.3f} (bracket lower) and {upper_fit.slope:.3f} "
           f"(bracket upper) (required [1.5, 2.5]); exact tau = "
           + ", ".join(str(v) for v in exact)
           + " at totals 6..12 (bracket lower agrees); bracket at totals 14..20 = "
           + ", ".join(f"[{lo}, {up}]" for lo, up in brackets)
           + "; lower / (4N(N-1)) = "
           + ", ".join(f"{lo / (4 * n * (n - 1)):.2f}"
                       for n, (lo, _) in zip(totals, brackets))
           + f"; relaxation-time slope over totals 6..14 = {relax:.3f} "
           "(single-particle closed form, tends to 1)")


def _exclusion_kernel(total):
    n1 = total // 2
    return GeneralizedExclusionChain(constant_bias(0.75), n1, total - n1)


def _exclusion_relaxation_slope(totals):
    p, q = 0.75, 0.25
    lam = p / q
    values = []
    for total in totals:
        kernel = _exclusion_kernel(total)
        space = enumerate_states("binary", n1=kernel.n1, n0=kernel.n0)
        matrix = build_matrix(kernel, space)
        weights = np.array([lam ** exclusion.area(s) for s in space.states])
        pi = weights / weights.sum()
        relaxation = 1.0 / spectral_gap(matrix, pi)
        # the gap of the many-particle chain is the single-particle gap
        closed = (total - 1) / (1.0 - 2.0 * math.sqrt(p * q) * math.cos(math.pi / total))
        assert relaxation == pytest.approx(closed, rel=1e-9), (total, relaxation, closed)
        values.append(relaxation)
    return fit_loglog(totals, values).slope


# -- criterion 7: hitting times -----------------------------------------------


def test_criterion_7_hitting_time_scaling():
    bias = constant_bias(0.75)
    normalized = []
    for m in (4, 6, 8, 10):
        summary = exclusion.hitting_time_to_top(bias, m, m, trials=1000, seed=1234)
        normalized.append(summary.normalized_mean)
    ratio = max(normalized) / min(normalized)
    ok = ratio <= 2.0
    report(7, ok,
           "mean hitting time / (n1*n0) = "
           + ", ".join(f"{v:.2f}" for v in normalized)
           + f" for n1=n0=4,6,8,10; max/min = {ratio:.3f} (required <= 2)")


# -- criterion 8: small-n gap spot check --------------------------------------


def test_criterion_8_fill_spot_check():
    violations, gaps, uniform_gap = fill_spot_check(3, 200, seed=2718)
    ok = len(violations) == 0
    report(8, ok,
           f"violations: {len(violations)} over 200 seeded monotone positively "
           f"biased sets at n=3 (uniform gap {uniform_gap:.6f}, "
           f"min sampled gap {min(gaps):.6f})")


# -- criterion 10: sampler fidelity -------------------------------------------


def test_criterion_10_sampler_fidelity():
    prob_set, partition = seeded_kclass(4, 2, seed=[515, 0])
    word = permcore.project((2, 1, 4, 3), partition)
    tree = treerep.parse_tree(EXAMPLE_TREE)
    big_class = 1 + partition.sizes.index(max(partition.sizes))
    cases = [
        (AdjacentTranspositionChain(prob_set), (2, 1, 4, 3)),
        (ClassTranspositionChain(prob_set, partition), (2, 1, 4, 3)),
        (SameClassChain(prob_set, partition, big_class), (2, 1, 4, 3)),
        (CrossClassChain(prob_set, partition), word),
        (ParticleProcessChain(prob_set, partition), word),
        (TreeSwapChain(tree), (6, 1, 4, 3, 2, 7, 5)),
        (GeneralizedExclusionChain(word_hash_bias, 2, 3), (1, 0, 1, 0, 0)),
    ]
    draws = 1_000_000
    worst = 0.0
    for kernel, state in cases:
        row = kernel.transitions(state)
        rng = np.random.default_rng(90210)
        targets, picks = sample_steps(kernel, state, rng, draws)
        counts = dict(zip(targets, np.bincount(picks, minlength=len(targets)).tolist()))
        for target, p in row.items():
            if p == 0.0:
                continue
            observed = counts[target]
            if p == 1.0:  # degenerate row: the draw is certain
                assert observed == draws
                continue
            sigma = math.sqrt(draws * p * (1 - p))
            pull = abs(observed - draws * p) / sigma
            worst = max(worst, pull)
            assert pull <= 3.0, (kernel.name, target, pull)
    report(10, True,
           f"10^6 seeded one-step samples per chain family match the "
           f"enumerated rows within 3 sigma (worst pull {worst:.2f} sigma)")
