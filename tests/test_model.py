import re

import numpy as np
import pytest

from biasedperm.errors import BudgetExceededError, ValidationError
from biasedperm.model import (
    ClassPartition,
    KClassParams,
    WeightVector,
    build_from_weights,
    build_general,
    build_kclass,
    check_weak_monotonicity,
    constant_bias_set,
    kclass_params_from_weights,
    model_from_config,
    random_monotone_set,
    uniform_set,
    validate_kclass,
)
from biasedperm import analysis, exclusion, kernels, model, treerep

from conftest import EXAMPLE_TREE, random_league_tree, seeded_kclass, seeded_kclass_params


class TestBuildGeneral:
    def test_two_element_uniform(self):
        ps = build_general(2, [(1, 2, 0.5)])
        assert ps.prob(2, 1) == 0.5

    def test_complement_rule(self):
        ps = build_general(3, [(1, 2, 0.6), (1, 3, 0.7), (2, 3, 0.8)])
        assert ps.prob(3, 2) == pytest.approx(0.2)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert ps.prob(i, j) + ps.prob(j, i) == 1.0  # exact

    def test_boundary_probability_rejected(self):
        with pytest.raises(ValidationError, match="open interval"):
            build_general(2, [(1, 2, 1.0)])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError, match="more than once"):
            build_general(2, [(1, 2, 0.6), (2, 1, 0.7)])

    def test_missing_pair_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"2 of 3 pairs missing, first \[\(1, 3\), \(2, 3\)\]"):
            build_general(3, [(1, 2, 0.6)])

    def test_missing_pairs_message_stays_short(self):
        with pytest.raises(ValidationError) as info:
            build_general(1000, [])
        message = str(info.value)
        assert message.startswith("499500 of 499500 pairs missing")
        assert len(message) < 200


class TestBuildKClass:
    def test_single_class_is_uniform(self):
        ps = uniform_set(4)
        off = ~np.eye(4, dtype=bool)
        assert np.all(ps.p[off] == 0.5)

    def test_direct_rule(self):
        part = ClassPartition(3, (2,))
        ps = build_kclass(KClassParams(part, {(1, 2): 0.8}))
        assert ps.prob(1, 2) == 0.5
        assert ps.prob(1, 3) == 0.8
        assert ps.prob(2, 3) == 0.8

    def test_q_outside_half_one_rejected(self):
        part = ClassPartition(3, (2,))
        for bad in (0.5, 1.0, 0.2):
            with pytest.raises(ValidationError):
                build_kclass(KClassParams(part, {(1, 2): bad}))

    def test_within_class_exactly_half(self):
        ps, part = seeded_kclass(6, 3, seed=1)
        for c in range(1, part.k + 1):
            members = part.members(c)
            for x in members:
                for y in members:
                    if x != y:
                        assert ps.prob(x, y) == 0.5

    def test_incoherent_q_needs_explicit_scan(self):
        # a valid k-class need not be weakly monotone; only the scan decides
        part = ClassPartition.from_sizes((2, 1, 2, 1))
        q = {(1, 2): 0.9, (1, 3): 0.6, (1, 4): 0.6,
             (2, 3): 0.8, (2, 4): 0.8, (3, 4): 0.8}
        ps = build_kclass(KClassParams(part, q))
        report = check_weak_monotonicity(ps)
        # independent brute-force scan of the three clauses
        p = ps.p
        n = ps.n
        prop1 = all(p[i - 1, j - 1] >= 0.5
                    for i in range(2, n + 1) for j in range(i + 1, n + 1))
        prop2 = all(p[i - 1, j] >= p[i - 1, j - 1]
                    for i in range(1, n) for j in range(i + 1, n))
        prop3 = all(p[i - 2, j - 1] >= p[i - 1, j - 1]
                    for i in range(2, n + 1) for j in range(i + 1, n + 1))
        assert (report.prop1, report.prop2, report.prop3) == (prop1, prop2, prop3)
        assert not report.prop2  # q[1][3] < q[1][2] breaks the row clause


class TestWeights:
    def test_equal_weights_uniform(self):
        ps = build_from_weights(WeightVector.from_strings(["1", "1", "1"]))
        assert ps.prob(1, 2) == 0.5
        assert ps.prob(2, 3) == 0.5

    def test_direct_formula(self):
        ps = build_from_weights(WeightVector.from_strings(["2", "1"]))
        assert ps.prob(1, 2) == pytest.approx(2 / 3)

    def test_collapse_matches_kclass_construction(self):
        w = WeightVector.from_strings(["4", "2", "2", "1"])
        ps = build_from_weights(w)
        params = kclass_params_from_weights(w)
        assert params.partition.sizes == (1, 2, 1)
        assert params.q[(1, 2)] == pytest.approx(2 / 3)
        assert params.q[(1, 3)] == pytest.approx(4 / 5)
        assert params.q[(2, 3)] == pytest.approx(2 / 3)
        rebuilt = build_kclass(params)
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(ps.p[off], rebuilt.p[off], atol=0)

    def test_collapse_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vals = sorted(rng.integers(1, 6, size=5), reverse=True)
            w = WeightVector.from_strings([str(v) for v in vals])
            ps = build_from_weights(w)
            rebuilt = build_kclass(kclass_params_from_weights(w))
            off = ~np.eye(5, dtype=bool)
            assert np.array_equal(ps.p[off], rebuilt.p[off])
            assert np.array_equal(ps.p, _ref_build_from_weights(w), equal_nan=True)

    def test_distinct_weights_rounding_to_half_rejected(self):
        # two classes whose cross probability is the float 1/2 are not a k-class set
        w = WeightVector.from_strings(["1.00000000000000000001", "1"])
        with pytest.raises(ValidationError, match="strictly in"):
            build_from_weights(w)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError):
            WeightVector.from_strings(["2", "3"])  # increasing
        with pytest.raises(ValidationError):
            WeightVector.from_strings(["2", "0"])  # nonpositive


class TestWeakMonotonicity:
    def test_uniform_all_true(self):
        report = check_weak_monotonicity(uniform_set(4))
        assert (report.prop1, report.prop2, report.prop3) == (True, True, True)
        assert report.weakly_monotone

    def test_constant_above_half_all_true(self):
        report = check_weak_monotonicity(constant_bias_set(4, 0.7))
        assert (report.prop1, report.prop2, report.prop3) == (True, True, True)

    def test_row_clause_failure(self):
        ps = build_general(3, [(1, 2, 0.9), (1, 3, 0.6), (2, 3, 0.6)])
        report = check_weak_monotonicity(ps)
        assert report.prop1
        assert not report.prop2
        assert report.prop3
        assert report.weakly_monotone


class TestValidateKClass:
    def test_table_contents(self):
        part = ClassPartition(3, (2,))
        ps = build_kclass(KClassParams(part, {(1, 2): 0.8}))
        table = validate_kclass(ps, part)
        assert table[1, 2] == 0.8
        assert table[2, 1] == pytest.approx(0.2)
        assert table[1, 1] == 0.5

    def test_inconsistent_set_rejected(self):
        part = ClassPartition(3, (1,))
        ps = build_general(3, [(1, 2, 0.7), (1, 3, 0.8), (2, 3, 0.6)])
        with pytest.raises(ValidationError):
            validate_kclass(ps, part)  # within-class pair (2,3) is not 1/2


class TestRandomMonotone:
    def test_monotone_and_positively_biased(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            ps = random_monotone_set(4, rng)
            p = ps.p
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    assert p[i - 1, j - 1] >= 0.5
                    if j < 4:
                        assert p[i - 1, j] >= p[i - 1, j - 1]
                    if i > 1:
                        assert p[i - 2, j - 1] >= p[i - 1, j - 1]
            assert check_weak_monotonicity(ps).weakly_monotone


class TestConfig:
    def test_general_config(self):
        ps, part, tree = model_from_config(
            {"type": "general", "n": 2, "entries": [[1, 2, "0.6"]]})
        assert ps.prob(1, 2) == 0.6
        assert part is None and tree is None

    def test_kclass_config(self):
        ps, part, _ = model_from_config(
            {"type": "kclass", "n": 3, "boundaries": [2], "q": {"(1,2)": "0.8"}})
        assert part.sizes == (2, 1)
        assert ps.prob(1, 3) == 0.8

    def test_weights_config(self):
        ps, part, _ = model_from_config({"type": "weights", "w": ["2", "1", "1"]})
        assert part.sizes == (1, 2)
        assert ps.prob(1, 2) == pytest.approx(2 / 3)

    def test_league_config(self):
        ps, part, tree = model_from_config({"type": "league", "tree": EXAMPLE_TREE})
        assert ps.prob(2, 6) == 0.7
        assert tree is not None

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            model_from_config({"type": "mystery"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            model_from_config({"type": "weights", "w": ["1"], "extra": 1})

    def test_probability_string_required(self):
        with pytest.raises(ValidationError):
            model_from_config({"type": "general", "n": 2, "entries": [[1, 2, 0.6]]})


# The former builders: each filled its own matrix, pair by pair.


def _ref_build_kclass(params):
    part = params.partition
    n = part.n
    p = np.full((n, n), np.nan)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ci, cj = part.class_of(i), part.class_of(j)
            v = 0.5 if ci == cj else float(params.q[(ci, cj)])
            p[i - 1, j - 1] = v
            p[j - 1, i - 1] = 1.0 - v
    return p


def _ref_build_from_weights(w):
    vals = w.values
    n = len(vals)
    p = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i + 1, n):
            v = 0.5 if vals[i] == vals[j] else float(vals[i] / (vals[i] + vals[j]))
            p[i, j] = v
            p[j, i] = 1.0 - v
    return p


def _ref_induced_probabilities(tree):
    n = tree.n
    p = np.full((n, n), np.nan)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            node, a, b = tree.lca(i, j)
            v = node.q[(a, b)] if a < b else 1.0 - node.q[(b, a)]
            p[i - 1, j - 1] = v
            p[j - 1, i - 1] = 1.0 - v
    return p


class TestFormerBuilders:
    """Every builder's matrix equals the former loops'."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_kclass(self, n):
        for k in range(1, min(n, 4) + 1):
            for seed in range(3):
                params = seeded_kclass_params(n, k, [n, k, seed])
                ps = build_kclass(params)
                assert np.array_equal(ps.p, _ref_build_kclass(params), equal_nan=True)

    @pytest.mark.parametrize("values", [
        ["1"], ["3", "3"], ["2", "1"], ["4", "2", "2", "1"],
        ["5", "5", "3", "3", "3", "2", "1", "1"],
        ["7.25", "7.25", "0.3", "0.3", "0.1"], ["1e3", "1e3", "1e3", "2", "1e-3"],
    ])
    def test_weights(self, values):
        w = WeightVector.from_strings(values)
        ps = build_from_weights(w)
        assert np.array_equal(ps.p, _ref_build_from_weights(w), equal_nan=True)

    def test_random_weight_runs(self):
        rng = np.random.default_rng(71)
        for n in range(1, 10):
            for _ in range(5):
                w = WeightVector.from_strings(
                    [str(v) for v in sorted(rng.integers(1, 5, size=n), reverse=True)])
                ps = build_from_weights(w)
                assert np.array_equal(ps.p, _ref_build_from_weights(w), equal_nan=True)

    @pytest.mark.parametrize("seed", range(5))
    def test_league_trees(self, seed):
        rng = np.random.default_rng([505, seed])
        for n in range(2, 10):
            tree = random_league_tree(n, rng)
            ps = treerep.induced_probabilities(tree)
            assert np.array_equal(ps.p, _ref_induced_probabilities(tree), equal_nan=True)


class TestMatrixBudget:
    def test_the_probe_is_the_solvers_probe(self):
        # the solve and the TV scan refuse through the model's one check,
        # so patching model._physical_memory covers every refusal
        assert analysis.check_memory is model.check_memory
        assert not hasattr(analysis, "_physical_memory")

    def test_refused_before_allocation_or_reading_entries(self, monkeypatch):
        def entries():
            raise AssertionError("entries read before the memory check")
            yield

        monkeypatch.setattr(model, "_physical_memory", lambda: 8 * 40 * 40 - 1)
        with pytest.raises(BudgetExceededError, match="physical memory"):
            model._pairwise(40, entries())
        with pytest.raises(BudgetExceededError):
            uniform_set(40)
        with pytest.raises(BudgetExceededError):
            build_from_weights(WeightVector.from_strings(["1"] * 40))

    def test_matrix_at_the_bound_is_built(self, monkeypatch):
        # the bound is half of physical memory
        monkeypatch.setattr(model, "_physical_memory", lambda: 2 * 8 * 40 * 40)
        assert uniform_set(40).p.shape == (40, 40)
        monkeypatch.setattr(model, "_physical_memory", lambda: 2 * 8 * 40 * 40 - 1)
        with pytest.raises(BudgetExceededError, match="half the"):
            uniform_set(40)

    def test_n_30000_is_refused_on_a_7_84_gib_host(self, monkeypatch):
        # 8 * 30000^2 = 7.2e9 bytes fits below 7.84 GiB but not below half
        # of it; should the check let it through, the fill fails here
        # instead of allocating 7.2 GB
        def entries():
            raise AssertionError("entries read before the memory check")
            yield

        def no_fill(*args, **kwargs):
            raise AssertionError("the matrix was allocated")

        monkeypatch.setattr(model, "_physical_memory", lambda: 7.84 * 2**30)
        monkeypatch.setattr(model.np, "full", no_fill)
        with pytest.raises(BudgetExceededError, match="half the 7.8 GiB"):
            model._pairwise(30_000, entries())


_TABLE_2X2 = {"h": 2, "w": 2, "bias": {f"({x},{y})": "2.0" for x in (1, 2) for y in (1, 2)}}

# library entry points whose integer arguments once skipped parse_int: each
# was truncated, accepted, or ended in a TypeError, ValueError or KeyError
_BAD_INTEGERS = {
    "enumerate-n-fraction": lambda: analysis.enumerate_states("permutations", n=2.5),
    "enumerate-n-bool": lambda: analysis.enumerate_states("permutations", n=True),
    "me-n1-fraction": lambda: kernels.GeneralizedExclusionChain(
        kernels.constant_bias(0.75), 2.5, 2),
    "me-n1-bool": lambda: kernels.GeneralizedExclusionChain(
        kernels.constant_bias(0.75), True, 2),
    "hitting-n1-fraction": lambda: exclusion.hitting_time_to_top(
        kernels.constant_bias(0.75), 2.5, 2, 3, 0),
    "hitting-trials-fraction": lambda: exclusion.hitting_time_to_top(
        kernels.constant_bias(0.75), 2, 2, 2.5, 0),
    "hitting-trials-bool": lambda: exclusion.hitting_time_to_top(
        kernels.constant_bias(0.75), 2, 2, True, 0),
    "boundedness-negative": lambda: exclusion.measure_boundedness(
        kernels.constant_bias(0.75), -1, 3),
    "boundedness-fraction": lambda: exclusion.measure_boundedness(
        kernels.constant_bias(0.75), 2.5, 2),
    "boundedness-small-table": lambda: exclusion.measure_boundedness(
        kernels.square_table_bias(_TABLE_2X2), 3, 3),
    "boundedness-steps-fraction": lambda: exclusion.measure_boundedness(
        kernels.constant_bias(0.75), 8, 8, budget=100, sample_steps=2.5),
    "boundedness-steps-negative": lambda: exclusion.measure_boundedness(
        kernels.constant_bias(0.75), 8, 8, budget=100, sample_steps=-5),
    "boundedness-steps-bool": lambda: exclusion.measure_boundedness(
        kernels.constant_bias(0.75), 8, 8, budget=100, sample_steps=True),
    "boundedness-seed-negative": lambda: exclusion.measure_boundedness(
        kernels.constant_bias(0.75), 8, 8, budget=100, sample_steps=5, seed=-1),
    "boundedness-seed-fraction": lambda: exclusion.measure_boundedness(
        kernels.constant_bias(0.75), 8, 8, budget=100, sample_steps=5, seed=1.5),
    "hitting-seed-fraction": lambda: exclusion.hitting_time_to_top(
        kernels.constant_bias(0.75), 2, 2, 3, 1.5),
    "hitting-seed-bool": lambda: exclusion.hitting_time_to_top(
        kernels.constant_bias(0.75), 2, 2, 3, True),
    "hitting-seed-negative": lambda: exclusion.hitting_time_to_top(
        kernels.constant_bias(0.75), 2, 2, 3, -1),
    "partition-n-fraction": lambda: ClassPartition(2.5, ()),
    "general-n-fraction": lambda: build_general(2.5, []),
    "fill-check-count-fraction": lambda: analysis.fill_spot_check(3, 2.5, 0),
    "fill-check-seed-negative": lambda: analysis.fill_spot_check(3, 2, -1),
    "fill-check-seed-fraction": lambda: analysis.fill_spot_check(3, 2, 1.5),
}


@pytest.mark.parametrize("name", list(_BAD_INTEGERS))
def test_library_integers_go_through_parse_int(name):
    with pytest.raises(ValidationError):
        _BAD_INTEGERS[name]()


def _six_state_chain():
    kernel = kernels.GeneralizedExclusionChain(kernels.constant_bias(0.75), 2, 2)
    matrix = analysis.build_csr(kernel, analysis.space_for_kernel(kernel))
    return kernel, matrix, analysis.stationary_exact(matrix)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -0.25, True, None, [0.25]])
@pytest.mark.parametrize("call", ["mixing_time_exact", "mixing_bracket"])
def test_library_eps_is_a_finite_real_above_0(call, eps):
    # a NaN eps once gave tau = 0 on this chain, and a scan to the horizon
    kernel, matrix, pi = _six_state_chain()
    with pytest.raises(ValidationError, match="eps"):
        if call == "mixing_time_exact":
            analysis.mixing_time_exact(matrix, pi, eps)
        else:
            analysis.mixing_bracket(kernel, eps)


def test_one_budget_default():
    # cli reads analysis.DEFAULT_BUDGET; every library default is the same object
    import inspect

    assert analysis.DEFAULT_BUDGET is model.DEFAULT_BUDGET
    for function in (exclusion.measure_boundedness, analysis.enumerate_states,
                     analysis.space_for_kernel, analysis.fill_spot_check):
        assert inspect.signature(function).parameters["budget"].default is model.DEFAULT_BUDGET


def test_cross_class_probabilities_share_one_rule():
    part = ClassPartition(2, (1,))
    with pytest.raises(ValidationError) as caught:
        KClassParams(partition=part, q={(1, 2): 0.5})
    assert str(caught.value) == "cross-class probability q(1, 2)=0.5 must lie strictly in (1/2, 1)"
    with pytest.raises(ValidationError) as caught:
        treerep.parse_tree({"node": "R", "children": [1, 2], "q": {"(1,2)": "0.5"}})
    assert str(caught.value) == "node 'R': q(1, 2)=0.5 must lie strictly in (1/2, 1)"


@pytest.mark.parametrize("value,low,high,message", [
    (0, 1, None, "k must be >= 1, got 0"),
    (4, 1, 3, "k must be in 1..3, got 4"),
])
def test_parse_int_bounds(value, low, high, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        model.parse_int(value, "k", low, high)
    assert model.parse_int("2", "k", 0) == 2 and model.parse_int(3.0, "k", 1, 3) == 3
