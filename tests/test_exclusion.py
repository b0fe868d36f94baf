import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from biasedperm import cli, exclusion
from biasedperm.errors import BudgetExceededError, ValidationError
from biasedperm.kernels import (GeneralizedExclusionChain, constant_bias, sample_step,
                                square_table_bias, word_hash_bias)
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
        kernel = GeneralizedExclusionChain(constant_bias(0.6), 3, 3)
        for word in all_words(3, 3):
            for target in kernel.transitions(word):
                if target != word:
                    assert abs(area(target) - area(word)) == 1

    def test_stationary_weight_is_bias_power_area(self):
        # cross-check: the exact stationary vector of the constant-bias chain
        # is proportional to ratio^area, and matches the 2-class word formula
        from biasedperm.analysis import build_matrix, enumerate_states, stationary_exact, stationary_formula
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

    @pytest.mark.parametrize("bias,n1,n0", [
        (constant_bias(0.75), 6, 6),
        (word_hash_bias, 6, 6),
        (square_table_bias({"h": 4, "w": 5, "bias": {f"({x},{y})": str(1.1 + 0.1 * x + 0.03 * y)
                                                     for x in range(1, 6) for y in range(1, 5)}}),
         4, 5),
    ], ids=["constant", "word-hash", "square-table"])
    def test_sampled_walk_is_the_former_list_of_visits(self, bias, n1, n0):
        # the walk as it was kept before: every visit listed, then the
        # distinct words taken in first-visit order by dict.fromkeys
        rng = np.random.default_rng(11)
        kernel = GeneralizedExclusionChain(bias, n1, n0)
        walk = [bottom_word(n1, n0)]
        for _ in range(3000):
            walk.append(sample_step(kernel, walk[-1], rng))
        former = exclusion._boundedness_over(dict.fromkeys(walk), bias, exact=False)
        report = measure_boundedness(bias, n1, n0, budget=10, sample_steps=3000, seed=11)
        assert report == former
        assert len(set(walk)) < len(walk)


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


class TestBiasValueRule:
    """The kernel's rows, the hitting loop and the boundedness scan read a
    bias value by one rule: a float strictly in (0, 1)."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("value", ["nan", "0.0"])
    def test_a_never_accepted_bias_ends_a_hitting_run(self, tmp_path, value, cores):
        # a subprocess with a timeout: no coin is below NaN or 0, so a trial
        # given either once ran forever
        script = textwrap.dedent(f"""
            from biasedperm import exclusion
            from biasedperm.errors import ValidationError
            exclusion._usable_cores = lambda: {cores}
            try:
                exclusion.hitting_time_to_top(lambda word, i: float({value!r}), 2, 2,
                                              trials=4, seed=0)
            except ValidationError as exc:
                print(exc)
            else:
                raise SystemExit("the bias was accepted")
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"bias callback returned {float(value)} at position 2")

    @pytest.mark.parametrize("value", [1.0, 1.5])
    def test_a_bias_of_one_or_more_is_refused_by_hitting(self, value):
        with pytest.raises(ValidationError, match=r"strictly in \(0, 1\)"):
            hitting_time_to_top(lambda word, i: value, 2, 2, trials=1, seed=0)

    @pytest.mark.parametrize("value", [0.0, 1.0, float("nan")])
    def test_a_bias_outside_the_open_interval_is_refused_by_boundedness(self, value):
        # 0 once ended in a ZeroDivisionError
        with pytest.raises(ValidationError, match=r"strictly in \(0, 1\)"):
            measure_boundedness(lambda word, i: value, 2, 2)


def _reference_one_hit(bias, n1, n0, seed):
    """The hitting loop before the memo: one callback call per step."""
    if n1 == 0 or n0 == 0:
        return 0
    n = n1 + n0
    word = list(bottom_word(n1, n0))
    target = n1 * n0
    current = 0
    rng = np.random.default_rng(seed)
    const_p = getattr(bias, "constant_p", None)
    steps = 0
    block = 4096
    while True:
        positions = rng.integers(1, n, size=block)
        coins = rng.random(block)
        for k in range(block):
            steps += 1
            i = int(positions[k])
            a, b = word[i - 1], word[i]
            if a == b:
                continue
            if const_p is not None:
                p = const_p if a == 1 else 1.0 - const_p
            else:
                p = bias(tuple(word), i)
            if coins[k] < p:
                word[i - 1], word[i] = b, a
                current += 1 if a == 1 else -1
                if current == target:
                    return steps


def _reference_trials(bias, n1, n0, trials, seed):
    return tuple(_reference_one_hit(bias, n1, n0, trial_seed(seed, t)) for t in range(trials))


def _square_bias(n1, n0, seed=3):
    rng = np.random.default_rng(seed)
    lam = {f"({x},{y})": float(rng.uniform(1.2, 4.0))
           for x in range(1, n0 + 1) for y in range(1, n1 + 1)}
    return square_table_bias({"h": n1, "w": n0, "bias": lam})


def _counting(bias, seen):
    def counted(word, i):
        seen.append((word, i))
        return bias(word, i)

    return counted


def _logging(bias, path):
    """bias, appending "pid word i" to path at each call: a record that the
    pool's workers write as well as this process."""
    def logged(word, i):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {''.join(map(str, word))} {i}\n")
        return bias(word, i)

    return logged


def _read_log(path):
    """The (pid, (word, i)) calls _logging recorded, in the order written."""
    rows = [line.split() for line in path.read_text().splitlines()] if path.exists() else []
    return [(int(pid), (tuple(map(int, word)), int(i))) for pid, word, i in rows]


def _cores(monkeypatch, count):
    """Pretend this process may run on ``count`` cores: 1 is the serial route."""
    monkeypatch.setattr(exclusion, "_usable_cores", lambda: count)


MEMO_CASES = [("constant", 1, 1), ("constant", 4, 4), ("constant", 8, 8),
              ("word-hash", 2, 2), ("word-hash", 3, 4), ("word-hash", 5, 5),
              ("square", 2, 3), ("square", 4, 4)]


def _bias(kind, n1, n0):
    if kind == "constant":
        return constant_bias(0.75)
    if kind == "word-hash":
        return word_hash_bias
    return _square_bias(n1, n0)


class TestHittingMemo:
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize("kind,n1,n0", MEMO_CASES)
    def test_trials_equal_the_reference_loop(self, kind, n1, n0, seed):
        bias = _bias(kind, n1, n0)
        summary = hitting_time_to_top(bias, n1, n0, trials=12, seed=seed)
        assert summary.trials == _reference_trials(bias, n1, n0, 12, seed)

    @pytest.mark.parametrize("kind,n1,n0", [("word-hash", 3, 4), ("word-hash", 5, 5),
                                            ("square", 4, 4)])
    def test_callback_runs_once_per_visited_pair(self, monkeypatch, kind, n1, n0):
        _cores(monkeypatch, 1)  # the calls list is only appended to in this process
        bias = _bias(kind, n1, n0)
        visited, calls = [], []
        expected = _reference_trials(_counting(bias, visited), n1, n0, 20, 7)
        summary = hitting_time_to_top(_counting(bias, calls), n1, n0, trials=20, seed=7)
        assert summary.trials == expected
        assert len(calls) <= len(set(visited)) < len(visited)
        assert set(calls) == set(visited)

    @pytest.mark.parametrize("cap", [0, 1, 7])
    def test_a_full_memo_keeps_the_trials(self, monkeypatch, cap):
        _cores(monkeypatch, 1)  # the spy and the calls list see this process only
        monkeypatch.setattr(exclusion, "_HIT_MEMO_MAX", cap)
        sizes = []
        one_hit = exclusion._one_hit

        def spy(bias, n1, n0, seed, memo):
            steps = one_hit(bias, n1, n0, seed, memo)
            sizes.append(len(memo))
            return steps

        monkeypatch.setattr(exclusion, "_one_hit", spy)
        calls = []
        summary = hitting_time_to_top(_counting(word_hash_bias, calls), 3, 3,
                                      trials=10, seed=4)
        assert summary.trials == _reference_trials(word_hash_bias, 3, 3, 10, 4)
        assert max(sizes) == cap
        assert len(calls) > len(set(calls))  # beyond the cap, pairs are re-evaluated

    @pytest.mark.parametrize("kind,n1,n0", [("word-hash", 3, 4), ("word-hash", 5, 5),
                                            ("square", 4, 4)])
    def test_pooled_callback_runs_once_per_visited_pair_per_worker(self, monkeypatch,
                                                                   tmp_path, kind, n1, n0):
        _cores(monkeypatch, 2)
        bias = _bias(kind, n1, n0)
        visited = []
        expected = _reference_trials(_counting(bias, visited), n1, n0, 20, 7)
        log = tmp_path / "calls"
        summary = hitting_time_to_top(_logging(bias, log), n1, n0, trials=20, seed=7)
        assert summary.trials == expected
        calls = _read_log(log)
        assert os.getpid() not in {pid for pid, _ in calls}  # run in the workers
        assert len(calls) == len(set(calls))  # each (worker, pair) at most once
        assert {pair for _, pair in calls} == set(visited)

    @pytest.mark.parametrize("cap", [0, 1, 7])
    def test_a_full_memo_keeps_the_pooled_trials(self, monkeypatch, tmp_path, cap):
        _cores(monkeypatch, 2)
        monkeypatch.setattr(exclusion, "_HIT_MEMO_MAX", cap)
        sizes = tmp_path / "sizes"
        one_hit = exclusion._one_hit

        def spy(bias, n1, n0, seed, memo):
            steps = one_hit(bias, n1, n0, seed, memo)
            with open(sizes, "a") as fh:
                fh.write(f"{os.getpid()} {len(memo)}\n")
            return steps

        monkeypatch.setattr(exclusion, "_one_hit", spy)  # forked workers inherit it
        log = tmp_path / "calls"
        summary = hitting_time_to_top(_logging(word_hash_bias, log), 3, 3,
                                      trials=10, seed=4)
        assert summary.trials == _reference_trials(word_hash_bias, 3, 3, 10, 4)
        records = [tuple(map(int, line.split())) for line in sizes.read_text().splitlines()]
        assert len(records) == 10 and os.getpid() not in {pid for pid, _ in records}
        assert max(size for _, size in records) == cap
        calls = _read_log(log)
        assert len(calls) > len(set(calls))  # beyond the cap, a worker re-evaluates pairs

    @pytest.mark.parametrize("n1,n0,trials", [(-1, 5, 3), (5, -2, 3), (2, 2, 0), (2, 2, -3)])
    def test_bad_sizes_and_trial_counts_are_refused(self, n1, n0, trials):
        with pytest.raises(ValidationError):
            hitting_time_to_top(word_hash_bias, n1, n0, trials=trials, seed=0)


def _spans(cores):
    return cores * exclusion._HIT_SPANS_PER_WORKER


class TestHittingPool:
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize("kind,n1,n0", MEMO_CASES)
    def test_pooled_trials_equal_the_serial_ones(self, monkeypatch, kind, n1, n0, seed):
        bias = _bias(kind, n1, n0)
        summaries = []
        for cores in (1, 2, 3):  # 3: more workers than a 2-core host has, uneven spans
            _cores(monkeypatch, cores)
            summaries.append(hitting_time_to_top(bias, n1, n0, trials=12, seed=seed))
        assert summaries[0] == summaries[1] == summaries[2]
        assert summaries[0].trials == _reference_trials(bias, n1, n0, 12, seed)

    @pytest.mark.parametrize("trials", [1, _spans(2) - 1, _spans(2) + 1])
    def test_trial_counts_around_the_span_count(self, monkeypatch, tmp_path, trials):
        _cores(monkeypatch, 2)
        log = tmp_path / "calls"
        summary = hitting_time_to_top(_logging(word_hash_bias, log), 2, 3,
                                      trials=trials, seed=21)
        assert summary.trials == _reference_trials(word_hash_bias, 2, 3, trials, 21)
        pids = {pid for pid, _ in _read_log(log)}
        if trials == 1:
            assert pids == {os.getpid()}  # one trial runs here
        else:
            assert pids and os.getpid() not in pids

    def test_no_fork_runs_here(self, monkeypatch, tmp_path):
        _cores(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        log = tmp_path / "calls"
        summary = hitting_time_to_top(_logging(word_hash_bias, log), 2, 3, trials=9, seed=2)
        assert summary.trials == _reference_trials(word_hash_bias, 2, 3, 9, 2)
        assert {pid for pid, _ in _read_log(log)} == {os.getpid()}

    def test_a_daemonic_caller_runs_here(self, monkeypatch, tmp_path):
        # a daemonic process may not have children: its trials run in it
        _cores(monkeypatch, 2)
        log = tmp_path / "calls"
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def run():
            summary = hitting_time_to_top(_logging(word_hash_bias, log), 2, 3,
                                          trials=9, seed=2)
            send.send((os.getpid(), summary.trials))

        caller = context.Process(target=run, daemon=True)
        caller.start()
        caller.join(60)
        assert caller.exitcode == 0
        pid, trials = receive.recv()
        assert trials == _reference_trials(word_hash_bias, 2, 3, 9, 2)
        assert {p for p, _ in _read_log(log)} == {pid}

    @pytest.mark.parametrize("bias", ["constant:0.75", "word-hash"])
    def test_cli_csvs_are_the_same_on_both_routes(self, monkeypatch, tmp_path, bias):
        config = {"chain": "me", "experiment": "hitting", "bias": bias,
                  "n1": 3, "n0": 4, "trials": 40}
        outputs = []
        for cores in (1, 2):
            _cores(monkeypatch, cores)
            out = tmp_path / f"cores-{cores}"
            assert cli.run_config(config, out_dir=out, seed=5, quiet=True) == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in ("results.csv", "detail.csv")})
        assert outputs[0] == outputs[1]

    def test_a_bias_raising_in_a_worker_raises_here(self, monkeypatch):
        _cores(monkeypatch, 2)
        parent = os.getpid()

        def undefined(word, i):
            if os.getpid() != parent:
                raise LookupError(f"no bias at site {i} of {word}")
            return 0.75

        with pytest.raises(LookupError) as caught:
            hitting_time_to_top(undefined, 2, 2, trials=8, seed=0)
        # every trial's first swap is at site 2 of the bottom word
        assert str(caught.value) == "no bias at site 2 of (1, 1, 0, 0)"
        assert "Traceback" in str(caught.value.__cause__)  # the worker's traceback
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_call(self, monkeypatch):
        _cores(monkeypatch, 2)
        hitting_time_to_top(word_hash_bias, 2, 2, trials=30, seed=0)
        assert multiprocessing.active_children() == []

    def test_pool_modules_load_on_first_use(self, tmp_path):
        # a run with no hitting experiment starts no pool and must not import it
        script = textwrap.dedent(f"""
            import sys
            import biasedperm
            from biasedperm import cli, exclusion, kernels
            lazy = ("multiprocessing", "concurrent.futures.process")
            config = {{"model": {{"type": "kclass", "n": 4, "boundaries": [2],
                                  "q": {{"(1,2)": "0.8"}}}},
                       "chain": "mnn", "experiment": "gap"}}
            assert cli.run_config(config, out_dir={str(tmp_path)!r}, quiet=True) == 0
            assert not [m for m in lazy if m in sys.modules], "loaded by a gap run"
            exclusion._usable_cores = lambda: 2
            exclusion.hitting_time_to_top(kernels.word_hash_bias, 2, 2, trials=4, seed=0)
            assert all(m in sys.modules for m in lazy), "not loaded by a pooled run"
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
