import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biasedperm import analysis, cli, model

from conftest import EXAMPLE_TREE

UNIFORM3 = {"type": "kclass", "n": 3, "boundaries": [], "q": {}}
KCLASS4 = {"type": "kclass", "n": 4, "boundaries": [2],
           "q": {"(1,2)": "0.8"}}
# weakly monotone by prop3 but not prop2: an M_tk right move has r > 1 here
PROP3_ONLY4 = {"type": "kclass", "n": 4, "boundaries": [2, 3],
               "q": {"(1,2)": "0.9111040520518441", "(1,3)": "0.7162309814285105",
                     "(2,3)": "0.5692436359493266"}}
# also prop3-only, drawn in a seeded sweep of k-class sets (seed 20261018,
# k in {2, 3}, n <= 5, q ~ U(0.51, 0.99)): the unmirrored N construction
# dips below the lighter endpoint's weight here
PROP3_ONLY_DIP4 = {"type": "kclass", "n": 4, "boundaries": [1, 3],
                   "q": {"(1,2)": "0.8588055816129175", "(1,3)": "0.6526538898594639",
                         "(2,3)": "0.5459940440173697"}}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunStationary:
    def test_uniform_n3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": UNIFORM3, "chain": "mnn", "experiment": "stationary",
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 0
        rows = read_csv(tmp_path / "out" / "detail.csv")
        assert rows[0] == ["state", "pi_exact", "pi_formula"]
        assert len(rows) == 7
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(1 / 6)
        results = read_csv(tmp_path / "out" / "results.csv")
        assert results[0] == cli.RESULT_COLUMNS
        assert results[1][0] == "stationary"

    def test_tree_chain(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"type": "league", "tree": EXAMPLE_TREE},
            "chain": "mtree", "experiment": "stationary",
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 0


class TestValidation:
    def test_boundary_probability_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"type": "general", "n": 2, "entries": [[1, 2, "1.0"]]},
            "chain": "mnn", "experiment": "stationary",
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 1
        assert "open interval" in capsys.readouterr().err

    def test_unknown_field_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": UNIFORM3, "chain": "mnn", "experiment": "stationary",
            "wat": 1, "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 1
        assert "unknown config fields" in capsys.readouterr().err

    def test_missing_experiment_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {"model": UNIFORM3, "chain": "mnn"})
        assert cli.run(cfg) == 1

    @pytest.mark.parametrize("cfg,message", [
        ({"experiment": "nope"}, "config needs \"experiment\""),
        ({}, "config needs \"experiment\""),
        (["x"], "config must be a JSON object"),
        ({"model": UNIFORM3, "chain": "mnn", "experiment": "gap", "typo_key": 1},
         "unknown config fields: ['typo_key']"),
        ({"experiment": "gap", 1: 2, "b": 3}, "unknown config fields: [1, 'b']"),
    ])
    def test_run_config_gates_the_config_itself(self, tmp_path, capsys, cfg, message):
        # run_config, which perfbench and the tests call directly, once raised
        # KeyError or AttributeError here, and ran a config with a typo field
        assert cli.run_config(cfg, out_dir=tmp_path / "out", quiet=True) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_a_config_file_holding_a_list_exit_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert cli.run(path, out_dir=tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_budget_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"type": "kclass", "n": 6, "boundaries": [3],
                      "q": {"(1,2)": "0.8"}},
            "chain": "mnn", "experiment": "stationary",
            "out": str(tmp_path / "out")})
        assert cli.run(cfg, budget=100) == 2
        assert "budget" in capsys.readouterr().err


    def test_solve_beyond_physical_memory_exit_2(self, tmp_path, capsys,
                                                  monkeypatch):
        # n = 7 needs 2 * 8 * 5040^2 bytes (388 MiB) for the LU
        monkeypatch.setattr(model, "_physical_memory", lambda: 2**28)
        cfg = write_config(tmp_path, {
            "model": {"type": "kclass", "n": 7, "boundaries": [3],
                      "q": {"(1,2)": "0.8"}},
            "chain": "mnn", "experiment": "stationary",
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_matrix_beyond_physical_memory_exit_2(self, tmp_path, capsys,
                                                         monkeypatch):
        # the one-class mpp space has a single state, so only the model's
        # 8 * 2000^2 bytes (31 MiB) meet the 4 MiB probe
        monkeypatch.setattr(model, "_physical_memory", lambda: 2**22)
        cfg = write_config(tmp_path, {
            "model": {"type": "kclass", "n": 2000, "boundaries": [], "q": {}},
            "chain": "mpp", "experiment": "stationary",
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 2
        assert "probability matrix" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


MALFORMED = {
    "seed": {"model": UNIFORM3, "chain": "mnn", "experiment": "stationary",
             "seed": "abc"},
    "budget": {"model": UNIFORM3, "chain": "mnn", "experiment": "stationary",
               "budget": "lots"},
    "tv-tmax": {"model": UNIFORM3, "chain": "mnn", "experiment": "tv",
                "tmax": "ten"},
    "mix-tmax": {"model": UNIFORM3, "chain": "mnn", "experiment": "mix",
                 "epsilon": "0.25", "tmax": [5]},
    "me-n1": {"chain": "me", "bias": "constant:0.75", "n1": "x", "n0": 2,
              "experiment": "balance"},
    "hitting-trials": {"chain": "me", "bias": "constant:0.75", "n1": 2, "n0": 2,
                       "experiment": "hitting", "trials": None},
    "scaling-sizes": {"chain": "mnn", "family": "uniform", "experiment": "scaling",
                      "sizes": ["a", 3, 4]},
    "fill-check-n": {"experiment": "fill-check", "n": "x"},
    "fill-check-count": {"experiment": "fill-check", "count": {}},
    "model-n": {"model": {"type": "kclass", "n": "x", "boundaries": [], "q": {}},
                "chain": "mnn", "experiment": "stationary"},
    "boundaries": {"model": {"type": "kclass", "n": 3, "boundaries": 2, "q": {}},
                   "chain": "mnn", "experiment": "stationary"},
    "entry-no-probability": {"model": {"type": "general", "n": 2, "entries": [[1, 2]]},
                             "chain": "mnn", "experiment": "stationary"},
    "entry-index": {"model": {"type": "general", "n": 2, "entries": [["a", 2, "0.6"]]},
                    "chain": "mnn", "experiment": "stationary"},
    "fix-classes": {"model": KCLASS4, "chain": "mk1", "experiment": "decompose",
                    "fix_classes": [[1]]},
    "fix-classes-label": {"model": KCLASS4, "chain": "mk1", "experiment": "decompose",
                          "fix_classes": [7]},
    "paths-n1": {"model": {"type": "kclass", "n": 1, "boundaries": [], "q": {}},
                 "chain": "mtk", "experiment": "paths"},
    "congestion-n1": {"model": {"type": "kclass", "n": 1, "boundaries": [], "q": {}},
                      "chain": "mtk", "experiment": "congestion"},
    "seed-fraction": {"model": UNIFORM3, "chain": "mnn", "experiment": "stationary",
                      "seed": 2.9},
    "seed-bool": {"model": UNIFORM3, "chain": "mnn", "experiment": "stationary",
                  "seed": True},
    "tmax-fraction": {"model": UNIFORM3, "chain": "mnn", "experiment": "tv",
                      "tmax": 4.5},
    "bias-number": {"chain": "me", "bias": 5, "n1": 2, "n0": 2,
                    "experiment": "hitting", "trials": 3},
    "chain-number": {"model": UNIFORM3, "chain": 5, "experiment": "stationary"},
    "chain-mi-class": {"model": UNIFORM3, "chain": "mi:x", "experiment": "gap"},
    "league-q-list": {"model": {"type": "league", "tree": {
        "node": "A", "children": [1, 2], "q": []}},
        "chain": "mtree", "experiment": "stationary"},
    "weights-w-number": {"model": {"type": "weights", "w": 5},
                         "chain": "mnn", "experiment": "stationary"},
    "me-negative-n1": {"chain": "me", "bias": "constant:0.75", "n1": -1, "n0": 2,
                       "experiment": "balance"},
    "league-q-number": {"model": {"type": "league", "tree": {
        "node": "A", "children": [1, 2], "q": {"(1,2)": 0.7}}},
        "chain": "mtree", "experiment": "stationary"},
    "league-q-null": {"model": {"type": "league", "tree": {
        "node": "A", "children": [1, 2], "q": {"(1,2)": None}}},
        "chain": "mtree", "experiment": "stationary"},
    "mix-tmax-zero": {"model": UNIFORM3, "chain": "mnn", "experiment": "mix",
                      "epsilon": "0.25", "tmax": 0},
    "fill-check-count-zero": {"experiment": "fill-check", "count": 0},
    "fill-check-n-negative": {"experiment": "fill-check", "n": -1},
    "weights-w-infinite": {"model": {"type": "weights", "w": ["Infinity", "1"]},
                           "chain": "mnn", "experiment": "stationary"},
    "league-leaf-bool": {"model": {"type": "league", "tree": {
        "node": "A", "children": [True, 2], "q": {"(1,2)": "0.7"}}},
        "chain": "mtree", "experiment": "stationary"},
    "scaling-sizes-repeated": {"chain": "mnn", "family": "uniform",
                               "experiment": "scaling", "sizes": [3, 3, 3]},
    "scaling-size-twice": {"chain": "mnn", "family": "uniform",
                           "experiment": "scaling", "sizes": [3, 3, 4, 5]},
    "out-number": {"model": UNIFORM3, "chain": "mnn", "experiment": "gap", "out": 5},
    "seed-negative": {"experiment": "fill-check", "n": 3, "count": 2, "seed": -1},
    "epsilon-text": {"model": UNIFORM3, "chain": "mnn", "experiment": "mix",
                     "epsilon": "abc"},
    "epsilon-one": {"model": UNIFORM3, "chain": "mnn", "experiment": "mix",
                    "epsilon": "1"},
    "epsilon-number": {"model": UNIFORM3, "chain": "mnn", "experiment": "mix",
                       "epsilon": 0.25},
    "epsilon-bool": {"model": UNIFORM3, "chain": "mnn", "experiment": "mix",
                     "epsilon": True},
    "bias-constant-text": {"chain": "me", "bias": "constant:abc", "n1": 2, "n0": 2,
                           "experiment": "balance"},
    "bias-constant-one": {"chain": "me", "bias": "constant:1", "n1": 2, "n0": 2,
                          "experiment": "balance"},
    "hitting-trials-zero": {"chain": "me", "bias": "constant:0.75", "n1": 2, "n0": 2,
                            "experiment": "hitting", "trials": 0},
    "hitting-trials-fraction": {"chain": "me", "bias": "constant:0.75", "n1": 2,
                                "n0": 2, "experiment": "hitting", "trials": 2.5},
    "fix-classes-zero": {"model": KCLASS4, "chain": "mk1", "experiment": "decompose",
                         "fix_classes": [0]},
    "chain-mi-zero": {"model": KCLASS4, "chain": "mi:0", "experiment": "gap"},
    "scaling-family-text": {"chain": "mnn", "family": "constant:abc",
                            "experiment": "scaling", "sizes": [3, 4, 5]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_value_exits_1_with_a_message(tmp_path, capsys, monkeypatch, name):
    # in process, a traceback would be an exception escaping cli.run; every
    # malformed value is refused before a chain is built
    def no_build(kernel, space):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(analysis, "build_csr", no_build)
    cfg = write_config(tmp_path, dict({"out": str(tmp_path / "out")}, **MALFORMED[name]))
    assert cli.run(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_out_naming_an_existing_file_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = write_config(tmp_path, {"model": UNIFORM3, "chain": "mnn", "experiment": "gap"})
    assert cli.run(cfg, out_dir=taken) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the outputs to ") and err.count("\n") == 1
    assert taken.read_text() == ""


@pytest.mark.parametrize("experiment,extra", [("hitting", {"trials": 3}),
                                              ("balance", {})], ids=["hitting", "balance"])
def test_square_table_smaller_than_the_words_exits_1(tmp_path, capsys, experiment,
                                                     extra):
    # a 1x1 table once ended in a KeyError from the bias at n1 = n0 = 2
    table = write_config(tmp_path, {"h": 1, "w": 1, "bias": {"(1,1)": "2.0"}},
                         name="table.json")
    cfg = write_config(tmp_path, dict(
        extra, experiment=experiment, chain="me", bias=f"square-dependent:{table}",
        n1=2, n0=2, out=str(tmp_path / "out")))
    assert cli.run(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "does not cover" in err
    assert not (tmp_path / "out").exists()


SRC = Path(cli.__file__).resolve().parents[1]


@pytest.mark.parametrize("n1,n0,trials", [(-1, 5, 3), (5, -2, 3), (2, 2, -3)])
def test_bad_hitting_sizes_exit_1_in_a_subprocess(tmp_path, n1, n0, trials):
    # a subprocess with a timeout: n1 = -1 once looped forever
    cfg = write_config(tmp_path, {
        "experiment": "hitting", "chain": "me", "bias": "word-hash",
        "n1": n1, "n0": n0, "trials": trials, "out": str(tmp_path / "out")})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "biasedperm.cli", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["tv", "mix"])
def test_tmax_beyond_the_horizon_exits_2_without_a_scan(tmp_path, capsys, monkeypatch,
                                                        experiment):
    def no_scan(matrix, pi):
        raise AssertionError("the TV scan ran")

    def no_build(kernel, space):
        raise AssertionError("the chain was built and solved")

    monkeypatch.setattr(analysis, "_tv_iter", no_scan)
    monkeypatch.setattr(analysis, "build_csr", no_build)
    cfg = write_config(tmp_path, {
        "model": UNIFORM3, "chain": "mnn", "experiment": experiment,
        "epsilon": "0.25", "tmax": 10**30, "out": str(tmp_path / "out")})
    assert cli.run(cfg) == 2
    assert "horizon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestPropertyViolation:
    def test_non_reversible_balance_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "chain": "me", "bias": "word-hash", "n1": 2, "n0": 2,
            "experiment": "balance", "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 3
        assert "property violation" in capsys.readouterr().err
        # outputs are still written for inspection
        assert (tmp_path / "out" / "detail.csv").exists()

    def test_congestion_on_an_unresolved_mass_exit_3(self, tmp_path, capsys):
        # the LU clips the smallest stationary masses of this all-singleton
        # set to 0; congestion's load ratio there was 0/0 and ended in a
        # TypeError
        q = {f"({a},{b})": "0.9999" for a in range(1, 5) for b in range(a + 1, 5)}
        cfg = write_config(tmp_path, {
            "model": {"type": "kclass", "n": 4, "boundaries": [1, 2, 3], "q": q},
            "chain": "mtk", "experiment": "congestion", "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 3
        err = capsys.readouterr().err
        assert err.startswith("property violation: stationary mass 0.0 ")
        assert err.count("\n") == 1


class TestExperiments:
    def test_balance_clean(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": KCLASS4, "chain": "mtk", "experiment": "balance",
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 0

    def test_gap_and_mix(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "model": UNIFORM3, "chain": "mnn", "experiment": "gap",
            "out": str(out)})
        assert cli.run(cfg) == 0
        results = read_csv(out / "results.csv")
        assert float(results[1][3]) == pytest.approx(0.25)

        cfg = write_config(tmp_path, {
            "model": UNIFORM3, "chain": "mnn", "experiment": "mix",
            "epsilon": "0.25", "out": str(out)}, name="mix.json")
        assert cli.run(cfg) == 0
        results = read_csv(out / "results.csv")
        assert int(float(results[1][4])) >= 1

    def test_gap_mnn_on_a_default_range_general_set(self, tmp_path):
        # its smallest stationary mass is about 4e-21 of the largest, below
        # the resolution of stationary_exact's LU; the gap takes pi from
        # the edge ratios instead
        prob_set = model.random_monotone_set(7, np.random.default_rng([0, 3]))
        entries = [[i, j, repr(prob_set.prob(i, j))]
                   for i in range(1, 8) for j in range(i + 1, 8)]
        cfg = write_config(tmp_path, {
            "model": {"type": "general", "n": 7, "entries": entries},
            "chain": "mnn", "experiment": "gap", "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 0

    def test_gap_on_the_uniform_n8_set(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "model": {"type": "kclass", "n": 8, "boundaries": [], "q": {}},
            "chain": "mnn", "experiment": "gap", "out": str(out)})
        assert cli.run(cfg) == 0
        states, gap, _ = read_csv(out / "detail.csv")[1]
        assert states == "40320"
        assert float(gap) == pytest.approx((1 - math.cos(math.pi / 8)) / 7, abs=1e-12)

    def test_tv_curve_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "model": UNIFORM3, "chain": "mnn", "experiment": "tv",
            "tmax": 5, "out": str(out)})
        assert cli.run(cfg) == 0
        rows = read_csv(out / "detail.csv")
        assert len(rows) == 7  # header + t = 0..5
        assert float(rows[1][1]) >= float(rows[-1][1])

    def test_decompose(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"type": "kclass", "n": 4, "boundaries": [1, 2],
                      "q": {"(1,2)": "0.7", "(1,3)": "0.8", "(2,3)": "0.75"}},
            "chain": "mk1", "experiment": "decompose", "fix_classes": [1],
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 0
        rows = read_csv(tmp_path / "out" / "detail.csv")
        assert float(dict(zip(rows[0], rows[1]))["slack"]) >= 0

    def test_paths_and_congestion(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "model": KCLASS4, "chain": "mtk", "experiment": "paths",
            "out": str(out)})
        assert cli.run(cfg) == 0
        results = read_csv(out / "results.csv")
        assert int(results[1][6]) <= 16  # max path length <= 4n

        cfg = write_config(tmp_path, {
            "model": KCLASS4, "chain": "mtk", "experiment": "congestion",
            "out": str(out)}, name="cong.json")
        assert cli.run(cfg) == 0
        results = read_csv(out / "results.csv")
        assert float(results[1][5]) > 0  # the constant A

    def test_congestion_on_a_prop3_only_set(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": PROP3_ONLY4, "chain": "mtk", "experiment": "congestion",
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 0

    def test_paths_on_a_prop3_only_set_stay_above_the_endpoint_weight(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": PROP3_ONLY_DIP4, "chain": "mtk", "experiment": "paths",
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 0

    def test_hitting_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "experiment": "hitting", "chain": "me", "bias": "constant:0.75",
            "n1": 2, "n0": 2, "trials": 4, "seed": 3, "out": str(out)})
        assert cli.run(cfg) == 0
        rows = read_csv(out / "detail.csv")
        assert rows[0][0] == "row_type"
        assert rows[-1][0] == "summary"
        assert len(rows) == 6

    def test_fill_check_honours_the_budget(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "fill-check", "n": 6, "count": 1, "budget": 100,
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 2
        assert "720 states exceed the budget of 100" in capsys.readouterr().err

    def test_fill_check_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "fill-check", "n": 3, "count": 5, "seed": 1,
            "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 0
        assert "violations: 0" in capsys.readouterr().out


class TestScaling:
    def test_sweep_and_slope_row(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "experiment": "scaling", "chain": "mnn", "family": "uniform",
            "metric": "relaxation", "sizes": [3, 4, 5], "out": str(out)})
        assert cli.run(cfg) == 0
        rows = read_csv(out / "detail.csv")
        assert rows[-1][0] == "fit"
        assert 2.0 < float(rows[-1][3]) < 4.0
        results = read_csv(out / "results.csv")
        assert len(results) == 4  # header + one row per size

    def test_mix_metric_sweep(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "experiment": "scaling", "chain": "mnn", "family": "uniform",
            "metric": "mix", "sizes": [3, 4, 5], "out": str(out)})
        assert cli.run(cfg) == 0
        taus = [float(row[4]) for row in read_csv(out / "results.csv")[1:]]
        assert len(taus) == 3 and taus[0] < taus[1] < taus[2]

    def test_single_size_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "scaling", "chain": "mnn", "family": "uniform",
            "sizes": [4], "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 1

    @pytest.mark.parametrize("metric", ["relaxation", "mix"])
    def test_one_state_size_rejected(self, tmp_path, capsys, metric):
        cfg = write_config(tmp_path, {
            "experiment": "scaling", "chain": "mnn", "family": "uniform",
            "metric": metric, "sizes": [1, 2, 3], "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 1
        assert "size 1 has a one-state space" in capsys.readouterr().err

    def test_budget_mid_sweep_flushes_partial(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "experiment": "scaling", "chain": "mnn", "family": "uniform",
            "metric": "relaxation", "sizes": [3, 4, 6], "budget": 30,
            "out": str(out)})
        assert cli.run(cfg) == 2
        rows = read_csv(out / "results.csv")
        assert len(rows) == 3  # header + n=3, n=4; n=6 exceeded the budget


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg_dict = {"experiment": "hitting", "chain": "me",
                    "bias": "constant:0.75", "n1": 2, "n0": 2, "trials": 5,
                    "seed": 11}
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, cfg_dict)
        assert cli.run(cfg, out_dir=a) == 0
        assert cli.run(cfg, out_dir=b) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "detail.csv").read_bytes() == (b / "detail.csv").read_bytes()
        ja = json.loads((a / "config_echo.json").read_text())
        jb = json.loads((b / "config_echo.json").read_text())
        ja.pop("timestamp"), jb.pop("timestamp")
        ja["resolved"].pop("out"), jb["resolved"].pop("out")
        assert ja == jb

    def test_echo_preserves_decimal_strings(self, tmp_path):
        cfg_dict = {"model": {"type": "general", "n": 2,
                              "entries": [[1, 2, "0.600"]]},
                    "chain": "mnn", "experiment": "gap"}
        cfg = write_config(tmp_path, cfg_dict)
        assert cli.run(cfg, out_dir=tmp_path / "out") == 0
        echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
        assert echo["config"]["model"]["entries"][0][2] == "0.600"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "hitting", "chain": "me", "bias": "constant:0.75",
            "n1": 1, "n0": 1, "trials": 3, "seed": 1})
        assert cli.run(cfg, out_dir=tmp_path / "o1", seed=77) == 0
        echo = json.loads((tmp_path / "o1" / "config_echo.json").read_text())
        assert echo["resolved"]["seed"] == 77


KCLASS4_3 = {"type": "kclass", "n": 4, "boundaries": [1, 2],
             "q": {"(1,2)": "0.7", "(1,3)": "0.8", "(2,3)": "0.75"}}
LEAGUE4 = {"type": "league", "tree": {
    "node": "A", "children": [{"node": "B", "children": [1, 2], "q": {"(1,2)": "0.7"}},
                              3, 4],
    "q": {"(1,2)": "0.8", "(1,3)": "0.9", "(2,3)": "0.6"}}}
# name -> (config, exit code, sha256 of results.csv, sha256 of detail.csv);
# the digests pin every CSV byte, including the sizes no benchmark runs
GOLDEN = {
    "stationary-mnn": (
        {"model": KCLASS4, "chain": "mnn", "experiment": "stationary"},
        0, "aa7497d45479c40b91b5dbb751dfceae0d0c82fa1db50850e5f7f28b97cd2d52",
        "ab0ca5bccdbbeaf9148a7bb55a18be15581be73c9ed357af171e6a84342a7048"),
    "stationary-mtree": (
        {"model": LEAGUE4, "chain": "mtree", "experiment": "stationary"},
        0, "96aba06f341cc92fa536527f3caed7c02f187b77ffebb027141aa40d612446f0",
        "3d667fd3c48829a89104c1c2af82caaa475a1fa006a0f48eedeb5cb34fd15e45"),
    "stationary-mk1": (
        {"model": KCLASS4_3, "chain": "mk1", "experiment": "stationary"},
        0, "bec72c20a3a58d93ac916d70703ba346172b883f401f61dcd22b1499f62d4422",
        "7190f658efe525cf674255f2f966a792f7c072d78145a4540e7ba8b0dc20f5b9"),
    "balance-mtk": (
        {"model": KCLASS4, "chain": "mtk", "experiment": "balance"},
        0, "704beb666e489775c993ec729e55f4df8fab0af85cc621a37a7cbdde4c957ef9",
        "842f378bbb8762533105dea9e23b65730c0bc4bed054765b80b82879ae570f36"),
    "balance-word-hash": (
        {"chain": "me", "bias": "word-hash", "n1": 2, "n0": 2,
         "experiment": "balance"},
        3, "1dc17290bc09ccf7df0deaab5913a155491355452d9ab68fcfac70855266379b",
        "59366d1419218c7c041dee5bf0ab2aa426414b8b6ccb62e305d015cf8f0e7665"),
    "gap-weights": (
        {"model": {"type": "weights", "w": ["4", "3", "2", "1"]}, "chain": "mnn",
         "experiment": "gap"},
        0, "438b52ff07dd0fa8321dc34fa4c0174af96c680e50197c36e6e4491270804a6f",
        "1c9c2d657ce54a3ab5bf04c6b76a0ab6bdbcc8643cb2c8a6dbb48bd4d013072d"),
    "tv-me": (
        {"chain": "me", "bias": "constant:0.75", "n1": 3, "n0": 3, "experiment": "tv",
         "tmax": 8},
        0, "8bee78d49a50943893a09e8cf9312f5677022baf7a6185cc1beceb22865b90ec",
        "b92ddcc6444b75d9ea12c0713a6d4d8177697caaeff3d7858add3293c446bef2"),
    "mix-mpp": (
        {"model": KCLASS4_3, "chain": "mpp", "experiment": "mix", "epsilon": "0.25"},
        0, "0c4ce3636fbc39cda6607d50e7842d43cd3e285eaec8ca6cf6310cbdc23e1834",
        "faf04e818bb22891bb4973e89a4848b743b35129a2dfc2e80305774062034d75"),
    "decompose-mk1": (
        {"model": KCLASS4_3, "chain": "mk1", "experiment": "decompose",
         "fix_classes": [1]},
        0, "46047007e1d0c3134f10d43303839015e1f6d5b6953f8839ab43c0d3c67dc2d6",
        "2b0a61d53fff04a7930616970ecb34718f444ed09d6fe23d8b105201c6fe88a7"),
    "paths-mtk": (
        {"model": KCLASS4, "chain": "mtk", "experiment": "paths"},
        0, "bd1cf49111e0b3189ff7933a8314b74529fecadbe5e5b08f0a3aab4977b3971d",
        "16e88bc5c034f5db7dd93e20075080e83f4a84fc08bdc4f192235657e41ee90b"),
    "congestion-mtk": (
        {"model": KCLASS4_3, "chain": "mtk", "experiment": "congestion"},
        0, "4ecc136b357a9d2656eb75bcb08c3741cd5082ab906c6771fc967c3739cb4723",
        "cf8ed6b9d0d0145f690f825b096aad87e35663733b61d27557b1776c801052d1"),
    "hitting-me": (
        {"chain": "me", "bias": "constant:0.75", "n1": 2, "n0": 3,
         "experiment": "hitting", "trials": 5, "seed": 3},
        0, "a1f1192b1c2971a30982c772da2e746192a7cf6cf46cd13839e0c10b42cd45a7",
        "d9ae2e5db8a36a49d2aa62e317362117c6c59e26d85e3cf83f99ef689e3cb23c"),
    "scaling-relaxation": (
        {"chain": "mnn", "family": "uniform", "experiment": "scaling",
         "sizes": [3, 4, 5]},
        0, "5cb78ff85f9e8d52eb815ca76b60d558f8f1bb9f3dec9eb6b23b4a27d2d826db",
        "4a66c2920183d1daa19f0716ed6f86aaf02abd322c106c79539f045725441ceb"),
    "scaling-mix-me": (
        {"chain": "me", "family": "constant:0.75", "experiment": "scaling",
         "metric": "mix", "sizes": [2, 4, 6]},
        0, "c972b9ff5bc13d353148f72766e1e6e723171ddc23cff76ddd7f03cfe2cfb68a",
        "3ef360fea7581fa995686642c398b1f602c0d3d0370f196b9207a600079555a8"),
    "scaling-partial": (
        {"chain": "mnn", "family": "uniform", "experiment": "scaling",
         "sizes": [3, 4, 5], "budget": 30},
        2, "48be4922d93b8d939b78828254d5c4a71903a46750e3e71e9e1704384137b4ab",
        "32ef38cbecdc29e8c3de86ac4e13799856d55c2948b5c737e778516e09569220"),
    "fill-check": (
        {"experiment": "fill-check", "n": 3, "count": 4, "seed": 1},
        0, "a5171e00ef78e540acb4f8d79b9233c26eb1dbf1fc577fcdca992446c483a9b4",
        "977a8799a6173cf3cb827693e3c0b26f09c947d4940575085c368d7feaafc40c"),
}
GOLDEN_STDERR = {
    "balance-word-hash": "property violation: detailed balance violated by "
                         "0.0012975794813063005 > 1e-12\n",
    "scaling-partial": "budget exceeded: 120 states exceed the budget of 30\n",
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_bytes_match_the_recorded_digests(tmp_path, capsys, name):
    cfg, code, results_sha, detail_sha = GOLDEN[name]
    assert cli.run_config(cfg, out_dir=tmp_path, quiet=True) == code
    assert capsys.readouterr().err == GOLDEN_STDERR.get(name, "")
    for csv_name, digest in (("results.csv", results_sha), ("detail.csv", detail_sha)):
        assert hashlib.sha256((tmp_path / csv_name).read_bytes()).hexdigest() == digest


class TestMain:
    def test_main_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": UNIFORM3, "chain": "mnn", "experiment": "gap"})
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""
