import csv
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
        monkeypatch.setattr(analysis, "_physical_memory", lambda: 2**28)
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
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_value_exits_1_with_a_message(tmp_path, capsys, name):
    # in process, a traceback would be an exception escaping cli.run
    cfg = write_config(tmp_path, dict(MALFORMED[name], out=str(tmp_path / "out")))
    assert cli.run(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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


class TestMain:
    def test_main_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": UNIFORM3, "chain": "mnn", "experiment": "gap"})
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""
