import csv
import json

import pytest

from biasedperm import analysis, cli

from conftest import EXAMPLE_TREE

UNIFORM3 = {"type": "kclass", "n": 3, "boundaries": [], "q": {}}
KCLASS4 = {"type": "kclass", "n": 4, "boundaries": [2],
           "q": {"(1,2)": "0.8"}}


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

    def test_single_size_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "scaling", "chain": "mnn", "family": "uniform",
            "sizes": [4], "out": str(tmp_path / "out")})
        assert cli.run(cfg) == 1

    def test_budget_mid_sweep_flushes_partial(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "experiment": "scaling", "chain": "mnn", "family": "uniform",
            "metric": "relaxation", "sizes": [3, 4, 6], "budget": 30,
            "out": str(out)})
        assert cli.run(cfg) == 2
        rows = read_csv(out / "results.csv")
        assert len(rows) == 3  # header + n=3, n=4; n=6 exceeded the budget

    def test_sweep_helper_overrides_sizes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "experiment": "scaling", "chain": "mnn", "family": "uniform",
            "metric": "relaxation", "sizes": [3], "out": str(out)})
        assert cli.sweep(cfg, sizes=[3, 4, 5]) == 0


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
