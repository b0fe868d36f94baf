"""Tests of the benchmark itself: its checks catch wrong output, and the
metrics it prints are the ones BENCHMARK.json declares.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_environment()
API = run.load_api()

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tv_experiment(total):
    return next(e for e in workloads.experiments("tv-scan", 0)
                if e.name == f"mix-me-{total}")


def _run_and_check(exp, reference, out_root, tamper=None):
    outcome = exp.run(API, out_root)
    if tamper is not None:
        tamper(out_root / exp.name)
    exp.collect(outcome, out_root)
    return checks.check(API, exp, outcome, reference)


@pytest.fixture(scope="module")
def tv_reference():
    return checks.load_reference("tv-scan", 12345)


def test_recorded_reference_passes(tmp_path, tv_reference):
    exp = _tv_experiment(6)
    verdict = _run_and_check(exp, tv_reference[exp.name], tmp_path)
    assert not verdict.failed, verdict.problems


def test_wrong_tau_counts_as_failed(tmp_path, tv_reference):
    exp = _tv_experiment(6)
    ref = copy.deepcopy(tv_reference[exp.name])
    assert ref["values"]["tau"] == 57
    ref["values"]["tau"] = 56
    verdict = _run_and_check(exp, ref, tmp_path)
    assert verdict.failed
    assert any("tau" in p for p in verdict.problems)


def test_changed_csv_byte_counts_as_failed(tmp_path, tv_reference):
    exp = _tv_experiment(6)

    def flip_last_byte(out_dir):
        path = out_dir / "detail.csv"
        data = bytearray(path.read_bytes())
        data[-2] = ord("8") if data[-2] != ord("8") else ord("9")
        path.write_bytes(bytes(data))

    verdict = _run_and_check(exp, tv_reference[exp.name], tmp_path, flip_last_byte)
    assert verdict.failed
    assert any("detail.csv" in p for p in verdict.unreproduced)


def test_non_zero_exit_counts_as_failed_but_not_incorrect(tmp_path):
    exp = workloads.Experiment("mix-me-bad", cfg={
        "chain": "me", "bias": "constant:0.75", "n1": 3, "n0": 3,
        "experiment": "mix", "epsilon": "0.25", "tmax": 2})  # horizon too short
    verdict = _run_and_check(exp, None, tmp_path)
    assert verdict.exit_code == 2 and verdict.failed and not verdict.problems


def test_pinned_numbers_allow_only_the_stated_tolerance():
    assert checks._against_values({"gap": 0.5 + 5e-13}, {"gap": 0.5}) == []
    assert checks._against_values({"gap": 0.5 + 5e-12}, {"gap": 0.5})
    assert checks._against_values({"A": 3e4 * (1 + 5e-13)}, {"A": 3e4}) == []


def test_tampered_trajectory_counts_as_failed():
    exp = next(e for e in workloads.experiments("monte-carlo", 0) if e.name == "walk-me")
    exp.walk = dict(exp.walk, draws=2000)
    outcome = exp.run(API, Path("."))
    assert not checks.check(API, exp, outcome, None).failed
    outcome.states[1000] = outcome.states[1000][::-1]
    assert checks.check(API, exp, outcome, None).failed


def test_reference_pins_only_reproduced_digests(tmp_path):
    path = tmp_path / "reference.json"

    def outcome(digest):
        return workloads.Outcome(files={"results.csv": "same", "detail.csv": digest},
                                 values={"gap": 0.5})

    checks.save_reference("perm-exact", 0, [{"gap-x": outcome("a")},
                                            {"gap-x": outcome("b")}], path)
    entry = checks.load_reference("perm-exact", 0, path)["gap-x"]
    assert entry["files"] == {"results.csv": "same"}
    assert entry["unpinned"] == ["detail.csv"] and entry["values"] == {"gap": 0.5}


def test_perm_exact_default_seed_has_no_failed_experiment(tmp_path):
    exps = workloads.experiments("perm-exact", 0)
    reference = checks.load_reference("perm-exact", 0)
    result = run.run_pass(API, exps, reference, tmp_path)
    failed = [(v.name, v.exit_code, v.problems + v.unreproduced)
              for v in result.verdicts if v.failed]
    assert failed == []


@pytest.mark.xfail(strict=True, reason="defect of the package: with its default "
                   "[0.5, 0.99] general set, LU loses stationary masses below its "
                   "resolution and gap on mnn exits 3 (about half the seeds)")
def test_gap_mnn_on_default_range_general_set(tmp_path):
    model = workloads.general_model(7, np.random.default_rng([0, 3]))
    code = API.cli.run_config({"model": model, "chain": "mnn", "experiment": "gap"},
                              out_dir=tmp_path, quiet=True)
    assert code == 0


@pytest.mark.xfail(strict=True, reason="defect of the package: the eigsh route's gap "
                   "varies in its last digits from call to call")
def test_eigsh_gap_csv_is_byte_reproducible(tmp_path):
    exp = next(e for e in workloads.experiments("perm-exact", 0) if e.name == "gap-mtk")
    texts = set()
    for i in range(3):
        exp.run(API, tmp_path / str(i))
        texts.add((tmp_path / str(i) / exp.name / "detail.csv").read_bytes())
    assert len(texts) == 1


def test_inputs_follow_the_seed():
    def cfgs(seed):
        return [(e.cfg, e.walk) for e in workloads.experiments("perm-exact", seed)]

    assert cfgs(3) == cfgs(3)
    assert cfgs(3) != cfgs(4)
    assert ([e.cfg for e in workloads.experiments("tv-scan", 3)]
            == [e.cfg for e in workloads.experiments("tv-scan", 4)])


def test_layer_metric_names_match_declared():
    names = set(run.layer_metrics(Tracer())) | {"tracing_overhead_s"}
    assert names == {m["name"] for m in DECLARED["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_declared(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "monte-carlo",
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}


def test_without_the_package_exits_non_zero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tv-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
