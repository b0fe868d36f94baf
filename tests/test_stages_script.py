"""benchmarks/stages.py: its CLI cases are valid configs and a child run
records every stage, so a renamed stage or CLI field fails here rather
than silently changing what the script times."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biasedperm import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "stages.py"
_spec = importlib.util.spec_from_file_location("stages", SCRIPT)
stages = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stages)


@pytest.mark.parametrize("name", [name for name, (spec, _) in stages.CASES.items()
                                  if not callable(spec)])
def test_every_cli_case_passes_load_config(tmp_path, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(stages.CASES[name][0]))
    cfg = cli.load_config(path)
    assert cfg == stages.CASES[name][0]
    cli._check_config(cfg)  # the fields run_config accepts


def test_a_child_run_records_every_stage_and_both_digests():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--one",
                           "hitting-constant:0.75@8x8", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["exit"] == 0
    assert sorted(record["outputs"]) == ["detail.csv", "results.csv"]
    assert all(len(digest) == 64 for digest in record["outputs"].values())
    for stage in stages.STAGES:
        assert f"{stage}.s" in record
    assert record["exclusion.hitting_time_to_top.s"] > 0
    assert record["steps"] > 0 and record["kernels.word_hash_bias.calls"] == 0
    assert record["peak_rss_mb"] > 0


def test_a_child_run_counts_the_bias_calls_of_the_pool_workers():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--one",
                           "hitting-word-hash@5x5", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["exit"] == 0 and record["kernels.word_hash_bias.calls"] > 0
    if len(os.sched_getaffinity(0)) > 1:
        assert record["workers_peak_rss_mb"] > 0  # the pool's workers


def test_no_stage_of_the_committed_a_a_run_reads_resolved():
    """Both trees of BENCH_stages.json ran the same code, so no stage may
    pass the rule; a separated pair of samples must."""
    run = json.loads((ROOT / "benchmarks" / "BENCH_stages.json").read_text())
    assert run["trees"] == ["change", "parent"]
    stages_seen = [stage for case in run["cases"].values()
                   for stage in case["stages"].values()]
    assert len(stages_seen) == 174
    assert not any(stages._resolved(s["change"], s["parent"]) for s in stages_seen)
    low = stages._summary([1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0])
    high = stages._summary([v + 1.0 for v in low["values"]])
    assert stages._resolved(low, high) and stages._resolved(high, low)
    assert not stages._resolved(low, low)
