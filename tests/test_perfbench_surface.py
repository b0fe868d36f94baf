"""The package names the benchmark under ``perfbench/`` looks up.

``perfbench/tracer.py`` patches public calls by module attribute and
``perfbench/run.py`` reads ``spectral_gap``'s ``dense_cutoff`` default.  The
benchmark files are kept fixed between benchmark revisions, so a deleted or
renamed name has to fail here, in the unit tests, rather than in a
benchmark run.  The tracer is imported from its file as it is.
"""

import importlib.util
import inspect
import types
from pathlib import Path

from biasedperm import analysis, cli, exclusion, kernels, model, permcore, treerep

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

API = types.SimpleNamespace(analysis=analysis, cli=cli, exclusion=exclusion,
                            kernels=kernels, model=model, permcore=permcore,
                            treerep=treerep)

CONFIGS = {
    "paths": {"model": {"type": "kclass", "n": 4, "boundaries": [2], "q": {"(1,2)": "0.8"}},
              "chain": "mtk", "experiment": "paths"},
    "mix": {"chain": "me", "bias": "constant:0.75", "n1": 2, "n0": 2,
            "experiment": "mix", "epsilon": "0.25"},
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(tmp_path):
    tracer = _tracer_module().Tracer()
    originals = (cli.run_config, analysis.build_matrix, analysis._tv_iter,
                 analysis.validate_kclass, kernels.ClassTranspositionChain.transitions)
    tracer.install(API)
    try:
        for name, cfg in CONFIGS.items():
            # the keywords perfbench/workloads.py passes
            code = cli.run_config(cfg, out_dir=tmp_path / name, seed=0, quiet=True)
            assert code == 0
    finally:
        tracer.uninstall()
    assert (cli.run_config, analysis.build_matrix, analysis._tv_iter,
            analysis.validate_kclass, kernels.ClassTranspositionChain.transitions) == originals
    assert tracer.calls["cli.run_config"][0] == len(CONFIGS)
    assert tracer.calls["analysis.collect_canonical_paths"][0] == 1
    # space_for_kernel enumerates through the traced module attribute
    assert tracer.calls["analysis.enumerate_states"][0] >= len(CONFIGS)
    assert tracer.counters["analysis.paths"] > 0
    assert tracer.calls["kernels.transitions.me"][0] == 6  # one row per word
    assert tracer.counters["analysis.tv.steps"] > 0


def test_a_traced_tv_scan_above_the_tracers_dense_size(tmp_path):
    # 462 states, above the tracer's TV_DENSE_MAX of 256, where _count_tv sizes
    # the scanned operator with np.count_nonzero: the CLI must hand the scan
    # an operator that call accepts
    tracer_module = _tracer_module()
    assert tracer_module.TV_DENSE_MAX < 462
    tracer = tracer_module.Tracer()
    cfg = {"chain": "me", "bias": "constant:0.75", "n1": 5, "n0": 6,
           "experiment": "tv", "tmax": 2}
    tracer.install(API)
    try:
        code = cli.run_config(cfg, out_dir=tmp_path, seed=0, quiet=True)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counters["analysis.tv.steps"] == 3
    assert tracer.counters["analysis.tv.bytes"] > 3 * 3 * 462 * 462 * 8


def test_dense_cutoff_default_reads_as_run_context_reads_it():
    cutoff = inspect.signature(analysis.spectral_gap).parameters["dense_cutoff"].default
    assert isinstance(cutoff, int) and cutoff > 0
