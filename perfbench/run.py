"""Benchmark of the biasedperm package: one workload per invocation.

    python3 perfbench/run.py --workload tv-scan --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its ``src``.
The workload's experiments run back to back in this one process (a pass),
repeated while another pass fits in ``--seconds``; at least one pass always
runs.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:
``wall_s`` (median pass time, output checks excluded), ``setup_s`` (median
of nine fresh interpreters that import the package and generate the
workload's inputs) and ``peak_rss_mb`` (the process's peak resident set
over set-up and the first pass, before that pass's output checks).  With ``--trace 1`` untraced and
traced passes alternate, and the metrics are the per-layer ones, each the
median over traced passes, plus ``tracing_overhead_s``.

``failed`` counts experiments that exited non-zero or failed an output
check; ``failed / attempted`` is the workload's failed ratio.  Failing
experiments are named on standard error.  ``correct`` is false only when
an output is wrong (see checks.py), not when one was refused or differs
from the reference only in its bytes.  The line before the result holds the run context
(thread counts, versions, L3 size, the route each experiment's size
selects).  Outputs, the result and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tv-scan", "perm-exact", "monte-carlo")
SETUP_REPEATS = 9
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHAINS = ("mnn", "mtk", "mtree", "mk1", "mpp", "me")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, generate the inputs, exit")
    parser.add_argument("--record-reference", action="store_true",
                        help="run repeated passes and store their outputs as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


def prepare_environment() -> int:
    """Pin BLAS threads to the usable cores and put src/ on the path."""
    if not (SRC / "biasedperm" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # read by OpenBLAS when numpy loads it
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(SRC), str(HERE)]
    return nproc


def load_api():
    import biasedperm
    from biasedperm import analysis, cli, exclusion, kernels, model, permcore, treerep

    if Path(biasedperm.__file__).resolve().parent != SRC / "biasedperm":
        raise BenchError(f"imported biasedperm from {biasedperm.__file__}, not {SRC}")
    return types.SimpleNamespace(analysis=analysis, cli=cli, exclusion=exclusion,
                                 kernels=kernels, model=model, permcore=permcore,
                                 treerep=treerep)


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters doing only the set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return statistics.median(times)


@dataclass
class PassResult:
    walls: dict  # experiment name -> seconds
    peak_rss_mb: float  # process peak at the end of the pass, before its checks
    verdicts: list
    outcomes: dict


def run_pass(api, exps, reference, out_root: Path, tracer=None) -> PassResult:
    """Run every experiment once, then check every output.

    Checks run after the last experiment, so neither their time nor their
    memory is charged to the workload.
    """
    import checks
    import workloads

    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    walls, outcomes = {}, {}
    for exp in exps:
        if tracer is not None:
            tracer.install(api)
        start = time.perf_counter()
        try:
            outcomes[exp.name] = exp.run(api, out_root)
        except Exception:  # a crash is a failed experiment, as the CLI's exit 1
            traceback.print_exc()
            outcomes[exp.name] = workloads.Outcome(exit_code=1)
        finally:
            walls[exp.name] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = []
    for exp in exps:
        outcome = outcomes[exp.name]
        exp.collect(outcome, out_root)
        verdicts.append(checks.check(api, exp, outcome, reference.get(exp.name)))
        if tracer is not None:
            _count_outputs(tracer, exp, outcome, out_root)
        outcome.states = []  # trajectories are only needed by the checks
    return PassResult(walls, peak, verdicts, outcomes)


def _count_outputs(tracer, exp, outcome, out_root: Path):
    if exp.cfg is not None:
        written = sum(p.stat().st_size for p in (out_root / exp.name).glob("*")
                      if p.is_file())
        tracer.counters["cli.bytes_written"] += written
    else:
        tracer.counters["kernels.walk.draws"] += len(outcome.states) - 1
        tracer.counters["kernels.walk.distinct"] += len(set(outcome.states[:-1]))


def layer_metrics(tracer) -> dict:
    """Per-layer values of one traced pass; idle layers read 0."""
    calls, c = tracer.calls, tracer.counters

    def total(name):
        return calls[name][1] if name in calls else 0.0

    def self_time(name):
        return calls[name][2] if name in calls else 0.0

    def count(name):
        return calls[name][0] if name in calls else 0

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    steps = c["analysis.tv.steps"]
    tv_s = total("analysis.mixing_time_exact") + total("analysis.tv_curve")
    v = {
        "analysis.mixing_time_exact.s": total("analysis.mixing_time_exact"),
        "analysis.tv.steps": steps,
        "analysis.tv.ms_per_step": ratio(tv_s, steps, 1e3),
        "analysis.tv.mb_per_step": ratio(c["analysis.tv.bytes"], steps, 2.0**-20),
        "analysis.build_matrix.s": total("analysis.build_matrix"),
        "analysis.matrix_mb": c["analysis.matrix_bytes"] / 2**20,
        "analysis.states": c["analysis.states"],
        "analysis.nnz": c["analysis.nnz"],
        "analysis.stationary_exact.s": total("analysis.stationary_exact"),
        "analysis.stationary_residual": c["analysis.stationary_residual"],
        "analysis.spectral_gap.s": self_time("analysis.spectral_gap"),
        "analysis.check_detailed_balance.s": total("analysis.check_detailed_balance"),
        "analysis.verify_decomposition.s": total("analysis.verify_decomposition"),
        "analysis.stationary_formula.s": self_time("analysis.stationary_formula"),
        "analysis.enumerate_states.s": total("analysis.enumerate_states"),
        "analysis.collect_canonical_paths.s": total("analysis.collect_canonical_paths"),
        "analysis.paths": c["analysis.paths"],
        "analysis.congestion.s": total("analysis.congestion"),
        "permcore.log_weight.calls": count("permcore.log_weight"),
        "permcore.log_weight.s": total("permcore.log_weight"),
        "kernels.rows": sum(count(k) for k in calls
                            if k.startswith("kernels.transitions.")),
        "model.validate_kclass.calls": count("model.validate_kclass"),
        "model.model_from_config.s": total("model.model_from_config"),
        "treerep.lca.calls": count("treerep.lca"),
        "treerep.s": sum(entry[2] for k, entry in calls.items()
                         if k.startswith("treerep.")),
        "kernels.sample_step.calls": count("kernels.sample_step"),
        "kernels.sample_step.us": ratio(total("kernels.sample_step"),
                                        count("kernels.sample_step"), 1e6),
        "kernels.row_cache.hit_ratio": (
            1.0 - ratio(c["kernels.walk.distinct"], c["kernels.walk.draws"])
            if c["kernels.walk.draws"] else 0.0),
        "exclusion.hit.steps": c["exclusion.hit.steps"],
        "exclusion.hit_const.steps_per_s": ratio(c["exclusion.hit_const.steps"],
                                                 c["exclusion.hit_const.s"]),
        "exclusion.hit_callback.steps_per_s": ratio(c["exclusion.hit_callback.steps"],
                                                    c["exclusion.hit_callback.s"]),
        "cli.run_config.s": total("cli.run_config"),
        "cli.self_s": self_time("cli.run_config"),
        "cli.bytes_written": c["cli.bytes_written"],
    }
    for chain in CHAINS:
        name = "kernels.transitions." + chain
        v["kernels.row_us." + chain] = ratio(total(name), count(name), 1e6)
    return v


def run_context(api, args, nproc, exps, passes) -> dict:
    import inspect

    import checks
    import numpy
    import scipy
    import workloads
    from tracer import TV_DENSE_MAX

    cutoff = inspect.signature(api.analysis.spectral_gap).parameters["dense_cutoff"].default
    routes = {}
    for exp in exps:
        states = workloads.state_count(api, exp)
        if states is None:
            continue
        kind = exp.cfg["experiment"]
        route = {"states": states}
        if kind in ("gap", "decompose"):
            route["gap"] = "dense" if states <= cutoff else "eigsh"
        if kind in ("mix", "tv"):
            route["tv_operator"] = "dense" if states <= TV_DENSE_MAX else "csr"
        routes[exp.name] = route
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "inputs": workloads.config_digest(exps),
        "nproc": nproc, "blas_threads": blas_threads(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "l3_bytes": l3_bytes(),
        "routes": routes,
        "unpinned_digests": checks.unpinned(args.workload, args.seed),
        "route_rules": {"gap": f"dense up to {cutoff} states, eigsh above "
                               "(spectral_gap's dense_cutoff)",
                        "tv_operator": f"dense up to {TV_DENSE_MAX} states, CSR above"},
        "tv_mb_per_step_basis": "computed from array sizes, not measured: "
                                "3 n^2 doubles plus the operator per step",
    }


def blas_threads() -> dict:
    """Thread count each OpenBLAS loaded by numpy and scipy reports."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    out[pkg.__name__] = int(getattr(handle, symbol)())
                    break
    if not out:
        out["env"] = int(os.environ[BLAS_VARS[0]])
    return out


def l3_bytes():
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 2**10, "M": 2**20}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def benchmark(args) -> dict:
    nproc = prepare_environment()
    api = load_api()
    import checks
    import workloads
    from tracer import Tracer

    exps = workloads.experiments(args.workload, args.seed)
    workloads.prepare(api, exps)
    if args.setup_only:
        return {}
    out_root = OUT / args.workload
    if args.record_reference:
        passes = [run_pass(api, exps, {}, out_root / "run").outcomes
                  for _ in range(checks.RECORD_PASSES)]
        checks.save_reference(args.workload, args.seed, passes)
        return {"recorded": list(passes[0]),
                "unpinned": checks.unpinned(args.workload, args.seed)}

    reference = checks.load_reference(args.workload, args.seed)
    setup_s = measure_setup(args)
    schedule = (None, "traced") if args.trace else (None,)
    walls = {None: [], "traced": []}
    verdicts, per_layer, tracers, experiment_walls, peaks = [], [], [], [], []
    start = time.perf_counter()
    while True:
        # alternate which side goes first, so neither always pays the warm-up
        schedule = schedule[::-1]
        for mode in schedule:
            tracer = Tracer() if mode else None
            result = run_pass(api, exps, reference, out_root / "run", tracer)
            walls[mode].append(sum(result.walls.values()))
            experiment_walls.append({"traced": bool(mode), **result.walls})
            peaks.append(result.peak_rss_mb)
            verdicts += result.verdicts
            if tracer is not None:
                per_layer.append(layer_metrics(tracer))
                tracers.append(tracer)
        rounds = len(walls[None])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break

    if args.trace:
        metrics = {k: statistics.median(p[k] for p in per_layer) for k in per_layer[0]}
        metrics["tracing_overhead_s"] = (statistics.median(walls["traced"])
                                         - statistics.median(walls[None]))
    else:
        metrics = {"wall_s": statistics.median(walls[None]), "setup_s": setup_s,
                   "peak_rss_mb": peaks[0]}
    context = run_context(api, args, nproc, exps, rounds)
    _write_artifacts(out_root, context, walls, experiment_walls, verdicts, tracers)
    for v in verdicts:
        if v.failed:
            print(f"FAILED {args.workload}/{v.name}: exit {v.exit_code}"
                  + "".join(f"; {p}" for p in v.problems + v.unreproduced),
                  file=sys.stderr)
    print(json.dumps({"context": context}))
    return {
        "correct": not any(v.problems for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": _with_units(metrics, args.trace),
    }


def _with_units(values: dict, trace: int) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(values):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} are not both "
                         "measured and declared in BENCHMARK.json")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def _write_artifacts(out_root, context, walls, experiment_walls, verdicts, tracers):
    record = {"context": context, "pass_walls": walls[None],
              "traced_pass_walls": walls["traced"], "experiment_walls": experiment_walls,
              "failed": [{"name": v.name, "exit_code": v.exit_code, "problems": v.problems,
                          "unreproduced": v.unreproduced}
                         for v in verdicts if v.failed]}
    (out_root / "result.json").write_text(json.dumps(record, indent=1))
    if tracers:
        spans = [{"pass": i, **s} for i, t in enumerate(tracers) for s in t.spans]
        calls = [{name: {"calls": n, "s": tot, "self_s": own}
                  for name, (n, tot, own) in t.calls.items()} for t in tracers]
        (out_root / "spans.json").write_text(json.dumps({"spans": spans,
                                                         "calls": calls}))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = benchmark(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
