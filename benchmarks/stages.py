"""Stage timings of the CLI experiments, for one source tree or for two.

    python3 benchmarks/stages.py [--label NAME] [--out FILE] [--against DIR]
                                 [--cases NAME ...]

Each case of CASES (CLI configs, and one library call) runs once per round
and tree in a fresh interpreter that imports that tree's ``src/``: this
script's checkout ("change") and, with ``--against``, a second one
("parent").  Rounds alternate which tree runs first.  The child times each
function of STAGES as the CLI calls it (a stage inside another counts in
both) and records ``<stage>.s``, ``stationary_rest.s`` (``stationary_exact``
less the LU), ``states``, ``row_us`` (``build_csr`` microseconds per
state), ``steps`` and ``steps_per_s`` (hitting), the calls of
``kernels.word_hash_bias`` (counted in shared memory, so the calls made
in the hitting pool's forked workers count too), ``peak_rss_mb``,
``workers_peak_rss_mb`` (the largest peak among the child's own child
processes, the pool's workers), the exit code and the sha256 of
``results.csv`` and ``detail.csv``.  Outputs must agree across rounds
and trees (for BY_GAP, the gap within GAP_TOL); a nonzero exit or a
disagreement goes under "mismatches" and the script exits 1.  Per case,
tree and stage (leaving out those that read 0 in every run) the JSON holds
the values, median, quartiles and spread, (q3 - q1) / median; with two
trees also "wins", the rounds in which the change read lower, and
"resolved" (``_resolved``): the change read on one side of the parent in
at least 9 of 10 rounds (in every round of a case with fewer), and the
medians differ by more than the larger of the two trees' q3 - q1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROUNDS = 10
GAP_TOL = 1e-12
STAGES = ("cli.run_config", "analysis.space_for_kernel", "analysis.build_csr",
          "analysis.stationary_exact", "analysis.is_irreducible",
          "analysis.check_detailed_balance", "analysis.spectral_gap",
          "analysis.collect_canonical_paths", "analysis.congestion",
          "analysis.verify_decomposition", "analysis.tv_curve",
          "analysis.mixing_time_exact", "np.linalg.solve",
          "exclusion.hitting_time_to_top")

Q = {"(1,2)": "0.6", "(1,3)": "0.7", "(2,3)": "0.8"}
KCLASS7 = {"type": "kclass", "n": 7, "boundaries": [2, 4], "q": Q}
TREE7 = {"type": "league", "tree": {"node": "A", "children": [
    {"node": "B", "children": [1, 2, 3], "q": {"(1,2)": "0.6", "(1,3)": "0.8",
                                               "(2,3)": "0.8"}},
    4, {"node": "C", "children": [5, 6], "q": {"(1,2)": "0.9"}}, 7],
    "q": {"(1,2)": "0.6", "(1,3)": "0.7", "(1,4)": "0.8", "(2,3)": "0.8", "(2,4)": "0.8",
          "(3,4)": "0.7"}}}
WORDS9 = {"type": "kclass", "n": 9, "boundaries": [3, 6], "q": Q}
# perfbench's perm-exact k-class set at seed 0
SEED0_7 = {"type": "kclass", "n": 7, "boundaries": [3, 6],
           "q": {"(1,2)": "0.8703632347567889", "(1,3)": "0.9326055269901354",
                 "(2,3)": "0.5734460640597419"}}
KCLASS8 = {"type": "kclass", "n": 8, "boundaries": [3, 6], "q": Q}


def _exact(experiment, chain, model=KCLASS7):
    return {"model": model, "chain": chain, "experiment": experiment}


def _me(experiment, total, bias="constant:0.75", **fields):
    return {"chain": "me", "bias": bias, "n1": total // 2, "n0": total - total // 2,
            "experiment": experiment, **fields}


def _congestion_n8():
    """The one library call: M_tk congestion at n = 8 with the formula pi.
    The CLI takes pi from the dense LU, whose guard refuses 40,320 states,
    until the single pi route of ROADMAP item 2 lands."""
    from biasedperm import analysis, kernels, model

    prob_set, partition, _ = model.model_from_config(KCLASS8)
    mtk = kernels.ClassTranspositionChain(prob_set, partition)
    space = analysis.space_for_kernel(mtk)
    nn = analysis.build_csr(kernels.AdjacentTranspositionChain(prob_set), space)
    family = analysis.collect_canonical_paths(mtk, space)
    pi = analysis.stationary_formula(space, prob_set, partition)
    report = analysis.congestion(nn, family, pi, space)
    return {"A": repr(report.constant), "paths": report.n_paths}


# name -> (CLI config, or the library call, and its rounds)
CASES = {
    **{f"{e}-{c}": (_exact(e, c), ROUNDS) for c in ("mnn", "mtk")
       for e in ("stationary", "balance", "gap")},
    "congestion-mtk": (_exact("congestion", "mtk"), ROUNDS),
    "stationary-mtree": (_exact("stationary", "mtree", TREE7), ROUNDS),
    "decompose-mk1": (_exact("decompose", "mk1", WORDS9), ROUNDS),
    "tv-me-14": (_me("tv", 14, tmax=64), ROUNDS),
    "mix-me-12": (_me("mix", 12, epsilon="0.25", tmax=768), ROUNDS),
    "mix-me-14": (_me("mix", 14, epsilon="0.25", tmax=768), 3),  # ~45 s a run
    "paths-n7": (_exact("paths", "mtk", SEED0_7), ROUNDS),
    "paths-n8": (_exact("paths", "mtk", KCLASS8), ROUNDS),
    "congestion-n7": (_exact("congestion", "mtk", SEED0_7), ROUNDS),
    "congestion-n8": (_congestion_n8, ROUNDS),
    **{f"hitting-{b}@{m}x{m}": (_me("hitting", 2 * m, b, trials=1000, seed=0), ROUNDS)
       for b, m in (("word-hash", 5), ("constant:0.75", 8), ("constant:0.75", 12),
                    ("constant:0.75", 16))},
}
# eigsh starts ARPACK from a random vector, so only the gap is compared
BY_GAP = ("gap-mnn", "gap-mtk")


def _timed(owner, attr, record, key, note=None):
    """Add the seconds of every call of ``owner.attr`` to ``record[key]``;
    ``note`` sees each call's result."""
    original = getattr(owner, attr)
    record[key] = 0.0

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            record[key] += time.perf_counter() - start
        if note is not None:
            note(result)
        return result

    setattr(owner, attr, wrapper)


def _child(name: str, src: str):
    """Run one case in this interpreter and print its record."""
    sys.path.insert(0, src)
    from multiprocessing.sharedctypes import Value

    import numpy as np

    from biasedperm import analysis, cli, exclusion, kernels

    owners = {"cli": cli, "analysis": analysis, "np.linalg": np.linalg,
              "exclusion": exclusion}
    rec = {"states": 0, "steps": 0, "gap": None}
    notes = {"analysis.space_for_kernel": lambda space: rec.update(states=len(space)),
             "analysis.spectral_gap": lambda gap: rec.update(gap=gap),
             "exclusion.hitting_time_to_top":
                 lambda summary: rec.update(steps=sum(summary.trials))}
    for stage in STAGES:
        owner, attr = stage.rsplit(".", 1)
        _timed(owners[owner], attr, rec, f"{stage}.s", notes.get(stage))
    bias = kernels.word_hash_bias
    calls = Value("q", 0)  # forked workers inherit it

    def counted(*args):
        with calls.get_lock():
            calls.value += 1
        return bias(*args)

    kernels.word_hash_bias = counted
    spec, _ = CASES[name]
    with tempfile.TemporaryDirectory() as out:
        if callable(spec):
            rec.update(exit=0, outputs=spec())
        else:
            rec["exit"] = cli.run_config(spec, out_dir=out, quiet=True)
            rec["outputs"] = {f: hashlib.sha256(Path(out, f).read_bytes()).hexdigest()
                              for f in ("results.csv", "detail.csv") if Path(out, f).exists()}
    rec["stationary_rest.s"] = rec["analysis.stationary_exact.s"] - rec["np.linalg.solve.s"]
    build, hit = rec["analysis.build_csr.s"], rec["exclusion.hitting_time_to_top.s"]
    rec["row_us"] = 1e6 * build / rec["states"] if build else 0.0
    rec["steps_per_s"] = rec["steps"] / hit if hit else 0.0
    rec["kernels.word_hash_bias.calls"] = calls.value
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec["workers_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps(rec))


def _disagrees(name, a, b) -> bool:
    if name in BY_GAP:
        return a["gap"] is None or b["gap"] is None or abs(a["gap"] - b["gap"]) > GAP_TOL
    return a["outputs"] != b["outputs"]


def _summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _resolved(change: dict, parent: dict) -> bool:
    """Whether a stage's difference stands out of the noise: the change on
    one side of the parent in nine tenths of the rounds, rounded up, and
    the medians further apart than either tree's quartile distance.  On
    the committed A/A run (both trees the same code) no stage passes."""
    pairs = list(zip(change["values"], parent["values"]))
    need = math.ceil(0.9 * len(pairs))
    one_side = max(sum(c < p for c, p in pairs), sum(c > p for c, p in pairs)) >= need
    spread = max(change["q3"] - change["q1"], parent["q3"] - parent["q1"])
    return one_side and abs(change["median"] - parent["median"]) > spread


def _report(records) -> dict:
    """Per stage and tree: values, median, quartiles; wins and resolved
    when a parent was run."""
    runs = [r for tree_runs in records.values() for r in tree_runs]
    keys = [k for k, v in runs[0].items() if isinstance(v, (int, float))
            and k not in ("exit", "gap") and any(r[k] for r in runs)]
    stages = {}
    for key in keys:
        stage = {tree: _summary([r[key] for r in runs]) for tree, runs in records.items()}
        if "parent" in stage:
            change, parent = stage["change"], stage["parent"]
            stage["wins"] = sum(c < p for c, p in zip(change["values"], parent["values"]))
            stage["resolved"] = _resolved(change, parent)
        stages[key] = stage
    return {"outputs": runs[0]["outputs"], "gap": runs[0]["gap"], "stages": stages}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_stages.json")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="a second checkout to time against this one")
    parser.add_argument("--cases", nargs="+", choices=list(CASES), default=list(CASES))
    parser.add_argument("--one", nargs=2, metavar=("CASE", "SRC"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        _child(*args.one)
        return 0
    trees = {"change": HERE.parent}
    if args.against is not None:
        if not (args.against / "src" / "biasedperm").is_dir():
            parser.error(f"{args.against} has no src/biasedperm")
        trees["parent"] = args.against.resolve()

    load_before = os.getloadavg()
    records = {name: {tree: [] for tree in trees} for name in args.cases}
    first, mismatches = {}, []
    for rnd in range(max(CASES[name][1] for name in args.cases)):
        order = list(trees) if rnd % 2 == 0 else list(reversed(trees))
        for name in args.cases:
            if rnd >= CASES[name][1]:
                continue
            for tree in order:
                proc = subprocess.run([sys.executable, __file__, "--one", name,
                                       str(trees[tree] / "src")],
                                      capture_output=True, text=True)
                where = f"{name} {tree} round {rnd}"
                if proc.returncode != 0:
                    tail = (proc.stderr.strip().splitlines() or [""])[-1]
                    mismatches.append(f"{where}: child exited {proc.returncode}: {tail}")
                    continue
                record = json.loads(proc.stdout.splitlines()[-1])
                if record["exit"] != 0:
                    mismatches.append(f"{where}: exit code {record['exit']}")
                if _disagrees(name, first.setdefault(name, record), record):
                    mismatches.append(f"{where}: outputs differ from the first run")
                records[name][tree].append(record)
                print(f"{where}: cli {record['cli.run_config.s']:.3f} s", file=sys.stderr)

    cases = {}
    for name in args.cases:
        if all(len(runs) > 1 for runs in records[name].values()):
            spec, rounds = CASES[name]
            config = "library call" if callable(spec) else spec
            cases[name] = {"config": config, "rounds": rounds,
                           **_report(records[name])}
        else:
            mismatches.append(f"{name}: too few runs to report")
    result = {"label": args.label, "rounds": ROUNDS, "trees": list(trees),
              "host": {"usable_cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(),
                       "numpy": version("numpy"), "scipy": version("scipy"),
                       "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
              "mismatches": mismatches, "cases": cases}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, case in cases.items():
        for key, stage in case["stages"].items():
            cells = [f"{t} {stage[t]['median']:.4g} ({stage[t]['spread']:.1%})"
                     for t in trees if stage[t]["median"]]
            if cells and "parent" in stage:
                cells.append(f"wins {stage['wins']} resolved {stage['resolved']}")
            if cells:
                print(f"{name:26} {key:36}", *cells)
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"wrote {args.out}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
