"""Canonical-path family and congestion of M_tk at n = 7 and n = 8.

    python3 benchmarks/paths.py [--label NAME] [--out FILE]

Times ``collect_canonical_paths`` and ``congestion`` on two 3-class sets:

- ``n7``: perfbench's perm-exact k-class set at seed 0 (5040 states), with
  pi from ``stationary_exact`` (the dense LU), as the CLI's ``congestion``
  experiment takes it;
- ``n8``: boundaries [3, 6], q 0.6/0.7/0.8 (40,320 states), with pi from
  ``stationary_formula``, since the LU refuses 40,320 states.

Each set runs in a fresh interpreter, which builds the space, the M_nn CSR
and pi once, then calls the two stages ``REPEATS`` times, timed with
``time.perf_counter``.  Per set it reports the path count, the shortest
``collect_s`` and ``congestion_s``, ``collect_peak_rss_mb`` (the
interpreter's peak resident set once the first family is built, before pi)
and ``peak_rss_mb`` (at the end), and ``A``, the congestion constant as
``repr``, which must not change between versions.  The package is imported
from this checkout's ``src/``.  The usable cores and the load average
before and after are recorded beside the numbers, which are printed and
written as JSON (default ``BENCH_paths.json`` next to this script).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MODELS = {
    "n7": {"type": "kclass", "n": 7, "boundaries": [3, 6],
           "q": {"(1,2)": "0.8703632347567889", "(1,3)": "0.9326055269901354",
                 "(2,3)": "0.5734460640597419"}},
    "n8": {"type": "kclass", "n": 8, "boundaries": [3, 6],
           "q": {"(1,2)": "0.6", "(1,3)": "0.7", "(2,3)": "0.8"}},
}
REPEATS = 3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _one(name):
    """Run one set in this interpreter; print its record."""
    sys.path.insert(0, str(SRC))
    from biasedperm import analysis, kernels, model

    prob_set, partition, _ = model.model_from_config(MODELS[name])
    mtk = kernels.ClassTranspositionChain(prob_set, partition)
    space = analysis.space_for_kernel(mtk)
    nn = analysis.build_csr(kernels.AdjacentTranspositionChain(prob_set), space)
    collect_s, congestion_s = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        family = analysis.collect_canonical_paths(mtk, space)
        collect_s.append(time.perf_counter() - start)
        if len(collect_s) == 1:
            collect_peak = _peak_rss_mb()
            pi = (analysis.stationary_exact(nn) if name == "n7"
                  else analysis.stationary_formula(space, prob_set, partition))
        start = time.perf_counter()
        report = analysis.congestion(nn, family, pi, space)
        congestion_s.append(time.perf_counter() - start)
        del family
    print(json.dumps({"states": len(space), "paths": report.n_paths,
                      "collect_s": min(collect_s), "congestion_s": min(congestion_s),
                      "collect_peak_rss_mb": collect_peak, "peak_rss_mb": _peak_rss_mb(),
                      "A": repr(report.constant)}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_paths.json")
    parser.add_argument("--one", choices=sorted(MODELS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        _one(args.one)
        return

    import numpy as np
    import scipy

    load_before = os.getloadavg()
    record = {"label": args.label, "models": MODELS, "repeats": REPEATS,
              "host": {"usable_cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(),
                       "numpy": np.__version__, "scipy": scipy.__version__}}
    sets = {}
    for name in MODELS:
        proc = subprocess.run([sys.executable, __file__, "--one", name],
                              capture_output=True, text=True, check=True)
        sets[name] = json.loads(proc.stdout.splitlines()[-1])
    record["sets"] = sets
    record["host"]["loadavg_before"] = load_before
    record["host"]["loadavg_after"] = os.getloadavg()
    text = json.dumps(record, indent=1)
    print(text)
    args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
