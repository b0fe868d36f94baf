"""Stage timings of the exact CLI experiments at n = 7 (5040 states).

    python3 benchmarks/exact.py [--label NAME] [--out FILE]

Runs the CLI experiments ``stationary``, ``balance`` and ``gap`` on the
chains ``mnn`` and ``mtk``, and ``congestion`` (``mtk`` paths over the
``mnn`` matrix), on one fixed 3-class model at n = 7.  Each experiment runs
in a fresh interpreter, three times through ``cli.run_config``; the
package's stage functions are wrapped with ``time.perf_counter`` timers, so
the stages are timed as the CLI calls them, on whatever matrix form it
hands them.  Per experiment it reports, from the repeat with the shortest
``cli_s``:

- ``build_csr_s``, ``build_matrix_s``: the matrix builds (``build_matrix``
  includes the ``build_csr`` it calls);
- ``stationary_exact_s``, split into ``lu_s`` (``np.linalg.solve``) and
  ``stationary_rest_s``; ``is_irreducible_s`` is part of the rest;
- ``check_detailed_balance_s``; ``spectral_gap_s`` (includes the balance
  scan it runs); ``congestion_s``;
- ``cli_s``: the whole ``run_config``;
- ``peak_rss_mb``: the interpreter's peak resident set over the three runs.

Stages an experiment does not reach read 0.  The package is imported from
this checkout's ``src/``.  The usable cores and the load average before and
after are recorded beside the numbers, which are printed and written as
JSON (default ``BENCH_exact.json`` next to this script).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MODEL = {"type": "kclass", "n": 7, "boundaries": [2, 4],
         "q": {"(1,2)": "0.6", "(1,3)": "0.7", "(2,3)": "0.8"}}
PLAN = (("mnn", "stationary"), ("mnn", "balance"), ("mnn", "gap"),
        ("mtk", "stationary"), ("mtk", "balance"), ("mtk", "gap"),
        ("mtk", "congestion"))
REPEATS = 3
STAGES = ("build_csr", "build_matrix", "stationary_exact", "is_irreducible",
          "check_detailed_balance", "spectral_gap", "congestion")


def _timed(owner, attr, totals, key):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - start

    setattr(owner, attr, wrapper)


def _one(chain, experiment):
    """Run one experiment REPEATS times in this interpreter; print its record."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from biasedperm import analysis, cli

    totals = dict.fromkeys(STAGES + ("lu",), 0.0)
    for name in STAGES:
        _timed(analysis, name, totals, name)
    _timed(np.linalg, "solve", totals, "lu")
    cfg = {"model": MODEL, "chain": chain, "experiment": experiment}
    runs = []
    with tempfile.TemporaryDirectory() as out:
        for _ in range(REPEATS):
            for key in totals:
                totals[key] = 0.0
            start = time.perf_counter()
            code = cli.run_config(cfg, out_dir=out, quiet=True)
            cli_s = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"{chain} {experiment} exited {code}")
            runs.append({"cli_s": cli_s, **{f"{k}_s": v for k, v in totals.items()}})
    best = min(runs, key=lambda r: r["cli_s"])
    best["stationary_rest_s"] = best["stationary_exact_s"] - best["lu_s"]
    best["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(best))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_exact.json")
    parser.add_argument("--one", nargs=2, metavar=("CHAIN", "EXPERIMENT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        _one(*args.one)
        return

    import numpy as np
    import scipy

    load_before = os.getloadavg()
    record = {"label": args.label, "model": MODEL, "repeats": REPEATS,
              "host": {"usable_cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(),
                       "numpy": np.__version__, "scipy": scipy.__version__}}
    experiments = {}
    for chain, experiment in PLAN:
        proc = subprocess.run([sys.executable, __file__, "--one", chain, experiment],
                              capture_output=True, text=True, check=True)
        experiments[f"{experiment}-{chain}"] = json.loads(proc.stdout.splitlines()[-1])
    record["experiments"] = experiments
    record["host"]["loadavg_before"] = load_before
    record["host"]["loadavg_after"] = os.getloadavg()
    text = json.dumps(record, indent=1)
    print(text)
    args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
