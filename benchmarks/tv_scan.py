"""Stage timings of the exact worst-start TV scan on constant-bias exclusion.

    python3 benchmarks/tv_scan.py [--label NAME] [--out FILE]

The chain is criterion 6b's: bias 0.75, n1 = total // 2.  At totals 12 and
14 (924 and 3432 states) it times, with ``time.perf_counter``:

- ``row_us``: the kernel's ``transitions`` over every state, per row;
- ``build_s``: ``build_csr``, as the CLI builds it;
- ``stationary_s``: ``stationary_exact`` on the CSR matrix;
- ``tv64_s``: a 64-step ``tv_curve`` on the dense matrix (``toarray()``,
  untimed), which is what ``cli._exp_tv`` and ``cli._exp_mix`` hand the
  scan.

Each of these is the best of three runs.  Before them it records
``tv64_peak_rss_mb``, the lowest of three peak resident sets
(``ru_maxrss``) of a fresh interpreter that builds the total-14 chain as
CSR, solves pi and runs the 64-step curve on the dense matrix, as the CLI
does; it runs first because on Linux a child's ``ru_maxrss`` starts from
the spawning process's resident set.  Then it times, best of three, the
768-step scan at total 12 (``mixing_time_exact`` on the dense matrix, eps
1/4, tmax 768: the perfbench tv-scan workload's ``mix-me-12``), which must
give tau = 379.  Last it times the full total-14 worst-start scan once (the
same call at total 14), which must give tau = 550.
The package is imported from this checkout's ``src/``.  The usable cores
and the load average before and after are recorded beside the numbers,
which are printed and written as JSON (default ``BENCH_tv_scan.json`` next
to this script).
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
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from biasedperm import analysis  # noqa: E402
from biasedperm.kernels import GeneralizedExclusionChain, constant_bias  # noqa: E402

TOTALS = (12, 14)
CURVE_STEPS = 64
REPEATS = 3
FULL_TOTAL, FULL_TMAX, FULL_TAU, EPS = 14, 768, 550, 0.25
SCAN_TOTAL, SCAN_TAU = 12, 379


def _kernel(total):
    return GeneralizedExclusionChain(constant_bias(0.75), total // 2, total - total // 2)


def _best(fn):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _stages(total):
    kernel = _kernel(total)
    space = analysis.space_for_kernel(kernel)
    rows_s, _ = _best(lambda: [kernel.transitions(s) for s in space.states])
    build_s, matrix = _best(lambda: analysis.build_csr(kernel, space))
    stationary_s, pi = _best(lambda: analysis.stationary_exact(matrix))
    dense = matrix.toarray()
    tv_s, curve = _best(lambda: analysis.tv_curve(dense, pi, CURVE_STEPS))
    return {"states": len(space), "row_us": 1e6 * rows_s / len(space),
            "build_s": build_s, "stationary_s": stationary_s,
            f"tv{CURVE_STEPS}_s": tv_s, f"tv{CURVE_STEPS}_last": float(curve[-1])}


def _curve_peak():
    """Print this interpreter's peak RSS after the total-14 curve, in KiB."""
    kernel = _kernel(FULL_TOTAL)
    matrix = analysis.build_csr(kernel, analysis.space_for_kernel(kernel))
    pi = analysis.stationary_exact(matrix)
    analysis.tv_curve(matrix.toarray(), pi, CURVE_STEPS)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _curve_rss_mb():
    peaks = []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, __file__, "--curve-peak"],
                              capture_output=True, text=True, check=True)
        peaks.append(int(proc.stdout.splitlines()[-1]) / 1024)
    return min(peaks)


def _scan(total, expected, repeats):
    """The worst-start scan to FULL_TMAX at ``total``, best of ``repeats``."""
    kernel = _kernel(total)
    matrix = analysis.build_csr(kernel, analysis.space_for_kernel(kernel))
    pi = analysis.stationary_exact(matrix)
    dense = matrix.toarray()
    seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        tau = analysis.mixing_time_exact(dense, pi, EPS, tmax=FULL_TMAX)
        seconds = min(seconds, time.perf_counter() - start)
        if tau != expected:
            raise SystemExit(f"total-{total} scan gave tau = {tau}, expected {expected}")
    return {"total": total, "tmax": FULL_TMAX, "eps": EPS, "tau": tau, "s": seconds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_tv_scan.json")
    parser.add_argument("--curve-peak", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.curve_peak:
        _curve_peak()
        return

    load_before = os.getloadavg()
    record = {"label": args.label,
              "host": {"usable_cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(),
                       "numpy": np.__version__, "scipy": scipy.__version__}}
    record[f"tv{CURVE_STEPS}_peak_rss_mb"] = _curve_rss_mb()
    record["totals"] = {str(total): _stages(total) for total in TOTALS}
    record[f"scan{SCAN_TOTAL}"] = _scan(SCAN_TOTAL, SCAN_TAU, REPEATS)
    record["full_scan"] = _scan(FULL_TOTAL, FULL_TAU, 1)
    record["host"]["loadavg_before"] = load_before
    record["host"]["loadavg_after"] = os.getloadavg()
    text = json.dumps(record, indent=1)
    print(text)
    args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
