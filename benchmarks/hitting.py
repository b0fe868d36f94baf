"""Timings of seeded hitting-time runs: a bias callback and the constant fast path.

    python3 benchmarks/hitting.py [--label NAME] [--out FILE]

Runs ``exclusion.hitting_time_to_top`` for the ``word-hash`` callback bias
at (n1, n0) = (5, 5) and for ``constant:0.75`` at n1 = n0 = 8, 12 and 16,
1000 trials each at root seed 0, the sizes and bias of the monte-carlo
workload's hitting experiments.  Each case runs in a fresh interpreter,
REPEATS timed calls and then one call with a counting wrapper around the
bias.  Per case it reports:

- ``seconds``: the shortest timed call (``time.perf_counter``);
- ``steps`` (summed over the trials) and ``steps_per_s``;
- ``trials_sha256``: a digest of the trial step counts, equal across
  versions when the trials are bit-identical;
- ``callback_calls`` and ``distinct_pairs``: bias evaluations and distinct
  (word, site) pairs evaluated in the counting call (0 on the constant
  fast path, which never calls the bias);
- ``memo_entries``: entries the per-call memo holds at the end,
  ``min(callback_calls, exclusion._HIT_MEMO_MAX)``, or null where the
  package has no memo;
- ``peak_rss_mb``: the interpreter's peak resident set over the timed
  calls.

The package is imported from this checkout's ``src/``.  The usable cores
and the load average before and after are recorded beside the numbers,
which are printed and written as JSON (default ``BENCH_hitting.json`` next
to this script).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
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

CASES = (("word-hash", 5), ("constant:0.75", 8), ("constant:0.75", 12),
         ("constant:0.75", 16))
TRIALS = 1000
SEED = 0
REPEATS = 3


def _one(spec, m):
    """Time one case REPEATS times in this interpreter; print its record."""
    sys.path.insert(0, str(SRC))
    from biasedperm import exclusion, kernels

    bias = kernels.make_bias(spec)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        summary = exclusion.hitting_time_to_top(bias, m, m, TRIALS, SEED)
        times.append(time.perf_counter() - start)
    # before the counting call, whose list of calls would set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calls = []

    @functools.wraps(bias)  # copies constant_p, so the fast path still applies
    def counted(word, i):
        calls.append((word, i))
        return bias(word, i)

    counted_trials = exclusion.hitting_time_to_top(counted, m, m, TRIALS, SEED).trials
    if counted_trials != summary.trials:
        raise SystemExit(f"{spec} at {m}: the counting run changed the trials")
    cap = getattr(exclusion, "_HIT_MEMO_MAX", None)
    steps = sum(summary.trials)
    seconds = min(times)
    record = {
        "seconds": seconds,
        "steps": steps,
        "steps_per_s": steps / seconds,
        "trials_sha256": hashlib.sha256(repr(summary.trials).encode()).hexdigest(),
        "callback_calls": len(calls),
        "distinct_pairs": len(set(calls)),
        "memo_entries": None if cap is None else min(len(calls), cap),
        "peak_rss_mb": peak_rss_mb,
    }
    print(json.dumps(record))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_hitting.json")
    parser.add_argument("--one", nargs=2, metavar=("BIAS", "M"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        _one(args.one[0], int(args.one[1]))
        return

    import numpy as np

    load_before = os.getloadavg()
    record = {"label": args.label, "trials": TRIALS, "seed": SEED, "repeats": REPEATS,
              "host": {"usable_cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(),
                       "numpy": np.__version__}}
    cases = {}
    for spec, m in CASES:
        proc = subprocess.run([sys.executable, __file__, "--one", spec, str(m)],
                              capture_output=True, text=True, check=True)
        cases[f"{spec}@{m}x{m}"] = json.loads(proc.stdout.splitlines()[-1])
    record["cases"] = cases
    record["host"]["loadavg_before"] = load_before
    record["host"]["loadavg_after"] = os.getloadavg()
    text = json.dumps(record, indent=1)
    print(text)
    args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
