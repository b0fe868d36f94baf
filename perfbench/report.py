"""Run every workload, each in its own process, and print its metrics.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--trace 0|1]

Prints one line per metric, by name and with its unit, plus each
workload's ``failed_ratio`` (failed experiments over attempted ones) and
the name of every failing experiment.  Exits non-zero if a workload run
fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:12s} {name:38s} {metric['value']:.6g} {metric['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:12s} {'failed_ratio':38s} {ratio:.6g} 1 "
              f"({result['failed']} of {result['attempted']})")
        for line in proc.stderr.splitlines():
            if line.startswith("FAILED "):
                print(f"{workload:12s} {line}")
        if not result["correct"]:
            print(f"{workload:12s} INCORRECT OUTPUT")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
