"""Run every workload once and print each one's report.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--trace 0]

Each workload prints its environment stamp, output checks, attempted and
failed counts, and every metric by name and unit (see ``run.py``).  Exits
non-zero if any workload fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0 or not json.loads(done.stdout.splitlines()[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
