"""Smoke test of the benchmark itself (about two minutes on two cores).

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run passes its output checks and emits every metric ``BENCHMARK.json``
names, with its unit.  It also checks that the serial trainer's generator
hash repeats across runs of one seed, and that the benchmark fails without
a result outside a repository checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert expected[0] == dict(run.END_TO_END), "end_to_end differs from run.py"
    assert expected[1] == dict(layers.METRICS), "per_layer differs from layers.py"

    hashes = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace))
            result = result_of(done)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stdout[-3000:]
            assert result["attempted"] >= 1
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected[trace], (workload, trace, emitted)
            if workload == "train":
                hashes += [line.split()[-1] for line in done.stdout.splitlines()
                           if line.strip().startswith("generator_hash:")]
            print(f"ok  {workload:9s} trace={trace}", flush=True)
    assert len(hashes) == 2 and hashes[0] == hashes[1], hashes
    print("ok  generator hash repeats across runs", flush=True)

    # Outside a checkout (only BENCHMARK.json and perfbench/), the run must
    # fail without printing a result.
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench("--workload", "train", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done.stdout
    print("ok  fails without a result outside a checkout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
