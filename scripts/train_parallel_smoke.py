"""CI smoke test for data-parallel training: worker-count invariance, and
the serial trainer as the one-shard run.

Seven real ``python -m repro train`` subprocesses over the same data and
seed.  Two contracts documented in ``repro.core.parallel`` are under test:

* ``--workers`` 1, 2 and 4 (default four gradient shards), and
  ``--layout vector`` (the §3.2 rank-1 record layout) at ``--workers`` 1
  and 2: the trained weights are a pure function of (data, config,
  gradient shards, seed) — never of the worker count;
* no ``--workers`` (the serial trainer) against ``--workers 2
  --grad-shards 1``: one gradient shard *is* the serial trainer.

The acceptance check loads the saved generators and compares every array
with ``np.array_equal`` — bit-identical weights, not merely close.

Every wait is bounded, so a wedged worker fails the job instead of
hanging it.  Run from the repository root::

    PYTHONPATH=src python scripts/train_parallel_smoke.py
"""

import os
import subprocess
import sys
import tempfile

TIMEOUT_S = 240

TRAIN_ARGS = [
    "--dataset", "adult", "--rows", "64", "--seed", "0",
    "--epochs", "4", "--batch-size", "16", "--base-channels", "4",
]

WORKER_COUNTS = (1, 2, 4)
VECTOR_WORKER_COUNTS = (1, 2)
#: The serial run (no ``--workers``) and its one-shard data-parallel twin.
SERIAL_ARGS = ()
ONE_SHARD_ARGS = ("--workers", "2", "--grad-shards", "1")


def fail(message: str) -> None:
    print(f"SMOKE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run_train(extra_args, model_path, label):
    command = [sys.executable, "-m", "repro", "train", *TRAIN_ARGS,
               *extra_args, "--model", model_path]
    print(f"[{label}] {' '.join(command)}")
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{label} run did not finish within {TIMEOUT_S}s")
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        fail(f"{label} run exited {result.returncode}")
    if "trained in" not in result.stdout:
        fail(f"{label} run never reported completion")


def compare_generators(baseline_path, other_path, baseline_label, label,
                       contract):
    import numpy as np

    with np.load(baseline_path) as baseline, np.load(other_path) as other:
        if set(baseline.files) != set(other.files):
            fail("saved generators hold different array sets: "
                 f"{sorted(set(baseline.files) ^ set(other.files))}")
        for key in baseline.files:
            if not np.array_equal(baseline[key], other[key]):
                fail(f"array {key!r} differs between {baseline_label} and "
                     f"{label} — {contract}")
        print(f"[{label}] all {len(baseline.files)} arrays bit-identical "
              f"with {baseline_label}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        models = {n: os.path.join(tmp, f"workers{n}.npz")
                  for n in WORKER_COUNTS}
        for n in WORKER_COUNTS:
            run_train(("--workers", str(n)), models[n], f"workers={n}")
        for n in WORKER_COUNTS[1:]:
            compare_generators(models[1], models[n], "--workers 1",
                               f"workers={n}",
                               "training is not worker-count invariant")
        vector = {n: os.path.join(tmp, f"vector-workers{n}.npz")
                  for n in VECTOR_WORKER_COUNTS}
        for n in VECTOR_WORKER_COUNTS:
            run_train(("--layout", "vector", "--workers", str(n)), vector[n],
                      f"vector workers={n}")
        for n in VECTOR_WORKER_COUNTS[1:]:
            compare_generators(vector[1], vector[n], "vector --workers 1",
                               f"vector workers={n}",
                               "vector-layout training is not worker-count "
                               "invariant")
        serial = os.path.join(tmp, "serial.npz")
        one_shard = os.path.join(tmp, "one-shard.npz")
        run_train(SERIAL_ARGS, serial, "serial")
        run_train(ONE_SHARD_ARGS, one_shard, "workers=2 grad-shards=1")
        compare_generators(serial, one_shard, "the serial trainer",
                           "workers=2 grad-shards=1",
                           "one gradient shard is not the serial trainer")
    print("TRAIN-PARALLEL SMOKE PASSED")


if __name__ == "__main__":
    main()
