"""CI smoke test for ``repro synth``: worker-count invariance of the files.

Trains a small float32 and a small float64 table-GAN, registers both in a
temporary registry, and exports each through real ``python -m repro
synth`` subprocesses at ``--workers`` 1, 2 and 3, to CSV and to ``.npz``.
The export is two full shards and a short tail shard, and the tail ends in
a one-row block, so the in-process path (``--workers 1``), which writes a
CSV block by block, and the pooled paths, which hand over whole shards,
must agree on every block boundary.  float64 forwards depend on the batch
size, so a block that is not the chunk the whole-shard path forwards
changes its bytes.

The acceptance check: identical CSV bytes, and ``np.array_equal`` ``.npz``
members, across the worker counts.  Every wait is bounded.  Run from the
repository root::

    PYTHONPATH=src python scripts/synth_smoke.py
"""

import os
import subprocess
import sys
import tempfile

TIMEOUT_S = 120

#: Rows per generator forward (``RecordSampler.batch_size``'s default).
BLOCK_ROWS = 256
SHARD_ROWS = 2 * BLOCK_ROWS
#: Two full shards, then a tail shard of one full block and one row.
ROWS = 2 * SHARD_ROWS + BLOCK_ROWS + 1
WORKER_COUNTS = (1, 2, 3)
DTYPES = ("float32", "float64")


def fail(message: str) -> None:
    print(f"SMOKE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def register_models(root: str) -> None:
    """Train one small model per dtype and register it as ``small-DTYPE``."""
    from repro import TableGAN, low_privacy
    from repro.data.datasets import load_dataset
    from repro.serve import ModelRegistry

    # The 32-column Airline stand-in makes 8x8 records; at 32 base
    # channels the generator's float64 GEMMs are large enough that a block
    # of another size changes the bytes.
    table = load_dataset("airline", rows=160, seed=0).train
    registry = ModelRegistry(root)
    for dtype in DTYPES:
        gan = TableGAN(low_privacy(epochs=1, batch_size=16, base_channels=32,
                                   seed=0, dtype=dtype))
        gan.fit(table)
        registry.register(f"small-{dtype}", gan)
        print(f"[train] registered small-{dtype}")


def run_synth(root: str, name: str, workers: int, out: str) -> None:
    command = [sys.executable, "-m", "repro", "synth", "--registry", root,
               "--model-name", name, "-n", str(ROWS), "--seed", "3",
               "--shard-rows", str(SHARD_ROWS), "--workers", str(workers),
               "--out", out]
    label = f"{name} workers={workers} {os.path.basename(out)}"
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{label} did not finish within {TIMEOUT_S}s")
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        fail(f"{label} exited {result.returncode}")
    print(f"[{label}] {result.stdout.strip()}")


def compare(tmp: str, name: str) -> None:
    import numpy as np

    paths = {w: os.path.join(tmp, f"{name}-{w}") for w in WORKER_COUNTS}
    csvs = {}
    for workers, path in paths.items():
        with open(f"{path}.csv", "rb") as handle:
            csvs[workers] = handle.read()
    lines = csvs[1].count(b"\n")
    if lines != ROWS + 1:
        fail(f"{name}: the CSV holds {lines - 1} rows, expected {ROWS}")
    for workers in WORKER_COUNTS[1:]:
        if csvs[workers] != csvs[1]:
            fail(f"{name}: CSV bytes differ between --workers 1 and "
                 f"{workers}")
    with np.load(f"{paths[1]}.npz") as baseline:
        members = {key: baseline[key] for key in baseline.files}
    if members["chunk_00002"].shape[0] != SHARD_ROWS // 2 + 1:
        fail(f"{name}: the tail shard holds "
             f"{members['chunk_00002'].shape[0]} rows")
    for workers in WORKER_COUNTS[1:]:
        with np.load(f"{paths[workers]}.npz") as other:
            if set(other.files) != set(members):
                fail(f"{name}: .npz members differ between --workers 1 and "
                     f"{workers}: {sorted(set(other.files) ^ set(members))}")
            for key, values in members.items():
                if not np.array_equal(other[key], values):
                    fail(f"{name}: .npz member {key!r} differs between "
                         f"--workers 1 and {workers}")
    print(f"[{name}] CSV bytes and {len(members)} .npz members identical "
          f"at --workers {', '.join(map(str, WORKER_COUNTS))}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "registry")
        register_models(root)
        for dtype in DTYPES:
            name = f"small-{dtype}"
            for workers in WORKER_COUNTS:
                for suffix in ("csv", "npz"):
                    run_synth(root, name, workers,
                              os.path.join(tmp, f"{name}-{workers}.{suffix}"))
            compare(tmp, name)
    print("SYNTH SMOKE PASSED")


if __name__ == "__main__":
    main()
