"""Fuzz the CSV renderer's digit kernel against ``repr`` (CI step).

Renders, through :meth:`repro.data.io.RowRenderer.csv_bytes`, tables of
continuous values drawn from a fixed seed and compares every block with
the text ``repr`` gives — more than two million doubles:

* bit patterns with a uniform exponent field: every binade, subnormals,
  ±inf and NaNs, both signs;
* log-uniform magnitudes over the kernel's fixed-notation range
  ``[1e-4, 1e16)``, both signs;
* float32 generator outputs decoded through an Airline codec (the values
  an export renders).

Then it exports 54,731 rows of a small trained Airline model and compares
the file's bytes with the per-value reference renderer's.  Exits 1 at the
first mismatch, naming the value.

    PYTHONPATH=src python scripts/render_fuzz.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core.config import low_privacy
from repro.core.tablegan import TableGAN
from repro.data.datasets import load_dataset
from repro.data.encoding import TableCodec
from repro.data.io import CSV_BLOCK_ROWS, RowRenderer
from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema

SEED = 20260
PER_SET = 720_896          # 11 × 65,536 values per set, three sets
WIDTH = 16                 # continuous columns per fuzzed table
EXPORT_ROWS = 54_731


def _uniform_exponents(rng, n: int) -> np.ndarray:
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(0, 2048, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    return (sign | exponent | mantissa).view(np.float64)


def _fast_range(rng, n: int) -> np.ndarray:
    magnitude = np.exp(rng.uniform(np.log(1e-4), np.log(1e16), n))
    return np.where(rng.random(n) < 0.5, -magnitude, magnitude)


def _decoded_float32(rng, n: int) -> np.ndarray:
    table = load_dataset("airline", rows=800, seed=1).train
    codec = TableCodec().fit(table)
    continuous = [j for j, spec in enumerate(table.schema.columns)
                  if spec.kind is ColumnKind.CONTINUOUS]
    rows = -(-n // len(continuous))
    encoded = rng.uniform(-1.0, 1.0, (rows, table.n_columns)).astype(np.float32)
    return codec.decode(encoded).values[:, continuous].reshape(-1)[:n]


def _check(name: str, got: bytes, want: bytes, values: np.ndarray) -> None:
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    line = want[:at].count(b"\r\n")
    row = values[min(line, len(values) - 1)]
    print(f"MISMATCH in {name}, row {line}: values {[repr(float(v)) for v in row]}")
    print(f"  kernel:    {got[max(0, at - 60): at + 60]!r}")
    print(f"  reference: {want[max(0, at - 60): at + 60]!r}")
    sys.exit(1)


def fuzz_values(name: str, values: np.ndarray) -> None:
    schema = TableSchema([ColumnSpec(f"x{j}", ColumnKind.CONTINUOUS,
                                     ColumnRole.SENSITIVE) for j in range(WIDTH)])
    renderer = RowRenderer(schema)
    matrix = values.reshape(-1, WIDTH)
    for start in range(0, len(matrix), 4096):
        block = matrix[start:start + 4096]
        want = ("".join(",".join(map(repr, row)) + "\r\n"
                        for row in block.tolist())).encode("ascii")
        _check(name, renderer.csv_bytes(block), want, block)


def fuzz_export() -> None:
    table = load_dataset("airline", rows=800, seed=SEED).train
    gan = TableGAN(low_privacy(epochs=1, batch_size=64, base_channels=32,
                               seed=SEED)).fit(table)
    values = gan.sample(EXPORT_ROWS, rng=np.random.default_rng(SEED)).values
    renderer = RowRenderer(table.schema)
    want = b"".join(
        renderer._reference_csv_block(values[start:start + CSV_BLOCK_ROWS]).encode()
        for start in range(0, EXPORT_ROWS, CSV_BLOCK_ROWS))
    _check("airline export", renderer.csv_bytes(values), want, values)


def main() -> int:
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    sets = (("every exponent", _uniform_exponents(rng, PER_SET)),
            ("fast-path range", _fast_range(rng, PER_SET)),
            ("float32 decode outputs", _decoded_float32(rng, PER_SET)))
    for name, values in sets:
        fuzz_values(name, values)
        print(f"{name}: {len(values):,} doubles match repr "
              f"({time.perf_counter() - started:.1f} s)")
    fuzz_export()
    print(f"airline export: {EXPORT_ROWS:,} rows match the reference renderer "
          f"({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
