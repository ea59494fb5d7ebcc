"""The four workloads, each driven through the entry point users call.

* ``train`` — serial ``TableGAN.fit`` on the Airline stand-in;
* ``train_dp`` — the same fit with ``workers=2, grad_shards=4``;
* ``serve`` — ``repro serve`` under a closed loop of ``SynthesisClient``
  requests;
* ``export`` — ``repro synth --workers 2`` to a CSV file.

Every workload has a ``setup`` that prepares its inputs and times
``setups`` set-ups into ``setup_samples``, a ``window``
that measures for the requested seconds and can run traced or untraced,
and a ``finish`` that runs the output checks kept out of the timed window.
Inputs (table, request sizes, export size) come from the workload seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
import statistics
import sys
import threading
import time

import numpy as np

import procs

clock = time.perf_counter

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 5
#: What a trainer does before its first fit, timed in a fresh interpreter
#: so that every sample pays for start-up and imports as a user's run does.
TRAIN_SETUP = ("from repro import low_privacy\n"
               "from repro.data.datasets import load_dataset\n"
               "load_dataset('airline', seed={seed})\n"
               "low_privacy(epochs=1, seed={seed})\n")
#: Seconds of data-parallel fits at the end of ``train``'s traced run: the
#: only place ``core.parallel`` runs, since ``train_dp`` is not a benchmark
#: workload (its rate is too unsteady on two cores; see README.md).
PARALLEL_PROBE_S = 5.0
#: Airline rows generated for the model that ``serve`` and ``export``
#: register (the 80 % training split is 640 rows: ten batches of 64).
SERVED_MODEL_ROWS = 800
#: Rows of the served stream (and of the exported file) that are hashed
#: and compared against the training table.
PREFIX_ROWS = 4096
#: Concurrent clients of the closed loop.  Two clients (one per core) left
#: the server idle between replies and their throughput spread 19-27 % over
#: ten seeds on a 2-vCPU host; six keep requests queued (14 %).
CLIENTS = 6
SERVE_MAX_ROWS = 64
#: Width of the slices whose rates give the serve workload's rows_per_s.
SLICE_S = 0.5
#: Rows per export: 50 000 plus a seeded share of 10 000.
EXPORT_ROWS = (50_000, 10_000)
#: The export that ``setup_s`` times: one shard at ``repro synth``'s
#: default ``--shard-rows``, which it generates in-process.  In a longer
#: export two workers race for the cores to produce the first shard, and
#: its first row came after either ~0.8 s or ~1.5 s, which moved the median
#: of six by 28 % between two sets of runs.
SETUP_EXPORT_ROWS = 8192
#: The short export compared byte for byte against ``--workers 1``:
#: three 8192-row shards, so both workers produce rows.
SHORT_EXPORT_ROWS = 20_000
PROCESS_TIMEOUT_S = 120.0


def _generator_hash(gan) -> str:
    from repro.nn import state_dict

    digest = hashlib.sha256()
    for key, value in sorted(state_dict(gan.generator_).items()):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()[:16]


def _table_from_rows(rows, schema):
    """A Table from rendered rows (categoricals as their strings)."""
    from repro.data.schema import ColumnKind
    from repro.data.table import Table

    decoders = []
    for spec in schema.columns:
        if spec.kind is ColumnKind.CATEGORICAL:
            codes = {name: i for i, name in enumerate(spec.categories)}
            decoders.append(codes.__getitem__)
        else:
            decoders.append(float)
    values = [[decode(v) for decode, v in zip(decoders, row)] for row in rows]
    return Table(np.array(values, dtype=np.float64), schema)


def _bytes_in(directory: str) -> int:
    """Bytes in the files of ``directory`` (the sink's temporary file is
    renamed when it closes, so an entry can vanish while it is read)."""
    total = 0
    for entry in os.scandir(directory):
        try:
            total += entry.stat().st_size
        except FileNotFoundError:
            pass
    return total


# ----------------------------------------------------------------------
# Training.
# ----------------------------------------------------------------------
class Train:
    """Repeated one-epoch fits from the same seed until the window is full.

    Every fit is a complete, deterministic training run, so every fit in a
    run must leave the same generator weights: that hash is the run's
    determinism check, and it repeats across runs of the same seed.
    """

    primary = "train_rows_per_s"
    setups = SETUPS

    def __init__(self, seed: int, seconds: float,
                 workers: int | None = None, unit_rows: int | None = None):
        self.seed, self.seconds = seed, seconds
        self.workers, self.unit_rows = workers, unit_rows
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.hashes: list[str] = []
        self.gan = None

    def setup(self) -> None:
        from repro import low_privacy
        from repro.data.datasets import load_dataset
        from repro.data.table import Table

        self.setup_samples = []
        for _ in range(self.setups):
            child, output = procs.run_to_end(
                [sys.executable, "-c", TRAIN_SETUP.format(seed=self.seed)],
                PROCESS_TIMEOUT_S)
            if child.returncode != 0:
                raise RuntimeError(f"trainer set-up exited {child.returncode}: {output}")
            self.setup_samples.append(child.ended - child.started)
        t0 = clock()
        table = load_dataset("airline", seed=self.seed).train
        self.prepare_span = (t0, clock())
        if self.unit_rows is not None:
            table = Table(table.values[: self.unit_rows], table.schema)
        self.table = table
        self.config = low_privacy(epochs=1, seed=self.seed)
        batch = min(self.config.batch_size, table.n_rows)
        self.rows_per_fit = (table.n_rows // batch) * batch * self.config.epochs

    def _fit(self, workers):
        from repro import TableGAN

        gan = TableGAN(self.config)
        if workers is None:
            gan.fit(self.table)
        else:
            gan.fit(self.table, workers=workers, grad_shards=4)
        return gan

    def window(self, trace_dir: str | None, recorder=None) -> dict:
        if recorder is not None:
            recorder.add("data.prepare", *self.prepare_span)
        units, rates = [], []
        start = clock()
        while clock() - start < self.seconds or not units:
            t0 = clock()
            self.attempted += self.config.epochs
            try:
                gan = self._fit(self.workers)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.failed += self.config.epochs
                self.failures.append(f"fit raised {type(exc).__name__}: {exc}")
                units.append((t0, clock(), os.getpid()))
                continue
            t1 = clock()
            units.append((t0, t1, os.getpid()))
            rates.append(self.rows_per_fit / (t1 - t0))
            losses = gan.history_.epochs
            bad = sum(not all(math.isfinite(v) for v in vars(epoch).values())
                      for epoch in losses)
            if bad:
                self.failed += bad
                self.failures.append(f"{bad} epoch(s) with a non-finite loss")
            self.hashes.append(_generator_hash(gan))
            self.gan = gan
        return {"windows": units, "primary": upper_quartile(rates), "units": rates}

    def finish(self) -> dict:
        from repro.evaluation import mean_area_distance

        distinct = sorted(set(self.hashes))
        if len(distinct) > 1:
            self.failed += 1
            self.failures.append(f"generator hashes differ between fits: {distinct}")
        report = {"generator_hash": distinct[0] if distinct else None,
                  "fits": len(self.hashes)}
        if self.workers is not None and self.hashes:
            # The result must not depend on the worker count, only on the
            # shard count.
            self.attempted += 1
            single = _generator_hash(self._fit(1))
            report["workers_1_hash"] = single
            if single != self.hashes[0]:
                self.failed += 1
                self.failures.append(
                    f"workers=1 hash {single} != workers={self.workers} hash {self.hashes[0]}")
        cdf_area = float("nan")
        if self.gan is not None:
            sample = self.gan.sample(self.table.n_rows, rng=np.random.default_rng(self.seed))
            cdf_area = mean_area_distance(self.table, sample)
        return {"cdf_area": cdf_area,
                "peak_rss_mb": procs.peak_rss_mb(include_children=self.workers is not None),
                "report": report}


# ----------------------------------------------------------------------
# Serving and export share the registered model.
# ----------------------------------------------------------------------
class _RowCheck:
    """Checks rendered rows against the manifest's schema and codec ranges."""

    def __init__(self, manifest: dict):
        from repro.data.schema import ColumnKind, TableSchema

        self.schema = TableSchema.from_dict(manifest["schema"])
        self.columns = list(self.schema.names)
        col_min = manifest["generator"]["col_min"]
        col_max = manifest["generator"]["col_max"]
        self.specs = []
        for j, spec in enumerate(self.schema.columns):
            if spec.kind is ColumnKind.CATEGORICAL:
                self.specs.append(frozenset(spec.categories))
            else:
                slack = 1e-9 * max(1.0, abs(col_max[j] - col_min[j]))
                self.specs.append((col_min[j] - slack, col_max[j] + slack))

    def rows_ok(self, rows, n: int) -> bool:
        if len(rows) != n or any(len(row) != len(self.specs) for row in rows):
            return False
        try:
            for spec, column in zip(self.specs, zip(*rows)):
                if isinstance(spec, frozenset):
                    if not spec.issuperset(column):
                        return False
                elif min(column) < spec[0] or max(column) > spec[1]:
                    return False
        except TypeError:  # a value of the wrong type
            return False
        return True


class _ServedModel:
    """Trains and registers the Airline model through ``repro train``."""

    name = "airline"

    def __init__(self, seed: int, seconds: float, work: str):
        self.seed, self.seconds, self.work = seed, seconds, work
        self.registry = os.path.join(work, "registry")
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.setup_samples: list[float] = []

    def _register(self) -> None:
        from repro.data.datasets import load_dataset
        from repro.serve import ModelRegistry

        child, output = procs.run_to_end(procs.repro_argv(
            None, "train", "--dataset", "airline", "--rows", str(SERVED_MODEL_ROWS),
            "--seed", str(self.seed), "--epochs", "1", "--batch-size", "64",
            "--base-channels", "32", "--register", self.name,
            "--registry", self.registry), PROCESS_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"repro train exited {child.returncode}: {output}")
        self.check = _RowCheck(ModelRegistry(self.registry).manifest(self.name))
        self.train_table = load_dataset("airline", rows=SERVED_MODEL_ROWS,
                                        seed=self.seed).train

    def _cdf_area(self, rows) -> float:
        from repro.evaluation import mean_area_distance

        return mean_area_distance(self.train_table,
                                  _table_from_rows(rows, self.check.schema))


class Serve(_ServedModel):
    """``repro serve`` (threaded tier, coalescing, pool, quality tap: all
    defaults) under a closed loop of ``CLIENTS`` persistent clients."""

    primary = "served_rows_per_s"
    setups = SETUPS

    def setup(self) -> None:
        self._register()
        self.server = None
        self.prefix_hashes: list[str] = []
        self.peaks: list[float] = []
        for _ in range(self.setups):
            if self.server is not None:
                self._stop(self.server)
            self.server = self._start(None)
            self.setup_samples.append(self.server["ready"] - self.server["child"].started)

    def _start(self, trace_dir: str | None) -> dict:
        """Launch a server, wait for its first 200, then read the first
        ``PREFIX_ROWS`` rows of its stream with one client."""
        from repro.serve.server.client import ClientError, ServerError, SynthesisClient

        child = procs.Child(procs.repro_argv(
            trace_dir, "serve", "--registry", self.registry, "--port", "0",
            "--seed", str(self.seed)))
        server = {"child": child, "tiles": [], "prefix": []}
        try:
            line = child.readline(PROCESS_TIMEOUT_S)
            if "http://" not in line:
                raise RuntimeError(f"server did not report its address: {line!r}")
            port = int(line.rsplit(":", 1)[1])
            server["port"] = port
            client = SynthesisClient(port=port, timeout=30.0)
            deadline = clock() + PROCESS_TIMEOUT_S
            while True:
                try:
                    reply = client.sample(self.name, 1)
                    break
                except (ClientError, ServerError):
                    if clock() > deadline:
                        raise
                    time.sleep(0.01)
            server["ready"] = clock()
            self._record(server, reply, 1)
            sizes = np.random.default_rng([self.seed, 99])
            served = 1
            while served < PREFIX_ROWS:
                n = int(sizes.integers(1, SERVE_MAX_ROWS + 1))
                self._record(server, client.sample(self.name, n), n)
                served += n
            client.close()
        except BaseException:
            child.stop()
            raise
        rows = [row for _, row in sorted(server["prefix"], key=lambda item: item[0])]
        server["prefix_rows"] = rows[:PREFIX_ROWS]
        digest = hashlib.sha256(repr(server["prefix_rows"]).encode()).hexdigest()[:16]
        self.prefix_hashes.append(digest)
        return server

    def _record(self, server: dict, reply: dict, n: int) -> None:
        self.attempted += 1
        offset = int(reply["offset"])
        if reply.get("columns") != self.check.columns or not self.check.rows_ok(reply["rows"], n):
            self.failed += 1
            self.failures.append(f"bad response rows at offset {offset}")
            return
        server["tiles"].append((offset, n))
        if offset < PREFIX_ROWS:
            server["prefix"].extend((offset + i, row) for i, row in enumerate(reply["rows"]))

    def _stop(self, server: dict) -> None:
        child = server["child"]
        if child.stop() != 0:
            self.failed += 1
            self.failures.append(f"server exited {child.returncode}")
        child.output()
        self.peaks.append(child.peak_rss_mb)
        tiles = sorted(server["tiles"])
        position = 0
        for offset, n in tiles:
            if offset != position:
                self.failed += 1
                self.failures.append(
                    f"stream gap or overlap: response at {offset}, expected {position}")
                break
            position += n

    def window(self, trace_dir: str | None, recorder=None) -> dict:
        from repro.serve.server.client import ClientError, ServerError, SynthesisClient

        server = self.server if trace_dir is None else self._start(trace_dir)
        self.server = None
        port = server["port"]
        lock = threading.Lock()
        samples: list[tuple[float, float, int]] = []  # (done, latency, rows)
        stop_at = [0.0]

        def client_loop(index: int) -> None:
            sizes = np.random.default_rng([self.seed, index])
            with SynthesisClient(port=port, timeout=30.0) as client:
                while clock() < stop_at[0]:
                    n = int(sizes.integers(1, SERVE_MAX_ROWS + 1))
                    t0 = clock()
                    try:
                        reply = client.sample(self.name, n)
                    except (ClientError, ServerError) as exc:
                        with lock:
                            self.attempted += 1
                            self.failed += 1
                            self.failures.append(f"request failed: {exc}")
                        continue
                    t1 = clock()
                    with lock:
                        self._record(server, reply, n)
                        samples.append((t1, t1 - t0, n))

        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)]
        cpu0 = procs.self_cpu()
        start = clock()
        stop_at[0] = start + self.seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = clock()
        loadgen_cpu = procs.self_cpu() - cpu0
        pid = server["child"].pid
        self._stop(server)
        self.last_prefix_rows = server["prefix_rows"]
        # Rows completed per slice of the window.
        slices = [0.0] * max(1, int(self.seconds / SLICE_S))
        for done, _, n in samples:
            index = int((done - start) / SLICE_S)
            if index < len(slices):
                slices[index] += n / SLICE_S
        return {"windows": [(start, end, pid)], "primary": upper_quartile(slices),
                "units": slices,
                "latencies": sorted(lat for _, lat, _ in samples),
                "loadgen_cpu_frac": loadgen_cpu / (end - start)}

    def finish(self) -> dict:
        report = {"stream_prefix_hash": self.prefix_hashes[-1],
                  "stream_prefix_hashes_agree": len(set(self.prefix_hashes)) == 1,
                  "servers": len(self.prefix_hashes)}
        return {"cdf_area": self._cdf_area(self.last_prefix_rows),
                "peak_rss_mb": max(self.peaks), "report": report}


class Export(_ServedModel):
    """``repro synth --workers 2`` to CSV, repeated until the window is full."""

    primary = "export_rows_per_s"
    setups = SETUPS

    def setup(self) -> None:
        self._register()
        low, span = EXPORT_ROWS
        self.rows = low + int(np.random.default_rng(self.seed).integers(0, span))
        self.header = ",".join(self.check.columns) + "\r\n"
        self.hashes: list[str] = []
        self.peaks: list[float] = []
        self.prefix_rows = None
        self.exports = 0
        for index in range(self.setups):
            result = self._export(None, SETUP_EXPORT_ROWS, 2, f"setup-{index}")
            self.setup_samples.append(result["first_row"] - result["child"].started)
            self._drop(result)

    def _export(self, trace_dir: str | None, rows: int, workers: int,
                tag: str) -> dict:
        """One ``repro synth`` run; times set-up to the first row written."""
        out_dir = os.path.join(self.work, f"export-{tag}")
        os.makedirs(out_dir)
        out = os.path.join(out_dir, "rows.csv")
        child = procs.Child(procs.repro_argv(
            trace_dir, "synth", "--registry", self.registry, "--model-name", self.name,
            "-n", str(rows), "--workers", str(workers), "--seed", str(self.seed),
            "--out", out))
        first_row = None
        header_bytes = len(self.header)
        deadline = clock() + PROCESS_TIMEOUT_S
        try:
            while child.poll() is None:
                if first_row is None and _bytes_in(out_dir) > header_bytes:
                    first_row = clock()
                if clock() > deadline:
                    raise TimeoutError(f"repro synth still running after {PROCESS_TIMEOUT_S} s")
                time.sleep(0.002)
        finally:
            child.stop()
        child.output()
        self.attempted += 1
        result = {"child": child, "first_row": first_row or child.ended, "path": out}
        if child.returncode != 0 or not os.path.exists(out):
            self.failed += 1
            self.failures.append(f"repro synth exited {child.returncode}")
            return result
        digest, lines = hashlib.sha256(), 0
        with open(out, "rb") as handle:
            head = handle.read(header_bytes)
            digest.update(head)
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
                lines += block.count(b"\n")
        result.update(hash=digest.hexdigest()[:16], bytes=os.path.getsize(out))
        if head.decode() != self.header or lines != rows:
            self.failed += 1
            self.failures.append(f"export holds {lines} rows, expected {rows}")
        return result

    def _drop(self, result: dict) -> None:
        shutil.rmtree(os.path.dirname(result["path"]), ignore_errors=True)

    def window(self, trace_dir: str | None, recorder=None) -> dict:
        windows, rates, mb = [], [], 0.0
        start = clock()
        while clock() - start < self.seconds or not windows:
            self.exports += 1
            result = self._export(trace_dir, self.rows, 2, str(self.exports))
            child = result["child"]
            windows.append((result["first_row"], child.ended, child.pid))
            self.peaks.append(child.peak_rss_mb)
            if "hash" in result and child.ended > result["first_row"]:
                rates.append(self.rows / (child.ended - result["first_row"]))
                mb += result["bytes"] / float(1 << 20)
                self.hashes.append(result["hash"])
                if self.prefix_rows is None:
                    with open(result["path"], newline="") as handle:
                        reader = csv.reader(handle)
                        next(reader)
                        self.prefix_rows = [row for _, row in zip(range(PREFIX_ROWS), reader)]
            self._drop(result)
        return {"windows": windows, "primary": upper_quartile(rates), "units": rates,
                "mb_written": mb}

    def finish(self) -> dict:
        distinct = sorted(set(self.hashes))
        if len(distinct) > 1:
            self.failed += 1
            self.failures.append(f"export hashes differ between runs: {distinct}")
        # The same short export from two workers and from one must match
        # byte for byte.
        pair = [self._export(None, SHORT_EXPORT_ROWS, workers, f"short-{workers}")
                for workers in (2, 1)]
        if any("hash" not in result for result in pair) or pair[0]["hash"] != pair[1]["hash"]:
            self.failed += 1
            self.failures.append("short export differs between --workers 2 and 1")
        for result in pair:
            self._drop(result)
        self._check_exported_ranges()
        report = {"csv_hash": distinct[0] if distinct else None, "exports": self.exports,
                  "rows_per_export": self.rows}
        return {"cdf_area": self._cdf_area(self.prefix_rows) if self.prefix_rows else float("nan"),
                "peak_rss_mb": max(self.peaks), "report": report}

    def _check_exported_ranges(self) -> None:
        if self.prefix_rows is None:
            return
        parsed = [[value if isinstance(spec, frozenset) else float(value)
                   for spec, value in zip(self.check.specs, row)]
                  for row in self.prefix_rows]
        if not self.check.rows_ok(parsed, len(parsed)):
            self.failed += 1
            self.failures.append("exported values outside the manifest's codec ranges")


def make(name: str, seed: int, seconds: float, work: str, trace: bool = False):
    """The workload object for ``name``.  A traced run reports no
    ``setup_s``, so it times no set-ups beyond the one server its untraced
    window needs."""
    if name == "train":
        workload = Train(seed, seconds)
    elif name == "train_dp":
        # Data-parallel fits run ~15x slower than serial on a 2-core host
        # with default BLAS threads, so a fit covers the first 320 training
        # rows (five batches) and a window still holds several fits.
        workload = Train(seed, seconds, workers=2, unit_rows=320)
    elif name == "serve":
        workload = Serve(seed, seconds, work)
    elif name == "export":
        workload = Export(seed, seconds, work)
    else:
        raise KeyError(name)
    if trace:
        workload.setups = 1 if name == "serve" else 0
    return workload


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def upper_quartile(rates: list[float]) -> float:
    """A run's ``rows_per_s``: the 75th percentile, linearly interpolated,
    of its units' rates (fits, half-second slices or exports).

    The host stalls CPU work for seconds at a time, and the data-parallel
    trainer (two processes with default BLAS threads on two cores) falls
    into a state ~3x slower for whole fits; the upper quartile stays clear
    of both unless they fill most of a run.  Spread (IQR / median) over 20
    seeds on 2 vCPUs, median of units vs this: train 0.11 / 0.10, train_dp
    0.21 / 0.15, serve 0.17 / 0.14, export 0.10 / 0.09.
    """
    if len(rates) < 2:
        return rates[0] if rates else float("nan")
    return statistics.quantiles(rates, n=4, method="inclusive")[2]
