"""End-to-end benchmark of the table-GAN trainer and synthesis service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Workloads: ``train``, ``train_dp``, ``serve``, ``export`` (see
``perfbench/README.md``).  The run prints a readable report, the
environment stamp, and as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of an untraced
window.  With ``--trace 1`` the run measures an untraced window, then a
traced one, and reports the per-layer metrics of the traced window.
"""

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics (every workload), with units.
END_TO_END = [("setup_s", "s"), ("rows_per_s", "rows/s"),
              ("peak_rss_mb", "MiB"), ("cdf_area", "area")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "train_dp", "serve", "export"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import procs
    import tracer
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    trace_dir = work / "spans"
    trace_dir.mkdir(parents=True)
    procs.adopt_orphans()
    try:
        try:
            wl = workloads.make(args.workload, args.seed, args.seconds, str(work),
                                trace=bool(args.trace))
            wl.setup()
            probe = None
            if args.trace and args.workload == "train":
                # core.parallel runs only in data-parallel fits, so the traced
                # run ends with a few: they give the parallel.* metrics and
                # run the data-parallel output checks.
                probe = workloads.make("train_dp", args.seed, workloads.PARALLEL_PROBE_S,
                                       str(work), trace=True)
                probe.setup()
            untraced = wl.window(None)
            if args.trace:
                recorder = None
                if args.workload in ("train", "train_dp"):  # runs in this process
                    recorder = tracer.install(str(trace_dir))
                cpu0, wall0 = procs.cpu_now(), time.perf_counter()
                traced = wl.window(str(trace_dir), recorder=recorder)
                cpu_s, wall = procs.cpu_now() - cpu0, time.perf_counter() - wall0
                if probe is not None:
                    probe_start = time.perf_counter()
                    parallel = probe.window(str(trace_dir))
                    probe_report = probe.finish()["report"]
                    wl.attempted += probe.attempted
                    wl.failed += probe.failed
                    wl.failures += probe.failures
            finished = wl.finish()
            if probe is not None:
                finished["report"]["parallel_probe"] = probe_report
        finally:
            procs.stop_all()
        if args.trace:
            spans, program = tracer.read_records(str(trace_dir))
            if recorder is not None:
                own_spans, own_program = recorder.records()
                spans += own_spans
                program += own_program
            extra = {
                "proc.cpu_s": cpu_s,
                "proc.cpu_util": cpu_s / (wall * procs.cores()),
                "loadgen.cpu_frac": traced.get("loadgen_cpu_frac", 0.0),
                "trace.overhead_frac": 1.0 - traced["primary"] / untraced["primary"],
                "sinks.mb_written": traced.get("mb_written", 0.0),
            }
            if probe is None:
                values = layers.per_layer(spans, program, traced["windows"], extra)
            else:
                # Every layer but core.parallel from the serial fits; the
                # set-up spans of the probe's fits must not count there.
                serial = [span for span in spans if span["t0"] < probe_start]
                values = layers.per_layer(serial, program, traced["windows"], extra)
                probed = layers.per_layer(spans, program, parallel["windows"], extra)
                values.update({name: probed[name] for name, _ in layers.METRICS
                               if name.startswith("parallel.")})
            units = dict(layers.METRICS)
        else:
            values = {"setup_s": workloads.median(wl.setup_samples),
                      "rows_per_s": untraced["primary"],
                      "peak_rss_mb": finished["peak_rss_mb"],
                      "cdf_area": finished["cdf_area"]}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        print(f"perfbench: no measurement for {bad}; failures: {wl.failures[:5]}",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'} window of {args.seconds:g} s")
    print("env " + json.dumps(procs.env_stamp(args.seed), sort_keys=True))
    if not args.trace:
        print(f"  rows_per_s here is {wl.primary}")
        print(f"  set-up samples (s): {[round(s, 3) for s in wl.setup_samples]}")
        print(f"  rows/s per unit: {[round(r) for r in untraced['units']]}")
        latencies = untraced.get("latencies")
        if latencies:
            beyond = len(latencies) - len(latencies) * 99 // 100
            print(f"  latency_p50_ms {1e3 * workloads.percentile(latencies, 0.50):.3f}  "
                  f"latency_p99_ms {1e3 * workloads.percentile(latencies, 0.99):.3f}  "
                  f"({len(latencies)} requests, {beyond} beyond p99)")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6g} {unit}")
    for key, value in finished["report"].items():
        print(f"  {key}: {value}")
    error_frac = wl.failed / wl.attempted if wl.attempted else 0.0
    print(f"  attempted {wl.attempted}, failed {wl.failed}, error_frac {error_frac:g}")
    for failure in wl.failures[:20]:
        print(f"  FAILED: {failure}")
    correct = wl.failed == 0 and not wl.failures
    print(json.dumps({
        "correct": correct, "attempted": max(1, wl.attempted), "failed": wl.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
