"""Command-line interface: train, sample, evaluate, and attack from a shell.

Examples
--------
::

    python -m repro datasets
    python -m repro train --dataset adult --rows 1000 --epochs 15 \
        --privacy low --model /tmp/adult.npz --register adult-low
    python -m repro sample --dataset adult --rows 1000 --model /tmp/adult.npz \
        -n 500 --out /tmp/synthetic.csv
    python -m repro evaluate --dataset lacity --rows 800 --epochs 15
    python -m repro attack --dataset adult --rows 800 --epochs 10
    python -m repro serve-registry
    python -m repro synth --model-name adult-low -n 1000000 --workers 4 \
        --out /tmp/rows.csv
    python -m repro serve --registry model-registry --port 8000
    python -m repro serve --port 8000 --trace-log /tmp/spans.jsonl
    python -m repro trace /tmp/spans.jsonl
    python -m repro quality adult-low --url http://127.0.0.1:8000

``train``/``sample``/``evaluate``/``attack`` regenerate the dataset
deterministically from ``--dataset``, ``--rows`` and ``--seed``, so a saved
generator can be reloaded against the exact table it was trained on.  The
serving verbs (``serve-registry``, ``synth``, ``serve``) need no dataset at
all: the model registry persists schema and codec state alongside the
weights.  ``serve`` runs the long-lived HTTP server until SIGTERM/SIGINT,
then drains in-flight requests before exiting.

Each verb imports the modules it needs when it runs, so ``synth``,
``train`` and ``sample`` never load the HTTP server, the evaluation
suite or the privacy attacks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

import numpy as np

from repro import TableGAN, TableGanConfig, high_privacy, low_privacy, mid_privacy
from repro.data.datasets import DATASET_NAMES, DEFAULT_ROWS, PAPER_ROWS, load_dataset
from repro.data.io import write_csv

_PRIVACY_PRESETS = {"low": low_privacy, "mid": mid_privacy, "high": high_privacy}

#: Default registry root for the serving verbs.
DEFAULT_REGISTRY = "model-registry"


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=DATASET_NAMES, default="adult",
                        help="dataset to generate (default: adult)")
    parser.add_argument("--rows", type=int, default=None,
                        help="rows to generate before the 80/20 split")
    parser.add_argument("--seed", type=int, default=7, help="global seed")


def _add_training_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--privacy", choices=sorted(_PRIVACY_PRESETS), default="low",
                        help="privacy preset: delta thresholds of Eq. 4")
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--base-channels", type=int, default=16)
    parser.add_argument("--layout", choices=("square", "vector"), default="square",
                        help="record layout (§3.2); 'vector' is the 1-D ablation")


def _config_from_args(args) -> TableGanConfig:
    return _PRIVACY_PRESETS[args.privacy](
        epochs=args.epochs,
        batch_size=args.batch_size,
        base_channels=args.base_channels,
        layout=args.layout,
        seed=args.seed,
    )


def _load_bundle(args):
    return load_dataset(args.dataset, rows=args.rows, seed=args.seed)


def cmd_datasets(args) -> int:
    """List datasets with their paper-scale and default row counts."""
    from repro.evaluation.reporting import format_table

    rows = [
        (name, str(PAPER_ROWS[name]), str(DEFAULT_ROWS[name]))
        for name in DATASET_NAMES
    ]
    print(format_table(["dataset", "paper rows", "default rows"], rows))
    return 0


def cmd_train(args) -> int:
    """Train a table-GAN, save the generator, and/or register it for serving."""
    from repro.core.checkpoint import TrainerCheckpointer, TrainingInterrupted
    from repro.serve import ModelRegistry, split_ref

    registry = ModelRegistry(args.registry) if args.register else None
    if registry is not None:
        # Validate the reference now: a bad --register must fail in
        # milliseconds, not after the whole training run.
        register_name, register_version = split_ref(args.register)
        if (register_version is not None
                and registry.path_for(args.register).exists()):
            print(f"model {args.register!r} is already registered in "
                  f"{registry.root}; versions are immutable — pick a new "
                  "version or `serve-registry --delete` the old one first")
            return 1
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir (where the snapshots live)")
        return 1
    bundle = _load_bundle(args)
    print(f"training table-GAN on {args.dataset} ({bundle.train.n_rows} rows, "
          f"{args.privacy} privacy, layout={args.layout}) ...")
    gan = TableGAN(_config_from_args(args))

    checkpointer = None
    previous_handlers: dict[int, object] = {}
    if args.checkpoint_dir:
        checkpointer = TrainerCheckpointer(args.checkpoint_dir,
                                           every_batches=args.checkpoint_every)
        if not args.resume:
            # A fresh run must not silently continue a stale snapshot left
            # by an earlier run in the same directory.
            for path in (checkpointer.latest_path, checkpointer.prev_path):
                try:
                    os.unlink(path)
                except OSError:
                    pass
        if threading.current_thread() is threading.main_thread():
            # SIGTERM/SIGINT become checkpoint-and-exit: the loop finishes
            # its current batch, saves, and raises TrainingInterrupted.
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous_handlers[signum] = signal.signal(
                    signum, lambda *_: checkpointer.request_stop()
                )
    try:
        gan.fit(bundle.train, on_epoch_end=lambda i, l: print(
            f"  epoch {i + 1:3d}: D={l.d_loss:.3f} G_adv={l.g_adv_loss:.3f} "
            f"G_info={l.g_info_loss:.3f} G_class={l.g_class_loss:.3f}"
        ), checkpointer=checkpointer, workers=args.workers,
            grad_shards=args.grad_shards)
    except TrainingInterrupted as stop:
        print(f"interrupted: checkpoint saved to {stop.path} "
              f"(epoch {stop.epoch}, batch offset {stop.batch_start}); "
              "rerun with --resume to continue", flush=True)
        return 0
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    print(f"trained in {gan.train_seconds_:.1f}s")
    if args.model:
        gan.save(args.model)
        print(f"generator saved to {args.model}")
    if registry is not None:
        # Unversioned names behave like a mutable "current model" slot;
        # explicit versions are immutable — re-registering one is refused
        # (the registry raises) so a pinned rollback can never be
        # silently clobbered by a re-run.
        # The training table's per-column statistics are frozen into the
        # manifest here: they are the reference every serving-time drift
        # score compares against (`GET /models/{ref}/quality`).
        from repro.obs.quality import reference_stats

        registry.register(register_name, gan,
                          overwrite=register_version is None,
                          version=register_version,
                          reference_stats=reference_stats(bundle.train))
        print(f"registered as {args.register!r} in {registry.root} "
              "(reference stats frozen for drift scoring)")
    return 0


def cmd_sample(args) -> int:
    """Load a saved generator and write synthetic rows to CSV."""
    bundle = _load_bundle(args)
    gan = TableGAN(_config_from_args(args))
    gan.load_generator(args.model, bundle.train)
    synthetic = gan.sample(args.n, rng=np.random.default_rng(args.seed))
    write_csv(synthetic, args.out)
    print(f"wrote {synthetic.n_rows} synthetic rows to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    """Train, sample, and print the three-axis evaluation summary."""
    from repro.evaluation import classification_compatibility, mean_area_distance
    from repro.evaluation.compatibility import classifier_suite
    from repro.evaluation.reporting import format_table
    from repro.privacy import dcr, dcr_sensitive_only

    bundle = _load_bundle(args)
    gan = TableGAN(_config_from_args(args))
    print(f"training on {args.dataset} ...")
    gan.fit(bundle.train)
    synthetic = gan.sample(bundle.train.n_rows, rng=np.random.default_rng(args.seed))

    suite = [classifier_suite()[i] for i in (2, 12, 22, 32)]
    compat = classification_compatibility(
        bundle.train, synthetic, bundle.test, suite=suite
    )
    rows = [
        ("statistical similarity (mean CDF area, low=good)",
         f"{mean_area_distance(bundle.train, synthetic):.3f}"),
        ("model compatibility (mean F-1 gap, low=good)",
         f"{compat.mean_gap:.3f}"),
        ("privacy, all attributes (DCR avg ± std)",
         dcr(bundle.train, synthetic).formatted()),
        ("privacy, sensitive only (DCR avg ± std)",
         dcr_sensitive_only(bundle.train, synthetic).formatted()),
        ("training seconds", f"{gan.train_seconds_:.1f}"),
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.dataset} / {args.privacy} privacy"))
    return 0


def cmd_attack(args) -> int:
    """Train a target and run the §4.5 membership attack against it."""
    from repro.evaluation.reporting import format_table
    from repro.privacy import MembershipAttack

    bundle = _load_bundle(args)
    config = _config_from_args(args)
    print(f"training target table-GAN on {args.dataset} ...")
    target = TableGAN(config)
    target.fit(bundle.train)
    print(f"running membership attack ({args.shadows} shadow model(s)) ...")
    attack = MembershipAttack(n_shadows=args.shadows, shadow_config=config,
                              seed=args.seed)
    result = attack.run(target, bundle.train, bundle.test)
    rows = [
        ("attack F-1", f"{result.f1:.3f}"),
        ("attack AUCROC", f"{result.auc:.3f}"),
        ("evaluation records", str(result.n_eval)),
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"membership attack vs {args.privacy}-privacy target"))
    print("AUC near 0.5 means the attacker cannot distinguish members.")
    return 0


def cmd_serve_registry(args) -> int:
    """List, inspect, or delete models in the serving registry."""
    from repro.evaluation.reporting import format_table
    from repro.serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    if args.delete:
        registry.delete(args.delete)
        print(f"deleted {args.delete!r} from {registry.root}")
        return 0
    if args.show:
        manifest = registry.manifest(args.show)
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    entries = registry.describe()
    if not entries:
        print(f"registry {registry.root} is empty "
              "(train with --register NAME to add a model)")
        return 0
    rows = [
        (
            entry["name"], entry["kind"], str(entry["models"]),
            f"{entry['n_features']}", f"{entry['side']}",
            entry["layout"], entry["dtype"],
            time.strftime("%Y-%m-%d %H:%M",
                          time.localtime(entry["created_at"]))
            if entry["created_at"] else "?",
        )
        for entry in entries
    ]
    print(format_table(
        ["model", "kind", "models", "features", "side", "layout", "dtype",
         "created"],
        rows, title=f"registry {registry.root}",
    ))
    return 0


def cmd_synth(args) -> int:
    """Stream synthetic rows from a registered model to CSV or NPZ."""
    from repro.serve.sharding import ShardedSampler
    from repro.serve.sinks import CsvSink, NpzSink

    sampler = ShardedSampler(args.registry, args.model_name,
                             shard_rows=args.shard_rows)
    schema = sampler.schema
    if args.out.endswith(".npz"):
        sink = NpzSink(args.out, columns=schema.names)
    else:
        sink = CsvSink(args.out, schema)
    started = time.perf_counter()
    with sink:
        rows = sampler.sample_to_sink(args.n, sink, seed=args.seed,
                                      workers=args.workers)
    elapsed = time.perf_counter() - started
    print(f"wrote {rows} synthetic rows to {args.out} in {elapsed:.2f}s "
          f"({rows / elapsed:,.0f} rows/s, {args.workers} worker(s))")
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived synthesis HTTP server until SIGTERM/SIGINT."""
    from repro.obs import trace
    from repro.serve import ModelRegistry, SynthesisServer

    registry = ModelRegistry(args.registry)
    names = registry.names()
    budget = (args.memory_budget_mb * (1 << 20)
              if args.memory_budget_mb else None)
    weights = None
    if args.worker_weights:
        weights = {}
        for spec in args.worker_weights:
            name, sep, count = spec.partition("=")
            if not sep or not name:
                raise SystemExit(
                    f"--worker-weight expects NAME=K, got {spec!r}")
            try:
                weights[name] = int(count)
            except ValueError:
                raise SystemExit(
                    f"--worker-weight count must be an integer, got {spec!r}"
                ) from None
    server = SynthesisServer(
        registry, host=args.host, port=args.port,
        pool_size=args.pool_size, batch_rows=args.batch_rows, seed=args.seed,
        coalesce=not args.no_coalesce, max_queue_depth=args.max_queue,
        max_request_rows=args.max_request_rows,
        stream_threshold_rows=args.stream_threshold,
        stream_chunk_rows=args.stream_rows, max_models=args.max_models,
        memory_budget_bytes=budget, quiet=not args.verbose,
        server_workers=args.server_workers, worker_weights=weights,
        worker_start_method=args.worker_start_method,
        client_quota=args.client_quota, trace_log=args.trace_log,
        quality=not args.no_quality,
    )
    if args.trace_log:
        # Arm the process-wide tracer: every sampled request appends its
        # handler/batcher/service span records to the JSONL file, readable
        # live with `repro trace PATH`.  --trace-log-max-mb caps the file:
        # full files rotate to PATH.1..PATH.N between whole-line writes.
        max_bytes = (args.trace_log_max_mb * (1 << 20)
                     if args.trace_log_max_mb else None)
        trace.arm(args.trace_log, max_bytes=max_bytes,
                  keep=args.trace_log_keep)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    # The port line is load-bearing: with --port 0 it is how scripts (CI
    # smoke, the benchmark) learn the bound address.
    print(f"serving {len(names)} model(s) from {registry.root} "
          f"at http://{server.host}:{server.port}", flush=True)
    try:
        stop.wait()
    finally:
        print("draining in-flight requests ...", flush=True)
        server.shutdown()
        if args.trace_log:
            trace.disarm()
            print(f"trace spans written to {args.trace_log}", flush=True)
        responses = server.metrics()["responses"]
        print(f"server stopped after {sum(responses.values())} response(s)",
              flush=True)
    return 0


def cmd_quality(args) -> int:
    """Show a model's data-quality / drift report.

    With ``--url`` the report comes from a running server's
    ``GET /models/{ref}/quality`` (live sketch vs frozen reference);
    without it, the registry manifest's frozen reference statistics are
    printed — what serving-time drift will be scored against.
    """
    from repro.evaluation.reporting import format_table
    from repro.serve import ModelRegistry

    if args.url:
        import urllib.error
        import urllib.parse
        import urllib.request

        endpoint = (f"{args.url.rstrip('/')}/models/"
                    f"{urllib.parse.quote(args.ref, safe='')}/quality")
        try:
            with urllib.request.urlopen(endpoint, timeout=10) as response:
                report = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace").strip()
            print(f"server returned {exc.code} for {endpoint}: {detail}")
            return 1
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot reach {endpoint}: {exc}")
            return 1
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        status = report.get("status", "?")
        print(f"model {report.get('model', args.ref)!r}: status={status} "
              f"rows_sketched={report.get('rows_sketched', 0)} "
              f"reference={report.get('reference', False)} "
              f"tap_errors={report.get('tap_errors', 0)}")
        drift = report.get("drift")
        if not drift:
            if status == "off":
                print("quality tap disabled on this server (--no-quality)")
            elif not report.get("reference"):
                print("no reference stats in the manifest; re-register via "
                      "`repro train --register` to enable drift scoring")
            else:
                print("no drift scores yet (fewer rows sketched than the "
                      "minimum); sample more rows first")
            return 0
        rows = [
            (name, f"{col['statistic']:.4f}", f"{col['area']:.4f}",
             col["status"])
            for name, col in sorted(drift["columns"].items(),
                                    key=lambda kv: -kv[1]["statistic"])
        ]
        thresholds = drift.get("thresholds", {})
        print(format_table(
            ["column", "ks statistic", "cdf area", "status"], rows,
            title=(f"drift vs reference (warn>={thresholds.get('warn')}, "
                   f"drift>={thresholds.get('drift')})"),
        ))
        return 0

    registry = ModelRegistry(args.registry)
    manifest = registry.manifest(args.ref)
    reference = manifest.get("reference_stats")
    if not reference:
        print(f"{args.ref!r} has no frozen reference statistics; "
              "re-register via `repro train --register` to enable "
              "serving-time drift scoring")
        return 1
    if args.json:
        print(json.dumps(reference, indent=2, sort_keys=True))
        return 0
    rows = []
    for name, col in reference["columns"].items():
        if col.get("kind") == "categorical" and "categories" in col:
            top = col["categories"]["top_k"]
            detail = ", ".join(f"{cat}:{count}" for cat, count in top[:3])
            rows.append((name, col["kind"], "-", "-", detail))
        else:
            rows.append((name, col["kind"], f"{col['mean']:.4g}",
                         f"{col['std']:.4g}",
                         f"[{col['lo']:.4g}, {col['hi']:.4g}]"))
    print(format_table(
        ["column", "kind", "mean", "std", "range / top categories"], rows,
        title=(f"reference stats for {args.ref!r} "
               f"({reference['rows']} training rows, "
               f"{reference['bins']} bins)"),
    ))
    return 0


def _print_trace_tree(spans, events, trace_id: str) -> int:
    """Indented parent→child view of one trace's spans (ts order)."""
    mine = sorted((s for s in spans if s.get("trace") == trace_id),
                  key=lambda s: s.get("ts", 0))
    if not mine:
        print(f"no spans recorded for trace {trace_id}")
        return 1
    ids = {s.get("span") for s in mine}
    children: dict = {}
    roots = []
    for span in mine:
        parent = span.get("parent")
        if parent in ids:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)

    def walk(span, depth):
        attrs = span.get("attrs") or {}
        extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        line = (f"{'  ' * depth}{span['name']}  "
                f"{span.get('dur_ms', 0.0):.3f} ms")
        print(line + (f"  [{extra}]" if extra else ""))
        for child in children.get(span.get("span"), []):
            walk(child, depth + 1)

    print(f"trace {trace_id}:")
    for root in roots:
        walk(root, 1)
    for event in events:
        if event.get("trace") == trace_id:
            print(f"  event {event['name']}  {event.get('attrs') or {}}")
    return 0


def cmd_trace(args) -> int:
    """Summarize a span JSONL log (written by ``serve --trace-log``)."""
    from repro.evaluation.reporting import format_table

    records = []
    try:
        with open(args.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # a torn concurrent write; skip, don't die
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}")
        return 1
    if args.tail:
        for record in records[-args.tail:]:
            print(json.dumps(record, sort_keys=True))
        return 0
    spans = [r for r in records if r.get("kind") == "span"]
    events = [r for r in records if r.get("kind") == "event"]
    if args.trace:
        return _print_trace_tree(spans, events, args.trace)
    if not spans and not events:
        print(f"{args.path}: no trace records")
        return 0
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(
            float(span.get("dur_ms", 0.0)))
    rows = []
    for name in sorted(by_name):
        durations = sorted(by_name[name])
        total = sum(durations)
        rows.append((
            name, str(len(durations)), f"{total:.1f}",
            f"{total / len(durations):.3f}",
            f"{durations[len(durations) // 2]:.3f}", f"{durations[-1]:.3f}",
        ))
    traces = {s.get("trace") for s in spans}
    print(format_table(
        ["span", "count", "total ms", "mean ms", "p50 ms", "max ms"], rows,
        title=(f"{len(spans)} span(s) across {len(traces)} trace(s), "
               f"{len(events)} event(s)"),
    ))
    return 0


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def cmd_bench(args) -> int:
    """Run the training-engine benchmark and write BENCH_engine.json."""
    from repro.bench import main as bench_main

    return bench_main(args.out, repeats=args.repeats, fit_repeats=args.fit_repeats,
                      quick=args.quick, check=args.check)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="table-GAN (VLDB 2018) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list available datasets").set_defaults(
        func=cmd_datasets
    )

    p_train = sub.add_parser("train", help="train a table-GAN")
    _add_common_args(p_train)
    _add_training_args(p_train)
    p_train.add_argument("--model", default=None, help="path to save the generator (.npz)")
    p_train.add_argument("--register", default=None, metavar="NAME[@VERSION]",
                         help="register the trained model for serving under "
                              "NAME (optionally as one immutable VERSION; "
                              "prior versions stay loadable)")
    p_train.add_argument("--registry", default=DEFAULT_REGISTRY,
                         help=f"registry directory (default: {DEFAULT_REGISTRY})")
    p_train.add_argument("--checkpoint-dir", default=None,
                         help="directory for crash-safe training checkpoints; "
                              "SIGTERM saves one and exits cleanly")
    p_train.add_argument("--checkpoint-every", type=int, default=0,
                         metavar="BATCHES",
                         help="also checkpoint every N mini-batches "
                              "(default: 0 = epoch boundaries only)")
    p_train.add_argument("--workers", type=_positive_int, default=None,
                         metavar="N",
                         help="train data-parallel across N processes; the "
                              "result is bit-identical for every N (a pure "
                              "function of --grad-shards, never of N). "
                              "Default: the serial trainer")
    p_train.add_argument("--grad-shards", type=_positive_int, default=4,
                         metavar="S",
                         help="gradient shards per global batch for "
                              "--workers runs (default 4); part of the "
                              "checkpoint fingerprint, unlike the worker "
                              "count")
    p_train.add_argument("--resume", action="store_true",
                         help="continue from the newest checkpoint in "
                              "--checkpoint-dir (bit-identical to an "
                              "uninterrupted run)")
    p_train.set_defaults(func=cmd_train)

    p_sample = sub.add_parser("sample", help="sample synthetic rows from a saved model")
    _add_common_args(p_sample)
    _add_training_args(p_sample)
    p_sample.add_argument("--model", required=True, help="generator saved by train")
    p_sample.add_argument("-n", type=int, default=100, help="rows to sample")
    p_sample.add_argument("--out", required=True, help="output CSV path")
    p_sample.set_defaults(func=cmd_sample)

    p_eval = sub.add_parser("evaluate", help="train + sample + three-axis report")
    _add_common_args(p_eval)
    _add_training_args(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_attack = sub.add_parser("attack", help="run the §4.5 membership attack")
    _add_common_args(p_attack)
    _add_training_args(p_attack)
    p_attack.add_argument("--shadows", type=int, default=1,
                          help="number of shadow table-GANs")
    p_attack.set_defaults(func=cmd_attack)

    p_registry = sub.add_parser(
        "serve-registry", help="list/inspect/delete models in the serving registry"
    )
    p_registry.add_argument("--registry", default=DEFAULT_REGISTRY,
                            help=f"registry directory (default: {DEFAULT_REGISTRY})")
    p_registry.add_argument("--show", default=None, metavar="NAME[@VERSION]",
                            help="print one model's manifest as JSON (a bare "
                                 "NAME resolves to its newest registration)")
    p_registry.add_argument("--delete", default=None, metavar="NAME[@VERSION]",
                            help="remove one exact registration")
    p_registry.set_defaults(func=cmd_serve_registry)

    p_synth = sub.add_parser(
        "synth", help="stream synthetic rows from a registered model"
    )
    p_synth.add_argument("--registry", default=DEFAULT_REGISTRY,
                         help=f"registry directory (default: {DEFAULT_REGISTRY})")
    p_synth.add_argument("--model-name", required=True,
                         help="model name in the registry")
    p_synth.add_argument("-n", type=_positive_int, default=1000,
                         help="rows to synthesize (default: 1000)")
    p_synth.add_argument("--out", required=True,
                         help="output path; .npz streams arrays, anything else CSV")
    p_synth.add_argument("--seed", type=int, default=7,
                         help="generation seed (output is a pure function of "
                              "seed, n, and --shard-rows; never of --workers)")
    p_synth.add_argument("--workers", type=_positive_int, default=1,
                         help="parallel sampling processes (default: 1)")
    p_synth.add_argument("--shard-rows", type=_positive_int, default=8192,
                         help="rows per shard / per streamed write (default: 8192)")
    p_synth.set_defaults(func=cmd_synth)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived synthesis HTTP server"
    )
    p_serve.add_argument("--registry", default=DEFAULT_REGISTRY,
                         help=f"registry directory (default: {DEFAULT_REGISTRY})")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8000,
                         help="bind port; 0 picks a free one and prints it "
                              "(default: 8000)")
    p_serve.add_argument("--seed", type=int, default=7,
                         help="per-model record-stream seed (default: 7)")
    p_serve.add_argument("--pool-size", type=int, default=1024,
                         help="rows pre-generated per model replenishment "
                              "(sub-batch requests serve from memory); 0 "
                              "generates per drain tick only (default: 1024)")
    p_serve.add_argument("--batch-rows", type=_positive_int, default=2048,
                         help="rows per generator forward pass (default: 2048)")
    p_serve.add_argument("--max-queue", type=_positive_int, default=64,
                         help="per-model admission bound; saturated requests "
                              "get 429 + Retry-After (default: 64)")
    p_serve.add_argument("--max-models", type=_positive_int, default=8,
                         help="resident-model cap; LRU eviction beyond it "
                              "(default: 8)")
    p_serve.add_argument("--memory-budget-mb", type=_positive_int, default=None,
                         help="estimated resident-model memory budget in MiB "
                              "(default: unlimited; LRU evicts idle models "
                              "over budget)")
    p_serve.add_argument("--max-request-rows", type=_positive_int,
                         default=1_000_000,
                         help="absolute per-request row cap; beyond it the "
                              "server answers 413 (default: 1000000)")
    p_serve.add_argument("--stream-threshold", type=_positive_int,
                         default=10_000,
                         help="rows above which a response streams as chunked "
                              "CSV/NDJSON (default: 10000)")
    p_serve.add_argument("--stream-rows", type=_positive_int, default=2048,
                         help="rows per streamed chunk (default: 2048)")
    p_serve.add_argument("--server-workers", type=int, default=0,
                         metavar="N",
                         help="serve each model from N dedicated worker "
                              "processes over a shared-memory sample pool "
                              "(responses stay bit-identical to the threaded "
                              "service); 0 keeps the in-process service "
                              "(default: 0)")
    p_serve.add_argument("--worker-weight", action="append", default=None,
                         metavar="NAME=K", dest="worker_weights",
                         help="per-model worker-count override (repeatable); "
                              "K=0 pins NAME to the in-process service")
    p_serve.add_argument("--worker-start-method", default=None,
                         choices=("fork", "spawn", "forkserver"),
                         help="multiprocessing start method for pool workers "
                              "(default: fork)")
    p_serve.add_argument("--client-quota", type=_positive_int, default=None,
                         metavar="N",
                         help="per-client admission cap: a client (X-Client-Id)"
                              " with N requests queued or in flight gets 429 + "
                              "Retry-After (default: unlimited)")
    p_serve.add_argument("--no-coalesce", action="store_true",
                         help="disable cross-request batch coalescing (one "
                              "generator pass per request; the benchmark "
                              "baseline)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="per-request access log on stderr")
    p_serve.add_argument("--trace-log", default=None, metavar="PATH",
                         help="arm request tracing: append one JSON span "
                              "record per handler/batcher/service stage to "
                              "PATH (inspect with `repro trace PATH`); "
                              "default: tracing disarmed")
    p_serve.add_argument("--trace-log-max-mb", type=_positive_int,
                         default=None, metavar="MB",
                         help="rotate the trace log before it exceeds MB "
                              "MiB: PATH shifts to PATH.1..PATH.N between "
                              "whole-line writes, so no record is ever torn "
                              "(default: unbounded)")
    p_serve.add_argument("--trace-log-keep", type=_positive_int, default=3,
                         metavar="N",
                         help="rotated trace files to keep (PATH.1..PATH.N; "
                              "default: 3)")
    p_serve.add_argument("--no-quality", action="store_true",
                         help="disable the per-model quality sketch / drift "
                              "scoring tap (responses are byte-identical "
                              "either way)")
    p_serve.set_defaults(func=cmd_serve)

    p_quality = sub.add_parser(
        "quality", help="show a model's data-quality / drift report"
    )
    p_quality.add_argument("ref", metavar="NAME[@VERSION]",
                           help="model reference")
    p_quality.add_argument("--url", default=None, metavar="URL",
                           help="running server base URL; queries "
                                "GET /models/REF/quality (live drift). "
                                "Without it, prints the registry manifest's "
                                "frozen reference stats")
    p_quality.add_argument("--registry", default=DEFAULT_REGISTRY,
                           help=f"registry directory (default: {DEFAULT_REGISTRY})")
    p_quality.add_argument("--json", action="store_true",
                           help="print the raw JSON report")
    p_quality.set_defaults(func=cmd_quality)

    p_trace = sub.add_parser(
        "trace", help="summarize a span log written by serve --trace-log"
    )
    p_trace.add_argument("path", help="span JSONL file")
    p_trace.add_argument("--tail", type=_positive_int, default=None,
                         metavar="N", help="print the last N raw records")
    p_trace.add_argument("--trace", default=None, metavar="ID",
                         help="print one trace's span tree (the X-Trace-Id "
                              "a response echoed)")
    p_trace.set_defaults(func=cmd_trace)

    p_bench = sub.add_parser(
        "bench", help="benchmark the conv engine vs the reference implementation"
    )
    p_bench.add_argument("--out", default="BENCH_engine.json",
                         help="output JSON path (default: BENCH_engine.json)")
    p_bench.add_argument("--repeats", type=_positive_int, default=5,
                         help="timing repeats for conv micro-benchmarks")
    p_bench.add_argument("--fit-repeats", type=_positive_int, default=2,
                         help="timing repeats for the one-epoch fit benchmark")
    p_bench.add_argument("--quick", action="store_true",
                         help="smoke mode: scaled-down workload, few repeats")
    p_bench.add_argument("--check", action="store_true",
                         help="exit non-zero if any kernel section reports the "
                              "fast engine slower than the reference oracle")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
