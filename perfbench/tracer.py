"""Per-layer spans, recorded by wrapping the program's public functions.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
public functions and methods of the ``repro`` modules with timing
wrappers, so a traced run measures the same code an untraced run executes.
Each span records its name, start, end, parent and the thread CPU time it
used, plus a count (rows, flops) where a layer's work has a natural unit.

Spans stay in memory.  A process started through ``launch.py`` writes them
to ``spans-<pid>.jsonl`` in the trace directory when it exits.  Forked
children (trainer shards, export workers) leave through ``os._exit`` or a
terminate signal, which skip exit handlers, so a child writes its spans
each time its outermost span ends instead.

Where the program already keeps phase totals (``ParallelTrainer.profile``)
they are recorded beside the spans as ``program`` records.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes
_cpu = time.thread_time


class Recorder:
    """Collects the spans of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[list] = []
        self.program: list[dict] = []
        self.net_roles: dict[int, str] = {}
        self._local = threading.local()
        self._ids = 0
        self._ids_lock = threading.Lock()
        self._child = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._ids_lock:
            self._ids += 1
            return self._ids

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        # A span inside a span of the same name is not counted twice.
        nested = any(entry[1] == name for entry in stack)
        sid = self._next_id()
        stack.append((sid, name))
        return sid, parent, nested

    def end(self, token: tuple, name: str, t0: float, t1: float,
            cpu: float | None, attrs: dict | None = None) -> None:
        sid, parent, nested = token
        stack = self._stack()
        stack.pop()
        self.spans.append([sid, parent, name, t0, t1, cpu,
                           threading.get_ident(), nested, attrs])
        if self._child and not stack:
            self.flush()

    def add(self, name: str, t0: float, t1: float, cpu: float | None = None,
            attrs: dict | None = None) -> None:
        """Record a span the caller timed itself."""
        token = self.begin(name)
        self.end(token, name, t0, t1, cpu, attrs)

    def add_program(self, source: str, t0: float, totals: dict) -> None:
        self.program.append({"source": source, "t": t0, "totals": totals})

    def flush(self) -> None:
        """Append the pending records to this process's span file."""
        if not self.spans and not self.program:
            return
        pid = os.getpid()
        lines = [json.dumps({"pid": pid, "span": s}) for s in self.spans]
        lines += [json.dumps({"pid": pid, "program": p}) for p in self.program]
        self.spans, self.program = [], []
        path = os.path.join(self.out_dir, f"spans-{pid}.jsonl")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, ("\n".join(lines) + "\n").encode())
        finally:
            os.close(fd)

    def records(self) -> tuple[list[dict], list[dict]]:
        """This process's records, in the form :func:`read_records` returns."""
        pid = os.getpid()
        return ([_span_dict(pid, s) for s in self.spans],
                [dict(p, pid=pid) for p in self.program])

    def _after_fork_in_child(self) -> None:
        self.spans, self.program = [], []
        self._local = threading.local()
        self._child = True


def _span_dict(pid: int, span: list) -> dict:
    sid, parent, name, t0, t1, cpu, tid, nested, attrs = span
    return {"pid": pid, "id": sid, "parent": parent, "name": name, "t0": t0,
            "t1": t1, "cpu": cpu, "tid": tid, "nested": nested,
            "attrs": attrs or {}}


def read_records(out_dir: str) -> tuple[list[dict], list[dict]]:
    """Every span and program record the processes wrote under ``out_dir``."""
    spans, program = [], []
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "span" in record:
                    spans.append(_span_dict(record["pid"], record["span"]))
                else:
                    program.append(dict(record["program"], pid=record["pid"]))
    return spans, program


# ----------------------------------------------------------------------
# Wrappers.
# ----------------------------------------------------------------------
def _wrap(rec: Recorder, fn, name, attrs_of=None):
    """``fn`` timed as a span named ``name`` (a string or ``name(args)``)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args) if callable(name) else name
        token = rec.begin(label)
        c0 = _cpu()
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.end(token, label, t0, _clock(), _cpu() - c0)
            raise
        t1 = _clock()
        rec.end(token, label, t0, t1, _cpu() - c0,
                attrs_of(args, result) if attrs_of else None)
        return result

    return wrapper


class _TimedIterator:
    """Times the work done inside a generator's ``next`` calls."""

    def __init__(self, rec: Recorder, name: str, iterator):
        self._rec, self._name, self._it = rec, name, iterator
        self._busy = self._used = 0.0
        self._first = None
        self._rows = 0

    def __iter__(self):
        return self

    def __next__(self):
        c0 = _cpu()
        t0 = _clock()
        if self._first is None:
            self._first = t0
        try:
            item = next(self._it)
        except StopIteration:
            self._busy += _clock() - t0
            self._used += _cpu() - c0
            self._rec.add(self._name, self._first, self._first + self._busy,
                          self._used, {"rows": self._rows})
            raise
        self._busy += _clock() - t0
        self._used += _cpu() - c0
        self._rows += 1
        return item


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module name bound to ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _rows(args, result) -> dict:
    return {"rows": int(result.shape[0])}


def _conv_fwd(args, result) -> dict:
    # One multiply-add per output element, input channel and kernel tap.
    layer = args[0]
    return {"flops": 2.0 * result.size * layer.in_channels * layer.kernel ** 2}


def _conv_bwd(args, result) -> dict:
    # Weight gradient plus input gradient: twice the forward work.
    layer, grad = args[0], args[1]
    return {"flops": 4.0 * grad.size * layer.in_channels * layer.kernel ** 2}


def _deconv_fwd(args, result) -> dict:
    layer, x = args[0], args[1]
    return {"flops": 2.0 * x.size * layer.out_channels * layer.kernel ** 2}


def _deconv_bwd(args, result) -> dict:
    layer = args[0]
    return {"flops": 4.0 * result.size * layer.out_channels * layer.kernel ** 2}


def install(out_dir: str) -> Recorder:
    """Wrap the layer boundaries of the ``repro`` modules; returns the recorder.

    The modules are imported first, so rebinding reaches every module that
    imported a wrapped function by name.
    """
    import repro.cli  # noqa: F401  (imports the training and serving stack)
    import repro.core.losses as losses
    import repro.core.parallel as parallel
    import repro.core.sampler as sampler
    import repro.core.trainer as trainer
    import repro.data.datasets.registry as datasets
    import repro.data.encoding as encoding
    import repro.data.io as data_io
    import repro.nn as nn
    import repro.serve.quality as serve_quality
    import repro.serve.registry as registry
    import repro.serve.server.batcher as batcher
    import repro.serve.server.http as http
    import repro.serve.service as service
    import repro.serve.sinks as sinks

    rec = Recorder(out_dir)

    def net_span(phase: str):
        def name(args) -> str:
            net = args[0]
            role = rec.net_roles.get(id(net))
            if role is None:  # a generator rebuilt for sampling
                role = "G" if isinstance(net.layers[-1], nn.Tanh) else "D"
            return f"nn.{role}.{phase}"
        return name

    Seq = nn.Sequential
    for method, phase in (("forward", "fwd"), ("stream_forward", "fwd"),
                          ("backward_from", "bwd"), ("backward_to", "bwd")):
        setattr(Seq, method, _wrap(rec, getattr(Seq, method), net_span(phase)))
    for cls, key, fwd, bwd in ((nn.Conv2D, "conv", _conv_fwd, _conv_bwd),
                               (nn.ConvTranspose2D, "deconv", _deconv_fwd, _deconv_bwd),
                               (nn.BatchNorm, "bn", None, None)):
        cls.forward = _wrap(rec, cls.forward, f"nn.{key}.fwd", fwd)
        cls.backward = _wrap(rec, cls.backward, f"nn.{key}.bwd", bwd)
    nn.Adam.step = _wrap(rec, nn.Adam.step, "nn.adam.step")

    trainer_init = trainer.TableGanTrainer.__init__

    @functools.wraps(trainer_init)
    def init_naming_nets(self, generator, discriminator, classifier, *args, **kwargs):
        trainer_init(self, generator, discriminator, classifier, *args, **kwargs)
        rec.net_roles = {id(generator): "G", id(discriminator): "D"}
        if classifier is not None:
            rec.net_roles[id(classifier)] = "C"

    trainer.TableGanTrainer.__init__ = init_naming_nets
    trainer.TableGanTrainer.train = _wrap(
        rec, trainer.TableGanTrainer.train, "trainer.epoch")
    parallel_train = _wrap(rec, parallel.ParallelTrainer.train, "trainer.epoch")

    @functools.wraps(parallel_train)
    def parallel_train_reported(self, *args, **kwargs):
        t0 = _clock()
        try:
            return parallel_train(self, *args, **kwargs)
        finally:
            rec.add_program("parallel", t0, self.profile.snapshot())

    parallel.ParallelTrainer.train = parallel_train_reported
    for fn_name in ("discriminator_loss", "generator_adversarial_loss",
                    "information_loss", "classification_loss"):
        original = getattr(losses, fn_name)
        _rebind(original, _wrap(rec, original, "trainer.loss"))

    Sampler = sampler.RecordSampler
    Sampler.sample_matrices = _wrap(rec, Sampler.sample_matrices,
                                    "sampler.generate", _rows)
    Sampler.matrices_from_latents = _wrap(rec, Sampler.matrices_from_latents,
                                          "sampler.generate", _rows)

    Codec = encoding.TableCodec
    Codec.fit = _wrap(rec, Codec.fit, "data.prepare")
    Codec.encode = _wrap(rec, Codec.encode, "data.prepare")
    Codec.decode = _wrap(rec, Codec.decode, "data.decode")
    _rebind(datasets.load_dataset,
            _wrap(rec, datasets.load_dataset, "data.prepare"))
    _rebind(data_io.decoded_rows, _wrap(
        rec, data_io.decoded_rows, "data.render",
        lambda args, result: {"rows": len(result)}))
    iter_rows = data_io.iter_decoded_rows

    @functools.wraps(iter_rows)
    def timed_iter_rows(*args, **kwargs):
        return _TimedIterator(rec, "data.render", iter_rows(*args, **kwargs))

    _rebind(iter_rows, timed_iter_rows)

    registry.ModelRegistry.load = _wrap(rec, registry.ModelRegistry.load,
                                        "registry.load")

    Service = service.SynthesisService
    Service.take_pooled = _wrap(
        rec, Service.take_pooled, "service.take_pooled",
        lambda args, result: {"hit": result is not None,
                              "rows": args[1] if result is not None else 0})
    Service.take_block = _wrap(
        rec, Service.take_block, "service.take_block",
        lambda args, result: {"requests": len(args[1]),
                              "rows": int(sum(args[1]))})
    Service.replenish = _wrap(rec, Service.replenish, "service.replenish")

    submit = _wrap(rec, batcher.CoalescingBatcher.submit, "server.submit")
    render_from = threading.local()

    @functools.wraps(submit)
    def submit_marking_cpu(*args, **kwargs):
        try:
            return submit(*args, **kwargs)
        finally:
            render_from.cpu = _cpu()

    batcher.CoalescingBatcher.submit = submit_marking_cpu
    observe_render = http.SynthesisServer.observe_render

    @functools.wraps(observe_render)
    def observe_render_span(self, seconds):
        # The server times its own response render; the span ends now.  Its
        # thread CPU is what the handler used since its submit returned.
        now = _clock()
        started = getattr(render_from, "cpu", None)
        render_from.cpu = None
        rec.add("server.render", now - seconds, now,
                None if started is None else _cpu() - started)
        return observe_render(self, seconds)

    http.SynthesisServer.observe_render = observe_render_span

    Monitor = serve_quality.QualityMonitor
    Monitor.tap = _wrap(rec, Monitor.tap, "quality.tap")

    for cls in (sinks.CsvSink, sinks.NpzSink):
        cls.write = _wrap(rec, cls.write, "sinks.write",
                          lambda args, result: {"rows": result})
        cls.__init__ = _marking_open(rec, cls.__init__)

    os.register_at_fork(after_in_child=rec._after_fork_in_child)
    return rec


def _marking_open(rec: Recorder, init):
    """Records a zero-length ``sinks.open`` span when a sink is created."""

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        now = _clock()
        rec.add("sinks.open", now, now)

    return wrapper
