"""Per-layer metrics: span totals over the timed windows of a traced run.

Time totals count the part of each span that lies inside a timed window;
counts (calls, rows, flops) count the spans that start inside one.  The
two set-up layers (``data.prepare``, ``registry.load``) explain ``setup_s``
rather than throughput, so they count over the whole traced run instead.
A span inside a span of the same name is not counted twice.
"""

from __future__ import annotations

from collections import defaultdict

#: Every per-layer metric, with its unit, in report order.
METRICS = [
    ("nn.G.fwd_s", "s"), ("nn.G.bwd_s", "s"),
    ("nn.D.fwd_s", "s"), ("nn.D.bwd_s", "s"),
    ("nn.C.fwd_s", "s"), ("nn.C.bwd_s", "s"),
    ("nn.conv.fwd_s", "s"), ("nn.conv.bwd_s", "s"),
    ("nn.deconv.fwd_s", "s"), ("nn.deconv.bwd_s", "s"),
    ("nn.bn.fwd_s", "s"), ("nn.bn.bwd_s", "s"),
    ("nn.adam.step_s", "s"), ("nn.conv.gflop_per_s", "GFLOP/s"),
    ("trainer.epoch_s", "s"), ("trainer.loss_s", "s"),
    ("parallel.shard_compute_s", "s"), ("parallel.reduce_wait_s", "s"),
    ("parallel.reduce_s", "s"), ("parallel.optimizer_step_s", "s"),
    ("parallel.bn_replay_s", "s"), ("parallel.rounds", "count"),
    ("sampler.generate_s", "s"), ("sampler.rows", "rows"),
    ("sampler.rows_per_call", "rows"),
    ("data.prepare_s", "s"), ("data.decode_s", "s"), ("data.render_s", "s"),
    ("registry.load_s", "s"),
    ("service.pool_hit_frac", "fraction"), ("service.replenish_s", "s"),
    ("service.generated_per_served", "ratio"),
    ("server.submit_s", "s"), ("server.render_s", "s"),
    ("server.requests_per_tick", "requests"),
    ("quality.tap_s", "s"),
    ("sinks.write_s", "s"), ("sinks.mb_written", "MiB"), ("fanout.wait_s", "s"),
    ("proc.cpu_s", "s"), ("proc.cpu_util", "fraction"),
    ("loadgen.cpu_frac", "fraction"),
    ("trace.overhead_frac", "fraction"), ("trace.self_frac", "fraction"),
] + [(f"{span}_cpu_s", "s") for span in (
    # Thread-CPU twins of the layers that run in the serving process.
    "nn.G.fwd", "nn.deconv.fwd", "nn.bn.fwd", "sampler.generate",
    "data.decode", "data.render", "registry.load", "service.replenish",
    "server.submit", "server.render", "quality.tap")]

#: Metrics copied from the program's own ``ParallelTrainer.profile``.
PROGRAM_REPORTED = {
    "parallel.shard_compute_s": "shard_compute",
    "parallel.reduce_wait_s": "reduce_wait",
    "parallel.reduce_s": "reduce",
    "parallel.optimizer_step_s": "optimizer_step",
    "parallel.bn_replay_s": "bn_replay",
}

_SETUP_SPANS = {"data.prepare", "registry.load"}
#: Spans that enclose a whole unit of work; coverage by them is not
#: attribution to a layer.
_ROOT_SPANS = {"trainer.epoch", "sinks.open"}
_FLOP_SPANS = ("nn.conv.fwd", "nn.conv.bwd", "nn.deconv.fwd", "nn.deconv.bwd")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def per_layer(spans: list[dict], program: list[dict], windows: list[tuple],
              extra: dict) -> dict[str, float]:
    """Every metric of :data:`METRICS` from a traced run.

    ``windows`` holds ``(t0, t1, pid)`` timed windows, ``pid`` naming the
    process whose uncovered time is ``trace.self_frac``.  ``extra`` supplies
    the metrics measured outside the spans (``proc.*``, ``loadgen.cpu_frac``,
    ``trace.overhead_frac``, ``sinks.mb_written``).
    """
    def in_window(t: float) -> bool:
        return any(a <= t < b for a, b, _ in windows)

    def inside(t0: float, t1: float) -> float:
        return sum(max(0.0, min(t1, b) - max(t0, a)) for a, b, _ in windows)

    wall: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple, float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        if span["nested"]:
            continue
        duration = span["t1"] - span["t0"]
        share = 1.0 if name in _SETUP_SPANS else (
            inside(span["t0"], span["t1"]) / duration if duration > 0 else 0.0)
        wall[name] += duration * share
        cpu[name] += (span["cpu"] or 0.0) * share
        if name in _SETUP_SPANS or in_window(span["t0"]):
            calls[name] += 1
            for key, value in span["attrs"].items():
                counts[(name, key)] += float(value)

    out: dict[str, float] = {}
    for metric, _ in METRICS:
        if metric.endswith("_cpu_s"):
            out[metric] = cpu[metric[:-len("_cpu_s")]]
        elif metric.endswith("_s") and metric not in PROGRAM_REPORTED:
            out[metric] = wall[metric[:-len("_s")]]

    phases: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_s": 0.0})
    for record in program:
        if record["source"] == "parallel" and in_window(record["t"]):
            for phase, entry in record["totals"].items():
                phases[phase]["count"] += entry["count"]
                phases[phase]["total_s"] += entry["total_s"]
    for metric, phase in PROGRAM_REPORTED.items():
        out[metric] = phases[phase]["total_s"]
    out["parallel.rounds"] = float(phases["shard_compute"]["count"])

    flops = sum(counts[(name, "flops")] for name in _FLOP_SPANS)
    flop_time = sum(span["t1"] - span["t0"] for span in spans
                    if span["name"] in _FLOP_SPANS and in_window(span["t0"]))
    out["nn.conv.gflop_per_s"] = _ratio(flops, flop_time) / 1e9
    out["sampler.rows"] = counts[("sampler.generate", "rows")]
    out["sampler.rows_per_call"] = _ratio(out["sampler.rows"], calls["sampler.generate"])
    served = counts[("service.take_pooled", "rows")] + counts[("service.take_block", "rows")]
    out["service.pool_hit_frac"] = _ratio(counts[("service.take_pooled", "hit")],
                                          calls["service.take_pooled"])
    out["service.generated_per_served"] = _ratio(out["sampler.rows"], served) if served else 0.0
    out["server.requests_per_tick"] = _ratio(counts[("service.take_block", "requests")],
                                             calls["service.take_block"])
    out["fanout.wait_s"] = _fanout_wait(spans, in_window)

    covered = 0.0
    for a, b, pid in windows:
        covered += _union_length(
            (max(s["t0"], a), min(s["t1"], b)) for s in spans
            if s["pid"] == pid and s["name"] not in _ROOT_SPANS
            and s["t0"] < b and s["t1"] > a)
    span_total = sum(b - a for a, b, _ in windows)
    out["trace.self_frac"] = 1.0 - _ratio(covered, span_total)
    out.update(extra)
    return out


def _fanout_wait(spans: list[dict], in_window) -> float:
    """Time the exporting process spent between sink writes: waiting for
    its next block, whichever module supplies it."""
    by_pid: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["name"] in ("sinks.open", "sinks.write"):
            by_pid[span["pid"]].append(span)
    waited = 0.0
    for events in by_pid.values():
        events.sort(key=lambda s: s["t0"])
        previous_end = None
        for span in events:
            if span["name"] == "sinks.open":
                previous_end = span["t1"]
                continue
            if previous_end is not None and in_window(previous_end):
                waited += span["t0"] - previous_end
            previous_end = span["t1"]
    return waited
