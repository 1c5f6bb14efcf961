"""Span tracing of torkit's layers from outside the package.

For a traced run only, :func:`install` replaces the module attributes through
which torkit's layers call one another (for example ``torkit.simulator.simulate``,
which ``monte_carlo`` looks up at each call, or ``torkit.trace.period_records``)
with wrappers that record a span per call. :func:`restore` puts the originals
back. A hook whose target no longer exists is reported by name.

A span is ``(name, start, end, parent, op_id, error, info)``: ``parent`` is
the index of the enclosing span or -1, ``info`` a count taken at the call
boundary (segments, events, exit code). Span names are
``<layer>.<function>``, where the layer is the module that defines the
function, so ``torkit.trace.period_records`` records ``periods.period_records``.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _len_result(args, kwargs, result):
    return len(result)


def _len_arg(args, kwargs, result):
    return len(args[0])


def _timeline_segments(args, kwargs, result):
    return len(result.timeline)


def _replications(args, kwargs, result):
    return result.replications


def _exit_code(args, kwargs, result):
    return result


def _timeline_fingerprint(args, kwargs, result):
    """(segments, fingerprint): equal timelines built twice share a fingerprint."""
    segs = args[0].segments
    if not segs:
        return (0, None)
    picks = (segs[0], segs[len(segs) // 2], segs[-1])
    return (len(segs), (len(segs),) + tuple((s.duration, s.rate) for s in picks))


# (module, attribute, what to count at the boundary)
HOOKS = [
    # benchmark -> public API
    ("torkit", "monte_carlo", _replications),
    ("torkit", "parse_trace", _len_result),
    ("torkit", "report", _len_arg),
    ("torkit.cli", "main", _exit_code),
    # cli -> its commands and the layers below
    ("torkit.cli", "cmd_analytic", None),
    ("torkit.cli", "cmd_simulate", None),
    ("torkit.cli", "cmd_trace", None),
    ("torkit.cli", "cmd_compare", None),
    ("torkit.cli", "monte_carlo", _replications),
    ("torkit.cli", "simulate", _timeline_segments),
    ("torkit.cli", "config_from_period", None),
    ("torkit.cli", "realized_period_tor_check", None),
    ("torkit.cli", "stage_breakdown", _len_arg),
    ("torkit.cli", "write_csv", _len_arg),
    ("torkit.analytic", "tor_of_period", None),
    ("torkit.analytic", "tor_mixture_weighted", None),
    ("torkit.analytic", "tor_mixture_time_composite", None),
    ("torkit.analytic", "period_to_timeline", None),
    ("torkit.periods", "mean_periods", _len_arg),
    ("torkit.trace", "parse_trace", _len_result),
    ("torkit.trace", "report", _len_arg),
    ("torkit.trace", "timeline_to_events", _len_arg),
    ("torkit.trace", "write_jsonl", _len_arg),
    # simulator -> periods, timeline
    ("torkit.simulator", "simulate", _timeline_segments),
    ("torkit.simulator", "period_records", _timeline_fingerprint),
    ("torkit.simulator", "mean_periods", _len_arg),
    ("torkit.simulator", "integrate_optimal_time", _len_arg),
    ("torkit.simulator", "observed_time", _len_arg),
    # trace -> periods, timeline
    ("torkit.trace", "trace_to_timeline", _len_arg),
    ("torkit.trace", "estimate_mtbf", _len_arg),
    ("torkit.trace", "period_records", _timeline_fingerprint),
    ("torkit.trace", "integrate_optimal_time", _len_arg),
    ("torkit.trace", "observed_time", _len_arg),
    ("torkit.trace", "stage_breakdown", _len_arg),
    ("torkit.trace", "tor_of_timeline", _len_arg),
]


def span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{fn.__name__.removeprefix('cmd_')}"


class Recorder:
    """Holds the spans of one traced run in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.uncounted: set[str] = set()   # spans whose boundary count failed

    def wrap(self, fn, count):
        name = span_name(fn)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = info = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if error is None and count is not None:
                    try:
                        info = count(args, kwargs, result)
                    except Exception:  # the signature changed; never fail the call
                        self.uncounted.add(name)
                spans[idx] = (name, start, end, parent, self.op_id, error, info)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op_id, error, info in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "op": op_id, "error": error, "info": info}) + "\n")


class Hooks:
    """Installs the wrappers of :data:`HOOKS` and restores the originals."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.installed: list[tuple] = []
        self.missing: list[str] = []

    def install(self) -> None:
        for mod_name, attr, count in HOOKS:
            try:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self.recorder.wrap(original, count))
            self.installed.append((mod, attr, original))

    def restore(self) -> None:
        while self.installed:
            mod, attr, original = self.installed.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


# ---------------------------------------------------------------------------
# per-layer metrics

CLI_COMMANDS = ("analytic", "simulate", "trace", "compare")

# Where each layer metric should show: the end-to-end metric and workload.
_SIM = "ops_per_s, op_p50_ms on mc_sweep; op_p90_ms on cli_roundtrip"
_MC = "ops_per_s on mc_sweep"
_MC_TF = "ops_per_s on mc_sweep and trace_fleet"
_TF = "ops_per_s, op_p50_ms on trace_fleet"
_CLI_P50 = "op_p50_ms on cli_roundtrip"
_CLI_P90 = "op_p90_ms on cli_roundtrip"
_FAILED = "failed_ratio"

# name: (unit, better, where it should show)
LAYER_METRICS = {
    "simulator.simulate.calls": ("count", "lower", _SIM),
    "simulator.segments": ("count", "lower", _SIM),
    "simulator.simulate.self_s": ("s", "lower", _SIM),
    "simulator.us_per_segment": ("us", "lower", _SIM),
    "simulator.replications": ("count", "lower", _MC),
    "simulator.monte_carlo.self_s": ("s", "lower", _MC),
    "simulator.diverged": ("count", "lower", _FAILED),
    "simulator.alloc_peak_mb": ("MB", "lower", "peak_rss_mb on mc_sweep"),
    "model.segment_build_us": ("us", "lower", _MC_TF),
    "periods.period_records.calls": ("count", "lower", _MC_TF),
    "periods.period_records.self_s": ("s", "lower", _MC_TF),
    "periods.us_per_segment": ("us", "lower", _MC_TF),
    "periods.mean_periods.self_s": ("s", "lower", _MC_TF),
    "periods.split_useful_ratio": ("ratio", "higher", "ops_per_s on trace_fleet"),
    "timeline.calls": ("count", "lower", "ops_per_s on every workload"),
    "timeline.self_s": ("s", "lower", "ops_per_s on every workload"),
    "timeline.write_csv.self_s": ("s", "lower", _CLI_P90),
    "trace.events": ("count", "lower", _TF),
    "trace.parse_trace.self_s": ("s", "lower", _TF),
    "trace.parse_us_per_event": ("us", "lower", _TF),
    "trace.report.self_s": ("s", "lower", _TF),
    "trace.report_us_per_event": ("us", "lower", _TF),
    "trace.write_jsonl.self_s": ("s", "lower", _CLI_P90),
    "trace.timeline_to_events.self_s": ("s", "lower", _CLI_P90),
    "trace.parse_errors": ("count", "lower", _FAILED),
    "analytic.calls": ("count", "lower", _CLI_P50),
    "analytic.self_s": ("s", "lower", _CLI_P50),
    **{f"cli.{c}.{k}": (unit, "lower", _CLI_P50)
       for c in CLI_COMMANDS for k, unit in (("calls", "count"), ("self_ms", "ms"))},
    "cli.nonzero_exits": ("count", "lower", _FAILED),
    "bench.tracing_overhead": ("ratio", "lower", "none: the cost of tracing itself"),
}


def _self_times(spans: list[tuple]) -> list[float]:
    """Span duration minus the time its (sequential) child spans cover."""
    self_t = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            self_t[parent] -= end - start
    return self_t


def pass_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced pass."""
    self_t = _self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    info_sum: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    fingerprints = set()
    nonzero_exits = 0
    for i, (name, start, end, parent, op_id, error, info) in enumerate(spans):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_s[name] += self_t[i]
        incl_s[name] += end - start
        layer_self[layer] += self_t[i]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            layer_calls[layer] += 1
        if error is not None:
            errors[f"{name}:{error}"] += 1
        if name == "cli.main" and (error is not None or info != 0):
            nonzero_exits += 1
        if name == "periods.period_records" and info is not None:
            info_sum[name] += info[0]
            fingerprints.add((op_id, info[1]))
        elif isinstance(info, (int, float)):
            info_sum[name] += info

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {
        "simulator.simulate.calls": calls["simulator.simulate"],
        "simulator.segments": info_sum["simulator.simulate"],
        "simulator.simulate.self_s": self_s["simulator.simulate"],
        "simulator.us_per_segment": ratio(self_s["simulator.simulate"],
                                          info_sum["simulator.simulate"], 1e6),
        "simulator.replications": info_sum["simulator.monte_carlo"],
        "simulator.monte_carlo.self_s": self_s["simulator.monte_carlo"],
        "simulator.diverged": errors["simulator.simulate:DivergedError"],
        "periods.period_records.calls": calls["periods.period_records"],
        "periods.period_records.self_s": self_s["periods.period_records"],
        "periods.us_per_segment": ratio(self_s["periods.period_records"],
                                        info_sum["periods.period_records"], 1e6),
        "periods.mean_periods.self_s": self_s["periods.mean_periods"],
        "periods.split_useful_ratio": ratio(len(fingerprints), calls["periods.period_records"]),
        "timeline.calls": layer_calls["timeline"],
        "timeline.self_s": layer_self["timeline"],
        "timeline.write_csv.self_s": self_s["timeline.write_csv"],
        "trace.events": info_sum["trace.parse_trace"],
        "trace.parse_trace.self_s": self_s["trace.parse_trace"],
        "trace.parse_us_per_event": ratio(incl_s["trace.parse_trace"],
                                          info_sum["trace.parse_trace"], 1e6),
        "trace.report.self_s": self_s["trace.report"],
        "trace.report_us_per_event": ratio(incl_s["trace.report"],
                                           info_sum["trace.report"], 1e6),
        "trace.write_jsonl.self_s": self_s["trace.write_jsonl"],
        "trace.timeline_to_events.self_s": self_s["trace.timeline_to_events"],
        "trace.parse_errors": errors["trace.parse_trace:TraceParseError"],
        "analytic.calls": layer_calls["analytic"],
        "analytic.self_s": layer_self["analytic"],
        "cli.nonzero_exits": nonzero_exits,
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.calls"] = calls[f"cli.{cmd}"]
        m[f"cli.{cmd}.self_ms"] = self_s[f"cli.{cmd}"] * 1e3
    return m


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts and ratios of counts are the same in every pass, so the first
    pass gives them; times are the median over passes."""
    return {
        k: per_pass[0][k] if LAYER_METRICS[k][0] in ("count", "ratio")
        else statistics.median(p[k] for p in per_pass)
        for k in per_pass[0]
    }


# ---------------------------------------------------------------------------
# probes that timing wrappers cannot give

def segment_build_us(triples: list[tuple], repeats: int = 5) -> float | None:
    """Median microseconds per segment of ``RateTimeline.build`` on ``triples``."""
    from torkit.model import RateTimeline

    build = getattr(RateTimeline, "build", None)
    if build is None or not triples:
        return None
    times = []
    for _ in range(repeats):
        start = perf_counter()
        build(triples)
        times.append(perf_counter() - start)
    return statistics.median(times) / len(triples) * 1e6


def alloc_peak_mb(cfg_dict: dict) -> float:
    """tracemalloc peak of one ``simulate`` of ``cfg_dict``, in MB."""
    import tracemalloc

    import torkit

    cfg = torkit.SimConfig.from_dict(cfg_dict)
    tracemalloc.start()
    try:
        torkit.simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


