"""Ingest observed training event logs and compute empirical TOR and MTBF.

Input is JSON Lines, one event per line:

    {"t_start": 0.0, "t_end": 10.0, "stage": "HealthyRun", "rate": 1.0}

Other keys are ignored. Timestamps are seconds since trace start.
Alternatively, events may carry wall-clock ISO-8601 datetimes in
``wall_start`` / ``wall_end``; those are normalized to seconds relative to
the earliest event. Events must tile the observed interval exactly: gaps and
overlaps are errors. Each event carries a pre-classified stage and rate;
mapping raw logs onto stages (including any precedence between overlapping
degradations) is the log producer's job.
"""
from __future__ import annotations

import datetime as dt
import io
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import TraceParseError, UndefinedMetricError, ValidationError
from .model import (
    RateTimeline,
    StageKind,
    ZERO_RATE_STAGES,
    _check_number,
    _check_ratio,
    _check_stage,
    _check_time,
    _new,
)
from .periods import FAIL_SLOW, FAIL_STOP, StageTotals, period_records
from .timeline import integrate_optimal_time, observed_time, stage_breakdown, tor_of_timeline

SCHEMA_VERSION = 1

# Gap/overlap slack for externally produced timestamps.
CONTIGUITY_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One event of a trace: a span of the time axis in one stage at one rate.

    Construction checks what a timeline segment needs: numeric timestamps, a
    known stage, a rate in [0, 1] and a finite non-negative duration.
    """

    t_start: float
    t_end: float
    stage: StageKind
    rate: float
    # Optional exact duration; timestamps are cumulative sums, so t_end -
    # t_start alone cannot reproduce a source timeline bit-for-bit.
    exact_duration: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "t_start", _check_number("t_start", self.t_start))
        object.__setattr__(self, "t_end", _check_number("t_end", self.t_end))
        object.__setattr__(self, "stage", _check_stage("stage", self.stage))
        object.__setattr__(self, "rate", _check_ratio("rate", self.rate))
        if self.exact_duration is not None:
            object.__setattr__(self, "exact_duration",
                               _check_number("duration", self.exact_duration))
        _check_time("duration", self.duration)

    @property
    def duration(self) -> float:
        if self.exact_duration is not None:
            return self.exact_duration
        return self.t_end - self.t_start


_set_t_start = TraceEvent.t_start.__set__
_set_t_end = TraceEvent.t_end.__set__
_set_stage = TraceEvent.stage.__set__
_set_rate = TraceEvent.rate.__set__
_set_exact_duration = TraceEvent.exact_duration.__set__


def _event(t_start: float, t_end: float, stage: StageKind, rate: float,
           exact_duration: float | None = None) -> TraceEvent:
    """Build a TraceEvent without the check, for values the package checked or
    produced: float times with a non-negative duration, a StageKind stage and
    a float rate in [0, 1]."""
    ev = _new(TraceEvent)
    _set_t_start(ev, t_start)
    _set_t_end(ev, t_end)
    _set_stage(ev, stage)
    _set_rate(ev, rate)
    _set_exact_duration(ev, exact_duration)
    return ev


def _parse_wall(value: str, line: int, field: str) -> dt.datetime:
    try:
        return dt.datetime.fromisoformat(value)
    except (TypeError, ValueError):
        raise TraceParseError(f"bad ISO-8601 datetime in {field!r}: {value!r}", line) from None


def _is_aware(t: dt.datetime) -> bool:
    return t.utcoffset() is not None


def _number(obj: dict, key: str, line: int) -> float:
    """The JSON number ``obj[key]`` as a float; strings and booleans are rejected."""
    try:
        return _check_number(key, obj[key])
    except KeyError:
        raise TraceParseError(f"missing {key!r}", line) from None
    except ValidationError as e:
        raise TraceParseError(str(e), line) from None


def _event_from_obj(obj: dict, line: int) -> tuple[TraceEvent | None, tuple | None]:
    """Returns (event, None) for numeric timestamps or (None, wall-clock tuple)."""
    if not isinstance(obj, dict):
        raise TraceParseError(f"expected a JSON object, got {type(obj).__name__}", line)
    try:
        stage = StageKind(obj["stage"])
    except KeyError:
        raise TraceParseError("missing 'stage'", line) from None
    except ValueError:
        raise TraceParseError(f"unknown stage {obj.get('stage')!r}", line) from None
    rate = _number(obj, "rate", line)
    if not (math.isfinite(rate) and 0.0 <= rate <= 1.0):
        raise TraceParseError(f"rate must lie in [0, 1], got {rate!r}", line)
    if stage in ZERO_RATE_STAGES and rate != 0.0:
        raise TraceParseError(f"stage {stage} must have rate 0, got {rate!r}", line)
    if stage is StageKind.HEALTHY_RUN and rate != 1.0:
        raise TraceParseError(f"stage {stage} must have rate 1, got {rate!r}", line)
    exact = None
    if "duration" in obj:
        exact = _number(obj, "duration", line)
        if not math.isfinite(exact) or exact <= 0:
            raise TraceParseError(f"duration must be positive, got {exact!r}", line)

    if "t_start" in obj or "t_end" in obj:
        t0, t1 = _number(obj, "t_start", line), _number(obj, "t_end", line)
        if not (math.isfinite(t0) and math.isfinite(t1)) or t0 < 0:
            raise TraceParseError(f"bad timestamps [{t0!r}, {t1!r})", line)
        if t1 <= t0:
            raise TraceParseError(f"t_end must exceed t_start, got [{t0!r}, {t1!r})", line)
        span = t1 - t0
        parsed = _event(t0, t1, stage, rate, exact), None
    elif "wall_start" in obj and "wall_end" in obj:
        w0 = _parse_wall(obj["wall_start"], line, "wall_start")
        w1 = _parse_wall(obj["wall_end"], line, "wall_end")
        if _is_aware(w0) != _is_aware(w1):
            raise TraceParseError("wall_start and wall_end mix timezone-aware and naive times", line)
        if w1 <= w0:
            raise TraceParseError("wall_end must be after wall_start", line)
        span = (w1 - w0).total_seconds()
        parsed = None, (w0, w1, stage, rate)
    else:
        raise TraceParseError("event needs t_start/t_end or wall_start/wall_end", line)
    if exact is not None and abs(exact - span) > CONTIGUITY_TOL * max(1.0, span):
        raise TraceParseError(f"duration {exact!r} disagrees with the event's span {span!r}", line)
    return parsed


def parse_trace(source: IO | bytes | str | Iterable[str]) -> list[TraceEvent]:
    """Parse and validate a JSONL trace; returns events sorted by t_start."""
    if isinstance(source, bytes):
        lines: Iterable[str] = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        lines = io.StringIO(source)
    else:
        lines = source

    events: list[TraceEvent] = []
    wall_events: list[tuple] = []
    for line_no, raw in enumerate(lines, start=1):
        try:
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8")
            if not raw.strip():
                continue
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise TraceParseError(f"invalid JSON: {e.msg}", line_no) from None
        except ValueError as e:  # not UTF-8, or an integer too long to convert
            raise TraceParseError(str(e), line_no) from None
        ev, wall = _event_from_obj(obj, line_no)
        if ev is not None:
            events.append(ev)
        else:
            wall_events.append(wall)

    if events and wall_events:
        raise TraceParseError("trace mixes numeric and wall-clock timestamps")
    if wall_events:
        if len({_is_aware(w0) for w0, *_ in wall_events}) > 1:
            raise TraceParseError("trace mixes timezone-aware and naive wall-clock times")
        origin = min(w0 for w0, *_ in wall_events)
        events = [
            _event((w0 - origin).total_seconds(), (w1 - origin).total_seconds(), st, r)
            for w0, w1, st, r in wall_events
        ]
    if not events:
        raise TraceParseError("empty trace: TOR undefined")

    events.sort(key=lambda e: (e.t_start, e.t_end))
    for prev, cur in zip(events, events[1:]):
        delta = cur.t_start - prev.t_end
        tol = CONTIGUITY_TOL * max(1.0, abs(prev.t_end))
        if delta > tol:
            raise TraceParseError(
                f"gap in trace: interval [{prev.t_end!r}, {cur.t_start!r}) is unclassified"
            )
        if delta < -tol:
            raise TraceParseError(
                f"overlapping events: [{prev.t_start!r}, {prev.t_end!r}) and "
                f"[{cur.t_start!r}, {cur.t_end!r})"
            )
    return events


def trace_to_timeline(events: list[TraceEvent]) -> RateTimeline:
    """Convert contiguous events to a rate timeline (durations in order).

    Every ``TraceEvent`` holds checked values, so their columns are wrapped
    as they are. An event of zero duration (a hand-built one, or a wall-clock
    span that rounds to 0 s) is dropped, as ``RateTimeline`` drops a
    zero-duration segment.
    """
    if not events:
        raise UndefinedMetricError("empty trace: TOR undefined")
    durations = [e.duration for e in events]
    if 0.0 in durations:
        events = [e for e, d in zip(events, durations) if d > 0]
        durations = [d for d in durations if d > 0]
    return RateTimeline._of_columns(durations, [e.rate for e in events],
                                    [e.stage for e in events])


def estimate_mtbf(events: list[TraceEvent]) -> tuple[float | None, float | None]:
    """(fail-stop MTBF, fail-slow MTBF) from complete periods; None if absent.

    Periods are delimited by repair ends; the trailing partial period is
    excluded. Periods containing both a roll-back and a degraded interval are
    ambiguous and excluded from both classes.
    """
    return _mtbf_by_kind(period_records(trace_to_timeline(events)))


def _mtbf_by_kind(records: list[StageTotals]) -> tuple[float | None, float | None]:
    out = []
    for kind in (FAIL_STOP, FAIL_SLOW):
        vals = [r.mtbf for r in records if r.kind == kind]
        out.append(math.fsum(vals) / len(vals) if vals else None)
    return out[0], out[1]


def report(events: list[TraceEvent]) -> dict:
    """Structured trace report: TOR, MTBF estimates, stage and period breakdown."""
    tl = trace_to_timeline(events)
    records = period_records(tl)
    fail_stop_mtbf, fail_slow_mtbf = _mtbf_by_kind(records)
    breakdown = stage_breakdown(tl)
    period_counts: dict[str, int] = {}
    for r in records:
        period_counts[r.kind] = period_counts.get(r.kind, 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "tor": tor_of_timeline(tl),
        "t_opt": integrate_optimal_time(tl),
        "t_obs": observed_time(tl),
        "fail_stop_mtbf": fail_stop_mtbf,
        "fail_slow_mtbf": fail_slow_mtbf,
        "complete_periods": period_counts,
        "stage_breakdown": {
            str(stage): {"time": time, "lost_time": lost}
            for stage, (time, lost) in breakdown.items()
        },
    }


def render_report(rep: dict) -> str:
    """Human-readable rendering of :func:`report` output."""
    def fmt(v):
        return "n/a" if v is None else f"{v:.6f}"

    lines = [
        f"TOR:            {fmt(rep['tor'])}",
        f"optimal time:   {fmt(rep['t_opt'])} s",
        f"observed time:  {fmt(rep['t_obs'])} s",
        f"fail-stop MTBF: {fmt(rep['fail_stop_mtbf'])} s",
        f"fail-slow MTBF: {fmt(rep['fail_slow_mtbf'])} s",
    ]
    if rep["complete_periods"]:
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(rep["complete_periods"].items()))
        lines.append(f"complete periods: {counts}")
    else:
        lines.append("complete periods: none")
    lines.append("stage breakdown (time s / lost s):")
    for stage, d in rep["stage_breakdown"].items():
        lines.append(f"  {stage:<18} {fmt(d['time'])} / {fmt(d['lost_time'])}")
    return "\n".join(lines)


def timeline_to_events(tl: RateTimeline) -> list[TraceEvent]:
    """Lay a timeline onto the absolute time axis starting at 0."""
    events = []
    t = 0.0
    for d, r, stage in zip(tl.durations, tl.rates, tl.stages):
        t_next = t + d
        events.append(_event(t, t_next, stage, r, d))
        t = t_next
    return events


def write_jsonl(events: list[TraceEvent], out: IO) -> None:
    for e in events:
        obj = {"t_start": e.t_start, "t_end": e.t_end, "stage": str(e.stage), "rate": e.rate}
        if e.exact_duration is not None:
            obj["duration"] = e.exact_duration
        out.write(json.dumps(obj) + "\n")
