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

:func:`parse_trace` reads the lines in one pass. Each line must be one JSON
object (blank lines are skipped) and is checked in this order: a known
``stage``; a numeric ``rate`` in [0, 1], and the fixed rate of a stage that
has one (1 for HealthyRun; 0 for CheckpointSave, RollbackWaste and Repair); an
optional ``duration``, finite and positive; then finite ``t_start`` >= 0 and
``t_end`` > ``t_start``, or parseable ``wall_start`` < ``wall_end`` of one kind
(both timezone-aware or both naive); and a ``duration`` that agrees with the
span to 1e-9 relative (absolute below 1 s). Numbers must be JSON numbers, not
strings or booleans. The first failing check is reported with its line. Then
the whole trace must use one timestamp format and one kind of wall clock, and
be non-empty and contiguous. Input whose events tile the time axis exactly
in line order is kept as is; other input is sorted stably by (t_start, t_end)
before the contiguity check. The result is a :class:`Trace`, the checked
columns as a ``RateTimeline`` that :func:`report` reads as it is; a
hand-built :class:`TraceEvent` list goes through :func:`trace_to_timeline`.
"""
from __future__ import annotations

import datetime as dt
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import IO, Iterable

from .errors import TraceParseError, UndefinedMetricError, ValidationError
from .model import (
    FIXED_RATE,
    RateTimeline,
    Segment,
    StageKind,
    _check_fixed_rate,
    _check_number,
    _check_ratio,
)
from .periods import FAIL_SLOW, FAIL_STOP, StageTotals, period_records
# tor_of_timeline stays importable from here, where callers and span hooks name it.
from .timeline import (_BATCH, _NAME, integrate_optimal_time, observed_time, stage_breakdown,
                       tor_of_timeline)

SCHEMA_VERSION = 1

# Gap/overlap slack for externally produced timestamps.
CONTIGUITY_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One hand-built event: a span of the time axis in one stage at one rate.

    Construction checks numeric timestamps, then the event as the
    :class:`Segment` it stands for: duration, rate, stage and fixed rate.
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
        if self.exact_duration is not None:
            object.__setattr__(self, "exact_duration",
                               _check_number("duration", self.exact_duration))
        seg = Segment(self.duration, self.rate, self.stage)
        object.__setattr__(self, "stage", seg.stage)
        object.__setattr__(self, "rate", seg.rate)

    @property
    def duration(self) -> float:
        if self.exact_duration is not None:
            return self.exact_duration
        return self.t_end - self.t_start


@dataclass(frozen=True, init=False)
class Trace(RateTimeline):
    """A parsed trace: the timeline of its events, with their start and end times.

    Event ``i`` spans ``[t_start[i], t_end[i])``, in seconds from the trace's
    start, and lasts ``durations[i]``. One built from segments (``Trace(segments)``,
    :meth:`build`, :func:`timeline_to_events`) lays its events out from 0.
    """

    t_start: list[float]
    t_end: list[float]

    def _set(self, durations: list[float], rates: list[float], stages: list[StageKind],
             t_start: list[float] | None = None, t_end: list[float] | None = None) -> None:
        if t_start is None:
            edges = list(accumulate(durations, initial=0.0))
            t_start, t_end = edges[:-1], edges[1:]
        super()._set(durations, rates, stages)
        object.__setattr__(self, "t_start", t_start)
        object.__setattr__(self, "t_end", t_end)


def _parse_wall(value: str, line: int, field: str) -> dt.datetime:
    try:
        return dt.datetime.fromisoformat(value)
    except (TypeError, ValueError):
        raise TraceParseError(f"bad ISO-8601 datetime in {field!r}: {value!r}", line) from None


def _number(obj: dict, key: str, line: int) -> float:
    """The JSON number ``obj[key]`` as a float; strings and booleans are rejected."""
    try:
        return _check_number(key, obj[key])
    except KeyError:
        raise TraceParseError(f"missing {key!r}", line) from None
    except ValidationError as e:
        raise TraceParseError(str(e), line) from None


_fromisoformat = dt.datetime.fromisoformat
_JSON_WS = " \t\n\r"
_scan = json.JSONDecoder().scan_once
_BLANK = object()
_INF = math.inf
_STAGE = {str(s): s for s in StageKind}


def _decode(raw: str | bytes, line: int):
    """``json.loads`` of one line, or _BLANK for a blank line; raises its error.

    Runs for a line the fast scan in :func:`parse_trace` did not take, so the
    message is the one ``json.loads`` gives.
    """
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        if not raw.strip():
            return _BLANK
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise TraceParseError(f"invalid JSON: {e.msg}", line) from None
    except ValueError as e:  # not UTF-8, or an integer too long to convert
        raise TraceParseError(str(e), line) from None
    except RecursionError:
        raise TraceParseError("JSON nested too deeply", line) from None


def _wall_times(obj: dict, line: int) -> tuple[dt.datetime, dt.datetime]:
    """The checked (wall_start, wall_end) of an event without t_start/t_end.

    A ``fromisoformat`` datetime is timezone-aware exactly when it has a tzinfo.
    """
    try:
        w0 = _fromisoformat(obj["wall_start"])
        w1 = _fromisoformat(obj["wall_end"])
    except (KeyError, TypeError, ValueError):  # find the first check that fails
        if "wall_start" not in obj or "wall_end" not in obj:
            raise TraceParseError("event needs t_start/t_end or wall_start/wall_end",
                                  line) from None
        w0 = _parse_wall(obj["wall_start"], line, "wall_start")
        w1 = _parse_wall(obj["wall_end"], line, "wall_end")
    if (w0.tzinfo is None) != (w1.tzinfo is None):
        raise TraceParseError("wall_start and wall_end mix timezone-aware and naive times", line)
    if w1 <= w0:
        raise TraceParseError("wall_end must be after wall_start", line)
    return w0, w1


def parse_trace(source: IO | bytes | str | Iterable[str]) -> Trace:
    """Parse and validate a JSONL trace into a :class:`Trace` sorted by t_start.

    The checks and their order are those of the module docstring. Each event
    goes into the columns as its line is checked. An event's duration is its
    ``duration`` where it has one, else ``t_end - t_start``; an event whose
    duration is 0 (a wall-clock span that rounds to 0 s) is dropped last.
    """
    if isinstance(source, bytes):  # decoded line by line, as a binary file is
        lines: Iterable[str | bytes] = io.BytesIO(source)
    elif isinstance(source, str):
        lines = io.StringIO(source)
    else:
        lines = source

    # Columns of the events: numeric timestamps (starts, ends) or wall-clock
    # ones (wall_starts, wall_ends); a trace holding both is rejected below.
    starts: list[float] = []
    ends: list[float] = []
    durations: list[float] = []
    wall_starts: list[dt.datetime] = []
    wall_ends: list[dt.datetime] = []
    stages: list[StageKind] = []
    rates: list[float] = []
    for line_no, raw in enumerate(lines, start=1):
        try:
            text = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip(_JSON_WS)
            obj, end = _scan(text, 0)
            if end != len(text):
                raise ValueError("extra data")
        except (StopIteration, ValueError, TypeError, RecursionError):
            # blank, not JSON, nested too deeply, or not text
            obj = _decode(raw, line_no)
            if obj is _BLANK:
                continue

        # The checks run in this order; the first one to fail is reported.
        if type(obj) is not dict:
            raise TraceParseError(f"expected a JSON object, got {type(obj).__name__}", line_no)
        try:
            stage = _STAGE[obj["stage"]]
        except (KeyError, TypeError):  # missing, unknown, or unhashable
            if "stage" not in obj:
                raise TraceParseError("missing 'stage'", line_no) from None
            raise TraceParseError(f"unknown stage {obj['stage']!r}", line_no) from None
        rate = obj.get("rate")
        if type(rate) is not float:
            rate = _number(obj, "rate", line_no)
        if not 0.0 <= rate <= 1.0 or FIXED_RATE.get(stage, rate) != rate:
            try:  # fails, with the message a Segment gives
                _check_fixed_rate(stage, _check_ratio("rate", rate))
            except ValidationError as e:
                raise TraceParseError(str(e), line_no) from None
        exact = obj.get("duration")
        if exact is not None or "duration" in obj:
            if type(exact) is not float:
                exact = _number(obj, "duration", line_no)
            if not 0.0 < exact < _INF:
                raise TraceParseError(f"duration must be positive, got {exact!r}", line_no)

        t0 = obj.get("t_start")
        t1 = obj.get("t_end")
        if type(t0) is float and type(t1) is float or "t_start" in obj or "t_end" in obj:
            if type(t0) is not float:
                t0 = _number(obj, "t_start", line_no)
            if type(t1) is not float:
                t1 = _number(obj, "t_end", line_no)
            if not 0.0 <= t0 < t1 < _INF:
                if not (math.isfinite(t0) and math.isfinite(t1)) or t0 < 0:
                    raise TraceParseError(f"bad timestamps [{t0!r}, {t1!r})", line_no)
                raise TraceParseError(
                    f"t_end must exceed t_start, got [{t0!r}, {t1!r})", line_no)
            span = t1 - t0
            starts.append(t0)
            ends.append(t1)
            durations.append(span if exact is None else exact)
        else:
            w0, w1 = _wall_times(obj, line_no)
            if exact is not None:
                span = (w1 - w0).total_seconds()
            wall_starts.append(w0)
            wall_ends.append(w1)
        if exact is not None:
            tol = CONTIGUITY_TOL * span if span > 1.0 else CONTIGUITY_TOL
            if not -tol <= exact - span <= tol:
                raise TraceParseError(
                    f"duration {exact!r} disagrees with the event's span {span!r}", line_no)
        stages.append(stage)
        rates.append(rate)

    if starts and wall_starts:
        raise TraceParseError("trace mixes numeric and wall-clock timestamps")
    if wall_starts:
        if len({w0.tzinfo is None for w0 in wall_starts}) > 1:
            raise TraceParseError("trace mixes timezone-aware and naive wall-clock times")
        origin = min(wall_starts)
        starts = [(w0 - origin).total_seconds() for w0 in wall_starts]
        ends = [(w1 - origin).total_seconds() for w1 in wall_ends]
        durations = list(map(sub, ends, starts))
    if not starts:
        raise TraceParseError("empty trace: TOR undefined")

    if starts[1:] != ends[:-1]:
        # Not tiled exactly in line order (exact tiling implies sorted order,
        # as no event ends before it starts). Sort stably by (t_start, t_end),
        # then check contiguity with the tolerance.
        keys = list(zip(starts, ends))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        starts, ends, durations, rates, stages = (
            [col[i] for i in order] for col in (starts, ends, durations, rates, stages))
        for i in range(1, len(starts)):
            cur, prev_end = starts[i], ends[i - 1]
            delta = cur - prev_end
            tol = CONTIGUITY_TOL * max(1.0, abs(prev_end))
            if delta > tol:
                raise TraceParseError(
                    f"gap in trace: interval [{prev_end!r}, {cur!r}) is unclassified")
            if delta < -tol:
                raise TraceParseError(
                    f"overlapping events: [{starts[i - 1]!r}, {prev_end!r}) and "
                    f"[{cur!r}, {ends[i]!r})")
    if 0.0 in durations:
        kept = [i for i, d in enumerate(durations) if d]
        starts, ends, durations, rates, stages = (
            [col[i] for i in kept] for col in (starts, ends, durations, rates, stages))
    return Trace._of_columns(durations, rates, stages, starts, ends)


def trace_to_timeline(events: list[TraceEvent]) -> RateTimeline:
    """The rate timeline of hand-built contiguous events (durations in order).

    A ``TraceEvent`` is a checked segment, so the events are read as the
    timeline's segments, and one of zero duration is dropped.
    """
    if not events:
        raise UndefinedMetricError("empty trace: TOR undefined")
    return RateTimeline(events)


def estimate_mtbf(tl: RateTimeline) -> tuple[float | None, float | None]:
    """(fail-stop MTBF, fail-slow MTBF) from complete periods; None if absent.

    Periods are delimited by repair ends; the trailing partial period is
    excluded. Periods containing both a roll-back and a degraded interval are
    ambiguous and excluded from both classes.
    """
    return _mtbf_by_kind(period_records(tl))


def _mtbf_by_kind(records: list[StageTotals]) -> tuple[float | None, float | None]:
    out = []
    for kind in (FAIL_STOP, FAIL_SLOW):
        vals = [r.mtbf for r in records if r.kind == kind]
        out.append(math.fsum(vals) / len(vals) if vals else None)
    return out[0], out[1]


def report(tl: RateTimeline) -> dict:
    """Structured report of a timeline (a parsed :class:`Trace`, say): TOR,
    MTBF estimates, stage and period breakdown."""
    t_obs = observed_time(tl)  # first: it bounds every other sum
    t_opt = integrate_optimal_time(tl)
    records = period_records(tl)
    fail_stop_mtbf, fail_slow_mtbf = _mtbf_by_kind(records)
    breakdown = stage_breakdown(tl)
    return {
        "schema_version": SCHEMA_VERSION,
        "tor": t_opt / t_obs,  # tor_of_timeline(tl), bit for bit
        "t_opt": t_opt,
        "t_obs": t_obs,
        "fail_stop_mtbf": fail_stop_mtbf,
        "fail_slow_mtbf": fail_slow_mtbf,
        "complete_periods": dict(Counter(r.kind for r in records)),
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


def timeline_to_events(tl: RateTimeline) -> Trace:
    """The timeline as a trace laid onto the time axis from 0."""
    return Trace._of_columns(tl.durations, tl.rates, tl.stages)


def write_jsonl(tr: Trace, out: IO) -> None:
    """Write a trace as JSON Lines, one event per line, each with its duration.

    A line is what ``json.dumps`` gives for the event's dict, in the key order
    ``t_start, t_end, stage, rate, duration``. The lines go to ``out`` in
    batches of a fixed number, so the writer's own memory does not grow with
    the trace.
    """
    cols = (tr.t_start, tr.t_end, tr.stages, tr.rates, tr.durations)
    for i in range(0, len(tr), _BATCH):
        text = "".join([
            f'{{"t_start": {t0!r}, "t_end": {t1!r}, "stage": "{_NAME[stage]}", '
            f'"rate": {rate!r}, "duration": {d!r}}}\n'
            for t0, t1, stage, rate, d in zip(*[col[i:i + _BATCH] for col in cols])])
        # repr spells a time that overflowed "inf"; json.dumps spells it "Infinity".
        # No other token of a line contains "inf".
        if "inf" in text:
            text = text.replace("inf", "Infinity")
        out.write(text)
