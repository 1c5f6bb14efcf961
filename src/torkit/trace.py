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
``t_end`` > ``t_start`` (or equal, if the event has a ``duration``), or
parseable ``wall_start`` < ``wall_end`` of one kind (both timezone-aware or
both naive); and a ``duration`` that agrees with the span to 1e-9 times
``max(1, t_end)``, the contiguity check's scale, or for a wall-clock event
times ``max(1, span)``. Numbers must be JSON numbers, not strings or
booleans. The first failing check is reported with its line. Then the whole
trace must use one timestamp format and one kind of wall clock, and be
non-empty and contiguous. Input whose events tile the time axis exactly
in line order is kept as is; other input is sorted stably by (t_start, t_end)
before the contiguity check. The result is the ``RateTimeline`` of the
checked events; one period pass of :func:`report` gives both its period
records and its stage breakdown. It keeps durations, not timestamps:
:func:`write_jsonl`, like the CSV writer, lays any timeline out from 0: each
calls ``timeline.write_lines``, the one pass that writes either format or both. A trace
built by hand is a list of event dicts, checked as the lines they stand for.
"""
from __future__ import annotations

import datetime as dt
import io
import json
import math
from collections import Counter
from operator import sub
from typing import IO, Iterable

from .errors import TraceParseError, ValidationError
from .model import (
    FIXED_RATE,
    RateTimeline,
    StageKind,
    _check_fixed_rate,
    _check_number,
    _check_ratio,
)
from .periods import FAIL_SLOW, FAIL_STOP, StageTotals, period_records
# tor_of_timeline and stage_breakdown stay importable here, where callers and span hooks name them.
from .timeline import (breakdown_lines, breakdown_to_dict, integrate_optimal_time,
                       observed_time, stage_breakdown, tor_of_timeline, write_lines)

SCHEMA_VERSION = 1

# Gap/overlap slack for externally produced timestamps.
CONTIGUITY_TOL = 1e-9


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


def _decode(raw, line: int):
    """``json.loads`` of one line, or _BLANK for a blank line; raises its error.

    Runs for a line the fast scan in :func:`parse_trace` did not take, so the
    message is the one ``json.loads`` gives. An item that is not ``str`` or
    ``bytes`` is already decoded and is returned as it is.
    """
    if not isinstance(raw, (str, bytes)):
        return raw
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


def _wall_times(obj: dict, line: int, w0=None) -> tuple[dt.datetime, dt.datetime]:
    """The checked (wall_start, wall_end) of an event without t_start/t_end.

    ``w0`` is wall_start if parsed already; a datetime is aware iff it has a tzinfo.
    """
    try:
        if w0 is None:
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


def parse_trace(source: IO | bytes | str | Iterable) -> RateTimeline:
    """Parse and validate a JSONL trace into the ``RateTimeline`` of its
    events, sorted by t_start.

    The checks and their order are those of the module docstring. Each event goes
    into the columns as its line is checked. An item of ``source`` that is not
    ``str`` or ``bytes`` is taken as the decoded JSON value of its line, so a
    hand-built list of event dicts is checked as its JSONL would be. A numeric
    event's duration is its ``duration`` where it has one, else ``t_end - t_start``.
    A wall-clock event's ``duration`` is checked, then unused: its duration is its
    end less its start, each in seconds from the trace's origin. An event whose
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
    parsed: list[int] = []  # the events whose wall_start was parsed, not reused
    last_end = _BLANK  # the last wall_end as its line spells it
    stages: list[StageKind] = []
    rates: list[float] = []
    for line_no, raw in enumerate(lines, start=1):
        try:
            text = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip(_JSON_WS)
            obj, end = _scan(text, 0)
            if end != len(text):
                raise ValueError("extra data")
        except (StopIteration, ValueError, TypeError, RecursionError, AttributeError):
            # blank, not JSON, nested too deeply, or not text (a decoded item)
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
                if t1 < t0 or exact is None:  # an empty span needs its duration
                    raise TraceParseError(
                        f"t_end must exceed t_start, got [{t0!r}, {t1!r})", line_no)
            span = t1 - t0
            starts.append(t0)
            ends.append(t1)
            durations.append(span if exact is None else exact)
        else:
            if obj.get("wall_start") == last_end:  # parsed already, as w1
                w0, w1 = _wall_times(obj, line_no, w1)
            else:
                w0, w1 = _wall_times(obj, line_no)
                parsed.append(len(wall_ends))
                wall_starts.append(w0)
            if exact is not None:
                span = (w1 - w0).total_seconds()
            wall_ends.append(w1)
            last_end = obj["wall_end"]
        if exact is not None:
            # Scaled as the contiguity check scales numeric stamps (t1); a
            # wall-clock event (t1 is None) by its span.
            scale = span if t1 is None else t1
            tol = CONTIGUITY_TOL * scale if scale > 1.0 else CONTIGUITY_TOL
            if not -tol <= exact - span <= tol:
                raise TraceParseError(
                    f"duration {exact!r} disagrees with the event's span {span!r}", line_no)
        stages.append(stage)
        rates.append(rate)

    if starts and wall_starts:
        raise TraceParseError("trace mixes numeric and wall-clock timestamps")
    if wall_starts:
        # Every start not in wall_starts is an earlier event's end, so it is
        # later than some parsed start and of the same kind of clock.
        if len({w0.tzinfo is None for w0 in wall_starts}) > 1:
            raise TraceParseError("trace mixes timezone-aware and naive wall-clock times")
        origin = min(wall_starts)
        ends = [(w1 - origin).total_seconds() for w1 in wall_ends]
        starts = [0.0, *ends[:-1]]  # a reused start has the seconds of the end before it
        for i, w0 in zip(parsed, wall_starts):
            starts[i] = (w0 - origin).total_seconds()
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
        durations, rates, stages = ([col[i] for i in kept] for col in (durations, rates, stages))
    return RateTimeline._of_columns(durations, rates, stages)


# The hand-built route's old name, kept because the benchmark's span hooks name it.
trace_to_timeline = parse_trace


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
    """Structured report of a timeline (a parsed trace, say): TOR, MTBF
    estimates, stage and period breakdown."""
    t_obs = observed_time(tl)  # first: it bounds every other sum
    t_opt = integrate_optimal_time(tl)
    breakdown: dict[StageKind, tuple[float, float]] = {}  # stage_breakdown(tl), same pass
    records = period_records(tl, _breakdown=breakdown)
    fail_stop_mtbf, fail_slow_mtbf = _mtbf_by_kind(records)
    return {
        "schema_version": SCHEMA_VERSION,
        "tor": t_opt / t_obs,  # tor_of_timeline(tl), bit for bit
        "t_opt": t_opt,
        "t_obs": t_obs,
        "fail_stop_mtbf": fail_stop_mtbf,
        "fail_slow_mtbf": fail_slow_mtbf,
        "complete_periods": dict(Counter(r.kind for r in records)),
        "stage_breakdown": breakdown_to_dict(breakdown),
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
    return "\n".join(lines + breakdown_lines(rep["stage_breakdown"]))


def timeline_to_events(tl: RateTimeline) -> RateTimeline:
    """``tl`` itself, kept under this name because the benchmark's span hooks name it."""
    return tl


def write_jsonl(tl: RateTimeline, out: IO) -> None:
    """Write a timeline as JSON Lines, one event per line, each with its duration:
    :func:`~torkit.timeline.write_lines` with ``jsonl=out``, the one pass that
    writes both of the CLI's formats."""
    write_lines(tl, jsonl=out)
