import datetime as dt
import io
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import IO, Iterable

import pytest

from conftest import concat, mixture_concat_timeline
from torkit import (
    Exponential,
    FailureMixture,
    Fixed,
    LogNormal,
    MixtureComponent,
    RateTimeline,
    Segment,
    SimConfig,
    StageKind,
    TraceParseError,
    ValidationError,
    estimate_mtbf,
    parse_trace,
    period_to_timeline,
    report,
    simulate,
    trace_to_timeline,
    tor_of_timeline,
)
from torkit.model import ZERO_RATE_STAGES
from torkit.periods import FAIL_SLOW, FAIL_STOP, period_records
from torkit.simulator import config_from_period
from torkit.timeline import integrate_optimal_time, observed_time, stage_breakdown, write_csv
from torkit.model import _check_number
import torkit.trace
from torkit.trace import (
    CONTIGUITY_TOL,
    render_report,
    timeline_to_events,
    write_jsonl,
)


def jsonl(*objs) -> str:
    return "\n".join(json.dumps(o) for o in objs) + "\n"


def healthy(t0, t1):
    return {"t_start": t0, "t_end": t1, "stage": "HealthyRun", "rate": 1.0}


def roundtrip(tl):
    buf = io.StringIO()
    write_jsonl(tl, buf)
    return parse_trace(buf.getvalue())


def csv_edges(tl) -> list[tuple[float, float]]:
    """The (t_start, t_end) of each row ``write_csv`` writes for ``tl``."""
    buf = io.StringIO()
    write_csv(tl, buf)
    return [tuple(map(float, row.split(",")[:2])) for row in buf.getvalue().splitlines()[1:]]


class TestParse:
    def test_two_contiguous_events(self):
        tr = parse_trace(jsonl(healthy(0, 10), healthy(10, 20)))
        assert len(tr) == 2
        assert tr.durations == [10.0, 10.0]
        assert csv_edges(tr) == [(0.0, 10.0), (10.0, 20.0)]

    def test_gap_error_names_interval(self):
        with pytest.raises(TraceParseError, match=r"\[10.0, 12.0\)"):
            parse_trace(jsonl(healthy(0, 10), healthy(12, 20)))

    def test_overlap_error(self):
        with pytest.raises(TraceParseError, match="overlap"):
            parse_trace(jsonl(healthy(0, 10), healthy(8, 20)))

    def test_rate_inconsistency(self):
        bad = {"t_start": 0, "t_end": 5, "stage": "Repair", "rate": 0.5}
        with pytest.raises(TraceParseError, match="rate 0"):
            parse_trace(jsonl(bad))

    def test_healthy_must_be_full_rate(self):
        bad = {"t_start": 0, "t_end": 5, "stage": "HealthyRun", "rate": 0.9}
        with pytest.raises(TraceParseError, match="rate 1"):
            parse_trace(jsonl(bad))

    def test_malformed_line_number(self):
        text = jsonl(healthy(0, 10)) + "{not json}\n"
        with pytest.raises(TraceParseError, match="line 2"):
            parse_trace(text)

    def test_extra_keys_ignored(self):
        tr = parse_trace(jsonl(dict(healthy(0, 10), note="warm-up", host="n1")))
        buf = io.StringIO()
        write_jsonl(tr, buf)
        assert json.loads(buf.getvalue()) == {**healthy(0.0, 10.0), "duration": 10.0}

    def test_unknown_stage(self):
        bad = {"t_start": 0, "t_end": 5, "stage": "Napping", "rate": 0.0}
        with pytest.raises(TraceParseError, match="Napping"):
            parse_trace(jsonl(bad))

    @pytest.mark.parametrize("field, value", [
        ("rate", True), ("rate", "1"), ("t_start", "0"), ("t_end", "10"),
        ("t_end", None), ("duration", "10"), ("duration", False),
    ])
    def test_numeric_fields_take_only_json_numbers(self, field, value):
        event = {**healthy(0, 10), "duration": 10.0, field: value}
        with pytest.raises(TraceParseError, match=rf"line 2: {field} must be a number"):
            parse_trace(jsonl(healthy(10, 20), event))

    def test_wall_clock_duration_checked(self):
        event = {"wall_start": "2026-08-23T10:00:00", "wall_end": "2026-08-23T10:00:10",
                 "stage": "HealthyRun", "rate": 1.0}
        assert parse_trace(jsonl(dict(event, duration=10.0))).durations == [10.0]
        with pytest.raises(TraceParseError, match="line 1: duration 5.0 disagrees"):
            parse_trace(jsonl(dict(event, duration=5.0)))

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceParseError, match="empty"):
            parse_trace("")

    def test_unsorted_input_is_sorted(self):
        tr = parse_trace(jsonl(healthy(10, 25), healthy(0, 10)))
        assert tr.durations == [10.0, 15.0]

    def test_bytes_input(self):
        evs = parse_trace(jsonl(healthy(0, 10)).encode())
        assert len(evs) == 1

    @pytest.mark.parametrize("wrap", [bytes, io.BytesIO], ids=["bytes", "binary-file"])
    def test_bytes_decoded_line_by_line(self, wrap):
        data = jsonl(healthy(0, 10)).encode() + b"\xff\n"
        message = "^line 2: 'utf-8' codec can't decode byte 0xff in position 0"
        with pytest.raises(TraceParseError, match=message) as e:
            parse_trace(wrap(data))
        assert e.value.line == 2

    def test_wall_clock_normalization(self):
        tr = parse_trace(jsonl(
            {"wall_start": "2026-08-23T10:00:00", "wall_end": "2026-08-23T10:01:30",
             "stage": "HealthyRun", "rate": 1.0},
            {"wall_start": "2026-08-23T10:01:30", "wall_end": "2026-08-23T10:02:00",
             "stage": "Repair", "rate": 0.0},
        ))
        assert tr.durations == [90.0, 30.0]
        assert tr.stages == [StageKind.HEALTHY_RUN, StageKind.REPAIR]
        assert csv_edges(tr) == [(0.0, 90.0), (90.0, 120.0)]

    def test_span_that_rounds_to_zero_is_dropped(self):
        # 1,000 years from the origin, a 1 us span rounds to 0 s.
        text = jsonl(
            {"wall_start": "2000-01-01T00:00:00", "wall_end": "3000-01-01T00:00:00",
             "stage": "HealthyRun", "rate": 1.0},
            {"wall_start": "3000-01-01T00:00:00", "wall_end": "3000-01-01T00:00:00.000001",
             "stage": "Repair", "rate": 0.0},
        )
        events = reference_parse_trace(text)
        assert [e.duration for e in events] == [31556995200.0, 0.0]
        tr = parse_trace(text)
        assert len(tr) == 1
        assert tr.durations == [31556995200.0] and tr.stages == [StageKind.HEALTHY_RUN]
        assert report(tr) == report(RateTimeline((e.duration, e.rate, e.stage)
                                                 for e in events))

    def test_mixing_time_conventions_rejected(self):
        with pytest.raises(TraceParseError, match="mixes"):
            parse_trace(jsonl(
                healthy(0, 10),
                {"wall_start": "2026-08-23T10:00:00", "wall_end": "2026-08-23T10:01:00",
                 "stage": "Repair", "rate": 0.0},
            ))


def event_dicts(tl):
    """A timeline's events as a hand-built trace: one dict per event, laid out
    from 0, each with its duration."""
    edges = list(accumulate(tl.durations, initial=0.0))
    return [{"t_start": t0, "t_end": t1, "stage": str(stage), "rate": rate, "duration": d}
            for t0, t1, stage, rate, d in zip(edges, edges[1:], tl.stages, tl.rates,
                                             tl.durations)]


class TestTraceToTimeline:
    """A trace built by hand is a list of event dicts. ``trace_to_timeline`` is
    ``parse_trace``, which checks each dict as the JSON line it stands for."""

    def test_is_the_parser(self):
        assert trace_to_timeline is parse_trace

    def test_worked_period_round_trip(self, worked_fail_stop):
        tl = period_to_timeline(worked_fail_stop)
        back = trace_to_timeline(event_dicts(tl))
        assert list(back) == list(tl)
        assert back == tl == roundtrip(tl)
        assert tor_of_timeline(back) == pytest.approx(91 / 110, abs=1e-15)

    def test_single_healthy_event(self):
        tl = trace_to_timeline([healthy(0, 42)])
        assert type(tl) is RateTimeline
        assert tor_of_timeline(tl) == 1.0

    def test_simulator_round_trip(self, worked_fail_stop):
        cfg = config_from_period(worked_fail_stop, periods=50, seed=13)
        res = simulate(cfg)
        back = trace_to_timeline(event_dicts(res.timeline))
        assert list(back) == list(res.timeline)
        assert abs(tor_of_timeline(back) - res.tor) <= 1e-12

    @pytest.mark.parametrize("args, message", [
        ((0.0, 5.0, StageKind.SLOW_RECOVERY, 2.0), "rate must lie in"),
        ((0.0, 5.0, StageKind.SLOW_RECOVERY, -0.5), "rate must lie in"),
        ((5.0, 3.0, StageKind.HEALTHY_RUN, 1.0), "t_end must exceed t_start"),
        ((0.0, 5.0, StageKind.HEALTHY_RUN, 1.0, -5.0), "duration must be positive"),
        ((0.0, math.inf, StageKind.HEALTHY_RUN, 1.0), "bad timestamps"),
        ((0.0, 5.0, "Napping", 0.0), "unknown stage 'Napping'"),
        (("0", 5.0, StageKind.HEALTHY_RUN, 1.0), "t_start must be a number"),
        ((10.0, 15.0, StageKind.REPAIR, 0.5), r"^stage Repair must have rate 0, got 0\.5$"),
        ((0.0, 10.0, "HealthyRun", 0.8), r"^stage HealthyRun must have rate 1, got 0\.8$"),
    ])
    def test_hand_built_event_checked(self, args, message):
        event = dict(zip(["t_start", "t_end", "stage", "rate", "duration"], args))
        with pytest.raises(TraceParseError) as e:
            trace_to_timeline([event])
        assert e.value.line == 1
        assert re.search(message, str(e.value).removeprefix("line 1: "))
        # The error its JSON line gives.
        with pytest.raises(TraceParseError, match=f"^{re.escape(str(e.value))}$"):
            parse_trace(jsonl(event))

    def test_hand_built_events_match_parsed(self):
        hand = [{"t_start": 0, "t_end": 10, "stage": "HealthyRun", "rate": 1},
                {"t_start": 10, "t_end": 12, "stage": StageKind.REPAIR, "rate": 0}]
        tr = trace_to_timeline(hand)
        assert type(tr.durations[0]) is float and type(tr.rates[0]) is float
        parsed = parse_trace(jsonl(healthy(0, 10), {**healthy(10, 12), "stage": "Repair",
                                                    "rate": 0}))
        assert tr == parsed
        assert report(tr) == report(parsed)
        assert (tr.durations, tr.rates, tr.stages) == (
            [10.0, 2.0], [1.0, 0.0], [StageKind.HEALTHY_RUN, StageKind.REPAIR])
        # An empty span needs its duration, which must agree with it.
        empty = {"t_start": 10, "t_end": 10, "stage": "Repair", "rate": 0}
        with pytest.raises(TraceParseError,
                           match=r"^line 2: t_end must exceed t_start, got \[10\.0, 10\.0\)$"):
            trace_to_timeline([hand[0], empty, hand[1]])
        kept = trace_to_timeline([hand[0], {**empty, "duration": 1e-9}, hand[1]])
        assert (kept.durations, kept.stages) == (
            [10.0, 1e-9, 2.0], [StageKind.HEALTHY_RUN, StageKind.REPAIR, StageKind.REPAIR])

    def test_out_of_order_events_are_sorted(self):
        tr = trace_to_timeline([healthy(10, 25), healthy(0, 10)])
        assert tr.durations == [10.0, 15.0]

    @pytest.mark.parametrize("events, message", [
        ([{**healthy(10, 5), "duration": 3}], r"line 1: t_end must exceed t_start"),
        ([healthy(-5, 0), healthy(0, 10)], r"line 1: bad timestamps \[-5\.0, 0\.0\)"),
        ([{**healthy(0, 10), "duration": 12}],
         r"line 1: duration 12\.0 disagrees with the event's span 10\.0"),
        ([healthy(0, 10), healthy(100, 110)], r"gap in trace: interval \[10\.0, 100\.0\)"),
        ([healthy(0, 10), healthy(5, 15)], "overlapping events"),
        ([healthy(0, 10), healthy(10, 10)], "line 2: t_end must exceed t_start"),
        ([], "empty trace"),
    ], ids=["backwards", "negative-start", "disagreeing-duration", "gap", "overlap",
            "empty-span", "empty"])
    def test_parser_rules_hold(self, events, message):
        with pytest.raises(TraceParseError, match=f"^{message}"):
            trace_to_timeline(events)

    @pytest.mark.parametrize("item", [5, None, []], ids=["int", "None", "list"])
    def test_non_object_item_rejected(self, item):
        name = type(item).__name__
        with pytest.raises(TraceParseError, match=f"^line 2: expected a JSON object, got {name}$"):
            parse_trace([healthy(0, 10), item])
        assert (outcome(parse_trace, lambda: [healthy(0, 10), item])
                == outcome(parse_trace, lambda: jsonl(healthy(0, 10), item)))


class TestResplitInvariance:
    def test_tor_invariant_to_event_splits(self, worked_fail_slow):
        tl = period_to_timeline(worked_fail_slow)
        edges = list(accumulate(tl.durations, initial=0.0))
        split = []
        for t0, t1, stage, rate in zip(edges, edges[1:], tl.stages, tl.rates):
            mid = (t0 + t1) / 2
            split.append({"t_start": t0, "t_end": mid, "stage": str(stage), "rate": rate})
            split.append({"t_start": mid, "t_end": t1, "stage": str(stage), "rate": rate})
        resplit = parse_trace(jsonl(*split))
        assert len(resplit) == 2 * len(tl)
        assert tor_of_timeline(resplit) == pytest.approx(tor_of_timeline(tl), abs=1e-12)


class TestEstimateMtbf:
    def test_three_identical_fail_stop_periods(self, worked_fail_stop):
        tl = concat([period_to_timeline(worked_fail_stop)] * 3)
        stop, slow = estimate_mtbf(roundtrip(tl))
        assert stop == 100.0
        assert slow is None

    def test_failure_free(self):
        stop, slow = estimate_mtbf(parse_trace(jsonl(healthy(0, 100))))
        assert stop is None and slow is None

    def test_one_fail_slow_period(self, worked_fail_slow):
        stop, slow = estimate_mtbf(roundtrip(period_to_timeline(worked_fail_slow)))
        assert stop is None
        assert slow == 95.0

    def test_trailing_partial_period_excluded(self, worked_fail_stop):
        tl = concat([period_to_timeline(worked_fail_stop)] * 2)
        buf = io.StringIO()
        write_jsonl(tl, buf)
        # partial next period: healthy run, then the trace just stops
        stop, _ = estimate_mtbf(parse_trace(buf.getvalue() + jsonl(healthy(220.0, 260.0))))
        assert stop == 100.0


class TestTrace:
    """A parsed trace is a plain ``RateTimeline``: its times are the running
    sums of its durations from 0, as every other timeline's are."""

    # (duration, rate, stage); the zero-duration entry is dropped.
    ITEMS = [(2.0, 0.5, StageKind.SLOW_RECOVERY), (0.0, 1.0, StageKind.HEALTHY_RUN),
             (90.0, 1.0, StageKind.HEALTHY_RUN), (10.0, 0.0, StageKind.REPAIR)]

    @staticmethod
    def parsed(items):
        t, objs = 0.0, []
        for d, r, stage in items:
            if d:
                objs.append({"t_start": t, "t_end": t + d, "stage": str(stage), "rate": r})
                t += d
        return parse_trace(jsonl(*objs))

    @pytest.mark.parametrize("build", [
        lambda items: RateTimeline(Segment(*item) for item in items),
        RateTimeline.build,
        lambda items: timeline_to_events(RateTimeline(items)),
        parsed,
    ], ids=["segments", "build", "timeline_to_events", "parse_trace"])
    def test_every_way_to_build_has_time_columns(self, build):
        tr = build(self.ITEMS)
        assert type(tr) is RateTimeline and len(tr) == 3
        assert tr.durations == [2.0, 90.0, 10.0]
        assert csv_edges(tr) == [(0.0, 2.0), (2.0, 92.0), (92.0, 102.0)]
        assert tr == RateTimeline(self.ITEMS)

    def test_empty(self):
        tr = RateTimeline()
        assert (tr.durations, csv_edges(tr)) == ([], []) and tr == RateTimeline([])

    def test_equal_whatever_the_offset(self):
        tr = parse_trace(jsonl(healthy(0, 10)))
        moved = parse_trace(jsonl(healthy(5, 15)))
        assert tr == moved and not hasattr(moved, "t_start")
        assert csv_edges(moved) == [(0.0, 10.0)]
        buf, moved_buf = io.StringIO(), io.StringIO()
        write_jsonl(tr, buf)
        write_jsonl(moved, moved_buf)
        assert moved_buf.getvalue() == buf.getvalue()


class TestReport:
    def test_fail_stop_worked_trace(self, worked_fail_stop):
        rep = report(roundtrip(period_to_timeline(worked_fail_stop)))
        assert rep["schema_version"] == 1
        assert rep["tor"] == pytest.approx(91 / 110, abs=1e-12)
        assert rep["fail_stop_mtbf"] == 100.0
        assert rep["complete_periods"] == {"fail_stop": 1}

    def test_healthy_trace(self):
        rep = report(parse_trace(jsonl(healthy(0, 50))))
        assert rep["tor"] == 1.0
        assert rep["stage_breakdown"]["HealthyRun"]["lost_time"] == 0.0
        assert rep["complete_periods"] == {}

    def test_mixed_trace(self, worked_fail_stop, worked_fail_slow):
        m = FailureMixture((MixtureComponent(1.0, worked_fail_stop),
                            MixtureComponent(1.0, worked_fail_slow)))
        rep = report(roundtrip(mixture_concat_timeline(m)))
        assert rep["tor"] == pytest.approx(186 / 220, abs=1e-12)
        assert rep["complete_periods"] == {"fail_stop": 1, "fail_slow": 1}

    def test_periods_split_once(self, worked_fail_stop, worked_fail_slow, monkeypatch):
        import torkit.trace

        m = FailureMixture((MixtureComponent(2.0, worked_fail_stop),
                            MixtureComponent(1.0, worked_fail_slow)))
        events = roundtrip(mixture_concat_timeline(m))
        calls = []

        def counted(tl, **kwargs):
            calls.append(len(tl))
            return period_records(tl, **kwargs)

        monkeypatch.setattr(torkit.trace, "period_records", counted)
        rep = report(events)
        assert len(calls) == 1
        assert (rep["fail_stop_mtbf"], rep["fail_slow_mtbf"]) == estimate_mtbf(events)

    def test_each_sum_taken_once(self, worked_fail_stop, worked_fail_slow, monkeypatch):
        import torkit.timeline

        m = FailureMixture((MixtureComponent(2.0, worked_fail_stop),
                            MixtureComponent(1.0, worked_fail_slow)))
        events = roundtrip(mixture_concat_timeline(m))
        expected = tor_of_timeline(events)
        total = torkit.timeline._total
        calls = []

        def counted(what, terms):
            calls.append(what)
            return total(what, terms)

        monkeypatch.setattr(torkit.timeline, "_total", counted)
        rep = report(events)
        assert sorted(calls) == ["observed time", "optimal time"]
        assert rep["tor"].hex() == expected.hex()

    def test_report_is_json_serializable(self, worked_fail_slow):
        rep = report(roundtrip(period_to_timeline(worked_fail_slow)))
        assert json.loads(json.dumps(rep)) == rep

    def test_render_contains_key_lines(self, worked_fail_stop):
        text = render_report(report(roundtrip(period_to_timeline(worked_fail_stop))))
        assert "TOR:" in text and "0.827273" in text
        assert "fail-stop MTBF: 100.000000 s" in text


# ---------------------------------------------------------------------------
# the parser against its reference

# The parser as it was before its one-pass rewrite, with its helpers, kept
# verbatim but for one later rule: a numeric event may have t_end == t_start if
# it has a duration, and its duration is checked to 1e-9 * max(1, t_end).
@dataclass(frozen=True)
class RefEvent:
    """One event the reference parser gives. It checks nothing: the reference
    checks each field itself."""

    t_start: float
    t_end: float
    stage: StageKind
    rate: float
    exact_duration: float | None = None

    @property
    def duration(self) -> float:
        if self.exact_duration is not None:
            return self.exact_duration
        return self.t_end - self.t_start


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


def reference_event_from_obj(obj: dict, line: int) -> tuple[RefEvent | None, tuple | None]:
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
        if t1 < t0 or (t1 == t0 and exact is None):
            raise TraceParseError(f"t_end must exceed t_start, got [{t0!r}, {t1!r})", line)
        span, scale = t1 - t0, t1
        parsed = RefEvent(t0, t1, stage, rate, exact), None
    elif "wall_start" in obj and "wall_end" in obj:
        w0 = _parse_wall(obj["wall_start"], line, "wall_start")
        w1 = _parse_wall(obj["wall_end"], line, "wall_end")
        if _is_aware(w0) != _is_aware(w1):
            raise TraceParseError("wall_start and wall_end mix timezone-aware and naive times", line)
        if w1 <= w0:
            raise TraceParseError("wall_end must be after wall_start", line)
        span = scale = (w1 - w0).total_seconds()
        parsed = None, (w0, w1, stage, rate)
    else:
        raise TraceParseError("event needs t_start/t_end or wall_start/wall_end", line)
    if exact is not None and abs(exact - span) > CONTIGUITY_TOL * max(1.0, scale):
        raise TraceParseError(f"duration {exact!r} disagrees with the event's span {span!r}", line)
    return parsed


def reference_parse_trace(source: IO | bytes | str | Iterable[str]) -> list[RefEvent]:
    """Parse and validate a JSONL trace; returns events sorted by t_start."""
    if isinstance(source, bytes):
        lines: Iterable[str] = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        lines = io.StringIO(source)
    else:
        lines = source

    events: list[RefEvent] = []
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
        ev, wall = reference_event_from_obj(obj, line_no)
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
            RefEvent((w0 - origin).total_seconds(), (w1 - origin).total_seconds(), st, r)
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


def outcome(parse, make_source):
    """The events as (stage, rate, duration) rows in time order, with every
    float as its hex, or the error and its line.

    ``parse_trace`` gives a RateTimeline, whose three columns are read. The
    reference gives a list of RefEvents, sorted by their own times; an event
    of zero duration is left out, as ``parse_trace`` drops it last.
    """
    try:
        parsed = parse(make_source())
    except TraceParseError as e:
        return "error", str(e), e.line
    if isinstance(parsed, RateTimeline):
        rows = zip(parsed.stages, parsed.rates, parsed.durations)
    else:
        rows = ((e.stage, e.rate, e.duration) for e in parsed if e.duration)
    return "events", [(stage.name, rate.hex(), d.hex()) for stage, rate, d in rows]


FREE_RATE_STAGES = [StageKind.SLOW_RECOVERY, StageKind.FAIL_SLOW_DEGRADED]
TZS = [None, dt.timezone.utc, dt.timezone(dt.timedelta(hours=-5))]


def random_event_lines(rng: random.Random) -> list[dict]:
    """A contiguous trace as JSON objects: seconds or wall clock, float or
    int fields, with or without ``duration``, with or without extra keys."""
    n = rng.randint(1, 25)
    wall = rng.random() < 0.4
    ints = rng.random() < 0.3
    far = wall and rng.random() < 0.25   # float seconds coarser than a microsecond
    origin = dt.datetime(1, 1, 1) if far else dt.datetime(2026, 1, 1)
    origin = origin.replace(tzinfo=rng.choice(TZS))
    objs = []
    t, us = 0.0, 0
    for i in range(n):
        stage = rng.choice(list(StageKind))
        if stage in FREE_RATE_STAGES:
            rate = rng.choice([0, 1, 0.25, rng.random()])
        else:
            rate = 0 if stage in ZERO_RATE_STAGES else 1
        obj = {"stage": str(stage), "rate": rate if ints else float(rate)}
        if wall:
            step = (rng.randint(1, 10**17) if far and i == 0
                    else rng.randint(1, 5 if far else 10**8))
            w0 = origin + dt.timedelta(microseconds=us)
            w1 = origin + dt.timedelta(microseconds=us + step)
            obj.update(wall_start=w0.isoformat(), wall_end=w1.isoformat())
            span = step / 1e6
            us += step
        else:
            d = rng.randint(1, 50) if ints else rng.choice([rng.uniform(1e-3, 100), 1e-7, 3e5])
            # Now and then a start off the previous end, within both tolerances.
            t0 = t if i == 0 or rng.random() < 0.8 else t + rng.choice([-1e-10, 1e-10]) * min(t, d)
            obj.update(t_start=t0, t_end=t + d)
            span = (t + d) - t0
            t += d
        if rng.random() < 0.5:
            obj["duration"] = (d if ints and not wall and t0 == t - d
                               else span * (1 + rng.choice([0.0, 1e-12, -1e-12])))
        if rng.random() < 0.2:
            obj.update(note="warm-up", host=["n1", {"gpu": 7}])
        objs.append(obj)
    return objs


def random_source(rng: random.Random, objs: list[dict]):
    """The objects as JSONL, shuffled or with a tied line now and then, with
    blank and CRLF lines, as one of the source types parse_trace takes."""
    lines = [json.dumps(o) for o in objs]
    if rng.random() < 0.3:
        rng.shuffle(lines)
    if rng.random() < 0.1:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    for _ in range(rng.choice([0, 0, 1, 3])):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "\t"]))
    end = rng.choice(["\n", "\r\n"])
    text = "".join(line + end for line in lines)
    kind = rng.choice(["str", "bytes", "str lines", "bytes lines", "binary file", "text file"])
    return {
        "str": lambda: text,
        "bytes": lambda: text.encode(),
        "str lines": lambda: text.splitlines(keepends=True),
        "bytes lines": lambda: text.encode().splitlines(keepends=True),
        "binary file": lambda: io.BytesIO(text.encode()),
        "text file": lambda: io.StringIO(text),
    }[kind]


def test_parse_matches_reference_on_random_traces():
    rng = random.Random(20261018)
    parsed = 0
    for i in range(400):
        make_source = random_source(rng, random_event_lines(rng))
        result = outcome(parse_trace, make_source)
        assert result == outcome(reference_parse_trace, make_source), i
        parsed += result[0] == "events"
    assert parsed >= 300   # most traces are valid; the tied lines make overlaps


def decoded_items(source):
    """The ``json.loads`` value of each line of a source, or None if a line is
    blank, undecodable or a JSON string (a ``str`` item is read as a line)."""
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, bytes):
        source = io.BytesIO(source)
    try:
        items = [json.loads(line.decode() if isinstance(line, bytes) else line)
                 for line in source]
    except (ValueError, RecursionError):
        return None
    return None if any(isinstance(item, str) for item in items) else items


def test_decoded_items_parse_as_their_lines():
    """A source's decoded objects give the same events as its lines, or the
    same error on the same line."""
    rng = random.Random(20261018)  # the traces of the reference test above
    checked = 0
    for i in range(400):
        make_source = random_source(rng, random_event_lines(rng))
        items = decoded_items(make_source())
        if items is None:
            continue
        assert outcome(parse_trace, lambda: items) == outcome(parse_trace, make_source), i
        checked += 1
    assert checked >= 150   # half the sources have no blank line


def test_iterating_a_parsed_trace_matches_its_events_timeline():
    """Iterating a parsed trace gives the (duration, rate, stage) of each of the
    reference parser's events that has a duration, bit for bit."""
    rng = random.Random(20261019)
    checked = 0

    def triples(events):
        return [(e.duration.hex(), e.rate.hex(), e.stage) for e in events if e.duration]

    for i in range(200):
        make_source = random_source(rng, random_event_lines(rng))
        try:
            events = reference_parse_trace(make_source())
        except TraceParseError:
            continue
        assert triples(parse_trace(make_source())) == triples(events), i
        checked += 1
    assert checked >= 150


def line(**fields):
    return json.dumps({"t_start": 0.0, "t_end": 10.0, "stage": "HealthyRun", "rate": 1.0,
                       **fields}) + "\n"


def wall_line(w0, w1, **fields):
    return json.dumps({"wall_start": w0, "wall_end": w1, "stage": "Repair", "rate": 0,
                       **fields}) + "\n"


def without(key, **fields):
    obj = json.loads(line(**fields))
    del obj[key]
    return json.dumps(obj) + "\n"


def tiled_wall_trace(n: int, tz: str = "") -> list[str]:
    """``n`` contiguous wall-clock events, each start spelled as the previous end."""
    stamps = [(dt.datetime(2026, 1, 1, 6) + dt.timedelta(seconds=7.25 * i, microseconds=i))
              .isoformat() + tz for i in range(n + 1)]
    stages = ["HealthyRun", "CheckpointSave", "SlowRecovery", "FailSlowDegraded", "Repair"]
    rates = {"HealthyRun": 1.0, "SlowRecovery": 0.5, "FailSlowDegraded": 0.25}
    return [wall_line(stamps[i], stamps[i + 1], stage=stages[i % 5],
                      rate=rates.get(stages[i % 5], 0.0)) for i in range(n)]


# Wall-clock stamps for the cases where a start is spelled as the previous end.
W0, W1, W2, W3 = (f"2026-01-01T00:00:{s}" for s in ("00", "10", "25", "40"))
# One case for each check of the parser, and the inputs around them.
MALFORMED = {
    "bad-json": line() + "{not json}\n",
    "truncated-object": '{"t_start": 0, "t_end": 1\n',
    "bom": "\ufeff" + line(),
    "extra-data": line().rstrip() + " 1\n",
    "two-objects": line().rstrip() + line(),
    "nbsp-before-object": "\u00a0" + line(),
    "not-utf8": [line().encode(), b"\xff{}\n"],
    "array": "[1, 2]\n",
    "number": "3\n",
    "string": '"HealthyRun"\n',
    "null": "null\n",
    "missing-stage": without("stage"),
    "unknown-stage": line(stage="Napping"),
    "null-stage": line(stage=None),
    "list-stage": line(stage=["HealthyRun"]),
    "dict-stage": line(stage={"HealthyRun": 1}),
    "missing-rate": without("rate"),
    "bool-rate": line(rate=True),
    "string-rate": line(rate="1"),
    "null-rate": line(rate=None),
    "nan-rate": line(stage="SlowRecovery", rate=math.nan),
    "rate-above-1": line(stage="SlowRecovery", rate=1.5),
    "negative-rate": line(stage="SlowRecovery", rate=-0.5),
    "repair-rate": line(stage="Repair", rate=0.5),
    "save-rate": line(stage="CheckpointSave", rate=1),
    "rollback-rate": line(stage="RollbackWaste", rate=-0.0) + line(stage="RollbackWaste",
                                                                   rate=1e-300),
    "healthy-rate": line(rate=0.9),
    "healthy-int-rate": line(rate=0),
    "over-long-int": line(t_end=10**400),
    "int-beyond-digit-limit": line().replace("10.0", "1" + "0" * 5000),
    "nan-start": line(t_start=math.nan),
    "inf-end": line(t_end=math.inf),
    "negative-inf-end": line(t_end=-math.inf),
    "negative-start": line(t_start=-1),
    "end-before-start": line(t_start=10, t_end=5),
    "empty-span": line(t_start=10, t_end=10),
    # An empty span is an event if it has a duration within the tolerance.
    "empty-span-duration": line(t_start=10, t_end=10, duration=1e-8),
    "empty-span-disagreeing-duration": line(t_start=10, t_end=10, duration=2e-8),
    "wall-empty-span-duration": wall_line("2026-01-01T00:00:00", "2026-01-01T00:00:00",
                                          duration=1e-9),
    "missing-end": without("t_end"),
    "missing-start": without("t_start"),
    "string-start": line(t_start="0"),
    "bool-end": line(t_end=False),
    "zero-duration": line(duration=0),
    "negative-duration": line(duration=-1.0),
    "nan-duration": line(duration=math.nan),
    "inf-duration": line(duration=math.inf),
    "string-duration": line(duration="10"),
    "null-duration": line(duration=None),
    "disagreeing-duration": line(duration=10.5),
    # Below 1 s the tolerance is absolute, 1e-9 s.
    "short-span-duration": line(t_end=0.5, duration=0.5 + 8e-10),
    "short-span-disagreeing-duration": line(t_end=0.5, duration=0.5 + 2e-9),
    # Numeric stamps scale it by t_end, as the contiguity check does.
    "far-span-duration": line(t_start=3e7, t_end=3e7 + 0.3, duration=0.3),
    "far-span-disagreeing-duration": line(t_start=3e7, t_end=3e7 + 0.3, duration=0.4),
    "wall-span-duration": wall_line("2026-01-01T00:00:00", "2026-01-01T00:00:00.5",
                                    duration=0.5 + 8e-10),
    "wall-span-disagreeing-duration": wall_line("2026-01-01T00:00:00",
                                                "2026-01-01T00:00:00.5", duration=0.5 + 2e-9),
    "disagreeing-wall-duration": wall_line("2026-01-01T00:00:00", "2026-01-01T00:00:10",
                                           duration=5.0),
    "no-timestamps": without("t_start").replace('"t_end": 10.0, ', ""),
    "wall-start-only": json.dumps({"wall_start": "2026-01-01T00:00:00",
                                   "stage": "Repair", "rate": 0}) + "\n",
    "bad-wall": wall_line("2026-01-01T00:00:00", "yesterday"),
    "number-wall": wall_line(5, "2026-01-01T00:00:10"),
    "wall-end-first": wall_line("2026-01-01T00:00:10", "2026-01-01T00:00:00"),
    "wall-mixed-tz-in-line": wall_line("2026-01-01T00:00:00", "2026-01-01T00:00:10+00:00"),
    "mixed-formats": line() + wall_line("2026-01-01T00:00:00", "2026-01-01T00:00:10"),
    "mixed-tz": wall_line("2026-01-01T00:00:00", "2026-01-01T00:00:10")
    + wall_line("2026-01-01T00:00:10+00:00", "2026-01-01T00:00:20+00:00"),
    "gap": line() + line(t_start=12.0, t_end=20.0),
    "gap-after-sort": line(t_start=20.0, t_end=30.0) + line() + line(t_start=12.0, t_end=20.0),
    "overlap": line() + line(t_start=8.0, t_end=20.0),
    "tied-lines": line() + line(stage="SlowRecovery", rate=0.5),
    "wall-overlap": wall_line("2026-01-01T00:00:00", "2026-01-01T00:00:10")
    + wall_line("2026-01-01T00:00:05", "2026-01-01T00:00:20"),
    "empty": "",
    "blank-lines": "\n  \n\t\r\n",
    "unicode-blank-lines": "\u00a0\n\x0c\n\u2028\n",
    # A wall_start spelled as the previous line's wall_end is not parsed again.
    "reuse-end-only-first": json.dumps({"wall_end": W1, "stage": "Repair", "rate": 0}) + "\n"
    + wall_line(W1, W2),
    "reuse-end-only-after": wall_line(W0, W1)
    + json.dumps({"wall_end": W2, "stage": "Repair", "rate": 0}) + "\n",
    "reuse-missing-end": wall_line(W0, W1)
    + json.dumps({"wall_start": W1, "stage": "Repair", "rate": 0}) + "\n",
    "reuse-bad-end": wall_line(W0, W1) + wall_line(W1, "yesterday"),
    "reuse-number-end": wall_line(W0, W1) + wall_line(W1, 25),
    "reuse-empty-span": wall_line(W0, W1) + wall_line(W1, W1),
    "reuse-end-first": wall_line(W0, W1) + wall_line(W1, W0),
    "reuse-aware-end": wall_line(W0, W1) + wall_line(W1, W2 + "+00:00"),
    "reuse-naive-end": wall_line(W0 + "Z", W1 + "Z") + wall_line(W1 + "Z", W2),
    "reuse-then-mixed-tz": wall_line(W0 + "+00:00", W1 + "+00:00")
    + wall_line(W1 + "+00:00", W2 + "+00:00") + wall_line(W2, W3),
    "reuse-duration": wall_line(W0, W1) + wall_line(W1, W2, duration=15.0),
    "reuse-disagreeing-duration": wall_line(W0, W1) + wall_line(W1, W2, duration=14.0),
    "reuse-across-blank-and-numeric-lines": wall_line(W0, W1) + "\n" + line() + wall_line(W1, W2),
    "reuse-same-instant-other-offset": wall_line(W0 + "+00:00", W1 + "+00:00")
    + wall_line("2026-01-01T05:30:10+05:30", W2 + "+00:00"),
    "reuse-same-instant-other-spelling": wall_line(W0, W1) + wall_line(W1 + ".000000", W2)
    + wall_line("2026-01-01 00:00:25", W3),
    "reuse-after-gap": wall_line(W0, W1) + wall_line(W2, W3) + wall_line(W3, "2026-01-01T00:00:50"),
    "reuse-tiled": "".join(tiled_wall_trace(40, "+05:30")),
    "reuse-tiled-shuffled": "".join(random.Random(21).sample(tiled_wall_trace(40), 40)),
    "reuse-tiled-reversed": "".join(reversed(tiled_wall_trace(40, "Z"))),
}
VALID_EDGES = {"rollback-rate", "short-span-duration", "empty-span-duration",
               "far-span-duration", "wall-span-duration", "unicode-blank-lines",
               "reuse-duration", "reuse-same-instant-other-offset",
               "reuse-same-instant-other-spelling", "reuse-tiled", "reuse-tiled-shuffled",
               "reuse-tiled-reversed"}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_parse_matches_reference_on_malformed_input(name):
    data = MALFORMED[name]
    result = outcome(parse_trace, lambda: data)
    assert result == outcome(reference_parse_trace, lambda: data)
    if name not in VALID_EDGES:
        assert result[0] == "error"


# ---------------------------------------------------------------------------
# wall-clock stamps: a start spelled as the previous end is parsed once

def test_tiled_wall_trace_parses_each_instant_once(monkeypatch):
    """n tiled events spell n + 1 instants, and only those are parsed. Shuffled,
    a start is parsed too unless the line before ends where it starts."""
    parsed = []

    def counting(value):
        parsed.append(value)
        return dt.datetime.fromisoformat(value)

    monkeypatch.setattr(torkit.trace, "_fromisoformat", counting)
    lines = tiled_wall_trace(50)
    tl = parse_trace(lines)
    assert len(parsed) == 51 and len(set(parsed)) == 51
    parsed.clear()
    shuffled = random.Random(5).sample(lines, len(lines))
    assert parse_trace(shuffled) == tl
    reused = sum(json.loads(a)["wall_end"] == json.loads(b)["wall_start"]
                 for a, b in zip(shuffled, shuffled[1:]))
    assert len(parsed) == 2 * len(lines) - reused


# ---------------------------------------------------------------------------
# write_jsonl's own layout: the fast path gives what the general path gives

def layout_line(t0=0.0, t1=10.0, stage="HealthyRun", rate=1.0, duration=10.0, end="\n"):
    """One event in ``write_jsonl``'s key order and spacing; a str field is
    written as it is spelled, a float as ``json.dumps`` spells it."""
    def spell(v):
        return v if isinstance(v, str) else json.dumps(v)
    return (f'{{"t_start": {spell(t0)}, "t_end": {spell(t1)}, "stage": "{stage}", '
            f'"rate": {spell(rate)}, "duration": {spell(duration)}}}{end}')


# Events [t0, t1) whose duration is off the span by the slack, 1e-9 * max(1, t_end),
# exactly: below 1 s (absolute) and above (scaled by t_end), above the span (+1)
# and below it (-1), as (t0, t1, duration, sign).
TOLERANCE_EDGES = {
    "short+": (0.0, 1e-9, 2e-9, 1),
    "short-": (0.0, 2e-9, 1e-9, -1),
    "far+": (2.0 - 2**-40, 2.0, 2**-40 + 2e-9, 1),
    "far-": (2.0 - 2**-28, 2.0, 2**-28 - 2e-9, -1),
}


def tolerance_cases(edge: float, sign: int) -> dict:
    """The duration on the slack, one ulp inside it and one ulp outside it."""
    inward, outward = (0.0, math.inf) if sign > 0 else (math.inf, 0.0)
    return {"edge": edge, "inside": math.nextafter(edge, inward),
            "outside": math.nextafter(edge, outward)}


@pytest.mark.parametrize("name", sorted(TOLERANCE_EDGES))
def test_tolerance_cases_sit_on_the_slack(name):
    t0, t1, edge, sign = TOLERANCE_EDGES[name]
    span, tol = t1 - t0, CONTIGUITY_TOL * max(1.0, t1)
    cases = tolerance_cases(edge, sign)
    assert t0 < t1 and cases["edge"] - span == sign * tol
    assert abs(cases["inside"] - span) < tol < abs(cases["outside"] - span)


# Per case, its trace and how many of its lines the general path reads (each
# is one _scan call) as bytes: a line in the layout that passes every check is
# the fast path's; any other line, or one that fails a check, is the general path's.
LAYOUT = {
    "tiled": (layout_line() + layout_line(10.0, 12.5, "CheckpointSave", 0.0, 2.5)
              + layout_line(12.5, 14.0, "SlowRecovery", 0.25, 1.5), 0),
    "unsorted": (layout_line(10.0, 20.0, duration=10.0) + layout_line(), 0),
    "gap": (layout_line() + layout_line(12.0, 20.0, duration=8.0), 0),
    "offset-start": (layout_line() + layout_line(10.000000001, 20.0, duration=9.999999999), 0),
    # Off the end before by more than the gap check allows, less than its duration's tolerance.
    "gap-within-duration-tolerance": (layout_line() + layout_line(10.0 + 1.5e-8, 20.0,
                                                                  duration=10.0 - 1.5e-8), 0),
    "negative-zero-rate": (layout_line(stage="Repair", rate=-0.0)
                           + layout_line(10.0, 20.0, "RollbackWaste", -0.0, 10.0), 0),
    "negative-zero-healthy-rate": (layout_line(rate=-0.0), 1),
    "free-rate-one": (layout_line(stage="SlowRecovery", rate=1.0), 0),
    "free-rate-zero": (layout_line(stage="FailSlowDegraded", rate=0.0), 0),
    "rate-above-one": (layout_line(stage="SlowRecovery", rate=math.nextafter(1.0, 2.0)), 1),
    "negative-rate": (layout_line(stage="SlowRecovery", rate=-0.5), 1),
    "healthy-rate": (layout_line(rate=0.5), 1),
    "repair-rate": (layout_line(stage="Repair", rate=1e-300), 1),
    "save-rate": (layout_line(stage="CheckpointSave", rate=1.0), 1),
    "zero-duration": (layout_line(duration=0.0), 1),
    "negative-duration": (layout_line(duration=-10.0), 1),
    "underflowing-duration": (layout_line(duration="1e-400"), 1),
    "empty-span-duration": (layout_line(10.0, 10.0, duration=1e-8), 1),
    "empty-span-disagreeing-duration": (layout_line(10.0, 10.0, duration=2e-8), 1),
    "end-before-start": (layout_line(10.0, 5.0, duration=5.0), 1),
    "negative-start": (layout_line(-1.0, 10.0, duration=11.0), 1),
    "negative-zero-start": (layout_line("-0.0", 10.0), 0),
    "overflowing-end": (layout_line(t1="1e999"), 1),
    "overflowing-duration": (layout_line(duration="1e999"), 1),
    "overflowing-start": (layout_line(t0="1e999"), 1),
    "leading-zero": (layout_line(t1="010.0"), 1),
    "leading-zero-fraction": (layout_line(duration="01.5"), 1),
    "plus-sign": (layout_line(t1="+10.0"), 1),
    "bare-fraction": (layout_line(t0=".0"), 1),
    "trailing-dot": (layout_line(t1="10."), 1),
    "nan-rate": (layout_line(stage="SlowRecovery", rate="NaN"), 1),
    "infinity-end": (layout_line(t1="Infinity"), 1),
    "negative-infinity-start": (layout_line(t0="-Infinity"), 1),
    "integer-rate": (layout_line(rate="1"), 1),
    "integer-times": (layout_line("0", "10", duration="10"), 1),
    "exponent-spellings": (layout_line("0e0", "1E1", duration="1.0e+1")
                           + layout_line("1e1", "2.0E1", duration="10e-0"), 0),
    "start-spelled-otherwise": (layout_line() + layout_line("1e1", 20.0, duration=10.0), 0),
    "escaped-stage": (layout_line(stage="Heal\\u0074hyRun"), 1),
    "unknown-stage": (layout_line(stage="Napping"), 1),
    "lower-case-stage": (layout_line(stage="healthyrun"), 1),
    "trailing-spaces": (layout_line(end="  \n"), 1),
    "leading-space": (" " + layout_line(), 1),
    "tab-separator": (layout_line().replace(", ", ",\t", 1), 1),
    "compact": (layout_line().replace(", ", ",").replace(": ", ":"), 1),
    "other-key-order": (json.dumps({"t_end": 10.0, "t_start": 0.0, "stage": "HealthyRun",
                                    "rate": 1.0, "duration": 10.0}) + "\n", 1),
    "no-duration": (json.dumps({"t_start": 0.0, "t_end": 10.0, "stage": "HealthyRun",
                                "rate": 1.0}) + "\n", 1),
    "extra-key": (layout_line().replace("}", ', "note": 1}'), 1),
    "crlf": (layout_line(end="\r\n") + layout_line(10.0, 20.0, end="\r\n"), 0),
    "bare-cr": (layout_line(end="\r"), 0),
    "no-final-newline": (layout_line() + layout_line(10.0, 20.0, end=""), 0),
    "blank-line": (layout_line() + "\n" + layout_line(10.0, 20.0), 1),
    "two-objects": (layout_line(end="") + layout_line(), 1),
    "fast-then-wall-clock": (layout_line() + wall_line("2026-01-01T00:00:00",
                                                       "2026-01-01T00:00:10"), 1),
    "wall-clock-then-fast": (wall_line("2026-01-01T00:00:00", "2026-01-01T00:00:10")
                             + layout_line(), 1),
    "general-then-fast": (layout_line(rate="1") + layout_line(10.0, 20.0, rate=1.0), 1),
    # A start spelled as the last fast line's end, after a general line.
    "fast-general-fast": (layout_line() + layout_line(20.0, 30.0, rate="1")
                          + layout_line(10.0, 20.0), 1),
}
for edge_name, (t0, t1, edge, sign) in TOLERANCE_EDGES.items():
    for where, d in tolerance_cases(edge, sign).items():
        LAYOUT[f"tolerance-{edge_name}-{where}"] = (
            layout_line(t0, t1, "SlowRecovery", 0.5, d), int(where == "outside"))
BINARY_SOURCES = {
    "bytes": lambda text: text.encode(),
    "bytes lines": lambda text: text.encode().splitlines(keepends=True),
    "binary file": lambda text: io.BytesIO(text.encode()),
}


def counted_scans(monkeypatch) -> list:
    """The text of every line the general path decodes from now on."""
    scanned = []
    scan = torkit.trace._scan

    def counting(text, i):
        scanned.append(text)
        return scan(text, i)

    monkeypatch.setattr(torkit.trace, "_scan", counting)
    return scanned


@pytest.mark.parametrize("kind", sorted(BINARY_SOURCES))
@pytest.mark.parametrize("name", sorted(LAYOUT))
def test_layout_lines_match_reference(name, kind, monkeypatch):
    text, general = LAYOUT[name]
    make_source = lambda: BINARY_SOURCES[kind](text)  # noqa: E731
    expected = outcome(reference_parse_trace, make_source)
    assert outcome(parse_trace, lambda: text) == expected
    scanned = counted_scans(monkeypatch)
    assert outcome(parse_trace, make_source) == expected
    assert len(scanned) == general


def random_layout_trace(rng: random.Random) -> str:
    """A numeric trace in write_jsonl's layout: float fields, each with its
    duration, now and then a start off the previous end, a duration off its
    span, a wrong rate, a shuffle or a blank line."""
    t = rng.choice([0.0, 0.0, 1e-3, 5e6])
    lines = []
    for i in range(rng.randint(1, 25)):
        stage = rng.choice(list(StageKind))
        if stage in FREE_RATE_STAGES:
            rate = rng.choice([0.0, 1.0, 0.25, rng.random()])
        else:
            rate = 0.0 if stage in ZERO_RATE_STAGES else 1.0
        if rng.random() < 0.02:
            rate = rng.choice([0.5, -0.0, 1.5])
        d = rng.choice([rng.uniform(1e-3, 100), 1e-7, 3e5])
        t0 = t if i == 0 or rng.random() < 0.8 else t + rng.choice([-1e-10, 1e-10]) * min(t, d)
        t1 = t + d
        exact = (t1 - t0) * (1 + rng.choice([0.0, 0.0, 1e-12, -1e-12]))
        if rng.random() < 0.02:
            exact *= 1 + 1e-7
        lines.append(layout_line(t0, t1, str(stage), rate, exact, end=""))
        t = t1
    if rng.random() < 0.3:
        rng.shuffle(lines)
    if rng.random() < 0.1:
        lines.insert(rng.randrange(len(lines) + 1), "")
    end = rng.choice(["\n", "\r\n"])
    return "".join(line + end for line in lines)


def test_parse_matches_reference_on_random_layout_traces(monkeypatch):
    rng = random.Random(20261021)
    scanned = counted_scans(monkeypatch)
    results = Counter()
    lines = 0
    for i in range(300):
        text = random_layout_trace(rng)
        kind = rng.choice(sorted(BINARY_SOURCES))
        make_source = lambda: BINARY_SOURCES[kind](text)  # noqa: E731
        result = outcome(parse_trace, make_source)
        assert result == outcome(reference_parse_trace, make_source), i
        results[result[0]] += 1
        lines += text.count("\n")
    assert results["events"] >= 150 and results["error"] >= 50
    assert len(scanned) < lines / 10   # the fast path reads most lines


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_parse_matches_reference_on_malformed_bytes(name):
    data = MALFORMED[name]
    data = data.encode() if isinstance(data, str) else b"".join(data)
    result = outcome(parse_trace, lambda: data)
    # The reference decodes a bytes source whole; its lines, it decodes one by one.
    assert result == outcome(reference_parse_trace, lambda: list(io.BytesIO(data)))
    assert result == outcome(parse_trace, lambda: io.BytesIO(data))
    if name not in VALID_EDGES:
        assert result[0] == "error"


def test_written_traces_parse_without_the_json_decoder(monkeypatch):
    """Every line write_jsonl writes is the fast path's, so a broken pattern
    fails here instead of silently sending every line to the decoder."""
    scanned = counted_scans(monkeypatch)
    for tl in simulated_timelines():
        buf = io.StringIO()
        write_jsonl(tl, buf)
        data = buf.getvalue().encode()
        for make in (lambda: data, lambda: io.BytesIO(data),
                     lambda: data.splitlines(keepends=True)):
            assert parse_trace(make()) == tl
    assert scanned == []


# ---------------------------------------------------------------------------
# the report against its reference

def reference_stage_breakdown(tl: RateTimeline) -> dict:
    """The stage breakdown as its own loop over the entries, before it came
    from the period pass."""
    times: dict = {}
    losses: dict = {}
    for d, r, stage in zip(tl.durations, tl.rates, tl.stages):
        times.setdefault(stage, []).append(d)
        losses.setdefault(stage, []).append(d * (1.0 - r))
    return {k: (math.fsum(times[k]), math.fsum(losses[k])) for k in times}


def reference_report(tl: RateTimeline) -> dict:
    """``report`` as it was composed before its stage breakdown came from the
    period pass: each sum and the breakdown taken on their own."""
    t_obs = observed_time(tl)
    t_opt = integrate_optimal_time(tl)
    records = period_records(tl)
    mtbf = []
    for kind in (FAIL_STOP, FAIL_SLOW):
        vals = [r.mtbf for r in records if r.kind == kind]
        mtbf.append(math.fsum(vals) / len(vals) if vals else None)
    return {
        "schema_version": 1,
        "tor": t_opt / t_obs,
        "t_opt": t_opt,
        "t_obs": t_obs,
        "fail_stop_mtbf": mtbf[0],
        "fail_slow_mtbf": mtbf[1],
        "complete_periods": dict(Counter(r.kind for r in records)),
        "stage_breakdown": {
            str(stage): {"time": time, "lost_time": lost}
            for stage, (time, lost) in reference_stage_breakdown(tl).items()
        },
    }


def exact(value):
    """``value`` with every float as its hex and every dict as its list of items,
    so that equal results have equal bits and equal key order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(k, exact(v)) for k, v in value.items()]
    return value


def assert_report_matches_reference(tl: RateTimeline):
    assert exact(report(tl)) == exact(reference_report(tl))
    breakdown: dict = {}
    assert period_records(tl, _breakdown=breakdown) == period_records(tl)
    assert exact(breakdown) == exact(reference_stage_breakdown(tl))
    assert exact(stage_breakdown(tl)) == exact(breakdown)


def simulated_timelines():
    for i, dist in enumerate((Fixed, Exponential, LogNormal)):
        t_r, t_sr, t_fs = (dist(3.0), dist(1.5), dist(4.0)) if dist is not LogNormal else (
            LogNormal(3.0, 0.5), LogNormal(1.5, 0.4), LogNormal(4.0, 0.6))
        for seed, r_sr, r_fs in ((1, 0.5, 0.25), (2, 0.0, 1.0), (3, 1.0, 0.0)):
            cfg = SimConfig(w_opt=1.0, total_work=600.0, ckpt_interval=15.0, t_ckpt=0.5 * i,
                            fail_stop_rate=0.02, fail_slow_rate=0.02, t_r_dist=t_r,
                            t_sr_dist=t_sr, t_fs_dist=t_fs, r_sr=r_sr, r_fs=r_fs, seed=seed)
            yield simulate(cfg).timeline


def test_report_matches_reference_on_simulated_timelines():
    kinds = Counter()
    for tl in simulated_timelines():
        assert_report_matches_reference(tl)
        kinds.update(report(tl)["complete_periods"])
    assert kinds["fail_stop"] and kinds["fail_slow"]


def test_report_matches_reference_on_random_traces():
    rng = random.Random(20261018)  # the traces of the parser's reference test
    checked = 0
    for _ in range(400):
        make_source = random_source(rng, random_event_lines(rng))
        try:
            tl = parse_trace(make_source())
        except TraceParseError:
            continue
        assert_report_matches_reference(tl)
        checked += 1
    assert checked >= 300


def edge_timelines():
    rates = {StageKind.SLOW_RECOVERY: 0.5, StageKind.FAIL_SLOW_DEGRADED: 0.25,
             StageKind.HEALTHY_RUN: 1.0}

    def build(*stages):
        return RateTimeline((1.0 + i / 8, rates.get(s, 0.0), s) for i, s in enumerate(stages))

    repair = StageKind.REPAIR
    yield build(StageKind.HEALTHY_RUN, StageKind.CHECKPOINT_SAVE, StageKind.SLOW_RECOVERY)
    yield build(repair, repair, StageKind.HEALTHY_RUN, repair, StageKind.ROLLBACK_WASTE)
    for stage in StageKind:
        yield build(stage)
        yield build(stage, repair)
        yield build(repair, stage)
        yield build(stage, repair, stage)
        yield build(stage, stage, repair, repair, stage)


def test_report_matches_reference_on_edge_timelines():
    for tl in edge_timelines():
        assert_report_matches_reference(tl)
