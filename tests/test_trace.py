import io
import json
import math

import pytest

from torkit import (
    FailureMixture,
    RateTimeline,
    StageKind,
    TraceEvent,
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
from torkit.analytic import mixture_concat_timeline
from torkit.periods import period_records
from torkit.simulator import config_from_period
from torkit.timeline import concat, observed_time
from torkit.trace import render_report, timeline_to_events, write_jsonl


def jsonl(*objs) -> str:
    return "\n".join(json.dumps(o) for o in objs) + "\n"


def healthy(t0, t1):
    return {"t_start": t0, "t_end": t1, "stage": "HealthyRun", "rate": 1.0}


def events_for(tl):
    return timeline_to_events(tl)


def roundtrip(tl):
    buf = io.StringIO()
    write_jsonl(events_for(tl), buf)
    return parse_trace(buf.getvalue())


class TestParse:
    def test_two_contiguous_events(self):
        evs = parse_trace(jsonl(healthy(0, 10), healthy(10, 20)))
        assert len(evs) == 2
        assert evs[0].t_end == evs[1].t_start == 10.0

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
        evs = parse_trace(jsonl(dict(healthy(0, 10), note="warm-up", host="n1")))
        buf = io.StringIO()
        write_jsonl(evs, buf)
        assert json.loads(buf.getvalue()) == healthy(0.0, 10.0)

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
        assert parse_trace(jsonl(dict(event, duration=10.0)))[0].t_end == 10.0
        with pytest.raises(TraceParseError, match="line 1: duration 5.0 disagrees"):
            parse_trace(jsonl(dict(event, duration=5.0)))

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceParseError, match="empty"):
            parse_trace("")

    def test_unsorted_input_is_sorted(self):
        evs = parse_trace(jsonl(healthy(10, 20), healthy(0, 10)))
        assert [e.t_start for e in evs] == [0.0, 10.0]

    def test_bytes_input(self):
        evs = parse_trace(jsonl(healthy(0, 10)).encode())
        assert len(evs) == 1

    def test_wall_clock_normalization(self):
        evs = parse_trace(jsonl(
            {"wall_start": "2026-08-23T10:00:00", "wall_end": "2026-08-23T10:01:30",
             "stage": "HealthyRun", "rate": 1.0},
            {"wall_start": "2026-08-23T10:01:30", "wall_end": "2026-08-23T10:02:00",
             "stage": "Repair", "rate": 0.0},
        ))
        assert evs[0].t_start == 0.0
        assert evs[0].t_end == 90.0
        assert evs[1].t_end == 120.0

    def test_mixing_time_conventions_rejected(self):
        with pytest.raises(TraceParseError, match="mixes"):
            parse_trace(jsonl(
                healthy(0, 10),
                {"wall_start": "2026-08-23T10:00:00", "wall_end": "2026-08-23T10:01:00",
                 "stage": "Repair", "rate": 0.0},
            ))


class TestTraceToTimeline:
    def test_worked_period_round_trip(self, worked_fail_stop):
        tl = period_to_timeline(worked_fail_stop)
        evs = roundtrip(tl)
        back = trace_to_timeline(evs)
        assert back.segments == tl.segments
        assert tor_of_timeline(back) == pytest.approx(91 / 110, abs=1e-15)

    def test_single_healthy_event(self):
        evs = parse_trace(jsonl(healthy(0, 42)))
        tl = trace_to_timeline(evs)
        assert tor_of_timeline(tl) == 1.0

    def test_simulator_round_trip(self, worked_fail_stop):
        cfg = config_from_period(worked_fail_stop, periods=50, seed=13)
        res = simulate(cfg)
        back = trace_to_timeline(roundtrip(res.timeline))
        assert back.segments == res.timeline.segments
        assert abs(tor_of_timeline(back) - res.tor) <= 1e-12

    @pytest.mark.parametrize("args, message", [
        ((0.0, 5.0, StageKind.SLOW_RECOVERY, 2.0), "rate must lie in"),
        ((0.0, 5.0, StageKind.SLOW_RECOVERY, -0.5), "rate must lie in"),
        ((5.0, 3.0, StageKind.HEALTHY_RUN, 1.0), "duration must be a finite non-negative"),
        ((0.0, 5.0, StageKind.HEALTHY_RUN, 1.0, -5.0), "duration must be a finite non-negative"),
        ((0.0, math.inf, StageKind.HEALTHY_RUN, 1.0), "duration must be a finite non-negative"),
        ((0.0, 5.0, "Napping", 0.0), "unknown stage 'Napping'"),
        (("0", 5.0, StageKind.HEALTHY_RUN, 1.0), "t_start must be a number"),
    ])
    def test_hand_built_event_checked(self, args, message):
        with pytest.raises(ValidationError, match=message):
            TraceEvent(*args)

    def test_hand_built_events_match_parsed(self):
        hand = [TraceEvent(0, 10, "HealthyRun", 1), TraceEvent(10, 10, "Repair", 0),
                TraceEvent(10, 12, "Repair", 0)]
        assert hand[0] == TraceEvent(0.0, 10.0, StageKind.HEALTHY_RUN, 1.0)
        assert type(hand[0].t_start) is float and type(hand[0].rate) is float
        parsed = parse_trace(jsonl(healthy(0, 10), {**healthy(10, 12), "stage": "Repair",
                                                    "rate": 0}))
        assert parsed == [hand[0], hand[2]]
        # The zero-duration event is dropped, as a zero-duration segment is.
        tl = trace_to_timeline(hand)
        assert tl == trace_to_timeline(parsed)
        assert tl == RateTimeline.build([(10.0, 1.0, StageKind.HEALTHY_RUN),
                                         (2.0, 0.0, StageKind.REPAIR)])


class TestResplitInvariance:
    def test_tor_invariant_to_event_splits(self, worked_fail_slow):
        tl = period_to_timeline(worked_fail_slow)
        evs = events_for(tl)
        split = []
        for e in evs:
            mid = (e.t_start + e.t_end) / 2
            split.append({"t_start": e.t_start, "t_end": mid, "stage": str(e.stage), "rate": e.rate})
            split.append({"t_start": mid, "t_end": e.t_end, "stage": str(e.stage), "rate": e.rate})
        resplit = parse_trace(jsonl(*split))
        assert tor_of_timeline(trace_to_timeline(resplit)) == pytest.approx(
            tor_of_timeline(tl), abs=1e-12
        )


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
        evs = events_for(tl) + [
            # partial next period: healthy run, then the trace just stops
            type(events_for(tl)[0])(220.0, 260.0, StageKind.HEALTHY_RUN, 1.0)
        ]
        buf = io.StringIO()
        write_jsonl(evs, buf)
        stop, _ = estimate_mtbf(parse_trace(buf.getvalue()))
        assert stop == 100.0


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
        m = FailureMixture(((worked_fail_stop, 1.0), (worked_fail_slow, 1.0)))
        rep = report(roundtrip(mixture_concat_timeline(m)))
        assert rep["tor"] == pytest.approx(186 / 220, abs=1e-12)
        assert rep["complete_periods"] == {"fail_stop": 1, "fail_slow": 1}

    def test_periods_split_once(self, worked_fail_stop, worked_fail_slow, monkeypatch):
        import torkit.trace

        m = FailureMixture(((worked_fail_stop, 2.0), (worked_fail_slow, 1.0)))
        events = roundtrip(mixture_concat_timeline(m))
        calls = []

        def counted(tl):
            calls.append(len(tl))
            return period_records(tl)

        monkeypatch.setattr(torkit.trace, "period_records", counted)
        rep = report(events)
        assert len(calls) == 1
        assert (rep["fail_stop_mtbf"], rep["fail_slow_mtbf"]) == estimate_mtbf(events)

    def test_report_is_json_serializable(self, worked_fail_slow):
        rep = report(roundtrip(period_to_timeline(worked_fail_slow)))
        assert json.loads(json.dumps(rep)) == rep

    def test_render_contains_key_lines(self, worked_fail_stop):
        text = render_report(report(roundtrip(period_to_timeline(worked_fail_stop))))
        assert "TOR:" in text and "0.827273" in text
        assert "fail-stop MTBF: 100.000000 s" in text
