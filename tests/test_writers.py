"""The JSONL and CSV writers against frozen copies of the per-line writers they replaced.

``reference_write_jsonl`` makes one ``json.dumps`` per event and
``reference_write_csv`` one ``csv.writer`` row of ``repr``/``str`` per segment,
both with the running sums of the durations from 0 as their edges. The batched
writers must give the same bytes on every input, parsed traces included.
"""
import csv
import datetime as dt
import io
import json
import math
import tracemalloc
from itertools import accumulate

import pytest

from torkit import RateTimeline, StageKind, ValidationError, parse_trace, simulate
from torkit.simulator import Exponential, Fixed, LogNormal, SimConfig
from torkit.timeline import (CSV_HEADER, _BATCH, observed_time, read_csv, tor_of_timeline,
                             write_csv)
from torkit.trace import timeline_to_events, write_jsonl

H, SR, CK, RB, FS, RP = (StageKind.HEALTHY_RUN, StageKind.SLOW_RECOVERY, StageKind.CHECKPOINT_SAVE,
                         StageKind.ROLLBACK_WASTE, StageKind.FAIL_SLOW_DEGRADED, StageKind.REPAIR)


def reference_write_jsonl(tl: RateTimeline, out) -> None:
    edges = list(accumulate(tl.durations, initial=0.0))
    for t0, t1, stage, rate, d in zip(edges, edges[1:], tl.stages, tl.rates, tl.durations):
        out.write(json.dumps({"t_start": t0, "t_end": t1, "stage": str(stage), "rate": rate,
                              "duration": d}) + "\n")


def reference_write_csv(tl: RateTimeline, out) -> None:
    w = csv.writer(out)
    w.writerow(["t_start", "t_end", "rate", "stage"])
    edges = list(accumulate(tl.durations, initial=0.0))
    w.writerows([repr(t0), repr(t1), repr(r), str(stage)]
                for t0, t1, r, stage in zip(edges, edges[1:], tl.rates, tl.stages))


def written(writer, obj) -> str:
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


def assert_same_text(got: str, want: str) -> None:
    """``got == want``; a failure names the first differing line and the line
    counts, where pytest would diff two outputs of thousands of lines for minutes."""
    if got != want:
        a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        x, y = (lines[i] if i < len(lines) else "(end of output)" for lines in (a, b))
        pytest.fail(f"line {i + 1} differs: {x!r} != {y!r} ({len(a)} lines against {len(b)})",
                    pytrace=False)


@pytest.mark.parametrize("change, message", [
    (lambda text: text.replace("5000\n", "5001\n", 1),
     r"^line 5001 differs: '5001\\n' != '5000\\n' \(100000 lines against 100000\)$"),
    (lambda text: text + "extra\n",
     r"^line 100001 differs: 'extra\\n' != '\(end of output\)' "
     r"\(100001 lines against 100000\)$"),
], ids=["changed-line", "extra-line"])
def test_a_difference_names_its_first_line(change, message):
    want = "".join(f"{i}\n" for i in range(100_000))
    with pytest.raises(pytest.fail.Exception, match=message):
        assert_same_text(change(want), want)
    assert_same_text(want, want)


def assert_same_bytes(tl: RateTimeline) -> None:
    """Both writers match their oracles on ``tl``."""
    assert_same_text(written(write_jsonl, tl), written(reference_write_jsonl, tl))
    assert_same_text(written(write_csv, tl), written(reference_write_csv, tl))


def sim_config(dist, seed: int) -> SimConfig:
    return SimConfig(
        w_opt=1.0, total_work=15000.0, ckpt_interval=20.0, t_ckpt=1.0,
        fail_stop_rate=0.01, fail_slow_rate=0.005,
        t_r_dist=dist, t_sr_dist=dist, t_fs_dist=dist,
        r_sr=1 / 3, r_fs=0.1 + 0.2, seed=seed,
    )


DISTS = [Fixed(5.0), Exponential(2.5), LogNormal(4.0, 0.5)]


def cycled(n: int, durations: list[float]) -> RateTimeline:
    """``n`` segments cycling through every stage with the given durations."""
    pattern = [(1 / 3, SR), (1.0, H), (0.0, CK), (0.0, RB), (0.1 + 0.2, FS), (0.0, RP)]
    return RateTimeline.build(
        [(durations[i % len(durations)], *pattern[i % len(pattern)]) for i in range(n)])


ODD = [5e-324, 1e300, 0.1 + 0.2, 1 / 3, 7.0, 1.5e-7, 123456789.123456789, 2.0 ** 52 + 1]


def wall_clock_trace(tl: RateTimeline) -> str:
    """``tl`` as a JSONL trace of ISO-8601 wall clocks at microsecond resolution."""
    origin = dt.datetime(2026, 8, 23, 10, 0, 0)
    edges = [origin + dt.timedelta(microseconds=round(t * 1e6))
             for t in accumulate(tl.durations, initial=0.0)]
    return "".join(
        json.dumps({"wall_start": w0.isoformat(), "wall_end": w1.isoformat(),
                    "stage": str(stage), "rate": rate}) + "\n"
        for w0, w1, stage, rate in zip(edges, edges[1:], tl.stages, tl.rates))


def seconds_trace_with_own_times(tl: RateTimeline, origin: float = 0.0,
                                 nudged: bool = True) -> str:
    """``tl`` as a JSONL seconds trace from ``origin``, with no ``duration``
    key; if ``nudged``, its starts differ from the previous ends within the
    contiguity tolerance."""
    edges = list(accumulate(tl.durations, initial=origin))
    lines = []
    for i, (t0, t1, stage, rate) in enumerate(zip(edges, edges[1:], tl.stages, tl.rates)):
        nudge = 1e-10 * max(1.0, t0) if nudged and i % 3 == 1 else 0.0
        lines.append(json.dumps({"t_start": t0 + nudge, "t_end": t1, "stage": str(stage),
                                 "rate": rate}))
    return "\n".join(lines) + "\n"


class TestSameBytesAsPerLineWriters:
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_simulated(self, dist, seed):
        tl = simulate(sim_config(dist, seed)).timeline
        assert len(tl) > _BATCH
        assert_same_bytes(tl)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    def test_parsed_seconds_trace(self, dist):
        tl = simulate(sim_config(dist, 4)).timeline
        text = seconds_trace_with_own_times(tl)
        events = [json.loads(line) for line in text.splitlines()]
        starts, ends = [e["t_start"] for e in events], [e["t_end"] for e in events]
        tr = parse_trace(text)
        # The source's own times are not the running sums the writers give.
        assert starts[1:] != ends[:-1]
        assert starts != list(accumulate(tr.durations, initial=0.0))[:-1]
        assert_same_bytes(tr)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    def test_parsed_wall_clock_trace(self, dist):
        tl = simulate(sim_config(dist, 5)).timeline
        tr = parse_trace(wall_clock_trace(tl))
        assert len(tr) == len(tl)
        assert_same_bytes(tr)

    def test_trace_of_segments(self):
        tl = cycled(_BATCH + 3, ODD)
        assert_same_bytes(RateTimeline(tl.segments))

    @pytest.mark.parametrize("n", [1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
    def test_lengths_around_the_batch(self, n):
        assert_same_bytes(cycled(n, ODD))

    @pytest.mark.parametrize("value", ODD)
    def test_odd_spellings(self, value):
        tl = cycled(12, [value])
        assert_same_bytes(tl)
        assert repr(value) in written(write_csv, tl)

    def test_empty(self):
        tr = RateTimeline()
        assert_same_bytes(tr)
        assert written(write_jsonl, tr) == ""
        assert written(write_csv, tr) == "t_start,t_end,rate,stage\r\n"

    def test_csv_rows_end_in_crlf(self):
        text = written(write_csv, cycled(5, ODD))
        assert text.count("\r\n") == 6 and text.endswith("\r\n")
        assert "\n" not in text.replace("\r\n", "")


class TestOverflowingEdge:
    """Cumulative edges that overflow to inf: JSONL keeps json.dumps's
    ``Infinity``, CSV keeps repr's ``inf``."""

    @pytest.mark.parametrize("n", [3, _BATCH + 1, 2 * _BATCH + 5])
    def test_spelled_as_before(self, n):
        # the edges overflow at the second 1e308, in the first batch or a later one
        tl = RateTimeline.build([(1.0, 1.0, H)] * (n - 2) + [(1e308, 1.0, H), (1e308, 0.0, RP)])
        assert list(accumulate(tl.durations))[-1] == math.inf
        text = written(write_jsonl, tl)
        assert text.count("Infinity") == 1
        assert text.splitlines()[-1] == (
            '{"t_start": 1e+308, "t_end": Infinity, "stage": "Repair", "rate": 0.0, '
            '"duration": 1e+308}')
        assert_same_bytes(tl)
        assert written(write_csv, tl).endswith(",inf,0.0,Repair\r\n")

    def test_every_edge_after_overflow(self):
        tl = RateTimeline.build([(1e308, 1.0, H)] * 3 + [(5e-324, 1 / 3, SR)] * 4)
        assert_same_bytes(tl)
        assert written(write_jsonl, tl).count("Infinity") == 11


def written_edges(writer, tl: RateTimeline) -> list[tuple[str, str]]:
    """The (t_start, t_end) of each row ``writer`` writes, as CSV spells them."""
    text = written(writer, tl)
    if writer is write_csv:
        return [(row[0], row[1]) for row in list(csv.reader(io.StringIO(text)))[1:]]
    return [(repr(e["t_start"]), repr(e["t_end"])) for e in map(json.loads, text.splitlines())]


class TestOneTimeAxis:
    """A parsed trace keeps no times of its own: both writers lay it out from 0."""

    @pytest.mark.parametrize("source", [
        lambda tl: seconds_trace_with_own_times(tl, origin=100.0, nudged=False),
        seconds_trace_with_own_times,
        wall_clock_trace,
    ], ids=["starts-at-100", "nudged-starts", "wall-clock"])
    def test_writers_give_the_same_edges(self, source):
        tl = simulate(sim_config(DISTS[1], 8)).timeline
        tr = parse_trace(source(tl))
        rows = written_edges(write_jsonl, tr)
        assert rows == written_edges(write_csv, tr)
        assert len(rows) == len(tr) and rows[0][0] == "0.0"

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_emitted_jsonl_rewrites_to_the_same_bytes(self, dist, seed):
        tl = simulate(sim_config(dist, seed)).timeline
        text = written(write_jsonl, tl)
        back = parse_trace(text)
        assert_same_text(written(write_jsonl, back), text)
        assert_same_text(written(write_csv, back), written(write_csv, tl))

    def test_timeline_to_events_is_the_timeline(self):
        tl = cycled(7, ODD)
        assert timeline_to_events(tl) is tl


class TestRoundTrip:
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    def test_jsonl_gives_back_tor_and_t_obs(self, dist):
        tl = simulate(sim_config(dist, 6)).timeline
        back = parse_trace(written(write_jsonl, tl))
        assert tor_of_timeline(back).hex() == tor_of_timeline(tl).hex()
        assert observed_time(back).hex() == observed_time(tl).hex()

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    def test_csv_gives_back_what_the_per_line_csv_gave(self, dist):
        # read_csv takes each duration as t_end - t_start of the written edges,
        # so it gives the figures of those edges; the source's to rounding
        tl = simulate(sim_config(dist, 7)).timeline
        back = read_csv(io.StringIO(written(write_csv, tl)))
        ref = read_csv(io.StringIO(written(reference_write_csv, tl)))
        assert tor_of_timeline(back).hex() == tor_of_timeline(ref).hex()
        assert observed_time(back).hex() == observed_time(ref).hex()
        assert tor_of_timeline(back) == pytest.approx(tor_of_timeline(tl), rel=1e-12)
        assert observed_time(back) == pytest.approx(observed_time(tl), rel=1e-12)


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


@pytest.mark.parametrize("writer", ["jsonl", "csv"])
def test_writer_memory_does_not_grow_with_length(writer):
    n = 200_000
    tl = RateTimeline._of_columns([0.1 + 0.2] * n, [1 / 3] * n, [SR] * n)
    write = write_jsonl if writer == "jsonl" else write_csv
    tracemalloc.start()
    try:
        write(tl, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


class TestReadCsvMalformedRows:
    GOOD = "t_start,t_end,rate,stage\r\n0.0,2.0,0.5,SlowRecovery\r\n"

    @pytest.mark.parametrize("row, message", [
        ("2.0,92.0,1.0", r"^timeline CSV row 3: expected 4 fields, got 3$"),
        ("2.0,92.0,1.0,HealthyRun,x", r"^timeline CSV row 3: expected 4 fields, got 5$"),
        ("2.0,ninety,1.0,HealthyRun", r"^timeline CSV row 3: could not convert .*'ninety'$"),
        ("2.0,92.0,full,HealthyRun", r"^timeline CSV row 3: could not convert .*'full'$"),
        ("2.0,92.0,1.0,Napping", r"^timeline CSV row 3: unknown stage 'Napping'$"),
        ("2.0,92.0,1.5,HealthyRun", r"^timeline CSV row 3: rate must lie in \[0, 1\]"),
        ("2.0,7.0,0.5,Repair", r"^timeline CSV row 3: stage Repair must have rate 0, got 0\.5$"),
        ("1" * 200_000 + ",92.0,1.0,HealthyRun",
         r"^timeline CSV row 3: field larger than field limit \(131072\)$"),
    ], ids=["few-fields", "many-fields", "time-not-a-number", "rate-not-a-number",
            "unknown-stage", "rate-out-of-range", "not-the-fixed-rate", "field-too-large"])
    def test_names_the_row(self, row, message):
        with pytest.raises(ValidationError, match=message):
            read_csv(io.StringIO(self.GOOD + row + "\r\n"))

    def test_bad_header_is_named(self):
        with pytest.raises(ValidationError, match=r"^bad timeline CSV header: \['t_start', "
                                                  r"'t_end', 'rate', 'phase'\]$"):
            read_csv(io.StringIO(self.GOOD.replace("stage", "phase")))

    def test_unreadable_header_is_row_1(self):
        with pytest.raises(ValidationError, match=r"^timeline CSV row 1: field larger"):
            read_csv(io.StringIO("t" * 200_000 + ",t_end,rate,stage\r\n"))

    def test_blank_rows_are_skipped_and_counted(self):
        with pytest.raises(ValidationError, match=r"^timeline CSV row 4: unknown stage"):
            read_csv(io.StringIO(self.GOOD + "\r\n2.0,92.0,1.0,Napping\r\n"))
        with pytest.raises(ValidationError, match=r"^timeline CSV row 4: t_start 3\.0 is not"):
            read_csv(io.StringIO(self.GOOD + "\r\n3.0,92.0,1.0,HealthyRun\r\n"))
        assert len(read_csv(io.StringIO(self.GOOD + "\r\n"))) == 1
        assert len(read_csv(io.StringIO(self.GOOD + "\r\n2.0,92.0,1.0,HealthyRun\r\n"))) == 2

    @pytest.mark.parametrize("rows, message", [
        (["0.0,10.0,1.0,HealthyRun", "50.0,60.0,0.0,Repair"],
         r"^timeline CSV row 3: t_start 50\.0 is not the previous row's t_end 10\.0$"),
        (["0.0,10.0,1.0,HealthyRun", "5.0,15.0,0.0,Repair"],
         r"^timeline CSV row 3: t_start 5\.0 is not the previous row's t_end 10\.0$"),
        (["-100.0,-90.0,1.0,HealthyRun"],
         r"^timeline CSV row 2: t_start -100\.0 is not the previous row's t_end 0\.0$"),
        (["5.0,10.0,1.0,HealthyRun", "10.0,15.0,0.0,Repair"],
         r"^timeline CSV row 2: t_start 5\.0 is not the previous row's t_end 0\.0$"),
    ], ids=["gap", "overlap", "negative-start", "late-start"])
    def test_rows_must_tile_from_0(self, rows, message):
        with pytest.raises(ValidationError, match=message):
            read_csv(io.StringIO("".join(row + "\r\n" for row in [",".join(CSV_HEADER), *rows])))
