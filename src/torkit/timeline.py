"""Algebra over piecewise-constant r(t) timelines.

These exact summations are the brute-force oracle against which every
closed-form TOR expression is checked. All accumulation uses ``math.fsum``
(compensated summation), so additivity properties hold to ~1 ulp. The sums,
the breakdown and the CSV writer read the timeline's columns.
"""
from __future__ import annotations

import csv
import io
import math
from itertools import accumulate
from operator import mul
from typing import Iterable, TextIO

from .errors import UndefinedMetricError, ValidationError
from .model import RateTimeline, Segment, StageKind

CSV_HEADER = ["t_start", "t_end", "rate", "stage"]


def _total(what: str, terms: Iterable[float]) -> float:
    """``math.fsum(terms)``; a sum beyond the float range is an UndefinedMetricError."""
    try:
        return math.fsum(terms)
    except OverflowError:  # intermediate overflow
        raise UndefinedMetricError(f"{what} exceeds the float range, TOR undefined") from None


def integrate_optimal_time(tl: RateTimeline) -> float:
    """Ideal-system time equivalent of the work in ``tl``: sum of duration*rate."""
    return _total("optimal time", map(mul, tl.durations, tl.rates))


def observed_time(tl: RateTimeline) -> float:
    """Wall-clock length of the timeline. Empty timelines are rejected."""
    if len(tl) == 0:
        raise UndefinedMetricError("empty timeline: observed time is zero, TOR undefined")
    return _total("observed time", tl.durations)


def tor_of_timeline(tl: RateTimeline) -> float:
    """Training overhead ratio of a timeline: optimal time over observed time."""
    return integrate_optimal_time(tl) / observed_time(tl)


def stage_breakdown(tl: RateTimeline) -> dict[StageKind, tuple[float, float]]:
    """Per-stage totals: (time spent, time lost).

    Lost time for a segment is duration * (1 - rate); summed over all stages
    it equals observed_time - integrate_optimal_time exactly.
    """
    times: dict[StageKind, list[float]] = {}
    losses: dict[StageKind, list[float]] = {}
    for d, r, stage in zip(tl.durations, tl.rates, tl.stages):
        times.setdefault(stage, []).append(d)
        losses.setdefault(stage, []).append(d * (1.0 - r))
    return {k: (math.fsum(times[k]), math.fsum(losses[k])) for k in times}


def concat(timelines: Iterable[RateTimeline]) -> RateTimeline:
    """Append timelines in order. Optimal and observed time are additive."""
    durations: list[float] = []
    rates: list[float] = []
    stages: list[StageKind] = []
    for tl in timelines:
        durations += tl.durations
        rates += tl.rates
        stages += tl.stages
    return RateTimeline._of_columns(durations, rates, stages)


def write_csv(tl: RateTimeline, out: TextIO) -> None:
    """Export as CSV with columns t_start,t_end,rate,stage (header included)."""
    w = csv.writer(out)
    w.writerow(CSV_HEADER)
    edges = list(accumulate(tl.durations, initial=0.0))
    w.writerows([repr(t0), repr(t1), repr(r), str(stage)]
                for t0, t1, r, stage in zip(edges, edges[1:], tl.rates, tl.stages))


def read_csv(inp: TextIO) -> RateTimeline:
    """Parse a timeline written by :func:`write_csv`."""
    reader = csv.reader(inp)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValidationError(f"bad timeline CSV header: {header!r}")
    segs = []
    for row in reader:
        if not row:
            continue
        t0, t1, rate, stage = row
        segs.append(Segment(float(t1) - float(t0), float(rate), StageKind(stage)))
    return RateTimeline(tuple(segs))


def to_csv_string(tl: RateTimeline) -> str:
    buf = io.StringIO()
    write_csv(tl, buf)
    return buf.getvalue()
