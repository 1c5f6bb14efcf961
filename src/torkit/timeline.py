"""Algebra over piecewise-constant r(t) timelines.

These exact summations are the brute-force oracle against which every
closed-form TOR expression is checked. All accumulation uses ``math.fsum``
(compensated summation), so additivity properties hold to ~1 ulp. The sums,
the breakdown and the CSV writer read the timeline's columns.
"""
from __future__ import annotations

import math
from itertools import accumulate, islice
from operator import mul
from typing import Iterable, Iterator, TextIO

from .errors import UndefinedMetricError
from .model import RateTimeline, StageKind
from .periods import period_records

CSV_HEADER = ["t_start", "t_end", "rate", "stage"]
# The name the CSV and JSONL writers give each stage.
_NAME = {stage: stage.value for stage in StageKind}
# Lines a writer formats per write: bounds its own memory, whatever the length.
_BATCH = 2048


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
    return _observed(tl.durations)


def _observed(durations: list[float]) -> float:
    """The summed ``durations`` of a timeline; none is an UndefinedMetricError."""
    if not durations:
        raise UndefinedMetricError("empty timeline: observed time is zero, TOR undefined")
    return _total("observed time", durations)


def tor_of_timeline(tl: RateTimeline) -> float:
    """Training overhead ratio of a timeline: optimal time over observed time."""
    return integrate_optimal_time(tl) / observed_time(tl)


def stage_breakdown(tl: RateTimeline) -> dict[StageKind, tuple[float, float]]:
    """Per-stage (time spent, time lost) in first-appearance order, from the period pass.

    Lost time for a segment is duration * (1 - rate); summed over all stages
    it equals observed_time - integrate_optimal_time exactly.
    """
    breakdown: dict[StageKind, tuple[float, float]] = {}
    period_records(tl, _breakdown=breakdown)
    return breakdown


def breakdown_to_dict(breakdown: dict[StageKind, tuple[float, float]]) -> dict:
    """The JSON shape of a :func:`stage_breakdown`: ``{stage: {"time", "lost_time"}}``."""
    return {str(stage): {"time": t, "lost_time": lost} for stage, (t, lost) in breakdown.items()}


def breakdown_lines(breakdown: dict) -> list[str]:
    """The text lines of a breakdown in its JSON shape, rounded to 6 decimals."""
    return ["stage breakdown (time s / lost s):", *(
        f"  {stage:<18} {d['time']:.6f} / {d['lost_time']:.6f}" for stage, d in breakdown.items())]


def _batches(tl: RateTimeline) -> Iterator[zip]:
    """Runs of ``_BATCH`` entries of ``tl``, each a zip of (start, end, rate,
    stage, duration) rows whose start and end are the ``repr`` of running sums
    of the durations from 0: the one time axis of the CSV and JSONL writers."""
    edges = map(repr, accumulate(tl.durations, initial=0.0))
    starts = [next(edges)]
    for i in range(0, len(tl), _BATCH):
        ends = list(islice(edges, _BATCH))
        yield zip(starts + ends, ends, tl.rates[i:i + _BATCH], tl.stages[i:i + _BATCH],
                  tl.durations[i:i + _BATCH])
        starts = ends[-1:]


def write_csv(tl: RateTimeline, out: TextIO) -> None:
    """Export as CSV with columns t_start,t_end,rate,stage (header included).

    The rows are those ``csv.writer`` gives for ``repr`` of each time and rate
    and the stage's name, each ending in ``\\r\\n``. They go to ``out`` in
    batches of a fixed number, so the writer's own memory does not grow with
    the timeline.
    """
    out.write(",".join(CSV_HEADER) + "\r\n")
    for rows in _batches(tl):
        out.write("".join([f"{t0},{t1},{rate!r},{_NAME[stage]}\r\n"
                           for t0, t1, rate, stage, _ in rows]))
