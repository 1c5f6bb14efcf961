"""Algebra over piecewise-constant r(t) timelines.

These exact summations are the brute-force oracle against which every
closed-form TOR expression is checked. All accumulation uses ``math.fsum``
(compensated summation), so additivity properties hold to ~1 ulp. The sums,
the breakdown and :func:`write_lines`, the one pass that writes a timeline's
JSONL and CSV, read the timeline's columns.
"""
from __future__ import annotations

import math
from itertools import accumulate, islice
from operator import mul
from typing import Iterable, TextIO

from .errors import UndefinedMetricError
from .model import RateTimeline, StageKind
from .periods import period_records

CSV_HEADER = ["t_start", "t_end", "rate", "stage"]
# The name the CSV and JSONL writers give each stage.
_NAME = {stage: stage.value for stage in StageKind}
# Lines write_lines formats per write: bounds its own memory, whatever the length.
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


def write_lines(tl: RateTimeline, jsonl: TextIO | None = None, csv: TextIO | None = None) -> None:
    """Write ``tl`` as JSON Lines to ``jsonl`` and as CSV to ``csv`` (either may be None).

    A line is what ``json.dumps`` gives for the event's dict (keys ``t_start, t_end,
    stage, rate, duration``), a row what ``csv.writer`` gives for ``t_start, t_end,
    rate, stage`` after the header. Per batch of ``_BATCH`` entries, the edges
    (``repr`` of running sums of the durations from 0), rate ``repr``s and stage
    names are made once for both, and each output gets one ``write``.
    """
    if jsonl is None and csv is None:
        return
    if csv is not None:
        csv.write(",".join(CSV_HEADER) + "\r\n")
    edges = map(repr, accumulate(tl.durations, initial=0.0))
    ends = [next(edges)]
    for i in range(0, len(tl), _BATCH):
        batch = slice(i, i + _BATCH)
        starts = ends[-1:]
        ends = list(islice(edges, _BATCH))
        starts += ends[:-1]
        rates = list(map(repr, tl.rates[batch]))
        names = [_NAME[stage] for stage in tl.stages[batch]]
        if jsonl is not None:
            text = "".join([
                f'{{"t_start": {t0}, "t_end": {t1}, "stage": "{name}", '
                f'"rate": {rate}, "duration": {d!r}}}\n'
                for t0, t1, name, rate, d in zip(starts, ends, names, rates, tl.durations[batch])])
            # repr spells a time that overflowed "inf"; json.dumps spells it "Infinity".
            # No other token of a line contains "inf".
            jsonl.write(text.replace("inf", "Infinity") if "inf" in text else text)
        if csv is not None:
            csv.write("".join([f"{t0},{t1},{rate},{name}\r\n"
                               for t0, t1, rate, name in zip(starts, ends, rates, names)]))


def write_csv(tl: RateTimeline, out: TextIO) -> None:
    """Export as CSV with columns t_start,t_end,rate,stage (header included):
    :func:`write_lines` with ``csv=out``. Every row ends in ``\\r\\n``."""
    write_lines(tl, csv=out)
