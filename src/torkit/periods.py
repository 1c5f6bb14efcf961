"""Splitting realized timelines into failure-repair periods.

A period is the repeating unit of the failure model: everything up to and
including one repair downtime. Periods are delimited by the end of each
maximal run of Repair segments; whatever trails the last repair is a partial
period (still counted in TOR, excluded from per-period statistics). One pass
over a timeline's columns gives both the records and the stage breakdown.
"""
from __future__ import annotations

import math
from itertools import chain

from .model import FAIL_SLOW, FAIL_STOP, MIXED, RateTimeline, StageKind, StageTotals


def period_records(tl: RateTimeline, *, _breakdown: dict | None = None) -> list[StageTotals]:
    """Summarise each complete period of ``tl`` in one pass over its columns.

    A record is emitted at the end of each maximal run of Repair segments.
    A period holding both a roll-back and a degraded interval is MIXED; one
    with neither is FAIL_STOP (an empty rolled-back span is indistinguishable
    from a zero-length degradation). A ``_breakdown`` dict gets the stage
    breakdown, where a segment loses ``duration * (1 - rate)``.
    """
    # Local names: looking members up on the enum class costs more than the rest of the loop body.
    HEALTHY_RUN, CHECKPOINT_SAVE, SLOW_RECOVERY, ROLLBACK_WASTE, FAIL_SLOW_DEGRADED, REPAIR = (
        StageKind.HEALTHY_RUN, StageKind.CHECKPOINT_SAVE, StageKind.SLOW_RECOVERY,
        StageKind.ROLLBACK_WASTE, StageKind.FAIL_SLOW_DEGRADED, StageKind.REPAIR)
    keep = _breakdown is not None
    spent = []  # each period's (t_sr, t_h, ckpt, t_rb, t_fs, t_r), for _breakdown
    sr_loss, fs_loss = [], []  # d * (1.0 - r) of each SlowRecovery, FailSlowDegraded entry
    records: list[StageTotals] = []
    t_sr, sr_work, t_h, ckpt, t_rb, t_fs, fs_work, t_r = [], [], [], [], [], [], [], []
    n_ckpt = 0
    prev = None
    durations, rates, stages = tl.durations, tl.rates, tl.stages
    last = len(stages) - 1
    for i, stage in enumerate(stages):
        d = durations[i]
        if stage is HEALTHY_RUN:
            t_h.append(d)
        elif stage is CHECKPOINT_SAVE:
            ckpt.append(d)
            if prev is not CHECKPOINT_SAVE:
                n_ckpt += 1
        elif stage is SLOW_RECOVERY:
            t_sr.append(d)
            sr_work.append(d * rates[i])
            if keep:
                sr_loss.append(d * (1.0 - rates[i]))
        elif stage is ROLLBACK_WASTE:
            t_rb.append(d)
        elif stage is FAIL_SLOW_DEGRADED:
            t_fs.append(d)
            fs_work.append(d * rates[i])
            if keep:
                fs_loss.append(d * (1.0 - rates[i]))
        else:
            t_r.append(d)
            if i == last or stages[i + 1] is not REPAIR:
                records.append(StageTotals(
                    FAIL_STOP if not t_fs else MIXED if t_rb else FAIL_SLOW,
                    math.fsum(t_sr), math.fsum(sr_work), math.fsum(t_h), math.fsum(ckpt), n_ckpt,
                    math.fsum(t_rb), math.fsum(t_fs), math.fsum(fs_work), math.fsum(t_r)))
                if keep:
                    spent.append((t_sr, t_h, ckpt, t_rb, t_fs, t_r))
                t_sr, sr_work, t_h, ckpt, t_rb, t_fs, fs_work, t_r = [], [], [], [], [], [], [], []
                n_ckpt = 0
        prev = stage
    if keep:
        spent.append((t_sr, t_h, ckpt, t_rb, t_fs, t_r))  # the trailing partial period
        times = dict(zip((SLOW_RECOVERY, HEALTHY_RUN, CHECKPOINT_SAVE, ROLLBACK_WASTE,
                          FAIL_SLOW_DEGRADED, REPAIR),
                         [math.fsum(chain.from_iterable(lists)) for lists in zip(*spent)]))
        lost = {**times, SLOW_RECOVERY: math.fsum(sr_loss), FAIL_SLOW_DEGRADED: math.fsum(fs_loss),
                HEALTHY_RUN: 0.0}
        _breakdown.update((stage, (times[stage], lost[stage])) for stage in dict.fromkeys(stages))
    return records


def mean_periods(records: list[StageTotals]) -> StageTotals | None:
    """Field-by-field means over complete periods; None if there are none.

    The TOR of the means equals the TOR of the concatenated periods exactly,
    because its numerator and denominator are linear in the stage times.
    """
    if not records:
        return None
    kinds, *columns = zip(*records)
    kind = kinds[0] if len(set(kinds)) == 1 else MIXED
    return StageTotals(kind, *(math.fsum(column) / len(records) for column in columns))
