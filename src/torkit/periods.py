"""Splitting realized timelines into failure-repair periods.

A period is the repeating unit of the failure model: everything up to and
including one repair downtime. Periods are delimited by the end of each
maximal run of Repair segments; whatever trails the last repair is a partial
period (still counted in TOR, excluded from per-period statistics).
"""
from __future__ import annotations

import math

from .model import FAIL_SLOW, FAIL_STOP, MIXED, RateTimeline, StageKind, StageTotals


def period_records(tl: RateTimeline) -> list[StageTotals]:
    """Summarise each complete period of ``tl`` in one pass over its segments.

    A record is emitted at the end of each maximal run of Repair segments.
    A period holding both a roll-back and a degraded interval is MIXED; one
    with neither is FAIL_STOP (an empty rolled-back span is indistinguishable
    from a zero-length degradation).
    """
    # Local names: looking members up on the enum class costs more than the
    # rest of the loop body.
    HEALTHY_RUN, CHECKPOINT_SAVE, SLOW_RECOVERY = (
        StageKind.HEALTHY_RUN, StageKind.CHECKPOINT_SAVE, StageKind.SLOW_RECOVERY
    )
    ROLLBACK_WASTE, FAIL_SLOW_DEGRADED, REPAIR = (
        StageKind.ROLLBACK_WASTE, StageKind.FAIL_SLOW_DEGRADED, StageKind.REPAIR
    )
    records: list[StageTotals] = []
    t_sr: list[float] = []
    sr_work: list[float] = []
    t_h: list[float] = []
    ckpt: list[float] = []
    t_rb: list[float] = []
    t_fs: list[float] = []
    fs_work: list[float] = []
    t_r: list[float] = []
    n_ckpt = 0
    prev = None
    segs = tl.segments
    last = len(segs) - 1
    for i, s in enumerate(segs):
        stage = s.stage
        d = s.duration
        if stage is HEALTHY_RUN:
            t_h.append(d)
        elif stage is CHECKPOINT_SAVE:
            ckpt.append(d)
            if prev is not CHECKPOINT_SAVE:
                n_ckpt += 1
        elif stage is SLOW_RECOVERY:
            t_sr.append(d)
            sr_work.append(d * s.rate)
        elif stage is ROLLBACK_WASTE:
            t_rb.append(d)
        elif stage is FAIL_SLOW_DEGRADED:
            t_fs.append(d)
            fs_work.append(d * s.rate)
        else:
            t_r.append(d)
            if i == last or segs[i + 1].stage is not REPAIR:
                records.append(StageTotals(
                    FAIL_STOP if not t_fs else MIXED if t_rb else FAIL_SLOW,
                    math.fsum(t_sr), math.fsum(sr_work), math.fsum(t_h), math.fsum(ckpt),
                    n_ckpt, math.fsum(t_rb), math.fsum(t_fs), math.fsum(fs_work),
                    math.fsum(t_r),
                ))
                t_sr, sr_work, t_h, ckpt, t_rb, t_fs, fs_work, t_r = [], [], [], [], [], [], [], []
                n_ckpt = 0
        prev = stage
    return records


def mean_periods(records: list[StageTotals]) -> StageTotals | None:
    """Field-by-field means over complete periods; None if there are none.

    The TOR of the means equals the TOR of the concatenated periods exactly,
    because its numerator and denominator are linear in the stage times.
    """
    if not records:
        return None
    kinds = {r.kind for r in records}
    kind = kinds.pop() if len(kinds) == 1 else MIXED
    n = len(records)

    def m(attr: str) -> float:
        return math.fsum(getattr(r, attr) for r in records) / n

    return StageTotals(
        kind, m("t_sr"), m("sr_work"), m("t_h"), m("ckpt_time"), m("n_ckpt"),
        m("t_rb"), m("t_fs"), m("fs_work"), m("t_r"),
    )
