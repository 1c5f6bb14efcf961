"""Splitting realized timelines into failure-repair periods.

A period is the repeating unit of the failure model: everything up to and
including one repair downtime. Periods are delimited by the end of each
maximal run of Repair segments; whatever trails the last repair is a partial
period (still counted in TOR, excluded from per-period statistics).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import RateTimeline, StageKind

FAIL_STOP = "fail_stop"
FAIL_SLOW = "fail_slow"
MIXED = "mixed"


@dataclass(frozen=True)
class PeriodRecord:
    """Lumped stage totals of one complete failure-repair period.

    ``sr_work`` and ``fs_work`` are the optimal-time equivalents
    (duration * rate) accumulated during slow recovery and degraded running,
    so that the period TOR is (sr_work + t_h + fs_work) / duration exactly.
    """

    kind: str
    t_sr: float
    sr_work: float
    t_h: float
    ckpt_time: float
    n_ckpt: int
    t_rb: float
    t_fs: float
    fs_work: float
    t_r: float

    @property
    def duration(self) -> float:
        return math.fsum((self.t_sr, self.t_h, self.ckpt_time, self.t_rb, self.t_fs, self.t_r))

    @property
    def opt_time(self) -> float:
        return math.fsum((self.sr_work, self.t_h, self.fs_work))

    @property
    def tor(self) -> float:
        return self.opt_time / self.duration

    @property
    def r_sr(self) -> float:
        return self.sr_work / self.t_sr if self.t_sr > 0 else 0.0

    @property
    def r_fs(self) -> float:
        return self.fs_work / self.t_fs if self.t_fs > 0 else 0.0

    def mtbf(self) -> float:
        """Stage-sum time-between-failures of this period.

        Fail-stop periods count recovery + healthy + checkpointing + the
        rolled-back span; fail-slow periods count recovery + healthy +
        checkpointing only (the degraded interval is excluded by definition).
        """
        base = math.fsum((self.t_sr, self.t_h, self.ckpt_time))
        if self.kind == FAIL_SLOW:
            return base
        return base + self.t_rb


def period_records(tl: RateTimeline) -> list[PeriodRecord]:
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
    records: list[PeriodRecord] = []
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
                records.append(PeriodRecord(
                    FAIL_STOP if not t_fs else MIXED if t_rb else FAIL_SLOW,
                    math.fsum(t_sr), math.fsum(sr_work), math.fsum(t_h), math.fsum(ckpt),
                    n_ckpt, math.fsum(t_rb), math.fsum(t_fs), math.fsum(fs_work),
                    math.fsum(t_r),
                ))
                t_sr, sr_work, t_h, ckpt, t_rb, t_fs, fs_work, t_r = [], [], [], [], [], [], [], []
                n_ckpt = 0
        prev = stage
    return records


@dataclass(frozen=True)
class PeriodMeans:
    """Arithmetic means of the lumped stage totals over complete periods."""

    kind: str
    n_periods: int
    t_sr: float
    sr_work: float
    t_h: float
    ckpt_time: float
    t_rb: float
    t_fs: float
    fs_work: float
    t_r: float

    @property
    def duration(self) -> float:
        return math.fsum((self.t_sr, self.t_h, self.ckpt_time, self.t_rb, self.t_fs, self.t_r))

    @property
    def tor(self) -> float:
        """Closed-form TOR at the realized per-period means.

        Numerator and denominator are linear in the per-period times, so this
        equals the TOR of the concatenated complete periods exactly.
        """
        return math.fsum((self.sr_work, self.t_h, self.fs_work)) / self.duration

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_periods": self.n_periods,
            "t_sr": self.t_sr,
            "r_sr": self.sr_work / self.t_sr if self.t_sr > 0 else 0.0,
            "t_h": self.t_h,
            "ckpt_time": self.ckpt_time,
            "t_rb": self.t_rb,
            "t_fs": self.t_fs,
            "r_fs": self.fs_work / self.t_fs if self.t_fs > 0 else 0.0,
            "t_r": self.t_r,
        }


def mean_periods(records: list[PeriodRecord]) -> PeriodMeans | None:
    if not records:
        return None
    kinds = {r.kind for r in records}
    kind = kinds.pop() if len(kinds) == 1 else MIXED
    n = len(records)

    def m(attr: str) -> float:
        return math.fsum(getattr(r, attr) for r in records) / n

    return PeriodMeans(
        kind=kind,
        n_periods=n,
        t_sr=m("t_sr"),
        sr_work=m("sr_work"),
        t_h=m("t_h"),
        ckpt_time=m("ckpt_time"),
        t_rb=m("t_rb"),
        t_fs=m("t_fs"),
        fs_work=m("fs_work"),
        t_r=m("t_r"),
    )
