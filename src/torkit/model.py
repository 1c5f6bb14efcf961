"""Core domain types: failure-repair periods, stage totals, rate timelines, MTBFs.

Times are real-valued seconds throughout. A "rate" is the performance
preservation ratio r(t) in [0, 1]: the fraction of the ideal work rate the
system actually achieves at an instant.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import ClassVar, Iterable, Union

from .errors import ValidationError


class StageKind(str, Enum):
    """What the system is doing during one timeline segment."""

    SLOW_RECOVERY = "SlowRecovery"
    HEALTHY_RUN = "HealthyRun"
    CHECKPOINT_SAVE = "CheckpointSave"
    ROLLBACK_WASTE = "RollbackWaste"
    FAIL_SLOW_DEGRADED = "FailSlowDegraded"
    REPAIR = "Repair"

    def __str__(self) -> str:  # CSV/JSON use the CamelCase name
        return self.value


# Stages whose rate is pinned by convention.
ZERO_RATE_STAGES = frozenset(
    {StageKind.CHECKPOINT_SAVE, StageKind.ROLLBACK_WASTE, StageKind.REPAIR}
)


def _check_number(name: str, value) -> float:
    """``value`` as a float; anything but a real number (a bool included) is rejected."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValidationError(f"{name} is too large for a float") from None
    return value


def _check_time(name: str, value: float) -> float:
    value = _check_number(name, value)
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{name} must be a finite non-negative number of seconds, got {value!r}")
    return value


def _check_ratio(name: str, value: float) -> float:
    value = _check_number(name, value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _check_count(name: str, value: int) -> int:
    if isinstance(value, float):
        if not value.is_integer():
            raise ValidationError(f"{name} must be an integer count, got {value!r}")
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class Segment:
    """One piecewise-constant span of the rate timeline."""

    duration: float
    rate: float
    stage: StageKind

    def __post_init__(self):
        object.__setattr__(self, "duration", _check_time("duration", self.duration))
        object.__setattr__(self, "rate", _check_ratio("rate", self.rate))
        object.__setattr__(self, "stage", StageKind(self.stage))


_new = object.__new__
_set_duration = Segment.duration.__set__
_set_rate = Segment.rate.__set__
_set_stage = Segment.stage.__set__


def _segment(duration: float, rate: float, stage: StageKind) -> Segment:
    """Build a Segment without validation, for values the package produced.

    The caller guarantees a float ``duration > 0``, a float ``rate`` in
    [0, 1] and a StageKind ``stage``.
    """
    s = _new(Segment)
    _set_duration(s, duration)
    _set_rate(s, rate)
    _set_stage(s, stage)
    return s


@dataclass(frozen=True)
class RateTimeline:
    """Ordered, contiguous piecewise-constant r(t).

    Segment start times are implicit (running sum of durations).
    Zero-duration segments are dropped at construction; they arise naturally
    when a period parameter is 0.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(s for s in self.segments if s.duration > 0)
        object.__setattr__(self, "segments", segs)

    @classmethod
    def _trusted(cls, segments: tuple[Segment, ...]) -> "RateTimeline":
        """Wrap segments that all have a positive duration, skipping the filter."""
        tl = _new(cls)
        object.__setattr__(tl, "segments", segments)
        return tl

    @classmethod
    def build(cls, items: Iterable[tuple[float, float, StageKind | str]]) -> "RateTimeline":
        return cls(tuple(Segment(d, r, StageKind(s)) for d, r, s in items))

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)


FAIL_STOP = "fail_stop"
FAIL_SLOW = "fail_slow"
MIXED = "mixed"


@dataclass(frozen=True, slots=True)
class StageTotals:
    """Lumped stage totals of one failure-repair period, or their means.

    Period specs (:meth:`FailStopPeriod.totals`), realized periods
    (``periods.period_records``) and per-period means (``periods.mean_periods``)
    all produce this one value, and the TOR and MTBF of a period are defined
    only here. ``sr_work`` and ``fs_work`` are the optimal-time equivalents
    (duration * rate) accumulated during slow recovery and degraded running,
    so that the TOR is (sr_work + t_h + fs_work) / duration exactly.
    ``n_ckpt`` counts checkpoint saves; in a mean it is the mean count.
    """

    kind: str
    t_sr: float
    sr_work: float
    t_h: float
    ckpt_time: float
    n_ckpt: float
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
        """Optimal over observed time; every producer's duration is positive."""
        return self.opt_time / self.duration

    @property
    def r_sr(self) -> float:
        return self.sr_work / self.t_sr if self.t_sr > 0 else 0.0

    @property
    def r_fs(self) -> float:
        return self.fs_work / self.t_fs if self.t_fs > 0 else 0.0

    @property
    def mtbf(self) -> float:
        """Stage-sum time between failures.

        Slow recovery + healthy run + checkpointing + the rolled-back span
        (0 unless a fail-stop struck). The degraded interval is excluded by
        definition (see README), as is repair downtime.
        """
        return math.fsum((self.t_sr, self.t_h, self.ckpt_time, self.t_rb))


# Fields checked as ratios or counts; every other spec field is a time.
_SPEC_CHECKS = {"r_sr": _check_ratio, "r_fs": _check_ratio, "n_ckpt": _check_count}


class _PeriodSpec:
    """Field checks and stage totals shared by the period specs.

    A field a spec lacks reads as 0: ``t_rb`` on a fail-slow period,
    ``t_fs`` and ``r_fs`` on a fail-stop one.
    """

    kind: ClassVar[str]
    t_rb: ClassVar[float] = 0.0
    t_fs: ClassVar[float] = 0.0
    r_fs: ClassVar[float] = 0.0

    def __post_init__(self):
        for f in fields(self):
            check = _SPEC_CHECKS.get(f.name, _check_time)
            object.__setattr__(self, f.name, check(f.name, getattr(self, f.name)))
        if self.totals().duration <= 0:
            label = self.kind.replace("_", "-")
            raise ValidationError(f"{label} period has zero total duration; TOR undefined")

    def totals(self) -> StageTotals:
        """Stage totals of one cycle of this spec."""
        return StageTotals(
            self.kind, self.t_sr, self.t_sr * self.r_sr, self.t_h,
            self.n_ckpt * self.t_ckpt, self.n_ckpt, self.t_rb,
            self.t_fs, self.t_fs * self.r_fs, self.t_r,
        )


@dataclass(frozen=True)
class FailStopPeriod(_PeriodSpec):
    """Parameters of one fail-stop failure-repair cycle.

    Stage order within the cycle: slow recovery at rate ``r_sr`` for ``t_sr``
    seconds, healthy run for ``t_h``, ``n_ckpt`` checkpoint saves of ``t_ckpt``
    each, the rolled-back span ``t_rb`` (work done but discarded), and repair
    downtime ``t_r``.
    """

    kind: ClassVar[str] = FAIL_STOP
    t_sr: float = 0.0
    r_sr: float = 0.0
    t_h: float = 0.0
    n_ckpt: int = 0
    t_ckpt: float = 0.0
    t_rb: float = 0.0
    t_r: float = 0.0


@dataclass(frozen=True)
class FailSlowPeriod(_PeriodSpec):
    """Parameters of one fail-slow failure-repair cycle.

    Instead of a roll-back, the system runs degraded at rate ``r_fs`` for
    ``t_fs`` seconds before repair. Degraded work still counts.
    """

    kind: ClassVar[str] = FAIL_SLOW
    t_sr: float = 0.0
    r_sr: float = 0.0
    t_h: float = 0.0
    n_ckpt: int = 0
    t_ckpt: float = 0.0
    t_fs: float = 0.0
    r_fs: float = 0.0
    t_r: float = 0.0


Period = Union[FailStopPeriod, FailSlowPeriod]


@dataclass(frozen=True)
class FailureMixture:
    """Weighted set of period specs for a system with several failure types.

    Weights are occurrence rates (or any relative frequencies); they need not
    sum to 1 and are normalized where a mean is taken.
    """

    components: tuple[tuple[Period, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValidationError("mixture needs at least one component")
        for spec, weight in comps:
            if not isinstance(spec, (FailStopPeriod, FailSlowPeriod)):
                raise ValidationError(f"unsupported mixture component: {type(spec).__name__}")
            w = _check_number("mixture weight", weight)
            if not math.isfinite(w) or w <= 0:
                raise ValidationError(f"mixture weights must be positive, got {weight!r}")
        object.__setattr__(self, "components", tuple((s, float(w)) for s, w in comps))

    @property
    def total_weight(self) -> float:
        return math.fsum(w for _, w in self.components)


def period_from_dict(d: dict) -> Period:
    """Build a period spec from its JSON object: ``kind`` plus the spec's fields."""
    if not isinstance(d, dict):
        raise ValidationError("period config must be a JSON object")
    kind = d.get("kind")
    for cls in (FailStopPeriod, FailSlowPeriod):
        if kind == cls.kind:
            break
    else:
        raise ValidationError(
            f"period 'kind' must be 'fail_stop' or 'fail_slow', got {kind!r}"
        )
    allowed = {f.name for f in fields(cls)}
    unknown = d.keys() - allowed - {"kind"}
    if unknown:
        raise ValidationError(f"unknown period fields: {sorted(unknown)}")
    return cls(**{k: d[k] for k in d.keys() & allowed})


def mixture_from_dict(d: dict) -> FailureMixture:
    """Build a mixture from ``{"mixture": [{"weight": w, "period": {...}}, ...]}``."""
    comps = d.get("mixture")
    if not isinstance(comps, list) or not comps:
        raise ValidationError("'mixture' must be a non-empty list")
    parsed = []
    for i, c in enumerate(comps):
        if not isinstance(c, dict) or "weight" not in c or "period" not in c:
            raise ValidationError(
                f"mixture component {i} needs 'weight' and 'period' fields"
            )
        parsed.append((period_from_dict(c["period"]), c["weight"]))
    return FailureMixture(tuple(parsed))


def mtbf_fail_stop(p: FailStopPeriod) -> float:
    """Mean time between failures for a fail-stop cycle.

    Sum of slow recovery, healthy run, checkpoint saving, and rolled-back
    time; repair downtime is excluded.
    """
    return p.totals().mtbf


def mtbf_fail_slow(p: FailSlowPeriod) -> float:
    """Mean time between failures for a fail-slow cycle.

    Sum of slow recovery, healthy run, and checkpoint saving. The degraded
    interval itself is excluded by definition (see README), as is repair.
    """
    return p.totals().mtbf
