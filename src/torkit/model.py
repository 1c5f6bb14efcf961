"""Core domain types: failure-repair periods, stage totals, rate timelines, MTBFs.

Times are real-valued seconds throughout. A "rate" is the performance
preservation ratio r(t) in [0, 1]: the fraction of the ideal work rate the
system actually achieves at an instant.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from operator import index
from typing import ClassVar, Iterable, NamedTuple, Union

from .errors import ValidationError


class StageKind(str, Enum):
    """What the system is doing during one timeline segment."""

    SLOW_RECOVERY = "SlowRecovery"
    HEALTHY_RUN = "HealthyRun"
    CHECKPOINT_SAVE = "CheckpointSave"
    ROLLBACK_WASTE = "RollbackWaste"
    FAIL_SLOW_DEGRADED = "FailSlowDegraded"
    REPAIR = "Repair"

    # CSV/JSON use the CamelCase name; str's own method skips Enum's ``value`` lookup.
    __str__ = str.__str__


# Stages whose rate is pinned by convention.
ZERO_RATE_STAGES = frozenset(
    {StageKind.CHECKPOINT_SAVE, StageKind.ROLLBACK_WASTE, StageKind.REPAIR}
)
# The rate every segment of a stage must carry, where the stage fixes one.
FIXED_RATE = {**dict.fromkeys(ZERO_RATE_STAGES, 0.0), StageKind.HEALTHY_RUN: 1.0}


def _check_fixed_rate(stage: StageKind, rate: float) -> None:
    """Reject a ``rate`` other than the one :data:`FIXED_RATE` gives ``stage``."""
    fixed = FIXED_RATE.get(stage, rate)
    if fixed != rate:
        raise ValidationError(f"stage {stage} must have rate {fixed:g}, got {rate!r}")


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
    """A finite non-negative number: a time, a rate or a spread."""
    value = _check_number(name, value)
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def _check_positive(name: str, value: float) -> float:
    value = _check_number(name, value)
    if not math.isfinite(value) or value <= 0:
        raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
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
    _check_number(name, value)  # a count beyond the float range is rejected
    return value


def _check_total(name: str, total) -> float:
    """``total()``, an fsum of finite non-negative terms, rejected beyond the float range."""
    try:
        value = total()
    except OverflowError:  # math.fsum: intermediate overflow
        value = math.inf
    if value == math.inf:
        raise ValidationError(f"{name} exceeds the float range")
    return value


class _Schema:
    """One field-check loop, JSON reader and JSON writer for the config types.

    ``_checks`` maps a field to its check; every other field is a time. A
    class with a ``kind`` is tagged with it in JSON.
    """

    _checks: ClassVar[dict] = {}

    def __post_init__(self):
        for f in fields(self):
            check = self._checks.get(f.name, _check_time)
            object.__setattr__(self, f.name, check(f.name, getattr(self, f.name)))

    def to_dict(self) -> dict:
        """``kind`` if the class has one, then every field that is not None in
        declaration order; tuples are written as lists, a schema as its dict."""
        d = {"kind": self.kind} if hasattr(self, "kind") else {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, _Schema):
                v = v.to_dict()
            elif isinstance(v, tuple):
                v = [x.to_dict() if isinstance(x, _Schema) else x for x in v]
            if v is not None:
                d[f.name] = v
        return d


def _check_keys(d, what: str, allowed, required) -> None:
    """Reject a non-object ``d``, a missing ``required`` key or a key not ``allowed``."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValidationError(f"{what}: missing fields {missing}")
    unknown = d.keys() - set(allowed)
    if unknown:
        raise ValidationError(f"{what}: unknown fields {sorted(unknown)}")


def _from_dict(cls, d, what: str):
    """Build ``cls`` from its JSON object; of a tuple of classes, the one ``d["kind"]`` names.

    Fields without a default are required and unknown keys are rejected. A
    field check's message is prefixed with ``what``. An instance of ``cls`` is
    returned unchanged, so this is also the check of a field holding a config type.
    """
    if isinstance(d, cls):
        return d
    if isinstance(cls, tuple):
        _check_keys(d, what, d, ["kind"])  # the other keys are checked against cls below
        kind = d["kind"]
        named = [c for c in cls if c.kind == kind]
        if not named:
            raise ValidationError(
                f"{what}: 'kind' must be one of {[c.kind for c in cls]}, got {kind!r}"
            )
        cls = named[0]
        d = {k: v for k, v in d.items() if k != "kind"}
    fs = fields(cls)
    _check_keys(d, what, [f.name for f in fs], [f.name for f in fs if f.default is MISSING])
    try:
        return cls(**d)
    except ValidationError as e:
        raise ValidationError(f"{what}: {e}") from None


class _Entry(NamedTuple):
    duration: float
    rate: float
    stage: StageKind


class Segment(_Entry):
    """One piecewise-constant span of the rate timeline, at its stage's fixed rate if any.

    A named tuple: the constructor and :meth:`_replace` check the values;
    ``Segment._make`` wraps values the package produced unchecked.
    """

    __slots__ = ()

    def __new__(cls, duration: float, rate: float, stage: StageKind):
        duration = _check_time("duration", duration)
        rate = _check_ratio("rate", rate)
        try:
            stage = StageKind(stage)
        except ValueError:
            raise ValidationError(f"unknown stage {stage!r}") from None
        _check_fixed_rate(stage, rate)
        return super().__new__(cls, duration, rate, stage)

    def _replace(self, **changes) -> "Segment":
        return Segment(*_Entry._replace(self, **changes))


@dataclass(frozen=True, init=False)
class RateTimeline:
    """Ordered, contiguous piecewise-constant r(t), held as three columns.

    Entry ``i`` lasts ``durations[i]`` seconds at rate ``rates[i]`` in stage
    ``stages[i]``; start times are implicit (running sum of durations). Every
    duration is positive: zero-duration segments are dropped at construction
    (they arise naturally when a period parameter is 0). The columns are
    lists that nothing may change; timelines with equal columns are equal.

    ``RateTimeline(items)`` is the validated public constructor: a
    ``Segment`` item is taken as it is, and any other item, a plain
    ``(duration, rate, stage)`` triple say, goes through ``Segment``'s checks;
    an item that is not three values is a ValidationError that gives its position,
    and so is ``items`` that cannot be iterated.
    :meth:`_of_columns` wraps columns the package produced. The timeline is
    its own :attr:`segments`: an int index or iteration builds a ``Segment``
    when read; a slice is rejected.
    """

    durations: list[float]
    rates: list[float]
    stages: list[StageKind]

    def __init__(self, items: Iterable[Segment | tuple[float, float, StageKind | str]] = ()):
        try:
            items = iter(items)
        except TypeError:  # not a collection of items: 5 or None, say
            raise ValidationError(
                f"a timeline is built from segments, got {type(items).__name__}") from None
        segs = []
        checked = (item if isinstance(item, Segment) else Segment(*item) for item in items)
        try:
            segs.extend(checked)  # on an error, holds the items before the failing one
        except TypeError:  # an item that is not three values
            raise ValidationError(
                f"timeline item {len(segs)}: a segment is (duration, rate, stage)") from None
        kept = [s for s in segs if s.duration > 0]
        self._set([s.duration for s in kept], [s.rate for s in kept], [s.stage for s in kept])

    def _set(self, durations: list[float], rates: list[float], stages: list[StageKind]) -> None:
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "stages", stages)

    @classmethod
    def _of_columns(
        cls, durations: list[float], rates: list[float], stages: list[StageKind]
    ) -> "RateTimeline":
        """Wrap columns the package produced, without a check or a copy.

        The caller guarantees equal lengths, float durations > 0, float rates
        in [0, 1], StageKind stages and each stage's fixed rate where it has
        one (:data:`FIXED_RATE`), and hands the lists over.
        """
        tl = object.__new__(cls)
        tl._set(durations, rates, stages)
        return tl

    @classmethod
    def build(cls, items: Iterable[tuple[float, float, StageKind | str]]) -> "RateTimeline":
        """``RateTimeline(items)``, under the name the bench's per-segment
        build probe (``bench/spans.py``, ``segment_build_us``) times."""
        return cls(items)

    @property
    def segments(self) -> "RateTimeline":
        """The timeline itself, a sequence of its segments."""
        return self

    def __len__(self) -> int:
        return len(self.durations)

    def __getitem__(self, i: int) -> Segment:
        return Segment._make((self.durations[index(i)], self.rates[i], self.stages[i]))

    def __iter__(self) -> Iterator[Segment]:
        return map(Segment._make, zip(self.durations, self.rates, self.stages))


FAIL_STOP = "fail_stop"
FAIL_SLOW = "fail_slow"
MIXED = "mixed"


class StageTotals(NamedTuple):
    """Lumped stage totals of one failure-repair period, or their means.

    Period specs (:meth:`FailStopPeriod.totals`), realized periods
    (``periods.period_records``) and per-period means (``periods.mean_periods``)
    all build this one named tuple through its constructor, and the TOR and
    MTBF of a period are defined only here. ``sr_work`` and ``fs_work`` are
    the optimal-time equivalents (duration * rate) accumulated during slow
    recovery and degraded running, so that the TOR is
    (sr_work + t_h + fs_work) / duration exactly. ``n_ckpt`` counts
    checkpoint saves; in a mean it is the mean count.
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


@dataclass(frozen=True)
class _PeriodSpec(_Schema):
    """Fields and stage totals shared by the period specs, and their duration check.

    A field a spec lacks reads as 0: ``t_rb`` on a fail-slow period,
    ``t_fs`` and ``r_fs`` on a fail-stop one.
    """

    kind: ClassVar[str]
    _checks = {"r_sr": _check_ratio, "r_fs": _check_ratio, "n_ckpt": _check_count}
    t_sr: float = 0.0
    r_sr: float = 0.0
    t_h: float = 0.0
    n_ckpt: int = 0
    t_ckpt: float = 0.0
    # A spec's own t_rb, or t_fs and r_fs, takes its placeholder's slot, so its fields run in
    # stage order: positional arguments, repr, JSON keys and the first error reported.
    t_rb: ClassVar[float] = 0.0
    t_fs: ClassVar[float] = 0.0
    r_fs: ClassVar[float] = 0.0
    t_r: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        label = self.kind.replace("_", "-")
        if _check_total(f"{label} period duration", lambda: self.totals().duration) <= 0:
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
    t_rb: float = 0.0


@dataclass(frozen=True)
class FailSlowPeriod(_PeriodSpec):
    """Parameters of one fail-slow failure-repair cycle.

    Instead of a roll-back, the system runs degraded at rate ``r_fs`` for
    ``t_fs`` seconds before repair. Degraded work still counts.
    """

    kind: ClassVar[str] = FAIL_SLOW
    t_fs: float = 0.0
    r_fs: float = 0.0


Period = Union[FailStopPeriod, FailSlowPeriod]
_PERIODS = (FailStopPeriod, FailSlowPeriod)


@dataclass(frozen=True)
class MixtureComponent(_Schema):
    _checks = {"weight": _check_positive,
               "period": lambda name, value: _from_dict(_PERIODS, value, name)}
    weight: float
    period: Period


def _check_components(name: str, value) -> tuple[MixtureComponent, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValidationError(f"{name} must be a non-empty list")
    return tuple(_from_dict(MixtureComponent, c, f"component {i}") for i, c in enumerate(value))


@dataclass(frozen=True)
class FailureMixture(_Schema):
    """Weighted period specs (``MixtureComponent``s) for a system with several failure types.

    Weights are occurrence rates (or any relative frequencies); they need not
    sum to 1 and are normalized where a mean is taken.
    """

    _checks = {"mixture": _check_components}
    mixture: tuple[MixtureComponent, ...]

    def __post_init__(self):
        super().__post_init__()
        _check_total("mixture total weight", lambda: self.total_weight)
        _check_total("mixture weighted duration", lambda: math.fsum(
            c.weight * c.period.totals().duration for c in self.mixture))

    @property
    def total_weight(self) -> float:
        return math.fsum(c.weight for c in self.mixture)


def period_from_dict(d: dict) -> Period:
    """Build a period spec from its JSON object: ``kind`` plus the spec's fields."""
    return _from_dict(_PERIODS, d, "period")


def mixture_from_dict(d: dict) -> FailureMixture:
    """Build a mixture from ``{"mixture": [{"weight": w, "period": {...}}, ...]}``."""
    return _from_dict(FailureMixture, d, "mixture file")


def mtbf_of_period(p: Period) -> float:
    """Mean time between failures of one cycle of a period spec: ``p.totals().mtbf``."""
    return p.totals().mtbf


# The paper's names for the fail-stop and fail-slow MTBF.
mtbf_fail_stop = mtbf_fail_slow = mtbf_of_period
