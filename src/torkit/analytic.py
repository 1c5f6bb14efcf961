"""Closed-form TOR for single failure-repair periods and weighted mixtures."""
from __future__ import annotations

import math

from .errors import UndefinedMetricError, ValidationError
from .model import (
    FailSlowPeriod,
    FailStopPeriod,
    FailureMixture,
    Period,
    RateTimeline,
    Segment,
    StageKind,
    _check_time,
    mtbf_of_period,
)
from .timeline import concat

MTBF_MISMATCH_RTOL = 1e-9


def period_to_timeline(p: Period) -> RateTimeline:
    """Expand a period spec into its stage-by-stage rate timeline.

    The n_ckpt checkpoint saves are emitted as one consolidated zero-rate
    segment of length n_ckpt * t_ckpt: TOR depends only on total time per
    rate level, so pause placement is irrelevant to the metric.
    """
    if not isinstance(p, (FailStopPeriod, FailSlowPeriod)):
        raise ValidationError(f"unsupported period type: {type(p).__name__}")
    segs = [
        Segment(p.t_sr, p.r_sr, StageKind.SLOW_RECOVERY),
        Segment(p.t_h, 1.0, StageKind.HEALTHY_RUN),
        Segment(p.n_ckpt * p.t_ckpt, 0.0, StageKind.CHECKPOINT_SAVE),
        Segment(p.t_rb, 0.0, StageKind.ROLLBACK_WASTE),
        Segment(p.t_fs, p.r_fs, StageKind.FAIL_SLOW_DEGRADED),
        Segment(p.t_r, 0.0, StageKind.REPAIR),
    ]
    return RateTimeline(tuple(segs))  # zero-duration stages dropped here


def tor_of_period(p: Period) -> float:
    """TOR of one cycle of a period spec: useful time over total cycle time,
    with degraded time contributing at rate r_fs."""
    return p.totals().tor


# The paper's names for the fail-stop and fail-slow closed forms.
tor_fail_stop = tor_fail_slow = tor_of_period


def tor_from_mtbf(mtbf: float, p: Period) -> float:
    """:func:`tor_of_period` rewritten through the MTBF, to verify that identity;
    a field the period's kind lacks reads as 0, so its term adds exactly 0."""
    mtbf = _check_time("mtbf", mtbf)
    expected = mtbf_of_period(p)
    if abs(mtbf - expected) > MTBF_MISMATCH_RTOL * max(abs(expected), 1.0):
        raise ValidationError(
            f"mtbf argument {mtbf!r} does not match the period's value {expected!r}"
        )
    denom = math.fsum((mtbf, p.t_fs, p.t_r))
    if denom <= 0:
        raise UndefinedMetricError("period has zero duration")
    num = math.fsum((mtbf, -p.t_sr * (1.0 - p.r_sr), -p.t_rb, -p.n_ckpt * p.t_ckpt,
                     p.t_fs * p.r_fs))
    return num / denom


# The paper's names for the fail-stop and fail-slow MTBF forms.
tor_from_mtbf_fail_stop = tor_from_mtbf_fail_slow = tor_from_mtbf


def tor_mixture_weighted(m: FailureMixture) -> float:
    """Occurrence-weighted mean of per-type TORs (the default mixture rule)."""
    total = m.total_weight
    return math.fsum(w * tor_of_period(spec) for spec, w in m.components) / total


def tor_mixture_time_composite(m: FailureMixture) -> float:
    """Mixture TOR with weights read as period counts.

    Equals the TOR of the timeline formed by replicating each component's
    period `weight` times, i.e. sum of weighted optimal times over sum of
    weighted observed times. Differs from the weighted mean whenever the
    components' cycle lengths differ.
    """
    totals = [(spec.totals(), w) for spec, w in m.components]
    num = math.fsum(w * t.opt_time for t, w in totals)
    den = math.fsum(w * t.duration for t, w in totals)
    if den <= 0:
        raise UndefinedMetricError("mixture has zero total duration")
    return num / den


def mixture_concat_timeline(m: FailureMixture) -> RateTimeline:
    """Concatenation of each component's timeline, replicated by its integer
    weight. Only valid when all weights are integral."""
    tls = []
    for spec, w in m.components:
        if not float(w).is_integer():
            raise ValidationError("concat replication needs integer weights")
        tls.extend([period_to_timeline(spec)] * int(w))
    return concat(tls)
