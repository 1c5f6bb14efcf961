import dataclasses
import math

import numpy as np
import pytest

from conftest import random_fail_slow, random_fail_stop
from torkit import (
    FailSlowPeriod,
    FailStopPeriod,
    FailureMixture,
    StageKind,
    UndefinedMetricError,
    ValidationError,
    mtbf_fail_slow,
    mtbf_fail_stop,
    period_to_timeline,
    tor_fail_slow,
    tor_fail_stop,
    tor_from_mtbf_fail_slow,
    tor_from_mtbf_fail_stop,
    tor_mixture_time_composite,
    tor_mixture_weighted,
    tor_of_timeline,
)
from torkit.analytic import mixture_concat_timeline, tor_from_mtbf, tor_of_period
from torkit.model import mtbf_of_period


def reference_tor_from_mtbf_fail_stop(mtbf, p):
    """The fail-stop MTBF form as it was before the two kinds shared one body."""
    denom = mtbf + p.t_r
    if denom <= 0:
        raise UndefinedMetricError("MTBF + repair time is zero")
    num = math.fsum((mtbf, -p.t_sr * (1.0 - p.r_sr), -p.t_rb, -p.n_ckpt * p.t_ckpt))
    return num / denom


def reference_tor_from_mtbf_fail_slow(mtbf, p):
    """The fail-slow MTBF form as it was before the two kinds shared one body."""
    denom = math.fsum((mtbf, p.t_fs, p.t_r))
    if denom <= 0:
        raise UndefinedMetricError("fail-slow period has zero duration")
    num = math.fsum(
        (mtbf, -p.t_sr * (1.0 - p.r_sr), -p.n_ckpt * p.t_ckpt, p.t_fs * p.r_fs)
    )
    return num / denom


def random_periods_with_zeros(rng, make, n):
    """``n`` periods from ``make``, each field zeroed with probability 1/4."""
    out = []
    while len(out) < n:
        p = make(rng)
        zeroed = {f.name: 0 for f in dataclasses.fields(p) if rng.uniform() < 0.25}
        try:
            out.append(dataclasses.replace(p, **zeroed))
        except ValidationError:  # every time zeroed: no duration
            pass
    return out


class TestPeriodToTimeline:
    def test_fail_stop_worked(self, worked_fail_stop):
        tl = period_to_timeline(worked_fail_stop)
        assert [(s.duration, s.rate, s.stage) for s in tl] == [
            (2.0, 0.5, StageKind.SLOW_RECOVERY),
            (90.0, 1.0, StageKind.HEALTHY_RUN),
            (3.0, 0.0, StageKind.CHECKPOINT_SAVE),
            (5.0, 0.0, StageKind.ROLLBACK_WASTE),
            (10.0, 0.0, StageKind.REPAIR),
        ]

    def test_zero_stages_omitted(self):
        tl = period_to_timeline(FailStopPeriod(t_h=100))
        assert [(s.duration, s.rate, s.stage) for s in tl] == [
            (100.0, 1.0, StageKind.HEALTHY_RUN)
        ]

    def test_fail_slow_worked(self, worked_fail_slow):
        tl = period_to_timeline(worked_fail_slow)
        assert [(s.duration, s.rate, s.stage) for s in tl] == [
            (2.0, 0.5, StageKind.SLOW_RECOVERY),
            (90.0, 1.0, StageKind.HEALTHY_RUN),
            (3.0, 0.0, StageKind.CHECKPOINT_SAVE),
            (10.0, 0.4, StageKind.FAIL_SLOW_DEGRADED),
            (5.0, 0.0, StageKind.REPAIR),
        ]


class TestClosedForms:
    def test_fail_stop_worked(self, worked_fail_stop):
        assert tor_fail_stop(worked_fail_stop) == pytest.approx(91 / 110, abs=1e-15)

    def test_failure_free_is_one(self):
        assert tor_fail_stop(FailStopPeriod(t_h=100)) == 1.0

    def test_no_useful_work_is_zero(self):
        assert tor_fail_stop(FailStopPeriod(t_rb=5, t_r=5)) == 0.0

    def test_fail_slow_worked(self, worked_fail_slow):
        assert tor_fail_slow(worked_fail_slow) == pytest.approx(95 / 110, abs=1e-15)

    def test_full_rate_degradation_is_healthy(self):
        p = FailSlowPeriod(t_h=10, t_fs=5, r_fs=1.0)
        assert tor_fail_slow(p) == 1.0

    def test_stalled_degradation(self):
        p = FailSlowPeriod(t_sr=2, r_sr=0.5, t_h=90, n_ckpt=3, t_ckpt=1, t_fs=10, r_fs=0.0, t_r=5)
        assert tor_fail_slow(p) == pytest.approx(91 / 110, abs=1e-15)


class TestOracleEquivalence:
    def test_random_fail_stop(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            p = random_fail_stop(rng)
            assert abs(tor_fail_stop(p) - tor_of_timeline(period_to_timeline(p))) <= 1e-12

    def test_random_fail_slow(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            p = random_fail_slow(rng)
            assert abs(tor_fail_slow(p) - tor_of_timeline(period_to_timeline(p))) <= 1e-12


class TestMtbfIdentity:
    def test_worked_value(self, worked_fail_stop):
        # (100 - 1 - 5 - 3) / (100 + 10)
        tor = tor_from_mtbf_fail_stop(100.0, worked_fail_stop)
        assert tor == pytest.approx(91 / 110, abs=1e-15)

    def test_healthy_only(self):
        p = FailStopPeriod(t_h=100)
        assert tor_from_mtbf_fail_stop(100.0, p) == 1.0

    def test_mismatched_mtbf_rejected(self, worked_fail_stop):
        with pytest.raises(ValidationError):
            tor_from_mtbf_fail_stop(100.1, worked_fail_stop)

    @pytest.mark.parametrize("t_r", [1.0, 1e-12])
    def test_negative_mtbf_rejected(self, t_r):
        # -1e-10 lies within the tolerance of the period's MTBF of 0.
        with pytest.raises(ValidationError,
                           match=r"^mtbf must be a finite non-negative number, got -1e-10$"):
            tor_from_mtbf(-1e-10, FailStopPeriod(t_r=t_r))

    def test_fail_slow_worked(self, worked_fail_slow):
        tor = tor_from_mtbf_fail_slow(95.0, worked_fail_slow)
        assert tor == pytest.approx(95 / 110, abs=1e-15)

    def test_random_agreement(self):
        rng = np.random.default_rng(107)
        for _ in range(500):
            p = random_fail_stop(rng)
            assert abs(tor_from_mtbf_fail_stop(mtbf_fail_stop(p), p) - tor_fail_stop(p)) <= 1e-12
            q = random_fail_slow(rng)
            assert abs(tor_from_mtbf_fail_slow(mtbf_fail_slow(q), q) - tor_fail_slow(q)) <= 1e-12


class TestOneMtbfForm:
    """One body serves both kinds; the paper's names are aliases of it."""

    def test_aliases(self):
        assert tor_from_mtbf_fail_stop is tor_from_mtbf_fail_slow is tor_from_mtbf
        assert mtbf_fail_stop is mtbf_fail_slow is mtbf_of_period

    @pytest.mark.parametrize("make, reference, edge_cases", [
        (random_fail_stop, reference_tor_from_mtbf_fail_stop,
         [FailStopPeriod(t_r=7), FailStopPeriod(t_rb=5, t_r=5)]),
        (random_fail_slow, reference_tor_from_mtbf_fail_slow,
         [FailSlowPeriod(t_fs=1), FailSlowPeriod(t_r=1), FailSlowPeriod(t_fs=1, r_fs=1)]),
    ], ids=["fail_stop", "fail_slow"])
    def test_matches_the_kind_matched_form_bit_for_bit(self, make, reference, edge_cases):
        rng = np.random.default_rng(113)
        periods = random_periods_with_zeros(rng, make, 5000) + edge_cases
        for i, p in enumerate(periods):
            mtbf = mtbf_of_period(p) * (1 + 5e-10 * (i % 2))  # within the tolerance
            assert tor_from_mtbf(mtbf, p).hex() == reference(mtbf, p).hex()

    def test_wrong_kind_name_gives_the_closed_form(self, worked_fail_stop):
        slow = FailSlowPeriod(t_sr=2, r_sr=0.5, t_h=90, n_ckpt=3, t_ckpt=1, t_fs=8, r_fs=0.5,
                              t_r=10)
        assert tor_from_mtbf_fail_stop(95.0, slow) == tor_of_period(slow)
        assert tor_of_period(slow) == pytest.approx(95 / 113, abs=1e-15)
        assert tor_from_mtbf_fail_slow(100.0, worked_fail_stop) == tor_of_period(worked_fail_stop)
        rng = np.random.default_rng(127)
        for _ in range(500):
            p, q = random_fail_slow(rng), random_fail_stop(rng)
            assert abs(tor_from_mtbf_fail_stop(mtbf_fail_slow(p), p) - tor_of_period(p)) <= 1e-12
            assert abs(tor_from_mtbf_fail_slow(mtbf_fail_stop(q), q) - tor_of_period(q)) <= 1e-12


class TestMonotonicity:
    def test_directions(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            p = FailStopPeriod(
                t_sr=float(rng.uniform(0.5, 10)),
                r_sr=float(rng.uniform(0, 0.85)),
                t_h=float(rng.uniform(1, 100)),
                n_ckpt=int(rng.integers(1, 6)),
                t_ckpt=float(rng.uniform(0.1, 2)),
                t_rb=float(rng.uniform(0.1, 10)),
                t_r=float(rng.uniform(0.1, 20)),
            )
            base = tor_fail_stop(p)
            from dataclasses import replace

            assert tor_fail_stop(replace(p, t_r=1.1 * p.t_r)) < base
            assert tor_fail_stop(replace(p, t_rb=1.1 * p.t_rb)) < base
            assert tor_fail_stop(replace(p, n_ckpt=p.n_ckpt + 1)) < base
            assert tor_fail_stop(replace(p, r_sr=min(1.0, p.r_sr + 0.1))) > base
            assert tor_fail_stop(replace(p, t_h=1.1 * p.t_h)) > base


class TestMixtures:
    def test_single_component_identity(self, worked_fail_stop):
        m = FailureMixture(((worked_fail_stop, 2.5),))
        assert tor_mixture_weighted(m) == pytest.approx(91 / 110, abs=1e-15)
        assert tor_mixture_time_composite(m) == pytest.approx(91 / 110, abs=1e-15)

    def test_equal_weight_mean(self, worked_fail_stop, worked_fail_slow):
        m = FailureMixture(((worked_fail_stop, 1.0), (worked_fail_slow, 1.0)))
        assert tor_mixture_weighted(m) == pytest.approx((91 / 110 + 95 / 110) / 2, abs=1e-12)

    def test_weighted_mean(self, worked_fail_stop, worked_fail_slow):
        m = FailureMixture(((worked_fail_stop, 3.0), (worked_fail_slow, 1.0)))
        expected = (3 * (91 / 110) + 95 / 110) / 4
        assert tor_mixture_weighted(m) == pytest.approx(expected, abs=1e-12)

    def test_composite_matches_concat(self, worked_fail_stop, worked_fail_slow):
        m = FailureMixture(((worked_fail_stop, 3.0), (worked_fail_slow, 1.0)))
        concat_tor = tor_of_timeline(mixture_concat_timeline(m))
        assert tor_mixture_time_composite(m) == pytest.approx(concat_tor, abs=1e-12)

    def test_composite_equals_weighted_for_equal_cycle_lengths(
        self, worked_fail_stop, worked_fail_slow
    ):
        # Both worked periods observe 110 s, so the two rules coincide.
        m = FailureMixture(((worked_fail_stop, 1.0), (worked_fail_slow, 1.0)))
        assert tor_mixture_time_composite(m) == pytest.approx(
            tor_mixture_weighted(m), abs=1e-12
        )

    def test_composite_differs_for_unequal_cycle_lengths(self, worked_fail_stop):
        short = FailStopPeriod(t_h=10, t_r=10)  # TOR 0.5, cycle 20 s
        m = FailureMixture(((worked_fail_stop, 1.0), (short, 1.0)))
        weighted = tor_mixture_weighted(m)
        composite = tor_mixture_time_composite(m)
        assert composite == pytest.approx((91 + 10) / (110 + 20), abs=1e-12)
        assert abs(weighted - composite) > 1e-3


class TestErrors:
    def test_mixture_propagates_component_types(self):
        with pytest.raises(ValidationError):
            FailureMixture((("not a period", 1.0),))

    def test_period_to_timeline_rejects_other_types(self):
        with pytest.raises(ValidationError):
            period_to_timeline("nope")
