import io
import math

import numpy as np
import pytest

from conftest import concat, read_csv
from torkit import (
    RateTimeline,
    StageKind,
    UndefinedMetricError,
    integrate_optimal_time,
    observed_time,
    stage_breakdown,
    tor_of_timeline,
)
from torkit.model import FIXED_RATE
from torkit.periods import mean_periods, period_records
from torkit.timeline import write_csv

FIVE_STAGE = RateTimeline([
    (2, 0.5, StageKind.SLOW_RECOVERY),
    (90, 1.0, StageKind.HEALTHY_RUN),
    (3, 0.0, StageKind.CHECKPOINT_SAVE),
    (5, 0.0, StageKind.ROLLBACK_WASTE),
    (10, 0.0, StageKind.REPAIR),
])


def random_timeline(rng, n_max=30):
    n = int(rng.integers(1, n_max))
    stages = list(StageKind)
    items = []
    for _ in range(n):
        stage = stages[rng.integers(0, len(stages))]
        rate = 1.0 if stage is StageKind.HEALTHY_RUN else (
            0.0 if stage in (StageKind.CHECKPOINT_SAVE, StageKind.ROLLBACK_WASTE, StageKind.REPAIR)
            else float(rng.uniform(0, 1))
        )
        items.append((float(rng.uniform(0.01, 50)), rate, stage))
    return RateTimeline(items)


class TestIntegrateOptimalTime:
    def test_all_healthy(self):
        tl = RateTimeline([(10, 1.0, StageKind.HEALTHY_RUN)])
        assert integrate_optimal_time(tl) == 10.0

    def test_five_stage(self):
        assert integrate_optimal_time(FIVE_STAGE) == 91.0

    def test_zero_rate_contributes_nothing(self):
        tl = RateTimeline([(7, 0.0, StageKind.REPAIR)])
        assert integrate_optimal_time(tl) == 0.0


class TestObservedTime:
    def test_single_segment(self):
        tl = RateTimeline([(10, 1.0, StageKind.HEALTHY_RUN)])
        assert observed_time(tl) == 10.0

    def test_five_stage(self):
        assert observed_time(FIVE_STAGE) == 110.0

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            observed_time(RateTimeline(()))


class TestTor:
    def test_all_healthy_is_one(self):
        tl = RateTimeline([(1234.5, 1.0, StageKind.HEALTHY_RUN)])
        assert tor_of_timeline(tl) == 1.0

    def test_five_stage(self):
        assert tor_of_timeline(FIVE_STAGE) == pytest.approx(91 / 110, abs=1e-15)

    def test_all_repair_is_zero(self):
        tl = RateTimeline([(9, 0.0, StageKind.REPAIR)])
        assert tor_of_timeline(tl) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            tor_of_timeline(RateTimeline(()))


class TestStageBreakdown:
    def test_all_healthy(self):
        tl = RateTimeline([(42, 1.0, StageKind.HEALTHY_RUN)])
        assert stage_breakdown(tl) == {StageKind.HEALTHY_RUN: (42.0, 0.0)}

    def test_five_stage(self):
        b = stage_breakdown(FIVE_STAGE)
        assert b[StageKind.SLOW_RECOVERY] == (2.0, 1.0)
        assert b[StageKind.CHECKPOINT_SAVE] == (3.0, 3.0)
        assert b[StageKind.ROLLBACK_WASTE] == (5.0, 5.0)
        assert b[StageKind.REPAIR] == (10.0, 10.0)

    def test_degraded_loss(self):
        tl = RateTimeline([(4, 0.25, StageKind.FAIL_SLOW_DEGRADED)])
        assert stage_breakdown(tl) == {StageKind.FAIL_SLOW_DEGRADED: (4.0, 3.0)}

    def test_losses_sum_to_overhead(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tl = random_timeline(rng)
            total_lost = math.fsum(lost for _, lost in stage_breakdown(tl).values())
            overhead = observed_time(tl) - integrate_optimal_time(tl)
            assert total_lost == pytest.approx(overhead, rel=1e-9)


class TestConcat:
    def test_identity(self):
        assert concat([FIVE_STAGE]).segments == FIVE_STAGE.segments

    def test_replication_scales_times(self):
        tl = concat([FIVE_STAGE] * 7)
        assert observed_time(tl) == pytest.approx(7 * 110, abs=1e-9)
        assert integrate_optimal_time(tl) == pytest.approx(7 * 91, abs=1e-9)

    def test_tor_of_mixed_concat_is_ratio_of_sums(self):
        a = FIVE_STAGE
        b = RateTimeline([(4, 0.25, StageKind.FAIL_SLOW_DEGRADED), (6, 0.0, StageKind.REPAIR)])
        both = concat([a, b])
        expected = (91 + 1) / (110 + 10)
        assert tor_of_timeline(both) == pytest.approx(expected, abs=1e-15)


class TestProperties:
    def test_tor_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            tl = random_timeline(rng)
            assert 0.0 <= tor_of_timeline(tl) <= 1.0

    def test_split_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            tl = random_timeline(rng)
            segs = []
            for s in tl:
                cut = float(rng.uniform(0, 1)) * s.duration
                segs.append((cut, s.rate, s.stage))
                segs.append((s.duration - cut, s.rate, s.stage))
            split = RateTimeline(segs)
            assert tor_of_timeline(split) == pytest.approx(tor_of_timeline(tl), abs=1e-12)

    def test_concat_replication_preserves_tor(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            tl = random_timeline(rng)
            n = int(rng.integers(2, 20))
            assert tor_of_timeline(concat([tl] * n)) == pytest.approx(
                tor_of_timeline(tl), abs=1e-12
            )

    def test_period_means_give_the_timeline_tor(self):
        # Hand-built timelines of complete periods, each ending in a run of
        # Repair segments; the TOR of the per-period means is the timeline's.
        rng = np.random.default_rng(23)
        before_repair = [s for s in StageKind if s is not StageKind.REPAIR]
        for _ in range(300):
            items = []
            for _ in range(int(rng.integers(1, 8))):
                for _ in range(int(rng.integers(0, 8))):
                    stage = before_repair[rng.integers(0, len(before_repair))]
                    rate = FIXED_RATE.get(stage, float(rng.uniform(0, 1)))
                    items.append((float(rng.uniform(0.01, 50)), rate, stage))
                for _ in range(int(rng.integers(1, 3))):
                    items.append((float(rng.uniform(0.01, 50)), 0.0, StageKind.REPAIR))
            tl = RateTimeline(items)
            means = mean_periods(period_records(tl))
            assert abs(means.tor - tor_of_timeline(tl)) <= 1e-12

    def test_optimal_below_observed(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            tl = random_timeline(rng)
            opt, obs = integrate_optimal_time(tl), observed_time(tl)
            assert opt <= obs + 1e-12
            if all(s.rate == 1.0 for s in tl):
                assert opt == obs


def csv_text(tl):
    buf = io.StringIO()
    write_csv(tl, buf)
    return buf.getvalue()


class TestCsv:
    def test_round_trip(self):
        text = csv_text(FIVE_STAGE)
        assert text.splitlines()[0] == "t_start,t_end,rate,stage"
        back = read_csv(text)
        assert [(s.rate, s.stage) for s in back] == [(s.rate, s.stage) for s in FIVE_STAGE]
        assert observed_time(back) == pytest.approx(110.0, abs=1e-9)
        assert tor_of_timeline(back) == pytest.approx(91 / 110, abs=1e-12)

    def test_stage_names_are_exact(self):
        text = csv_text(FIVE_STAGE)
        assert "SlowRecovery" in text and "RollbackWaste" in text
