import dataclasses
import json
import re
from collections import namedtuple

import numpy as np
import pytest

from conftest import random_fail_slow, random_fail_stop
from torkit import (
    FailSlowPeriod,
    FailStopPeriod,
    FailureMixture,
    MixtureComponent,
    RateTimeline,
    Segment,
    StageKind,
    ValidationError,
    mtbf_fail_slow,
    mtbf_fail_stop,
)
from torkit.analytic import period_to_timeline
from torkit.model import period_from_dict
from torkit.trace import report

# A named tuple of a timeline entry's fields from outside the package.
Foreign = namedtuple("Foreign", "duration rate stage")


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            FailStopPeriod(t_h=-1)

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            FailStopPeriod(t_h=1, r_sr=1.5)

    def test_fractional_checkpoint_count_rejected(self):
        with pytest.raises(ValidationError):
            FailStopPeriod(t_h=1, n_ckpt=2.5)

    def test_integral_float_count_accepted(self):
        p = FailStopPeriod(t_h=1, n_ckpt=3.0)
        assert p.n_ckpt == 3

    def test_all_zero_period_rejected(self):
        with pytest.raises(ValidationError):
            FailStopPeriod()
        with pytest.raises(ValidationError):
            FailSlowPeriod()

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            FailStopPeriod(t_h=float("nan"))

    def test_segment_validation(self):
        with pytest.raises(ValidationError):
            Segment(1.0, 2.0, StageKind.HEALTHY_RUN)
        with pytest.raises(ValidationError):
            Segment(-1.0, 0.5, StageKind.HEALTHY_RUN)

    @pytest.mark.parametrize("stage, rate, fixed", [
        (StageKind.REPAIR, 0.5, "0"), (StageKind.CHECKPOINT_SAVE, 1.0, "0"),
        (StageKind.ROLLBACK_WASTE, 0.25, "0"), (StageKind.HEALTHY_RUN, 0.8, "1"),
    ])
    def test_fixed_stage_rate_enforced(self, stage, rate, fixed):
        message = f"^stage {stage} must have rate {fixed}, got {rate!r}$"
        with pytest.raises(ValidationError, match=message):
            Segment(5.0, rate, stage)
        with pytest.raises(ValidationError, match=message):
            RateTimeline([(10.0, 1.0, "HealthyRun"), (5.0, rate, str(stage))])

    def test_segment_is_slotted(self):
        # A simulated timeline holds one Segment per event; no per-instance dict.
        assert not hasattr(Segment(1.0, 0.5, StageKind.SLOW_RECOVERY), "__dict__")

    def test_zero_duration_segments_dropped(self):
        tl = RateTimeline([(0, 1.0, StageKind.HEALTHY_RUN), (5, 1.0, StageKind.HEALTHY_RUN)])
        assert len(tl) == 1
        # Checked before it is dropped.
        with pytest.raises(ValidationError, match="^stage Repair must have rate 0, got 0.5$"):
            RateTimeline([(0.0, 0.5, "Repair")])

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValidationError, match="unknown stage"):
            Segment(1.0, 0.5, "Coffee")

    def test_mixture_needs_components(self):
        with pytest.raises(ValidationError):
            FailureMixture(())

    def test_mixture_rejects_nonpositive_weight(self):
        p = FailStopPeriod(t_h=1)
        with pytest.raises(ValidationError):
            FailureMixture((MixtureComponent(0.0, p),))
        with pytest.raises(ValidationError):
            FailureMixture((MixtureComponent(-2.0, p),))

    def test_period_json_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = random_fail_stop(rng) if rng.random() < 0.5 else random_fail_slow(rng)
            d = p.to_dict()
            assert d["kind"] == p.kind
            assert period_from_dict(d) == p

    def test_period_field_order(self):
        # Each spec's own fields sit between t_ckpt and t_r: in JSON, in the
        # positional arguments, in repr and in the first error reported.
        assert list(FailStopPeriod(t_h=1).to_dict()) == [
            "kind", "t_sr", "r_sr", "t_h", "n_ckpt", "t_ckpt", "t_rb", "t_r"]
        assert list(FailSlowPeriod(t_h=1).to_dict()) == [
            "kind", "t_sr", "r_sr", "t_h", "n_ckpt", "t_ckpt", "t_fs", "r_fs", "t_r"]
        assert FailStopPeriod(2, 0.5, 90, 3, 1, 5, 10) == period_from_dict(
            {"kind": "fail_stop", "t_sr": 2, "r_sr": 0.5, "t_h": 90, "n_ckpt": 3, "t_ckpt": 1,
             "t_rb": 5, "t_r": 10})
        assert repr(FailSlowPeriod(t_fs=8)) == (
            "FailSlowPeriod(t_sr=0.0, r_sr=0.0, t_h=0.0, n_ckpt=0, t_ckpt=0.0, t_fs=8.0, "
            "r_fs=0.0, t_r=0.0)")
        with pytest.raises(ValidationError, match="^t_rb "):
            FailStopPeriod(t_h=1, t_rb=-1, t_r=-1)
        with pytest.raises(ValidationError, match="^r_fs "):
            FailSlowPeriod(t_h=1, r_fs=2, t_r=-1)

    def test_mixture_component_from_period_or_json(self):
        p = FailSlowPeriod(t_sr=2, r_sr=0.5, t_h=90, n_ckpt=3, t_ckpt=1, t_fs=8, r_fs=0.5, t_r=10)
        from_json = MixtureComponent(3, p.to_dict())
        assert from_json == MixtureComponent(3, p)
        assert from_json.period is not p and from_json.period == p
        assert MixtureComponent(3, p).period is p  # a built spec is not checked again
        assert from_json.to_dict() == {"weight": 3.0, "period": p.to_dict()}

    def test_mixture_takes_only_components(self):
        p = FailStopPeriod(t_h=1)
        for comps, message in [
            ((p, 1.0), "component 0 must be a JSON object, got FailStopPeriod"),
            (((p, 1.0),), "component 0 must be a JSON object, got tuple"),
            (MixtureComponent(1.0, p), "mixture must be a non-empty list"),
        ]:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                FailureMixture(comps)

    def test_periods_are_immutable(self):
        p = FailStopPeriod(t_h=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.t_h = 2


class TestSegment:
    SEG = Segment(1.0, 0.5, StageKind.SLOW_RECOVERY)

    def test_repr_and_hash(self):
        assert repr(self.SEG) == (
            "Segment(duration=1.0, rate=0.5, stage=<StageKind.SLOW_RECOVERY: 'SlowRecovery'>)")
        assert hash(self.SEG) == hash(tuple(self.SEG))

    def test_is_a_named_tuple_of_its_values(self):
        duration, rate, stage = self.SEG
        assert self.SEG == (duration, rate, stage) == (1.0, 0.5, StageKind.SLOW_RECOVERY)
        assert len(self.SEG) == 3 and json.loads(json.dumps(self.SEG)) == [1.0, 0.5, "SlowRecovery"]

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.SEG.rate = 0.25

    def test_replace_checks(self):
        assert self.SEG._replace(duration=3) == (3.0, 0.5, StageKind.SLOW_RECOVERY)
        assert type(self.SEG._replace(duration=3)) is Segment
        with pytest.raises(ValidationError, match=r"^rate must lie in \[0, 1\], got 2.0$"):
            self.SEG._replace(rate=2.0)

    @pytest.mark.parametrize("values, message", [
        ((-1, 2.0, "Coffee"), "duration must be a finite non-negative number, got -1.0"),
        ((1, 2.0, "Coffee"), "rate must lie in [0, 1], got 2.0"),
        ((1, 0.5, "Coffee"), "unknown stage 'Coffee'"),
        ((1, 0.5, "Repair"), "stage Repair must have rate 0, got 0.5"),
    ])
    def test_first_failing_check_is_reported(self, values, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Segment(*values)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RateTimeline([(2.0, 1.0, "HealthyRun"), values])

    @pytest.mark.parametrize("item", [(1.0, 0.5), 5, None, (1.0, 0.5, "SlowRecovery", 9)],
                             ids=["two-values", "number", "none", "four-values"])
    def test_item_of_the_wrong_shape(self, item):
        # Its position among the items, from a list or from an iterator.
        message = "timeline item 1: a segment is (duration, rate, stage)"
        for items in [[(2.0, 1.0, "HealthyRun"), item], iter([self.SEG, item, self.SEG])]:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                RateTimeline(items)

    def test_period_timeline_is_the_checked_build(self):
        # The spec's stages are wrapped unchecked; they equal what the checked path builds.
        rng = np.random.default_rng(30)
        for _ in range(200):
            p = random_fail_stop(rng) if rng.random() < 0.5 else random_fail_slow(rng)
            zeroed = {k: 0 for k in p.to_dict() if k != "kind" and rng.random() < 0.25}
            try:
                p = period_from_dict({**p.to_dict(), **zeroed})
            except ValidationError:  # every time zeroed: no duration
                continue
            built = RateTimeline([
                (p.t_sr, p.r_sr, StageKind.SLOW_RECOVERY),
                (p.t_h, 1.0, StageKind.HEALTHY_RUN),
                (p.n_ckpt * p.t_ckpt, 0.0, StageKind.CHECKPOINT_SAVE),
                (p.t_rb, 0.0, StageKind.ROLLBACK_WASTE),
                (p.t_fs, p.r_fs, StageKind.FAIL_SLOW_DEGRADED),
                (p.t_r, 0.0, StageKind.REPAIR),
            ])
            tl = period_to_timeline(p)
            for got, want in [(tl.durations, built.durations), (tl.rates, built.rates)]:
                assert [x.hex() for x in got] == [x.hex() for x in want]
            assert tl.stages == built.stages and all(type(s) is Segment for s in tl)


@pytest.mark.parametrize("stage", list(StageKind))
def test_stage_text_is_its_value(stage):
    """Every way a stage becomes text gives its CamelCase value, as a plain str."""
    value = stage.value
    assert str(stage) == value and type(str(stage)) is str
    assert format(stage, "<18") == format(value, "<18")
    assert f"{stage}|{stage!s}|{stage:>20}" == f"{value}|{value}|{value:>20}"
    assert repr(stage) == f"<StageKind.{stage.name}: {value!r}>"
    assert json.dumps(stage) == json.dumps(value)
    assert json.dumps({stage: 1}) == json.dumps({value: 1})


class TestRateTimeline:
    SEGMENTS = (
        Segment(2.0, 0.5, StageKind.SLOW_RECOVERY),
        Segment(0.0, 1.0, StageKind.HEALTHY_RUN),
        Segment(90.0, 1.0, StageKind.HEALTHY_RUN),
        Segment(0.0, 0.0, StageKind.CHECKPOINT_SAVE),
        Segment(10.0, 0.0, StageKind.REPAIR),
        Segment(0.0, 0.0, StageKind.REPAIR),
    )
    KEPT = tuple(s for s in SEGMENTS if s.duration > 0)

    def test_segments_round_trip_without_zero_durations(self):
        tl = RateTimeline(self.SEGMENTS)
        assert tl.durations == [2.0, 90.0, 10.0]
        assert tl.rates == [0.5, 1.0, 0.0]
        assert tl.stages == [StageKind.SLOW_RECOVERY, StageKind.HEALTHY_RUN, StageKind.REPAIR]
        assert tuple(tl.segments) == tuple(tl) == self.KEPT
        assert tl.segments is tl
        assert len(tl.segments) == len(tl) == 3
        assert tl.segments[-1] == tl[-1] == self.KEPT[-1]
        assert tuple(tl[i] for i in range(1, len(tl))) == self.KEPT[1:]
        assert RateTimeline(tl.segments) == tl

    def test_index_gives_the_segment_iteration_gives(self):
        tl = RateTimeline(self.SEGMENTS)
        segs = tuple(tl)
        for i in range(-len(tl), len(tl)):
            assert type(tl[i]) is Segment and tl[i] == segs[i]
        assert tl[np.int64(1)] == segs[1]
        for i in (len(tl), -len(tl) - 1):
            with pytest.raises(IndexError):
                tl[i]
        # A slice is rejected, not read as a Segment of lists.
        for i in (slice(1, None), slice(None), slice(0, 1)):
            with pytest.raises(TypeError):
                tl[i]

    def test_a_plain_triple_is_its_segment(self):
        triple = (2, 0.5, "SlowRecovery")
        assert RateTimeline([triple]) == RateTimeline([Segment(*triple)])
        assert RateTimeline([triple])[0] == Segment(*triple) == (2.0, 0.5, StageKind.SLOW_RECOVERY)

    def test_a_foreign_named_tuple_is_checked(self):
        with pytest.raises(ValidationError, match=r"^rate must lie in \[0, 1\], got 7\.0$"):
            RateTimeline([Foreign(1.0, 7.0, "Coffee")])

    def test_str_stages_become_stage_kinds(self):
        tl = RateTimeline([Foreign(2.0, 0.5, "SlowRecovery"), Foreign(90.0, 1.0, "HealthyRun"),
                           Foreign(10.0, 0.0, "Repair")])
        assert all(type(s) is StageKind for s in tl.stages)
        r = report(tl)
        assert r["complete_periods"] == {"fail_stop": 1}
        assert r["stage_breakdown"]["SlowRecovery"] == {"time": 2.0, "lost_time": 1.0}

    def test_columns_are_floats_and_stages(self):
        tl = RateTimeline([(3, 1, "HealthyRun")])
        assert (tl.durations, tl.rates, tl.stages) == ([3.0], [1.0], [StageKind.HEALTHY_RUN])
        assert type(tl.durations[0]) is float and type(tl.rates[0]) is float

    def test_equal_timelines_compare_equal(self):
        a = RateTimeline(self.SEGMENTS)
        b = RateTimeline((s.duration, s.rate, s.stage.value) for s in self.KEPT)
        c = RateTimeline._of_columns(list(a.durations), list(a.rates), list(a.stages))
        assert a == b == c
        assert a.segments == b.segments
        assert a != RateTimeline(self.KEPT[:-1])
        assert a != RateTimeline([(2.0, 0.25, StageKind.SLOW_RECOVERY),
                                  *((s.duration, s.rate, s.stage) for s in self.KEPT[1:])])

    def test_empty(self):
        tl = RateTimeline(())
        assert len(tl) == 0 and not tl and tuple(tl.segments) == () and tl == RateTimeline([])

    def test_is_immutable(self):
        tl = RateTimeline(self.SEGMENTS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tl.durations = []


class TestMtbfFailStop:
    def test_worked_example(self):
        p = FailStopPeriod(t_sr=2, r_sr=0.9, t_h=90, n_ckpt=3, t_ckpt=1, t_rb=5, t_r=123)
        assert mtbf_fail_stop(p) == 100.0

    def test_single_term(self):
        assert mtbf_fail_stop(FailStopPeriod(t_h=1)) == 1.0

    def test_zero_mtbf_with_repair_only(self):
        assert mtbf_fail_stop(FailStopPeriod(t_r=7)) == 0.0

    def test_independent_of_repair_time(self):
        a = FailStopPeriod(t_sr=2, t_h=90, n_ckpt=3, t_ckpt=1, t_rb=5, t_r=10)
        b = FailStopPeriod(t_sr=2, t_h=90, n_ckpt=3, t_ckpt=1, t_rb=5, t_r=99)
        assert mtbf_fail_stop(a) == mtbf_fail_stop(b)


class TestMtbfFailSlow:
    def test_worked_example(self):
        p = FailSlowPeriod(t_sr=2, t_h=90, n_ckpt=3, t_ckpt=1, t_fs=10)
        assert mtbf_fail_slow(p) == 95.0

    def test_single_term(self):
        assert mtbf_fail_slow(FailSlowPeriod(t_h=50)) == 50.0

    def test_zero(self):
        assert mtbf_fail_slow(FailSlowPeriod(t_fs=1)) == 0.0

    def test_independent_of_degraded_and_repair(self):
        base = dict(t_sr=2, t_h=90, n_ckpt=3, t_ckpt=1)
        variants = [
            FailSlowPeriod(**base, t_fs=10, r_fs=0.4, t_r=5),
            FailSlowPeriod(**base, t_fs=77, r_fs=0.9, t_r=0),
            FailSlowPeriod(**base, t_fs=0, r_fs=0.0, t_r=50),
        ]
        values = {mtbf_fail_slow(p) for p in variants}
        assert values == {95.0}
