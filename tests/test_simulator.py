import math
from collections import deque
from dataclasses import astuple, replace
from itertools import chain, count
from typing import Iterator

import numpy as np
import pytest

from conftest import counted_runs, random_fail_slow, random_fail_stop
from torkit import (
    DivergedError,
    FailSlowPeriod,
    FailStopPeriod,
    RateTimeline,
    Segment,
    SimConfig,
    StageKind,
    UndefinedMetricError,
    ValidationError,
    integrate_optimal_time,
    monte_carlo,
    observed_time,
    period_to_timeline,
    realized_period_tor_check,
    simulate,
    stage_breakdown,
    tor_fail_slow,
    tor_fail_stop,
    tor_of_timeline,
)
from torkit.model import ZERO_RATE_STAGES
from torkit.periods import FAIL_SLOW, FAIL_STOP, MIXED, StageTotals, mean_periods, period_records
from torkit.simulator import (
    CHECKPOINT_SAVE,
    FAIL_SLOW_DEGRADED,
    HEALTHY_RUN,
    INF,
    REPAIR,
    ROLLBACK_WASTE,
    SLOW_RECOVERY,
    Exponential,
    Fixed,
    LogNormal,
    SimResult,
    _BLOCK,
    _arrivals,
    _duration,
    _run,
    config_from_period,
    dist_from_dict,
    replication_seedseq,
)


def base_config(**overrides) -> SimConfig:
    kwargs = dict(
        w_opt=1.0,
        total_work=100.0,
        ckpt_interval=1000.0,
        t_ckpt=0.0,
        fail_stop_rate=0.0,
        fail_slow_rate=0.0,
        t_r_dist=Fixed(0.0),
        t_sr_dist=Fixed(0.0),
        t_fs_dist=Fixed(0.0),
        r_sr=0.0,
        r_fs=0.0,
        seed=1,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


class TestDistributions:
    def test_json_round_trip(self):
        for d in (Fixed(3.0), Exponential(2.5), LogNormal(4.0, 0.5)):
            assert dist_from_dict("d", d.to_dict()) == d

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            dist_from_dict("d", {"kind": "weibull", "shape": 2})

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            dist_from_dict("d", {"kind": "lognormal", "median": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match=r"^d: unknown fields \['junk'\]$"):
            dist_from_dict("d", {"kind": "fixed", "value": 5, "junk": 1})

    def test_lognormal_median(self):
        seedseq = np.random.SeedSequence(5)
        d = LogNormal(7.0, 0.8)
        draw = _duration(d, seedseq, 1, exp=None)  # a LogNormal draws on its own stream
        samples = [draw() for _ in range(4001)]
        assert sorted(samples)[2000] == pytest.approx(7.0, rel=0.1)
        # the same draws as the scalar oracle's on purpose stream 1
        oracle_rng = purpose_generator(seedseq, 1)
        assert samples == [sample(d, oracle_rng) for _ in range(4001)]


class TestConfigJson:
    def test_round_trip(self):
        cfg = base_config(fail_stop_rate=0.01, t_r_dist=Exponential(5.0), seed=99)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_missing_field(self):
        d = base_config().to_dict()
        del d["w_opt"]
        with pytest.raises(ValidationError, match="w_opt"):
            SimConfig.from_dict(d)

    def test_unknown_field(self):
        d = base_config().to_dict()
        d["typo"] = 1
        with pytest.raises(ValidationError, match="typo"):
            SimConfig.from_dict(d)

    def test_distribution_field_type_checked(self):
        with pytest.raises(ValidationError, match="t_r_dist"):
            base_config(t_r_dist=5)

    def test_missing_distribution_field_named_once(self):
        d = dict(base_config().to_dict(), t_r_dist={"kind": "lognormal", "median": 1})
        message = r"^sim config: t_r_dist: missing fields \['sigma'\]$"
        with pytest.raises(ValidationError, match=message):
            SimConfig.from_dict(d)

    @pytest.mark.parametrize("injected, expected", [
        ({}, {}),
        ({"fail_stop_times": (30.0, 10.0), "fail_slow_times": [5, 50.5]},
         {"fail_stop_times": [10.0, 30.0], "fail_slow_times": [5.0, 50.5]}),
    ], ids=["poisson", "injected"])
    def test_to_dict_golden(self, injected, expected):
        cfg = base_config(
            w_opt=1.5, ckpt_interval=10.0, t_ckpt=0.5, fail_stop_rate=0.01, fail_slow_rate=0.002,
            t_r_dist=Exponential(5.0), t_sr_dist=LogNormal(2.0, 0.3), t_fs_dist=Fixed(1.0),
            r_sr=0.5, r_fs=0.25, seed=7, **injected,
        )
        golden = {
            "w_opt": 1.5, "total_work": 100.0, "ckpt_interval": 10.0, "t_ckpt": 0.5,
            "fail_stop_rate": 0.01, "fail_slow_rate": 0.002,
            "t_r_dist": {"kind": "exponential", "mean": 5.0},
            "t_sr_dist": {"kind": "lognormal", "median": 2.0, "sigma": 0.3},
            "t_fs_dist": {"kind": "fixed", "value": 1.0},
            "r_sr": 0.5, "r_fs": 0.25, "seed": 7, "watchdog_cycles": 1000, **expected,
        }
        d = cfg.to_dict()
        assert list(d) == list(golden)
        assert d == golden
        assert SimConfig.from_dict(d) == cfg

    @pytest.mark.parametrize("times, message", [
        ((1.0, -2.0), r"^fail_stop_times entry must be a finite non-negative number, got -2\.0$"),
        ((1.0, "x"), r"^fail_stop_times entry must be a number, got 'x'$"),
    ], ids=["negative", "not-a-number"])
    def test_injected_time_checked(self, times, message):
        with pytest.raises(ValidationError, match=message):
            base_config(fail_stop_times=times)


def test_injected_arrivals_come_after_the_exposure():
    next_after = _arrivals(0.0, (1.0, 2.0, 2.0, 5.0), exp=None)
    assert [next_after(0.0), next_after(1.0), next_after(2.0), next_after(5.0)] == [
        1.0, 2.0, 5.0, INF]


class TestFailureFree:
    def test_plain_run(self):
        res = simulate(base_config())
        assert res.t_obs == 100.0
        assert res.tor == 1.0
        assert res.periods == ()

    def test_checkpoint_pauses(self):
        # Work completes at progress 180; the checkpoint due at that instant
        # still fires, so two pauses appear.
        res = simulate(base_config(total_work=180.0, ckpt_interval=90.0, t_ckpt=3.0))
        assert res.t_obs == pytest.approx(186.0, abs=1e-9)
        assert res.tor == pytest.approx(180 / 186, abs=1e-12)
        assert res.counts[StageKind.CHECKPOINT_SAVE] == 2


class TestDeterministicSingleFailStop:
    def test_hand_built_timeline(self):
        cfg = base_config(
            ckpt_interval=30.0,
            t_ckpt=2.0,
            t_r_dist=Fixed(10.0),
            t_sr_dist=Fixed(4.0),
            r_sr=0.5,
            fail_stop_times=(50.0,),
        )
        res = simulate(cfg)
        expected = [
            (30.0, 1.0, StageKind.HEALTHY_RUN),
            (2.0, 0.0, StageKind.CHECKPOINT_SAVE),
            (18.0, 0.0, StageKind.ROLLBACK_WASTE),
            (10.0, 0.0, StageKind.REPAIR),
            (4.0, 0.5, StageKind.SLOW_RECOVERY),
            (26.0, 1.0, StageKind.HEALTHY_RUN),
            (2.0, 0.0, StageKind.CHECKPOINT_SAVE),
            (30.0, 1.0, StageKind.HEALTHY_RUN),
            (2.0, 0.0, StageKind.CHECKPOINT_SAVE),
            (12.0, 1.0, StageKind.HEALTHY_RUN),
        ]
        got = [(s.duration, s.rate, s.stage) for s in res.timeline]
        assert len(got) == len(expected)
        for (d, r, st), (ed, er, est) in zip(got, expected):
            assert d == pytest.approx(ed, abs=1e-9)
            assert r == er
            assert st is est
        assert res.t_obs == pytest.approx(136.0, abs=1e-9)
        assert res.tor == pytest.approx(100 / 136, abs=1e-12)
        assert res.tor == pytest.approx(tor_of_timeline(res.timeline), abs=1e-15)


class TestInvariants:
    def test_work_conservation_random_configs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            cfg = base_config(
                w_opt=float(rng.uniform(0.5, 2.0)),
                total_work=float(rng.uniform(50, 300)),
                ckpt_interval=float(rng.uniform(5, 20)),
                t_ckpt=float(rng.uniform(0, 1)),
                fail_stop_rate=float(rng.uniform(0, 0.02)),
                fail_slow_rate=float(rng.uniform(0, 0.02)),
                t_r_dist=Exponential(float(rng.uniform(0.5, 5))),
                t_sr_dist=Fixed(float(rng.uniform(0, 5))),
                t_fs_dist=LogNormal(float(rng.uniform(0.5, 5)), 0.5),
                r_sr=float(rng.uniform(0, 1)),
                r_fs=float(rng.uniform(0, 1)),
                seed=int(rng.integers(0, 2**63)),
            )
            res = simulate(cfg)
            assert res.t_opt * cfg.w_opt == pytest.approx(cfg.total_work, rel=1e-9)
            assert res.tor == pytest.approx(tor_of_timeline(res.timeline), abs=1e-12)

    def test_rollback_bound(self):
        cfg = base_config(
            total_work=500.0,
            ckpt_interval=10.0,
            t_ckpt=1.0,
            fail_stop_rate=0.05,
            t_r_dist=Fixed(3.0),
            t_sr_dist=Fixed(2.0),
            r_sr=0.5,
            seed=77,
        )
        res = simulate(cfg)
        assert any(s.stage is StageKind.ROLLBACK_WASTE for s in res.timeline)
        run = 0.0
        for s in res.timeline:
            run = run + s.duration if s.stage is StageKind.ROLLBACK_WASTE else 0.0
            assert run <= cfg.ckpt_interval + cfg.t_ckpt + 1e-9

    def test_bit_identical_repeat(self):
        cfg = base_config(
            total_work=300.0,
            ckpt_interval=15.0,
            t_ckpt=1.0,
            fail_stop_rate=0.03,
            fail_slow_rate=0.01,
            t_r_dist=Exponential(4.0),
            t_sr_dist=LogNormal(2.0, 0.3),
            t_fs_dist=Exponential(6.0),
            r_sr=0.6,
            r_fs=0.3,
            seed=4242,
        )
        a, b = simulate(cfg), simulate(cfg)
        assert a.timeline.segments == b.timeline.segments
        assert a.tor == b.tor and a.t_obs == b.t_obs


class TestWatchdog:
    def test_never_committing_config_diverges(self):
        cfg = base_config(
            total_work=1000.0,
            ckpt_interval=5.0,
            t_ckpt=1.0,
            fail_stop_rate=10.0,
            t_r_dist=Fixed(0.5),
            watchdog_cycles=50,
            seed=3,
        )
        with pytest.raises(DivergedError) as exc:
            simulate(cfg)
        assert exc.value.stalled_cycles == 50


class TestDeterministicPeriods:
    def test_fail_stop_steady_state_matches_closed_form(self, worked_fail_stop):
        cfg = config_from_period(worked_fail_stop, periods=15, seed=7, deterministic=True)
        res = simulate(cfg)
        steady = list(res.periods[1:])
        assert len(steady) >= 10
        means = mean_periods(steady)
        assert means.tor == pytest.approx(tor_fail_stop(worked_fail_stop), abs=1e-9)
        for p in steady:
            assert p.t_sr == pytest.approx(2.0, abs=1e-9)
            assert p.t_h == pytest.approx(90.0, abs=1e-9)
            assert p.t_rb == pytest.approx(5.0, abs=1e-9)
            assert p.n_ckpt == 3

    def test_fail_slow_steady_state_matches_closed_form(self, worked_fail_slow):
        cfg = config_from_period(worked_fail_slow, periods=15, seed=7, deterministic=True)
        res = simulate(cfg)
        steady = list(res.periods[1:])
        assert len(steady) >= 10
        means = mean_periods(steady)
        assert means.tor == pytest.approx(tor_fail_slow(worked_fail_slow), abs=1e-9)

    def test_fail_stop_without_checkpoints_rejected(self):
        with pytest.raises(ValidationError):
            config_from_period(FailStopPeriod(t_h=10, t_rb=2, t_r=1), periods=5)

    def test_other_types_rejected(self):
        with pytest.raises(ValidationError, match=r"^unsupported period type: str$"):
            config_from_period("x", 5)

    def test_underflowing_checkpoint_interval_rejected(self):
        # (t_sr + t_h) / n_ckpt underflows to 0.
        p = FailStopPeriod(t_h=1e-300, n_ckpt=10**300, t_ckpt=1e-300)
        with pytest.raises(ValidationError,
                           match=r"^period has no progress-accruing time before checkpoints$"):
            config_from_period(p, 5)


class TestRealizedCheck:
    def test_failure_free_is_one(self):
        assert realized_period_tor_check(simulate(base_config())) == 1.0

    def test_empty_run_rejected(self):
        res = SimResult(t_obs=0.0, t_opt=0.0, tor=math.nan, timeline=RateTimeline())
        with pytest.raises(ValidationError, match=r"^run has no complete failure-repair periods$"):
            realized_period_tor_check(res)

    def test_matches_complete_period_tor(self, worked_fail_stop):
        cfg = config_from_period(worked_fail_stop, periods=200, seed=5)
        res = simulate(cfg)
        assert len(res.periods) > 50
        num = math.fsum(p.opt_time for p in res.periods)
        den = math.fsum(p.duration for p in res.periods)
        assert realized_period_tor_check(res) == pytest.approx(num / den, abs=1e-12)

    def test_single_period_equals_closed_form_of_realized(self, worked_fail_stop):
        cfg = config_from_period(worked_fail_stop, periods=2, seed=5, deterministic=True)
        res = simulate(cfg)
        p0 = res.periods[0]
        realized = FailStopPeriod(
            t_sr=p0.t_sr, r_sr=p0.r_sr, t_h=p0.t_h, n_ckpt=0,
            t_ckpt=0.0, t_rb=p0.t_rb + p0.ckpt_time, t_r=p0.t_r,
        )
        # lumping checkpoint time into the zero-rate t_rb term keeps the ratio
        assert p0.tor == pytest.approx(tor_fail_stop(realized), abs=1e-12)

    def test_mixed_failure_types_rejected(self):
        cfg = base_config(
            total_work=400.0,
            ckpt_interval=10.0,
            t_ckpt=0.5,
            fail_stop_rate=0.02,
            fail_slow_rate=0.02,
            t_r_dist=Fixed(2.0),
            t_sr_dist=Fixed(1.0),
            t_fs_dist=Fixed(4.0),
            r_sr=0.5,
            r_fs=0.5,
            seed=9,
        )
        res = simulate(cfg)
        kinds = {p.kind for p in res.periods}
        assert len(kinds) > 1
        with pytest.raises(ValidationError):
            realized_period_tor_check(res)


class TestMonteCarlo:
    def test_single_replication(self):
        cfg = base_config()
        s = monte_carlo(cfg, 1)
        assert s.mean_tor == s.outcomes[0].tor
        assert s.std_tor == 0.0

    def test_failure_free_mean_one(self):
        s = monte_carlo(base_config(), 8)
        assert s.mean_tor == 1.0 and s.std_tor == 0.0

    def test_deterministic_summary(self):
        cfg = base_config(
            total_work=300.0,
            ckpt_interval=15.0,
            t_ckpt=1.0,
            fail_stop_rate=0.02,
            t_r_dist=Exponential(4.0),
            t_sr_dist=Fixed(2.0),
            r_sr=0.5,
            seed=31,
        )
        a, b = monte_carlo(cfg, 10), monte_carlo(cfg, 10)
        assert a.to_dict() == b.to_dict()

    def test_diverged_replications_counted(self):
        cfg = base_config(
            total_work=1000.0,
            ckpt_interval=5.0,
            t_ckpt=1.0,
            fail_stop_rate=10.0,
            t_r_dist=Fixed(0.5),
            watchdog_cycles=20,
            seed=3,
        )
        with pytest.raises(DivergedError) as info:
            monte_carlo(cfg, 3)
        assert str(info.value).startswith(
            "all 3 replications diverged: no contributed work across 20 consecutive")
        assert info.value.stalled_cycles == 20

    def test_replications_validated(self):
        with pytest.raises(ValidationError):
            monte_carlo(base_config(), 0)

    def test_empty_run_rejected_like_simulate(self):
        # total_work / w_opt underflows to 0: the run has no entries.
        cfg = base_config(w_opt=2.0, total_work=5e-324)
        with pytest.raises(UndefinedMetricError) as simulated:
            simulate(cfg)
        with pytest.raises(UndefinedMetricError) as replicated:
            monte_carlo(cfg, 2)
        assert str(replicated.value) == str(simulated.value)

    def test_summed_overflow_rejected_like_simulate(self):
        # Two finite repairs of 1e308: the run's observed time is beyond the float range.
        cfg = base_config(total_work=500.0, fail_stop_rate=0.01, t_r_dist=Fixed(1e308), seed=21)
        with pytest.raises(UndefinedMetricError, match="observed time exceeds the float range"):
            simulate(cfg)
        with pytest.raises(UndefinedMetricError, match="observed time exceeds the float range"):
            monte_carlo(cfg, 2)


# Replication 2 of ``monte_carlo(cfg, 3)``: (tor, t_obs, t_opt) as float.hex and the
# complete-period count, recorded from the simulator before replications k >= 1
# stopped building timelines; those of the two configs with a LogNormal
# (fail_stop, fail_slow) from ``reference_run`` once each LogNormal drew on its
# own stream.
GOLDEN_REPLICATION_2 = {
    "fail_stop": ("0x1.447723240c271p-1", "0x1.3b98984afcbefp+9", "0x1.9000000000002p+8", 20),
    "fail_slow": ("0x1.8a0adc9710e64p-1", "0x1.03ded89b14eb7p+9", "0x1.8fffffffffffep+8", 13),
    "mixed": ("0x1.9baa920ffd21fp-1", "0x1.f17d8669f040ep+8", "0x1.9000000000000p+8", 16),
    "no_ckpt_cost": ("0x1.794fb53557e80p-1", "0x1.971741a3f8cafp+8", "0x1.2c00000000000p+8", 18),
    "zero_repair": ("0x1.46d023fc836aep-1", "0x1.d5fe544088f7dp+8", "0x1.2c00000000000p+8", 0),
    "deterministic": ("0x1.aa32c4e4edec0p-1", "0x1.55a0000000001p+10", "0x1.1c60000000001p+10", 12),
    "rollback_across_fail_slow": (
        "0x1.5c4ca037ba571p-1", "0x1.2600000000000p+7", "0x1.9000000000000p+6", 2,
    ),
    "back_to_back_repairs": (
        "0x1.93264c993264dp-1", "0x1.fc00000000000p+6", "0x1.9000000000000p+6", 1,
    ),
}


def golden_config(name: str) -> SimConfig:
    if name == "fail_stop":
        return base_config(total_work=400.0, ckpt_interval=12.0, t_ckpt=1.0,
                           fail_stop_rate=0.03, t_r_dist=Exponential(4.0),
                           t_sr_dist=LogNormal(2.0, 0.3), r_sr=0.6, seed=11)
    if name == "fail_slow":
        return base_config(total_work=400.0, ckpt_interval=12.0, t_ckpt=1.0,
                           fail_slow_rate=0.03, t_r_dist=Fixed(3.0),
                           t_sr_dist=Exponential(2.0), t_fs_dist=LogNormal(5.0, 0.5),
                           r_sr=0.5, r_fs=0.3, seed=12)
    if name == "mixed":
        return base_config(w_opt=1.5, total_work=600.0, ckpt_interval=10.0, t_ckpt=0.5,
                           fail_stop_rate=0.02, fail_slow_rate=0.02,
                           t_r_dist=Exponential(3.0), t_sr_dist=Fixed(1.0),
                           t_fs_dist=Exponential(4.0), r_sr=0.5, r_fs=0.4, seed=13)
    if name == "no_ckpt_cost":  # t_ckpt = 0: a checkpoint commits at its trigger
        return base_config(total_work=300.0, ckpt_interval=8.0, fail_stop_rate=0.04,
                           fail_slow_rate=0.01, t_r_dist=Exponential(2.0),
                           t_sr_dist=Fixed(1.5), t_fs_dist=Fixed(3.0),
                           r_sr=0.5, r_fs=0.5, seed=14)
    if name == "zero_repair":  # Fixed(0) repair: no Repair segment, so no period
        return base_config(total_work=300.0, ckpt_interval=10.0, t_ckpt=1.0,
                           fail_stop_rate=0.03, fail_slow_rate=0.02, t_r_dist=Fixed(0.0),
                           t_sr_dist=Fixed(2.0), t_fs_dist=Exponential(3.0),
                           r_sr=1.0, r_fs=0.0, seed=15)
    if name == "deterministic":
        return config_from_period(
            FailStopPeriod(t_sr=2, r_sr=0.5, t_h=90, n_ckpt=3, t_ckpt=1, t_rb=5, t_r=10),
            periods=12, seed=16, deterministic=True,
        )
    if name == "back_to_back_repairs":
        # A fail-stop and a fail-slow due at the same instant: the fail-slow
        # fires right after the first repair, and with t_fs = 0 its repair
        # directly follows. The two Repair segments form one period.
        return base_config(total_work=100.0, t_ckpt=1.0, fail_stop_times=(20.0,),
                           fail_slow_times=(20.0,), t_r_dist=Fixed(3.0), t_sr_dist=Fixed(2.0),
                           t_fs_dist=Fixed(0.0), r_sr=0.5, r_fs=0.5, seed=18)
    # No checkpoint commits before the fail-stop at exposure 40, so its
    # rollback relabels progress from before the fail-slow repair.
    assert name == "rollback_across_fail_slow"
    return base_config(total_work=100.0, t_ckpt=1.0, fail_stop_times=(40.0,),
                       fail_slow_times=(20.0,), t_r_dist=Fixed(3.0), t_sr_dist=Fixed(2.0),
                       t_fs_dist=Fixed(5.0), r_sr=0.5, r_fs=0.5, seed=17)


def result_totals(k: int, res) -> tuple:
    return (k, res.tor, res.t_obs, res.t_opt)


Run = tuple[list[float], list[float], list[StageKind]]  # the columns reference_run returns


def columns(run: SimResult | Run) -> Run:
    """A run's columns: its result's timeline columns, or ``reference_run``'s."""
    if isinstance(run, SimResult):
        return run.timeline.durations, run.timeline.rates, run.timeline.stages
    return run


def column_totals(k: int, run: SimResult | Run) -> tuple:
    """Replication ``k``'s (index, tor, t_obs, t_opt), summed from its columns."""
    durations, rates, _ = columns(run)
    t_obs = math.fsum(durations)
    t_opt = math.fsum(d * r for d, r in zip(durations, rates))
    return (k, t_opt / t_obs, t_obs, t_opt)


class TestReplicationOutcome:
    """A replication's outcome holds the totals of its run; they must equal
    compensated sums over the run's columns bit for bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPLICATION_2))
    def test_golden_values(self, name):
        cfg = golden_config(name)
        summary = monte_carlo(cfg, 3)
        assert summary.completed == 3
        for o in summary.outcomes:
            run = _run(cfg, replication_seedseq(cfg.seed, o.index))
            assert astuple(o) == column_totals(o.index, run)
        assert result_totals(0, summary.first_result) == astuple(summary.outcomes[0])
        assert (o.index, o.tor.hex(), o.t_obs.hex(), o.t_opt.hex(), len(run.periods)) \
            == (2, *GOLDEN_REPLICATION_2[name])

    def test_rollback_relabels_an_earlier_period(self):
        res = simulate(golden_config("rollback_across_fail_slow"))
        assert [(s.duration, s.stage) for s in res.timeline][:3] == [
            (20.0, StageKind.ROLLBACK_WASTE),
            (5.0, StageKind.ROLLBACK_WASTE),
            (3.0, StageKind.REPAIR),
        ]

    def test_random_configs_match_simulate(self):
        rng = np.random.default_rng(97)

        def dist():
            pick = rng.integers(0, 4)
            if pick == 0:
                return Fixed(0.0)
            if pick == 1:
                return Fixed(float(rng.uniform(0, 5)))
            if pick == 2:
                return Exponential(float(rng.uniform(0.5, 5)))
            return LogNormal(float(rng.uniform(0.5, 5)), 0.5)

        def ratio():
            return (0.0, 1.0, float(rng.uniform(0, 1)))[rng.integers(0, 3)]

        for _ in range(60):
            cfg = base_config(
                w_opt=float(rng.uniform(0.5, 2.0)),
                total_work=float(rng.uniform(50, 300)),
                ckpt_interval=float(rng.uniform(3, 30)),
                t_ckpt=0.0 if rng.random() < 0.3 else float(rng.uniform(0, 2)),
                fail_stop_rate=float(rng.uniform(0, 0.05)),
                fail_slow_rate=0.0 if rng.random() < 0.3 else float(rng.uniform(0, 0.05)),
                t_r_dist=dist(), t_sr_dist=dist(), t_fs_dist=dist(),
                r_sr=ratio(), r_fs=ratio(),
                seed=int(rng.integers(0, 2**63)),
            )
            for o in monte_carlo(cfg, 4).outcomes:
                run = _run(cfg, replication_seedseq(cfg.seed, o.index))
                assert astuple(o) == column_totals(o.index, run)

    def test_first_result_is_the_first_replication_to_finish(self):
        # Replications 0, 1 and 3 diverge; values recorded before simulate
        # and monte_carlo shared one run record.
        cfg = base_config(total_work=60.0, ckpt_interval=5.0, t_ckpt=1.0, fail_stop_rate=0.3,
                          t_r_dist=Fixed(0.5), seed=35, watchdog_cycles=5)
        summary = monte_carlo(cfg, 4)
        assert (summary.completed, summary.diverged) == (1, 3)
        assert [o.index for o in summary.outcomes] == [2]
        first = summary.first_result
        assert first.tor.hex() == "0x1.11fc4caca2adcp-1"
        assert astuple(summary.outcomes[0]) == result_totals(2, first)


def first_result_config(name: str) -> SimConfig:
    """The golden "mixed" config, or the "diverging" one, whose replications 0,
    1 and 3 diverge (as in test_first_result_is_the_first_replication_to_finish)."""
    if name == "mixed":
        return golden_config("mixed")
    return base_config(total_work=60.0, ckpt_interval=5.0, t_ckpt=1.0, fail_stop_rate=0.3,
                       t_r_dist=Fixed(0.5), seed=35, watchdog_cycles=5)


FIRST_RESULT_READS = {
    "timeline": lambda res: res.timeline,
    "counts": lambda res: res.counts,
    "periods": lambda res: res.periods,
    "period_means": lambda res: res.period_means,
    "to_dict": lambda res: res.to_dict(),
    "repr": repr,
    "eq": lambda res: res == res,
}


@pytest.mark.parametrize("read", list(FIRST_RESULT_READS))
@pytest.mark.parametrize("name", ["diverging", "mixed"])
def test_unrecorded_first_result_runs_again_once_when_read(name, read, monkeypatch):
    cfg = first_result_config(name)
    calls = counted_runs(monkeypatch)
    summary = monte_carlo(cfg, 4)
    assert calls == [(k, False) for k in range(4)]
    first, outcome = summary.first_result, summary.outcomes[0]
    assert result_totals(outcome.index, first) == astuple(outcome)
    assert len(calls) == 4
    FIRST_RESULT_READS[read](first)
    assert calls[4:] == [(outcome.index, True)]
    for again in FIRST_RESULT_READS.values():
        again(first)
    assert len(calls) == 5
    recorded = _run(cfg, replication_seedseq(cfg.seed, outcome.index))
    assert first == recorded and first.to_dict() == recorded.to_dict()
    assert repr(first) == repr(recorded)


def test_unknown_attribute_of_unrecorded_first_result(monkeypatch):
    calls = counted_runs(monkeypatch)
    first = monte_carlo(golden_config("mixed"), 2).first_result
    with pytest.raises(AttributeError) as e:
        first.nope
    assert str(e.value) == "'SimResult' object has no attribute 'nope'"
    assert not hasattr(first, "nope")
    assert calls == [(0, False), (1, False)]


@pytest.mark.parametrize("name", ["diverging", "mixed"])
def test_record_first_records_until_one_finishes(name, monkeypatch):
    cfg = first_result_config(name)
    unrecorded = monte_carlo(cfg, 4)
    calls = counted_runs(monkeypatch)
    summary = monte_carlo(cfg, 4, record_first=True)
    first = summary.outcomes[0].index
    assert calls == [(k, k <= first) for k in range(4)]
    for read in FIRST_RESULT_READS.values():
        read(summary.first_result)
    assert len(calls) == 4
    assert summary.outcomes == unrecorded.outcomes
    assert summary.first_result == unrecorded.first_result


def test_analysis_is_computed_once_when_first_read(monkeypatch):
    calls = []

    def counting_period_records(tl):
        calls.append(tl)
        return period_records(tl)

    monkeypatch.setattr("torkit.simulator.period_records", counting_period_records)
    cfg = golden_config("mixed")
    summary = monte_carlo(cfg, 3)
    res = simulate(cfg)
    assert calls == []
    assert res == simulate(cfg) and "periods" not in repr(res)
    for _ in range(2):
        means, periods, counts = res.period_means, res.periods, res.counts
    assert calls == [res.timeline]
    assert periods == tuple(period_records(res.timeline))
    assert means == mean_periods(list(periods))
    assert counts[StageKind.REPAIR] == len(periods)


def reference_period_records(tl: RateTimeline) -> list[StageTotals]:
    """Split at the end of each Repair run, then summarise each period."""
    periods, current = [], []
    segs = tl.segments
    for i, s in enumerate(segs):
        current.append(s)
        if s.stage is StageKind.REPAIR and (
            i + 1 == len(segs) or segs[i + 1].stage is not StageKind.REPAIR
        ):
            periods.append(current)
            current = []
    records = []
    for p in periods:
        def total(stage, weighted=False):
            return math.fsum(s.duration * (s.rate if weighted else 1.0)
                             for s in p if s.stage is stage)

        has_rb = any(s.stage is StageKind.ROLLBACK_WASTE for s in p)
        has_fs = any(s.stage is StageKind.FAIL_SLOW_DEGRADED for s in p)
        n_ckpt = sum(
            1 for j, s in enumerate(p)
            if s.stage is StageKind.CHECKPOINT_SAVE
            and (j == 0 or p[j - 1].stage is not StageKind.CHECKPOINT_SAVE)
        )
        records.append(StageTotals(
            kind=MIXED if has_rb and has_fs else FAIL_SLOW if has_fs else FAIL_STOP,
            t_sr=total(StageKind.SLOW_RECOVERY),
            sr_work=total(StageKind.SLOW_RECOVERY, weighted=True),
            t_h=total(StageKind.HEALTHY_RUN),
            ckpt_time=total(StageKind.CHECKPOINT_SAVE),
            n_ckpt=n_ckpt,
            t_rb=total(StageKind.ROLLBACK_WASTE),
            t_fs=total(StageKind.FAIL_SLOW_DEGRADED),
            fs_work=total(StageKind.FAIL_SLOW_DEGRADED, weighted=True),
            t_r=total(StageKind.REPAIR),
        ))
    return records


def test_period_records_match_reference_split():
    rng = np.random.default_rng(41)
    stages = list(StageKind)
    for _ in range(300):
        items = []
        for _ in range(int(rng.integers(0, 40))):
            stage = stages[rng.integers(0, len(stages))]
            rate = 1.0 if stage is StageKind.HEALTHY_RUN else (
                0.0 if stage in (StageKind.REPAIR, StageKind.CHECKPOINT_SAVE,
                                 StageKind.ROLLBACK_WASTE) else float(rng.uniform(0, 1))
            )
            items.append((float(rng.choice([0.0, 1.0, rng.exponential(3.0)])), rate, stage))
        tl = RateTimeline.build(items)
        assert period_records(tl) == reference_period_records(tl)


def random_columns(rng: np.random.Generator, i: int) -> tuple[list, list, list]:
    """Columns as the simulator records them: positive float durations, float
    rates pinned for the fixed-rate stages. Every third set has no checkpoint
    saves (t_ckpt = 0), every tenth a single entry, and stages repeat often so
    that Repair runs (and others) sit next to each other."""
    stages = [s for s in StageKind if i % 3 or s is not StageKind.CHECKPOINT_SAVE]
    n = 1 if i % 10 == 0 else int(rng.integers(1, 60))
    durations, rates, kinds = [], [], []
    for _ in range(n):
        if kinds and rng.random() < 0.3:
            stage = kinds[-1]
        else:
            stage = stages[rng.integers(0, len(stages))]
        rate = 1.0 if stage is StageKind.HEALTHY_RUN else (
            0.0 if stage in ZERO_RATE_STAGES else float(rng.uniform(0, 1)))
        durations.append(float(rng.choice([1.0, rng.exponential(3.0), rng.uniform(0, 1e-3)])))
        rates.append(rate)
        kinds.append(stage)
    return durations, rates, kinds


def test_columnar_readers_match_segment_reference():
    rng = np.random.default_rng(47)
    for i in range(300):
        run = random_columns(rng, i)
        segs = [Segment(d, r, s) for d, r, s in zip(*run)]
        tl = RateTimeline._of_columns(*run)
        assert tl == RateTimeline(segs)
        assert period_records(tl) == reference_period_records(RateTimeline(segs))
        assert observed_time(tl) == math.fsum(s.duration for s in segs)
        assert integrate_optimal_time(tl) == math.fsum(s.duration * s.rate for s in segs)
        breakdown: dict = {}
        for s in segs:
            time, lost = breakdown.setdefault(s.stage, ([], []))
            time.append(s.duration)
            lost.append(s.duration * (1.0 - s.rate))
        expected = {k: (math.fsum(t), math.fsum(lost)) for k, (t, lost) in breakdown.items()}
        got = stage_breakdown(tl)
        assert got == expected and list(got) == list(expected)
        counts: dict = {}
        for j, s in enumerate(segs):
            if j == 0 or segs[j - 1].stage is not s.stage:
                counts[s.stage] = counts.get(s.stage, 0) + 1
        t_obs, t_opt = observed_time(tl), integrate_optimal_time(tl)
        res = SimResult(t_obs=t_obs, t_opt=t_opt, tor=t_opt / t_obs, timeline=tl)
        assert res.counts == counts and list(res.counts) == list(counts)
        assert list(res.periods) == reference_period_records(RateTimeline(segs))


def test_spec_totals_match_their_timeline_record():
    """A spec's totals are the lone record of its own one-period timeline.

    ``n_ckpt`` is the exception: the timeline merges the saves into one
    segment, so its record counts one save.
    """
    rng = np.random.default_rng(43)
    for i in range(300):
        p = random_fail_stop(rng) if i % 2 == 0 else random_fail_slow(rng)
        totals = p.totals()
        records = period_records(period_to_timeline(p))
        assert len(records) == 1
        (record,) = records
        for name in StageTotals._fields:
            if name != "n_ckpt":
                assert getattr(totals, name) == getattr(record, name), name
        # The two derived figures agree bit for bit.
        assert totals.tor.hex() == record.tor.hex()
        assert totals.mtbf.hex() == record.mtbf.hex()


def test_stage_totals_is_a_named_tuple(worked_fail_stop):
    """A record reads, compares, hashes and rebuilds as a tuple of its ten fields."""
    t = worked_fail_stop.totals()
    assert repr(t) == (
        "StageTotals(kind='fail_stop', t_sr=2.0, sr_work=1.0, t_h=90.0, ckpt_time=3.0, "
        "n_ckpt=3, t_rb=5.0, t_fs=0.0, fs_work=0.0, t_r=10.0)")
    assert hash(t) == hash(tuple(t))
    with pytest.raises(AttributeError):
        t.t_h = 1.0
    assert StageTotals(**t._asdict()) == t
    assert StageTotals._fields == (
        "kind", "t_sr", "sr_work", "t_h", "ckpt_time", "n_ckpt", "t_rb", "t_fs", "fs_work", "t_r")


# ---------------------------------------------------------------------------
# the event loop against its reference

def _finite(dist, x: float) -> float:
    """A draw of ``dist``; one beyond the float range is rejected."""
    if not math.isfinite(x):
        raise ValidationError(f"{dist!r} drew a duration beyond the float range")
    return x


# The scalar draws of the event loop as it was before block draws, kept
# verbatim: one NumPy call per draw.
def sample(dist, rng: np.random.Generator) -> float:
    if isinstance(dist, Fixed):
        return dist.value
    if isinstance(dist, Exponential):
        return _finite(dist, float(rng.exponential(dist.mean)))
    return _finite(dist, float(rng.lognormal(math.log(dist.median), dist.sigma)))


class _Arrivals:
    """Next-arrival supplier on the exposed-time axis."""

    def __init__(self, rate: float, times: tuple[float, ...] | None, rng: np.random.Generator):
        self._rate = rate
        self._iter: Iterator[float] | None = iter(times) if times is not None else None
        self._rng = rng

    def next_after(self, exposure: float) -> float:
        if self._iter is not None:
            for t in self._iter:
                if t > exposure:
                    return t
            return INF
        return self._draw(exposure)

    def _draw(self, exposure: float) -> float:
        if self._rate <= 0:
            return INF
        return exposure + float(self._rng.exponential(1.0 / self._rate))


def purpose_generator(seedseq: np.random.SeedSequence, purpose: int) -> np.random.Generator:
    """The generator of a run's stream ``purpose``: its Philox stream jumped
    ``purpose`` times."""
    return np.random.Generator(np.random.Philox(seedseq).jumped(purpose))


def purpose_generators(cfg: SimConfig, seedseq: np.random.SeedSequence):
    """The run's generator, and those that ``t_r``, ``t_sr`` and ``t_fs`` draw
    on: a LogNormal on the stream of its purpose (1, 2, 3), any other on the
    run's own."""
    rng = np.random.Generator(np.random.Philox(seedseq))
    return rng, tuple(purpose_generator(seedseq, j) if isinstance(d, LogNormal) else rng
                      for j, d in enumerate((cfg.t_r_dist, cfg.t_sr_dist, cfg.t_fs_dist), 1))


def one_generator(cfg: SimConfig, seedseq: np.random.SeedSequence):
    """Every draw on the run's one generator, as before the purpose streams."""
    rng = np.random.Generator(np.random.Philox(seedseq))
    return rng, (rng, rng, rng)


# The event loop as it was before its healthy-run fast path and block draws,
# kept verbatim but for the generators its durations draw on.
def reference_run(cfg: SimConfig, seedseq: np.random.SeedSequence,
                  generators=purpose_generators) -> Run:
    """The event loop: the run's segments of positive duration, as the columns
    (durations, rates, stages).

    A fail-stop relabels the progress entries after the last completed
    checkpoint as rate-0 RollbackWaste, in place.
    """
    rng, (rng_r, rng_sr, rng_fs) = generators(cfg, seedseq)
    durations: list[float] = []
    rates: list[float] = []
    stages: list[StageKind] = []
    saved = 0                      # entries before this index are checkpoint-protected

    stops = _Arrivals(cfg.fail_stop_rate, cfg.fail_stop_times, rng)
    slows = _Arrivals(cfg.fail_slow_rate, cfg.fail_slow_times, rng)
    next_stop = stops.next_after(0.0)
    next_slow = slows.next_after(0.0)

    total, w_opt, ckpt_interval = cfg.total_work, cfg.w_opt, cfg.ckpt_interval
    queue: deque[list] = deque()   # [stage, remaining, rate]; empty queue = healthy run

    exposure = 0.0                 # non-repair wall time
    prog = 0.0                     # progress-accruing time since last checkpoint start
    work = 0.0                     # contributed work (committed + at-risk)
    committed = 0.0                # checkpoint-protected work
    stalled = 0
    work_at_last_failure: float | None = None

    def on_failure_progress_check():
        nonlocal stalled, work_at_last_failure
        if work_at_last_failure is not None and work <= work_at_last_failure:
            stalled += 1
            if stalled >= cfg.watchdog_cycles:
                raise DivergedError(
                    f"no contributed work across {stalled} consecutive failure cycles; "
                    "the configuration cannot finish (e.g. checkpoints never complete "
                    "between failures)",
                    stalled_cycles=stalled,
                )
        else:
            stalled = 0
        work_at_last_failure = work

    while True:
        if queue:
            stage, rem, rate = queue[0]
        else:
            stage, rem, rate = HEALTHY_RUN, INF, 1.0
        in_repair = stage is REPAIR
        wrate = rate * w_opt

        dt_work = (total - work) / wrate if wrate > 0 else INF
        dt_stop = (next_stop - exposure) if not in_repair else INF
        dt_slow = (next_slow - exposure) if not in_repair else INF
        dt_ckpt = (ckpt_interval - prog) if rate > 0 else INF
        dt_end = rem

        # Priority on ties: fail-stop, fail-slow, checkpoint trigger, work
        # completion, stage end (index() picks the first minimum). A
        # checkpoint due exactly at completion still fires: the run ends at
        # the first progress instant after the total work is contributed.
        candidates = (dt_stop, dt_slow, dt_ckpt, dt_work, dt_end)
        dt = min(candidates)
        event = candidates.index(dt)
        if dt < 0:  # float slack from clock bookkeeping; fire immediately
            dt = 0.0

        if dt > 0:
            durations.append(dt)
            rates.append(rate)
            stages.append(stage)
            if rate > 0:
                work += dt * wrate
                prog += dt
            if not in_repair:
                exposure += dt
            if queue:
                queue[0][1] -= dt

        if event == 3:  # work complete
            return durations, rates, stages

        if event == 0:  # fail-stop
            next_stop = stops.next_after(exposure)
            for i in range(saved, len(rates)):
                if rates[i] > 0:
                    rates[i] = 0.0
                    stages[i] = ROLLBACK_WASTE
            saved = len(rates)
            work = committed
            prog = 0.0
            queue.clear()
            queue.append([REPAIR, sample(cfg.t_r_dist, rng_r), 0.0])
            queue.append([SLOW_RECOVERY, sample(cfg.t_sr_dist, rng_sr), cfg.r_sr])
            on_failure_progress_check()
        elif event == 1:  # fail-slow
            next_slow = slows.next_after(exposure)
            queue.clear()
            queue.append([FAIL_SLOW_DEGRADED, sample(cfg.t_fs_dist, rng_fs), cfg.r_fs])
            queue.append([REPAIR, sample(cfg.t_r_dist, rng_r), 0.0])
            queue.append([SLOW_RECOVERY, sample(cfg.t_sr_dist, rng_sr), cfg.r_sr])
            on_failure_progress_check()
        elif event == 2:  # checkpoint trigger
            prog = 0.0
            if cfg.t_ckpt > 0:
                # Suspend whatever is running; it resumes after the save.
                queue.appendleft([CHECKPOINT_SAVE, cfg.t_ckpt, 0.0])
            else:
                committed = work
                saved = len(rates)
        else:  # stage end
            done = queue.popleft()
            if done[0] is CHECKPOINT_SAVE:
                committed = work
                saved = len(rates)


def run_record(run, cfg: SimConfig, k: int) -> tuple:
    """Replication ``k`` of ``run`` as float.hex columns, or its divergence."""
    try:
        durations, rates, stages = columns(run(cfg, replication_seedseq(cfg.seed, k)))
    except DivergedError as e:
        return ("diverged", e.stalled_cycles, str(e))
    return ([d.hex() for d in durations], [r.hex() for r in rates], stages)


def totals_record(cfg: SimConfig, k: int, record: bool) -> tuple:
    """Replication ``k``'s (t_obs, t_opt, tor) as float.hex, summed from the
    recorded run's columns or kept by the unrecorded one, or its divergence."""
    try:
        res = _run(cfg, replication_seedseq(cfg.seed, k), record)
    except DivergedError as e:
        return ("diverged", e.stalled_cycles, str(e))
    return tuple(x.hex() for x in (res.t_obs, res.t_opt, res.tor))


# Uninterrupted, ckpt_interval 10 and t_ckpt 1 put the triggers at exposure
# 10, 21, 32, ... and the save ends at 11, 22, 33, ...
RECOVERY = dict(t_sr_dist=Fixed(2.0), r_sr=0.5)
DEGRADED = dict(t_fs_dist=Fixed(3.0), r_fs=0.5, **RECOVERY)
TIE_CONFIGS = {
    "stop_at_first_block_end": dict(fail_stop_times=(10.0, 54.0)),
    "stop_at_block_end": dict(fail_stop_times=(21.0,)),
    "slow_at_block_end": dict(fail_slow_times=(21.0,)),
    "stop_at_save_end": dict(fail_stop_times=(22.0,)),
    # The later fail-stop shows whether the interrupted save committed.
    "slow_at_save_end": dict(fail_slow_times=(11.0,), fail_stop_times=(15.0,)),
    "stop_inside_save": dict(fail_stop_times=(21.5,)),
    "slow_inside_save": dict(fail_slow_times=(10.5,)),
    "completion_at_trigger": dict(total_work=30.0),
    "completion_at_trigger_w_opt": dict(w_opt=1.5, total_work=45.0),
    "completion_after_save_w_opt": dict(w_opt=0.75, total_work=22.5, fail_stop_rate=0.01),
    "no_ckpt_cost_stop_at_trigger": dict(t_ckpt=0.0, fail_stop_times=(20.0,),
                                         fail_slow_rate=0.02),
    # The fail-slow wins the tie with the trigger and nothing accrues progress
    # until the healthy run resumes, so its trigger is due at once (dt = 0).
    "r_sr_zero_trigger_due_at_resume": dict(fail_slow_times=(10.0,), t_fs_dist=Fixed(3.0),
                                            t_sr_dist=Fixed(2.0)),
    "fixed_zero_repair": dict(fail_stop_rate=0.03, fail_slow_rate=0.02, t_r_dist=Fixed(0.0),
                              t_sr_dist=Fixed(1.0), t_fs_dist=Fixed(2.0), r_sr=0.5, r_fs=0.5),
    "diverging": dict(total_work=60.0, ckpt_interval=5.0, fail_stop_rate=0.3,
                      t_r_dist=Fixed(0.5), seed=35, watchdog_cycles=5),
    # A slow recovery after the fail-stop at 5 (or at 1), or a degraded
    # interval after the fail-slow at 5, that ends exactly at an arrival, the
    # trigger (progress 10) or completion: the general loop gives the tie to
    # the other event.
    "recovery_end_at_stop": dict(fail_stop_times=(5.0, 7.0), **RECOVERY),
    "recovery_end_at_slow": dict(fail_stop_times=(5.0,), fail_slow_times=(7.0,), **RECOVERY),
    "recovery_end_at_trigger": dict(fail_stop_times=(5.0,), t_sr_dist=Fixed(10.0), r_sr=0.5),
    "recovery_end_at_completion": dict(total_work=2.0, fail_stop_times=(1.0,),
                                       t_sr_dist=Fixed(4.0), r_sr=0.5),
    # 5.45 - 1.1 is 4.35, but 1.1 + 4.35 rounds below 5.45: a recovery ended
    # before the fail-stop would leave a sliver of healthy run behind it.
    "recovery_end_at_stop_rounded": dict(fail_stop_times=(1.1, 5.45),
                                         t_sr_dist=Fixed(5.45 - 1.1), r_sr=0.5),
    "degraded_end_at_stop": dict(fail_slow_times=(5.0,), fail_stop_times=(8.0,), **DEGRADED),
    "degraded_end_at_slow": dict(fail_slow_times=(5.0, 8.0), **DEGRADED),
    "degraded_end_at_trigger": dict(fail_slow_times=(5.0,), **{**DEGRADED,
                                                               "t_fs_dist": Fixed(5.0)}),
    "degraded_end_at_completion": dict(total_work=6.5, fail_slow_times=(5.0,), **DEGRADED),
    # A recovery whose work rate 0.5 * 5e-324 underflows to 0 still accrues
    # progress, so the trigger at progress 10 cuts it short.
    "recovery_work_rate_underflows": dict(w_opt=5e-324, total_work=100 * 5e-324,
                                          fail_stop_times=(5.0,), t_sr_dist=Fixed(12.0),
                                          r_sr=0.5),
    # Rate-0 recovery and degraded stages end by the save's rule: strictly
    # before both arrivals.
    "r_sr_zero": dict(fail_stop_rate=0.05, fail_slow_rate=0.03, t_sr_dist=Fixed(2.0),
                      t_fs_dist=Fixed(3.0), r_fs=0.5),
    "r_fs_zero": dict(fail_stop_rate=0.05, fail_slow_rate=0.03, t_sr_dist=Fixed(2.0),
                      t_fs_dist=Fixed(3.0), r_sr=0.5),
    "fixed_zero_repair_and_recovery": dict(fail_stop_rate=0.03, fail_slow_rate=0.03,
                                           t_r_dist=Fixed(0.0), t_sr_dist=Fixed(0.0),
                                           t_fs_dist=Fixed(0.0), r_sr=0.5, r_fs=0.5),
    # A failure or completion that ends a healthy run inside the block from
    # 11 to 21, or inside the save from 21 to 22: the fail-stop wins a tie
    # with the fail-slow, whose arrival is then due at once (dt = 0), and
    # either failure wins a tie with completion (work 14 at exposure 15); the
    # fail-slow's rate-0 degraded interval and repair show that it struck.
    "stop_and_slow_mid_block": dict(fail_stop_times=(15.0,), fail_slow_times=(15.0,),
                                    **DEGRADED),
    "stop_and_slow_inside_save": dict(fail_stop_times=(21.5,), fail_slow_times=(21.5,),
                                      **DEGRADED),
    "completion_at_stop": dict(total_work=14.0, fail_stop_times=(15.0,)),
    "completion_at_slow": dict(total_work=14.0, fail_slow_times=(15.0,), t_fs_dist=Fixed(3.0)),
    "completion_one_ulp_before_stop": dict(total_work=math.nextafter(14.0, 0),
                                           fail_stop_times=(15.0,)),
    # The trigger at progress 10 strikes during the slow recovery after the
    # fail-stop at 5 and queues a save from exposure 15 to 16: a fail-stop at
    # its end wins the tie and discards it; one ulp later the save commits
    # and the fail-stop rolls back only a sliver of the resumed recovery.
    "stop_at_queued_save_end": dict(fail_stop_times=(5.0, 16.0), t_sr_dist=Fixed(12.0),
                                    r_sr=0.5),
    "stop_one_ulp_after_queued_save_end": dict(fail_stop_times=(5.0, math.nextafter(16.0, INF)),
                                               t_sr_dist=Fixed(12.0), r_sr=0.5),
    # The same save with a fail-slow at its end or one ulp after it; the
    # fail-stop at 20, before the next trigger, shows whether the save committed.
    "slow_at_queued_save_end": dict(fail_stop_times=(5.0, 20.0), fail_slow_times=(16.0,),
                                    t_sr_dist=Fixed(12.0), r_sr=0.5, t_fs_dist=Fixed(3.0),
                                    r_fs=0.5),
    "slow_one_ulp_after_queued_save_end": dict(fail_stop_times=(5.0, 20.0),
                                               fail_slow_times=(math.nextafter(16.0, INF),),
                                               t_sr_dist=Fixed(12.0), r_sr=0.5,
                                               t_fs_dist=Fixed(3.0), r_fs=0.5),
}


@pytest.mark.parametrize("name", sorted(TIE_CONFIGS))
def test_run_matches_reference_on_ties(name):
    cfg = base_config(**{"ckpt_interval": 10.0, "t_ckpt": 1.0, "t_r_dist": Fixed(2.0),
                         **TIE_CONFIGS[name]})
    for k in range(4):
        assert run_record(_run, cfg, k) == run_record(reference_run, cfg, k)
        assert totals_record(cfg, k, record=False) == totals_record(cfg, k, record=True)


# The Poisson gaps and Exponential durations are scales times the blocks of
# standard exponentials on the run's stream; a LogNormal draws blocks of
# lognormals on the stream of its purpose.
EXPONENTIALS = dict(total_work=2000.0, fail_stop_rate=0.05, fail_slow_rate=0.02,
                    t_r_dist=Exponential(2.0), t_sr_dist=Exponential(1.0),
                    t_fs_dist=Exponential(3.0), r_sr=0.5, r_fs=0.5)
DRAW_PATH_CONFIGS = {
    "exponential_blocks": EXPONENTIALS,
    "lognormal_t_fs_only": dict(EXPONENTIALS, fail_slow_rate=0.05,
                                t_fs_dist=LogNormal(3.0, 0.5)),
}


def lognormal_calls(monkeypatch) -> list:
    """The ``size`` of every ``lognormal`` call on a generator made from now on."""
    calls = []

    class Recording(np.random.Generator):
        def lognormal(self, *args, size=None):
            calls.append(size)
            return super().lognormal(*args, size=size)

    monkeypatch.setattr(np.random, "Generator", Recording)
    return calls


@pytest.mark.parametrize("name", sorted(DRAW_PATH_CONFIGS))
def test_run_matches_reference_on_both_draw_paths(name, monkeypatch):
    cfg = base_config(ckpt_interval=10.0, t_ckpt=1.0, **DRAW_PATH_CONFIGS[name])
    for k in range(4):
        with monkeypatch.context() as m:
            calls = lognormal_calls(m)
            record = run_record(_run, cfg, k)
        assert record == run_record(reference_run, cfg, k)
        stages = record[2]
        # A failure draws its arrival and at least a repair and a slow
        # recovery: more than three blocks, so the stream refills mid-run.
        assert 2 + 3 * stages.count(REPAIR) > 3 * _BLOCK
        assert FAIL_SLOW_DEGRADED in stages
        if isinstance(cfg.t_fs_dist, LogNormal):
            # Blocks of t_fs draws, and the stream refills mid-run.
            assert len(calls) > 1 and set(calls) == {_BLOCK}
        else:
            assert calls == []


@pytest.mark.parametrize("block", [1, 7])
def test_no_result_depends_on_the_block_size(block, monkeypatch):
    monkeypatch.setattr("torkit.simulator._BLOCK", block)
    configs = [base_config(ckpt_interval=10.0, t_ckpt=1.0, **c)
               for c in DRAW_PATH_CONFIGS.values()]
    configs += [golden_config(name) for name in ("fail_stop", "fail_slow", "mixed")]
    configs.append(base_config(ckpt_interval=10.0, t_ckpt=1.0, **dict(
        EXPONENTIALS, t_r_dist=LogNormal(2.0, 1.0), t_sr_dist=LogNormal(1.0, 0.5),
        t_fs_dist=LogNormal(3.0, 0.5))))
    for cfg in configs:
        for k in range(3):
            assert run_record(_run, cfg, k) == run_record(reference_run, cfg, k)


def test_equal_lognormal_purposes_draw_different_values():
    seedseq = replication_seedseq(7, 0)
    d = LogNormal(2.0, 0.5)
    draws = [[draw() for _ in range(2 * _BLOCK + 1)]
             for draw in (_duration(d, seedseq, purpose, exp=None) for purpose in (1, 2, 3))]
    assert len(set(chain.from_iterable(draws))) == 3 * (2 * _BLOCK + 1)


def fail_stop_instants(res: SimResult) -> list[float]:
    """The exposed time at each fail-stop: the summed duration of every
    non-Repair segment before each Repair."""
    instants, exposure = [], 0.0
    for d, stage in zip(res.timeline.durations, res.timeline.stages):
        if stage is REPAIR:
            instants.append(exposure)
        else:
            exposure += d
    return instants


def test_a_lognormal_repair_leaves_the_arrivals_alone():
    lognormal = base_config(total_work=2000.0, ckpt_interval=10.0, t_ckpt=1.0,
                            fail_stop_rate=0.05, t_r_dist=LogNormal(3.0, 0.5),
                            t_sr_dist=LogNormal(2.0, 0.5), r_sr=0.5, seed=19)
    fixed = replace(lognormal, t_r_dist=Fixed(3.0))
    for k in range(3):
        seedseq = replication_seedseq(lognormal.seed, k)
        instants = fail_stop_instants(_run(lognormal, seedseq))
        assert len(instants) > _BLOCK
        assert instants == fail_stop_instants(_run(fixed, seedseq))


def test_purpose_streams_keep_the_mean_tor():
    """400 replications drawn on the purpose streams against 400 drawn the old
    way, every draw a scalar call on the run's one generator. The old way
    runs on other seeds, so the two means are independent and their standard
    errors add in quadrature."""
    cfg = base_config(total_work=400.0, ckpt_interval=12.0, t_ckpt=1.0, fail_stop_rate=0.03,
                      fail_slow_rate=0.02, t_r_dist=LogNormal(4.0, 1.0),
                      t_sr_dist=LogNormal(2.0, 0.5), t_fs_dist=LogNormal(5.0, 0.8),
                      r_sr=0.5, r_fs=0.3, seed=61)
    n = 400
    new = [o.tor for o in monte_carlo(cfg, n).outcomes]
    old = [column_totals(k, reference_run(cfg, replication_seedseq(cfg.seed + 1, k),
                                          one_generator))[1] for k in range(n)]
    assert len(new) == n
    (m_new, v_new), (m_old, v_old) = [(np.mean(x), np.var(x, ddof=1) / n) for x in (new, old)]
    se = math.sqrt(v_new + v_old)
    assert abs(m_new - m_old) <= 3 * se, (m_new, m_old, se)


def test_numpy_stream_identities():
    """The identities the purpose streams rest on: a block of lognormals equals
    the same scalar calls, and Philox with counter word 2 set to ``j`` is the
    stream jumped ``j`` times."""
    def fail(what):
        pytest.fail(f"a NumPy change broke the purpose streams (NumPy {np.__version__}): "
                    f"{what}", pytrace=False)

    for k in range(3):
        seedseq = replication_seedseq(2**63 + 17, k)
        for j in (1, 2, 3):
            counter = np.random.Philox(seedseq, counter=[0, 0, j, 0])
            jumped = np.random.Philox(seedseq).jumped(j)
            if counter.random_raw(4 * _BLOCK).tolist() != jumped.random_raw(4 * _BLOCK).tolist():
                fail(f"counter [0, 0, {j}, 0] is not jumped({j}), replication {k}")
        for mean, sigma in ((0.0, 1.0), (math.log(7.0), 0.8), (math.log(1e300), 50.0)):
            blocks, scalar = (np.random.Generator(np.random.Philox(seedseq)) for _ in range(2))
            got = list(chain.from_iterable(blocks.lognormal(mean, sigma, _BLOCK).tolist()
                                           for _ in range(3)))
            want = [scalar.lognormal(mean, sigma) for _ in range(3 * _BLOCK)]
            if [x.hex() for x in got] != [x.hex() for x in want]:
                fail(f"lognormal({mean!r}, {sigma!r}) blocks differ from scalar calls, "
                     f"replication {k}")


@pytest.mark.parametrize("k", range(3))
def test_numpy_block_draws_equal_scalar_draws(k):
    """The identity the draws rest on: on one replication's generator, scalar
    ``exponential(s)`` calls equal ``s`` times standard exponentials drawn in
    blocks of ``_BLOCK`` or one at a time, bit for bit."""
    def generator():
        return np.random.Generator(np.random.Philox(replication_seedseq(2**63 + 17, k)))

    scalar, blocks, singles = generator(), generator(), generator()
    stream = chain.from_iterable(blocks.standard_exponential(_BLOCK).tolist() for _ in count())
    n = 16 * _BLOCK + 7  # the blocks straddle the scales
    for s in (0.0, 5e-324, 1e-300, 1e-150, 1e-9, 1 / 3, 1.0, 2.5, 1e9, 1e150, 1e300, 1e308):
        want = [scalar.exponential(s).hex() for _ in range(n)]
        for way, got in (("blocks", [(s * next(stream)).hex() for _ in range(n)]),
                         ("single", [(s * singles.standard_exponential()).hex()
                                     for _ in range(n)])):
            if got != want:
                i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
                pytest.fail(f"a NumPy change broke block-draw bit identity (NumPy "
                            f"{np.__version__}): scale {s!r}, draw {i} in {way}: "
                            f"{got[i]} != exponential's {want[i]}", pytrace=False)


# Replication 0 of each draws a repair beyond the float range: about one
# Exponential(1e308) draw in six overflows, and about one LogNormal(1e300, 50)
# draw in three.
NON_FINITE_DRAWS = {
    "infinite_repair": Exponential(1e308),
    "lognormal_overflow": LogNormal(1e300, 50.0),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_DRAWS))
def test_run_rejects_non_finite_draw(name):
    cfg = base_config(ckpt_interval=10.0, t_ckpt=1.0, fail_stop_rate=0.05,
                      t_r_dist=NON_FINITE_DRAWS[name], t_sr_dist=Fixed(1.0), r_sr=0.5, seed=3)
    with pytest.raises(ValidationError, match="drew a duration beyond the float range$"):
        _run(cfg, replication_seedseq(cfg.seed, 0))


def random_reference_config(rng: np.random.Generator, i: int) -> SimConfig:
    """Half the configs inject their failures at the block ends, save ends
    and save midpoints of an uninterrupted run, so that ties are common; a
    quarter of the totals end exactly at a trigger; every tenth config has
    frequent fail-stops and a short watchdog, so many of those diverge."""
    ckpt_interval = float(rng.choice([2.0, 4.0, 5.0, 10.0, rng.uniform(1, 20)]))
    t_ckpt = float(rng.choice([0.0, 0.5, 1.0, rng.uniform(0, 2)]))
    w_opt = float(rng.choice([1.0, 0.5, 1.5, rng.uniform(0.5, 2)]))
    cycle = ckpt_interval + t_ckpt

    def dist():
        pick = rng.integers(0, 4)
        if pick == 0:
            return Fixed(0.0)
        if pick == 1:
            return Fixed(float(rng.choice([1.0, 2.0, rng.uniform(0, 5)])))
        if pick == 2:
            return Exponential(float(rng.uniform(0.5, 5)))
        return LogNormal(float(rng.uniform(0.5, 5)), 0.5)

    def ratio():
        return (0.0, 1.0, float(rng.uniform(0, 1)))[rng.integers(0, 3)]

    def injected():
        offsets = (0.0, t_ckpt, t_ckpt / 2)
        return [k * cycle + ckpt_interval + offsets[rng.integers(0, 3)]
                for k in rng.integers(0, 12, size=rng.integers(0, 4))]

    if rng.random() < 0.25:
        total_work = float(rng.integers(1, 20)) * ckpt_interval * w_opt
    else:
        total_work = float(rng.uniform(20, 200))
    failures: dict = {}
    if i % 2:
        failures.update(fail_stop_times=injected(), fail_slow_times=injected())
    elif i % 5 == 0:
        failures.update(fail_stop_rate=float(rng.uniform(0.2, 1.0)),
                        watchdog_cycles=int(rng.integers(1, 6)))
    else:
        failures.update(fail_stop_rate=float(rng.uniform(0, 0.05)),
                        fail_slow_rate=float(rng.choice([0.0, rng.uniform(0, 0.05)])))
    return base_config(
        w_opt=w_opt, total_work=total_work, ckpt_interval=ckpt_interval, t_ckpt=t_ckpt,
        t_r_dist=dist(), t_sr_dist=dist(), t_fs_dist=dist(), r_sr=ratio(), r_fs=ratio(),
        seed=int(rng.integers(0, 2**63)), **failures,
    )


def test_run_matches_reference_on_random_configs():
    rng = np.random.default_rng(53)
    diverged = 0
    for i in range(600):
        cfg = random_reference_config(rng, i)
        for k in range(2):
            record = run_record(_run, cfg, k)
            assert record == run_record(reference_run, cfg, k), (i, k, cfg)
            assert totals_record(cfg, k, record=False) == totals_record(cfg, k, record=True), \
                (i, k, cfg)
            diverged += record[0] == "diverged"
    assert diverged > 50
