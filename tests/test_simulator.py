import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import random_fail_slow, random_fail_stop
from torkit import (
    DivergedError,
    FailSlowPeriod,
    FailStopPeriod,
    RateTimeline,
    SimConfig,
    StageKind,
    ValidationError,
    monte_carlo,
    period_to_timeline,
    realized_period_tor_check,
    simulate,
    tor_fail_slow,
    tor_fail_stop,
    tor_of_timeline,
)
from torkit.periods import FAIL_SLOW, FAIL_STOP, MIXED, StageTotals, mean_periods, period_records
from torkit.simulator import (
    Exponential,
    Fixed,
    LogNormal,
    config_from_period,
    dist_from_dict,
    dist_to_dict,
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
            assert dist_from_dict("d", dist_to_dict(d)) == d

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            dist_from_dict("d", {"kind": "weibull", "shape": 2})

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            dist_from_dict("d", {"kind": "lognormal", "median": 1})

    def test_lognormal_median(self):
        rng = np.random.default_rng(5)
        d = LogNormal(7.0, 0.8)
        samples = sorted(d.sample(rng) for _ in range(4001))
        assert samples[2000] == pytest.approx(7.0, rel=0.1)


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


class TestRealizedCheck:
    def test_failure_free_is_one(self):
        assert realized_period_tor_check(simulate(base_config())) == 1.0

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
        with pytest.raises(DivergedError):
            monte_carlo(cfg, 3)

    def test_replications_validated(self):
        with pytest.raises(ValidationError):
            monte_carlo(base_config(), 0)


# Replication 2 of ``monte_carlo(cfg, 3)``: (tor, t_obs, t_opt) as float.hex and the
# complete-period count, recorded from the simulator before replications k >= 1
# stopped building timelines.
GOLDEN_REPLICATION_2 = {
    "fail_stop": ("0x1.5909ccf289f84p-1", "0x1.28c7565ef002cp+9", "0x1.8ffffffffffffp+8", 18),
    "fail_slow": ("0x1.96be9af2d71e9p-1", "0x1.f7829787c9770p+8", "0x1.9000000000000p+8", 10),
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


def outcome_of_simulate(cfg: SimConfig, k: int) -> tuple:
    res = simulate(cfg, _seedseq=replication_seedseq(cfg.seed, k))
    return (k, res.tor, res.t_obs, res.t_opt, len(res.periods))


def astuple(o) -> tuple:
    return (o.index, o.tor, o.t_obs, o.t_opt, o.n_periods)


class TestTotalsSink:
    """Replications k >= 1 of monte_carlo build no timeline; their totals
    must equal those of simulate bit for bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPLICATION_2))
    def test_golden_values(self, name):
        cfg = golden_config(name)
        summary = monte_carlo(cfg, 3)
        assert summary.completed == 3
        for o in summary.outcomes:
            assert astuple(o) == outcome_of_simulate(cfg, o.index)
        o = summary.outcomes[2]
        assert (o.tor.hex(), o.t_obs.hex(), o.t_opt.hex(), o.n_periods) \
            == GOLDEN_REPLICATION_2[name]

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
            summary = monte_carlo(cfg, 4)
            assert [astuple(o) for o in summary.outcomes] \
                == [outcome_of_simulate(cfg, k) for k in range(4)]


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
        for f in fields(StageTotals):
            if f.name != "n_ckpt":
                assert getattr(totals, f.name) == getattr(record, f.name), f.name
        # The two derived figures agree bit for bit.
        assert totals.tor.hex() == record.tor.hex()
        assert totals.mtbf.hex() == record.mtbf.hex()
