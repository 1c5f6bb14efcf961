"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_fail_slow, random_fail_stop
from torkit import (
    FailStopPeriod,
    FailSlowPeriod,
    FailureMixture,
    SimConfig,
    mtbf_fail_slow,
    mtbf_fail_stop,
    parse_trace,
    period_to_timeline,
    report,
    simulate,
    tor_fail_slow,
    tor_fail_stop,
    tor_from_mtbf_fail_slow,
    tor_from_mtbf_fail_stop,
    tor_mixture_time_composite,
    tor_mixture_weighted,
    tor_of_timeline,
    trace_to_timeline,
)
from torkit.analytic import mixture_concat_timeline
from torkit.simulator import (
    Exponential,
    Fixed,
    LogNormal,
    config_from_period,
    realized_period_tor_check,
)
from torkit.timeline import concat
from torkit.trace import estimate_mtbf, write_jsonl
import io


def _pass(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


def test_criterion_1_closed_form_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        p = random_fail_stop(rng)
        worst = max(worst, abs(tor_fail_stop(p) - tor_of_timeline(period_to_timeline(p))))
        q = random_fail_slow(rng)
        worst = max(worst, abs(tor_fail_slow(q) - tor_of_timeline(period_to_timeline(q))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    _pass(1, f"10,000 fail-stop + 10,000 fail-slow instances, "
             f"max |closed form - timeline| = {worst:.3e}, {elapsed:.2f} s")


def test_criterion_2_worked_values(worked_fail_stop, worked_fail_slow):
    a = tor_fail_stop(worked_fail_stop)
    b = tor_fail_slow(worked_fail_slow)
    assert abs(a - 91 / 110) <= 1e-12
    assert abs(b - 95 / 110) <= 1e-12
    _pass(2, f"fail-stop {a:.15f} == 91/110, fail-slow {b:.15f} == 95/110")


def test_criterion_3_mtbf_identities():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(10_000):
        p = random_fail_stop(rng)
        worst = max(worst, abs(
            tor_from_mtbf_fail_stop(mtbf_fail_stop(p), p) - tor_fail_stop(p)
        ))
        q = random_fail_slow(rng)
        worst = max(worst, abs(
            tor_from_mtbf_fail_slow(mtbf_fail_slow(q), q) - tor_fail_slow(q)
        ))
    assert worst <= 1e-12
    _pass(3, f"MTBF forms vs direct forms on 10,000 instance pairs, "
             f"max delta = {worst:.3e}")


def test_criterion_4_simulator_work_conservation():
    rng = np.random.default_rng(1004)
    worst_work = 0.0
    worst_tor = 0.0
    for _ in range(1000):
        cfg = SimConfig(
            w_opt=float(rng.uniform(0.5, 2.0)),
            total_work=float(rng.uniform(50, 500)),
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
        worst_work = max(
            worst_work, abs(res.t_opt * cfg.w_opt - cfg.total_work) / cfg.total_work
        )
        worst_tor = max(worst_tor, abs(res.tor - tor_of_timeline(res.timeline)))
    assert worst_work <= 1e-9
    assert worst_tor <= 1e-12
    _pass(4, f"1,000 stochastic configs, max relative work error = {worst_work:.3e}, "
             f"max |tor - timeline tor| = {worst_tor:.3e}")


def test_criterion_5_deterministic_equivalence(worked_fail_stop, worked_fail_slow):
    details = []
    for p, closed in (
        (worked_fail_stop, tor_fail_stop(worked_fail_stop)),
        (worked_fail_slow, tor_fail_slow(worked_fail_slow)),
    ):
        cfg = config_from_period(p, periods=15, seed=11, deterministic=True)
        res = simulate(cfg)
        # The opening cycle has no leading slow recovery; it is warm-up.
        steady = list(res.periods[1:])
        assert len(steady) >= 10
        num = math.fsum(q.opt_time for q in steady)
        den = math.fsum(q.duration for q in steady)
        simulated = num / den
        assert abs(simulated - closed) <= 1e-9
        details.append(f"{type(p).__name__}: {len(steady)} identical periods, "
                       f"delta {abs(simulated - closed):.3e}")
    _pass(5, "; ".join(details))


def test_criterion_6_stochastic_convergence(worked_fail_stop, worked_fail_slow):
    start = time.perf_counter()
    details = []
    for p, seed in ((worked_fail_stop, 601), (worked_fail_slow, 602)):
        cfg = config_from_period(p, periods=12_000, seed=seed)
        res = simulate(cfg)
        n = len(res.periods)
        assert n >= 10_000
        check = realized_period_tor_check(res)
        # Ratio-estimator standard error via the delta method on
        # (per-period optimal time, per-period duration) pairs.
        x = np.array([q.opt_time for q in res.periods])
        y = np.array([q.duration for q in res.periods])
        se = float(np.std(x - check * y, ddof=1)) / (float(np.mean(y)) * math.sqrt(n))
        delta = abs(res.tor - check)
        assert delta <= 3 * se
        details.append(f"{type(p).__name__}: {n} periods, |tor - check| = "
                       f"{delta:.3e} <= 3*SE = {3 * se:.3e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(6, "; ".join(details) + f", {elapsed:.2f} s")


def test_criterion_7_trace_round_trip(worked_fail_stop, worked_fail_slow):
    # simulate -> JSONL -> trace analysis reproduces the simulation's TOR
    cfg = config_from_period(worked_fail_stop, periods=100, seed=71)
    res = simulate(cfg)
    buf = io.StringIO()
    write_jsonl(res.timeline, buf)
    rep = report(parse_trace(buf.getvalue()))
    tor_delta = abs(rep["tor"] - res.tor)
    assert tor_delta <= 1e-12

    # whole-period traces recover the model-module MTBF sums exactly
    stop_tl = concat([period_to_timeline(worked_fail_stop)] * 4)
    slow_tl = concat([period_to_timeline(worked_fail_slow)] * 4)
    buf = io.StringIO()
    write_jsonl(stop_tl, buf)
    stop_mtbf, _ = estimate_mtbf(parse_trace(buf.getvalue()))
    buf = io.StringIO()
    write_jsonl(slow_tl, buf)
    _, slow_mtbf = estimate_mtbf(parse_trace(buf.getvalue()))
    assert stop_mtbf == mtbf_fail_stop(worked_fail_stop)
    assert slow_mtbf == mtbf_fail_slow(worked_fail_slow)
    _pass(7, f"simulated-trace TOR delta = {tor_delta:.3e}; "
             f"MTBF estimates {stop_mtbf} and {slow_mtbf} match model sums exactly")


def test_criterion_8_monotonicity():
    rng = np.random.default_rng(1008)
    for _ in range(1000):
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
        assert tor_fail_stop(replace(p, t_r=1.1 * p.t_r)) < base
        assert tor_fail_stop(replace(p, t_rb=1.1 * p.t_rb)) < base
        assert tor_fail_stop(replace(p, n_ckpt=p.n_ckpt + 1)) < base
        assert tor_fail_stop(replace(p, r_sr=min(1.0, p.r_sr + 0.1))) > base
    _pass(8, "1,000 baselines: TOR strictly falls under +10% t_r, +10% t_rb, "
             "+1 n_ckpt, and strictly rises under +0.1 r_sr")


def test_criterion_9_mixture_rules(worked_fail_stop, worked_fail_slow):
    equal = FailureMixture(((worked_fail_stop, 1.0), (worked_fail_slow, 1.0)))
    skewed = FailureMixture(((worked_fail_stop, 3.0), (worked_fail_slow, 1.0)))
    w_equal = tor_mixture_weighted(equal)
    w_skewed = tor_mixture_weighted(skewed)
    assert abs(w_equal - (91 / 110 + 95 / 110) / 2) <= 1e-9
    assert abs(w_skewed - (3 * (91 / 110) + 95 / 110) / 4) <= 1e-9
    comp_delta = abs(
        tor_mixture_time_composite(skewed)
        - tor_of_timeline(mixture_concat_timeline(skewed))
    )
    assert comp_delta <= 1e-12
    _pass(9, f"weighted means {w_equal:.6f} / {w_skewed:.6f} match hand values; "
             f"time-composite vs concat delta = {comp_delta:.3e}")
