"""Scale invariance: an exact oracle for the whole event loop.

Scaling every time of a config by k (``total_work``, ``ckpt_interval``,
``t_ckpt``, each duration's scale and any explicit failure times) and both
failure rates by 1/k stretches every replication's run by k, so each TOR is
unchanged. For k a power of 2 every scaled number is exact, and so is each
TOR; for other k, or a ``LogNormal`` duration, each TOR holds to rounding.
"""
from dataclasses import replace

import numpy as np
import pytest

from torkit import DivergedError, Exponential, Fixed, LogNormal, SimConfig, monte_carlo

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

REPLICATIONS = 3


def scaled(cfg: SimConfig, k: float) -> SimConfig:
    def dist(d):
        if isinstance(d, Fixed):
            return Fixed(d.value * k)
        if isinstance(d, Exponential):
            return Exponential(d.mean * k)
        return LogNormal(d.median * k, d.sigma)

    def times(ts):
        return None if ts is None else [t * k for t in ts]

    return replace(
        cfg,
        total_work=cfg.total_work * k, ckpt_interval=cfg.ckpt_interval * k,
        t_ckpt=cfg.t_ckpt * k,
        fail_stop_rate=cfg.fail_stop_rate / k, fail_slow_rate=cfg.fail_slow_rate / k,
        t_r_dist=dist(cfg.t_r_dist), t_sr_dist=dist(cfg.t_sr_dist), t_fs_dist=dist(cfg.t_fs_dist),
        fail_stop_times=times(cfg.fail_stop_times), fail_slow_times=times(cfg.fail_slow_times),
    )


def replication_tors(cfg: SimConfig):
    """Each finished replication's (index, TOR), or the error of a run where all diverge."""
    try:
        return [(o.index, o.tor) for o in monte_carlo(cfg, REPLICATIONS).outcomes]
    except DivergedError as e:
        return str(e)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def durations(lo):
    return st.one_of(finite(lo, 10.0).map(Fixed), finite(max(lo, 0.01), 10.0).map(Exponential))


failure_times = st.one_of(st.none(), st.lists(finite(0.0, 1000.0), max_size=6))


@st.composite
def configs(draw):
    return SimConfig(
        w_opt=draw(finite(0.25, 4.0)),
        total_work=draw(finite(10.0, 500.0)),
        ckpt_interval=draw(finite(1.0, 50.0)),
        t_ckpt=draw(finite(0.0, 5.0)),
        fail_stop_rate=draw(finite(0.0, 0.02)),
        fail_slow_rate=draw(finite(0.0, 0.02)),
        t_r_dist=draw(durations(0.0)),
        t_sr_dist=draw(durations(0.0)),
        t_fs_dist=draw(durations(0.0)),
        r_sr=draw(finite(0.0, 1.0)),
        r_fs=draw(finite(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
        fail_stop_times=draw(failure_times),
        fail_slow_times=draw(failure_times),
    )


@hypothesis.settings(max_examples=60, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(cfg=configs(), j=st.integers(-10, 10))
def test_power_of_two_scaling_leaves_every_tor(cfg, j):
    assert replication_tors(scaled(cfg, 2.0**j)) == replication_tors(cfg)


def drawn_dist(rng: np.random.Generator, kinds):
    kind = kinds[rng.integers(len(kinds))]
    if kind is LogNormal:
        return LogNormal(float(rng.uniform(0.5, 10.0)), float(rng.uniform(0.1, 1.0)))
    if kind is Fixed:
        return Fixed(float(rng.uniform(0.0, 10.0)))
    return Exponential(float(rng.uniform(0.01, 10.0)))


def drawn_configs(n: int, seed: int, lognormal: bool) -> list[SimConfig]:
    """Configs with both failure kinds, drawn from a fixed seed; with
    ``lognormal``, the repair time is ``LogNormal`` and so may be any other duration."""
    rng = np.random.default_rng(seed)
    kinds = (Fixed, Exponential, LogNormal) if lognormal else (Fixed, Exponential)
    return [SimConfig(
        w_opt=float(rng.uniform(0.25, 4.0)), total_work=float(rng.uniform(10.0, 500.0)),
        ckpt_interval=float(rng.uniform(1.0, 50.0)), t_ckpt=float(rng.uniform(0.0, 5.0)),
        fail_stop_rate=float(rng.uniform(0.001, 0.02)),
        fail_slow_rate=float(rng.uniform(0.001, 0.02)),
        t_r_dist=drawn_dist(rng, (LogNormal,) if lognormal else kinds),
        t_sr_dist=drawn_dist(rng, kinds), t_fs_dist=drawn_dist(rng, kinds),
        r_sr=float(rng.uniform(0.0, 1.0)), r_fs=float(rng.uniform(0.0, 1.0)),
        seed=int(rng.integers(2**32)),
    ) for _ in range(n)]


@pytest.mark.parametrize("lognormal, k", [
    (True, 2.0), (True, 3.0), (True, 0.1), (False, 3.0), (False, 0.1),
])
def test_scaling_leaves_every_tor_to_rounding(lognormal, k):
    for cfg in drawn_configs(20, seed=5, lognormal=lognormal):
        base, got = replication_tors(cfg), replication_tors(scaled(cfg, k))
        assert isinstance(base, list) and [i for i, _ in got] == [i for i, _ in base]
        for (_, want), (_, tor) in zip(base, got):
            assert abs(tor - want) <= 1e-12 * want
