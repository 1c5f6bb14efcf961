import numpy as np
import pytest

import torkit.simulator
from torkit import FailSlowPeriod, FailStopPeriod, FailureMixture, RateTimeline, ValidationError
from torkit.analytic import period_to_timeline


def random_fail_stop(rng: np.random.Generator, scale: float = 100.0) -> FailStopPeriod:
    return FailStopPeriod(
        t_sr=float(rng.uniform(0, 0.1 * scale)),
        r_sr=float(rng.uniform(0, 1)),
        t_h=float(rng.uniform(0.1, scale)),
        n_ckpt=int(rng.integers(0, 10)),
        t_ckpt=float(rng.uniform(0, 0.05 * scale)),
        t_rb=float(rng.uniform(0, 0.2 * scale)),
        t_r=float(rng.uniform(0, 0.3 * scale)),
    )


def random_fail_slow(rng: np.random.Generator, scale: float = 100.0) -> FailSlowPeriod:
    return FailSlowPeriod(
        t_sr=float(rng.uniform(0, 0.1 * scale)),
        r_sr=float(rng.uniform(0, 1)),
        t_h=float(rng.uniform(0.1, scale)),
        n_ckpt=int(rng.integers(0, 10)),
        t_ckpt=float(rng.uniform(0, 0.05 * scale)),
        t_fs=float(rng.uniform(0, 0.3 * scale)),
        r_fs=float(rng.uniform(0, 1)),
        t_r=float(rng.uniform(0, 0.3 * scale)),
    )


def counted_runs(monkeypatch) -> list:
    """The (replication index, record) of every simulator run made from now on."""
    calls = []
    run = torkit.simulator._run

    def counting_run(cfg, seedseq, record=True):
        calls.append((seedseq.spawn_key[0] if seedseq.spawn_key else None, record))
        return run(cfg, seedseq, record)

    monkeypatch.setattr(torkit.simulator, "_run", counting_run)
    return calls


def concat(timelines) -> RateTimeline:
    """Append timelines in order. Optimal and observed time are additive."""
    durations, rates, stages = [], [], []
    for tl in timelines:
        durations += tl.durations
        rates += tl.rates
        stages += tl.stages
    return RateTimeline._of_columns(durations, rates, stages)


def mixture_concat_timeline(m: FailureMixture) -> RateTimeline:
    """Concatenation of each component's timeline, replicated by its integer
    weight: the oracle of the time-composite mixture rule. Only valid when all
    weights are integral."""
    tls = []
    for c in m.mixture:
        if not float(c.weight).is_integer():
            raise ValidationError("concat replication needs integer weights")
        tls.extend([period_to_timeline(c.period)] * int(c.weight))
    return concat(tls)


@pytest.fixture
def worked_fail_stop() -> FailStopPeriod:
    # TOR 91/110, MTBF 100
    return FailStopPeriod(t_sr=2, r_sr=0.5, t_h=90, n_ckpt=3, t_ckpt=1, t_rb=5, t_r=10)


@pytest.fixture
def worked_fail_slow() -> FailSlowPeriod:
    # TOR 95/110, MTBF 95
    return FailSlowPeriod(t_sr=2, r_sr=0.5, t_h=90, n_ckpt=3, t_ckpt=1, t_fs=10, r_fs=0.4, t_r=5)
