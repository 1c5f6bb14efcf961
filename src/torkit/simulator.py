"""Discrete-event simulation of a training run under stochastic failures.

The run is driven by work conservation: a fixed total workload accrues at
rate r(t) * w_opt and the run ends the instant the contributed work reaches
the total. Fail-stop failures discard everything since the last completed
checkpoint (that span is re-labeled RollbackWaste at rate 0); fail-slow
failures degrade the rate for a while before repair.

Randomness comes from a counter-based generator (numpy Philox) keyed by
``SeedSequence(seed)``; Monte-Carlo replication ``k`` uses
``SeedSequence(seed, spawn_key=(k,))``. Results are bit-reproducible for a
given config on a given implementation.

One event loop (``_run``) feeds one of two sinks. :func:`simulate` uses the
timeline sink, which builds the run's slotted ``Segment``s through the
package's unvalidated constructor. :func:`monte_carlo` uses it only for its
first finished replication (``first_result``, the only one that carries a
timeline); later replications use the totals sink, which keeps durations and
the duration * rate products that survive rollback. Their
``ReplicationOutcome`` totals are bit-identical to those of ``simulate``.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .errors import DivergedError, ValidationError
from .model import (
    FAIL_STOP,
    FailSlowPeriod,
    FailStopPeriod,
    RateTimeline,
    Segment,
    StageKind,
    StageTotals,
    _check_count,
    _check_number,
    _check_ratio,
    _check_time,
    _segment,
)
from .periods import MIXED, mean_periods, period_records
from .timeline import integrate_optimal_time, observed_time

INF = math.inf
# Module names for the members the event loop uses: an attribute lookup on
# the enum class is an order of magnitude slower than a global.
HEALTHY_RUN = StageKind.HEALTHY_RUN
SLOW_RECOVERY = StageKind.SLOW_RECOVERY
CHECKPOINT_SAVE = StageKind.CHECKPOINT_SAVE
ROLLBACK_WASTE = StageKind.ROLLBACK_WASTE
FAIL_SLOW_DEGRADED = StageKind.FAIL_SLOW_DEGRADED
REPAIR = StageKind.REPAIR


# ---------------------------------------------------------------------------
# duration distributions

@dataclass(frozen=True)
class Fixed:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _check_time("value", self.value))

    def sample(self, rng: np.random.Generator) -> float:
        return self.value


@dataclass(frozen=True)
class Exponential:
    mean_value: float

    def __post_init__(self):
        object.__setattr__(self, "mean_value", _check_time("mean", self.mean_value))

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_value))


@dataclass(frozen=True)
class LogNormal:
    median: float
    sigma: float

    def __post_init__(self):
        median = _check_number("median", self.median)
        sigma = _check_number("sigma", self.sigma)
        if median <= 0 or not math.isfinite(median):
            raise ValidationError(f"median must be positive, got {median!r}")
        if sigma < 0 or not math.isfinite(sigma):
            raise ValidationError(f"sigma must be non-negative, got {sigma!r}")
        object.__setattr__(self, "median", median)
        object.__setattr__(self, "sigma", sigma)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(math.log(self.median), self.sigma))


DurationDist = Union[Fixed, Exponential, LogNormal]


def dist_from_dict(name: str, d: dict) -> DurationDist:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValidationError(f"{name}: expected an object with a 'kind' field, got {d!r}")
    kind = d["kind"]
    try:
        if kind == "fixed":
            return Fixed(d["value"])
        if kind == "exponential":
            return Exponential(d["mean"])
        if kind == "lognormal":
            return LogNormal(d["median"], d["sigma"])
    except KeyError as e:
        raise ValidationError(f"{name}: missing field {e.args[0]!r} for kind {kind!r}") from None
    except ValidationError as e:
        raise ValidationError(f"{name}: {e}") from None
    raise ValidationError(f"{name}: unknown distribution kind {kind!r}")


def dist_to_dict(d: DurationDist) -> dict:
    if isinstance(d, Fixed):
        return {"kind": "fixed", "value": d.value}
    if isinstance(d, Exponential):
        return {"kind": "exponential", "mean": d.mean_value}
    return {"kind": "lognormal", "median": d.median, "sigma": d.sigma}


# ---------------------------------------------------------------------------
# config / result

@dataclass(frozen=True)
class SimConfig:
    """Stochastic training-run description.

    ``fail_stop_rate`` / ``fail_slow_rate`` are Poisson arrival rates per
    second of exposed (non-repair) time. ``fail_stop_times`` /
    ``fail_slow_times`` optionally replace the Poisson stream with explicit
    arrival instants on the exposed-time axis (deterministic injection).
    ``ckpt_interval`` is measured in progress-accruing time (rate > 0), so
    downtime does not consume the checkpoint budget.
    """

    w_opt: float
    total_work: float
    ckpt_interval: float
    t_ckpt: float
    fail_stop_rate: float
    fail_slow_rate: float
    t_r_dist: DurationDist
    t_sr_dist: DurationDist
    t_fs_dist: DurationDist
    r_sr: float
    r_fs: float
    seed: int
    fail_stop_times: tuple[float, ...] | None = None
    fail_slow_times: tuple[float, ...] | None = None
    watchdog_cycles: int = 1000

    def __post_init__(self):
        for name in ("w_opt", "total_work", "ckpt_interval"):
            v = _check_number(name, getattr(self, name))
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be positive, got {v!r}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "t_ckpt", _check_time("t_ckpt", self.t_ckpt))
        for name in ("fail_stop_rate", "fail_slow_rate"):
            v = _check_number(name, getattr(self, name))
            if not math.isfinite(v) or v < 0:
                raise ValidationError(f"{name} must be finite and non-negative, got {v!r}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "r_sr", _check_ratio("r_sr", self.r_sr))
        object.__setattr__(self, "r_fs", _check_ratio("r_fs", self.r_fs))
        seed = self.seed
        if isinstance(seed, bool) or not (isinstance(seed, int) and 0 <= seed < 2**64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        for name in ("fail_stop_times", "fail_slow_times"):
            times = getattr(self, name)
            if times is None:
                continue
            if not isinstance(times, (list, tuple)):
                raise ValidationError(f"{name} must be a list of times, got {times!r}")
            times = tuple(sorted(_check_time(f"{name} entry", t) for t in times))
            object.__setattr__(self, name, times)
        if _check_count("watchdog_cycles", self.watchdog_cycles) < 1:
            raise ValidationError("watchdog_cycles must be at least 1")

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        if not isinstance(d, dict):
            raise ValidationError("sim config must be a JSON object")
        required = {
            "w_opt", "total_work", "ckpt_interval", "t_ckpt",
            "fail_stop_rate", "fail_slow_rate",
            "t_r_dist", "t_sr_dist", "t_fs_dist", "r_sr", "r_fs", "seed",
        }
        optional = {"fail_stop_times", "fail_slow_times", "watchdog_cycles"}
        missing = required - d.keys()
        if missing:
            raise ValidationError(f"sim config missing fields: {sorted(missing)}")
        unknown = d.keys() - required - optional
        if unknown:
            raise ValidationError(f"sim config has unknown fields: {sorted(unknown)}")
        kwargs = {k: d[k] for k in d.keys() & (required | optional)}
        for k in ("t_r_dist", "t_sr_dist", "t_fs_dist"):
            kwargs[k] = dist_from_dict(k, kwargs[k])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        d = {
            "w_opt": self.w_opt,
            "total_work": self.total_work,
            "ckpt_interval": self.ckpt_interval,
            "t_ckpt": self.t_ckpt,
            "fail_stop_rate": self.fail_stop_rate,
            "fail_slow_rate": self.fail_slow_rate,
            "t_r_dist": dist_to_dict(self.t_r_dist),
            "t_sr_dist": dist_to_dict(self.t_sr_dist),
            "t_fs_dist": dist_to_dict(self.t_fs_dist),
            "r_sr": self.r_sr,
            "r_fs": self.r_fs,
            "seed": self.seed,
            "watchdog_cycles": self.watchdog_cycles,
        }
        if self.fail_stop_times is not None:
            d["fail_stop_times"] = list(self.fail_stop_times)
        if self.fail_slow_times is not None:
            d["fail_slow_times"] = list(self.fail_slow_times)
        return d


@dataclass(frozen=True)
class SimResult:
    t_obs: float
    t_opt: float
    tor: float
    timeline: RateTimeline
    counts: dict[StageKind, int]
    periods: tuple[StageTotals, ...]
    period_means: StageTotals | None

    def to_dict(self) -> dict:
        m = self.period_means
        return {
            "t_obs": self.t_obs,
            "t_opt": self.t_opt,
            "tor": self.tor,
            "counts": {str(k): v for k, v in self.counts.items()},
            "n_complete_periods": len(self.periods),
            "period_means": None if m is None else {
                "kind": m.kind,
                "n_periods": len(self.periods),
                "t_sr": m.t_sr,
                "r_sr": m.r_sr,
                "t_h": m.t_h,
                "ckpt_time": m.ckpt_time,
                "t_rb": m.t_rb,
                "t_fs": m.t_fs,
                "r_fs": m.r_fs,
                "t_r": m.t_r,
            },
        }


# ---------------------------------------------------------------------------
# event loop

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


class _TimelineSink:
    """Builds the run's segments; a rollback relabels the uncommitted progress."""

    __slots__ = ("segments", "committed")

    def __init__(self):
        self.segments: list[Segment] = []
        self.committed = 0             # segments before this index are checkpoint-protected

    def emit(self, dt: float, rate: float, stage: StageKind) -> None:
        self.segments.append(_segment(dt, rate, stage))

    def rollback(self) -> None:
        segs = self.segments
        for i in range(self.committed, len(segs)):
            if segs[i].rate > 0:
                segs[i] = _segment(segs[i].duration, 0.0, ROLLBACK_WASTE)
        self.committed = len(segs)

    def commit(self) -> None:
        self.committed = len(self.segments)


class _TotalsSink:
    """Keeps only what a replication outcome needs: no segments are built.

    ``products`` holds duration * rate of every progress segment; those after
    index ``committed`` are dropped on a rollback, the same segments that the
    timeline sink relabels to rate 0.
    """

    __slots__ = ("durations", "products", "committed", "n_periods", "last")

    def __init__(self):
        self.durations: list[float] = []
        self.products: list[float] = []
        self.committed = 0
        self.n_periods = 0             # maximal runs of Repair segments
        self.last: StageKind | None = None

    def emit(self, dt: float, rate: float, stage: StageKind) -> None:
        self.durations.append(dt)
        if rate > 0:
            self.products.append(dt * rate)
        elif stage is REPAIR and self.last is not REPAIR:
            self.n_periods += 1
        self.last = stage

    def rollback(self) -> None:
        del self.products[self.committed:]

    def commit(self) -> None:
        self.committed = len(self.products)


def _run(cfg: SimConfig, seedseq: np.random.SeedSequence, sink) -> None:
    """The event loop: feeds every segment with positive duration to ``sink``,
    calls ``sink.rollback()`` on a fail-stop and ``sink.commit()`` when a
    checkpoint completes."""
    rng = np.random.Generator(np.random.Philox(seedseq))
    emit, rollback, commit = sink.emit, sink.rollback, sink.commit

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
            emit(dt, rate, stage)
            if rate > 0:
                work += dt * wrate
                prog += dt
            if not in_repair:
                exposure += dt
            if queue:
                queue[0][1] -= dt

        if event == 3:  # work complete
            return

        if event == 0:  # fail-stop
            next_stop = stops.next_after(exposure)
            rollback()
            work = committed
            prog = 0.0
            queue.clear()
            queue.append([REPAIR, cfg.t_r_dist.sample(rng), 0.0])
            queue.append([SLOW_RECOVERY, cfg.t_sr_dist.sample(rng), cfg.r_sr])
            on_failure_progress_check()
        elif event == 1:  # fail-slow
            next_slow = slows.next_after(exposure)
            queue.clear()
            queue.append([FAIL_SLOW_DEGRADED, cfg.t_fs_dist.sample(rng), cfg.r_fs])
            queue.append([REPAIR, cfg.t_r_dist.sample(rng), 0.0])
            queue.append([SLOW_RECOVERY, cfg.t_sr_dist.sample(rng), cfg.r_sr])
            on_failure_progress_check()
        elif event == 2:  # checkpoint trigger
            prog = 0.0
            if cfg.t_ckpt > 0:
                # Suspend whatever is running; it resumes after the save.
                queue.appendleft([CHECKPOINT_SAVE, cfg.t_ckpt, 0.0])
            else:
                committed = work
                commit()
        else:  # stage end
            done = queue.popleft()
            if done[0] is CHECKPOINT_SAVE:
                committed = work
                commit()


def simulate(cfg: SimConfig, _seedseq: np.random.SeedSequence | None = None) -> SimResult:
    """Run one training job to completion; deterministic in (cfg, seed)."""
    sink = _TimelineSink()
    _run(cfg, np.random.SeedSequence(cfg.seed) if _seedseq is None else _seedseq, sink)
    timeline = RateTimeline._trusted(tuple(sink.segments))
    records = tuple(period_records(timeline))
    counts: dict[StageKind, int] = {}
    prev = None
    for s in timeline:
        if s.stage is not prev:
            counts[s.stage] = counts.get(s.stage, 0) + 1
        prev = s.stage
    t_obs = observed_time(timeline)
    t_opt = integrate_optimal_time(timeline)
    return SimResult(
        t_obs=t_obs,
        t_opt=t_opt,
        tor=t_opt / t_obs,
        timeline=timeline,
        counts=counts,
        periods=records,
        period_means=mean_periods(list(records)),
    )


def realized_period_tor_check(res: SimResult) -> float:
    """Closed-form TOR evaluated at the realized per-period means.

    Because the closed form is linear in the per-period stage times, this
    equals the TOR of the complete-period portion of the run exactly; it
    differs from ``res.tor`` only by the final partial period.
    """
    means = res.period_means
    if means is None:
        if not res.timeline.segments:
            raise ValidationError("run has no complete failure-repair periods")
        return res.tor  # failure-free run: TOR is its own closed form
    if means.kind == MIXED:
        raise ValidationError(
            "run mixes failure types within or across periods; "
            "use the timeline TOR directly"
        )
    return means.tor


# ---------------------------------------------------------------------------
# period spec -> simulator config

def config_from_period(
    p,
    periods: int,
    seed: int = 1,
    w_opt: float = 1.0,
    deterministic: bool = False,
) -> SimConfig:
    """Build a SimConfig whose failure-repair cycles mirror a period spec.

    With ``deterministic=True``, failures are injected at the exact exposure
    instants implied by the period, so the run reproduces identical cycles
    (the first cycle lacks the leading slow recovery and should be treated as
    warm-up when comparing against the closed form). Otherwise arrivals are
    Poisson with rate equal to one failure per mean cycle of exposed time.
    """
    if periods < 1:
        raise ValidationError("periods must be at least 1")
    if not isinstance(p, (FailStopPeriod, FailSlowPeriod)):
        raise ValidationError(f"unsupported period type: {type(p).__name__}")
    t = p.totals()
    is_stop = t.kind == FAIL_STOP

    prog_sr = p.t_sr if p.r_sr > 0 else 0.0
    prog_fs = p.t_fs if p.r_fs > 0 else 0.0
    if t.opt_time <= 0:
        raise ValidationError("period accumulates no useful work; nothing to simulate")

    if p.n_ckpt >= 1:
        if p.t_ckpt <= 0:
            raise ValidationError("n_ckpt >= 1 requires t_ckpt > 0 in the simulator mapping")
        ckpt_interval = (prog_sr + p.t_h + prog_fs) / p.n_ckpt
        if ckpt_interval <= 0:
            raise ValidationError("period has no progress-accruing time before checkpoints")
        if p.t_rb >= ckpt_interval:
            raise ValidationError(
                "t_rb must be smaller than the implied checkpoint interval "
                f"({ckpt_interval!r} s); a checkpoint would fire inside the "
                "rolled-back span"
            )
    else:
        if is_stop:
            raise ValidationError(
                "fail-stop simulation needs n_ckpt >= 1: with no checkpoints a "
                "roll-back discards the entire run"
            )
        ckpt_interval = 1e18  # effectively never

    # Exposed (non-repair) time per cycle: the MTBF plus any degraded interval.
    # It is positive, as some stage accumulates useful work.
    exposure_per_cycle = t.mtbf + t.t_fs

    stop_times = slow_times = None
    if deterministic:
        # Failure k strikes after k MTBFs and the k - 1 earlier degraded intervals.
        times = tuple(k * t.mtbf + (k - 1) * t.t_fs for k in range(1, periods + 3))
        stop_times, slow_times = (times, ()) if is_stop else ((), times)
        stop_rate = slow_rate = 0.0
    else:
        rate = 1.0 / exposure_per_cycle
        stop_rate, slow_rate = (rate, 0.0) if is_stop else (0.0, rate)

    return SimConfig(
        w_opt=w_opt,
        total_work=w_opt * t.opt_time * (periods + 0.5),
        ckpt_interval=ckpt_interval,
        t_ckpt=p.t_ckpt,
        fail_stop_rate=stop_rate,
        fail_slow_rate=slow_rate,
        t_r_dist=Fixed(p.t_r),
        t_sr_dist=Fixed(p.t_sr),
        t_fs_dist=Fixed(p.t_fs),
        r_sr=p.r_sr,
        r_fs=p.r_fs,
        seed=seed,
        fail_stop_times=stop_times,
        fail_slow_times=slow_times,
    )


# ---------------------------------------------------------------------------
# Monte Carlo

@dataclass(frozen=True)
class ReplicationOutcome:
    index: int
    tor: float
    t_obs: float
    t_opt: float
    n_periods: int


@dataclass(frozen=True)
class MonteCarloSummary:
    replications: int
    completed: int
    diverged: int
    mean_tor: float
    std_tor: float
    ci95: tuple[float, float]
    outcomes: tuple[ReplicationOutcome, ...]
    first_result: SimResult | None = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "completed": self.completed,
            "diverged": self.diverged,
            "mean_tor": self.mean_tor,
            "std_tor": self.std_tor,
            "ci95": list(self.ci95),
            "tors": [o.tor for o in self.outcomes],
        }


def replication_seedseq(seed: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(k,))


def _replicate(cfg: SimConfig, k: int, seedseq: np.random.SeedSequence) -> ReplicationOutcome:
    """Replication ``k`` through the totals sink; bit-identical to ``simulate``."""
    totals = _TotalsSink()
    _run(cfg, seedseq, totals)
    t_obs = math.fsum(totals.durations)
    t_opt = math.fsum(totals.products)
    return ReplicationOutcome(k, t_opt / t_obs, t_obs, t_opt, totals.n_periods)


def monte_carlo(cfg: SimConfig, replications: int) -> MonteCarloSummary:
    """Run ``replications`` simulations with per-replication derived seeds.

    The first replication that finishes runs through :func:`simulate` and is
    kept whole as ``first_result``; the others keep only their totals.
    Diverged replications are excluded from the statistics and counted.
    The 95% CI is the normal approximation mean +/- 1.96 * s / sqrt(n).
    """
    if replications < 1:
        raise ValidationError("replications must be at least 1")
    outcomes: list[ReplicationOutcome] = []
    first_result: SimResult | None = None
    diverged = 0
    for k in range(replications):
        seedseq = replication_seedseq(cfg.seed, k)
        try:
            if first_result is None:
                first_result = simulate(cfg, _seedseq=seedseq)
                outcome = ReplicationOutcome(
                    k, first_result.tor, first_result.t_obs, first_result.t_opt,
                    len(first_result.periods),
                )
            else:
                outcome = _replicate(cfg, k, seedseq)
        except DivergedError:
            diverged += 1
            continue
        outcomes.append(outcome)
    if not outcomes:
        raise DivergedError(
            f"all {replications} replications diverged", stalled_cycles=cfg.watchdog_cycles
        )
    tors = [o.tor for o in outcomes]
    n = len(tors)
    mean = math.fsum(tors) / n
    if n > 1:
        std = math.sqrt(math.fsum((x - mean) ** 2 for x in tors) / (n - 1))
    else:
        std = 0.0
    half = 1.96 * std / math.sqrt(n)
    return MonteCarloSummary(
        replications=replications,
        completed=n,
        diverged=diverged,
        mean_tor=mean,
        std_tor=std,
        ci95=(mean - half, mean + half),
        outcomes=tuple(outcomes),
        first_result=first_result,
    )
