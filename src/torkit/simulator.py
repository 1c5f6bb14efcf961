"""Discrete-event simulation of a training run under stochastic failures.

The run is driven by work conservation: a fixed total workload accrues at
rate r(t) * w_opt and the run ends the instant the contributed work reaches
the total. Fail-stop failures discard everything since the last completed
checkpoint (that span is re-labeled RollbackWaste at rate 0); fail-slow
failures degrade the rate for a while before repair.

Randomness comes from a counter-based generator (numpy Philox) keyed by
``SeedSequence(seed)``; Monte-Carlo replication ``k`` uses
``SeedSequence(seed, spawn_key=(k,))``. NumPy is imported when the first seed
sequence or stream is built, so ``import torkit`` does not load it. Results
are bit-reproducible for a given config on a given implementation. A run
draws in private blocks: the Poisson gaps and ``Exponential`` durations are
scales times the standard exponentials of the run's Philox stream, and each
``LogNormal`` duration (``t_r``, ``t_sr``, ``t_fs``) draws from that stream
jumped by its purpose number 1, 2 or 3, a disjoint stream. On NumPy 2.4 a
block equals the same scalar draws bit for bit, so no result depends on the
block size.

One event loop (``_run``) runs :func:`simulate` and every Monte-Carlo
replication, and ends in the run's :class:`SimResult` either way. Recorded, a
run is three columns, durations, rates and stages, which the loop wraps,
unchecked and uncopied, as the result's :class:`RateTimeline` and sums into
its totals; the analysis (stage counts, periods, period means) is computed
only when read. Unrecorded, a run keeps only what its totals need, its
durations and the work-rate products of its progress, and gives the same
totals bit for bit; its result records the run again when its timeline is
first read. :func:`monte_carlo` runs its replications unrecorded, unless
``record_first=True`` records them until one finishes, and keeps each one's
totals as a :class:`ReplicationOutcome`; its ``first_result`` is the first
finished replication's result. No ``Segment`` is built on any path.

While the queue is empty (a healthy run), ``_run`` takes a fast path that
emits (HealthyRun block, CheckpointSave) pairs in a tight loop, with the
general loop's float operations in the same order, so its columns are
bit-identical to stepping event by event. It keeps the general loop's
priorities: a fail-stop wins a tie with a fail-slow, a failure wins a tie
with the trigger, completion or the save's end, a trigger due at completion
still fires, and a negative gap appends nothing. A failure or completion
ends the fast path by itself: it appends the interrupted HealthyRun or
CheckpointSave and goes straight to the event handlers, with no scan.

One rule ends a queued stage whose end is decided: it leaves the queue at
once, with no scan. A Repair's end is always decided, as nothing strikes
during a repair, so a fail-stop appends its Repair at once. Any other stage's
end is decided when it comes strictly before both arrivals and, if its rate
is positive, before the trigger and completion, with a work rate that does
not underflow to 0; a CheckpointSave that ends so commits. A tie goes to the
scan, where the other event wins, so the scan never ends a save.
"""
from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, groupby, repeat
from typing import Callable, ClassVar, Union

from .errors import DivergedError, ValidationError
from .model import (
    FAIL_STOP,
    RateTimeline,
    StageKind,
    StageTotals,
    _PERIODS,
    _Schema,
    _check_count,
    _check_positive,
    _check_ratio,
    _check_time,
    _from_dict,
)
from .periods import MIXED, mean_periods, period_records
from .timeline import _observed, _total, integrate_optimal_time, observed_time

INF = math.inf
# Module names for the members the event loop uses: an attribute lookup on
# the enum class is an order of magnitude slower than a global.
HEALTHY_RUN = StageKind.HEALTHY_RUN
SLOW_RECOVERY = StageKind.SLOW_RECOVERY
CHECKPOINT_SAVE = StageKind.CHECKPOINT_SAVE
ROLLBACK_WASTE = StageKind.ROLLBACK_WASTE
FAIL_SLOW_DEGRADED = StageKind.FAIL_SLOW_DEGRADED
REPAIR = StageKind.REPAIR
# The stages of a run that no failure struck.
_FAILURE_FREE = frozenset({HEALTHY_RUN, CHECKPOINT_SAVE})


# ---------------------------------------------------------------------------
# duration distributions

@dataclass(frozen=True)
class Fixed(_Schema):
    kind: ClassVar[str] = "fixed"
    value: float


@dataclass(frozen=True)
class Exponential(_Schema):
    kind: ClassVar[str] = "exponential"
    mean: float


@dataclass(frozen=True)
class LogNormal(_Schema):
    kind: ClassVar[str] = "lognormal"
    _checks = {"median": _check_positive}
    median: float
    sigma: float


DurationDist = Union[Fixed, Exponential, LogNormal]
_DISTS = (Fixed, Exponential, LogNormal)


def dist_from_dict(name: str, d: dict) -> DurationDist:
    """A duration distribution from its JSON object, or a distribution as it is."""
    return _from_dict(_DISTS, d, name)


def _check_seed(name: str, value) -> int:
    if isinstance(value, bool) or not (isinstance(value, int) and 0 <= value < 2**64):
        raise ValidationError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
    return value


def _check_cycles(name: str, value) -> int:
    value = _check_count(name, value)
    if value < 1:
        raise ValidationError(f"{name} must be at least 1")
    return value


def _check_times(name: str, times) -> tuple[float, ...] | None:
    if times is None:
        return None
    if not isinstance(times, (list, tuple)):
        raise ValidationError(f"{name} must be a list of times, got {times!r}")
    label = f"{name} entry"
    return tuple(sorted([_check_time(label, t) for t in times]))


# ---------------------------------------------------------------------------
# config / result

@dataclass(frozen=True)
class SimConfig(_Schema):
    """Stochastic training-run description.

    ``fail_stop_rate`` / ``fail_slow_rate`` are Poisson arrival rates per
    second of exposed (non-repair) time. ``fail_stop_times`` /
    ``fail_slow_times`` optionally replace the Poisson stream with explicit
    arrival instants on the exposed-time axis (deterministic injection).
    ``ckpt_interval`` is measured in progress-accruing time (rate > 0), so
    downtime does not consume the checkpoint budget.
    """

    _checks = {
        "w_opt": _check_positive, "total_work": _check_positive, "ckpt_interval": _check_positive,
        "t_r_dist": dist_from_dict, "t_sr_dist": dist_from_dict, "t_fs_dist": dist_from_dict,
        "r_sr": _check_ratio, "r_fs": _check_ratio,
        "fail_stop_times": _check_times, "fail_slow_times": _check_times,
        "seed": _check_seed, "watchdog_cycles": _check_cycles,
    }
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
    watchdog_cycles: int = 1000
    fail_stop_times: tuple[float, ...] | None = None
    fail_slow_times: tuple[float, ...] | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return _from_dict(cls, d, "sim config")


@dataclass(frozen=True)
class SimResult:
    """A simulated run: its totals and its timeline.

    ``counts`` (the runs of each stage), ``periods`` (the complete
    failure-repair periods) and ``period_means`` are computed from the
    timeline when first read, and kept. ``==`` and ``repr`` cover ``t_obs``,
    ``t_opt``, ``tor`` and the timeline.

    The first result of :func:`monte_carlo` may come from an unrecorded run:
    it then has its totals only, and the first read of ``timeline`` (through
    ``counts``, ``periods``, ``period_means``, ``to_dict``, ``==`` or
    ``repr`` too) runs its replication again, recorded, and keeps the timeline.
    """

    t_obs: float
    t_opt: float
    tor: float
    timeline: RateTimeline

    @classmethod
    def _unrecorded(cls, t_obs: float, t_opt: float, tor: float,
                    rerun: Callable[[], SimResult]) -> "SimResult":
        """A result whose timeline is that of the recorded result ``rerun()``
        returns, when first read."""
        res = object.__new__(cls)
        res.__dict__.update(t_obs=t_obs, t_opt=t_opt, tor=tor, _rerun=rerun)
        return res

    def __getattr__(self, name: str):
        # Reached only for a name not set: the timeline of an unrecorded run.
        if name != "timeline" or "_rerun" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        timeline = self.__dict__["timeline"] = self._rerun().timeline
        del self.__dict__["_rerun"]
        return timeline

    @cached_property
    def counts(self) -> dict[StageKind, int]:
        counts: dict[StageKind, int] = {}
        for stage, _ in groupby(self.timeline.stages):
            counts[stage] = counts.get(stage, 0) + 1
        return counts

    @cached_property
    def periods(self) -> tuple[StageTotals, ...]:
        return tuple(period_records(self.timeline))

    @cached_property
    def period_means(self) -> StageTotals | None:
        return mean_periods(list(self.periods))

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

np = None  # NumPy, bound by _numpy() when the first seed sequence or stream is built


def _numpy():
    """NumPy, imported on the first call only (see the module docstring)."""
    global np
    if np is None:
        import numpy
        np = numpy
    return np


_BLOCK = 64  # values per refill of a stream; no result depends on it


def _stream(seedseq: np.random.SeedSequence, purpose: int, draw: str,
            *args: float) -> Callable[[], float]:
    """The next value of ``draw(*args)`` on the run's stream ``purpose``, drawn
    ``_BLOCK`` at a time. Stream ``j`` is stream 0, the run's own, jumped ``j``
    times (counter word 2 is ``j``), so no two streams overlap."""
    random = _numpy().random
    rng = random.Generator(random.Philox(seedseq, counter=[0, 0, purpose, 0]))
    block = getattr(rng, draw)
    return chain.from_iterable(iter(lambda: block(*args, size=_BLOCK).tolist(), None)).__next__


def _arrivals(rate: float, times: tuple[float, ...] | None,
              exp: Callable[[], float]) -> Callable[[float], float]:
    """A run's next-arrival function on the exposed-time axis: the first
    injected time after ``exposure``, or ``exposure`` plus a Poisson gap."""
    if times is not None:
        it = iter(times)

        def next_after(exposure: float) -> float:
            for t in it:
                if t > exposure:
                    return t
            return INF
        return next_after
    if rate <= 0:
        return lambda exposure: INF
    scale = 1.0 / rate
    return lambda exposure: exposure + scale * exp()


def _duration(dist: DurationDist, seedseq: np.random.SeedSequence, purpose: int,
              exp: Callable[[], float]) -> Callable[[], float]:
    """A run's draw function for ``dist``; a draw beyond the float range is rejected."""
    if isinstance(dist, Fixed):
        return repeat(dist.value).__next__
    if isinstance(dist, Exponential):
        scale, base = dist.mean, exp
    else:  # 1.0 * x is x, bit for bit
        scale, base = 1.0, _stream(seedseq, purpose, "lognormal",
                                   math.log(dist.median), dist.sigma)

    def draw() -> float:
        d = scale * base()
        if not d < INF:
            raise ValidationError(f"{dist!r} drew a duration beyond the float range")
        return d
    return draw


def _run(cfg: SimConfig, seedseq: np.random.SeedSequence, record: bool = True) -> SimResult:
    """The event loop, ending in the run's result. Recorded, its timeline
    wraps the run's segments of positive duration, as the columns (durations,
    rates, stages), and its totals are summed over them; unrecorded, it keeps
    the totals only, equal bit for bit, and records the run again when its
    timeline is first read. Steps whose next event is known take no scan: the
    healthy fast path, and a queued stage whose end is decided (the module
    docstring has the rules).

    A fail-stop relabels the progress entries after the last completed
    checkpoint as rate-0 RollbackWaste, in place; unrecorded, it drops their
    products ``d * r`` instead. ``fsum`` is correctly rounded in any order and
    the recorded run's other products are +0.0, so the sums are equal.
    """
    exp = _stream(seedseq, 0, "standard_exponential")
    draw_r = _duration(cfg.t_r_dist, seedseq, 1, exp)
    draw_sr = _duration(cfg.t_sr_dist, seedseq, 2, exp)
    draw_fs = _duration(cfg.t_fs_dist, seedseq, 3, exp)
    stops = _arrivals(cfg.fail_stop_rate, cfg.fail_stop_times, exp)
    slows = _arrivals(cfg.fail_slow_rate, cfg.fail_slow_times, exp)
    next_stop = stops(0.0)
    next_slow = slows(0.0)

    durations: list[float] = []
    rates: list[float] = []
    stages: list[StageKind] = []
    products: list[float] = []     # d * r of each positive-rate entry, unrecorded
    edited = rates if record else products  # the list a fail-stop rolls back
    saved = 0                      # entries of ``edited`` before this are checkpoint-protected

    total, w_opt, ckpt_interval, t_ckpt = cfg.total_work, cfg.w_opt, cfg.ckpt_interval, cfg.t_ckpt
    r_sr, r_fs, watchdog_cycles = cfg.r_sr, cfg.r_fs, cfg.watchdog_cycles
    queue: deque[list] = deque()   # [stage, remaining, rate]; empty queue = healthy run

    exposure = 0.0                 # non-repair wall time
    prog = 0.0                     # progress-accruing time since last checkpoint start
    work = 0.0                     # contributed work (committed + at-risk)
    committed = 0.0                # checkpoint-protected work
    stalled = 0                    # consecutive failures that found no new work
    work_at_last_failure = -INF

    while True:
        if not queue:
            # Fast path of (HealthyRun block, CheckpointSave) pairs until a failure
            # or completion, with the general loop's tie rules (module docstring).
            stage, rate, wrate = HEALTHY_RUN, 1.0, w_opt  # 1.0 * w_opt is w_opt
            while True:
                dt = ckpt_interval - prog
                dt_stop = next_stop - exposure
                dt_slow = next_slow - exposure
                dt_work = (total - work) / w_opt
                if not (dt < dt_stop and dt < dt_slow and dt <= dt_work):
                    # A fail-stop wins a tie with a fail-slow, either with completion.
                    if dt_stop <= dt_slow and dt_stop <= dt_work:
                        event, dt = 0, dt_stop
                    elif dt_slow <= dt_work:
                        event, dt = 1, dt_slow
                    else:
                        event, dt = 3, dt_work
                    break
                if dt > 0:  # a negative dt appends nothing, as in the general loop
                    durations.append(dt)
                    if record:
                        rates.append(1.0)
                        stages.append(HEALTHY_RUN)
                    else:
                        products.append(dt)  # dt * 1.0 is dt, bit for bit
                    work += dt * w_opt
                    exposure += dt
                prog = 0.0
                if t_ckpt > 0:
                    dt_stop = next_stop - exposure
                    dt_slow = next_slow - exposure
                    if not (t_ckpt < dt_stop and t_ckpt < dt_slow):
                        # A failure interrupts the save, which it then discards.
                        event, dt = (0, dt_stop) if dt_stop <= dt_slow else (1, dt_slow)
                        stage, rate = CHECKPOINT_SAVE, 0.0
                        break
                    durations.append(t_ckpt)
                    if record:
                        rates.append(0.0)
                        stages.append(CHECKPOINT_SAVE)
                    exposure += t_ckpt
                committed = work
                saved = len(edited)
        else:
            stage, rem, rate = queue[0]
            # A queued stage whose end is decided leaves at once (module docstring).
            if stage is REPAIR:
                if rem > 0:
                    durations.append(rem)
                    if record:
                        rates.append(rate)
                        stages.append(REPAIR)
                queue.popleft()
                continue
            wrate = rate * w_opt
            if (rem < next_stop - exposure and rem < next_slow - exposure
                    and ((rem < ckpt_interval - prog and rem < (total - work) / wrate)
                         if wrate > 0 else rate == 0)):
                if rem > 0:
                    durations.append(rem)
                    if record:
                        rates.append(rate)
                        stages.append(stage)
                    if rate > 0:
                        if not record:
                            products.append(rem * rate)
                        work += rem * wrate
                        prog += rem
                    exposure += rem
                if stage is CHECKPOINT_SAVE:
                    committed = work
                    saved = len(edited)
                queue.popleft()
                continue

            dt_work = (total - work) / wrate if wrate > 0 else INF
            dt_stop = next_stop - exposure
            dt_slow = next_slow - exposure
            dt_ckpt = (ckpt_interval - prog) if rate > 0 else INF

            # Priority on ties: fail-stop, fail-slow, checkpoint trigger, work
            # completion, stage end (index() picks the first minimum). A
            # checkpoint due exactly at completion still fires: the run ends at
            # the first progress instant after the total work is contributed.
            candidates = (dt_stop, dt_slow, dt_ckpt, dt_work, rem)
            dt = min(candidates)
            event = candidates.index(dt)

        if dt > 0:  # a negative gap (float slack) appends nothing and fires at once
            durations.append(dt)
            if record:
                rates.append(rate)
                stages.append(stage)
            if rate > 0:
                if not record:
                    products.append(dt * rate)
                work += dt * wrate
                prog += dt
            exposure += dt
            if queue:
                queue[0][1] -= dt

        if event <= 1:
            if event == 0:  # fail-stop
                next_stop = stops(exposure)
                if record:
                    for i in range(saved, len(rates)):
                        if rates[i] > 0:
                            rates[i] = 0.0
                            stages[i] = ROLLBACK_WASTE
                else:
                    del products[saved:]
                saved = len(edited)
                work = committed
                prog = 0.0
                queue.clear()
                # The Repair ends at once: nothing strikes during a repair.
                t_r = draw_r()
                if t_r > 0:
                    durations.append(t_r)
                    if record:
                        rates.append(0.0)
                        stages.append(REPAIR)
                queue.append([SLOW_RECOVERY, draw_sr(), r_sr])
            else:  # fail-slow
                next_slow = slows(exposure)
                queue.clear()
                queue.append([FAIL_SLOW_DEGRADED, draw_fs(), r_fs])
                queue.append([REPAIR, draw_r(), 0.0])
                queue.append([SLOW_RECOVERY, draw_sr(), r_sr])
            # The watchdog: a run that contributes no work across
            # ``watchdog_cycles`` consecutive failures cannot finish.
            if work <= work_at_last_failure:
                stalled += 1
                if stalled >= watchdog_cycles:
                    raise DivergedError(
                        f"no contributed work across {stalled} consecutive failure cycles; "
                        "the configuration cannot finish (e.g. checkpoints never complete "
                        "between failures)",
                        stalled_cycles=stalled,
                    )
            else:
                stalled = 0
            work_at_last_failure = work
        elif event == 2:  # checkpoint trigger
            prog = 0.0
            if t_ckpt > 0:
                # Suspend whatever is running; it resumes after the save.
                queue.appendleft([CHECKPOINT_SAVE, t_ckpt, 0.0])
            else:
                committed = work
                saved = len(edited)
        elif event == 3:  # work complete
            break
        else:  # stage end; a save never ends here (see the module docstring)
            queue.popleft()
    if record:
        timeline = RateTimeline._of_columns(durations, rates, stages)
        t_obs = observed_time(timeline)
        t_opt = integrate_optimal_time(timeline)
        return SimResult(t_obs=t_obs, t_opt=t_opt, tor=t_opt / t_obs, timeline=timeline)
    t_obs, t_opt = _observed(durations), _total("optimal time", products)
    return SimResult._unrecorded(t_obs, t_opt, t_opt / t_obs, partial(_run, cfg, seedseq))


def simulate(cfg: SimConfig) -> SimResult:
    """Run one training job to completion; deterministic in (cfg, seed)."""
    return _run(cfg, _numpy().random.SeedSequence(cfg.seed))


def realized_period_tor_check(res: SimResult) -> float:
    """Closed-form TOR evaluated at the realized per-period means.

    Because the closed form is linear in the per-period stage times, this
    equals the TOR of the complete-period portion of the run exactly; it
    differs from ``res.tor`` only by the final partial period.
    """
    means = res.period_means
    if means is None:
        # Only a run that never failed is its own closed form; one whose
        # failures completed no period (a zero repair time, say) has none.
        if not res.timeline or not _FAILURE_FREE.issuperset(res.timeline.stages):
            raise ValidationError("run has no complete failure-repair periods")
        return res.tor
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
    if periods > sys.float_info.max:
        raise ValidationError("periods exceeds the float range")
    if not isinstance(p, _PERIODS):
        raise ValidationError(f"unsupported period type: {type(p).__name__}")
    t = p.totals()
    is_stop = t.kind == FAIL_STOP

    prog_sr = p.t_sr if p.r_sr > 0 else 0.0
    prog_fs = p.t_fs if p.r_fs > 0 else 0.0
    if t.opt_time <= 0:
        raise ValidationError("period accumulates no useful work; nothing to simulate")
    total_work = t.opt_time * (periods + 0.5)
    if not math.isfinite(total_work):
        raise ValidationError("periods too large: the run's total work exceeds the float range")

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
        # Longer than any finite progress time: no checkpoint ever fires.
        ckpt_interval = sys.float_info.max

    # Exposed (non-repair) time per cycle: the MTBF plus any degraded interval.
    # It is positive, as some stage accumulates useful work.
    mtbf, t_fs = t.mtbf, t.t_fs  # mtbf is an fsum: read it once
    exposure_per_cycle = mtbf + t_fs

    stop_times = slow_times = None
    if deterministic:
        # Failure k strikes after k MTBFs and the k - 1 earlier degraded intervals.
        times = tuple(k * mtbf + (k - 1) * t_fs for k in range(1, periods + 3))
        stop_times, slow_times = (times, ()) if is_stop else ((), times)
        stop_rate = slow_rate = 0.0
    else:
        rate = 1.0 / exposure_per_cycle
        stop_rate, slow_rate = (rate, 0.0) if is_stop else (0.0, rate)

    return SimConfig(
        w_opt=1.0,
        total_work=total_work,
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


@dataclass(frozen=True)
class MonteCarloSummary:
    """The statistics of a Monte-Carlo run and each finished replication's totals.

    ``first_result`` is the first finished replication's :class:`SimResult`;
    unless :func:`monte_carlo` recorded it, reading its timeline, and so
    ``==`` on two summaries, runs that replication again.
    """

    replications: int
    completed: int
    diverged: int
    mean_tor: float
    std_tor: float
    ci95: tuple[float, float]
    outcomes: tuple[ReplicationOutcome, ...]
    first_result: SimResult = field(repr=False)

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
    return _numpy().random.SeedSequence(entropy=seed, spawn_key=(k,))


def monte_carlo(cfg: SimConfig, replications: int, *,
                record_first: bool = False) -> MonteCarloSummary:
    """Run ``replications`` simulations with per-replication derived seeds.

    Each replication keeps only its totals. ``first_result`` is the result
    of the first replication to finish. With ``record_first``, the
    replications are recorded until one finishes, so that result holds its
    timeline; otherwise it has its totals only, and the first read of its
    timeline runs that replication again, recorded. Either way its totals
    are the outcome's.
    Diverged replications are excluded from the statistics and counted; if
    every one diverges, the error carries the last one's cause.
    The 95% CI is the normal approximation mean +/- 1.96 * s / sqrt(n).
    """
    if replications < 1:
        raise ValidationError("replications must be at least 1")
    outcomes: list[ReplicationOutcome] = []
    first_result: SimResult | None = None
    diverged = 0
    for k in range(replications):
        try:
            res = _run(cfg, replication_seedseq(cfg.seed, k), record_first and first_result is None)
        except DivergedError as e:
            diverged += 1
            last_error = e
            continue
        outcomes.append(ReplicationOutcome(k, res.tor, res.t_obs, res.t_opt))
        if first_result is None:
            first_result = res
    if not outcomes:
        plural = "s" if replications != 1 else ""
        raise DivergedError(f"all {replications} replication{plural} diverged: {last_error}",
                            stalled_cycles=last_error.stalled_cycles)
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
