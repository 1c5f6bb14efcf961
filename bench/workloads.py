"""Workload inputs, operations and output checks for the torkit benchmark.

A workload has two halves that run in different processes:

- ``setup(seed, workdir)`` generates the inputs from the seed and writes them
  to ``workdir``. It runs in a child process so that input generation never
  sets the memory peak of the timed process.
- ``load(workdir)`` reads the inputs back and returns a :class:`Pass`: the
  ordered operations of one pass over the input set, plus the inputs of the
  per-layer probes.

Every operation returns a result that its ``check`` tests against invariants
computed here, from the generated inputs, without calling torkit: worked
TOR values, work conservation, exact trace round trips and stage lost-time
sums. ``check`` returns a list of problems; an empty list means correct.
"""
from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# Worked periods from the README; their closed-form TORs are 91/110 and 95/110.
WORKED_FAIL_STOP = {"kind": "fail_stop", "t_sr": 2, "r_sr": 0.5, "t_h": 90, "n_ckpt": 3,
                    "t_ckpt": 1, "t_rb": 5, "t_r": 10}
WORKED_FAIL_SLOW = {"kind": "fail_slow", "t_sr": 2, "r_sr": 0.5, "t_h": 90, "n_ckpt": 3,
                    "t_ckpt": 1, "t_fs": 10, "r_fs": 0.4, "t_r": 5}
WORKED_TOR = {"fail_stop": 91 / 110, "fail_slow": 95 / 110}

TOR_TOL = 1e-12         # closed form against an independent evaluation
DET_TOL = 1e-9          # deterministic simulation against the closed form
WORK_RTOL = 1e-9        # work conservation, relative to total_work


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` and ``tors`` are not."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    tors: Callable[[Any], list[float]]


@dataclass
class Pass:
    ops: list[Op]
    probe_cfg: dict                       # sim config dict of the largest simulation
    probe_triples: Callable[[], list[tuple]] = field(repr=False)


# ---------------------------------------------------------------------------
# helpers shared by the workloads

def _dist(kind: str, mean: float, sigma: float = 0.6) -> dict:
    if kind == "fixed":
        return {"kind": "fixed", "value": mean}
    if kind == "exponential":
        return {"kind": "exponential", "mean": mean}
    return {"kind": "lognormal", "median": mean * math.exp(-0.5 * sigma**2), "sigma": sigma}


def _sim_cfg(rng: random.Random, *, stop_rate: float, slow_rate: float, ckpt_interval: float,
             dist: str, total_work: float) -> dict:
    return {
        "w_opt": 1.0,
        "total_work": total_work,
        "ckpt_interval": ckpt_interval,
        "t_ckpt": 1.0,
        "fail_stop_rate": stop_rate,
        "fail_slow_rate": slow_rate,
        "t_r_dist": _dist(dist, 10.0),
        "t_sr_dist": _dist(dist, 3.0),
        "t_fs_dist": _dist(dist, 20.0),
        "r_sr": 0.5,
        "r_fs": 0.4,
        "seed": rng.getrandbits(63),
    }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1))


def _read_json(path: Path):
    return json.loads(path.read_text())


def inputs_digest(workdir: Path) -> str:
    """sha256 over every input file, so set-ups of one seed can be compared."""
    h = hashlib.sha256()
    for p in sorted(workdir.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(workdir).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _simulated_triples(cfg_dict: dict) -> list[tuple]:
    """(duration, rate, stage) of every segment of one simulation of ``cfg_dict``."""
    import torkit

    tl = torkit.simulate(torkit.SimConfig.from_dict(cfg_dict)).timeline
    return [(s.duration, s.rate, s.stage) for s in tl]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _period_times(p: dict) -> tuple[float, float]:
    """(optimal time, observed time) of one period, from the README formula."""
    opt = [p["t_sr"] * p["r_sr"], p["t_h"]]
    obs = [p["t_sr"], p["t_h"], p["n_ckpt"] * p["t_ckpt"], p["t_r"]]
    if p["kind"] == "fail_stop":
        obs.append(p["t_rb"])
    else:
        opt.append(p["t_fs"] * p["r_fs"])
        obs.append(p["t_fs"])
    return math.fsum(opt), math.fsum(obs)


def period_tor(p: dict) -> float:
    """Closed-form TOR of a period dict, evaluated here, not by torkit."""
    opt, obs = _period_times(p)
    return opt / obs


def _check_breakdown(breakdown: dict, t_obs: float, t_opt: float) -> list[str]:
    """Stage times sum to t_obs and stage lost times to t_obs - t_opt."""
    problems = []
    time_sum = math.fsum(d["time"] for d in breakdown.values())
    lost_sum = math.fsum(d["lost_time"] for d in breakdown.values())
    scale = max(1.0, t_obs)
    if not _close(time_sum, t_obs, WORK_RTOL * scale):
        problems.append(f"stage times sum to {time_sum!r}, t_obs is {t_obs!r}")
    if not _close(lost_sum, t_obs - t_opt, WORK_RTOL * scale):
        problems.append(f"stage lost times sum to {lost_sum!r}, t_obs - t_opt is {t_obs - t_opt!r}")
    return problems


def _check_mc(summary: dict, replications: int, cfg: dict) -> list[str]:
    """Monte-Carlo summary invariants: counts, TOR range, mean, CI, work conservation."""
    problems = []
    tors = summary["tors"]
    if summary["completed"] + summary["diverged"] != replications:
        problems.append(f"completed + diverged != {replications}")
    if summary["diverged"]:
        problems.append(f"{summary['diverged']} replications diverged")
    if len(tors) != summary["completed"]:
        problems.append("one TOR per completed replication expected")
    if not tors or not all(0.0 < t <= 1.0 for t in tors):
        problems.append(f"TOR outside (0, 1]: {tors!r}")
        return problems
    mean = math.fsum(tors) / len(tors)
    if not _close(summary["mean_tor"], mean, TOR_TOL):
        problems.append(f"mean_tor {summary['mean_tor']!r} != mean of tors {mean!r}")
    lo, hi = summary["ci95"]
    if not lo <= summary["mean_tor"] <= hi:
        problems.append("mean_tor outside its own ci95")
    first = summary["first"]
    if first is not None:
        if not _close(first["t_opt"] * cfg["w_opt"], cfg["total_work"],
                      WORK_RTOL * cfg["total_work"]):
            problems.append(f"work not conserved: t_opt {first['t_opt']!r}")
        if not _close(first["tor"], first["t_opt"] / first["t_obs"], TOR_TOL):
            problems.append("tor != t_opt / t_obs")
        if first["tor"] != tors[0]:
            problems.append("first result TOR differs from the first replication TOR")
    return problems


# ---------------------------------------------------------------------------
# mc_sweep: monte_carlo at the points of a seeded grid

MC_REPLICATIONS = 2
MC_LONG = (("exponential", 5000), ("lognormal", 5000))   # (distribution, periods)
# Segments per simulation grow with job length and with MTBF / ckpt_interval,
# that is with (1 - slow_share) / ckpt_frac; the fail-stop rate cancels. These
# cost factors are fully crossed on fine log-spaced levels, so operation costs
# cover their range densely and in the same way for every seed, which keeps
# p50 and p90 steady across seeds.
MC_COST_LEVELS = {
    "periods": tuple(round(10 * 8 ** (i / 5), 1) for i in range(6)),   # 10 .. 80
    # ckpt_interval as a share of 1 / stop_rate, 0.05 .. 0.4
    "ckpt_frac": tuple(round(0.05 * 8 ** (i / 5), 4) for i in range(6)),
    "slow_share": (0.0, 0.3, 0.6),
}
# Factors that hardly change the cost: balanced, in a seeded arrangement.
MC_OTHER_LEVELS = {
    "stop_rate": (1 / 300, 1 / 150, 1 / 75),
    "dist": ("fixed", "exponential", "lognormal"),
}


def _mc_point(rng: random.Random, stop_rate: float, slow_share: float, ckpt_frac: float,
              dist: str, periods: float) -> dict:
    stop = stop_rate * rng.uniform(0.9, 1.1)
    slow = stop * slow_share / (1.0 - slow_share)
    mtbf = 1.0 / (stop + slow)
    return _sim_cfg(rng, stop_rate=stop, slow_rate=slow,
                    ckpt_interval=ckpt_frac / stop * rng.uniform(0.95, 1.05), dist=dist,
                    total_work=periods * 0.8 * mtbf * rng.uniform(0.95, 1.05))


def mc_sweep_setup(seed: int, workdir: Path, cost_levels=MC_COST_LEVELS,
                   long_jobs=MC_LONG) -> None:
    rng = random.Random(seed)
    cells = [dict(zip(cost_levels, combo)) for combo in itertools.product(*cost_levels.values())]
    rng.shuffle(cells)
    for name, levels in MC_OTHER_LEVELS.items():
        col = [levels[i % len(levels)] for i in range(len(cells))]
        rng.shuffle(col)
        for cell, value in zip(cells, col):
            cell[name] = value
    grid = [{"replications": MC_REPLICATIONS, "config": _mc_point(rng, **cell)}
            for cell in cells]
    for dist, periods in long_jobs:
        cfg = _mc_point(rng, 1 / 150, 0.3, 0.4, dist, periods)
        grid.append({"replications": 1, "config": cfg})
    _write_json(workdir / "grid.json", grid)


def _mc_result(summary) -> dict:
    first = summary.first_result
    return {
        "replications": summary.replications,
        "completed": summary.completed,
        "diverged": summary.diverged,
        "mean_tor": summary.mean_tor,
        "ci95": list(summary.ci95),
        "tors": [o.tor for o in summary.outcomes],
        "first": None if first is None else {
            "t_opt": first.t_opt, "t_obs": first.t_obs, "tor": first.tor,
        },
    }


def mc_sweep_load(workdir: Path) -> Pass:
    import torkit

    grid = _read_json(workdir / "grid.json")
    ops = []
    for point in grid:
        cfg_dict, reps = point["config"], point["replications"]
        cfg = torkit.SimConfig.from_dict(cfg_dict)

        def run(cfg=cfg, reps=reps):
            return _mc_result(torkit.monte_carlo(cfg, reps))

        ops.append(Op(
            kind="mc",
            run=run,
            check=lambda r, reps=reps, d=cfg_dict: _check_mc(r, reps, d),
            tors=lambda r: r["tors"],
        ))
    largest = max(grid, key=lambda p: p["config"]["total_work"])["config"]
    return Pass(ops, largest, lambda: _simulated_triples(largest))


# ---------------------------------------------------------------------------
# trace_fleet: parse_trace + report over a fleet of JSONL traces

FLEET_TRACES = 120
FLEET_EVENTS = (200, 2000)           # target events per trace, log-spaced
FLEET_POPULATIONS = {
    # population: (fail-stop rate, fail-slow rate)
    "fail_stop": (1 / 120, 0.0),
    "fail_slow": (0.0, 1 / 120),
    "mixed": (1 / 240, 1 / 240),
}
FLEET_CKPT_INTERVAL = 25.0
EVENTS_PER_WORK = 0.117              # segments per unit of work at these rates, measured
WALL_ORIGIN = dt.datetime(2026, 1, 1, tzinfo=dt.timezone.utc)


def _write_seconds_trace(path: Path, segs: list[tuple]) -> None:
    lines = []
    t = 0.0
    for d, r, st in segs:
        t_next = t + d
        lines.append(json.dumps({"t_start": t, "t_end": t_next, "stage": st, "rate": r,
                                 "duration": d}))
        t = t_next
    path.write_text("\n".join(lines) + "\n")


def _write_wall_trace(path: Path, segs: list[tuple], origin: dt.datetime) -> float:
    """Write ISO-8601 timestamps at microsecond resolution.

    Returns the TOR of the trace as written, from its integer microsecond
    boundaries; the quantisation moves each boundary by at most half a
    microsecond, so this differs slightly from the source simulation's TOR.
    """
    lines = []
    t = 0.0
    prev_us = 0
    num, den = [], 0
    for d, r, st in segs:
        t += d
        us = max(round(t * 1e6), prev_us + 1)
        w0 = origin + dt.timedelta(microseconds=prev_us)
        w1 = origin + dt.timedelta(microseconds=us)
        lines.append(json.dumps({"wall_start": w0.isoformat(), "wall_end": w1.isoformat(),
                                 "stage": st, "rate": r}))
        num.append((us - prev_us) * r)
        den += us - prev_us
        prev_us = us
    path.write_text("\n".join(lines) + "\n")
    return math.fsum(num) / den


def _repair_runs(segs: list[tuple]) -> int:
    """Complete failure-repair periods: maximal runs of Repair segments."""
    runs = 0
    prev = None
    for _, _, st in segs:
        if st == "Repair" and prev != "Repair":
            runs += 1
        prev = st
    return runs


def trace_fleet_setup(seed: int, workdir: Path, traces: int = FLEET_TRACES,
                      events=FLEET_EVENTS) -> None:
    """Simulate ``traces`` runs and write each as a JSONL trace.

    Sizes span ``events`` log-uniformly; consecutive sizes form triples, and
    each triple holds one trace of each population and exactly one wall-clock
    trace, so the mix of sizes, populations and formats is the same for every
    seed.
    """
    import torkit

    rng = random.Random(seed)
    lo, hi = events
    sizes = [lo * (hi / lo) ** (i / max(1, traces - 1)) for i in range(traces)]
    pops = list(FLEET_POPULATIONS)
    manifest = []
    for g in range(0, traces, 3):
        group_pops = rng.sample(pops, 3)
        wall_at = rng.randrange(3)
        for j, size in enumerate(sizes[g:g + 3]):
            pop = group_pops[j]
            stop, slow = FLEET_POPULATIONS[pop]
            cfg = _sim_cfg(rng, stop_rate=stop * rng.uniform(0.9, 1.1),
                           slow_rate=slow * rng.uniform(0.9, 1.1),
                           ckpt_interval=FLEET_CKPT_INTERVAL,
                           dist=rng.choice(("fixed", "exponential", "lognormal")),
                           total_work=size / EVENTS_PER_WORK)
            res = torkit.simulate(torkit.SimConfig.from_dict(cfg))
            segs = [(s.duration, s.rate, str(s.stage)) for s in res.timeline]
            name = f"trace_{len(manifest):03d}.jsonl"
            entry = {"file": name, "population": pop, "config": cfg, "events": len(segs),
                     "tor": res.tor, "t_obs": res.t_obs, "t_opt": res.t_opt,
                     "complete_periods": _repair_runs(segs)}
            if j == wall_at:
                origin = WALL_ORIGIN + dt.timedelta(seconds=rng.randrange(10**6))
                entry["format"] = "wall"
                entry["wall_tor"] = _write_wall_trace(workdir / name, segs, origin)
            else:
                entry["format"] = "seconds"
                _write_seconds_trace(workdir / name, segs)
            manifest.append(entry)
    _write_json(workdir / "manifest.json", manifest)


def check_trace_report(result: tuple[int, dict], entry: dict) -> list[str]:
    n_events, rep = result
    problems = []
    if n_events != entry["events"]:
        problems.append(f"parsed {n_events} events, wrote {entry['events']}")
    if entry["format"] == "seconds":
        # Exact round trip: every duration is carried in the file.
        if rep["tor"] != entry["tor"]:
            problems.append(f"TOR {rep['tor']!r} != source simulation TOR {entry['tor']!r}")
        if rep["t_obs"] != entry["t_obs"]:
            problems.append(f"t_obs {rep['t_obs']!r} != source t_obs {entry['t_obs']!r}")
    else:
        # Seconds are rebuilt from microseconds; allow float rounding per event.
        tol = TOR_TOL + 2e-15 * entry["events"]
        if not _close(rep["tor"], entry["wall_tor"], tol):
            problems.append(f"TOR {rep['tor']!r} != wall-clock trace TOR {entry['wall_tor']!r}")
    problems += _check_breakdown(rep["stage_breakdown"], rep["t_obs"], rep["t_opt"])
    periods = sum(rep["complete_periods"].values())
    if periods != entry["complete_periods"]:
        problems.append(f"{periods} complete periods, trace has {entry['complete_periods']}")
    return problems


def trace_fleet_load(workdir: Path) -> Pass:
    import torkit

    manifest = _read_json(workdir / "manifest.json")
    ops = []
    for entry in manifest:
        path = workdir / entry["file"]

        def run(path=path):
            with open(path, "rb") as f:
                events = torkit.parse_trace(f)
            return len(events), torkit.report(events)

        ops.append(Op(
            kind="trace",
            run=run,
            check=lambda r, e=entry: check_trace_report(r, e),
            tors=lambda r: [r[1]["tor"]],
        ))
    largest = max(manifest, key=lambda e: e["events"])

    def triples():
        with open(workdir / largest["file"], "rb") as f:
            events = torkit.parse_trace(f)
        return [(e.duration, e.rate, e.stage) for e in events]

    return Pass(ops, largest["config"], triples)


# ---------------------------------------------------------------------------
# cli_roundtrip: in-process torkit.cli.main calls, in a fixed cycle

CLI_VARIANTS = 17                    # cycles of six operations per pass
CLI_SIM_PERIODS = 50
CLI_SIM_REPLICATIONS = 3
# The deterministic compare runs as many periods as the stochastic one does
# over all its replications, so the two cost about the same and the median
# operation of a cycle is not set by the gap between them.
CLI_COMPARE_PERIODS = 60
CLI_COMPARE_REPLICATIONS = 3
CLI_DET_PERIODS = CLI_COMPARE_PERIODS * CLI_COMPARE_REPLICATIONS
CLI_DISTS = ("fixed", "exponential", "lognormal")


def _random_period(rng: random.Random, kind: str, n_ckpt: int) -> dict:
    """A period that ``compare --deterministic`` can map to a simulator config."""
    t_sr = rng.uniform(0.5, 5.0)
    t_h = rng.uniform(80.0, 120.0)
    p = {"kind": kind, "t_sr": t_sr, "r_sr": rng.uniform(0.1, 0.9), "t_h": t_h,
         "n_ckpt": n_ckpt, "t_ckpt": rng.uniform(0.2, 2.0), "t_r": rng.uniform(2.0, 20.0)}
    if kind == "fail_stop":
        p["t_rb"] = rng.uniform(0.05, 0.9) * (t_sr + t_h) / n_ckpt
    else:
        p["t_fs"] = rng.uniform(1.0, 30.0)
        p["r_fs"] = rng.uniform(0.1, 0.9)
    return p


def cli_roundtrip_setup(seed: int, workdir: Path, variants: int = CLI_VARIANTS) -> None:
    """Variant ``i`` fixes the structure that sets the cost (period kind,
    checkpoint count, failure mix); the seed draws the values within it."""
    rng = random.Random(seed)
    for i in range(variants):
        kind = ("fail_stop", "fail_slow")[i % 2]
        if i < 2:
            period = (WORKED_FAIL_STOP, WORKED_FAIL_SLOW)[i]
        else:
            period = _random_period(rng, kind, 1 + i % 5)
        mixture = {"mixture": [
            {"weight": rng.randint(1, 5), "period": _random_period(rng, k, rng.randint(1, 5))}
            for k in ("fail_stop", "fail_slow", kind)
        ]}
        stop = rng.uniform(1 / 200, 1 / 100)
        slow = stop * (0.0, 0.25, 0.5)[i % 3]
        sim = _sim_cfg(rng, stop_rate=stop, slow_rate=slow,
                       ckpt_interval=0.15 / stop * rng.uniform(0.95, 1.05),
                       dist=CLI_DISTS[i % 3],
                       total_work=CLI_SIM_PERIODS * 0.8 / (stop + slow))
        d = workdir / f"v{i:02d}"
        d.mkdir()
        _write_json(d / "period.json", period)
        _write_json(d / "mixture.json", mixture)
        _write_json(d / "sim.json", sim)
        _write_json(d / "compare.json", {"seed": rng.getrandbits(32)})


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``torkit.cli.main`` call with stdout and stderr captured."""
    import torkit.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = torkit.cli.main(argv)
        except SystemExit as e:       # argparse rejects bad arguments this way
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def _cli_json(result: tuple[int, str]) -> tuple[dict | None, list[str]]:
    code, out = result
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError:
        return None, ["stdout is not JSON"]


def _check_analytic(result, period: dict) -> list[str]:
    out, problems = _cli_json(result)
    if out is None:
        return problems
    expected = period_tor(period)
    if period in (WORKED_FAIL_STOP, WORKED_FAIL_SLOW):
        expected = WORKED_TOR[period["kind"]]
    if not _close(out["tor"], expected, TOR_TOL):
        problems.append(f"analytic TOR {out['tor']!r}, expected {expected!r}")
    opt, obs = _period_times(period)
    problems += _check_breakdown(out["stage_breakdown"], obs, opt)
    return problems


def _check_mixture(result, mixture: dict) -> list[str]:
    out, problems = _cli_json(result)
    if out is None:
        return problems
    comps = mixture["mixture"]
    total = math.fsum(c["weight"] for c in comps)
    weighted = math.fsum(c["weight"] * period_tor(c["period"]) for c in comps) / total
    times = [(c["weight"], *_period_times(c["period"])) for c in comps]
    composite = (math.fsum(w * opt for w, opt, _ in times)
                 / math.fsum(w * obs for w, _, obs in times))
    if not _close(out["tor"], weighted, TOR_TOL):
        problems.append(f"weighted mixture TOR {out['tor']!r}, expected {weighted!r}")
    if not _close(out.get("tor_time_composite", math.nan), composite, TOR_TOL):
        problems.append(f"composite mixture TOR {out.get('tor_time_composite')!r}, "
                        f"expected {composite!r}")
    return problems


def _check_simulate(result, sim: dict, trace_path: Path, csv_path: Path) -> list[str]:
    out, problems = _cli_json(result)
    if out is None:
        return problems
    first = out["first_result"]
    summary = dict(out, first=first)
    problems += _check_mc(summary, CLI_SIM_REPLICATIONS, sim)
    if first is None:
        return problems
    n_events = sum(1 for line in trace_path.read_text().splitlines() if line.strip())
    rows = csv_path.read_text().splitlines()
    if rows[0] != "t_start,t_end,rate,stage":
        problems.append(f"bad CSV header {rows[0]!r}")
    if len(rows) - 1 != n_events or n_events == 0:
        problems.append(f"CSV has {len(rows) - 1} rows, trace has {n_events} events")
    else:
        t_end = float(rows[-1].split(",")[1])
        if not _close(t_end, first["t_obs"], WORK_RTOL * first["t_obs"]):
            problems.append(f"CSV ends at {t_end!r}, t_obs is {first['t_obs']!r}")
    return problems


def _check_trace_cli(result, sim_result: dict) -> list[str]:
    out, problems = _cli_json(result)
    if out is None:
        return problems
    first = sim_result.get("first_result")
    if first is None:
        return ["no simulation to compare against"]
    if out["tor"] != first["tor"]:
        problems.append(f"trace TOR {out['tor']!r} != simulated TOR {first['tor']!r}")
    if out["t_obs"] != first["t_obs"]:
        problems.append(f"trace t_obs {out['t_obs']!r} != simulated t_obs {first['t_obs']!r}")
    problems += _check_breakdown(out["stage_breakdown"], out["t_obs"], out["t_opt"])
    return problems


def _check_compare(result, period: dict, deterministic: bool) -> list[str]:
    out, problems = _cli_json(result)
    if out is None:
        return problems
    if not _close(out["analytic_tor"], period_tor(period), TOR_TOL):
        problems.append(f"analytic TOR {out['analytic_tor']!r}, expected {period_tor(period)!r}")
    sim = out["simulated_tor"]
    if deterministic:
        for key in ("delta_sim_vs_analytic", "delta_realized_vs_analytic"):
            if not abs(out[key]) <= DET_TOL:
                problems.append(f"{key} = {out[key]!r} exceeds {DET_TOL}")
    else:
        # No gate on stochastic sim against analytic: the gap is a model question.
        lo, hi = out["simulated_ci95"]
        if not (0.0 < sim <= 1.0 and lo <= sim <= hi and out["simulated_std"] >= 0.0):
            problems.append(f"simulated TOR {sim!r} outside (0, 1] or its ci95 [{lo!r}, {hi!r}]")
    if not _close(out["delta_sim_vs_analytic"], sim - out["analytic_tor"], TOR_TOL):
        problems.append("delta_sim_vs_analytic != simulated - analytic")
    if out["complete_periods"] < 1:
        problems.append("no complete periods")
    return problems


def cli_roundtrip_load(workdir: Path) -> Pass:
    ops = []
    # The trace check compares against the simulate result of the same cycle;
    # ops run in order, so the simulate op stores its parsed output here.
    last_sim: dict = {}
    for d in sorted(workdir.glob("v*")):
        period = _read_json(d / "period.json")
        mixture = _read_json(d / "mixture.json")
        sim = _read_json(d / "sim.json")
        seed = _read_json(d / "compare.json")["seed"]
        trace_path, csv_path = d / "emitted.jsonl", d / "emitted.csv"

        def sim_check(r, sim=sim, tp=trace_path, cp=csv_path):
            out, _ = _cli_json(r)
            last_sim.clear()
            last_sim.update(out or {})
            return _check_simulate(r, sim, tp, cp)

        cycle = [
            ("cli.analytic", ["analytic", str(d / "period.json"), "--json"],
             lambda r, p=period: _check_analytic(r, p),
             lambda o: [o["tor"]]),
            ("cli.analytic", ["analytic", str(d / "mixture.json"), "--composite", "--json"],
             lambda r, m=mixture: _check_mixture(r, m),
             lambda o: [o["tor"], o["tor_time_composite"]]),
            ("cli.simulate", ["simulate", str(d / "sim.json"), "--replications",
                              str(CLI_SIM_REPLICATIONS), "--emit-trace", str(trace_path),
                              "--emit-csv", str(csv_path), "--json"],
             sim_check,
             lambda o: o["tors"]),
            ("cli.trace", ["trace", str(trace_path), "--json"],
             lambda r: _check_trace_cli(r, last_sim),
             lambda o: [o["tor"]]),
            ("cli.compare", ["compare", str(d / "period.json"), "--deterministic",
                             "--periods", str(CLI_DET_PERIODS), "--json"],
             lambda r, p=period: _check_compare(r, p, True),
             lambda o: [o["analytic_tor"], o["simulated_tor"]]),
            ("cli.compare", ["compare", str(d / "period.json"), "--periods",
                             str(CLI_COMPARE_PERIODS), "--replications",
                             str(CLI_COMPARE_REPLICATIONS), "--seed", str(seed), "--json"],
             lambda r, p=period: _check_compare(r, p, False),
             lambda o: [o["analytic_tor"], o["simulated_tor"]]),
        ]
        for kind, argv, check, tors in cycle:
            ops.append(Op(
                kind=kind,
                run=lambda argv=argv: run_cli(argv),
                check=check,
                tors=lambda r, tors=tors: tors(json.loads(r[1])) if r[0] == 0 else [],
            ))
    largest = max((_read_json(d / "sim.json") for d in workdir.glob("v*")),
                  key=lambda cfg: cfg["total_work"])
    return Pass(ops, largest, lambda: _simulated_triples(largest))


# ---------------------------------------------------------------------------

WORKLOADS = {
    "mc_sweep": (mc_sweep_setup, mc_sweep_load),
    "trace_fleet": (trace_fleet_setup, trace_fleet_load),
    "cli_roundtrip": (cli_roundtrip_setup, cli_roundtrip_load),
}
