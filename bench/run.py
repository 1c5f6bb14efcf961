"""torkit benchmark: closed loop, one client, one process.

Usage, from the repository root:

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each run sets up the workload's inputs from ``--seed`` several times, each
time in a fresh child process (``setup_s`` is the median), then imports
torkit from ``src/`` in this process, runs one checked warm-up pass over the
inputs and then whole passes until ``--seconds`` have elapsed. The next
operation starts when the previous one returns. Times are scaled to a
reference machine speed measured by :func:`calibrate` between operations.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, which
alternates untraced and traced passes (see ``spans.py``). Full results with
provenance go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("mc_sweep", "trace_fleet", "cli_roundtrip")
SETUPS = 5                 # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 150
# The machines this runs on switch between speed regimes lasting seconds: the
# same Python runs up to twice as slowly in the slow one, with no steal time
# visible to the guest. Every reported time is therefore scaled to the
# machine speed at which calibrate() takes CAL_REF_S (the fast regime of a
# 2-vCPU 2.0 GHz VM), using a calibration taken at most CAL_EVERY_S before.
# Unscaled times are kept in the result file.
CAL_REF_S = 0.0012
CAL_EVERY_S = 0.03
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "failed_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def check_sources() -> None:
    if not (SRC / "torkit" / "__init__.py").is_file():
        raise BenchError(f"torkit sources not found under {SRC}")


def import_torkit():
    """Import torkit from this checkout's ``src/`` and nowhere else."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import torkit

    if Path(torkit.__file__).resolve().parent != (SRC / "torkit").resolve():
        raise BenchError(f"imported torkit from {torkit.__file__}, not from {SRC}")
    return torkit


# ---------------------------------------------------------------------------
# set-up, in child processes

def setup_child(workload: str, seed: int, workdir: Path) -> None:
    """Child process: generate the inputs, print set-up time and input digest."""
    import shutil

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cal_before = calibrate()
    start = time.perf_counter()
    import_torkit()
    import workloads

    workloads.WORKLOADS[workload][0](seed, workdir)
    elapsed = time.perf_counter() - start
    scale = CAL_REF_S / ((cal_before + calibrate()) / 2)
    print(json.dumps({"setup_s": elapsed * scale, "raw_s": elapsed,
                      "digest": workloads.inputs_digest(workdir)}))


def run_setups(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float], str]:
    times, raw, digests = [], [], set()
    for _ in range(SETUPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-into", str(workdir)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up of {workload} failed:\n{proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(out["setup_s"])
        raw.append(out["raw_s"])
        digests.add(out["digest"])
    if len(digests) != 1:
        raise BenchError(f"set-ups with seed {seed} wrote different inputs")
    return times, raw, digests.pop()


# ---------------------------------------------------------------------------
# machine speed

class _Point:
    __slots__ = ("t", "rate")

    def __init__(self, t, rate):
        self.t = t
        self.rate = rate


def _reference_work(n: int = 3000) -> float:
    """Fixed pure-Python work like torkit's: floats, small objects, lists, dicts."""
    acc = 0.0
    seen: dict[int, float] = {}
    pts = []
    for i in range(n):
        p = _Point(i * 0.5, (i & 7) / 8)
        acc += p.t * p.rate - acc * 1e-9
        seen[i & 127] = acc
        pts.append(p)
        if len(pts) == 64:
            pts.clear()
    return acc


def calibrate() -> float:
    """Seconds for the reference work, the faster of two runs."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# the closed loop

class Loop:
    """Runs passes of operations one at a time and keeps every latency."""

    def __init__(self, ops):
        self.ops = ops
        self.recorder = None                 # set for traced passes
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_id = 0
        self.cal_at = -math.inf
        self.pass_cals: list[float] = []     # calibrations of the last pass
        self.raw_busy: list[float] = []      # unscaled busy seconds per pass

    def _calibrate(self) -> float:
        cal = calibrate()
        self.cal_at = time.perf_counter()
        self.pass_cals.append(cal)
        return cal

    def run_pass(self, tors: list[float] | None = None) -> list[float]:
        """One pass; returns each operation's latency scaled to CAL_REF_S speed.

        Calibrations bracket every stretch of at most CAL_EVERY_S; the
        operations of a stretch are scaled by the mean of the two.
        """
        raw: list[float] = []
        latencies: list[float] = []
        self.pass_cals = []
        cal = self._calibrate()

        def scale_stretch(cal_end: float) -> None:
            factor = CAL_REF_S / ((cal + cal_end) / 2)
            latencies.extend(x * factor for x in raw[len(latencies):])

        for op in self.ops:
            if time.perf_counter() - self.cal_at >= CAL_EVERY_S:
                cal_end = self._calibrate()
                scale_stretch(cal_end)
                cal = cal_end
            if self.recorder is not None:
                self.recorder.op_id = self.op_id
            self.op_id += 1
            start = time.perf_counter()
            try:
                result = op.run()
                problems = None
            except Exception as e:  # an operation that raises counts as failed
                problems = [f"raised {type(e).__name__}: {e}"]
            raw.append(time.perf_counter() - start)
            if problems is None:
                try:
                    problems = op.check(result)
                    if tors is not None:
                        tors.extend(op.tors(result))
                except Exception as e:  # a malformed result fails its check
                    problems = [f"check raised {type(e).__name__}: {e}"]
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op.kind}: {'; '.join(problems)}")
        scale_stretch(self._calibrate())
        self.raw_busy.append(sum(raw))
        return latencies


def tor_digest(tors: list[float]) -> str:
    return hashlib.sha256(json.dumps([float.hex(t) for t in tors]).encode()).hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def timed_phase(loop: Loop, seconds: float) -> dict:
    """Whole passes until ``seconds`` have elapsed.

    Each pass repeats the same operations, so every operation gets one
    latency per pass; its latency is the median over passes. p50 and p90 are
    taken over the operations of a pass, and ``ops_per_s`` is the median over
    passes of operations per busy second.
    """
    passes: list[list[float]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(loop.run_pass())
    per_op = [statistics.median(lats) for lats in zip(*passes)]
    p90 = percentile(per_op, 90)
    by_kind: dict[str, list[float]] = {}
    for op, lat in zip(loop.ops, per_op):
        by_kind.setdefault(op.kind, []).append(lat)
    return {
        "passes": len(passes),
        "ops": len(passes) * len(per_op),
        "wall_s": time.perf_counter() - start,
        "pass_busy_s": [sum(lats) for lats in passes],
        "pass_busy_unscaled_s": loop.raw_busy[-len(passes):],
        "latency_samples": len(per_op),
        "samples_beyond_p90": sum(x > p90 for x in per_op),
        "ops_by_kind": {k: {"ops_per_pass": len(v), "p50_ms": statistics.median(v) * 1e3}
                        for k, v in by_kind.items()},
        "ops_per_s": statistics.median(len(lats) / sum(lats) for lats in passes),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": p90 * 1e3,
    }


def traced_phase(loop: Loop, seconds: float, spans_path: Path) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    import spans

    recorder = spans.Recorder()
    loop.recorder = recorder
    untraced, traced, per_pass = [], [], []
    missing: list[str] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(sum(loop.run_pass()))
        first = len(recorder.spans)
        with spans.Hooks(recorder) as hooks:
            traced.append(sum(loop.run_pass()))
        missing = hooks.missing
        metrics = spans.pass_metrics(
            [(n, s, e, p - first if p >= 0 else -1, *rest)
             for n, s, e, p, *rest in recorder.spans[first:]])
        scale = CAL_REF_S / statistics.median(loop.pass_cals)
        per_pass.append({k: v * scale if spans.LAYER_METRICS[k][0] in ("s", "ms", "us") else v
                         for k, v in metrics.items()})
    loop.recorder = None
    missing += [f"{name} (count)" for name in sorted(recorder.uncounted)]
    recorder.write(spans_path)
    metrics = spans.combine_passes(per_pass)
    metrics["bench.tracing_overhead"] = statistics.median(traced) / statistics.median(untraced) - 1
    return metrics, missing


# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import resource

    check_sources()
    workdir = WORK_DIR / workload
    setup_times, setup_raw, inputs_digest = run_setups(workload, seed, workdir)

    import_torkit()
    import spans
    import workloads

    bench_pass = workloads.WORKLOADS[workload][1](workdir)
    loop = Loop(bench_pass.ops)
    tors: list[float] = []
    loop.run_pass(tors)                       # warm-up, checked; fixes the TOR digest

    result = {
        "workload": workload,
        "provenance": provenance(seed),
        "setups": len(setup_times),
        "setup_times_s": setup_times,
        "setup_times_unscaled_s": setup_raw,
        "inputs_digest": inputs_digest,
        "ops_per_pass": len(bench_pass.ops),
        "tor_digest": tor_digest(tors),
        "tors_in_digest": len(tors),
    }
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        spans_path = OUT_DIR / f"spans-{workload}-s{seed}.jsonl"
        layers, missing = traced_phase(loop, seconds, spans_path)
        triples = bench_pass.probe_triples()
        cal = calibrate()
        build_us = spans.segment_build_us(triples)
        if build_us is None:
            missing.append("torkit.model.RateTimeline.build")
            build_us = 0.0
        layers["model.segment_build_us"] = build_us * CAL_REF_S / ((cal + calibrate()) / 2)
        layers["simulator.alloc_peak_mb"] = spans.alloc_peak_mb(bench_pass.probe_cfg)
        result.update(unhooked=missing, spans_file=str(spans_path.relative_to(ROOT)),
                      metrics={k: layers[k] for k in spans.LAYER_METRICS},
                      moves={k: v[2] for k, v in spans.LAYER_METRICS.items()})
    else:
        phase = timed_phase(loop, seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(phase)
        result["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": phase["ops_per_s"],
            "op_p50_ms": phase["op_p50_ms"],
            "op_p90_ms": phase["op_p90_ms"],
            "peak_rss_mb": peak_kb / 1024,
        }
    result.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems)
    result["failed_ratio"] = loop.failed / loop.attempted
    (OUT_DIR / f"{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def print_result(res: dict) -> None:
    prov = res["provenance"]
    print(f"workload {res['workload']}  seed {prov['seed']}  sha {prov['git_sha']}  "
          f"nproc {prov['nproc']}  python {prov['python']}  numpy {prov['numpy']}")
    if "passes" in res:
        print(f"  {res['ops']} ops in {res['passes']} passes of {res['ops_per_pass']}; "
              f"p50 and p90 over {res['latency_samples']} per-operation medians, "
              f"{res['samples_beyond_p90']} beyond p90")
    if res.get("unhooked"):
        print(f"  unhooked: {', '.join(res['unhooked'])}")
    for name, value in res["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")
    print(f"  {'failed_ratio':<34} {res['failed_ratio']:>14.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    print(f"  tor_digest {res['tor_digest'][:16]} over {res['tors_in_digest']} TORs")
    for p in res["problems"]:
        print(f"  FAILED {p}")


def unit_of(metric: str) -> str:
    import spans

    return UNITS.get(metric) or spans.LAYER_METRICS[metric][0]


def last_line(res: dict) -> dict:
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in res["metrics"].items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so each has its own memory peak."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 60, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {w} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        out = json.loads(lines[-1])
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in out["metrics"].items()})
    return combined


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_into is not None:
            setup_child(args.workload, args.seed, args.setup_into)
            return 0
        if args.workload == "all":
            print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace))))
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print_result(res)
    print(json.dumps(last_line(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
