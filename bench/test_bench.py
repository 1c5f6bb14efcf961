"""Tests of the benchmark itself: tiny workloads, failure counting, hook hygiene.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "mc_sweep": {"cost_levels": {"periods": (5, 10), "ckpt_frac": (0.2,), "slow_share": (0, 0.5)},
                 "long_jobs": (("exponential", 40),)},
    "trace_fleet": {"traces": 6, "events": (50, 200)},
    "cli_roundtrip": {"variants": 3},
}


def _tiny_pass(name, tmp_path, seed=5):
    setup, load = workloads.WORKLOADS[name]
    setup(seed, tmp_path, **TINY[name])
    return load(tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_has_no_failures(name, tmp_path):
    bench_pass = _tiny_pass(name, tmp_path)
    loop = run.Loop(bench_pass.ops)
    tors = []
    loop.run_pass(tors)
    loop.run_pass()
    assert loop.problems == []
    assert loop.failed == 0 and loop.attempted == 2 * len(bench_pass.ops)
    assert tors and all(0.0 < t <= 1.0 for t in tors)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    setup = workloads.WORKLOADS[name][0]
    setup(3, a, **TINY[name])
    setup(3, b, **TINY[name])
    assert workloads.inputs_digest(a) == workloads.inputs_digest(b)


def test_corrupted_tor_counts_as_failed(tmp_path):
    bench_pass = _tiny_pass("trace_fleet", tmp_path)
    op = bench_pass.ops[0]
    honest = op.run

    def corrupted():
        n_events, rep = honest()
        rep["tor"] = rep["tor"] * (1 + 1e-12)
        return n_events, rep

    op.run = corrupted
    loop = run.Loop(bench_pass.ops)
    loop.run_pass()
    assert loop.failed == 1
    assert "TOR" in loop.problems[0]


def test_raising_and_nonzero_exit_count_as_failed(tmp_path):
    bench_pass = _tiny_pass("cli_roundtrip", tmp_path)
    ops = bench_pass.ops[:1]
    (tmp_path / "v00" / "period.json").write_text('{"kind": "fail_stop", "t_sr": null}')

    def boom():
        raise RuntimeError("boom")

    ops.append(workloads.Op("raises", boom, lambda r: [], lambda r: []))
    loop = run.Loop(ops)
    loop.run_pass()
    assert loop.failed == 2 and loop.attempted == 2


def test_wrong_analytic_tor_is_caught():
    period = dict(workloads.WORKED_FAIL_STOP)
    breakdown = {"HealthyRun": {"time": 100.0, "lost_time": 0.0}}
    out = json.dumps({"tor": 91 / 110 + 1e-9, "stage_breakdown": breakdown})
    assert any("analytic TOR" in p for p in workloads._check_analytic((0, out), period))


def _torkit_attributes():
    import torkit
    import torkit.cli

    mods = [m for n, m in sorted(sys.modules.items()) if n == "torkit" or n.startswith("torkit.")]
    return {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}


def test_traced_run_restores_every_attribute(tmp_path):
    bench_pass = _tiny_pass("cli_roundtrip", tmp_path)
    before = _torkit_attributes()
    loop = run.Loop(bench_pass.ops)
    metrics, missing = run.traced_phase(loop, 0.0, tmp_path / "spans.jsonl")
    assert _torkit_attributes() == before
    assert missing == []
    assert loop.failed == 0
    assert set(spans.LAYER_METRICS) - {"model.segment_build_us", "simulator.alloc_peak_mb"} \
        == set(metrics)
    assert metrics["cli.simulate.calls"] == 3 and metrics["cli.nonzero_exits"] == 0
    assert metrics["simulator.segments"] > 0 and metrics["analytic.calls"] > 0
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert {"name", "start", "end", "parent", "op"} <= json.loads(lines[0]).keys()


def test_missing_hook_is_reported_by_name(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + [("torkit.trace", "no_such_function", None)])
    with spans.Hooks(spans.Recorder()) as hooks:
        pass
    assert hooks.missing == ["torkit.trace.no_such_function"]


def test_failing_boundary_count_never_fails_the_call(monkeypatch):
    import torkit

    def broken(args, kwargs, result):
        raise AttributeError("result has no timeline")

    monkeypatch.setattr(spans, "HOOKS", [("torkit.analytic", "tor_of_period", broken)])
    recorder = spans.Recorder()
    with spans.Hooks(recorder):
        tor = torkit.analytic.tor_of_period(torkit.FailStopPeriod(t_h=1.0, t_r=1.0))
    assert tor == 0.5
    assert recorder.uncounted == {"analytic.tor_of_period"}


def test_self_time_excludes_children():
    spn = [("a.x", 0.0, 10.0, -1, 0, None, None),
           ("b.y", 1.0, 4.0, 0, 0, None, None),
           ("b.z", 2.0, 3.0, 1, 0, None, None)]
    assert spans._self_times(spn) == [7.0, 2.0, 1.0]


def test_probes(tmp_path):
    bench_pass = _tiny_pass("mc_sweep", tmp_path)
    assert spans.segment_build_us(bench_pass.probe_triples()) > 0
    assert spans.alloc_peak_mb(bench_pass.probe_cfg) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
