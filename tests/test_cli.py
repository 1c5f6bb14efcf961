import hashlib
import json
import os
import subprocess
import sys
import threading

import pytest

import torkit.cli
from torkit.cli import main
from torkit.model import period_from_dict
from torkit.simulator import config_from_period

WORKED_FAIL_STOP = {
    "kind": "fail_stop",
    "t_sr": 2, "r_sr": 0.5, "t_h": 90, "n_ckpt": 3, "t_ckpt": 1, "t_rb": 5, "t_r": 10,
}
WORKED_FAIL_SLOW = {
    "kind": "fail_slow",
    "t_sr": 2, "r_sr": 0.5, "t_h": 90, "n_ckpt": 3, "t_ckpt": 1,
    "t_fs": 10, "r_fs": 0.4, "t_r": 5,
}
SIM_CONFIG = {
    "w_opt": 1.0, "total_work": 500, "ckpt_interval": 20, "t_ckpt": 1,
    "fail_stop_rate": 0.01, "fail_slow_rate": 0.0,
    "t_r_dist": {"kind": "fixed", "value": 5},
    "t_sr_dist": {"kind": "fixed", "value": 2},
    "t_fs_dist": {"kind": "fixed", "value": 0},
    "r_sr": 0.5, "r_fs": 0.0, "seed": 21,
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def period_file(tmp_path):
    return write_json(tmp_path / "period.json", WORKED_FAIL_STOP)


@pytest.fixture
def sim_file(tmp_path):
    return write_json(tmp_path / "sim.json", SIM_CONFIG)


@pytest.mark.parametrize("argv, config", [
    (["analytic"], 5),
    (["analytic"], "mixture"),
    (["simulate", "--seed", "1"], 5),
    (["simulate", "--seed", "1"], [1]),
], ids=["analytic-number", "analytic-string", "simulate-number", "simulate-list"])
def test_non_object_config_exit_code(tmp_path, capsys, argv, config):
    path = write_json(tmp_path / "c.json", config)
    assert main([argv[0], path, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "JSON object" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, config, message", [
    ("analytic", {"kind": "fail_stop", "t_h": 1e308, "t_r": 1e308},
     "period: fail-stop period duration exceeds the float range"),
    ("analytic", {"mixture": [{"weight": 1e308, "period": WORKED_FAIL_STOP}] * 2},
     "mixture total weight exceeds the float range"),
    ("analytic", {"mixture": [{"weight": 1, "period": {"kind": "fail_stop", "t_h": 1e308}}] * 2},
     "mixture weighted duration exceeds the float range"),
    ("analytic", {"mixture": [{"weight": 1, "period": WORKED_FAIL_STOP}], "junk": 1},
     "mixture file: unknown fields ['junk']"),
    ("analytic", {"mixture": [{"weight": 1, "period": WORKED_FAIL_STOP, "junk": 1}]},
     "mixture component 0: unknown fields ['junk']"),
    ("analytic", {"mixture": [{"weight": 1, "period": dict(WORKED_FAIL_STOP, junk=1)}]},
     "mixture component 0 period: unknown fields ['junk']"),
    ("simulate", dict(SIM_CONFIG, t_r_dist={"kind": "fixed", "value": 5, "junk": 1}),
     "sim config: t_r_dist: unknown fields ['junk']"),
    ("simulate", dict(SIM_CONFIG, t_r_dist={"kind": "lognormal", "median": 1}),
     "sim config: t_r_dist: missing fields ['sigma']"),
    # total_work / w_opt underflows to 0, so the run has no entries.
    ("simulate", dict(SIM_CONFIG, w_opt=2.0, total_work=5e-324),
     "empty timeline: observed time is zero, TOR undefined"),
    # The first replication draws a repair beyond the float range.
    ("simulate", dict(SIM_CONFIG, t_r_dist={"kind": "exponential", "mean": 1e308}),
     "Exponential(mean=1e+308) drew a duration beyond the float range"),
    ("simulate", dict(SIM_CONFIG, t_r_dist={"kind": "lognormal", "median": 1e300, "sigma": 50}),
     "LogNormal(median=1e+300, sigma=50.0) drew a duration beyond the float range"),
    # Two finite repairs whose sum is beyond the float range.
    ("simulate", dict(SIM_CONFIG, t_r_dist={"kind": "fixed", "value": 1e308}),
     "observed time exceeds the float range, TOR undefined"),
], ids=[
    "duration-overflow", "weight-overflow", "weighted-duration-overflow",
    "mixture-unknown-key", "component-unknown-key", "component-period-unknown-key",
    "distribution-unknown-key", "distribution-missing-field", "empty-run",
    "exponential-draw-overflow", "lognormal-draw-overflow", "summed-overflow",
])
def test_rejected_config_exit_code(tmp_path, capsys, command, config, message):
    path = write_json(tmp_path / "c.json", config)
    assert main([command, path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_trace_sum_beyond_float_range_exit_code(tmp_path, capsys):
    # Each duration agrees with its span to 1e-9, but their sum overflows.
    span = 1.7976931348623157e308 - 1e308
    path = tmp_path / "t.jsonl"
    path.write_text(
        json.dumps({"t_start": 0, "t_end": 1e308, "stage": "HealthyRun", "rate": 1}) + "\n"
        + json.dumps({"t_start": 1e308, "t_end": 1.7976931348623157e308, "stage": "HealthyRun",
                      "rate": 1, "duration": span * (1 + 5e-10)}) + "\n")
    assert main(["trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: observed time exceeds the float range, TOR undefined\n"


def test_python_m_torkit(period_file):
    # The package runs as ``python -m torkit``, from outside the checkout.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "torkit", "analytic", period_file],
                          capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(period_file), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert "TOR:  0.827273" in done.stdout.splitlines()


def test_periods_beyond_float_range_exit_code(period_file, capsys):
    assert main(["compare", period_file, "--periods", "1" + "0" * 400]) == 2
    assert capsys.readouterr().err == "error: periods exceeds the float range\n"


@pytest.mark.parametrize("command, data, message", [
    ("analytic", b"\xff{}", "cannot read config"),
    ("analytic", b'{"kind": "fail_stop", "t_h": 1' + b"0" * 5000 + b"}", "is not valid JSON"),
    ("trace", b"\xff{}\n", "line 1: 'utf-8' codec can't decode"),
    ("trace", b'{"t_start": 0, "t_end": 1' + b"0" * 5000 + b"}\n", "line 1: Exceeds the limit"),
    ("analytic", b"[" * 100_000, "is not valid JSON: nested too deeply"),
    ("trace", b"[" * 100_000 + b"\n", "line 1: JSON nested too deeply"),
    ("trace", b'{"t_start": 0, "t_end": 1, "stage": "Repair", "rate": 0}\n' + b'{"a": ' * 100_000,
     "line 2: JSON nested too deeply"),
], ids=["config-not-utf8", "config-long-integer", "trace-not-utf8", "trace-long-integer",
        "config-too-deep", "trace-too-deep", "trace-too-deep-object"])
def test_undecodable_file_exit_code(tmp_path, capsys, command, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, option", [
    ("simulate", "--emit-trace"),
    ("simulate", "--emit-csv"),
    ("trace", "--csv"),
])
def test_unwritable_output_exit_code(sim_file, tmp_path, capsys, command, option):
    source = sim_file
    if command == "trace":
        source = str(tmp_path / "run.jsonl")
        assert main(["simulate", sim_file, "--quiet", "--emit-trace", source]) == 0
        capsys.readouterr()
    target = str(tmp_path / "missing" / "out")
    assert main([command, source, option, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and len(err.splitlines()) == 1


def test_unwritable_output_leaves_no_other_output(sim_file, tmp_path, capsys):
    trace_path = tmp_path / "a.jsonl"
    csv_path = tmp_path / "missing" / "b.csv"
    assert main(["simulate", sim_file, "--emit-trace", str(trace_path),
                 "--emit-csv", str(csv_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {csv_path}: ")
    assert not trace_path.exists()
    # An output file that was there before is left as it was.
    trace_path.write_text("kept\n")
    assert main(["simulate", sim_file, "--emit-trace", str(trace_path),
                 "--emit-csv", str(csv_path)]) == 2
    assert trace_path.read_text() == "kept\n"


def test_one_file_for_both_outputs(sim_file, tmp_path, capsys, monkeypatch):
    def not_run(*args):
        raise AssertionError("simulated before the output paths were checked")

    monkeypatch.setattr("torkit.cli.monte_carlo", not_run)
    (tmp_path / "sub").mkdir()
    out = tmp_path / "out"
    for other in (out, tmp_path / "sub" / ".." / "out"):
        assert main(["simulate", sim_file, "--emit-trace", str(out),
                     "--emit-csv", str(other)]) == 2
        assert capsys.readouterr().err == (
            f"error: --emit-trace and --emit-csv name the same file: {other}\n")
        assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_emit_trace_to_fifo(sim_file, tmp_path, capsys, monkeypatch):
    # A FIFO output is opened once. Opening and closing it beforehand would
    # give its reader end of input, and the real write would then block with
    # no reader.
    regular = tmp_path / "a.jsonl"
    assert main(["simulate", sim_file, "--emit-trace", str(regular)]) == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    opened = []

    def spy_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(torkit.cli, "open", spy_open, raising=False)
    received, codes = [], []

    def read_fifo():
        with open(fifo, "rb") as f:
            received.append(f.read())

    reader = threading.Thread(target=read_fifo, daemon=True)
    reader.start()
    writer = threading.Thread(
        target=lambda: codes.append(main(["simulate", sim_file, "--emit-trace", str(fifo)])),
        daemon=True)
    writer.start()
    writer.join(timeout=30)
    if writer.is_alive():  # blocked opening the FIFO: give it a reader, then fail
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        pytest.fail("simulate blocked writing to a FIFO")
    reader.join(timeout=30)
    assert codes == [0]
    assert opened.count(str(fifo)) == 1
    assert received == [regular.read_bytes()]


def test_main_runs_the_current_command_attribute(monkeypatch):
    calls = []

    def fake_trace(args):
        calls.append(args.input)
        return 7

    monkeypatch.setattr(torkit.cli, "cmd_trace", fake_trace)
    assert main(["trace", "a.jsonl"]) == 7
    assert main(["trace", "b.jsonl"]) == 7
    assert calls == ["a.jsonl", "b.jsonl"]


def test_main_repeats_every_command(period_file, sim_file, tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    for argv in (
        ["analytic", period_file],
        ["simulate", sim_file, "--replications", "2", "--emit-trace", str(trace_path)],
        ["trace", str(trace_path), "--json"],
        ["compare", period_file, "--periods", "20", "--replications", "3"],
    ):
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out


class TestAnalytic:
    def test_worked_period_text(self, period_file, capsys):
        assert main(["analytic", period_file]) == 0
        out = capsys.readouterr().out
        assert "TOR:  0.827273" in out
        assert "MTBF: 100.000000 s" in out

    def test_json_full_precision(self, period_file, capsys):
        assert main(["analytic", period_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tor"] == 91 / 110
        assert data["mtbf"] == 100.0

    def test_mixture_with_composite(self, tmp_path, capsys):
        path = write_json(tmp_path / "mix.json", {"mixture": [
            {"weight": 1, "period": WORKED_FAIL_STOP},
            {"weight": 1, "period": WORKED_FAIL_SLOW},
        ]})
        assert main(["analytic", path, "--composite", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tor"] == pytest.approx((91 / 110 + 95 / 110) / 2, abs=1e-12)
        assert data["tor_time_composite"] == pytest.approx(186 / 220, abs=1e-12)

    def test_zero_weight_is_validation_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "mix.json", {"mixture": [
            {"weight": 0, "period": WORKED_FAIL_STOP},
        ]})
        assert main(["analytic", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_field_message(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", dict(WORKED_FAIL_STOP, r_sr=2.0))
        assert main(["analytic", path]) == 2
        assert "r_sr" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analytic", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("t_sr", None),
        ("n_ckpt", True),
        pytest.param("n_ckpt", 10**400, id="n_ckpt-beyond-float"),
    ])
    def test_malformed_field_exit_code(self, tmp_path, capsys, field, value):
        path = write_json(tmp_path / "p.json", dict(WORKED_FAIL_STOP, **{field: value}))
        assert main(["analytic", path]) == 2
        assert field in capsys.readouterr().err


class TestSimulate:
    def test_failure_free(self, tmp_path, capsys):
        cfg = dict(SIM_CONFIG, fail_stop_rate=0.0, t_ckpt=0)
        path = write_json(tmp_path / "sim.json", cfg)
        assert main(["simulate", path, "--replications", "3"]) == 0
        out = capsys.readouterr().out
        assert "mean TOR: 1.000000" in out
        assert "stddev:   0.000000" in out

    def test_same_seed_identical_output(self, sim_file, capsys):
        assert main(["simulate", sim_file, "--replications", "4", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", sim_file, "--replications", "4", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_emit_trace_and_csv(self, sim_file, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        csv_path = tmp_path / "run.csv"
        assert main([
            "simulate", sim_file,
            "--emit-trace", str(trace_path), "--emit-csv", str(csv_path),
        ]) == 0
        assert trace_path.exists() and csv_path.exists()
        assert csv_path.read_text().splitlines()[0] == "t_start,t_end,rate,stage"

    def test_first_result_labelled_with_its_replication(self, tmp_path, capsys):
        # Replications 0, 1 and 3 of this config diverge; 2 is the first to finish.
        cfg = dict(SIM_CONFIG, total_work=60.0, ckpt_interval=5.0, t_ckpt=1.0,
                   fail_stop_rate=0.3, t_r_dist={"kind": "fixed", "value": 0.5},
                   t_sr_dist={"kind": "fixed", "value": 0}, r_sr=0.0, seed=35,
                   watchdog_cycles=5)
        path = write_json(tmp_path / "sim.json", cfg)
        assert main(["simulate", path, "--replications", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "replications: 1 completed, 3 diverged" in lines
        assert [ln.split(":")[0] for ln in lines if ln.startswith("replication ")] == [
            "replication 2"
        ]

    def test_emitted_files_golden(self, sim_file, tmp_path, capsys):
        # sha256 of the files the README sim config emits, pinned before the
        # timeline became columnar; the trace's CSV equals the simulation's.
        trace_path, sim_csv, trace_csv = (tmp_path / n for n in ("run.jsonl", "sim.csv", "tr.csv"))
        assert main(["simulate", sim_file, "--quiet",
                     "--emit-trace", str(trace_path), "--emit-csv", str(sim_csv)]) == 0
        assert main(["trace", str(trace_path), "--quiet", "--csv", str(trace_csv)]) == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (trace_path, sim_csv, trace_csv)]
        assert digests == [
            "db7ebf0114a8a009667ecc6bf218ec6b45512badef67d24f20babbbce478538d",
            "b78cdbbef3a38be2e00d6f2b384bf5dfc71e7a0962f2d6be31d226b26f1bae67",
            "b78cdbbef3a38be2e00d6f2b384bf5dfc71e7a0962f2d6be31d226b26f1bae67",
        ]

    def test_diverged_exit_code(self, tmp_path, capsys):
        cfg = dict(SIM_CONFIG, fail_stop_rate=10.0, ckpt_interval=5.0,
                   t_sr_dist={"kind": "fixed", "value": 0}, r_sr=0.0,
                   watchdog_cycles=20)
        path = write_json(tmp_path / "sim.json", cfg)
        assert main(["simulate", path]) == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("period, means", [
        (WORKED_FAIL_STOP, {
            "kind": "fail_stop", "n_periods": 20, "t_sr": 1.9, "r_sr": 0.5, "t_h": 90.1,
            "ckpt_time": 3.0, "t_rb": 4.99999999999991, "t_fs": 0.0, "r_fs": 0.0, "t_r": 10.0,
        }),
        (WORKED_FAIL_SLOW, {
            "kind": "fail_slow", "n_periods": 20, "t_sr": 1.9, "r_sr": 0.5, "t_h": 90.15,
            "ckpt_time": 3.0, "t_rb": 0.0, "t_fs": 10.0, "r_fs": 0.4, "t_r": 5.0,
        }),
    ])
    def test_period_means_golden(self, tmp_path, capsys, period, means):
        # Exact values (shortest reprs) of the deterministic run of a worked
        # period. The first period lacks the leading slow recovery, hence the
        # mean t_sr of 1.9.
        cfg = config_from_period(period_from_dict(period), periods=20, deterministic=True)
        path = write_json(tmp_path / "sim.json", cfg.to_dict())
        assert main(["simulate", path, "--json"]) == 0
        got = json.loads(capsys.readouterr().out)["first_result"]["period_means"]
        assert list(got) == list(means)
        assert got == means

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "sim.json", {"w_opt": 1.0})
        assert main(["simulate", path]) == 2

    @pytest.mark.parametrize("field, value", [
        ("w_opt", "1"),
        ("fail_stop_times", [10.0, "soon"]),
        ("seed", True),
    ])
    def test_malformed_field_exit_code(self, tmp_path, capsys, field, value):
        path = write_json(tmp_path / "sim.json", dict(SIM_CONFIG, **{field: value}))
        assert main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err


class TestTrace:
    def test_simulated_trace_matches_report(self, sim_file, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main(["simulate", sim_file, "--emit-trace", str(trace_path), "--json"]) == 0
        sim_out = json.loads(capsys.readouterr().out)
        sim_tor = sim_out["first_result"]["tor"]
        assert main(["trace", str(trace_path), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["tor"] - sim_tor) <= 1e-12

    @pytest.mark.parametrize("changes", [
        # A slow recovery below the spacing of the floats near its start
        # gives an event whose t_end equals its t_start.
        {"total_work": 5000, "t_sr_dist": {"kind": "fixed", "value": 1e-13}},
        # Far from 0, a 0.3 s event's span is 0.3 only to about 1e-8 s.
        {"total_work": 3e7, "ckpt_interval": 1e5, "fail_stop_rate": 1e-5,
         "t_sr_dist": {"kind": "fixed", "value": 0.3}},
    ], ids=["sub-ulp-stage", "long-run"])
    def test_emitted_trace_reads_back_exactly(self, tmp_path, capsys, changes):
        sim_file = write_json(tmp_path / "sim.json", dict(SIM_CONFIG, **changes))
        trace_path = tmp_path / "run.jsonl"
        assert main(["simulate", sim_file, "--emit-trace", str(trace_path), "--json"]) == 0
        sim = json.loads(capsys.readouterr().out)["first_result"]
        assert main(["trace", str(trace_path), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["tor"].hex(), rep["t_obs"].hex()) == (sim["tor"].hex(), sim["t_obs"].hex())

    def test_gap_exit_code_and_interval(self, tmp_path, capsys):
        trace_path = tmp_path / "bad.jsonl"
        trace_path.write_text(
            '{"t_start": 0, "t_end": 10, "stage": "HealthyRun", "rate": 1}\n'
            '{"t_start": 12, "t_end": 20, "stage": "HealthyRun", "rate": 1}\n'
        )
        assert main(["trace", str(trace_path)]) == 2
        assert "[10.0, 12.0)" in capsys.readouterr().err

    @pytest.mark.parametrize("trace", [
        # aware and naive events
        '{"wall_start": "2024-01-01T00:00:00+00:00", "wall_end": "2024-01-01T00:00:10+00:00",'
        ' "stage": "HealthyRun", "rate": 1}\n'
        '{"wall_start": "2024-01-01T00:00:10", "wall_end": "2024-01-01T00:00:20",'
        ' "stage": "HealthyRun", "rate": 1}\n',
        # aware start, naive end within one event
        '{"wall_start": "2024-01-01T00:00:00+00:00", "wall_end": "2024-01-01T00:00:10",'
        ' "stage": "HealthyRun", "rate": 1}\n',
    ])
    def test_mixed_timezone_awareness_exit_code(self, tmp_path, capsys, trace):
        trace_path = tmp_path / "tz.jsonl"
        trace_path.write_text(trace)
        assert main(["trace", str(trace_path)]) == 2
        assert "timezone" in capsys.readouterr().err

    def test_healthy_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "ok.jsonl"
        trace_path.write_text('{"t_start": 0, "t_end": 30, "stage": "HealthyRun", "rate": 1}\n')
        assert main(["trace", str(trace_path), "--quiet"]) == 0
        assert "TOR: 1.000000" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        trace_path = tmp_path / "ok.jsonl"
        trace_path.write_text('{"t_start": 0, "t_end": 30, "stage": "HealthyRun", "rate": 1}\n')
        csv_path = tmp_path / "tl.csv"
        assert main(["trace", str(trace_path), "--csv", str(csv_path)]) == 0
        assert "HealthyRun" in csv_path.read_text()


class TestCompare:
    def test_deterministic_columns_agree(self, period_file, capsys):
        assert main(["compare", period_file, "--deterministic", "--periods", "20",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["simulated_tor"] - data["analytic_tor"]) <= 1e-9
        assert abs(data["realized_means_tor"] - data["analytic_tor"]) <= 1e-9

    def test_failure_free_period(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", {"kind": "fail_stop", "t_h": 100})
        # No failures to schedule: a single "period" is the whole run.
        assert main(["compare", path, "--deterministic", "--periods", "5"]) == 2

    def test_stochastic_close_to_analytic(self, period_file, capsys):
        assert main(["compare", period_file, "--replications", "30",
                     "--periods", "150", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # With random arrivals the rollback waste averages about half a
        # checkpoint interval rather than the fixed t_rb of the spec, so the
        # simulated TOR sits below the analytic value; the realized-means
        # closed form must track the simulation itself.
        assert data["simulated_tor"] < data["analytic_tor"]
        assert abs(data["simulated_tor"] - data["realized_means_tor"]) <= 0.05
        assert data["complete_periods"] > 50
        assert data["delta_sim_vs_analytic"] == pytest.approx(
            data["simulated_tor"] - data["analytic_tor"], abs=1e-15
        )

    def test_replications_reported(self, period_file, capsys):
        assert main(["compare", period_file, "--periods", "20", "--replications", "7",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["completed"] + data["diverged"] == 7
        assert main(["compare", period_file, "--periods", "20", "--replications", "7"]) == 0
        assert (f"replications:                 {data['completed']} completed, "
                f"{data['diverged']} diverged") in capsys.readouterr().out

    def test_no_checkpoints_with_huge_stage_times(self, tmp_path, capsys):
        # Without checkpoints the run must not schedule any, however long it is.
        path = write_json(tmp_path / "p.json", {"kind": "fail_slow", "t_h": 1e300,
                                                "t_fs": 1e300, "r_fs": 0.5, "t_r": 1})
        assert main(["compare", path, "--periods", "5", "--replications", "2"]) == 0

    def test_json_parses_for_every_command(self, period_file, sim_file, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        for argv in (
            ["analytic", period_file, "--json"],
            ["simulate", sim_file, "--emit-trace", str(trace_path), "--json"],
            ["trace", str(trace_path), "--json"],
            ["compare", period_file, "--periods", "50", "--replications", "5", "--json"],
        ):
            assert main(argv) == 0
            json.loads(capsys.readouterr().out)
