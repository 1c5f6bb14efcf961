import json

import pytest

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

    @pytest.mark.parametrize("field, value", [("t_sr", None), ("n_ckpt", True)])
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
