import contextlib
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import threading

import pytest

from conftest import counted_runs
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


@pytest.mark.parametrize("argv, config, message", [
    ("analytic", {"kind": "fail_stop", "t_h": 1e308, "t_r": 1e308},
     "period: fail-stop period duration exceeds the float range"),
    ("analytic", {"mixture": [{"weight": 1e308, "period": WORKED_FAIL_STOP}] * 2},
     "mixture file: mixture total weight exceeds the float range"),
    ("analytic", {"mixture": [{"weight": 1, "period": {"kind": "fail_stop", "t_h": 1e308}}] * 2},
     "mixture file: mixture weighted duration exceeds the float range"),
    ("analytic", {"mixture": [{"weight": 1, "period": WORKED_FAIL_STOP}], "junk": 1},
     "mixture file: unknown fields ['junk']"),
    ("analytic", {"mixture": [{"weight": 1, "period": WORKED_FAIL_STOP, "junk": 1}]},
     "mixture file: component 0: unknown fields ['junk']"),
    ("analytic", {"mixture": [{"weight": 1, "period": dict(WORKED_FAIL_STOP, junk=1)}]},
     "mixture file: component 0: period: unknown fields ['junk']"),
    ("analytic", {"mixture": []}, "mixture file: mixture must be a non-empty list"),
    ("analytic", {"mixture": {"weight": 1, "period": WORKED_FAIL_STOP}},
     "mixture file: mixture must be a non-empty list"),
    ("analytic", {"mixture": [{"weight": 1, "period": WORKED_FAIL_STOP}, 5]},
     "mixture file: component 1 must be a JSON object, got int"),
    ("analytic", {"mixture": [{"weight": 1}]}, "mixture file: component 0: missing fields ['period']"),
    ("analytic", {"mixture": [{"weight": 0, "period": WORKED_FAIL_STOP}]},
     "mixture file: component 0: weight must be a finite positive number, got 0.0"),
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
    ("simulate", dict(SIM_CONFIG, watchdog_cycles=0),
     "sim config: watchdog_cycles must be at least 1"),
    ("simulate", dict(SIM_CONFIG, total_work=1e999),
     "sim config: total_work must be a finite positive number, got inf"),
    ("simulate", dict(SIM_CONFIG, seed=2**64),
     f"sim config: seed must be a 64-bit unsigned integer, got {2**64}"),
    (f"compare --seed {2**64}", WORKED_FAIL_STOP,
     f"seed must be a 64-bit unsigned integer, got {2**64}"),
    # periods * the period's useful work is beyond the float range.
    (f"compare --periods {10**307}", WORKED_FAIL_STOP,
     "periods too large: the run's total work exceeds the float range"),
    (f"compare --json --periods {10**307}", WORKED_FAIL_STOP,
     "periods too large: the run's total work exceeds the float range"),
    ("compare --periods 0", WORKED_FAIL_STOP, "periods must be at least 1"),
    # One period is all warm-up.
    ("compare --deterministic --periods 1", WORKED_FAIL_STOP,
     "deterministic run produced no steady-state periods"),
    ("compare", {"kind": "fail_stop", "t_r": 5, "n_ckpt": 1, "t_ckpt": 1},
     "period accumulates no useful work; nothing to simulate"),
    ("compare", dict(WORKED_FAIL_STOP, n_ckpt=1, t_ckpt=0),
     "n_ckpt >= 1 requires t_ckpt > 0 in the simulator mapping"),
    # The implied checkpoint interval is (t_sr + t_h) / n_ckpt.
    ("compare", dict(WORKED_FAIL_STOP, t_rb=40),
     f"t_rb must be smaller than the implied checkpoint interval ({92 / 3!r} s); "
     "a checkpoint would fire inside the rolled-back span"),
    ("compare", {"mixture": [{"weight": 1, "period": WORKED_FAIL_STOP}]},
     "compare takes a period file; {path} holds a mixture"),
    ("compare --json", {"mixture": [{"weight": 1, "period": WORKED_FAIL_STOP}]},
     "compare takes a period file; {path} holds a mixture"),
], ids=[
    "duration-overflow", "weight-overflow", "weighted-duration-overflow",
    "mixture-unknown-key", "component-unknown-key", "component-period-unknown-key",
    "empty-mixture", "non-list-mixture", "non-object-component", "component-missing-period",
    "zero-weight",
    "distribution-unknown-key", "distribution-missing-field", "empty-run",
    "exponential-draw-overflow", "lognormal-draw-overflow", "summed-overflow",
    "zero-watchdog-cycles", "infinite-total-work", "seed-beyond-64-bits",
    "compare-seed-beyond-64-bits", "total-work-overflow",
    "total-work-overflow-json", "zero-periods", "no-steady-state-periods", "no-useful-work",
    "free-checkpoints", "rollback-past-interval", "compare-mixture", "compare-mixture-json",
])
def test_rejected_config_exit_code(tmp_path, capsys, argv, config, message):
    command, *options = argv.split()
    path = write_json(tmp_path / "c.json", config)
    assert main([command, path, *options]) == 2
    assert capsys.readouterr() == ("", f"error: {message.replace('{path}', path)}\n")


def test_top_of_the_seed_range(period_file, capsys):
    assert main(["compare", period_file, "--seed", str(2**64 - 1), "--replications", "2",
                 "--periods", "5", "--quiet"]) == 0


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
    ("trace", None, "cannot read trace"),
], ids=["config-not-utf8", "config-long-integer", "trace-not-utf8", "trace-long-integer",
        "config-too-deep", "trace-too-deep", "trace-too-deep-object", "trace-missing"])
def test_undecodable_file_exit_code(tmp_path, capsys, command, data, message):
    path = tmp_path / "input"
    if data is not None:  # None: no file
        path.write_bytes(data)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1


def not_run(*args, **kwargs):
    raise AssertionError("simulated before the output paths were checked")


@pytest.mark.parametrize("command, option", [
    ("simulate", "--emit-trace"),
    ("simulate", "--emit-csv"),
    ("trace", "--csv"),
])
def test_unwritable_output_exit_code(sim_file, tmp_path, capsys, monkeypatch, command, option):
    source = sim_file
    if command == "trace":
        source = str(tmp_path / "run.jsonl")
        assert main(["simulate", sim_file, "--quiet", "--emit-trace", source]) == 0
        capsys.readouterr()
    monkeypatch.setattr("torkit.cli.monte_carlo", not_run)
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


def full_disk(timeline, f):
    # A writer that gets part of its output out before the disk fills.
    f.write("partial\n")
    f.flush()
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def trace_file(sim_file, tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    assert main(["simulate", sim_file, "--quiet", "--emit-trace", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize("argv, writer, failing", [
    ("simulate {sim} --emit-trace {a}", "torkit.trace.write_jsonl", "a"),
    ("simulate {sim} --emit-csv {a}", "torkit.cli.write_csv", "a"),
    ("simulate {sim} --emit-trace {a} --emit-csv {b}", "torkit.trace.write_jsonl", "a"),
    ("simulate {sim} --emit-trace {a} --emit-csv {b}", "torkit.cli.write_csv", "b"),
    ("trace {trace} --csv {a}", "torkit.cli.write_csv", "a"),
], ids=["emit-trace", "emit-csv", "first-of-two", "second-of-two", "trace-csv"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_write_failure_exit_code(sim_file, trace_file, tmp_path, capsys, monkeypatch,
                                 argv, writer, failing, existing):
    # A write that fails after the check: exit 2 and one line, and no file the
    # check created is left, a complete earlier output included.
    outputs = {"a": tmp_path / "a.out", "b": tmp_path / "b.out"}
    if existing:
        for path in outputs.values():
            path.write_text("kept\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(writer, full_disk)
    assert main(argv.format(sim=sim_file, trace=trace_file, **outputs).split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    enospc = os.strerror(errno.ENOSPC)
    assert err == f"error: cannot write {outputs[failing]}: [Errno {errno.ENOSPC}] {enospc}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    "simulate {sim} --emit-trace {a} --emit-csv /dev/full",
    "trace {trace} --csv /dev/full",
], ids=["simulate", "trace"])
def test_output_to_a_full_device(sim_file, trace_file, tmp_path, capsys, argv):
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv.format(sim=sim_file, trace=trace_file, a=tmp_path / "a.jsonl").split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ") and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.skipif(not (os.path.exists(os.devnull) and stat.S_ISCHR(os.stat(os.devnull).st_mode)),
                    reason="needs /dev/null as a character device")
@pytest.mark.parametrize("mode", [[], ["--quiet"], ["--json"]], ids=["text", "quiet", "json"])
def test_both_outputs_to_dev_null(sim_file, capsys, mode):
    # A character device is neither compared nor probed: writing both to it replaces no file.
    assert main(["simulate", sim_file, *mode]) == 0
    alone = capsys.readouterr()
    assert main(["simulate", sim_file, "--emit-trace", os.devnull,
                 "--emit-csv", os.devnull, *mode]) == 0
    assert capsys.readouterr() == alone


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_one_fifo_for_both_outputs(sim_file, tmp_path, capsys, monkeypatch):
    # A FIFO is not probed, but two outputs naming it still fail before the run.
    monkeypatch.setattr("torkit.cli.monte_carlo", not_run)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    assert main(["simulate", sim_file, "--emit-trace", str(fifo), "--emit-csv", str(fifo)]) == 2
    assert capsys.readouterr().err == (
        f"error: --emit-trace and --emit-csv name the same file: {fifo}\n")


# The diverging config of the installed entry point's check.
DIVERGING = dict(SIM_CONFIG, total_work=1000, ckpt_interval=5, fail_stop_rate=10,
                 t_r_dist={"kind": "fixed", "value": 0.5},
                 t_sr_dist={"kind": "fixed", "value": 0}, r_sr=0.0, seed=3,
                 watchdog_cycles=50)


def test_diverged_run_leaves_no_output(tmp_path, capsys):
    path = write_json(tmp_path / "diverge.json", DIVERGING)
    trace_path, csv_path = tmp_path / "new.jsonl", tmp_path / "new.csv"
    assert main(["simulate", path, "--emit-trace", str(trace_path)]) == 3
    assert main(["simulate", path, "--emit-trace", str(trace_path),
                 "--emit-csv", str(csv_path)]) == 3
    assert not trace_path.exists() and not csv_path.exists()
    # An output file that was there before is left byte for byte.
    trace_path.write_bytes(b"kept\r\n")
    assert main(["simulate", path, "--emit-trace", str(trace_path),
                 "--emit-csv", str(csv_path)]) == 3
    assert trace_path.read_bytes() == b"kept\r\n" and not csv_path.exists()
    assert capsys.readouterr().err.count("error: simulation diverged: ") == 3


def test_diverged_run_removes_the_file_a_dangling_symlink_named(tmp_path, capsys):
    # The file the check created through the link goes; the user's link stays.
    path = write_json(tmp_path / "diverge.json", DIVERGING)
    link, target = tmp_path / "out.csv", tmp_path / "missing.csv"
    link.symlink_to(target.name)
    assert main(["simulate", path, "--emit-csv", str(link)]) == 3
    assert not target.exists() and link.is_symlink() and os.readlink(link) == target.name
    assert capsys.readouterr().err.startswith("error: simulation diverged: ")


def test_diverged_run_whose_probed_file_went_away(tmp_path, capsys, monkeypatch):
    # A probed file removed during the run does not mask the run's own error.
    path = write_json(tmp_path / "diverge.json", DIVERGING)
    trace_path = tmp_path / "new.jsonl"
    run = torkit.cli.monte_carlo

    def remove_then_run(*args, **kwargs):
        trace_path.unlink()
        return run(*args, **kwargs)

    monkeypatch.setattr("torkit.cli.monte_carlo", remove_then_run)
    assert main(["simulate", path, "--emit-trace", str(trace_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: simulation diverged: ") and len(err.splitlines()) == 1
    assert not trace_path.exists()


def test_one_file_for_both_outputs(sim_file, tmp_path, capsys, monkeypatch):
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


@pytest.mark.parametrize("trace_name, csv_name", [("d", "new.csv"), ("new.jsonl", "d")])
def test_directory_output_fails_before_the_run(sim_file, tmp_path, capsys, monkeypatch,
                                               trace_name, csv_name):
    # A directory is no file to probe: it fails before the run, and the
    # other output is not left behind.
    (tmp_path / "d").mkdir()
    monkeypatch.setattr("torkit.cli.monte_carlo", not_run)
    assert main(["simulate", sim_file, "--emit-trace", str(tmp_path / trace_name),
                 "--emit-csv", str(tmp_path / csv_name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'd'}: ") and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "sim.json"]
    assert not any((tmp_path / "d").iterdir())


def test_trace_csv_to_a_directory_fails_before_parsing(tmp_path, capsys, monkeypatch):
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text('{"t_start": 0, "t_end": 30, "stage": "HealthyRun", "rate": 1}\n')
    (tmp_path / "d").mkdir()
    monkeypatch.setattr("torkit.trace.parse_trace", not_run)
    assert main(["trace", str(trace_path), "--csv", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'd'}: ")


@pytest.mark.parametrize("argv, option", [
    ("trace {trace} --csv {same}", "--csv"),
    ("simulate {sim} --emit-trace {same}", "--emit-trace"),
    ("simulate {sim} --emit-csv {same}", "--emit-csv"),
    ("simulate {sim} --emit-trace {other} --emit-csv {same}", "--emit-csv"),
], ids=["trace-csv", "simulate-emit-trace", "simulate-emit-csv", "simulate-second-output"])
@pytest.mark.parametrize("spelling", ["same", "through-a-subdirectory"])
def test_output_naming_the_input_exit_code(sim_file, tmp_path, capsys, monkeypatch,
                                           argv, option, spelling):
    # The output would replace the command's own input: exit 2, input kept.
    trace_path = tmp_path / "t.jsonl"
    assert main(["simulate", sim_file, "--quiet", "--emit-trace", str(trace_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("torkit.cli.monte_carlo", not_run)
    (tmp_path / "sub").mkdir()
    source = trace_path if argv.startswith("trace") else tmp_path / "sim.json"
    same = source if spelling == "same" else tmp_path / "sub" / ".." / source.name
    before = source.read_bytes()
    assert main(argv.format(trace=trace_path, sim=sim_file, same=same,
                            other=tmp_path / "other.jsonl").split()) == 2
    assert capsys.readouterr().err == f"error: {option} names the input file: {same}\n"
    assert source.read_bytes() == before
    assert not (tmp_path / "other.jsonl").exists()


@pytest.mark.parametrize("mode, counts", [
    ([], (0, 1)), (["--quiet"], (0, 0)), (["--json"], (1, 1)), (["--json", "--quiet"], (1, 1)),
], ids=["text", "quiet", "json", "json-quiet"])
def test_simulate_builds_only_the_output_it_prints(sim_file, capsys, monkeypatch, mode, counts):
    # (SimResult.to_dict calls, period splits of the first result) in each mode.
    calls = {"to_dict": 0, "period_records": 0}

    def counting(module, name):
        original = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, count)

    counting(torkit.simulator.SimResult, "to_dict")
    counting(torkit.simulator, "period_records")
    assert main(["simulate", sim_file, "--replications", "3", *mode]) == 0
    assert (calls["to_dict"], calls["period_records"]) == counts
    capsys.readouterr()


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


# Every command's stdout in each output mode. {stop}, {slow}, {mixture}, {sim}
# and {trace} name the worked periods, a two-component mixture, SIM_CONFIG and
# the trace SIM_CONFIG's first replication emits.
GOLDEN_INVOCATIONS = {
    "analytic-fail-stop": "analytic {stop}",
    "analytic-fail-slow": "analytic {slow}",
    "analytic-mixture": "analytic {mixture}",
    "analytic-mixture-composite": "analytic {mixture} --composite",
    "simulate": "simulate {sim} --replications 3",
    "trace": "trace {trace}",
    "compare": "compare {stop}",
    "compare-deterministic-fail-stop": "compare {stop} --deterministic",
    "compare-deterministic-fail-slow": "compare {slow} --deterministic",
}
GOLDEN_MODES = {"text": [], "quiet": ["--quiet"], "json": ["--json"],
                "json-quiet": ["--json", "--quiet"]}
# sha256 of "<exit code>\n<stdout>", pinned before the output modes shared one emitter.
GOLDEN_DIGESTS = {
    "analytic-fail-stop/text":
        "ac6ab243706999af9792fd7ed93ff9986a2f2ec040ea7b532c47c5df7c927205",
    "analytic-fail-stop/quiet":
        "6d6aaaeaeaef2a7e4aee5695f699c9e1c2d11af1f75e56e15f7ea6e62ebc2435",
    "analytic-fail-stop/json":
        "ddbbc65869ae60ee0cb859e44a67be4161699a606fa8a7bd9a834707795889a4",
    "analytic-fail-stop/json-quiet":
        "ddbbc65869ae60ee0cb859e44a67be4161699a606fa8a7bd9a834707795889a4",
    "analytic-fail-slow/text":
        "ae30fa5d0afd84f368d24d3f7f22ab8c54d29a5df4a3067ae17a6db981e932e3",
    "analytic-fail-slow/quiet":
        "94134103a9ae991a7a318c5b9a1eef9e7de7afaf4f699dece15b671879f03c7a",
    "analytic-fail-slow/json":
        "188ade8bb616c5815bd3e16a97204d4d806cd940a2853f852c180596c72ba713",
    "analytic-fail-slow/json-quiet":
        "188ade8bb616c5815bd3e16a97204d4d806cd940a2853f852c180596c72ba713",
    "analytic-mixture/text":
        "e23c4c4fe2f5a3779e225899962768a3025858bee2b6fbf30a80edff81a74ace",
    "analytic-mixture/quiet":
        "21432bbd2019b7c9b497e5c0579513917cf2fe71c5624a2b0b6746669d244b99",
    "analytic-mixture/json":
        "8540e4b3728d9ed0a9968837727a0d7730586a9b6dcafa1d7f7c5cc3a7a4eaac",
    "analytic-mixture/json-quiet":
        "8540e4b3728d9ed0a9968837727a0d7730586a9b6dcafa1d7f7c5cc3a7a4eaac",
    "analytic-mixture-composite/text":
        "8c709b5fca38b98555859149129e29f09fb685ba03f3459f960b7e37609d48e4",
    "analytic-mixture-composite/quiet":
        "2fcdc335850375e175833f5dfa1c9a1f43164de7fba1e97e10c1c8c5b35f789f",
    "analytic-mixture-composite/json":
        "8fd5281f3fe9448e5ab5531960919c3a3511afa2dd1eebb3d7b84f127f019a01",
    "analytic-mixture-composite/json-quiet":
        "8fd5281f3fe9448e5ab5531960919c3a3511afa2dd1eebb3d7b84f127f019a01",
    "simulate/text":
        "b1156dbfe8bbae8058a81b462789b0740fea86020c200856edd5e9dde2f31b70",
    "simulate/quiet":
        "de81fbc177c66fb7beb32164d795d4986eea310e972e7b2d8cb0ac3f698bd978",
    "simulate/json":
        "ded19dedc84f9bd9db4d22485b03846824e3b8dee2b023e20daaf7bdccbfda94",
    "simulate/json-quiet":
        "ded19dedc84f9bd9db4d22485b03846824e3b8dee2b023e20daaf7bdccbfda94",
    "trace/text":
        "f9a40571bd3d70ca20ad3ee5006e74bc4fdd195d3e73a5349800df5c8a87f342",
    "trace/quiet":
        "59aded50b45ff73ac56670191491fd78fd25bb3fde749fc07d5cc0b245c0c3a4",
    "trace/json":
        "f6b305ae16d19b1ee4295bc6110dd4bd0c778719b3fddc145fb0cffc5732e6cd",
    "trace/json-quiet":
        "f6b305ae16d19b1ee4295bc6110dd4bd0c778719b3fddc145fb0cffc5732e6cd",
    "compare/text":
        "4561bcad160720cbd87e9b9aded6e4ab62a160165ee783f44889b691aa8036a3",
    "compare/quiet":
        "0cd6add36941ab6c0de5b1d138e675f92cbf197610895a960fa65c12300acd4d",
    "compare/json":
        "016486d26eefa399ac77b8a9e4bbc195b96c8c05165dc94018850749b3556795",
    "compare/json-quiet":
        "016486d26eefa399ac77b8a9e4bbc195b96c8c05165dc94018850749b3556795",
    "compare-deterministic-fail-stop/text":
        "5e955e470199105a9c0bdbb5519f879f12abb3c4d1ba1542efe26e7ab4fb31ad",
    "compare-deterministic-fail-stop/quiet":
        "03ec2c665216d4f0165ab446d203347c5a696eb4c53743703463da5750827f82",
    "compare-deterministic-fail-stop/json":
        "ca31d3ebcb335cf64b823f3572f901487efdcdcef5e552fb9ccd044db9a1fcab",
    "compare-deterministic-fail-stop/json-quiet":
        "ca31d3ebcb335cf64b823f3572f901487efdcdcef5e552fb9ccd044db9a1fcab",
    "compare-deterministic-fail-slow/text":
        "159a22b82e9ceed42d4260134d667f02f470dfca7b16f9c57050a462be7b051f",
    "compare-deterministic-fail-slow/quiet":
        "0dca658f96160f4d8672d471ca864a3bad55edae2abdb6c0e78abf5c3bdf3348",
    "compare-deterministic-fail-slow/json":
        "c1da844ce91cac2e24b14d15304e935f6e7a5cffb7ff6096ac4744c8a3b88b14",
    "compare-deterministic-fail-slow/json-quiet":
        "c1da844ce91cac2e24b14d15304e935f6e7a5cffb7ff6096ac4744c8a3b88b14",
}


@pytest.fixture
def golden_files(tmp_path, capsys):
    files = {
        "stop": write_json(tmp_path / "stop.json", WORKED_FAIL_STOP),
        "slow": write_json(tmp_path / "slow.json", WORKED_FAIL_SLOW),
        "mixture": write_json(tmp_path / "mixture.json", {"mixture": [
            {"weight": 2, "period": WORKED_FAIL_STOP},
            {"weight": 1.5, "period": WORKED_FAIL_SLOW},
        ]}),
        "sim": write_json(tmp_path / "sim.json", SIM_CONFIG),
        "trace": str(tmp_path / "run.jsonl"),
    }
    assert main(["simulate", files["sim"], "--quiet", "--emit-trace", files["trace"]]) == 0
    capsys.readouterr()
    return files


@pytest.mark.parametrize("mode", GOLDEN_MODES)
@pytest.mark.parametrize("invocation", GOLDEN_INVOCATIONS)
def test_stdout_golden(golden_files, capsys, invocation, mode):
    argv = GOLDEN_INVOCATIONS[invocation].format(**golden_files).split() + GOLDEN_MODES[mode]
    code = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[f"{invocation}/{mode}"]


class FullStdout(io.StringIO):
    """A stdout on a full disk: its ``write``, or only its ``flush``, raises ENOSPC."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, s: str) -> int:
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(s)

    def flush(self) -> None:
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


STDOUT_ERROR = f"error: cannot write stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
# One invocation of each command, and the mixture.
ONE_PER_COMMAND = ["analytic-fail-stop", "analytic-mixture", "simulate", "trace", "compare"]


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("mode", GOLDEN_MODES)
@pytest.mark.parametrize("invocation", ONE_PER_COMMAND)
def test_stdout_write_error_exit_code(golden_files, capsys, monkeypatch, invocation, mode,
                                      failing):
    argv = GOLDEN_INVOCATIONS[invocation].format(**golden_files).split() + GOLDEN_MODES[mode]
    monkeypatch.setattr(sys, "stdout", FullStdout(failing))
    assert main(argv) == 2
    assert capsys.readouterr().err == STDOUT_ERROR + "\n"


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("invocation", ONE_PER_COMMAND)
def test_no_stdout(golden_files, capsys, monkeypatch, invocation, mode):
    # Started with descriptor 1 closed, Python has no stdout: print writes
    # nothing, and the command still succeeds.
    argv = GOLDEN_INVOCATIONS[invocation].format(**golden_files).split() + GOLDEN_MODES[mode]
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@contextlib.contextmanager
def failing_stdout(kind: str):
    """A descriptor whose writes fail: ``/dev/full`` (ENOSPC), or a pipe
    whose reading end is already closed (EPIPE)."""
    if kind == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "w") as full:
            yield full, errno.ENOSPC
    else:
        r, w = os.pipe()
        os.close(r)
        try:
            yield w, errno.EPIPE
        finally:
            os.close(w)


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("kind", ["full", "closed-pipe"])
@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("invocation", ["analytic-fail-stop", "simulate", "trace", "compare"])
def test_stdout_write_error_process(golden_files, invocation, mode, kind, buffering):
    # The whole process: exit 2, one stderr line, no traceback and nothing
    # reported while the interpreter shuts down. A buffered stdout (the default
    # when PYTHONUNBUFFERED is unset) keeps the bytes it failed to write.
    argv = GOLDEN_INVOCATIONS[invocation].format(**golden_files).split() + GOLDEN_MODES[mode]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    with failing_stdout(kind) as (stdout, code):
        done = subprocess.run([sys.executable, "-m", "torkit", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    expected = f"error: cannot write stdout: [Errno {code}] {os.strerror(code)}\n"
    assert (done.returncode, done.stderr) == (2, expected)


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

    def test_seed_option_is_the_config_seed(self, tmp_path, capsys):
        seeded = write_json(tmp_path / "seeded.json", dict(SIM_CONFIG, seed=7))
        assert main(["simulate", seeded, "--json"]) == 0
        expected = capsys.readouterr().out
        assert main(["simulate", write_json(tmp_path / "sim.json", SIM_CONFIG),
                     "--seed", "7", "--json"]) == 0
        assert capsys.readouterr().out == expected

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

    @pytest.mark.parametrize("outputs", [["--json"], []])
    def test_each_replication_runs_once(self, tmp_path, capsys, monkeypatch, outputs):
        # The first replication to finish is recorded as it runs, and the
        # emitted files, JSON and text read it without a re-run. Replications
        # 0, 1 and 3 of the diverging config diverge.
        diverging = dict(SIM_CONFIG, total_work=60.0, ckpt_interval=5.0, t_ckpt=1.0,
                         fail_stop_rate=0.3, t_r_dist={"kind": "fixed", "value": 0.5},
                         t_sr_dist={"kind": "fixed", "value": 0}, r_sr=0.0, seed=35,
                         watchdog_cycles=5)
        runs = counted_runs(monkeypatch)
        for cfg, first in ((SIM_CONFIG, 0), (diverging, 2)):
            runs.clear()
            assert main(["simulate", write_json(tmp_path / "sim.json", cfg), "--replications", "4",
                         "--emit-trace", str(tmp_path / "t.jsonl"),
                         "--emit-csv", str(tmp_path / "t.csv"), *outputs]) == 0
            assert runs == [(k, k <= first) for k in range(4)]
        capsys.readouterr()

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

    @pytest.mark.parametrize("replications, head", [
        ("1", "all 1 replication diverged"),
        ("3", "all 3 replications diverged"),
    ])
    def test_all_diverged_message_keeps_its_cause(self, tmp_path, capsys, replications, head):
        # One stderr line that names the watchdog's reason.
        path = write_json(tmp_path / "sim.json", DIVERGING)
        assert main(["simulate", path, "--replications", replications]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: simulation diverged: {head}: no contributed work across 50 consecutive "
            "failure cycles; the configuration cannot finish (e.g. checkpoints never "
            "complete between failures)\n"
        )

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

    @pytest.mark.parametrize("outputs", [["--json"], []])
    def test_each_replication_runs_once(self, period_file, capsys, monkeypatch, outputs):
        runs = counted_runs(monkeypatch)
        assert main(["compare", period_file, "--periods", "20", "--replications", "5",
                     *outputs]) == 0
        assert runs == [(k, k == 0) for k in range(5)]
        capsys.readouterr()

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
