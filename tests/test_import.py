"""Only the simulator loads NumPy: each case runs in a fresh interpreter."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torkit.simulator
from torkit.cli import main
from torkit.simulator import SimConfig, _run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs ``torkit.cli.main(argv)``, with every import of NumPy failing when the
# first argument is "blocked"; its last stderr line says whether NumPy loaded.
RUN_CLI = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from torkit.cli import main
code = main(sys.argv[2:])
print(sys.modules.get("numpy") is not None, file=sys.stderr)
sys.exit(code)
"""

PERIOD = {"kind": "fail_stop", "t_sr": 2, "r_sr": 0.5, "t_h": 90,
          "n_ckpt": 3, "t_ckpt": 1, "t_rb": 5, "t_r": 10}
MIXTURE = {"mixture": [
    {"weight": 3, "period": PERIOD},
    {"weight": 1, "period": {"kind": "fail_slow", "t_sr": 2, "r_sr": 0.5, "t_h": 90,
                             "n_ckpt": 3, "t_ckpt": 1, "t_fs": 8, "r_fs": 0.5, "t_r": 10}},
]}
SIM = {"w_opt": 1.0, "total_work": 500, "ckpt_interval": 20, "t_ckpt": 1,
       "fail_stop_rate": 0.01, "fail_slow_rate": 0.005,
       "t_r_dist": {"kind": "fixed", "value": 5},
       "t_sr_dist": {"kind": "lognormal", "median": 2, "sigma": 0.5},
       "t_fs_dist": {"kind": "exponential", "mean": 4},
       "r_sr": 0.5, "r_fs": 0.5, "seed": 21}


def python(*args: str, cwd) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), cwd=cwd, timeout=60)


def run_cli(mode: str, *argv: str, cwd) -> tuple[int, str, bool]:
    """(exit code, stdout, whether NumPy loaded) of the CLI in a fresh process."""
    done = python("-c", RUN_CLI, mode, *argv, cwd=cwd)
    *err, loaded = done.stderr.splitlines()
    assert err == [], done.stderr
    return done.returncode, done.stdout, loaded == "True"


def in_dir(directory, argv: list[str]) -> list[str]:
    """``argv`` with each file name (a word with a dot) made a path in ``directory``."""
    return [str(directory / a) if "." in a else a for a in argv]


@pytest.fixture
def files(tmp_path):
    for name, obj in (("period.json", PERIOD), ("mix.json", MIXTURE), ("sim.json", SIM)):
        (tmp_path / name).write_text(json.dumps(obj))
    assert main(["simulate", str(tmp_path / "sim.json"), "--quiet",
                 "--emit-trace", str(tmp_path / "t.jsonl")]) == 0
    return tmp_path


@pytest.mark.parametrize("module", ["torkit", "torkit.cli"])
def test_import_loads_no_numpy(tmp_path, module):
    done = python("-c", f"import sys, {module}; sys.exit('numpy' in sys.modules)", cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("argv", [
    ["analytic", "period.json"],
    ["analytic", "period.json", "--json"],
    ["analytic", "mix.json", "--composite"],
    ["trace", "t.jsonl", "--json"],
    ["trace", "t.jsonl", "--csv", "out.csv"],
], ids=["analytic", "analytic-json", "analytic-mixture", "trace-json", "trace-csv"])
def test_closed_forms_and_traces_run_with_numpy_blocked(files, argv, capsys):
    argv = in_dir(files, argv)
    code, out, loaded = run_cli("open", *argv, cwd=files)
    assert (code, loaded) == (0, False)
    csv = files / "out.csv"
    written = csv.read_bytes() if "--csv" in argv else None
    assert run_cli("blocked", *argv, cwd=files) == (0, out, False)
    if written is not None:
        assert csv.read_bytes() == written
    # The same output as in this process, which has loaded NumPy.
    assert main(argv) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv", [
    ["simulate", "sim.json", "--json"],
    ["compare", "period.json", "--replications", "2", "--periods", "20", "--json"],
], ids=["simulate", "compare"])
def test_simulation_loads_numpy(files, argv):
    code, out, loaded = run_cli("open", *in_dir(files, argv), cwd=files)
    assert (code, loaded) == (0, True)
    assert json.loads(out)


def test_run_is_the_first_simulation_call(tmp_path):
    # The caller builds the seed sequence; the run binds NumPy itself.
    code = ("import json, sys, numpy as np\n"
            "from torkit.simulator import SimConfig, _run\n"
            "cfg = SimConfig.from_dict(json.loads(sys.argv[1]))\n"
            "print([x.hex() for x in _run(cfg, np.random.SeedSequence(7), record=False)])\n")
    done = python("-c", code, json.dumps(SIM), cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    totals = _run(SimConfig.from_dict(SIM), np.random.SeedSequence(7), record=False)
    assert done.stdout == f"{[x.hex() for x in totals]}\n"


def test_numpy_is_imported_in_one_function():
    # No per-replication function runs an import statement; _numpy binds the module once.
    tree = ast.parse(Path(torkit.simulator.__file__).read_text())
    importing = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert importing == {"_numpy"}
