"""``import torkit`` loads a layer only when one of its names is first read,
and only the simulator loads NumPy: each case runs in a fresh interpreter."""
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


# The public names of torkit 0.1.0, by the submodule that defines each.
PUBLIC = {
    "errors": ["DivergedError", "TorkitError", "TraceParseError", "UndefinedMetricError",
               "ValidationError"],
    "model": ["FailSlowPeriod", "FailStopPeriod", "FailureMixture", "MixtureComponent",
              "RateTimeline", "Segment", "StageKind", "mtbf_fail_slow", "mtbf_fail_stop"],
    "analytic": ["period_to_timeline", "tor_fail_slow", "tor_fail_stop",
                 "tor_from_mtbf_fail_slow", "tor_from_mtbf_fail_stop",
                 "tor_mixture_time_composite", "tor_mixture_weighted"],
    "timeline": ["integrate_optimal_time", "observed_time", "stage_breakdown",
                 "tor_of_timeline"],
    "simulator": ["Exponential", "Fixed", "LogNormal", "MonteCarloSummary", "SimConfig",
                  "SimResult", "config_from_period", "monte_carlo",
                  "realized_period_tor_check", "simulate"],
    "trace": ["estimate_mtbf", "parse_trace", "report", "trace_to_timeline"],
}
SUBMODULES = ["errors", "model", "analytic", "timeline", "periods", "simulator", "trace"]
# What ``from torkit import *`` binds: every public name and every submodule above.
STAR = sorted({*(name for names in PUBLIC.values() for name in names), *SUBMODULES})

# Reads one public name after a bare ``import torkit``. Prints whether its home
# module was loaded before and after the read, whether the value is the home's
# object, and whether the package then holds it.
READ_NAME = """
import sys, torkit
name, home = sys.argv[1], "torkit." + sys.argv[2]
before = home in sys.modules
value = getattr(torkit, name)
print(before, home in sys.modules, value is getattr(sys.modules[home], name),
      vars(torkit).get(name) is value)
"""


def fresh(code: str, *args: str, cwd) -> str:
    """stdout of ``code`` in a fresh interpreter, which must succeed silently."""
    done = python("-c", code, *args, cwd=cwd)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_import_runs_only_the_errors(tmp_path):
    code = "import sys, torkit; print(sorted(m for m in sys.modules if m.startswith('torkit')))"
    assert fresh(code, cwd=tmp_path) == "['torkit', 'torkit.errors']\n"


@pytest.mark.parametrize("name, home", [(n, h) for h, names in PUBLIC.items() for n in names])
def test_first_read_loads_the_home_module(tmp_path, name, home):
    assert fresh(READ_NAME, name, home, cwd=tmp_path) == f"{home == 'errors'} True True True\n"


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_resolves_after_bare_import(tmp_path, module):
    code = f"import sys, torkit; print(torkit.{module} is sys.modules['torkit.{module}'])"
    assert fresh(code, cwd=tmp_path) == "True\n"


def test_star_import_and_dir_list_every_public_name(tmp_path):
    star = "ns = {}; exec('from torkit import *', ns); print(sorted(set(ns) - {'__builtins__'}))"
    assert fresh(star, cwd=tmp_path) == f"{STAR}\n"
    # dir lists the names before any is read.
    listed = "import torkit; print([n for n in dir(torkit) if not n.startswith('_')])"
    assert fresh(listed, cwd=tmp_path) == f"{STAR}\n"
    assert fresh("import torkit; print(torkit.__version__)", cwd=tmp_path) == "0.1.0\n"


def test_unknown_name_is_an_attribute_error(tmp_path):
    code = ("import torkit\n"
            "try:\n    torkit.nope\n"
            "except AttributeError as e:\n    print(e)\n")
    assert fresh(code, cwd=tmp_path) == "module 'torkit' has no attribute 'nope'\n"


def test_patching_an_unread_name_undoes_to_the_original(tmp_path):
    # The benchmark's span hooks replace torkit.monte_carlo and put it back.
    code = ("import pytest, torkit\n"
            "with pytest.MonkeyPatch.context() as mp:\n"
            "    mp.setattr(torkit, 'monte_carlo', print)\n"
            "    patched = torkit.monte_carlo is print\n"
            "print(patched, torkit.monte_carlo is torkit.simulator.monte_carlo)\n")
    assert fresh(code, cwd=tmp_path) == "True True\n"


@pytest.mark.parametrize("fake", [
    "print",
    # A span hook's wrapper carries the original's module and qualified name.
    "functools.wraps(original)(lambda *args, **kwargs: None)",
])
def test_name_read_while_its_home_is_patched_undoes_to_the_original(tmp_path, fake):
    # The package name is read for the first time while its home is patched.
    code = ("import functools, pytest, torkit, torkit.simulator\n"
            "original = torkit.simulator.simulate\n"
            f"fake = {fake}\n"
            "with pytest.MonkeyPatch.context() as mp:\n"
            "    mp.setattr(torkit.simulator, 'simulate', fake)\n"
            "    patched = torkit.simulate is fake\n"
            "print(patched, torkit.simulate is original, 'simulate' in vars(torkit))\n")
    assert fresh(code, cwd=tmp_path) == "True True True\n"


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
            "res = _run(cfg, np.random.SeedSequence(7), record=False)\n"
            "print([x.hex() for x in (res.t_obs, res.t_opt, res.tor)])\n")
    done = python("-c", code, json.dumps(SIM), cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    res = _run(SimConfig.from_dict(SIM), np.random.SeedSequence(7), record=False)
    assert done.stdout == f"{[x.hex() for x in (res.t_obs, res.t_opt, res.tor)]}\n"


def test_numpy_is_imported_in_one_function():
    # No per-replication function runs an import statement; _numpy binds the module once.
    tree = ast.parse(Path(torkit.simulator.__file__).read_text())
    importing = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert importing == {"_numpy"}
