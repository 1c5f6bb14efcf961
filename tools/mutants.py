"""Mutation gate: every listed mutant of ``src/`` must fail the tier-1 tests.

Each mutant is one exact-text replacement in one file under ``src/torkit/``,
with the reason a test should catch it. The runner first runs the tests on an
unmutated copy, then applies each mutant to a fresh temporary copy of ``src/``
and ``tests/`` and runs the tests there with ``-x`` under a timeout (a run that
times out counts as killed). It exits 1 when

- the unmutated copy fails its tests;
- a mutant's text is not found exactly once (a refactor moved the line: update
  the mutant, never drop it);
- a mutant survives that is not listed as a survivor;
- a listed survivor is killed (take it off the list: the list only shrinks).

Run it with NumPy, pytest and hypothesis installed::

    python tools/mutants.py

The hypothesis seed is fixed, because ``tests/test_scale_invariance.py`` is
not derandomized.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # for one test run; the unmutated tier-1 run takes well under a minute
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-W", "error", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "tests"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/torkit/
    old: str
    new: str
    reason: str
    survives: str = ""  # why no test can kill it; empty for a mutant that must be killed


MUTANTS = [
    Mutant("period-kind-rule", "periods.py",
           "FAIL_STOP if not t_fs else MIXED if t_rb else FAIL_SLOW",
           "FAIL_STOP if not t_fs else FAIL_SLOW if t_rb else MIXED",
           "a period with a roll-back and a degraded interval is MIXED"),
    Mutant("save-run-counts-once", "periods.py",
           "if prev is not CHECKPOINT_SAVE:", "if True:",
           "adjacent CheckpointSave segments are one save"),
    Mutant("mean-kind", "periods.py",
           "kind = kinds[0] if len(set(kinds)) == 1 else MIXED", "kind = kinds[0]",
           "the mean of periods of several kinds is MIXED"),
    Mutant("mean-divisor", "periods.py",
           "/ len(records) for column", "/ max(1, len(records) - 1) for column",
           "a mean divides by the number of records"),
    Mutant("breakdown-partial-period", "periods.py",
           "spent.append((t_sr, t_h, ckpt, t_rb, t_fs, t_r))  # the trailing partial period",
           "pass",
           "the stage breakdown counts the segments after the last repair"),
    Mutant("mtbf-rollback", "model.py",
           "math.fsum((self.t_sr, self.t_h, self.ckpt_time, self.t_rb))",
           "math.fsum((self.t_sr, self.t_h, self.ckpt_time))",
           "the MTBF includes the rolled-back span"),
    Mutant("healthy-loss-sign", "periods.py",
           "HEALTHY_RUN: 0.0}", "HEALTHY_RUN: -0.0}",
           "a healthy run loses +0.0 s, which the JSON and text breakdowns print"),
    Mutant("decided-exit-zero-work-rate", "simulator.py",
           "if wrate > 0 else rate == 0)", "if wrate > 0 else True)",
           "a stage whose work rate underflows to 0 still ends at the trigger"),
    Mutant("contiguity-slack", "trace.py",
           "CONTIGUITY_TOL = 1e-9", "CONTIGUITY_TOL = 1e-6",
           "a duration that disagrees with its span by 1e-7 is rejected"),
    Mutant("segment-fixed-rate", "model.py",
           "_check_fixed_rate(stage, rate)", "pass",
           "a Segment at a rate its stage does not allow is rejected"),
    Mutant("segment-replace-checks", "model.py",
           "return Segment(*_Entry._replace(self, **changes))",
           "return _Entry._replace(self, **changes)",
           "Segment._replace checks the values it is given"),
    Mutant("timeline-checks-items", "model.py",
           "Segment(*item)", "Segment._make(item)",
           "RateTimeline(items) checks every item that is not already a Segment"),
    Mutant("zero-duration-dropped", "model.py",
           "if s.duration > 0]", "if s.duration >= 0]",
           "a timeline drops its zero-duration segments"),
    Mutant("fast-path-stop-slow-tie", "simulator.py",
           "if dt_stop <= dt_slow and dt_stop <= dt_work:",
           "if dt_stop < dt_slow and dt_stop <= dt_work:",
           "in the fast path, a fail-stop wins a tie with a fail-slow"),
    Mutant("fast-path-work-tie", "simulator.py",
           "and dt <= dt_work):", "and dt < dt_work):",
           "in the fast path, a checkpoint due exactly at completion still fires"),
    Mutant("watchdog-reset", "simulator.py",
           "stalled = 0\n", "pass\n",
           "the watchdog counts only consecutive failures that found no new work"),
    Mutant("rollback-stage", "simulator.py",
           "stages[i] = ROLLBACK_WASTE", "pass",
           "a fail-stop marks the work since the last save as RollbackWaste"),
    Mutant("seed-bound", "simulator.py",
           "0 <= value < 2**64", "0 <= value < 2**63",
           "every 64-bit unsigned seed is accepted"),
    Mutant("realized-check-failure-free", "simulator.py",
           "if not res.timeline or not _FAILURE_FREE.issuperset(res.timeline.stages):",
           "if not res.timeline:",
           "a run whose failures completed no period is not called failure-free"),
    Mutant("dangling-symlink-cleanup", "cli.py",
           "created.append(real)", "created.append(path)",
           "a failed run removes the file a dangling symlink output named, not the link"),
    Mutant("timeline-item-shape", "model.py",
           "except TypeError:  # an item that is not three values",
           "except ValueError:  # an item that is not three values",
           "a timeline item that is not three values is a ValidationError"),
    Mutant("csv-spells-infinity", "timeline.py",
           "for t0, t1, rate, name in zip(starts, ends, rates, names)]))",
           "for t0, t1, rate, name in zip(starts, ends, rates, names)])"
           ".replace('inf', 'Infinity'))",
           "only the JSONL spells an overflowed edge Infinity; the CSV keeps inf"),
    Mutant("rate-memo-by-value", "timeline.py",
           "rates = list(map(repr, tl.rates[batch]))",
           "rates = [{0.0: '0.0'}.get(rate) or repr(rate) for rate in tl.rates[batch]]",
           "a -0.0 rate is written -0.0, not merged with 0.0 by a value-keyed memo"),
    Mutant("one-pass-writes-both", "timeline.py",
           "        if csv is not None:\n            csv.write(\"\".join(",
           "        elif csv is not None:\n            csv.write(\"\".join(",
           "one write_lines pass to both outputs writes the CSV rows too"),
    Mutant("close-error-names-its-path", "cli.py",
           "with contextlib.suppress(OSError) if exc_type else self._named():",
           "with contextlib.suppress(OSError):",
           "an output whose close fails (a flush to /dev/full) exits 2 naming it"),
    Mutant("block-size", "simulator.py",
           "_BLOCK = 64", "_BLOCK = 63",
           "the block size of a stream's draws",
           survives="equivalent: every stream yields the same values in the same order "
                    "whatever its block size"),
]


def run_tests(mutant: Mutant | None) -> tuple[bool, str]:
    """(passed, note) of the tier-1 tests on a fresh copy with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="torkit-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            target = work / "src" / "torkit" / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        try:
            done = subprocess.run(PYTEST, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else f"exit {done.returncode}"


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / "src" / "torkit" / m.path).read_text().count(m.old)
        if found != 1:
            print(f"mutant {m.name}: {m.old!r} found {found} times in src/torkit/{m.path}, "
                  "not once")
            return 1
    passed, note = run_tests(None)
    print(f"unmutated: {'passed' if passed else 'FAILED'} ({note})", flush=True)
    if not passed:
        return 1
    bad = []
    for m in MUTANTS:
        start = time.perf_counter()
        survived, note = run_tests(m)
        verdict = "survived" if survived else "killed"
        if survived != bool(m.survives):
            bad.append(m.name)
            verdict += (" (not listed as a survivor)" if survived
                        else " (listed as a survivor: take it off the list)")
        print(f"{m.name}: {verdict} in {time.perf_counter() - start:.1f} s ({note})", flush=True)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants as listed"
          + (f"; wrong: {bad}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
