"""Command-line front end: analytic evaluation, simulation, trace analysis,
and cross-validation of the three TOR routes.

Exit codes: 0 success, 2 validation, parse or file error, 3 simulation divergence.
Text output rounds to 6 decimals; ``--json`` emits full precision.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from pathlib import Path

from . import analytic, periods, trace as trace_mod
from .errors import DivergedError, TorkitError, ValidationError
from .model import mixture_from_dict, period_from_dict
from .simulator import (
    SimConfig,
    config_from_period,
    monte_carlo,
    realized_period_tor_check,
    simulate,
)
from .timeline import breakdown_lines, breakdown_to_dict, stage_breakdown, write_lines
from .timeline import write_csv  # importable here, where the benchmark's span hooks name it


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read config {path}: {e}") from None
    try:
        value = json.loads(text)
    except ValueError as e:  # not JSON, or an integer too long to convert
        raise ValidationError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise ValidationError(f"{path} is not valid JSON: nested too deeply") from None
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must hold a JSON object, got {type(value).__name__}")
    return value


class _Output(contextlib.AbstractContextManager):
    """``open(path, "w")`` as a context manager: an OSError in its open, ``write``
    or close is a ValidationError naming ``path``, but a failing close does not
    replace an error already raised in the ``with`` block."""

    def __init__(self, path: str):
        self.path = path
        with self._named():
            self.file = open(path, "w")

    @contextlib.contextmanager
    def _named(self):
        try:
            yield
        except OSError as e:
            raise ValidationError(f"cannot write {self.path}: {e}") from None

    def write(self, text: str) -> None:
        with self._named():
            self.file.write(text)

    def __exit__(self, exc_type, *_) -> None:
        with contextlib.suppress(OSError) if exc_type else self._named():
            self.file.close()


@contextlib.contextmanager
def _checked_outputs(source: str, outputs: dict[str, tuple[str | None, str]]):
    """Check a command's outputs, given by option as ``(path, format)`` with format
    ``"jsonl"`` or ``"csv"``, before its work runs; yield ``write(timeline)``, which
    opens each path as an ``_Output`` and makes one ``write_lines(timeline, format=file,
    ...)`` call, or none without a path.

    An output that names the input ``source`` or an earlier output, or that
    ``open(path, "a")`` rejects (a directory, a missing directory), is a
    ValidationError, as is an OSError in ``write``. The check writes nothing. A FIFO
    is not probed: closing a probe would end a FIFO reader's input. A character
    device is neither compared nor probed. If the check, the body or ``write`` fails,
    the files the check created are removed, a fully written one too; a file that
    existed before may be left partly written, and one moved away in between must
    not mask the body's error.
    """
    outputs = {option: output for option, output in outputs.items() if output[0]}
    named = {os.path.realpath(source): None} if outputs else {}
    created = []

    def write(timeline) -> None:
        if not outputs:
            return
        with contextlib.ExitStack() as files:
            write_lines(timeline, **{fmt: files.enter_context(_Output(path))
                                     for path, fmt in outputs.values()})

    try:
        for option, (path, _) in outputs.items():
            mode = os.stat(path).st_mode if os.path.exists(path) else 0
            if stat.S_ISCHR(mode):
                continue
            real = os.path.realpath(path)
            if real in named:
                other = named[real]
                raise ValidationError(f"{option} names the input file: {path}" if other is None
                                      else f"{other} and {option} name the same file: {path}")
            named[real] = option
            if stat.S_ISFIFO(mode):
                continue
            try:
                open(path, "a").close()
            except OSError as e:
                raise ValidationError(f"cannot write {path}: {e}") from None
            if not mode:  # nothing was there, or a dangling symlink: the file it names is new
                created.append(real)
        yield write
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _emit(args, out, headline: list[str], full) -> int:
    """Print ``out()`` as JSON with --json, else the ``headline`` lines with
    --quiet and the lines ``full()`` gives without it; return exit code 0.
    Each of ``out`` and ``full`` is called only in the mode that prints it."""
    text = (json.dumps(out(), indent=2) if args.json
            else "\n".join(headline if args.quiet else full()))
    try:
        print(text, flush=True)
    except OSError as e:
        # Python flushes a buffered stdout again at exit: give it the null device.
        with contextlib.suppress(AttributeError, OSError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        raise ValidationError(f"cannot write stdout: {e}") from None
    return 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_analytic(args) -> int:
    cfg = _load_json(args.config)
    if "mixture" in cfg:
        m = mixture_from_dict(cfg)
        weighted = analytic.tor_mixture_weighted(m)
        comps = []
        for c in m.mixture:
            totals = c.period.totals()
            comps.append({
                "kind": totals.kind,
                "weight": c.weight,
                "tor": analytic.tor_of_period(c.period),
                "mtbf": totals.mtbf,
            })
        out = {"tor": weighted, "components": comps}
        headline = [f"TOR (occurrence-weighted): {weighted:.6f}"]
        if args.composite:
            out["tor_time_composite"] = composite = analytic.tor_mixture_time_composite(m)
            headline.append(f"TOR (time-composite):      {composite:.6f}")
        return _emit(args, lambda: out, headline, lambda: headline + [
            f"  {c['kind']:<9} weight {c['weight']:g}: TOR {c['tor']:.6f}, MTBF {c['mtbf']:.6f} s"
            for c in comps])

    p = period_from_dict(cfg)
    tor = analytic.tor_of_period(p)
    mtbf = p.totals().mtbf
    breakdown = breakdown_to_dict(stage_breakdown(analytic.period_to_timeline(p)))
    headline = [f"TOR:  {tor:.6f}", f"MTBF: {mtbf:.6f} s"]
    return _emit(args, lambda: {"tor": tor, "mtbf": mtbf, "stage_breakdown": breakdown},
                 headline, lambda: headline + breakdown_lines(breakdown))


def cmd_simulate(args) -> int:
    cfg_dict = _load_json(args.config)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    cfg = SimConfig.from_dict(cfg_dict)
    with _checked_outputs(args.config, {"--emit-trace": (args.emit_trace, "jsonl"),
                                        "--emit-csv": (args.emit_csv, "csv")}) as write:
        summary = monte_carlo(cfg, args.replications, record_first=True)
        first = summary.first_result
        write(first.timeline)

    headline = [
        f"mean TOR: {summary.mean_tor:.6f}",
        f"stddev:   {summary.std_tor:.6f}",
        f"95% CI:   [{summary.ci95[0]:.6f}, {summary.ci95[1]:.6f}]",
    ]
    return _emit(args, lambda: {**summary.to_dict(), "first_result": first.to_dict()},
                 headline, lambda: headline + [
                     f"replications: {summary.completed} completed, {summary.diverged} diverged",
                     f"replication {summary.outcomes[0].index}: t_obs {first.t_obs:.6f} s, "
                     f"t_opt {first.t_opt:.6f} s, {len(first.periods)} complete periods"])


def cmd_trace(args) -> int:
    with _checked_outputs(args.input, {"--csv": (args.csv, "csv")}) as write:
        try:
            with open(args.input, "rb") as f:
                tr = trace_mod.parse_trace(f)
        except OSError as e:
            raise ValidationError(f"cannot read trace {args.input}: {e}") from None
        rep = trace_mod.report(tr)
        write(tr)
    return _emit(args, lambda: rep, [f"TOR: {rep['tor']:.6f}"],
                 lambda: [trace_mod.render_report(rep)])


def cmd_compare(args) -> int:
    cfg_dict = _load_json(args.config)
    if "mixture" in cfg_dict:
        raise ValidationError(f"compare takes a period file; {args.config} holds a mixture")
    p = period_from_dict(cfg_dict)
    analytic_tor = analytic.tor_of_period(p)
    cfg = config_from_period(
        p,
        periods=args.periods,
        seed=args.seed,
        deterministic=args.deterministic,
    )

    if args.deterministic:
        res = simulate(cfg)
        # The first cycle lacks the leading slow recovery; drop it as warm-up
        # so the remaining cycles are identical copies of the period spec.
        steady = list(res.periods[1:])
        if not steady:
            raise ValidationError("deterministic run produced no steady-state periods")
        simulated = periods.mean_periods(steady).tor  # exact by linearity
        realized = simulated
        sim_label = "simulated TOR (steady-state periods)"
        std = 0.0
        ci = (simulated, simulated)
        n_periods = len(steady)
        replications = {}
    else:
        summary = monte_carlo(cfg, args.replications, record_first=True)
        simulated = summary.mean_tor
        std = summary.std_tor
        ci = summary.ci95
        realized = realized_period_tor_check(summary.first_result)
        sim_label = "simulated mean TOR"
        n_periods = len(summary.first_result.periods)
        # Diverged replications are left out of the mean.
        replications = {"completed": summary.completed, "diverged": summary.diverged}

    out = {
        "analytic_tor": analytic_tor,
        "simulated_tor": simulated,
        "simulated_std": std,
        "simulated_ci95": list(ci),
        "realized_means_tor": realized,
        "delta_sim_vs_analytic": simulated - analytic_tor,
        "delta_realized_vs_analytic": realized - analytic_tor,
        "complete_periods": n_periods,
        **replications,
    }
    headline = [
        f"analytic TOR:                 {analytic_tor:.6f}",
        f"{sim_label}:  {simulated:.6f} (ci95 [{ci[0]:.6f}, {ci[1]:.6f}])",
        f"closed form @ realized means: {realized:.6f}",
    ]
    details = [
        f"delta sim - analytic:         {simulated - analytic_tor:+.6f}",
        f"delta realized - analytic:    {realized - analytic_tor:+.6f}",
        f"complete periods:             {n_periods}",
    ]
    if replications:
        details.append(f"replications:                 {replications['completed']} completed, "
                       f"{replications['diverged']} diverged")
    return _emit(args, lambda: out, headline, lambda: headline + details)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torkit",
        description="Training Overhead Ratio toolkit: closed forms, simulation, traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable full-precision output")
        sp.add_argument("--quiet", action="store_true", help="suppress secondary output")

    sp = sub.add_parser("analytic", help="closed-form TOR of a period or mixture config")
    sp.add_argument("config", help="JSON period or mixture file")
    sp.add_argument("--composite", action="store_true",
                    help="also print the time-composite mixture TOR")
    common(sp)

    sp = sub.add_parser("simulate", help="Monte-Carlo simulation from a SimConfig JSON")
    sp.add_argument("config", help="SimConfig JSON file")
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sp.add_argument("--replications", type=int, default=1)
    sp.add_argument("--emit-trace", metavar="PATH",
                    help="write the first replication to finish as a JSONL trace")
    sp.add_argument("--emit-csv", metavar="PATH",
                    help="write the first replication to finish as a timeline CSV")
    common(sp)

    sp = sub.add_parser("trace", help="analyze a JSONL event trace")
    sp.add_argument("input", help="JSONL trace file")
    sp.add_argument("--csv", metavar="PATH", help="export the reconstructed timeline as CSV")
    common(sp)

    sp = sub.add_parser("compare", help="analytic vs simulated TOR for a period config")
    sp.add_argument("config", help="JSON period file")
    sp.add_argument("--replications", type=int, default=20)
    sp.add_argument("--periods", type=int, default=200,
                    help="target failure-repair periods per replication")
    sp.add_argument("--deterministic", action="store_true",
                    help="inject failures at the exact instants the period implies")
    sp.add_argument("--seed", type=int, default=1)
    common(sp)
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    # Looked up at each call, so a replaced ``cmd_*`` attribute is the one run.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except DivergedError as e:
        print(f"error: simulation diverged: {e}", file=sys.stderr)
        return 3
    except TorkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
