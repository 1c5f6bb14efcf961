"""Command-line front end: analytic evaluation, simulation, trace analysis,
and cross-validation of the three TOR routes.

Exit codes: 0 success, 2 validation, parse or file error, 3 simulation divergence.
Text output rounds to 6 decimals; ``--json`` emits full precision.
"""
from __future__ import annotations

import argparse
import json
import os
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
from .timeline import stage_breakdown, write_csv


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


def _open_output(path: str):
    try:
        return open(path, "w")
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from None


def _check_writable(*paths: str | None) -> None:
    """Check that every given output path can be opened for writing, before
    any is written, so that a failed command leaves no partial set of outputs.

    The check writes nothing; a file it creates is removed again when a later
    path fails. A path that exists and is not a regular file (a FIFO, a
    device) is not probed: closing a probe would end a FIFO reader's input.
    """
    created = []
    for path in filter(None, paths):
        if os.path.exists(path) and not os.path.isfile(path):
            continue
        new = not os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as e:
            for p in created:
                os.remove(p)
            raise ValidationError(f"cannot write {path}: {e}") from None
        if new:
            created.append(path)


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# subcommands

def cmd_analytic(args) -> int:
    cfg = _load_json(args.config)
    if "mixture" in cfg:
        m = mixture_from_dict(cfg)
        weighted = analytic.tor_mixture_weighted(m)
        composite = analytic.tor_mixture_time_composite(m) if args.composite else None
        comps = []
        for spec, w in m.components:
            totals = spec.totals()
            comps.append({
                "kind": totals.kind,
                "weight": w,
                "tor": analytic.tor_of_period(spec),
                "mtbf": totals.mtbf,
            })
        if args.json:
            out = {"tor": weighted, "components": comps}
            if args.composite:
                out["tor_time_composite"] = composite
            _emit_json(out)
        else:
            print(f"TOR (occurrence-weighted): {weighted:.6f}")
            if args.composite:
                print(f"TOR (time-composite):      {composite:.6f}")
            if not args.quiet:
                for c in comps:
                    print(
                        f"  {c['kind']:<9} weight {c['weight']:g}: "
                        f"TOR {c['tor']:.6f}, MTBF {c['mtbf']:.6f} s"
                    )
        return 0

    p = period_from_dict(cfg)
    tor = analytic.tor_of_period(p)
    mtbf = p.totals().mtbf
    breakdown = stage_breakdown(analytic.period_to_timeline(p))
    if args.json:
        _emit_json({
            "tor": tor,
            "mtbf": mtbf,
            "stage_breakdown": {
                str(k): {"time": t, "lost_time": lost} for k, (t, lost) in breakdown.items()
            },
        })
    else:
        print(f"TOR:  {tor:.6f}")
        print(f"MTBF: {mtbf:.6f} s")
        if not args.quiet:
            print("stage breakdown (time s / lost s):")
            for stage, (t, lost) in breakdown.items():
                print(f"  {str(stage):<18} {t:.6f} / {lost:.6f}")
    return 0


def cmd_simulate(args) -> int:
    cfg_dict = _load_json(args.config)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    cfg = SimConfig.from_dict(cfg_dict)
    if (args.emit_trace and args.emit_csv
            and os.path.realpath(args.emit_trace) == os.path.realpath(args.emit_csv)):
        raise ValidationError(f"--emit-trace and --emit-csv name the same file: {args.emit_csv}")
    summary = monte_carlo(cfg, args.replications)
    first = summary.first_result

    _check_writable(args.emit_trace, args.emit_csv)
    if args.emit_trace:
        with _open_output(args.emit_trace) as f:
            trace_mod.write_jsonl(first.timeline, f)
    if args.emit_csv:
        with _open_output(args.emit_csv) as f:
            write_csv(first.timeline, f)

    if args.json:
        out = summary.to_dict()
        out["first_result"] = first.to_dict()
        _emit_json(out)
    else:
        print(f"mean TOR: {summary.mean_tor:.6f}")
        print(f"stddev:   {summary.std_tor:.6f}")
        print(f"95% CI:   [{summary.ci95[0]:.6f}, {summary.ci95[1]:.6f}]")
        if not args.quiet:
            print(
                f"replications: {summary.completed} completed, "
                f"{summary.diverged} diverged"
            )
            print(f"replication {summary.outcomes[0].index}: t_obs {first.t_obs:.6f} s, "
                  f"t_opt {first.t_opt:.6f} s, {len(first.periods)} complete periods")
    return 0


def cmd_trace(args) -> int:
    try:
        with open(args.input, "rb") as f:
            tr = trace_mod.parse_trace(f)
    except OSError as e:
        raise ValidationError(f"cannot read trace {args.input}: {e}") from None
    rep = trace_mod.report(tr)
    if args.csv:
        with _open_output(args.csv) as f:
            write_csv(tr, f)
    if args.json:
        _emit_json(rep)
    elif args.quiet:
        print(f"TOR: {rep['tor']:.6f}")
    else:
        print(trace_mod.render_report(rep))
    return 0


def cmd_compare(args) -> int:
    p = period_from_dict(_load_json(args.config))
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
        summary = monte_carlo(cfg, args.replications)
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
    if args.json:
        _emit_json(out)
    else:
        print(f"analytic TOR:                 {analytic_tor:.6f}")
        print(f"{sim_label}:  {simulated:.6f} (ci95 [{ci[0]:.6f}, {ci[1]:.6f}])")
        print(f"closed form @ realized means: {realized:.6f}")
        if not args.quiet:
            print(f"delta sim - analytic:         {simulated - analytic_tor:+.6f}")
            print(f"delta realized - analytic:    {realized - analytic_tor:+.6f}")
            print(f"complete periods:             {n_periods}")
            if replications:
                print(f"replications:                 {replications['completed']} completed, "
                      f"{replications['diverged']} diverged")
    return 0


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
