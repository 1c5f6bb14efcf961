"""Training Overhead Ratio (TOR) toolkit.

TOR is the ratio of the time a fixed workload would take on an ideal,
failure-free system to the time it actually took. The toolkit computes it
three independent ways (closed forms, discrete-event simulation, trace
analysis) and cross-validates them.

``import torkit`` runs only ``torkit.errors``. Reading any other public name,
or a submodule, imports the submodule that defines it (PEP 562).
"""
from importlib import import_module as _import

from .errors import (DivergedError, TorkitError, TraceParseError, UndefinedMetricError,
                     ValidationError)

# The public names read from a submodule, by that submodule.
_NAMES = {
    "model": ("FailSlowPeriod", "FailStopPeriod", "FailureMixture", "MixtureComponent",
              "RateTimeline", "Segment", "StageKind", "mtbf_fail_slow", "mtbf_fail_stop"),
    "analytic": ("period_to_timeline", "tor_fail_slow", "tor_fail_stop",
                 "tor_from_mtbf_fail_slow", "tor_from_mtbf_fail_stop",
                 "tor_mixture_time_composite", "tor_mixture_weighted"),
    "timeline": ("integrate_optimal_time", "observed_time", "stage_breakdown",
                 "tor_of_timeline"),
    "simulator": ("Exponential", "Fixed", "LogNormal", "MonteCarloSummary", "SimConfig",
                  "SimResult", "config_from_period", "monte_carlo",
                  "realized_period_tor_check", "simulate"),
    "trace": ("estimate_mtbf", "parse_trace", "report", "trace_to_timeline"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = ("errors", *_NAMES, "periods")

__all__ = sorted(("DivergedError", "TorkitError", "TraceParseError", "UndefinedMetricError",
                  "ValidationError", *_HOME, *_SUBMODULES))
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _import(f".{_HOME[name]}", __name__)
    value = getattr(home, name)
    # Only the home's own definition is bound here, so no patch outlives its undo.
    if (getattr(value, "__module__", None) == home.__name__
            and getattr(value, "__globals__", vars(home)) is vars(home)):
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
