"""Training Overhead Ratio (TOR) toolkit.

TOR is the ratio of the time a fixed workload would take on an ideal,
failure-free system to the time it actually took. The toolkit computes it
three independent ways (closed forms, discrete-event simulation, trace
analysis) and cross-validates them.
"""
from .errors import (
    DivergedError,
    TorkitError,
    TraceParseError,
    UndefinedMetricError,
    ValidationError,
)
from .model import (
    FailSlowPeriod,
    FailStopPeriod,
    FailureMixture,
    RateTimeline,
    Segment,
    StageKind,
    mtbf_fail_slow,
    mtbf_fail_stop,
)
from .analytic import (
    period_to_timeline,
    tor_fail_slow,
    tor_fail_stop,
    tor_from_mtbf_fail_slow,
    tor_from_mtbf_fail_stop,
    tor_mixture_time_composite,
    tor_mixture_weighted,
)
from .timeline import (
    integrate_optimal_time,
    observed_time,
    stage_breakdown,
    tor_of_timeline,
)
from .simulator import (
    Exponential,
    Fixed,
    LogNormal,
    MonteCarloSummary,
    SimConfig,
    SimResult,
    config_from_period,
    monte_carlo,
    realized_period_tor_check,
    simulate,
)
from .trace import estimate_mtbf, parse_trace, report, trace_to_timeline

__version__ = "0.1.0"
