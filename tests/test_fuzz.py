"""Fuzz tests for the JSON and JSONL readers.

Whatever a config or trace holds, torkit either accepts it or raises a
``TorkitError``, which the CLI turns into exit code 2 and one ``error:`` line.
Any other exception escapes and fails the test. A trace also gives the same
events, or the same error, as the reference parser in ``test_trace``, and as
its lines' decoded values. A valid mixture reads back from the JSON its writer
gives. The examples are derandomized, so every run checks the same inputs.
"""
import contextlib
import io
import json
from dataclasses import fields
from datetime import datetime, timedelta, timezone

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from torkit import (  # noqa: E402
    FailSlowPeriod, FailStopPeriod, FailureMixture, MixtureComponent, SimConfig, StageKind,
    TorkitError, parse_trace, report,
)
from torkit.cli import main  # noqa: E402
from torkit.model import mixture_from_dict  # noqa: E402
from test_trace import decoded_items, outcome, reference_parse_trace  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=50)

scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Mostly numbers, up to the extremes that overflow a float conversion or a sum.
numbers = st.one_of(
    st.floats(),
    st.floats(min_value=0, max_value=100),
    st.integers(min_value=-1, max_value=10**400),
    st.integers(min_value=0, max_value=10),
)
field_values = numbers | json_values

PERIOD_FIELDS = ["t_sr", "r_sr", "t_h", "n_ckpt", "t_ckpt", "t_rb", "t_fs", "r_fs", "t_r"]
periods = st.fixed_dictionaries(
    {"kind": st.sampled_from(["fail_stop", "fail_slow"]) | json_values},
    optional={**{f: field_values for f in PERIOD_FIELDS}, "junk": json_values},
)
components = st.fixed_dictionaries(
    {"weight": field_values, "period": periods | json_values},
    optional={"junk": json_values},
)
mixtures = st.fixed_dictionaries(
    {"mixture": st.lists(components, max_size=3) | json_values},
    optional={"junk": json_values},
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@FUZZ
@given(config=periods | mixtures)
@example(config={"kind": "fail_stop", "t_h": 1, "t_ckpt": 1, "n_ckpt": 10**400})
@example(config={"kind": "fail_stop", "t_h": 1e308, "t_r": 1e308})
@example(config={"mixture": [{"weight": 1e308, "period": {"kind": "fail_stop", "t_h": 1}}] * 2})
def test_analytic_exits_0_or_2(config_path, config):
    config_path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["analytic", str(config_path), "--json", "--composite"])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


times = st.floats(min_value=0, max_value=1e6)
ratios = st.floats(min_value=0, max_value=1)
shared = {"t_sr": times, "r_sr": ratios, "t_h": st.floats(min_value=1, max_value=1e6),
          "n_ckpt": st.integers(0, 10), "t_ckpt": times, "t_r": times}
valid_periods = (st.builds(FailStopPeriod, t_rb=times, **shared)
                 | st.builds(FailSlowPeriod, t_fs=times, r_fs=ratios, **shared))
valid_mixtures = st.lists(
    st.builds(MixtureComponent, weight=st.floats(min_value=1e-6, max_value=1e6),
              period=valid_periods),
    min_size=1, max_size=4,
).map(lambda components: FailureMixture(tuple(components)))


@FUZZ
@given(m=valid_mixtures)
def test_mixture_round_trip(m):
    # The writer gives a mixture file's shape, and its JSON text reads back equal.
    d = m.to_dict()
    assert list(d) == ["mixture"] and isinstance(d["mixture"], list)
    for c, component in zip(d["mixture"], m.mixture, strict=True):
        assert list(c) == ["weight", "period"]
        assert list(c["period"]) == ["kind", *(f.name for f in fields(component.period))]
        assert c["period"]["kind"] == component.period.kind
    assert mixture_from_dict(json.loads(json.dumps(d))) == m
    assert mixture_from_dict(d) == m


SIM_CONFIG = {
    "w_opt": 1.0, "total_work": 500, "ckpt_interval": 20, "t_ckpt": 1,
    "fail_stop_rate": 0.01, "fail_slow_rate": 0.002,
    "t_r_dist": {"kind": "fixed", "value": 5},
    "t_sr_dist": {"kind": "lognormal", "median": 2, "sigma": 0.5},
    "t_fs_dist": {"kind": "exponential", "mean": 3},
    "r_sr": 0.5, "r_fs": 0.3, "seed": 21,
    "fail_stop_times": [10, 30], "watchdog_cycles": 100,
}
DIST_FIELDS = ["kind", "value", "mean", "median", "sigma", "junk"]
PATHS = [(f,) for f in [*SIM_CONFIG, "fail_slow_times", "junk"]] + [
    (d, f) for d in ("t_r_dist", "t_sr_dist", "t_fs_dist") for f in DIST_FIELDS
]


@FUZZ
@given(path=st.sampled_from(PATHS), value=field_values, delete=st.booleans())
def test_sim_config_one_field_mutation(path, value, delete):
    # Decode only: a decoded config can still describe an unbounded run.
    d = json.loads(json.dumps(SIM_CONFIG))
    target = d
    for key in path[:-1]:
        target = target[key]
    if delete:
        target.pop(path[-1], None)
    else:
        target[path[-1]] = value
    try:
        cfg = SimConfig.from_dict(d)
    except TorkitError:
        return
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


wall_clocks = st.builds(
    lambda t, tz: t.replace(tzinfo=tz).isoformat(),
    st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2000, 1, 2)),
    st.sampled_from([None, timezone.utc, timezone(timedelta(hours=-5))]),
)
events = st.fixed_dictionaries({}, optional={
    "t_start": field_values,
    "t_end": field_values,
    "stage": st.sampled_from([str(s) for s in StageKind]) | json_values,
    "rate": st.sampled_from([0, 0.5, 1]) | field_values,
    "duration": field_values,
    "wall_start": wall_clocks | json_values,
    "wall_end": wall_clocks | json_values,
    "note": json_values,
})


@FUZZ
@given(lines=st.lists(events.map(json.dumps) | st.text(max_size=8), max_size=4))
@example(lines=['{"t_start": 0, "t_end": 10, "stage": "HealthyRun", "rate": 1, "note": [1]}'])
def test_trace_parse_and_report(lines):
    text = "\n".join(lines)
    # The same events as the reference parser, or the same error.
    result = outcome(parse_trace, lambda: text)
    assert result == outcome(reference_parse_trace, lambda: text)
    # Its lines' decoded values give the same, where every line decodes.
    items = decoded_items(text)
    if items is not None:
        assert outcome(parse_trace, lambda: items) == result
    if result[0] == "events":
        try:
            report(parse_trace(text))
        except TorkitError:
            pass
