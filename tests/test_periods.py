"""Per-period means, field by field, against a reference written here.

``mean_periods`` averages each column of its records with one ``math.fsum``;
the reference takes the same means one named field at a time, so every mean
must agree to the last bit. The examples are derandomized.
"""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from torkit.periods import FAIL_SLOW, FAIL_STOP, MIXED, StageTotals, mean_periods  # noqa: E402

# Times from 0 through the subnormals up to 1e300, so that no sum of 50 overflows.
times = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]), st.floats(0.0, 1e300))
records = st.builds(
    StageTotals, st.sampled_from([FAIL_STOP, FAIL_SLOW, MIXED]), times, times, times, times,
    st.integers(0, 10**6), times, times, times, times)


def reference_means(records: list[StageTotals]) -> tuple[str, list[float]]:
    """One kind, or MIXED, and the fsum of each numeric field over the count."""
    kinds = {r.kind for r in records}
    kind = kinds.pop() if len(kinds) == 1 else MIXED
    return kind, [math.fsum(getattr(r, name) for r in records) / len(records)
                  for name in StageTotals._fields[1:]]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(records, min_size=1, max_size=50))
def test_mean_periods_matches_field_by_field_reference(records):
    means = mean_periods(records)
    kind, expected = reference_means(records)
    assert type(means) is StageTotals
    assert means.kind == kind
    assert [x.hex() for x in means[1:]] == [x.hex() for x in expected]
