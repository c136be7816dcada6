"""Any two-column float table is written exactly as ``%.9g`` text, by the
vectorized formatter and by whichever path ``cli._pairs`` picks."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graspmass import cli  # noqa: E402
from graspmass._g9 import format_pairs  # noqa: E402


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40),
       st.integers(1, 2 * cli._FAST_ROWS))
def test_any_floats_format_like_percent(values, rows):
    # the drawn values repeat down the table, so both paths see them
    table = np.resize(np.array(values, dtype=float), (rows, 2))
    want = (b"%.9g,%.9g\n" * rows) % tuple(table.ravel().tolist())
    assert format_pairs(table) == want
    assert cli._pairs(b"", table[:, 0], table[:, 1]) == want
