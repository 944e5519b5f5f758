"""The text csvio writes for a number, and the rows of a series file."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsm_degroot.csvio import write_csv, write_series_csv


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("csvio")


def written(directory, header, rows) -> bytes:
    path = directory / "rows.csv"
    write_csv(path, header, rows)
    return path.read_bytes()


# any float64 bit pattern, and the values whose text is easiest to get wrong
float64s = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.225073858507201e-308, 1e16, -1e16, 0.1]),
)


@given(x=float64s)
@settings(max_examples=500, deadline=None)
def test_a_number_is_written_as_the_repr_of_its_float(directory, x):
    want = written(directory, ["x"], [[repr(float(x)), 1]])
    assert written(directory, ["x"], [[x, 1]]) == want
    assert written(directory, ["x"], [[np.float64(x), 1]]) == want


fields = st.lists(st.one_of(st.integers(-5, 5), float64s, st.sampled_from(["", "axis"])), max_size=3)


@given(header=st.lists(st.sampled_from(["t", "value", "a,b", ""]), min_size=1, max_size=4),
       series=st.lists(st.tuples(fields, st.lists(float64s, max_size=4)), max_size=4))
@settings(max_examples=200, deadline=None)
def test_series_rows_equal_the_rows_of_write_csv(directory, header, series):
    rows = [[*head, t, value] for head, values in series for t, value in enumerate(values)]
    path = directory / "series.csv"
    write_series_csv(path, header, series)
    assert path.read_bytes() == written(directory, header, rows)
