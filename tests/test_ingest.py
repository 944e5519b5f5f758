"""Series loading and preprocessing for the fitting pipeline."""

import logging
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsm_degroot.ingest import (
    _MAX_SAMPLES,
    FILLS,
    SeriesError,
    TimeSeries,
    _parse_timestamp,
    check_preprocess,
    load_series,
    preprocess,
)


def write_csv(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# loading


def test_dated_rows_parse_in_order(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n2021-03-01,0\n2021-03-02,5\n2021-03-03,2\n")
    series = load_series(path)
    assert np.array_equal(series.values, [0.0, 5.0, 2.0])
    assert series.timestamps == (date(2021, 3, 1), date(2021, 3, 2), date(2021, 3, 3))


def test_integer_ticks_parse(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n3,1.5\n4,2.5\n")
    series = load_series(path)
    assert series.timestamps == (3, 4)
    assert np.array_equal(series.values, [1.5, 2.5])


def test_shuffled_rows_match_sorted_file(tmp_path):
    sorted_path = write_csv(tmp_path, "timestamp,value\n1,10\n2,20\n3,30\n", "a.csv")
    shuffled_path = write_csv(tmp_path, "timestamp,value\n3,30\n1,10\n2,20\n", "b.csv")
    first = load_series(sorted_path)
    second = load_series(shuffled_path)
    assert first.timestamps == second.timestamps
    assert np.array_equal(first.values, second.values)


def test_duplicate_timestamp_named_in_error(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n2021-03-01,1\n2021-03-01,2\n")
    with pytest.raises(SeriesError, match="duplicate timestamp.*2021, 3, 1"):
        load_series(path)


def test_unparseable_values_skipped_and_logged(tmp_path, caplog):
    path = write_csv(tmp_path, "timestamp,value\n1,1.0\n2,oops\n3,3.0\n")
    with caplog.at_level(logging.WARNING, logger="gsm_degroot.ingest"):
        series = load_series(path)
    assert np.array_equal(series.values, [1.0, 3.0])
    assert "skipped 1 rows" in caplog.text
    assert "[3]" in caplog.text  # file line of the bad row, header included


def test_a_malformed_first_row_is_logged_not_read_as_a_header(tmp_path, caplog):
    # its timestamp parses, so the line is data with a bad value
    path = write_csv(tmp_path, "0,abc\n1,0.5\n2,0.4\n")
    with caplog.at_level(logging.WARNING, logger="gsm_degroot.ingest"):
        series = load_series(path)
    assert series.timestamps == (1, 2)
    assert "skipped 1 rows" in caplog.text
    assert "[1]" in caplog.text


def test_short_rows_are_skipped_not_fatal(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n1,1.0\n2\n3,3.0\n")
    series = load_series(path)
    assert np.array_equal(series.values, [1.0, 3.0])


def test_negative_value_rejected_with_line(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n1,1.0\n2,-4\n")
    with pytest.raises(SeriesError, match=r"negative values at lines \[3\]"):
        load_series(path)


def test_non_finite_values_rejected_with_lines(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n1,2\n2,nan\n3,inf\n")
    with pytest.raises(SeriesError, match=r"non-finite values at lines \[3, 4\]"):
        load_series(path)


def test_empty_file_rejected(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n")
    with pytest.raises(SeriesError, match="no usable rows"):
        load_series(path)


def test_all_rows_bad_mentions_skipped_lines(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n1,x\n2,y\n")
    with pytest.raises(SeriesError, match=r"no usable rows.*skipped lines \[2, 3\]"):
        load_series(path)


def test_mixed_timestamp_kinds_rejected(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n1,1.0\n2021-03-01,2.0\n")
    with pytest.raises(SeriesError, match="mixed timestamp kinds"):
        load_series(path)


def test_unrecognized_timestamp_rejected(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\nyesterday,1.0\n")
    with pytest.raises(SeriesError, match="neither an integer tick nor an ISO date"):
        load_series(path)


def test_an_unrecognized_timestamp_names_its_line(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n1,0.5\n2,0.4\nyesterday,0.4\n4,0.2\n")
    with pytest.raises(SeriesError, match=r"^line 4: timestamp 'yesterday' is neither"):
        load_series(path)
    # a first line whose value parses is data, whatever follows its value column
    path = write_csv(tmp_path, "abc,0.3,x\n1,0.5\n")
    with pytest.raises(SeriesError, match=r"^line 1: timestamp 'abc' is neither"):
        load_series(path)


def test_blank_lines_ignored(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n\n1,1.0\n\n2,2.0\n")
    assert len(load_series(path)) == 2


# ---------------------------------------------------------------------------
# series invariants


def test_series_rejects_length_mismatch():
    with pytest.raises(SeriesError, match="differ in length"):
        TimeSeries(timestamps=(1, 2, 3), values=np.ones(2))


def test_series_rejects_empty():
    with pytest.raises(SeriesError, match="empty series"):
        TimeSeries(timestamps=(), values=np.array([]))


def test_series_rejects_non_finite_values():
    with pytest.raises(SeriesError, match="finite and non-negative"):
        TimeSeries(timestamps=(1, 2), values=np.array([1.0, np.nan]))


def test_series_rejects_unordered_timestamps():
    with pytest.raises(SeriesError, match="not strictly increasing at 1"):
        TimeSeries(timestamps=(2, 1), values=np.ones(2))


# ---------------------------------------------------------------------------
# preprocessing


def ticks(values, start=0):
    values = np.asarray(values, dtype=np.float64)
    return TimeSeries(timestamps=tuple(range(start, start + values.size)), values=values)


def test_identity_configuration_is_identity():
    series = ticks([1.0, 2.0, 3.0])
    out = preprocess(series, window=None, smooth=1, fill="zero")
    assert out.timestamps == series.timestamps
    assert np.array_equal(out.values, series.values)
    again = preprocess(out, window=None, smooth=1, fill="zero")
    assert np.array_equal(again.values, out.values)


def test_centered_average_with_zero_padded_ends():
    out = preprocess(ticks([0.0, 3.0, 0.0]), smooth=3)
    assert np.allclose(out.values, [1.0, 1.0, 1.0])


def test_zero_fill_inserts_missing_tick():
    series = TimeSeries(timestamps=(0, 1, 3), values=np.array([1.0, 2.0, 4.0]))
    out = preprocess(series, fill="zero")
    assert out.timestamps == (0, 1, 2, 3)
    assert np.array_equal(out.values, [1.0, 2.0, 0.0, 4.0])


def test_previous_fill_carries_last_value():
    series = TimeSeries(timestamps=(0, 1, 3), values=np.array([1.0, 2.0, 4.0]))
    out = preprocess(series, fill="previous")
    assert np.array_equal(out.values, [1.0, 2.0, 2.0, 4.0])


def test_missing_days_are_filled(tmp_path):
    series = TimeSeries(
        timestamps=(date(2021, 3, 1), date(2021, 3, 4)), values=np.array([2.0, 3.0])
    )
    out = preprocess(series, fill="zero")
    assert out.timestamps == tuple(date(2021, 3, d) for d in (1, 2, 3, 4))
    assert np.array_equal(out.values, [2.0, 0.0, 0.0, 3.0])


def test_window_crop_is_inclusive():
    out = preprocess(ticks([1.0, 2.0, 3.0, 4.0, 5.0]), window=(1, 3))
    assert out.timestamps == (1, 2, 3)
    assert np.array_equal(out.values, [2.0, 3.0, 4.0])


def test_crop_then_fill_then_smooth():
    series = TimeSeries(timestamps=(0, 1, 3, 9), values=np.array([1.0, 2.0, 4.0, 9.0]))
    out = preprocess(series, window=(0, 3), smooth=3, fill="previous")
    assert out.timestamps == (0, 1, 2, 3)
    assert np.allclose(out.values, np.convolve([1.0, 2.0, 2.0, 4.0], np.ones(3) / 3, mode="same"))


def test_string_window_ends_read_as_timestamps():
    days = TimeSeries(timestamps=tuple(date(2020, 1, d) for d in range(1, 11)), values=np.arange(10.0))
    out = preprocess(days, window=("2020-01-03", "2020-01-05"))
    assert out.timestamps == (date(2020, 1, 3), date(2020, 1, 4), date(2020, 1, 5))
    assert np.array_equal(out.values, [2.0, 3.0, 4.0])
    assert preprocess(ticks([1.0, 2.0, 3.0, 4.0]), window=("1", 2)).timestamps == (1, 2)


@pytest.mark.parametrize("series, window", [
    (TimeSeries(timestamps=(date(2020, 1, 1), date(2020, 1, 2)), values=np.ones(2)), (0, 5)),
    (ticks([1.0, 2.0]), ("2020-01-01", "2020-01-02")),
])
def test_window_of_the_other_timestamp_kind_rejected(series, window):
    with pytest.raises(SeriesError, match="does not match the series timestamps"):
        preprocess(series, window=window)


def test_empty_crop_rejected():
    with pytest.raises(SeriesError, match="selects no samples"):
        preprocess(ticks([1.0, 2.0]), window=(10, 20))


@pytest.mark.parametrize("width", [0, -3, 2, 4])
def test_non_odd_smooth_width_rejected(width):
    with pytest.raises(SeriesError, match="odd positive integer"):
        preprocess(ticks([1.0, 2.0, 3.0]), smooth=width)


def test_a_smooth_wider_than_the_filled_series_is_named():
    with pytest.raises(SeriesError, match="^smooth width 5 exceeds the 3 samples of the filled series$"):
        preprocess(ticks([1.0, 1.0, 1.0]), smooth=5)
    # the width is checked against the filled length, not the sample count
    gapped = TimeSeries(timestamps=(0, 4), values=np.array([1.0, 2.0]))
    assert len(preprocess(gapped, smooth=5)) == 5
    with pytest.raises(SeriesError, match="smooth width 7 exceeds the 5 samples"):
        preprocess(gapped, smooth=7)


def test_the_filled_series_holds_at_most_a_million_samples():
    assert _MAX_SAMPLES == 10**6
    at_cap = preprocess(TimeSeries(timestamps=(0, 3, _MAX_SAMPLES - 1), values=np.array([1.0, 2.0, 3.0])))
    assert len(at_cap) == _MAX_SAMPLES
    # one sample past the cap names the widest gap by its two timestamps
    past = TimeSeries(timestamps=(0, 3, _MAX_SAMPLES), values=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(SeriesError, match="^filling would make 1000001 samples, more than 1000000; "
                                          "the widest gap runs from 3 to 1000000$"):
        preprocess(past)
    dated = TimeSeries(timestamps=(date(1000, 1, 1), date(1000, 1, 2) + timedelta(days=_MAX_SAMPLES - 1)),
                       values=np.array([1.0, 2.0]))
    with pytest.raises(SeriesError, match="the widest gap runs from 1000-01-01 to 3737-11-28$"):
        preprocess(dated)
    # the cap applies to the cropped range
    assert len(preprocess(past, window=(0, 3))) == 4


def test_unknown_fill_rejected():
    with pytest.raises(SeriesError, match="fill must be"):
        preprocess(ticks([1.0, 2.0]), fill="interpolate")


def test_output_timestamps_strictly_increasing():
    series = TimeSeries(timestamps=(0, 4, 7), values=np.array([1.0, 0.5, 2.0]))
    out = preprocess(series, smooth=3)
    assert all(a < b for a, b in zip(out.timestamps, out.timestamps[1:]))
    assert len(out) == 8


def test_smoothing_keeps_values_non_negative_and_sum_close():
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 5.0, 30)
    out = preprocess(ticks(values), smooth=5)
    assert np.all(out.values >= 0.0)
    # mass only leaks across the zero-padded ends
    assert abs(out.values.sum() - values.sum()) <= 5 * values.max()


# The per-timestamp fill that preprocess replaced, kept as the reference:
# it lists every timestamp of the filled range, then walks that list
# through a {timestamp: value} dict.


def _unit_range(lo, hi):
    if isinstance(lo, int):
        return list(range(lo, hi + 1))
    out = []
    cur = lo
    while cur <= hi:
        out.append(cur)
        cur = cur + timedelta(days=1)
    return out


def reference_preprocess(series, window, smooth, fill):
    check_preprocess(smooth, fill)
    timestamps = list(series.timestamps)
    values = series.values
    if window is not None:
        lo, hi = (_parse_timestamp(end) if isinstance(end, str) else end for end in window)
        dated = isinstance(timestamps[0], date)
        if any(isinstance(end, date) != dated for end in (lo, hi)):
            kind = "ISO dates" if dated else "integer ticks"
            raise SeriesError(f"window {tuple(window)!r} does not match the series timestamps, which are {kind}")
        keep = [i for i, ts in enumerate(timestamps) if lo <= ts <= hi]
        if not keep:
            raise SeriesError(f"window {tuple(window)!r} selects no samples")
        timestamps = [timestamps[i] for i in keep]
        values = values[keep]
    full = _unit_range(timestamps[0], timestamps[-1])
    if len(full) != len(timestamps):
        have = dict(zip(timestamps, values))
        filled = np.empty(len(full))
        last = 0.0
        for i, ts in enumerate(full):
            if ts in have:
                last = have[ts]
                filled[i] = last
            else:
                filled[i] = 0.0 if fill == "zero" else last
        values = filled
        timestamps = full
    if smooth > len(values):
        raise SeriesError(f"smooth width {smooth} exceeds the {len(values)} samples of the filled series")
    if smooth > 1:
        kernel = np.ones(smooth) / smooth
        values = np.convolve(values, kernel, mode="same")
    return TimeSeries(timestamps=tuple(timestamps), values=np.asarray(values))


@st.composite
def preprocess_cases(draw):
    """A series of ticks or days with gaps, a window or None, a fill and an odd width."""
    dated = draw(st.booleans())
    offsets = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    start = draw(st.sampled_from([date(2020, 2, 27), date(1999, 12, 30)]) if dated
                 else st.sampled_from([0, -7, 10**12]))
    stamp = (lambda k: start + timedelta(days=k)) if dated else (lambda k: start + k)
    values = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e6), min_size=len(offsets),
                           max_size=len(offsets)))
    series = TimeSeries(timestamps=tuple(stamp(k) for k in offsets), values=np.array(values))
    # window ends around the series, as timestamps or their csv text, of
    # either kind; some cross or miss every sample
    end = st.integers(-5, 45).map(stamp)
    end = end | end.map(str) | st.sampled_from([3, "2020-03-01"])
    window = draw(st.none() | st.tuples(end, end))
    return series, window, draw(st.sampled_from(FILLS)), draw(st.integers(0, 6)) * 2 + 1


def outcome(run, case):
    series, window, fill, smooth = case
    try:
        out = run(series, window=window, smooth=smooth, fill=fill)
    except SeriesError as exc:
        return str(exc)
    return [(type(ts), ts) for ts in out.timestamps], out.values.dtype, out.values.tobytes()


@settings(max_examples=150, deadline=None)
@given(preprocess_cases())
def test_preprocess_matches_the_per_timestamp_walk(case):
    assert outcome(preprocess, case) == outcome(reference_preprocess, case)
