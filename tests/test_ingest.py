"""Series loading and preprocessing for the fitting pipeline."""

import logging
from datetime import date

import numpy as np
import pytest

from gsm_degroot.ingest import SeriesError, TimeSeries, load_series, preprocess


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


def test_short_rows_are_skipped_not_fatal(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n1,1.0\n2\n3,3.0\n")
    series = load_series(path)
    assert np.array_equal(series.values, [1.0, 3.0])


def test_negative_value_rejected_with_line(tmp_path):
    path = write_csv(tmp_path, "timestamp,value\n1,1.0\n2,-4\n")
    with pytest.raises(SeriesError, match=r"negative values at lines \[3\]"):
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
