"""Loading and preprocessing of observed event time series.

Input is a two-column csv (timestamp, value). Timestamps are either all
integer ticks or all ISO dates; values are non-negative reals. Rows are
sorted by timestamp; preprocessing crops, fills gaps, and smooths while
keeping the series non-negative and its length equal to the cropped range.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .csvio import read_csv

logger = logging.getLogger(__name__)

FILLS = ("zero", "previous")
_MAX_SAMPLES = 10**6  # the most samples preprocess fills, as many as graph nodes


class SeriesError(ValueError):
    """Malformed series file or preprocessing request."""


@dataclass
class TimeSeries:
    """Sorted observations; timestamps are ints or datetime.date, uniformly."""

    timestamps: tuple
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.timestamps) != self.values.size:
            raise SeriesError("timestamps and values differ in length")
        if self.values.size == 0:
            raise SeriesError("empty series")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise SeriesError("values must be finite and non-negative")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if not a < b:
                raise SeriesError(f"timestamps not strictly increasing at {b!r}")

    def __len__(self) -> int:
        return self.values.size


def _parse_timestamp(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise SeriesError(f"timestamp {text!r} is neither an integer tick nor an ISO date") from None


def load_series(path) -> TimeSeries:
    """Read, validate, and sort a timestamp,value csv.

    A first line whose timestamp and value both fail to parse is a header.
    Other rows whose value does not parse as a float are skipped and
    reported by line number. A timestamp that does not parse, duplicate
    timestamps, negative values, mixed timestamp kinds, and files with no
    usable rows are errors.
    """
    rows = []
    bad_lines = []
    for lineno, row in read_csv(path):
        if all(not cell.strip() for cell in row):
            continue
        # row[:2][-1] is the value column, or the one cell of a one-column line
        if lineno == 1 and not _parses(float, row[:2][-1]) and not _parses(_parse_timestamp, row[0]):
            continue  # header row
        if len(row) < 2:
            bad_lines.append(lineno)
            continue
        try:
            value = float(row[1])
        except ValueError:
            bad_lines.append(lineno)
            continue
        try:
            timestamp = _parse_timestamp(row[0])
        except SeriesError as exc:
            raise SeriesError(f"line {lineno}: {exc}") from None
        rows.append((lineno, timestamp, value))
    if bad_lines:
        logger.warning("skipped %d rows with unparseable values (lines %s)", len(bad_lines), bad_lines)
    if not rows:
        raise SeriesError(f"no usable rows in {path}" + (f" (skipped lines {bad_lines})" if bad_lines else ""))
    kinds = {type(ts) for _, ts, _ in rows}
    if len(kinds) > 1:
        raise SeriesError("mixed timestamp kinds: use all integer ticks or all ISO dates")
    negative = [lineno for lineno, _, value in rows if value < 0]
    if negative:
        raise SeriesError(f"negative values at lines {negative}")
    non_finite = [lineno for lineno, _, value in rows if not math.isfinite(value)]
    if non_finite:
        raise SeriesError(f"non-finite values at lines {non_finite}")
    rows.sort(key=lambda item: item[1])
    for (_, a, _), (lineno, b, _) in zip(rows, rows[1:]):
        if a == b:
            raise SeriesError(f"duplicate timestamp {b!r} (line {lineno})")
    return TimeSeries(
        timestamps=tuple(ts for _, ts, _ in rows),
        values=np.asarray([value for _, _, value in rows]),
    )


def _parses(parse, text: str) -> bool:
    """Whether parse(text) returns rather than raising ValueError."""
    try:
        parse(text)
        return True
    except ValueError:
        return False


def check_preprocess(smooth: int, fill: str) -> None:
    """Raise SeriesError unless preprocess takes this smooth width and fill."""
    if fill not in FILLS:
        raise SeriesError(f"fill must be 'zero' or 'previous', got {fill!r}")
    if smooth < 1 or smooth % 2 == 0:
        raise SeriesError(f"smooth width must be an odd positive integer, got {smooth}")


def preprocess(
    series: TimeSeries,
    window: tuple | None = None,
    smooth: int = 1,
    fill: str = "zero",
) -> TimeSeries:
    """Crop to a timestamp window, fill gaps, and smooth.

    The window ends are of the series' kind, integer ticks or dates; a
    string end is read as a timestamp of the csv.

    Gaps are filled at unit spacing (consecutive ticks or days) with zeros
    or the previous value. Smoothing is a centered moving average of odd
    width that zero-pads beyond the ends; smooth = 1 leaves values alone.
    The output keeps one entry per timestamp of the filled range, at most
    10**6 of them.
    """
    check_preprocess(smooth, fill)
    timestamps = series.timestamps
    dated = isinstance(timestamps[0], date)
    keep = range(len(timestamps))
    if window is not None:
        lo, hi = (_parse_timestamp(end) if isinstance(end, str) else end for end in window)
        if any(isinstance(end, date) != dated for end in (lo, hi)):
            kind = "ISO dates" if dated else "integer ticks"
            raise SeriesError(f"window {tuple(window)!r} does not match the series timestamps, which are {kind}")
        keep = [i for i, ts in enumerate(timestamps) if lo <= ts <= hi]
        if not keep:
            raise SeriesError(f"window {tuple(window)!r} selects no samples")
    # each kept sample's offset from the first kept one, in ticks or days;
    # latest holds the sample index at each offset and -1 in a gap, so its
    # running maximum is the last sample at or before each offset
    first = timestamps[keep[0]]
    unit = timedelta(days=1) if dated else 1
    at = np.array([(timestamps[i] - first) // unit for i in keep])
    if at[-1] >= _MAX_SAMPLES:
        gap = int(np.argmax(np.diff(at)))
        raise SeriesError(f"filling would make {at[-1] + 1} samples, more than {_MAX_SAMPLES}; the widest gap "
                          f"runs from {timestamps[keep[gap]]} to {timestamps[keep[gap + 1]]}")
    latest = np.full(at[-1] + 1, -1)
    latest[at] = keep
    values = series.values[np.maximum.accumulate(latest)]
    if fill == "zero":
        values[latest < 0] = 0.0
    if smooth > latest.size:
        raise SeriesError(f"smooth width {smooth} exceeds the {latest.size} samples of the filled series")
    if smooth > 1:
        values = np.convolve(values, np.ones(smooth) / smooth, mode="same")
    return TimeSeries(timestamps=tuple(first + k * unit for k in range(latest.size)), values=values)
