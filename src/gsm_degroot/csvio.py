"""The CSV format of every result file the package writes and every CSV it reads.

Files use the csv module's default dialect: comma separated, a field
quoted only when it must be, rows ended by \\r\\n. This module is the one
place that turns a number into text. Callers pass numbers, Python floats
or numpy float64s, and a field's text is str(x), which for both equals
repr(float(x)): the shortest text that reads back to the same value.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator


def write_csv(path, header: list, rows: Iterable[Iterable]) -> None:
    """Write the header row, then every row of rows, to path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(path, header: list, series: Iterable[tuple[list, list[float]]]) -> None:
    """Write the header row, then for each (fields, values) of series the
    rows fields..., t, values[t]; values are Python floats, and fields are
    numbers or text that needs no quoting.

    The bytes are write_csv's for the same rows, at a third of its cost over
    a long series.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for fields, values in series:
            head = "".join(f"{field}," for field in fields)
            fh.write("".join(f"{head}{t},{value!r}\r\n" for t, value in enumerate(values)))


def read_csv(path) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, row) for each non-empty row of path; empty rows count as lines."""
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if row:
                yield line, row


def failure_text(exc: Exception) -> str:
    """A failed run as a result file records it: "Type: message"."""
    return f"{type(exc).__name__}: {exc}"
