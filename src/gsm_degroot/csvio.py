"""The CSV format of every result file the package writes and every CSV it reads.

Files use the csv module's default dialect: comma separated, a field
quoted only when it must be, rows ended by \\r\\n. Callers pass floats as
repr strings, which read back to the same value.
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


def read_csv(path) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, row) for each non-empty row of path; empty rows count as lines."""
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if row:
                yield line, row


def failure_text(exc: Exception) -> str:
    """A failed run as a result file records it: "Type: message"."""
    return f"{type(exc).__name__}: {exc}"
