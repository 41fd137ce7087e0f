"""CSV ingestion of daily closing prices into indexed log-price series.

Rows map to trading-period indices 1..n in file order; calendar gaps are
ignored, so T and omega come out in trading periods, not calendar days.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np


class IngestError(ValueError):
    """Unreadable, empty, or invalid price input."""


@dataclass(frozen=True)
class RawSeries:
    """Positive closing prices with optional ISO-8601 dates and a source label."""

    closes: np.ndarray
    dates: Optional[List[str]] = None
    source: str = ""

    def __post_init__(self):
        closes = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "closes", closes)
        if closes.size == 0:
            raise IngestError(f"empty series from {self.source or 'input'}")
        if np.any(~np.isfinite(closes)) or np.any(closes <= 0):
            bad = int(np.argmax(~np.isfinite(closes) | (closes <= 0)))
            raise IngestError(f"non-positive close {closes[bad]} at index {bad + 1}")
        if self.dates is not None and list(self.dates) != sorted(self.dates):
            warnings.warn(f"dates out of order in {self.source or 'input'}", stacklevel=2)

    @property
    def n(self) -> int:
        return int(self.closes.size)


def _resolve_column(header: Optional[List[str]], spec: Union[str, int], width: int) -> int:
    if isinstance(spec, int) or (isinstance(spec, str) and spec.lstrip("-").isdigit()):
        pos = int(spec)
        if not (0 <= pos < width):
            raise IngestError(f"column position {pos} out of range for {width} columns")
        return pos
    if header is None:
        raise IngestError(f"column {spec!r} requested by name but the file has no header")
    lowered = [h.strip().lower() for h in header]
    if spec.strip().lower() not in lowered:
        raise IngestError(f"column {spec!r} not found in header {header}")
    return lowered.index(spec.strip().lower())


def load_csv(path, column: Union[str, int] = "close") -> RawSeries:
    """Read a comma-separated price file; the close column by name or 0-based position.

    A header row is detected by the close column failing to parse as a number;
    a header column named `date` is read as the dates. A UTF-8 byte-order mark
    is skipped. Rows with unparsable or non-positive closes, or without their
    date, abort with the 1-based file row number in the message.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row and any(f.strip() for f in row)]
    if not rows:
        raise IngestError(f"empty file: {path}")

    header = None
    first = rows[0]
    try:
        probe = first[int(column)] if str(column).lstrip("-").isdigit() else first[-1]
        float(probe)
    except (ValueError, IndexError):
        header = first
        rows = rows[1:]
    if not rows:
        raise IngestError(f"no data rows in {path}")

    col = _resolve_column(header, column, len(rows[0]))
    lowered = [h.strip().lower() for h in header or []]
    date_col = lowered.index("date") if "date" in lowered else None

    closes = []
    dates = [] if date_col is not None else None
    header_offset = 2 if header is not None else 1
    for rownum, row in enumerate(rows, start=header_offset):
        try:
            value = float(row[col])
        except (ValueError, IndexError) as exc:
            raise IngestError(f"{path}: row {rownum}: unparsable close {row!r}") from exc
        if not math.isfinite(value) or value <= 0:
            raise IngestError(f"{path}: row {rownum}: non-positive close {value}")
        closes.append(value)
        if dates is not None:
            if date_col >= len(row):
                raise IngestError(f"{path}: row {rownum}: no date in {row!r}")
            dates.append(row[date_col].strip())

    return RawSeries(closes=np.array(closes), dates=dates, source=str(path))

