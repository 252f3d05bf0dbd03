"""CSV result tables: the cell format and one writer for a header plus columns."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np


def _csv_cell(value) -> str:
    """``repr`` of a float, so it reads back bit-exactly; ``""`` for None;
    ``1``/``0`` for a bool; the digits of an int."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def csv_column(values: Iterable) -> list[str]:
    """The cell of every value (see :func:`_csv_cell`); a Python float takes the short path."""
    return [repr(v) if type(v) is float else _csv_cell(v) for v in values]


def write_table(path: str | Path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """Write the header line, then one line per row of ``columns``, whose
    cells are already formatted and which all have the same length."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*columns)), ""]))
