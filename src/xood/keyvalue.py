"""Strict readers for the package's two text formats, ``key=value`` text
and numeric tables, the one table writer, and the UTF-8 decoding every
text loader shares.

``key=value`` text holds network manifests, detector bundles and CLI config
files. Blank lines and ``#`` lines are skipped. A line without ``=``, a
repeated key, a missing key and a value that does not convert raise
FormatError naming the file and the key. Numeric tables are the score and
feature CSVs and the power transform; ``read_table`` states their rules,
which ``write_table`` keeps. Bytes that are not UTF-8 raise FormatError
naming the source and the offset of the first bad byte.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import ContractError, FormatError

T = TypeVar("T")


class KeyValues:
    """The entries of one key=value text; ``source`` names it in errors."""

    def __init__(self, text: str, source: str):
        self.source = source
        self.entries: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or not key:
                raise FormatError(f"{source} line {lineno} is not key=value: {line!r}")
            if key in self.entries:
                raise FormatError(f"{source} repeats key {key!r} on line {lineno}")
            self.entries[key] = value.strip()

    def get(self, key: str, convert: Callable[[str], T] = str) -> T:
        """The value of a required key, passed through ``convert``."""
        if key not in self.entries:
            raise FormatError(f"{self.source} is missing key {key!r}")
        value = self.entries[key]
        try:
            return convert(value)
        except ValueError as exc:
            raise FormatError(
                f"{self.source}: bad value {value!r} for key {key!r}: {exc}"
            ) from None


def decode_utf8(raw: bytes | memoryview, source: str, offset: int = 0) -> str:
    """``raw`` decoded as UTF-8. Other bytes raise FormatError naming
    ``source`` and the offset of the first bad byte, for ``raw`` read from
    position ``offset`` of its file."""
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{source} is not UTF-8 text: {exc}", offset=offset + exc.start
        ) from None


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; other bytes raise FormatError."""
    return decode_utf8(Path(path).read_bytes(), str(path))


def read_key_values(path: str | Path) -> KeyValues:
    return KeyValues(read_utf8(path), str(path))


def finite_float(text: str) -> float:
    """Converter for a finite float; ``nan`` and ``inf`` are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def optional_float(text: str) -> float | None:
    """Converter for a value written as a finite float or as ``none``."""
    return None if text == "none" else finite_float(text)


def read_table(
    path: str | Path, index: str, columns: Sequence[str] | None = None
) -> tuple[list[str], np.ndarray]:
    """The column names after ``index`` and the float64 cells of a table.

    Blank lines are skipped. The header is ``index`` and then ``columns``,
    or any names when ``columns`` is None. Row i is the number i and one
    finite float per name. Anything else raises FormatError naming the file
    and the row.
    """
    lines = [line for line in read_utf8(path).splitlines() if line.strip()]
    head, *names = lines[0].split(",") if lines else [None]
    if head != index or not names or names != list(columns or names):
        want = ",".join([index, *(columns or ["..."])])
        raise FormatError(f"{path}: bad header {lines[:1]}, expected {want!r}")
    rows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        try:
            row = [float(cell) for cell in parts[1:]]
            good = int(parts[0]) == i and len(row) == len(names)
        except ValueError:
            good = False
        if not good or not np.isfinite(row).all():
            raise FormatError(
                f"{path} row {i}: {line!r} is not the index {i} followed by "
                f"{len(names)} finite numbers"
            )
        rows.append(row)
    return names, np.array(rows, dtype=np.float64).reshape(len(rows), len(names))


def refuse_non_finite(table: np.ndarray, names: Sequence[str], source: str) -> None:
    """Raise ContractError naming ``source`` and the first non-finite cell of
    the 2-D ``table``, by row and column name, if it has one."""
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise ContractError(f"{source}: row {row}, column {names[col]!r} is not finite")


def write_table(
    path: str | Path, index: str, columns: Mapping[str, np.ndarray]
) -> None:
    """Write the table ``read_table`` reads back: the header ``index`` and the
    column names, then row i as i and each column's i-th value, written as
    ``str()`` of its numpy scalar, the shortest text that reads back to the
    same value in the column's dtype. Columns of unequal length and
    non-finite values raise ContractError, and nothing is written."""
    names, values = list(columns), list(columns.values())
    for name, column in zip(names, values):
        if column.shape != values[0].shape[:1]:
            raise ContractError(f"{path}: column {name!r} has {len(column)} rows, "
                                f"column {names[0]!r} {len(values[0])}")
    refuse_non_finite(np.stack(values, axis=1), names, str(path))
    lines = [",".join([index, *names])]
    lines += [",".join([str(i), *map(str, row)]) for i, row in enumerate(zip(*values))]
    Path(path).write_text("\n".join(lines) + "\n")
