"""Strict reader for the ``key=value`` text of network manifests, detector
bundles and CLI config files, and the UTF-8 decoding every text loader
shares.

Blank lines and ``#`` lines are skipped. A line without ``=``, a repeated
key, a missing key and a value that does not convert raise FormatError
naming the file and the key. Bytes that are not UTF-8 raise FormatError
naming the source and the offset of the first bad byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, TypeVar

from .errors import FormatError

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


def decode_utf8(raw: bytes, source: str, offset: int = 0) -> str:
    """``raw`` decoded as UTF-8. Other bytes raise FormatError naming
    ``source`` and the offset of the first bad byte, for ``raw`` read from
    position ``offset`` of its file."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{source} is not UTF-8 text: {exc}", offset=offset + exc.start
        ) from None


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; other bytes raise FormatError."""
    return decode_utf8(Path(path).read_bytes(), str(path))


def read_key_values(path: str | Path) -> KeyValues:
    return KeyValues(read_utf8(path), str(path))


def optional_float(text: str) -> float | None:
    """Converter for a value written as a float or as ``none``."""
    return None if text == "none" else float(text)
