"""XTEN: a minimal binary tensor container.

Layout, all multi-byte integers little-endian:

    bytes 0..3   magic ``b"XTEN"``
    byte  4      format version, 0x01
    byte  5      dtype code: 0x00 = float32, 0x01 = float64
    byte  6      ndim (1..255)
    next 4*ndim  dims as uint32, each >= 1
    rest         row-major payload, prod(dims) values of that dtype

float64 arrays are written with code 1; every other array is cast to
float32 and written with code 0. Write-then-read round trips are bit-exact.
Malformed input raises FormatError carrying the byte offset of the first
inconsistency. ``ByteReader`` checks the bounds of every binary format:
XTEN, XNET (``network``) and IDX (``datasets``).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError

MAGIC = b"XTEN"
VERSION = 1
DTYPES = (np.dtype("<f4"), np.dtype("<f8"))  # indexed by dtype code

_HEADER_FIXED = 7  # magic + version + dtype + ndim


def encode_tensor(array: np.ndarray) -> bytes:
    """Serialize an array as XTEN bytes (float64 kept, anything else cast
    to float32, C order)."""
    code = int(np.asarray(array).dtype == np.float64)
    arr = np.ascontiguousarray(array, dtype=DTYPES[code])
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim > 255:
        raise ContractError(f"XTEN supports at most 255 dims, got {arr.ndim}")
    if any(d < 1 for d in arr.shape):
        raise ContractError(f"XTEN dims must all be >= 1, got shape {arr.shape}")
    header = MAGIC + bytes([VERSION, code, arr.ndim])
    dims = b"".join(struct.pack("<I", d) for d in arr.shape)
    return header + dims + arr.tobytes()


class ByteReader:
    """A bounds-checked cursor over a binary file's bytes; ``name`` names the
    format in errors. A part that runs past the end raises FormatError at
    the offset where the part starts."""

    def __init__(self, buf: bytes, name: str, pos: int = 0):
        self.view = memoryview(buf)
        self.name = name
        self.pos = pos

    def take(self, n: int, part: str) -> memoryview:
        """The next ``n`` bytes, as a view into the buffer."""
        start, have = self.pos, max(len(self.view) - self.pos, 0)
        if have < n:
            raise FormatError(
                f"truncated {self.name} {part}: {part} is {have} bytes, expected {n}",
                offset=start,
            )
        self.pos += n
        return self.view[start : self.pos]

    def unpack(self, layout: str, part: str) -> tuple:
        """The next ``struct`` ``layout`` worth of bytes, unpacked."""
        return struct.unpack(layout, self.take(struct.calcsize(layout), part))

    def finish(self) -> None:
        """Refuse bytes left after the last part."""
        if self.pos != len(self.view):
            raise FormatError(f"trailing bytes after {self.name} payload", offset=self.pos)


def decode_tensor(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one XTEN blob starting at ``offset``.

    Returns the array and the offset one past the blob. Offsets in error
    messages are absolute positions in ``buf``.
    """
    reader = ByteReader(buf, "XTEN", offset)
    magic, version, code, ndim = reader.unpack("<4sBBB", "header")
    if magic != MAGIC:
        raise FormatError("bad XTEN magic", offset=offset)
    if version != VERSION:
        raise FormatError(f"unsupported XTEN version {version}", offset=offset + 4)
    if code >= len(DTYPES):
        raise FormatError(f"unsupported XTEN dtype code {code}", offset=offset + 5)
    if ndim < 1:
        raise FormatError("XTEN ndim must be >= 1", offset=offset + 6)
    dims = reader.unpack(f"<{ndim}I", "dims")
    for i, d in enumerate(dims):
        if d < 1:
            raise FormatError(
                f"XTEN dim {i} must be >= 1, got {d}",
                offset=offset + _HEADER_FIXED + 4 * i,
            )
    dtype = DTYPES[code]
    payload = reader.take(dtype.itemsize * math.prod(dims), "payload")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy(), reader.pos


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write one tensor to ``path`` in XTEN format."""
    Path(path).write_bytes(encode_tensor(array))


def read_tensor(path: str | Path) -> np.ndarray:
    """Read one tensor from an XTEN file; bytes after its payload are refused."""
    buf = Path(path).read_bytes()
    arr, end = decode_tensor(buf)
    ByteReader(buf, "XTEN", end).finish()
    return arr
