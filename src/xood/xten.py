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
inconsistency.
"""

from __future__ import annotations

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


def decode_tensor(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one XTEN blob starting at ``offset``.

    Returns the array and the offset one past the blob. Offsets in error
    messages are absolute positions in ``buf``.
    """
    if len(buf) - offset < _HEADER_FIXED:
        raise FormatError("truncated XTEN header", offset=offset)
    if buf[offset : offset + 4] != MAGIC:
        raise FormatError("bad XTEN magic", offset=offset)
    if buf[offset + 4] != VERSION:
        raise FormatError(
            f"unsupported XTEN version {buf[offset + 4]}", offset=offset + 4
        )
    code = buf[offset + 5]
    if code >= len(DTYPES):
        raise FormatError(f"unsupported XTEN dtype code {code}", offset=offset + 5)
    dtype = DTYPES[code]
    ndim = buf[offset + 6]
    if ndim < 1:
        raise FormatError("XTEN ndim must be >= 1", offset=offset + 6)
    dims_end = offset + _HEADER_FIXED + 4 * ndim
    if len(buf) < dims_end:
        raise FormatError("truncated XTEN dims", offset=len(buf))
    dims = struct.unpack_from(f"<{ndim}I", buf, offset + _HEADER_FIXED)
    for i, d in enumerate(dims):
        if d < 1:
            raise FormatError(
                f"XTEN dim {i} must be >= 1, got {d}",
                offset=offset + _HEADER_FIXED + 4 * i,
            )
    count = 1
    for d in dims:
        count *= d
    payload_end = dims_end + dtype.itemsize * count
    if len(buf) < payload_end:
        raise FormatError(
            f"truncated XTEN payload, need {payload_end - dims_end} bytes",
            offset=len(buf),
        )
    flat = np.frombuffer(buf, dtype=dtype, count=count, offset=dims_end)
    return flat.reshape(dims).copy(), payload_end


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write one tensor to ``path`` in XTEN format."""
    Path(path).write_bytes(encode_tensor(array))


def read_tensor(path: str | Path) -> np.ndarray:
    """Read one tensor from an XTEN file.

    Trailing bytes after the payload are rejected so silently corrupted
    files cannot pass.
    """
    buf = Path(path).read_bytes()
    arr, end = decode_tensor(buf)
    if end != len(buf):
        raise FormatError("trailing bytes after XTEN payload", offset=end)
    return arr
