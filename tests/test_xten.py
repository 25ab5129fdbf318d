import itertools
import struct

import numpy as np
import pytest

from xood.errors import ContractError, FormatError
from xood.rng import Stream
from xood.xten import decode_tensor, encode_tensor, read_tensor, write_tensor


def test_round_trip_bit_exact(tmp_path):
    for dtype, shape in itertools.product(
        (np.float32, np.float64), [(1,), (5,), (3, 4), (2, 1, 28, 28)]
    ):
        arr = Stream(hash(shape) & 0xFFFF).normal(int(np.prod(shape)))
        arr = arr.astype(dtype).reshape(shape)
        path = tmp_path / "t.xten"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


def test_special_values_survive():
    arr = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45], dtype=np.float32)
    back, _ = decode_tensor(encode_tensor(arr))
    assert back.tobytes() == arr.tobytes()  # NaN payload included


def test_header_layout():
    for code, dtype in enumerate((np.float32, np.float64)):
        blob = encode_tensor(np.zeros((2, 3), dtype=dtype))
        assert blob[:4] == b"XTEN"
        assert blob[4] == 1 and blob[5] == code and blob[6] == 2
        assert struct.unpack_from("<II", blob, 7) == (2, 3)
        assert len(blob) == 7 + 8 + np.dtype(dtype).itemsize * 6


def test_scalar_promoted_to_1d():
    back, _ = decode_tensor(encode_tensor(np.float32(2.5)))
    assert back.shape == (1,) and back[0] == np.float32(2.5)


def test_zero_extent_rejected():
    with pytest.raises(ContractError):
        encode_tensor(np.zeros((0, 3), dtype=np.float32))


def test_decode_reports_offsets():
    blob = bytearray(encode_tensor(np.arange(6, dtype=np.float32).reshape(2, 3)))

    with pytest.raises(FormatError, match="offset 0"):
        decode_tensor(b"XT")
    with pytest.raises(FormatError, match="magic"):
        decode_tensor(b"NOPE" + blob[4:])
    bad = bytes(blob[:4]) + b"\x02" + bytes(blob[5:])
    with pytest.raises(FormatError, match="version.*offset 4"):
        decode_tensor(bad)
    bad = bytes(blob[:5]) + b"\x07" + bytes(blob[6:])
    with pytest.raises(FormatError, match="dtype.*offset 5"):
        decode_tensor(bad)
    with pytest.raises(FormatError, match="truncated XTEN dims"):
        decode_tensor(bytes(blob[:9]))
    with pytest.raises(FormatError, match="truncated XTEN payload"):
        decode_tensor(bytes(blob[:-4]))


def test_zero_dim_in_header_rejected():
    blob = bytearray(encode_tensor(np.zeros((2, 3), dtype=np.float32)))
    struct.pack_into("<I", blob, 7 + 4, 0)  # second dim -> 0
    with pytest.raises(FormatError, match="dim 1.*offset 11"):
        decode_tensor(bytes(blob))


def test_read_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.xten"
    path.write_bytes(encode_tensor(np.ones(3, dtype=np.float32)) + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_tensor(path)


def test_decode_at_offset():
    a = encode_tensor(np.arange(4, dtype=np.float32))
    b = encode_tensor(np.ones((2, 2), dtype=np.float32))
    buf = a + b
    first, end = decode_tensor(buf)
    second, end2 = decode_tensor(buf, end)
    assert end2 == len(buf)
    assert first.shape == (4,) and second.shape == (2, 2)


def test_non_float64_input_is_cast_to_float32():
    for arr in (np.array([1, 2]), np.array([True, False]), np.float16([1.5])):
        back, _ = decode_tensor(encode_tensor(arr))
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)
