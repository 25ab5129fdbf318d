import numpy as np
import pytest

from xood.errors import ContractError, FormatError
from xood.keyvalue import (
    KeyValues,
    optional_float,
    read_key_values,
    read_table,
    write_table,
)
from xood.rng import Stream


def test_skips_blank_and_comment_lines_and_strips_whitespace():
    kv = KeyValues("# header\n\n a = 1 \nb=x=y\n  # indented comment\n", "t.txt")
    assert kv.entries == {"a": "1", "b": "x=y"}
    assert kv.get("a", int) == 1
    assert kv.get("b") == "x=y"


@pytest.mark.parametrize(
    "text, match",
    [
        ("a=1\nno separator\n", "t.txt line 2 is not key=value"),
        ("=1\n", "t.txt line 1 is not key=value"),
        ("a=1\na=2\n", "t.txt repeats key 'a' on line 2"),
    ],
)
def test_malformed_lines_raise(text, match):
    with pytest.raises(FormatError, match=match):
        KeyValues(text, "t.txt")


def test_missing_key_and_bad_value_name_key_and_file():
    kv = KeyValues("threshold=abc\n", "det/detector.txt")
    with pytest.raises(FormatError, match="det/detector.txt is missing key 'reg_c'"):
        kv.get("reg_c", float)
    with pytest.raises(FormatError, match="det/detector.txt.*'threshold'"):
        kv.get("threshold", optional_float)


def test_optional_float():
    assert optional_float("none") is None
    assert optional_float("-1.5") == -1.5
    for text in ("nan", "-inf", "-1e084545344292156"):
        with pytest.raises(ValueError, match="finite"):
            optional_float(text)


def test_read_key_values_rejects_non_utf8(tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes(b"a=\xff\n")
    with pytest.raises(FormatError, match="UTF-8"):
        read_key_values(path)
    path.write_text("a=1\n")
    kv = read_key_values(path)
    assert kv.source == str(path) and kv.get("a") == "1"


def finite_bit_patterns(seed, dtype, n):
    """``n`` random finite values of ``dtype``, drawn as raw bit patterns so
    every exponent and subnormals appear."""
    uint = np.dtype(f"u{np.dtype(dtype).itemsize}")
    bits = np.random.default_rng(seed).integers(0, np.iinfo(uint).max, n, uint, True)
    values = bits.view(dtype)
    return values[np.isfinite(values)]


def test_write_table_reads_back_bit_identical(tmp_path):
    path = tmp_path / "t.csv"
    f64 = finite_bit_patterns(1, np.float64, 4000)
    f32 = finite_bit_patterns(2, np.float32, 4000)
    n = min(len(f64), len(f32))
    flags = np.arange(n) % 2
    write_table(path, "dim", {"a": f64[:n], "b": f32[:n], "flagged": flags})
    lines = path.read_text().splitlines()
    assert lines[0] == "dim,a,b,flagged"
    assert lines[1].startswith("0,") and lines[1].endswith(",0")
    assert lines[2].endswith(",1")
    names, table = read_table(path, "dim", ("a", "b", "flagged"))
    assert names == ["a", "b", "flagged"]
    # float64 exactly; float32 text read as float64 narrows to the same bits
    assert np.array_equal(table[:, 0].view(np.uint64), f64[:n].view(np.uint64))
    narrowed = table[:, 1].astype(np.float32)
    assert np.array_equal(narrowed.view(np.uint32), f32[:n].view(np.uint32))
    assert np.array_equal(table[:, 2], flags)


def test_write_table_refuses_unequal_columns_and_non_finite_values(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ContractError, match="column 'b' has 2 rows, column 'a' 3"):
        write_table(path, "index", {"a": np.zeros(3), "b": np.zeros(2)})
    for bad in (np.nan, np.inf, -np.inf):
        b = Stream(1).normal(4)
        b[1] = bad
        a = np.zeros(4, np.float32)
        a[2] = bad
        with pytest.raises(ContractError, match="row 1, column 'b' is not finite"):
            write_table(path, "index", {"a": a, "b": b})
    assert not path.exists()
