import pytest

from xood.errors import FormatError
from xood.keyvalue import KeyValues, optional_float, read_key_values


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
