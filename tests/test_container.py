from __future__ import annotations

import numpy as np
import pytest

from iloscast.container import MAGIC, read_container, write_container
from iloscast.errors import DataError


def test_round_trip(tmp_path):
    arrays = {
        "a": np.arange(12, dtype=np.float64).reshape(3, 4),
        "b": np.array([1, 0, 1], dtype=np.int8),
        "empty": np.zeros((0, 5), dtype=np.float64),
    }
    meta = {"schema": {"x": 1}, "note": "hello"}
    path = tmp_path / "data.ilos"
    write_container(path, arrays, meta)

    got_arrays, got_meta = read_container(path)
    assert got_meta == meta
    for name, arr in arrays.items():
        assert got_arrays[name].dtype == arr.dtype
        np.testing.assert_array_equal(got_arrays[name], arr)


def test_magic_bytes(tmp_path):
    path = tmp_path / "data.ilos"
    write_container(path, {"a": np.ones(2)}, {})
    assert path.read_bytes()[:5] == MAGIC


def test_deterministic_bytes(tmp_path):
    arrays = {"a": np.linspace(0, 1, 7), "b": np.array([2, 3], dtype=np.int32)}
    p1, p2 = tmp_path / "one.ilos", tmp_path / "two.ilos"
    write_container(p1, arrays, {"k": [1, 2]})
    write_container(p2, arrays, {"k": [1, 2]})
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE!rest of the file")
    with pytest.raises(DataError, match="magic"):
        read_container(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "data.ilos"
    write_container(path, {"a": np.ones(100)}, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(DataError, match="truncated"):
        read_container(path)


def test_rejects_truncation_at_every_offset(tmp_path):
    path = tmp_path / "data.ilos"
    write_container(path, {"a": np.arange(3.0), "b": np.ones(2, dtype=np.int8)}, {"k": "v"})
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            read_container(path)


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b'{"k"', b'{"k\xff', "undecodable metadata"),  # not UTF-8
        (b'{"k"', b'["k"', "undecodable metadata"),  # not JSON
        (b'{"k": "v"}', b'["k", "v"]', "metadata is not a JSON dict"),
        (b'"dtype": "int8"', b'"dtypo": "int8"', "bad array index entry"),
        (b'"int8"', b'"<O8 "', "bad array index entry"),  # dtype not allowed
    ],
)
def test_rejects_corrupt_blocks(tmp_path, old, new, message):
    path = tmp_path / "data.ilos"
    write_container(path, {"a": np.arange(3.0), "b": np.ones(2, dtype=np.int8)}, {"k": "v"})
    blob = path.read_bytes()
    assert blob.count(old) == 1 and len(old) == len(new)
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(DataError, match=message):
        read_container(path)


def test_rejects_object_dtype(tmp_path):
    with pytest.raises(DataError, match="dtype"):
        write_container(tmp_path / "x.ilos", {"a": np.array(["s"], dtype=object)}, {})
