from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iloscast import container
from iloscast.container import MAGIC, read_container, read_json, text_cells, write_container, write_csv, write_json
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


class DiskFullAfterHalf:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def _write_audit(path, n):
    from iloscast.dataset import Audit, write_audit_csv

    write_audit_csv(
        path,
        Audit(
            network_ids=np.array(["net1"], dtype=object),
            port_ids=np.array(["p1"], dtype=object),
            port=np.zeros(n, dtype=np.int64),
            present_day=np.arange(n, dtype=np.int64) + 738000,
            label=np.zeros(n, dtype=np.int8),
            reason=np.zeros(n, dtype=np.int8),
        ),
    )


def _write_tree_model(path, n):
    from iloscast.trees import BoosterConfig, TreeEnsemble

    write_container(path, *TreeEnsemble("booster", [], BoosterConfig(), n_columns=1, train_loss=[0.5] * n).to_container())


def _write_curve(path, n):
    from iloscast.metrics import PrCurve, write_curve_csv

    values = np.linspace(0.0, 1.0, n)
    write_curve_csv(path, PrCurve(values[::-1], values, values, n_pos=n, n_total=n))


WRITERS = {
    "container": lambda path, n: write_container(path, {"a": np.arange(n, dtype=np.float64)}, {"n": n}),
    "json": lambda path, n: write_json(path, {"values": list(range(n))}),
    "audit_csv": _write_audit,
    "tree_model": _write_tree_model,
    "curve_csv": _write_curve,
    # history.csv, predictions.csv, the synth CSVs and ground_truth.csv
    "csv": lambda path, n: write_csv(path, ["i", "square"], (f"{i},{i * i}" for i in range(n)), "\n"),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_interrupted_write_keeps_previous_artifact(tmp_path, monkeypatch, kind):
    path = tmp_path / "artifact"
    WRITERS[kind](path, 10)
    before = path.read_bytes()

    real_open = open
    monkeypatch.setattr(
        container, "open", lambda *a, **k: DiskFullAfterHalf(real_open(*a, **k)), raising=False
    )
    with pytest.raises(OSError, match="No space"):
        WRITERS[kind](path, 500)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    WRITERS[kind](path, 500)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


#: Names built from the characters that make csv.writer quote a cell, and
#: from characters that do not.
NAMES = st.one_of(st.just(""), st.text(alphabet=[",", '"', "\r", "\n", ":", " ", "\u00e9", "\u0416", "\u00df"]))


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.lists(NAMES, min_size=2, max_size=4), min_size=1, max_size=5))
def test_written_name_cells_equal_csv_writer(tmp_path_factory, rows):
    """Lines joined from text_cells, header included, are the bytes
    csv.writer writes for the same rows, under either line end."""
    path = tmp_path_factory.getbasetemp() / "names.csv"
    for lineterminator in ("\r\n", "\n"):
        lines = (",".join(text_cells(row, lineterminator)) for row in rows[1:])
        write_csv(path, rows[0], lines, lineterminator)
        expected = io.StringIO(newline="")
        csv.writer(expected, lineterminator=lineterminator).writerows(rows)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_read_json_names_missing_keys(tmp_path):
    path = tmp_path / "meta.json"
    write_json(path, {"name": "m"})
    assert read_json(path, required=("name",)) == {"name": "m"}
    with pytest.raises(DataError, match="missing key\\(s\\) 'kind', 'scope'"):
        read_json(path, required=("name", "kind", "scope"))
