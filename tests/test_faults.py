"""Damaged stage containers and bad PM CSVs end in their documented exit
code, never in a traceback.

Each case damages one container of a small trained workspace, runs the
stage that reads it and puts the original bytes back. ``series.ilos`` is
read by ``build``, ``windows.ilos`` by ``train`` and each model's
``model.ilos`` by ``evaluate``; each stage loads every container before it
computes or writes anything. Damage is deterministic:
seeded cut points, and every byte of the container header and seeded bytes
of its metadata and index blocks flipped (XOR 0xFF). Flips of payload bytes
are not covered: the container holds no checksum, so they go undetected.

The PM CSV cases ingest edited lines of the workspace's generated CSV into
a workspace of their own, and a ``ground_truth.csv`` field longer than
``csv.field_size_limit()`` is read by ``evaluate``.
"""

from __future__ import annotations

import csv
import io
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from iloscast.cli import RunConfig, cli_entry, run_stage
from iloscast.container import read_container, write_container

BOOSTER = "models/booster_net1/model.ilos"
BRITS = "models/brits_net1/model.ilos"

#: Each container, and the stage that reads it.
STAGES = {
    "ingest/net1/series.ilos": "build",
    "build/net1/windows.ilos": "train",
    BOOSTER: "evaluate",
    BRITS: "evaluate",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A workspace built up to trained models, a booster and a tiny
    recurrent model per network, and the CLI arguments that name it."""
    tmp = tmp_path_factory.mktemp("faults")
    cfg = RunConfig(
        seed=3,
        workspace=str(tmp / "ws"),
        synth={"ports_per_network": [20, 15], "days": 60},
        train={
            "models": ["booster", "brits"],
            "grid": [2],
            "brits": {"hidden_size": 4, "max_epochs_phase1": 1, "max_epochs_phase2": 1},
        },
    )
    for stage in ("synth", "ingest", "build", "train"):
        run_stage(stage, cfg)
    config = tmp / "run.yaml"
    cfg.dump(config)
    return Path(cfg.workspace), ["--config", str(config)]


@contextmanager
def replaced(path: Path, blob: bytes | None):
    """``path`` holding ``blob`` (deleted for None) for the block's length."""
    original = path.read_bytes()
    if blob is None:
        path.unlink()
    else:
        path.write_bytes(blob)
    try:
        yield
    finally:
        path.write_bytes(original)


def run_damaged(workspace, capsys, artifact: str, blob: bytes | None) -> tuple[int, str]:
    """Exit code and stderr of the stage that reads ``artifact`` holding ``blob``."""
    root, args = workspace
    with replaced(root / artifact, blob):
        code = cli_entry([STAGES[artifact], *args])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def blocks(blob: bytes) -> dict[str, range]:
    """Byte ranges of the header, the metadata block and the index block
    (each with its length field)."""
    (meta_len,) = struct.unpack("<I", blob[6:10])
    index_at = 10 + meta_len
    (index_len,) = struct.unpack("<I", blob[index_at : index_at + 4])
    return {
        "header": range(0, 10),
        "metadata": range(10, index_at),
        "index": range(index_at, index_at + 4 + index_len),
    }


@pytest.mark.parametrize("artifact", sorted(STAGES))
def test_truncated_container_exits_1(workspace, capsys, artifact):
    blob = (workspace[0] / artifact).read_bytes()
    rng = np.random.default_rng(11)
    cuts = [0, *sorted(rng.choice(np.arange(1, len(blob)), size=15, replace=False).tolist())]
    for cut in cuts:
        code, err = run_damaged(workspace, capsys, artifact, blob[:cut])
        assert code == 1, f"cut at {cut} of {len(blob)}: {err}"
        assert str(workspace[0] / artifact) in err


@pytest.mark.parametrize("block", ["header", "metadata", "index"])
@pytest.mark.parametrize("artifact", sorted(STAGES))
def test_flipped_byte_exits_1(workspace, capsys, artifact, block):
    blob = (workspace[0] / artifact).read_bytes()
    where = blocks(blob)[block]
    rng = np.random.default_rng(12)
    offsets = where if block == "header" else sorted(rng.choice(where, size=8, replace=False).tolist())
    for offset in offsets:
        damaged = bytearray(blob)
        damaged[offset] ^= 0xFF
        code, err = run_damaged(workspace, capsys, artifact, bytes(damaged))
        assert code == 1, f"byte {offset} flipped: {err}"
        assert str(workspace[0] / artifact) in err


@pytest.mark.parametrize("artifact", sorted(STAGES))
def test_deleted_container_exits_3(workspace, capsys, artifact):
    code, err = run_damaged(workspace, capsys, artifact, None)
    assert code == 3
    assert f"missing artifact {workspace[0] / artifact}" in err


def rewritten(path: Path, edit) -> bytes:
    """The bytes of the container at ``path`` after ``edit(arrays, meta)``
    changed its contents, which are written back unchanged."""
    arrays, meta = read_container(path)
    original = path.read_bytes()
    edit(arrays, meta)
    write_container(path, arrays, meta)
    blob = path.read_bytes()
    path.write_bytes(original)
    return blob


def empty_metadata(arrays, meta):
    meta.clear()


#: Array and metadata edits that leave a decodable container; each reaches
#: another check than the cases in test_cli and test_trees.
SHAPE_CASES = {
    "ingest/net1/series.ilos": {
        "start-day-float": lambda a, m: a.update(start_day=a["start_day"].astype(np.float64)),
        "n-days-2d": lambda a, m: a.update(n_days=a["n_days"][None]),
        "networks-int": lambda a, m: m.update(networks=list(range(len(m["networks"])))),
        "onehot-width": lambda a, m: a.update(onehot=a["onehot"][:, 1:]),
        "start-day-short": lambda a, m: a.update(start_day=a["start_day"][1:]),
    },
    "build/net1/windows.ilos": {
        "present-day-short": lambda a, m: a.update(present_day=a["present_day"][1:]),
        "split-long": lambda a, m: a.update(split=np.append(a["split"], a["split"][:1])),
        "network-code-short": lambda a, m: a.update(network_code=a["network_code"][:-1]),
        "norm-std-short": lambda a, m: m["norm"].update(std=m["norm"]["std"][:-1]),
        "x-2d": lambda a, m: a.update(x=a["x"][:, 0]),
    },
    BOOSTER: {
        "n-nodes-sum": lambda a, m: a["n_nodes"].__setitem__(0, a["n_nodes"][0] + 2),
        "n-nodes-zero": lambda a, m: a.update(n_nodes=np.append(a["n_nodes"], 0)),
        "threshold-short": lambda a, m: a.update(threshold=a["threshold"][:-1]),
        "feature-float": lambda a, m: a.update(feature=a["feature"].astype(np.float64)),
        "config-list": lambda a, m: m.update(config=[m["config"]]),
    },
    BRITS: {
        "block-shape": lambda a, m: a.update({"fwd.lstm_U": a["fwd.lstm_U"][:, 1:]}),
        "block-missing": lambda a, m: a.pop("bwd.cls_b"),
        "block-nan": lambda a, m: a["fwd.cls_W"].__setitem__(0, np.nan),
        "hidden-size": lambda a, m: m.update(hidden_size=m["hidden_size"] + 1),
        "n-features-text": lambda a, m: m.update(n_features="x"),
    },
}


@pytest.mark.parametrize("artifact", sorted(STAGES))
def test_inconsistent_container_exits_1(workspace, capsys, artifact):
    path = workspace[0] / artifact
    cases = {"empty-metadata": empty_metadata, **SHAPE_CASES[artifact]}
    for name, edit in cases.items():
        code, err = run_damaged(workspace, capsys, artifact, rewritten(path, edit))
        assert code == 1, f"{name}: {err}"
        assert f"{path}: " in err, name


#: Identity values a model container's metadata cannot hold; each case
#: names the key its message must name.
IDENTITY_CASES = {
    "grid-scores-int": ("grid_scores", 5),
    "grid-scores-triple": ("grid_scores", [[1, 0.5, 2]]),
    "grid-scores-count-text": ("grid_scores", [["1", 0.5]]),
    "grid-scores-metric-text": ("grid_scores", [[1, "0.5"]]),
    "dataset-list": ("dataset", ["x"]),
    "name-int": ("name", 1),
    "kind-null": ("kind", None),
    "scope-mapping": ("scope", {"net": 1}),
    "imputation-int": ("imputation", 0),
    "kind-unknown": ("kind", "xyz"),
    "kind-of-another-family": ("kind", "forest"),
    "imputation-of-a-forest": ("imputation", "zero"),
}


@pytest.mark.parametrize("artifact", [BOOSTER, BRITS])
def test_model_identity_value_exits_1(workspace, capsys, artifact):
    path = workspace[0] / artifact
    for case, (key, value) in IDENTITY_CASES.items():
        code, err = run_damaged(workspace, capsys, artifact, rewritten(path, lambda a, m: m.update({key: value})))
        assert code == 1, f"{case}: {err}"
        assert f"{path}: " in err and repr(key) in err, case
    for key in ("name", "kind", "scope", "dataset", "imputation", "grid_scores"):
        code, err = run_damaged(workspace, capsys, artifact, rewritten(path, lambda a, m: m.pop(key)))
        assert code == 1, f"{key} missing: {err}"
        assert f"{path}: metadata is missing key(s) {key!r}" in err


def ingest_text(tmp_path, capsys, text: str, name: str = "case") -> tuple[int, str, Path]:
    """Exit code and stderr of ``ingest`` of one CSV holding ``text``, and
    the workspace it wrote."""
    csv_path = tmp_path / f"{name}.csv"
    csv_path.write_bytes(text.encode("utf-8"))
    cfg = RunConfig(seed=3, workspace=str(tmp_path / f"{name}-ws"), ingest={"inputs": [str(csv_path)]})
    config = tmp_path / f"{name}.yaml"
    cfg.dump(config)
    code = cli_entry(["ingest", "--config", str(config)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err, Path(cfg.workspace)


@pytest.fixture(scope="module")
def pm_lines(workspace):
    """The header and the first 400 data lines of the generated net1.csv."""
    return (workspace[0] / "synth" / "net1.csv").read_text(encoding="utf-8").splitlines()[:401]


def set_value(lines: list[str], row: int, value: str) -> list[str]:
    """``lines`` with the pm_value of data line ``row`` replaced."""
    fields = lines[row + 1].split(",")
    return [*lines[: row + 1], ",".join([*fields[:5], value]), *lines[row + 2 :]]


#: (edit of the lines to the CSV text, README exit code, stderr part) per case.
INGEST_CASES = {
    "crlf": (lambda lines: "\r\n".join(lines) + "\r\n", 0, ""),
    "bom": (lambda lines: "\ufeff" + "\n".join(lines) + "\n", 1, "case.csv: bad header ['\\ufeffnetwork_id'"),
    "inf": (lambda lines: "\n".join(set_value(lines, 7, "inf")) + "\n", 1, "case.csv:9: pm_value for"),
    "nan": (lambda lines: "\n".join(set_value(lines, 7, "nan")) + "\n", 1, "case.csv:9: pm_value for"),
    "empty": (lambda lines: "", 1, "case.csv: empty file"),
    "header-only": (lambda lines: lines[0] + "\n", 1, "no records found in the input files"),
    "non-ascii-port": (lambda lines: "\n".join(lines).replace(",p0000,", ",p\u00e9,") + "\n", 0, ""),
}


@pytest.mark.parametrize("case", sorted(INGEST_CASES))
def test_ingest_csv_case_exit_code(tmp_path, capsys, pm_lines, case):
    edit, expected, message = INGEST_CASES[case]
    code, err, ws = ingest_text(tmp_path, capsys, edit(pm_lines))
    assert code == expected, err
    assert message in err
    if not expected:
        assert (ws / "ingest" / "net1" / "series.ilos").is_file()


def test_ingest_header_only_inputs_names_each_file(tmp_path, capsys, pm_lines):
    paths = [tmp_path / f"{name}.csv" for name in ("first", "second")]
    for path in paths:
        path.write_text(pm_lines[0] + "\n", encoding="utf-8")
    cfg = RunConfig(seed=3, workspace=str(tmp_path / "ws"), ingest={"inputs": [str(p) for p in paths]})
    config = tmp_path / "run.yaml"
    cfg.dump(config)
    code = cli_entry(["ingest", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"no records found in the input files: {paths[0]}, {paths[1]}" in err
    assert "Traceback" not in err


def test_quoted_ids_reach_csv_artifacts_as_csv_writer_writes_them(workspace, tmp_path, capsys):
    """A port_id holding a comma and a double quote goes through ingest,
    build, train and evaluate; audit.csv and predictions.csv read back to
    the original id and hold the bytes csv.writer writes for their rows."""
    odd = 'p,"0001'
    inputs = []
    for name in ("net1.csv", "net2.csv"):
        with open(workspace[0] / "synth" / name, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows:
            row[1] = odd if row[1] == "p0001" and row[0] == "net1" else row[1]
        inputs.append(tmp_path / name)
        with open(inputs[-1], "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
    cfg = RunConfig(
        seed=3,
        workspace=str(tmp_path / "ws"),
        ingest={"inputs": [str(p) for p in inputs]},
        train={"models": ["booster"], "grid": [2]},
    )
    config = tmp_path / "run.yaml"
    cfg.dump(config)
    for stage in ("ingest", "build", "train", "evaluate"):
        code = cli_entry([stage, "--config", str(config)])
        assert code == 0, capsys.readouterr().err
    root = Path(cfg.workspace)
    for path, lineterminator, column, prefix in (
        (root / "build" / "net1" / "audit.csv", "\r\n", 1, odd),
        (root / "eval" / "booster_net1" / "predictions.csv", "\n", 0, f"net1:{odd}:"),
    ):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert any(row[column].startswith(prefix) for row in rows[1:]), path
        expected = io.StringIO(newline="")
        csv.writer(expected, lineterminator=lineterminator).writerows(rows)
        assert path.read_bytes() == expected.getvalue().encode("utf-8"), path


def test_ingest_non_ascii_digit_reads_as_its_digit(tmp_path, capsys, pm_lines):
    """A value written with ARABIC-INDIC DIGIT ONE ingests to the same
    series bytes as one written with 1: values pass through float() as text."""
    blobs = []
    for name, digit in (("ascii", "1"), ("arabic", "\u0661")):
        code, err, ws = ingest_text(tmp_path, capsys, "\n".join(set_value(pm_lines, 7, digit)) + "\n", name)
        assert code == 0, err
        blobs.append((ws / "ingest" / "net1" / "series.ilos").read_bytes())
    assert blobs[0] == blobs[1]


def test_ground_truth_field_over_limit_exits_1(workspace, capsys):
    root, args = workspace
    truth = root / "synth" / "ground_truth.csv"
    lines = truth.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = "net1,p0002," + "x" * (csv.field_size_limit() + 1) + ",1\n"
    with replaced(truth, "".join(lines).encode()):
        code = cli_entry(["evaluate", *args])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"{truth}:4: field larger than field limit" in err
    assert "Traceback" not in err


def test_ground_truth_directory_exits_1(workspace, capsys):
    root, args = workspace
    truth = root / "synth" / "ground_truth.csv"
    original = truth.read_bytes()
    truth.unlink()
    truth.mkdir()
    try:
        code = cli_entry(["evaluate", *args])
    finally:
        truth.rmdir()
        truth.write_bytes(original)
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"cannot read {truth}" in err
    assert "Traceback" not in err
