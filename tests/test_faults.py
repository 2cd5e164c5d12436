"""Damaged stage containers end in their documented exit code, never in a
traceback.

Each case damages one container of a small built workspace, runs the stage
that reads it and puts the original bytes back. ``series.ilos`` is read by
``build`` and ``windows.ilos`` by ``train``; both stages load every
container before they compute or write anything. Damage is deterministic:
seeded cut points, and every byte of the container header and seeded bytes
of its metadata and index blocks flipped (XOR 0xFF). Flips of payload bytes
are not covered: the container holds no checksum, so they go undetected.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from iloscast.cli import RunConfig, cli_entry, run_stage
from iloscast.container import read_container, write_container

#: Each container, and the stage that reads it.
STAGES = {"ingest/net1/series.ilos": "build", "build/net1/windows.ilos": "train"}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A workspace built up to windows, and the CLI arguments that name it."""
    tmp = tmp_path_factory.mktemp("faults")
    cfg = RunConfig(
        seed=3,
        workspace=str(tmp / "ws"),
        synth={"ports_per_network": [20, 15], "days": 60},
        train={"models": ["booster"], "grid": [2]},
    )
    for stage in ("synth", "ingest", "build"):
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


#: Array edits that no load check of the parent version caught; each
#: reaches another check than the cases in test_cli.
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
}


@pytest.mark.parametrize("artifact", sorted(STAGES))
def test_inconsistent_container_exits_1(workspace, capsys, artifact):
    path = workspace[0] / artifact
    cases = {"empty-metadata": empty_metadata, **SHAPE_CASES[artifact]}
    for name, edit in cases.items():
        code, err = run_damaged(workspace, capsys, artifact, rewritten(path, edit))
        assert code == 1, f"{name}: {err}"
        assert f"{path}: " in err, name
