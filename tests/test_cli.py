from __future__ import annotations

import hashlib
import json
import shutil
import struct
from pathlib import Path

import pytest

from iloscast.cli import RunConfig, Workspace, cli_entry, run_stage
from iloscast.errors import ConfigError, MissingArtifactError


def tiny_config(tmp_path, seed=20240801) -> RunConfig:
    return RunConfig(
        seed=seed,
        workspace=str(tmp_path / "ws"),
        synth={
            "ports_per_network": [20, 12, 8],
            "days": 90,
        },
        train={
            "models": ["booster"],
            "grid": [10, 20],
        },
    )


def test_config_round_trip(tmp_path):
    cfg = tiny_config(tmp_path)
    path = tmp_path / "run.yaml"
    cfg.dump(path)
    loaded = RunConfig.load(path)
    assert loaded.to_dict() == cfg.to_dict()
    # and through a second dump -> load cycle
    loaded.dump(path)
    assert RunConfig.load(path).to_dict() == cfg.to_dict()


def test_config_requires_seed(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("workspace: w\n")
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.load(path)


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("seed: 1\nbogus: 2\n")
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.load(path)


def test_unknown_stage_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown stage"):
        run_stage("deploy", tiny_config(tmp_path))


def test_stage_dependency_errors(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(MissingArtifactError, match="synth"):
        run_stage("ingest", cfg)
    with pytest.raises(MissingArtifactError, match="ingest"):
        run_stage("build", cfg)
    with pytest.raises(MissingArtifactError, match="build"):
        run_stage("train", cfg)
    run_stage("synth", cfg)
    run_stage("ingest", cfg)
    run_stage("build", cfg)
    with pytest.raises(MissingArtifactError, match="train"):
        run_stage("evaluate", cfg)
    with pytest.raises(MissingArtifactError, match="pretrain"):
        run_stage("finetune", cfg)


@pytest.fixture(scope="module")
def pipeline_ws(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = tiny_config(tmp_path)
    for stage in ("synth", "ingest", "build", "train", "evaluate", "report"):
        run_stage(stage, cfg)
    return cfg, tmp_path


def test_full_pipeline_report_bounds(pipeline_ws):
    cfg, _ = pipeline_ws
    report = json.loads(
        (Workspace(cfg.workspace).root / "report" / "report.json").read_text()
    )
    assert report["models"]
    for model_report in report["models"].values():
        assert 0.0 <= model_report["overall"] <= 0.1
        for d in model_report["per_network"].values():
            assert 0.0 <= d <= 0.1


def test_predictions_scores_parse_as_plain_floats(pipeline_ws):
    cfg, _ = pipeline_ws
    paths = sorted((Workspace(cfg.workspace).root / "eval").glob("*/predictions.csv"))
    assert paths
    for path in paths:
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        assert header == "sample_id,score"
        assert lines
        for line in lines:
            assert 0.0 <= float(line.rsplit(",", 1)[1]) <= 1.0


def container_cut_points(blob: bytes) -> dict[str, int]:
    """A byte offset inside the header, the metadata and the array index."""
    (meta_len,) = struct.unpack("<I", blob[6:10])
    index_at = 10 + meta_len
    (index_len,) = struct.unpack("<I", blob[index_at : index_at + 4])
    return {
        "header": 8,
        "metadata": 10 + meta_len // 2,
        "index": index_at + 4 + index_len // 2,
    }


def copied_workspace(pipeline_ws, tmp_path):
    """A private copy of the shared workspace, and a config file pointing at it."""
    cfg, _ = pipeline_ws
    ws = tmp_path / "ws"
    shutil.copytree(cfg.workspace, ws)
    config = tmp_path / "run.yaml"
    cfg.dump(config)
    return ws, ["--config", str(config), "--workspace", str(ws)]


@pytest.mark.parametrize("where", ["header", "metadata", "index"])
def test_cli_truncated_container_exits_1(pipeline_ws, tmp_path, capsys, where):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    target = ws / "build" / "net1" / "windows.ilos"
    blob = target.read_bytes()
    target.write_bytes(blob[: container_cut_points(blob)[where]])
    assert cli_entry(["evaluate"] + args) == 1
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage, artifact",
    [
        ("evaluate", "models/booster_net1/meta.json"),
        ("evaluate", "models/booster_net1/model.json"),
        ("report", "eval/booster_net1/scores.json"),
    ],
)
def test_cli_truncated_json_exits_1(pipeline_ws, tmp_path, capsys, stage, artifact):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    target = ws / artifact
    target.write_bytes(target.read_bytes()[:10])
    assert cli_entry([stage] + args) == 1
    assert "undecodable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage, artifact, content",
    [
        ("evaluate", "models/booster_net1/meta.json", "{}"),
        ("evaluate", "models/booster_net1/meta.json", '{"name": "booster_net1", "kind": "booster"}'),
        ("evaluate", "models/booster_net1/model.json", '{"format": "iloscast-tree-ensemble", "version": 1}'),
        ("report", "eval/booster_net1/scores.json", '{"overall": 0.05}'),
    ],
)
def test_cli_json_missing_keys_exits_1(pipeline_ws, tmp_path, capsys, stage, artifact, content):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    (ws / artifact).write_text(content, encoding="utf-8")
    assert cli_entry([stage] + args) == 1
    assert "missing key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage, artifact, key",
    [("build", "ingest/net1/series.ilos", "ports"), ("evaluate", "build/net1/windows.ilos", "norm")],
)
def test_cli_container_metadata_missing_key_exits_1(pipeline_ws, tmp_path, capsys, stage, artifact, key):
    from iloscast.container import read_container, write_container

    ws, args = copied_workspace(pipeline_ws, tmp_path)
    arrays, meta = read_container(ws / artifact)
    del meta[key]
    write_container(ws / artifact, arrays, meta)
    assert cli_entry([stage] + args) == 1
    assert f"metadata is missing key(s) '{key}'" in capsys.readouterr().err


def test_cli_tree_missing_node_array_exits_1(pipeline_ws, tmp_path, capsys):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    target = ws / "models" / "booster_net1" / "model.json"
    payload = json.loads(target.read_text(encoding="utf-8"))
    del payload["trees"][0]["threshold"]
    target.write_text(json.dumps(payload), encoding="utf-8")
    assert cli_entry(["evaluate"] + args) == 1
    assert "tree is missing key(s) 'threshold'" in capsys.readouterr().err


def test_cli_missing_model_meta_exits_3(pipeline_ws, tmp_path, capsys):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    (ws / "models" / "booster_net1" / "meta.json").unlink()
    assert cli_entry(["evaluate"] + args) == 3
    assert "meta.json" in capsys.readouterr().err


def test_runlog_has_hashed_lineage(pipeline_ws):
    cfg, _ = pipeline_ws
    lines = (Workspace(cfg.workspace).root / "runlog.jsonl").read_text().strip().splitlines()
    stages = [json.loads(line)["stage"] for line in lines]
    assert stages[:4] == ["synth", "ingest", "build", "train"]
    build_entry = json.loads(lines[2])
    assert build_entry["inputs"]  # content hashes recorded
    for digest in build_entry["inputs"].values():
        assert len(digest) == 64


def test_evaluate_logs_input_hashes(pipeline_ws):
    cfg, _ = pipeline_ws
    root = Workspace(cfg.workspace).root
    lines = (root / "runlog.jsonl").read_text().strip().splitlines()
    (entry,) = [json.loads(line) for line in lines if json.loads(line)["stage"] == "evaluate"]
    expected = {root / "synth" / "ground_truth.csv"}
    for net in ("net1", "net2", "net3"):
        expected.add(root / "build" / net / "windows.ilos")
        expected.add(root / "models" / f"booster_{net}" / "meta.json")
        expected.add(root / "models" / f"booster_{net}" / "model.json")
    assert set(entry["inputs"]) == {str(p) for p in expected}
    for path, digest in entry["inputs"].items():
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_rerun_reproduces_report(pipeline_ws, tmp_path):
    cfg, _ = pipeline_ws
    first = json.loads(
        (Workspace(cfg.workspace).root / "report" / "report.json").read_text()
    )
    cfg2 = tiny_config(tmp_path / "again")
    for stage in ("synth", "ingest", "build", "train", "evaluate", "report"):
        run_stage(stage, cfg2)
    second = json.loads(
        (Workspace(cfg2.workspace).root / "report" / "report.json").read_text()
    )
    assert first == second


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("workspace: w\n")  # seed missing
    assert cli_entry(["synth", "--config", str(bad)]) == 2

    ok = tmp_path / "ok.yaml"
    tiny_config(tmp_path).dump(ok)
    assert cli_entry(["evaluate", "--config", str(ok)]) == 3  # nothing trained yet


def test_cli_synth_runs_and_lists_outputs(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    tiny_config(tmp_path).dump(path)
    assert cli_entry(["synth", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "net1.csv" in out and "ground_truth.csv" in out


def test_cli_workspace_override(tmp_path):
    path = tmp_path / "run.yaml"
    tiny_config(tmp_path).dump(path)
    alt = tmp_path / "alt_ws"
    assert cli_entry(["synth", "--config", str(path), "--workspace", str(alt)]) == 0
    assert (alt / "synth" / "net1.csv").exists()
