from __future__ import annotations

import csv
import hashlib
import json
import shutil
import signal
import struct
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import yaml

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


@pytest.mark.parametrize(
    "stage, key, value, message",
    [
        ("synth", "synth.ports_per_network", 5, "synth.ports_per_network must be a list, not int"),
        ("ingest", "ingest.inputs", 5, "ingest.inputs must be a list, not int"),
        ("ingest", "ingest.protocol_indicators", 5, "ingest.protocol_indicators must be a list"),
        ("build", "build.past_days", "x", "build.past_days must be int, not str"),
        ("build", "build.future_days", True, "build.future_days must be int, not bool"),
        ("train", "train.grid", 5, "train.grid must be a list, not int"),
        ("train", "train.grid", ["10"], "train.grid[0] must be int, not str"),
        ("train", "train.brits", [1], "train.brits must be a mapping, not list"),
        ("train", "train.brits.hidden_size", 8.5, "train.brits.hidden_size must be int, not float"),
        ("evaluate", "evaluate.facilities", 5, "evaluate.facilities must be a list, not int"),
        ("train", "train", [1], "train must be a mapping, not list"),
        ("train", "train.modelz", ["forest"], "unknown train key(s) ['modelz']"),
        ("build", "build.past_day", 3, "unknown build key(s) ['past_day']"),
        ("evaluate", "evaluate.facility", ["OTM"], "unknown evaluate key(s) ['facility']"),
        ("report", "report.plots", "no", "report.plots must be bool, not str"),
        ("synth", "synth.ports_per_network", [], "ports_per_network must list at least one network"),
        ("synth", "synth.ports_per_network", [20, 0, 8], "ports_per_network must be at least 1 per network"),
        ("train", "train.brits.hidden_size", 0, "train.brits.hidden_size must be at least 1, got 0"),
        ("train", "train.brits.batch_size", 0, "train.brits.batch_size must be at least 1, got 0"),
        ("train", "train.brits.max_epochs_phase1", -1, "train.brits.max_epochs_phase1 must be at least 0"),
        ("pretrain", "train.brits.patience", 0, "train.brits.patience must be at least 1, got 0"),
        ("pretrain", "train.brits.min_delta", -0.5, "train.brits.min_delta must be at least 0"),
        ("finetune", "train.brits.learning_rate", 0, "train.brits.learning_rate must be positive"),
        ("synth", "synth.n_networks", 3, "unknown synth key(s) ['n_networks']"),
    ],
)
def test_cli_bad_config_exits_2(tmp_path, capsys, stage, key, value, message):
    raw = tiny_config(tmp_path).to_dict()
    *sections, last = key.split(".")
    target = raw
    for section in sections:
        target = target.setdefault(section, {})
    target[last] = value
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert cli_entry([stage, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "ws").exists()


def test_config_keys_match_the_settings_they_fill():
    """Every key of the config table reaches a field of the object it fills."""
    from dataclasses import fields

    from iloscast.cli import CONFIG_KEYS
    from iloscast.rits import TrainSchedule
    from iloscast.synth import GenConfig

    assert set(CONFIG_KEYS) == {f.name for f in fields(RunConfig)}
    assert set(CONFIG_KEYS["synth"]) == {f.name for f in fields(GenConfig)} - {"seed"}
    # The config seed seeds training.
    schedule_fields = {f.name for f in fields(TrainSchedule)} - {"seed"}
    assert set(CONFIG_KEYS["train"]["brits"]) == schedule_fields


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


def test_evaluate_outputs_agree(pipeline_ws):
    """D from each model's pr_curve.csv and from its predictions.csv equals
    its scores.json overall value, bit for bit."""
    from iloscast.dataset import WindowDataset
    from iloscast.metrics import PrCurve, pr_auc_truncated, pr_curve
    from iloscast.windows import TEST

    cfg, _ = pipeline_ws
    root = Path(cfg.workspace)
    eval_dirs = sorted((root / "eval").iterdir())
    assert eval_dirs
    for eval_dir in eval_dirs:
        meta = json.loads((root / "models" / eval_dir.name / "meta.json").read_text())
        ds = WindowDataset.load(root / "build" / meta["dataset"] / "windows.ilos")
        test = ds.indices(split=TEST)
        labels = ds.label[test]
        with open(eval_dir / "predictions.csv", encoding="utf-8", newline="") as fh:
            ids, scores = zip(*list(csv.reader(fh))[1:])
        assert list(ids) == [f"{ds.network[i]}:{ds.port[i]}:{int(ds.present_day[i])}" for i in test]
        from_predictions = pr_auc_truncated(pr_curve(np.array([float(s) for s in scores]), labels))
        with open(eval_dir / "pr_curve.csv", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["threshold", "precision", "recall"]
        columns = (np.array([float(v) for v in col]) for col in zip(*rows))
        from_curve = pr_auc_truncated(PrCurve(*columns, int(labels.sum()), int(labels.size)))
        overall = json.loads((eval_dir / "scores.json").read_text())["overall"]
        assert from_curve == from_predictions == overall, eval_dir.name


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
    "stage, artifact, key, value",
    [
        ("evaluate", "models/booster_net1/meta.json", "grid_scores", 5),
        ("evaluate", "models/booster_net1/meta.json", "grid_scores", [[1, 0.5, 2]]),
        ("evaluate", "models/booster_net1/meta.json", "grid_scores", [["1", 0.5]]),
        ("evaluate", "models/booster_net1/meta.json", "grid_scores", [[1, "0.5"]]),
        ("evaluate", "models/booster_net1/meta.json", "dataset", ["x"]),
        ("evaluate", "models/booster_net1/meta.json", "name", 1),
        ("evaluate", "models/booster_net1/meta.json", "kind", None),
        ("evaluate", "models/booster_net1/meta.json", "scope", {"net": 1}),
        ("evaluate", "models/booster_net1/meta.json", "imputation", 0),
        ("report", "eval/booster_net1/scores.json", "model", ["x"]),
        ("evaluate", "models/booster_net1/meta.json", "kind", "xyz"),
        ("evaluate", "models/booster_net1/meta.json", "kind", "forest"),
        ("evaluate", "models/booster_net1/meta.json", "imputation", "zero"),
    ],
)
def test_cli_wrong_typed_json_value_exits_1(pipeline_ws, tmp_path, capsys, stage, artifact, key, value):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    target = ws / artifact
    payload = json.loads(target.read_text(encoding="utf-8"))
    payload[key] = value
    target.write_text(json.dumps(payload), encoding="utf-8")
    assert cli_entry([stage] + args) == 1
    err = capsys.readouterr().err
    assert repr(key) in err
    assert "Traceback" not in err


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


SERIES = "ingest/net1/series.ilos"
WINDOWS = "build/net1/windows.ilos"


def per_port_layout(arrays, meta):
    """Rewrite a series block in place into the per-port layout of older
    versions: two arrays per port, and the ids, start day and day count of
    each port in the metadata."""
    from datetime import date

    first = np.cumsum(arrays["n_days"]) - arrays["n_days"]
    ports = []
    for i, (network_id, port_id) in enumerate(zip(meta.pop("networks"), meta["ports"])):
        n_days = int(arrays["n_days"][i])
        arrays[f"values_{i:05d}"] = arrays["values"][first[i] : first[i] + n_days]
        arrays[f"onehot_{i:05d}"] = arrays["onehot"][i]
        start = date.fromordinal(int(arrays["start_day"][i])).isoformat()
        ports.append({"network_id": network_id, "port_id": port_id, "start_day": start, "n_days": n_days})
    meta["ports"] = ports
    for name in ("start_day", "n_days", "values", "onehot"):
        del arrays[name]


def shift_one_day(arrays, meta):
    """Move a day from the second port to the first: the rows still add up."""
    arrays["n_days"][0] = 0
    arrays["n_days"][1] += 1


@pytest.mark.parametrize(
    "stage, artifact, edit, message",
    [
        ("build", SERIES, lambda a, m: a.pop("start_day"), "missing key 'start_day'"),
        ("build", SERIES, lambda a, m: a["start_day"].__setitem__(0, 0), "start_day holds a day outside"),
        ("build", SERIES, lambda a, m: a.pop("values"), "missing key 'values'"),
        ("build", SERIES, lambda a, m: m.update(ports=5), "port_id has shape (), not (20,)"),
        ("build", SERIES, lambda a, m: m["schema"].pop("numeric_features"), "missing key 'numeric_features'"),
        ("build", SERIES, lambda a, m: a.update(values=a["values"][:, 1:]), "values has shape"),
        ("build", SERIES, lambda a, m: a["n_days"].__setitem__(0, a["n_days"][0] + 1), "values has shape"),
        ("build", SERIES, lambda a, m: a.update(onehot=a["onehot"][1:]), "onehot has shape"),
        ("build", SERIES, shift_one_day, "n_days holds a count below 1"),
        ("build", SERIES, per_port_layout, "per-port series layout of an older version; re-run ingest"),
        ("evaluate", WINDOWS, lambda a, m: m["norm"].pop("mean"), "missing key 'mean'"),
        ("evaluate", WINDOWS, lambda a, m: a["network_code"].fill(1), "network_code holds a code outside [0, 1)"),
        ("evaluate", WINDOWS, lambda a, m: a["port_code"].fill(-1), "port_code holds a code outside"),
    ],
    ids=["start-day-missing", "start-day-bad", "values-missing", "ports-int", "schema",
         "values-width", "n-days-sum", "onehot-rows", "n-days-zero", "old-layout",
         "norm", "network-code", "port-code-negative"],
)
def test_cli_corrupt_container_content_exits_1(pipeline_ws, tmp_path, capsys, stage, artifact, edit, message):
    from iloscast.container import read_container, write_container

    ws, args = copied_workspace(pipeline_ws, tmp_path)
    arrays, meta = read_container(ws / artifact)
    edit(arrays, meta)
    write_container(ws / artifact, arrays, meta)
    assert cli_entry([stage] + args) == 1
    err = capsys.readouterr().err
    assert f"{ws / artifact}: " in err
    assert message in err
    assert "Traceback" not in err


def first_test_window_tag(arrays, tag):
    from iloscast.windows import TEST

    arrays["split"][np.flatnonzero(arrays["split"] == TEST)[0]] = tag


@pytest.mark.parametrize("stage", ["train", "evaluate"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda a, m: a.update(label=a["label"][:-3]), "label has shape"),
        (lambda a, m: a.update(port_code=a["port_code"][:-3]), "port_code has shape"),
        (lambda a, m: m["norm"].update(mean=m["norm"]["mean"][:-1]), "norm does not hold"),
        (lambda a, m: first_test_window_tag(a, 7), "split holds a tag other than"),
        (lambda a, m: a["label"].__setitem__(0, 2), "label holds a value other than"),
        (lambda a, m: a.update(x=np.concatenate([a["x"], a["x"][:, :, :1]], axis=2)), "x has shape"),
        (lambda a, m: a.update(x=np.concatenate([a["x"], a["x"][:, :1]], axis=1)), "x has shape"),
    ],
    ids=["label-short", "port-code-short", "norm-mean-short", "split-tag", "label-value", "x-wider", "x-deeper"],
)
def test_cli_inconsistent_window_arrays_exit_1(pipeline_ws, tmp_path, capsys, stage, edit, message):
    from iloscast.container import read_container, write_container

    ws, args = copied_workspace(pipeline_ws, tmp_path)
    arrays, meta = read_container(ws / WINDOWS)
    edit(arrays, meta)
    write_container(ws / WINDOWS, arrays, meta)
    assert cli_entry([stage] + args) == 1
    err = capsys.readouterr().err
    assert f"{ws / WINDOWS}: " in err
    assert message in err
    assert "Traceback" not in err


def test_cli_tree_missing_node_array_exits_1(pipeline_ws, tmp_path, capsys):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    target = ws / "models" / "booster_net1" / "model.json"
    payload = json.loads(target.read_text(encoding="utf-8"))
    del payload["trees"][0]["threshold"]
    target.write_text(json.dumps(payload), encoding="utf-8")
    assert cli_entry(["evaluate"] + args) == 1
    assert "tree is missing key(s) 'threshold'" in capsys.readouterr().err


def test_cli_tree_config_unknown_key_exits_1(pipeline_ws, tmp_path, capsys):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    target = ws / "models" / "booster_net1" / "model.json"
    payload = json.loads(target.read_text(encoding="utf-8"))
    payload["config"]["bogus"] = 1
    target.write_text(json.dumps(payload), encoding="utf-8")
    assert cli_entry(["evaluate"] + args) == 1
    err = capsys.readouterr().err
    assert "config has unknown key(s) ['bogus']" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["n_features", "hidden_size"])
def test_cli_brits_metadata_missing_key_exits_1(pipeline_ws, tmp_path, capsys, key):
    from iloscast.container import read_container, write_container
    from iloscast.rits import init_brits

    ws, args = copied_workspace(pipeline_ws, tmp_path)
    model_dir = ws / "models" / "brits_net1"
    model_dir.mkdir()
    meta = {"name": "brits_net1", "kind": "brits", "scope": "net1"}
    (model_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    init_brits(4, hidden_size=2).save(model_dir / "model.ilos")
    arrays, meta = read_container(model_dir / "model.ilos")
    del meta[key]
    write_container(model_dir / "model.ilos", arrays, meta)
    assert cli_entry(["evaluate"] + args) == 1
    err = capsys.readouterr().err
    assert f"metadata is missing key(s) '{key}'" in err
    assert "Traceback" not in err


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def first_split(tree: dict) -> int:
    return next(i for i, f in enumerate(tree["feature"]) if f >= 0)


def set_tree_array(key, value):
    """An edit that sets ``key`` of tree 0's first split node to ``value(tree)``."""

    def edit(payload):
        tree = payload["trees"][0]
        tree[key][first_split(tree)] = value(tree)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.update(kind="svm"), "unknown ensemble kind 'svm'"),
        (lambda p: p["config"].update(max_depth="x"), "malformed tree ensemble"),
        (lambda p: p["config"].update(max_depth=0), "malformed tree ensemble"),
        (lambda p: p["trees"][0]["value"].append(0.0), "unequal"),
        (set_tree_array("feature", lambda tree: 10**6), "feature outside"),
        (set_tree_array("right", lambda tree: len(tree["feature"])), "child id"),
        (set_tree_array("left", first_split), "child id"),  # a self-loop
        (lambda p: p["trees"][0]["value"].__setitem__(-1, float("nan")), "tree 0 has a value or gain"),
        (lambda p: p.update(base_score=float("inf")), "base_score inf is not finite"),
    ],
    ids=[
        "kind", "config-type", "config-range", "ragged", "feature", "child-range", "self-loop",
        "nan-value", "inf-base-score",
    ],
)
def test_cli_corrupt_tree_model_exits_1(pipeline_ws, tmp_path, capsys, edit, message):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    target = ws / "models" / "booster_net1" / "model.json"
    payload = json.loads(target.read_text(encoding="utf-8"))
    edit(payload)
    target.write_text(json.dumps(payload), encoding="utf-8")
    with deadline(60):
        assert cli_entry(["evaluate"] + args) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "block, replacement",
    [("fwd.cls_W", None), ("bwd.lstm_U", np.zeros((8, 3)))],
    ids=["missing", "wrong-shape"],
)
def test_cli_brits_bad_parameter_block_exits_1(pipeline_ws, tmp_path, capsys, block, replacement):
    from iloscast.container import read_container, write_container
    from iloscast.rits import init_brits

    ws, args = copied_workspace(pipeline_ws, tmp_path)
    model_dir = ws / "models" / "brits_net1"
    model_dir.mkdir()
    meta = {"name": "brits_net1", "kind": "brits", "scope": "net1"}
    (model_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    init_brits(4, hidden_size=2).save(model_dir / "model.ilos")
    arrays, meta = read_container(model_dir / "model.ilos")
    if replacement is None:
        del arrays[block]
    else:
        arrays[block] = replacement
    write_container(model_dir / "model.ilos", arrays, meta)
    assert cli_entry(["evaluate"] + args) == 1
    err = capsys.readouterr().err
    assert f"block {block} is" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage", ["evaluate", "finetune"])
def test_cli_brits_model_of_another_width_exits_1(pipeline_ws, tmp_path, capsys, stage):
    """A recurrent model whose feature count differs from its data's: the
    network model meets net1's dataset in evaluate, the pre-trained mega
    model the mega dataset in finetune."""
    from iloscast.dataset import WindowDataset
    from iloscast.rits import init_brits
    from iloscast.transfer import build_mega_dataset

    ws, args = copied_workspace(pipeline_ws, tmp_path)
    datasets = [WindowDataset.load(p) for p in sorted((ws / "build").glob("*/windows.ilos"))]
    if stage == "evaluate":
        name, scope, width = "brits_net1", "net1", datasets[0].schema.width
    else:
        name, scope, width = "brits_mega", "mega", build_mega_dataset(datasets).schema.width
        cfg = RunConfig.load(args[1])
        cfg.transfer = {"networks": ["net1"], "strategies": ["classifier_only"]}
        cfg.dump(args[1])
    model_dir = ws / "models" / name
    model_dir.mkdir()
    meta = {"name": name, "kind": "brits", "scope": scope, "dataset": scope}
    (model_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    init_brits(width + 1, hidden_size=2).save(model_dir / "model.ilos")
    assert cli_entry([stage] + args) == 1
    err = capsys.readouterr().err
    assert f"takes {width + 1} features per step, but the data has {width}" in err
    assert "Traceback" not in err


def test_cli_pretrain_reads_the_rebuilt_datasets(pipeline_ws, tmp_path):
    """After ``build`` rewrites the per-network datasets, ``pretrain`` trains
    on them, not on an earlier stage's mega-dataset; a ``build/mega/`` left
    by older versions is ignored."""
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    shutil.copytree(ws / "build" / "net1", ws / "build" / "mega")
    booster = ws / "models" / "booster_mega" / "model.json"
    assert cli_entry(["pretrain"] + args) == 0
    n_columns = json.loads(booster.read_text(encoding="utf-8"))["n_columns"]
    assert n_columns % 7 == 0
    cfg = RunConfig.load(args[1])
    cfg.build = {"past_days": 5}
    cfg.dump(args[1])
    for stage in ("build", "pretrain"):
        assert cli_entry([stage] + args) == 0
    assert json.loads(booster.read_text(encoding="utf-8"))["n_columns"] == n_columns // 7 * 5


def test_reingest_of_fewer_networks_drops_the_others_downstream(pipeline_ws, tmp_path):
    """Re-running ``ingest`` on two of three networks removes the third's
    ingest directory, the next ``build`` removes its build directory, and
    neither ``build`` nor ``train`` writes anything for it."""
    ws, _ = copied_workspace(pipeline_ws, tmp_path)
    cfg, _ = pipeline_ws
    cfg = RunConfig.from_dict(cfg.to_dict() | {"workspace": str(ws)})
    cfg.ingest = {"inputs": [str(ws / "synth" / f"{net}.csv") for net in ("net1", "net2")]}
    shutil.rmtree(ws / "models")
    outputs = {stage: run_stage(stage, cfg) for stage in ("ingest", "build", "train")}
    for stage in ("ingest", "build"):
        assert sorted(p.name for p in (ws / stage).iterdir()) == ["net1", "net2"]
    for stage, paths in outputs.items():
        assert paths and not [p for p in paths if "net3" in str(p)], stage
    assert sorted(p.name for p in (ws / "models").iterdir()) == ["booster_net1", "booster_net2"]


@pytest.mark.parametrize(
    "network_id",
    ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b", "mega"],
    ids=["empty", "dot", "dot-dot", "escaping", "slash", "backslash", "nul", "mega"],
)
def test_cli_network_id_that_is_no_directory_name_exits_1(tmp_path, capsys, network_id):
    """A network_id that would write outside ``ingest/``, into ``ingest/``
    itself, or as the mega scope exits 1 naming its line, and the ingest
    stage writes nothing."""
    pm = tmp_path / "pm.csv"
    pm.write_text(
        "network_id,port_id,facility_type,date,pm_name,pm_value\n"
        "net1,p1,OTM,2020-01-01,UAS,0\n"
        f"{network_id},p1,OTM,2020-01-01,UAS,0\n",
        encoding="utf-8",
    )
    config = tmp_path / "run.yaml"
    section = {"inputs": [str(pm)], "protocol_indicators": []}
    RunConfig(seed=1, workspace=str(tmp_path / "ws"), ingest=section).dump(config)
    before = workspace_state(tmp_path)
    assert cli_entry(["ingest", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"{pm}:3: network_id {network_id!r} cannot name a workspace directory" in err
    assert "Traceback" not in err
    assert workspace_state(tmp_path) == before


def test_cli_unknown_train_network_exits_3_before_training(pipeline_ws, tmp_path, capsys):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    shutil.rmtree(ws / "models")
    cfg = RunConfig.load(args[1])
    cfg.train["networks"] = ["net1", "net9"]
    cfg.dump(args[1])
    assert cli_entry(["train"] + args) == 3
    err = capsys.readouterr().err
    assert "['net9']" in err
    assert "Traceback" not in err
    assert not (ws / "models").exists()


def test_cli_train_checks_validation_positives_before_training(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    cfg.synth = {"ports_per_network": [40, 24, 16], "days": 120}
    for stage in ("synth", "ingest", "build"):
        run_stage(stage, cfg)
    config = tmp_path / "run.yaml"
    cfg.dump(config)
    assert cli_entry(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "validation split of 'net3' has no positive samples" in err
    assert "Traceback" not in err
    assert not (Path(cfg.workspace) / "models").exists()


@pytest.mark.parametrize(
    "transfer, code, message",
    [
        ({"strategies": ["classifier_only", "bogus"]}, 2, "'bogus'"),
        ({"networks": ["net1", "net9"]}, 3, "['net9']"),
    ],
    ids=["strategy", "network"],
)
def test_cli_bad_finetune_config_exits_before_training(
    pipeline_ws, tmp_path, capsys, transfer, code, message
):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    cfg = RunConfig.load(args[1])
    cfg.train["models"] = ["brits"]
    cfg.train["brits"] = {"hidden_size": 4, "max_epochs_phase1": 1, "max_epochs_phase2": 1}
    cfg.transfer = transfer
    cfg.dump(args[1])
    assert cli_entry(["pretrain"] + args) == 0
    assert cli_entry(["finetune"] + args) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list((ws / "models").glob("*_ft-*"))


@pytest.mark.parametrize(
    "old, new, where",
    [
        (b"outage_date", b"outage_day", "ground_truth.csv:1:"),
        (b",2024-", b",2024-13-", "ground_truth.csv:2: bad outage_date"),
        (b",0\r\n", b",yes\r\n", "has_precursor 'yes' is not 0 or 1"),
        (b",2024-", b",\xff2024-", "ground_truth.csv: not UTF-8"),
    ],
    ids=["header", "date", "flag", "bytes"],
)
def test_cli_bad_ground_truth_exits_1(pipeline_ws, tmp_path, capsys, old, new, where):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    target = ws / "synth" / "ground_truth.csv"
    blob = target.read_bytes()
    assert old in blob
    target.write_bytes(blob.replace(old, new, 1))
    assert cli_entry(["evaluate"] + args) == 1
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


#: Recurrent settings small enough that a stage which trained before
#: checking its config would do so quickly.
TINY_BRITS = {"hidden_size": 4, "max_epochs_phase1": 1, "max_epochs_phase2": 1}


def workspace_state(root: Path) -> dict:
    """Every path under ``root``: a file's sha256 and modification time, or
    None for a directory."""
    return {
        path.relative_to(root): None
        if path.is_dir()
        else (hashlib.sha256(path.read_bytes()).hexdigest(), path.stat().st_mtime_ns)
        for path in root.rglob("*")
    }


@pytest.mark.parametrize(
    "stage, edit, message",
    [
        ("train", {"train": {"models": ["booster", "svm"]}}, "unknown model kind(s) ['svm']"),
        ("pretrain", {"train": {"models": ["booster", "svm"]}}, "unknown model kind(s) ['svm']"),
        (
            "train",
            {"train": {"models": ["booster", "forest"], "forest_imputation": "mean"}},
            "train.forest_imputation must be one of ['zero', 'median'], not 'mean'",
        ),
        ("evaluate", {"evaluate": {"facilities": ["OTM", "XYZ"]}}, "evaluate.facilities ['XYZ']"),
        ("build", {"build": {"past_days": 0}}, "past_days must be at least 1, got 0"),
        ("build", {"build": {"past_days": -2}}, "past_days must be at least 1, got -2"),
        (
            "train",
            {"train": {"models": ["brits", "booster"], "grid": [], "brits": TINY_BRITS}},
            "train.grid: tree-count grid is empty",
        ),
        (
            "train",
            {"train": {"models": ["brits", "booster"], "grid": [0, 10], "brits": TINY_BRITS}},
            "train.grid: tree counts must be >= 1",
        ),
        ("report", {"report": {"plots": True}}, "report.plots requires matplotlib"),
        (
            "ingest",
            {"ingest": {"protocol_indicators": ["TRAFIC"]}},
            "ingest.protocol_indicators: network 'net1': protocol indicator 'TRAFIC' missing",
        ),
    ],
    ids=[
        "train",
        "pretrain",
        "forest-imputation",
        "facility",
        "past-days-0",
        "past-days-negative",
        "grid-empty",
        "grid-zero",
        "plots-without-matplotlib",
        "protocol-indicator",
    ],
)
def test_cli_unknown_model_kind_exits_2_before_training(
    pipeline_ws, tmp_path, capsys, monkeypatch, stage, edit, message
):
    """A bad value that a stage checks when it starts (a model kind, the
    forest's imputation mode, the tree-count grid, a facility, the window
    geometry, a protocol indicator, plots without matplotlib) exits 2 and
    leaves every file of the workspace as it was. matplotlib is made
    unimportable, as where it is not installed."""
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    cfg = RunConfig.load(args[1])
    for section, values in edit.items():
        getattr(cfg, section).update(values)
    cfg.dump(args[1])
    before = workspace_state(ws)
    assert cli_entry([stage] + args) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert workspace_state(ws) == before


def test_cli_missing_model_meta_exits_3(pipeline_ws, tmp_path, capsys):
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    (ws / "models" / "booster_net1" / "meta.json").unlink()
    assert cli_entry(["evaluate"] + args) == 3
    assert "meta.json" in capsys.readouterr().err


def test_cli_model_file_of_meta_kind_missing_exits_3(pipeline_ws, tmp_path, capsys):
    # A booster directory whose meta.json says brits has no model.ilos.
    ws, args = copied_workspace(pipeline_ws, tmp_path)
    meta = ws / "models" / "booster_net1" / "meta.json"
    meta.write_text(json.dumps(json.loads(meta.read_text()) | {"kind": "brits"}))
    assert cli_entry(["evaluate"] + args) == 3
    err = capsys.readouterr().err
    assert "model.ilos" in err
    assert "Traceback" not in err


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
