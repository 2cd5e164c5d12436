from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from iloscast.cli import RunConfig, Workspace, run_stage
from iloscast.pipeline import (
    evaluate_model,
    precursor_mask,
    train_model,
    train_tree_model,
)
from iloscast.rits import TrainSchedule
from iloscast.synth import GenConfig, generate
from iloscast.pipeline import build_network_datasets, ingest_csvs
from iloscast.transfer import build_mega_dataset


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    result = generate(GenConfig(seed=20240801, ports_per_network=(20, 12, 8), days=90), tmp)
    ingested = ingest_csvs([str(p) for p in result.csv_paths])
    datasets, _ = build_network_datasets(ingested)
    mega = build_mega_dataset(list(datasets.values()))
    return result, datasets, mega


def test_forest_zero_and_median_variants(small_world):
    _, datasets, _ = small_world
    ds = datasets["net1"]
    for mode in ("zero", "median"):
        trained = train_tree_model(ds, "forest", "net1", grid=(5, 10), imputation=mode, seed=3)
        assert trained.imputation == mode
        report = evaluate_model(trained, ds)
        assert 0.0 <= report["overall"] <= 0.1


def test_booster_report_structure(small_world):
    result, _, mega = small_world
    trained = train_tree_model(mega, "booster", "mega", grid=(10, 20), seed=3)
    mask = precursor_mask(mega, result.events)
    report = evaluate_model(
        trained, mega, facilities=("OTM", "ETH"), extra_masks={"precursor_only": mask}
    )
    assert set(report["per_network"]) == {"net1", "net2", "net3"}
    assert "weighted_average" in report
    assert "precursor_only" in report["subsets"]
    assert report["per_facility"]
    # weighted average recombines the per-network values
    sizes = [mega.indices(split=2, network=n).size for n in sorted(report["per_network"])]
    values = [report["per_network"][n] for n in sorted(report["per_network"])]
    expect = sum(v * s for v, s in zip(values, sizes)) / sum(sizes)
    assert report["weighted_average"] == pytest.approx(expect)


def per_subset_report(trained, dataset, facilities, extra_masks, seen):
    """Reference: score every subset of the test split with its own predictor
    call; ``seen`` collects each subset's (scores, labels)."""
    from iloscast.metrics import pr_auc_truncated, pr_curve
    from iloscast.windows import TEST

    fn = trained.predictor(dataset)
    test = dataset.indices(split=TEST)
    report = {"model": trained.name, "per_network": {}, "per_facility": {}, "subsets": {}}

    def d_value(idx, subset):
        if idx.size == 0 or dataset.label[idx].sum() == 0:
            return None
        seen[subset] = (fn(idx), dataset.label[idx])
        return pr_auc_truncated(pr_curve(*seen[subset]))

    sizes, values = [], []
    for net in dataset.networks:
        idx = dataset.indices(split=TEST, network=net)
        value = d_value(idx, f"network={net}")
        if value is not None:
            report["per_network"][net] = value
            sizes.append(int(idx.size))
            values.append(value)
    if values:
        report["weighted_average"] = float(
            sum(v * s for v, s in zip(values, sizes)) / sum(sizes)
        )
    report["overall"] = d_value(test, "overall")
    for fac in facilities:
        flagged = dataset.x[test, 0, dataset.schema.onehot_index(fac)] == 1.0
        value = d_value(test[flagged], f"facility={fac}")
        if value is not None:
            report["per_facility"][fac] = value
    for name, mask in extra_masks.items():
        value = d_value(test[mask[test]], name)
        if value is not None:
            report["subsets"][name] = value
    return report


def test_evaluate_model_scores_test_split_once(small_world, monkeypatch):
    """One predictor call; every subset gets the same scores and labels, bit
    for bit, as scoring it on its own (D alone saturates at 0.1 here)."""
    from iloscast import pipeline
    from iloscast.pipeline import TrainedModel

    result, _, mega = small_world
    trained = train_tree_model(mega, "booster", "mega", grid=(10, 20), seed=3)
    facilities = ("OTM", "ETH")
    masks = {"precursor_only": precursor_mask(mega, result.events)}
    expected_inputs = {}
    expected = per_subset_report(trained, mega, facilities, masks, expected_inputs)

    calls = []
    predictor = TrainedModel.predictor

    def counting(self, dataset):
        fn = predictor(self, dataset)

        def wrapped(idx):
            calls.append(idx.size)
            return fn(idx)

        return wrapped

    inputs = []
    metric = pipeline.truncated_auc_metric

    def recording(scores, labels):
        inputs.append((scores.tobytes(), labels.tobytes()))
        return metric(scores, labels)

    monkeypatch.setattr(TrainedModel, "predictor", counting)
    monkeypatch.setattr(pipeline, "truncated_auc_metric", recording)
    report = evaluate_model(trained, mega, facilities=facilities, extra_masks=masks)
    assert calls == [mega.indices(split=2).size]
    assert report == expected
    # One metric call per scored subset, each on exactly its own inputs.
    want = [(scores.tobytes(), labels.tobytes()) for scores, labels in expected_inputs.values()]
    assert sorted(inputs) == sorted(want)


def workspace_files(root):
    """Each file under ``root`` but the run log, with its modification time."""
    return {
        p: p.stat().st_mtime_ns
        for p in root.rglob("*")
        if p.is_file() and p.name != "runlog.jsonl"
    }


def test_brits_stage_and_finetune_workspace(tmp_path):
    cfg = RunConfig(
        seed=20240801,
        workspace=str(tmp_path / "ws"),
        synth={"ports_per_network": [20, 12, 8], "days": 90},
        train={
            "models": ["brits"],
            "brits": {
                "hidden_size": 8,
                "batch_size": 64,
                "max_epochs_phase1": 1,
                "max_epochs_phase2": 1,
            },
        },
        transfer={"networks": ["net3"], "strategies": ["classifier_only"]},
    )
    root = Workspace(cfg.workspace).root
    nets = ("net1", "net2", "net3")
    built = {root / "build" / net / "windows.ilos" for net in nets}
    pretrained = root / "models" / "brits_mega"
    tuned = root / "models" / "brits_mega_ft-classifier_only_net3"
    # The files each stage reads, in this run's order of stages.
    reads = {
        "synth": set(),
        "ingest": {root / "synth" / f"{net}.csv" for net in nets},
        "build": {root / "ingest" / net / "series.ilos" for net in nets},
        "pretrain": built,
        "finetune": built | {pretrained / "model.ilos"},
        "evaluate": built
        | {root / "synth" / "ground_truth.csv"}
        | {d / "model.ilos" for d in (pretrained, tuned)},
        "report": {root / "eval" / d.name / "scores.json" for d in (pretrained, tuned)},
    }
    written = {}
    for stage in reads:
        before = workspace_files(root) if root.exists() else {}
        returned = run_stage(stage, cfg)
        after = workspace_files(root)
        written[stage] = {p for p, mtime in after.items() if before.get(p) != mtime}
        assert set(returned) == written[stage], stage

    lines = (root / "runlog.jsonl").read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in lines]
    assert [e["stage"] for e in entries] == list(reads)
    for entry in entries:
        stage = entry["stage"]
        assert set(entry["inputs"]) == {str(p) for p in reads[stage]}, stage
        for path, digest in entry["inputs"].items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest(), path
        assert sorted(entry["outputs"]) == sorted(map(str, written[stage])), stage
    assert root / "synth" / "summary.json" in written["synth"]
    assert not (root / "build" / "mega").exists()

    assert (pretrained / "model.ilos").exists()
    assert (tuned / "model.ilos").exists()
    report = json.loads((root / "report" / "report.json").read_text())
    assert "brits_mega" in report["models"]
    ft = report["models"]["brits_mega_ft-classifier_only_net3"]
    assert 0.0 <= ft["overall"] <= 0.1
    # One container per model, beside its training curve.
    for model_dir in (pretrained, tuned):
        assert sorted(p.name for p in model_dir.iterdir()) == ["history.csv", "model.ilos"]


def test_precursor_mask_semantics(small_world):
    result, _, mega = small_world
    mask = precursor_mask(mega, result.events)
    # all negatives included
    assert np.all(mask[mega.label == 0])
    # positives on ports without precursor events are excluded
    precursor_ports = {
        (e.network_id, e.port_id) for e in result.events if e.has_precursor
    }
    for i in np.flatnonzero(mega.label == 1):
        if (mega.network[i], mega.port[i]) not in precursor_ports:
            assert not mask[i]


def reference_precursor_mask(dataset, events):
    """The per-sample loop ``precursor_mask`` replaced, kept as its oracle."""
    from iloscast.synth import START_DATE

    start_ord = START_DATE.toordinal()
    by_port = {}
    for ev in events:
        if ev.has_precursor:
            by_port.setdefault((ev.network_id, ev.port_id), []).append(start_ord + ev.outage_day)
    mask = np.zeros(dataset.n, dtype=bool)
    for i in range(dataset.n):
        if dataset.label[i] == 0:
            mask[i] = True
            continue
        outages = by_port.get((dataset.network[i], dataset.port[i]), ())
        day = dataset.present_day[i]
        mask[i] = any(0 < o - day <= 14 for o in outages)
    return mask


def test_precursor_mask_matches_reference_at_bench_seed(tmp_path):
    from iloscast.benchmark import BENCH_SEED

    result = generate(GenConfig(seed=BENCH_SEED), tmp_path)
    datasets, _ = build_network_datasets(ingest_csvs([str(p) for p in result.csv_paths]))
    mega = build_mega_dataset(list(datasets.values()))
    mask = precursor_mask(mega, result.events)
    assert mask.tobytes() == reference_precursor_mask(mega, result.events).tobytes()
    assert 0 < (mask & (mega.label == 1)).sum() < (mega.label == 1).sum()


def test_precursor_mask_matches_reference_on_random_events(small_world):
    """Several outages per port, outages exactly 0, 1, 14 and 15 days after
    a positive's present day, events on unknown ports and networks, and
    outages without a precursor."""
    from iloscast.synth import START_DATE, OutageEvent

    _, _, mega = small_world
    rng = np.random.default_rng(7)
    start = START_DATE.toordinal()
    positives = np.flatnonzero(mega.label == 1)
    for trial in range(20):
        events = []
        for i in rng.choice(positives, size=rng.integers(1, 40)):
            for offset in rng.choice([-3, -1, 0, 1, 2, 13, 14, 15, 30], size=rng.integers(1, 4)):
                events.append(
                    OutageEvent(
                        str(mega.network[i]),
                        str(mega.port[i]),
                        int(mega.present_day[i]) + int(offset) - start,
                        bool(rng.random() < 0.8),
                    )
                )
        events.append(OutageEvent("net9", str(mega.port[positives[0]]), 0, True))
        events.append(OutageEvent(str(mega.network[positives[0]]), "no-such-port", 0, True))
        expected = reference_precursor_mask(mega, events)
        assert precursor_mask(mega, events).tobytes() == expected.tobytes(), trial
    assert precursor_mask(mega, []).tobytes() == (mega.label == 0).tobytes()


def test_train_model_dispatch(small_world):
    from iloscast.errors import DataError

    _, _, mega = small_world
    trained = train_model(mega, "booster", "mega", grid=(10,), seed=4)
    assert trained.kind == "booster"
    trained = train_model(
        mega,
        "brits",
        "mega",
        schedule=TrainSchedule(hidden_size=8, batch_size=64, max_epochs_phase1=1, max_epochs_phase2=1),
        seed=4,
    )
    assert trained.kind == "brits"
    with pytest.raises(DataError, match="unknown tree model kind"):
        train_model(mega, "svm", "mega")
