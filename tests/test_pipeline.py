from __future__ import annotations

import json

import numpy as np
import pytest

from iloscast.cli import RunConfig, Workspace, run_stage
from iloscast.pipeline import (
    BritsSettings,
    evaluate_model,
    precursor_mask,
    train_model,
    train_tree_model,
)
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
    # complementary facility filters partition the full test set
    otm = mega.indices(split=2, facility="OTM")
    eth_only = np.setdiff1d(mega.indices(split=2), otm)
    assert otm.size + eth_only.size == mega.indices(split=2).size


def per_subset_report(trained, dataset, facilities, extra_masks, seen):
    """Reference: score every subset of the test split with its own predictor
    call; ``seen`` collects each subset's (scores, labels)."""
    from iloscast.metrics import evaluate_scores
    from iloscast.windows import TEST

    fn = trained.predictor(dataset)
    report = {"model": trained.name, "per_network": {}, "per_facility": {}, "subsets": {}}

    def d_value(idx, subset):
        if idx.size == 0 or dataset.label[idx].sum() == 0:
            return None
        seen[subset] = (fn(idx), dataset.label[idx])
        return evaluate_scores(*seen[subset], subset=subset)[0].value

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
    report["overall"] = d_value(dataset.indices(split=TEST), "overall")
    for fac in facilities:
        value = d_value(dataset.indices(split=TEST, facility=fac), f"facility={fac}")
        if value is not None:
            report["per_facility"][fac] = value
    test = dataset.indices(split=TEST)
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

    inputs = {}
    evaluate_scores = pipeline.evaluate_scores

    def recording(scores, labels, subset=""):
        inputs[subset] = (scores, labels)
        return evaluate_scores(scores, labels, subset=subset)

    monkeypatch.setattr(TrainedModel, "predictor", counting)
    monkeypatch.setattr(pipeline, "evaluate_scores", recording)
    report = evaluate_model(trained, mega, facilities=facilities, extra_masks=masks)
    assert calls == [mega.indices(split=2).size]
    assert report == expected
    assert inputs.keys() == expected_inputs.keys()
    for subset, (scores, labels) in expected_inputs.items():
        assert inputs[subset][0].tobytes() == scores.tobytes(), subset
        assert inputs[subset][1].tobytes() == labels.tobytes(), subset


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
    for stage in ("synth", "ingest", "build", "pretrain", "finetune", "evaluate", "report"):
        run_stage(stage, cfg)
    ws = Workspace(cfg.workspace)
    assert (ws.root / "models" / "brits_mega" / "model.ilos").exists()
    assert (ws.root / "models" / "brits_mega_ft-classifier_only_net3" / "model.ilos").exists()
    report = json.loads((ws.root / "report" / "report.json").read_text())
    assert "brits_mega" in report["models"]
    ft = report["models"]["brits_mega_ft-classifier_only_net3"]
    assert 0.0 <= ft["overall"] <= 0.1
    # history is persisted for audit
    assert (ws.root / "models" / "brits_mega" / "history.csv").exists()


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


def test_train_model_dispatch(small_world):
    from iloscast.errors import DataError

    _, _, mega = small_world
    trained = train_model(mega, "booster", "mega", grid=(10,), seed=4)
    assert trained.kind == "booster"
    trained = train_model(
        mega,
        "brits",
        "mega",
        brits_settings=BritsSettings(hidden_size=8, batch_size=64, max_epochs_phase1=1, max_epochs_phase2=1),
        seed=4,
    )
    assert trained.kind == "brits"
    with pytest.raises(DataError, match="unknown tree model kind"):
        train_model(mega, "svm", "mega")
