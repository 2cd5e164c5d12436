"""The names and return shapes the benchmark in ``perfbench/`` relies on.

perfbench wraps program functions where their callers look them up
(``vars(owner)[attr]``) and runs counters on what they return. A renamed
function or a changed return type would only show when the benchmark
runs; these tests show it here. They read perfbench and change nothing in
it.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

from iloscast import dataset, pipeline, synth, transfer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PERFBENCH_MODULES = ("clock", "layers", "record", "spans", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules importable by their plain names, as it imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_traced_target_resolves_to_a_callable(perfbench):
    import layers

    assert layers.TARGETS
    for owner, attr, span, _ in layers.TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr} ({span}) is gone"
        assert callable(vars(owner)[attr]), f"{owner.__name__}.{attr} is not callable"


def test_workloads_module_imports(perfbench):
    import workloads

    assert set(workloads.WORKLOADS) == {"booster_fit", "brits_fit", "csv_to_scores"}


def test_traced_data_path_counters(perfbench, tmp_path):
    """Ingest and build under the tracer, then the per-sample views: every
    counter on their results runs and counts what it should."""
    import layers
    from spans import Summary, Tracer

    gen = synth.generate(
        synth.GenConfig(seed=20240801, ports_per_network=(20, 12, 8), days=90), tmp_path
    )
    paths = [str(p) for p in gen.csv_paths]
    rows = sum(len(Path(p).read_text(encoding="utf-8").splitlines()) - 1 for p in paths)
    tracer = Tracer()
    with tracer.patched(layers.TARGETS), tracer.phase("op"):
        ingested = pipeline.ingest_csvs(paths)
        datasets, audits = pipeline.build_network_datasets(ingested)
        schema, series = ingested["net1"]
        samples = dataset.slide_windows(series, schema)
        decisions = [
            dataset.filter_defective(dataset.label_window(s), schema) for s in samples
        ]
    summary = Summary(tracer, "op")
    assert summary.counts["ingest.rows"] == rows
    assert summary.counts["ingest.ports"] == sum(len(s) for _, s in ingested.values()) == 40
    assert summary.counts["windows.emitted"] == len(samples) > 0
    assert summary.counts["windows.kept"] == sum(d.keep for d in decisions)
    for span in ("ingest.csvs", "ingest.merge", "dataset.build", "windows.split", "windows.zscore"):
        assert summary.total[span] > 0
    assert sum(len(a) for a in audits.values()) >= sum(d.n for d in datasets.values())


def test_brits_fit_operation_on_tiny_data(perfbench, tmp_path):
    """perfbench's recurrent operation runs on a tiny world: the settings
    fields and call shapes it uses (``replace(BENCH_BRITS, ...)``,
    ``TrainSchedule(batch_size=, max_epochs_phase2=, patience=, min_delta=,
    seed=)`` and ``train_brits_model(..., seed=)``) still fit."""
    import workloads

    seed = 20240801
    gen = synth.generate(synth.GenConfig(seed=seed, ports_per_network=(20, 12, 8), days=90), tmp_path)
    datasets, _ = pipeline.build_network_datasets(pipeline.ingest_csvs([str(p) for p in gen.csv_paths]))
    mega = transfer.build_mega_dataset(list(datasets.values()))
    data = workloads.Data(seed=seed, events=gen.events, datasets=datasets, mega=mega)
    fit = workloads.BritsFit()
    result = fit.op(data)
    trained, tuned, _, _ = result
    # One epoch of the full objective each: pre-training, then fine-tuning.
    assert [(row["phase"], row["epoch"]) for row in trained.history + tuned.history] == [(2, 0), (2, 0)]
    for row in trained.history + tuned.history:
        assert all(math.isfinite(value) for value in row.values())
    assert trained.model.hidden_size == fit.describe(data)["hidden_size"] == 96
    assert fit.work(data, result) > 0
