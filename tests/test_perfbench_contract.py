"""The names and return shapes the benchmark in ``perfbench/`` relies on.

perfbench wraps program functions where their callers look them up
(``vars(owner)[attr]``) and runs counters on what they return. A renamed
function or a changed return type would only show when the benchmark
runs; these tests show it here. They read perfbench and change nothing in
it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from iloscast import dataset, pipeline, synth

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
        samples = dataset.slide_windows(series[0], schema)
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
