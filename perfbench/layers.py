"""Which public functions make up each layer, and the per-layer metrics.

Each function is wrapped where its callers look it up: a module attribute
that another module imported by name is wrapped in that importing module,
and a method on its class. Layer times are reported as shares of the
traced phase's wall time (``trace.run_s`` for the timed operation,
``trace.setup_s`` for set-up): a layer a workload bypasses then reads 0 as
a share, not as a time, and seconds are the share times that wall time.
"""

from __future__ import annotations

from pathlib import Path

from iloscast import cli, dataset, metrics, pipeline, rits, synth, transfer, trees
from iloscast.dataset import WindowDataset
from iloscast.rits import AdamState

from spans import Summary, Target


def _rows_and_ports(tracer, result, records, *args, **kwargs):
    tracer.count("ingest.rows", len(records))
    tracer.count("ingest.ports", len(result))


def _emitted(tracer, result, *args, **kwargs):
    tracer.count("windows.emitted", len(result))


def _kept(tracer, result, *args, **kwargs):
    tracer.count("windows.kept", int(result.keep))


def _file_bytes(tracer, result, path, *args, **kwargs):
    tracer.count("container.bytes", Path(path).stat().st_size)


def _fit(tracer, result, *args, **kwargs):
    tracer.count("trees.rounds", len(result.trees))
    tracer.count("trees.splits", sum(int((t.feature >= 0).sum()) for t in result.trees))


def _routed(tracer, result, tree, rows, *args, **kwargs):
    tracer.count("trees.route_rows", rows.shape[0])


def _kept_rounds(tracer, result, *args, **kwargs):
    tracer.count("trees.rounds_kept", result.best_count)


def _called(key):
    def counter(tracer, result, *args, **kwargs):
        tracer.count(key, 1)

    return counter


TARGETS: list[Target] = [
    (synth, "generate", "synth.generate", None),
    (cli, "generate", "synth.generate", None),
    (pipeline, "ingest_csvs", "ingest.csvs", None),
    (cli, "ingest_csvs", "ingest.csvs", None),
    (pipeline, "merge_to_port_level", "ingest.merge", _rows_and_ports),
    (pipeline, "build_dataset", "dataset.build", None),
    (dataset, "slide_windows", "windows.slide", _emitted),
    (dataset, "label_window", "windows.label", None),
    (dataset, "filter_defective", "windows.filter", _kept),
    (dataset, "chronological_split", "windows.split", None),
    (dataset, "zscore_fit", "windows.zscore", None),
    (transfer, "build_mega_dataset", "transfer.mega", None),
    (cli, "build_mega_dataset", "transfer.mega", None),
    (pipeline, "rits_data", "transfer.rits_data", None),
    (transfer, "rits_data", "transfer.rits_data", None),
    (WindowDataset, "tree_rows", "dataset.tree_rows", None),
    (WindowDataset, "rits_tensors", "dataset.rits_tensors", None),
    (cli, "write_container", "container.write", _file_bytes),
    (dataset, "write_container", "container.write", _file_bytes),
    (rits, "write_container", "container.write", _file_bytes),
    (cli, "read_container", "container.read", _file_bytes),
    (dataset, "read_container", "container.read", _file_bytes),
    (rits, "read_container", "container.read", _file_bytes),
    (trees, "train_gbdt", "trees.fit", _fit),
    (trees, "tree_values", "trees.route", _routed),
    (pipeline, "grid_search_trees", "trees.grid", _kept_rounds),
    (pipeline, "predict_proba", "trees.predict", None),
    (pipeline, "train_brits", "rits.train", None),
    (transfer, "train_brits", "rits.train", None),
    (rits, "brits_loss_and_grads", "rits.step", _called("rits.steps")),
    (AdamState, "step", "rits.adam", None),
    (rits, "evaluate_losses", "rits.validate", _called("rits.epochs")),
    (rits, "brits_forward", "rits.forward", None),
    (pipeline, "brits_predict", "rits.predict", None),
    (transfer, "finetune_classifier_only", "rits.finetune", None),
    (metrics, "pr_curve", "metrics.pr_curve", _called("metrics.calls")),
    (pipeline, "pr_curve", "metrics.pr_curve", _called("metrics.calls")),
    (pipeline, "evaluate_model", "pipeline.evaluate", None),
    (cli, "evaluate_model", "pipeline.evaluate", None),
    (pipeline, "precursor_mask", "pipeline.precursor_mask", None),
    (cli, "precursor_mask", "pipeline.precursor_mask", None),
]

#: Span totals reported as shares of the timed operation: metric -> span.
RUN_SHARES = {
    "ingest.share": "ingest.csvs",
    "ingest.merge_share": "ingest.merge",
    "dataset.build_share": "dataset.build",
    "windows.slide_share": "windows.slide",
    "windows.label_share": "windows.label",
    "windows.filter_share": "windows.filter",
    "windows.split_share": "windows.split",
    "windows.zscore_share": "windows.zscore",
    "transfer.mega_share": "transfer.mega",
    "transfer.rits_data_share": "transfer.rits_data",
    "dataset.tree_rows_share": "dataset.tree_rows",
    "dataset.rits_tensors_share": "dataset.rits_tensors",
    "container.write_share": "container.write",
    "container.read_share": "container.read",
    "cli.ingest_share": "cli.ingest",
    "cli.build_share": "cli.build",
    "cli.evaluate_share": "cli.evaluate",
    "trees.fit_share": "trees.fit",
    "trees.route_share": "trees.route",
    "trees.predict_share": "trees.predict",
    "rits.train_share": "rits.train",
    "rits.step_share": "rits.step",
    "rits.adam_share": "rits.adam",
    "rits.validate_share": "rits.validate",
    "rits.forward_share": "rits.forward",
    "rits.predict_share": "rits.predict",
    "rits.finetune_share": "rits.finetune",
    "metrics.pr_curve_share": "metrics.pr_curve",
    "pipeline.evaluate_share": "pipeline.evaluate",
    "pipeline.precursor_mask_share": "pipeline.precursor_mask",
}

#: Span totals reported as shares of set-up, where the data path runs
#: on the fit workloads and training runs on csv_to_scores.
SETUP_SHARES = {
    "setup.synth_share": "synth.generate",
    "setup.ingest_share": "ingest.csvs",
    "setup.build_share": "dataset.build",
    "setup.mega_share": "transfer.mega",
    "setup.train_share": "cli.train",
}

COUNTS = (
    "ingest.rows",
    "ingest.ports",
    "windows.emitted",
    "container.bytes",
    "trees.route_rows",
    "trees.rounds",
    "trees.splits",
    "rits.steps",
    "rits.epochs",
    "metrics.calls",
)

#: (metric, unit) in report order; BENCHMARK.json lists the same set.
METRICS: list[tuple[str, str]] = (
    [
        ("trace.setup_s", "s"),
        ("trace.run_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.coverage", "ratio"),
        ("windows.kept_ratio", "ratio"),
        ("cli.self_share", "share"),
        ("trees.grow_share", "share"),
        ("trees.grid_score_share", "share"),
        ("trees.rounds_kept_ratio", "ratio"),
        ("rits.loop_self_share", "share"),
    ]
    + [(name, "share") for name in RUN_SHARES]
    + [(name, "share") for name in SETUP_SHARES]
    + [(name, "bytes" if name == "container.bytes" else "count") for name in COUNTS]
)


def per_layer(setup: Summary, run: Summary, untraced_run_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced set-up and one traced operation."""
    wall = run.wall
    total = run.total
    # The cli.* stage spans are opened by the benchmark around whole CLI
    # calls, so they cover the operation whatever the layers account for.
    # Their self time (hashing, CSV/JSON writing, ...) is no layer's, and
    # coverage counts only the program's own spans.
    cli_self = sum(
        run.self_time.get(f"cli.{stage}", 0.0) for stage in ("ingest", "build", "evaluate")
    )
    out: dict[str, float] = {
        "trace.setup_s": setup.wall,
        "trace.run_s": wall,
        "trace.overhead_ratio": wall / untraced_run_s - 1.0,
        "trace.coverage": (run.covered - cli_self) / wall,
    }
    emitted = run.counts.get("windows.emitted", 0)
    out["windows.kept_ratio"] = run.counts.get("windows.kept", 0) / emitted if emitted else 0.0
    out["cli.self_share"] = cli_self / wall
    out["trees.grow_share"] = (
        total.get("trees.fit", 0.0) - run.within("trees.route", "trees.fit")
    ) / wall
    out["trees.grid_score_share"] = (
        total.get("trees.grid", 0.0) - run.within("trees.fit", "trees.grid")
    ) / wall
    rounds = run.counts.get("trees.rounds", 0)
    out["trees.rounds_kept_ratio"] = run.counts.get("trees.rounds_kept", 0) / rounds if rounds else 0.0
    # train_brits' own time: shuffling and batch gathering, the time not
    # spent in its step, Adam and validation children.
    out["rits.loop_self_share"] = run.self_time.get("rits.train", 0.0) / wall
    for name, span in RUN_SHARES.items():
        out[name] = total.get(span, 0.0) / wall
    for name, span in SETUP_SHARES.items():
        out[name] = setup.total.get(span, 0.0) / setup.wall
    for name in COUNTS:
        out[name] = run.counts.get(name, 0)
    return out
