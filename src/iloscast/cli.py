"""Command-line pipeline: synth, ingest, build, train, pretrain, finetune,
evaluate, report.

Every stage reads its inputs from and writes its artifacts into a
workspace directory, appending a run-log line with the content hash of
every file it read and the path of every file it wrote, so any report can
be traced back to the exact bytes that produced it. Exit codes: 0 success,
2 config error, 3 missing artifact, 4 numeric failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import time
import warnings
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from pathlib import Path
from typing import Iterator

import click
import numpy as np
import yaml

from .dataset import WindowDataset, write_audit_csv
from .errors import ConfigError, DataError, IloscastError, IndicatorError, MissingArtifactError, NumericError
from .ingest import PortSeries
from .container import decoding, read_container, read_json, require_keys, text_cells, write_container, write_csv, write_json
from . import fits, metrics
from .pipeline import (
    DEFAULT_GRID,
    FOREST_IMPUTATIONS,
    MODEL_KINDS,
    TrainedModel,
    _check_validation_positives,
    build_network_datasets,
    evaluate_model,
    ingest_csvs,
    precursor_mask,
    train_model,
)
from .rits import BritsModel, TrainSchedule
from .schema import FeatureSchema
from .synth import GenConfig, PROTOCOL_INDICATORS, generate, load_ground_truth, dataset_stats
from .transfer import build_mega_dataset, finetune_classifier_only, finetune_entirety
from .trees import TreeEnsemble, tree_count_grid
from .windows import TEST


#: Every config key the stages read, and what its value must be: a type
#: (``float`` also takes an integer), ``[type]`` for a list of that type,
#: or a nested table for a mapping.
CONFIG_KEYS: dict = {
    "seed": int,
    "workspace": str,
    "synth": {
        "ports_per_network": [int],
        "days": int,
        "target_missing_rate": float,
        "degrade_fraction": float,
        "unpredictable_fraction": float,
        "benign_dip_fraction": float,
        "dual_facility_prob": float,
        "extra_features_per_network": int,
        "feature_overlap": float,
        "zero_suppression": bool,
    },
    "ingest": {"inputs": [str], "protocol_indicators": [str]},
    "build": {"past_days": int, "future_days": int},
    "train": {
        "models": [str],
        "networks": [str],
        "grid": [int],
        "forest_imputation": str,
        "brits": {
            "hidden_size": int,
            "batch_size": int,
            "learning_rate": float,
            "max_epochs_phase1": int,
            "max_epochs_phase2": int,
            "patience": int,
            "min_delta": float,
        },
    },
    "transfer": {"strategies": [str], "networks": [str]},
    "evaluate": {"models": [str], "facilities": [str]},
    "report": {"plots": bool},
}


def _check_config(where: str, value, spec) -> None:
    """:class:`ConfigError` naming the key at ``where`` unless ``value`` fits
    ``spec``, an entry of :data:`CONFIG_KEYS`."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a mapping, not {type(value).__name__}")
        unknown = sorted(set(value) - set(spec), key=str)  # keys of YAML may mix types
        if unknown:
            raise ConfigError(f"unknown {where or 'config'} key(s) {unknown}")
        for key, item in value.items():
            _check_config(f"{where}.{key}" if where else key, item, spec[key])
    elif isinstance(spec, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, not {type(value).__name__}")
        for i, item in enumerate(value):
            _check_config(f"{where}[{i}]", item, spec[0])
    else:
        # bool is a subclass of int, so only a bool spec takes true/false.
        accepted = (int, float) if spec is float else spec
        if isinstance(value, bool) != (spec is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{where} must be {spec.__name__}, not {type(value).__name__}")


@dataclass
class RunConfig:
    """Declarative run configuration; YAML round-trips losslessly."""

    seed: int
    workspace: str = "workspace"
    synth: dict = field(default_factory=dict)
    ingest: dict = field(default_factory=dict)
    build: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    transfer: dict = field(default_factory=dict)
    evaluate: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if "seed" not in d:
            raise ConfigError("config field 'seed' is mandatory")
        _check_config("", d, CONFIG_KEYS)
        return cls(**d)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a mapping")
        return cls.from_dict(raw)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            yaml.safe_dump(self.to_dict(), sort_keys=True), encoding="utf-8"
        )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Workspace:
    """Artifact layout plus the append-only run log.

    A stage passes every file it opens through :meth:`read` and takes
    every artifact path from :meth:`write`, so its run-log line lists
    exactly the files it read and wrote.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def read(self, path: Path) -> Path:
        """Record ``path`` as an input of the running stage; return it."""
        if path not in self.inputs:
            self.inputs.append(path)
        return path

    def write(self, *parts: str) -> Path:
        """The artifact path ``root/parts``, with its directory made, recorded
        as an output of the running stage."""
        path = self.root.joinpath(*parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(path)
        return path

    def require(self, relative: str, stage: str) -> Path:
        p = self.root / relative
        if not p.exists():
            raise MissingArtifactError(
                f"missing artifact {p}; run the '{stage}' stage first"
            )
        return p

    def log_stage(self, stage: str, seconds: float) -> None:
        entry = {
            "stage": stage,
            "duration_s": round(seconds, 3),
            "inputs": {str(p): _sha256(p) for p in self.inputs},
            "outputs": [str(p) for p in self.outputs],
        }
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "runlog.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Stage implementations over a workspace


def stage_synth(cfg: RunConfig, ws: Workspace) -> None:
    opts = dict(cfg.synth)
    if "ports_per_network" in opts:
        opts["ports_per_network"] = tuple(opts["ports_per_network"])
    result = generate(GenConfig(seed=cfg.seed, **opts), ws.root / "synth")
    ws.outputs += [*result.csv_paths, result.truth_path]  # named by the generator
    write_json(ws.write("synth", "summary.json"), result.summary)


def _remove_unwritten(ws: Workspace, stage_dir: str) -> None:
    """Delete each network directory under ``stage_dir`` that the running
    stage wrote nothing into: later stages read every one present, so a
    network dropped from the input would otherwise live on."""
    written = {path.parent for path in ws.outputs}
    for net_dir in (ws.root / stage_dir).iterdir():
        if net_dir.is_dir() and net_dir not in written:
            shutil.rmtree(net_dir)


def stage_ingest(cfg: RunConfig, ws: Workspace) -> None:
    inputs = [Path(p) for p in cfg.ingest.get("inputs", [])]
    if not inputs:
        synth_dir = ws.require("synth", "synth")
        inputs = sorted(synth_dir.glob("net*.csv"))
        if not inputs:
            raise MissingArtifactError(f"no input CSVs configured and none under {synth_dir}")
    indicators = tuple(cfg.ingest.get("protocol_indicators", PROTOCOL_INDICATORS))
    try:
        ingested = ingest_csvs([ws.read(p) for p in inputs], indicators)
    except IndicatorError as exc:
        raise ConfigError(f"ingest.protocol_indicators: {exc}") from None
    for net, (schema, series) in ingested.items():
        series.save(ws.write("ingest", net, "series.ilos"), schema)
        span = (series.start_day.min(), (series.start_day + series.n_days).max() - 1)
        manifest = {
            "network_id": net,
            "schema": schema.to_dict(),
            "ports": sorted(series.port_id.tolist()),
            "date_span": [date.fromordinal(int(day)).isoformat() for day in span],
        }
        write_json(ws.write("ingest", net, "manifest.json"), manifest)
    _remove_unwritten(ws, "ingest")


def _load_ingested(ws: Workspace) -> dict[str, tuple[FeatureSchema, PortSeries]]:
    ingest_dir = ws.require("ingest", "ingest")
    out = {}
    for net_dir in sorted(p for p in ingest_dir.iterdir() if p.is_dir()):
        out[net_dir.name] = PortSeries.load(ws.read(net_dir / "series.ilos"))
    if not out:
        raise MissingArtifactError(f"no ingested networks under {ingest_dir}")
    return out


def stage_build(cfg: RunConfig, ws: Workspace) -> None:
    ingested = _load_ingested(ws)
    past = int(cfg.build.get("past_days", 7))
    future = int(cfg.build.get("future_days", 7))
    datasets, audits = build_network_datasets(ingested, past, future)
    for net, ds in datasets.items():
        ds.save(ws.write("build", net, "windows.ilos"))
        write_audit_csv(ws.write("build", net, "audit.csv"), audits[net])
        write_json(ws.write("build", net, "stats.json"), dataset_stats(ds))
    _remove_unwritten(ws, "build")


def _load_datasets(ws: Workspace) -> dict[str, WindowDataset]:
    build_dir = ws.require("build", "build")
    out = {}
    # Workspaces of older versions hold a cached mega-dataset in
    # build/mega/; it is no network and is never read.
    for net_dir in sorted(p for p in build_dir.iterdir() if p.is_dir() and p.name != "mega"):
        out[net_dir.name] = WindowDataset.load(ws.read(net_dir / "windows.ilos"))
    if not out:
        raise MissingArtifactError(f"no built datasets under {build_dir}")
    return out


def _brits_settings(cfg: RunConfig) -> TrainSchedule:
    """The recurrent training schedule of ``train.brits``, seeded by the
    config seed; :class:`ConfigError` for an out-of-range value."""
    try:
        return TrainSchedule(seed=cfg.seed, **cfg.train.get("brits", {}))
    except ConfigError as exc:
        raise ConfigError(f"train.brits.{exc}") from None


def _train_options(cfg: RunConfig) -> tuple[list[str], dict]:
    """The configured model kinds and the keyword options of
    :func:`train_model`, each checked."""
    kinds = list(cfg.train.get("models", ["booster", "brits"]))
    unknown = [kind for kind in kinds if kind not in MODEL_KINDS]
    if unknown:
        raise ConfigError(f"unknown model kind(s) {unknown}; expected any of {list(MODEL_KINDS)}")
    imputation = cfg.train.get("forest_imputation", "zero")
    if imputation not in FOREST_IMPUTATIONS:
        raise ConfigError(
            f"train.forest_imputation must be one of {list(FOREST_IMPUTATIONS)}, not {imputation!r}"
        )
    try:
        grid = tree_count_grid(cfg.train.get("grid", DEFAULT_GRID))
    except ConfigError as exc:
        raise ConfigError(f"train.grid: {exc}") from None
    return kinds, {
        "grid": grid,
        "imputation": imputation,
        "schedule": _brits_settings(cfg),
        "seed": cfg.seed,
    }


def _save_model(
    ws: Workspace, trained: TrainedModel, dataset_scope: str, parent_hash: str | None = None
) -> None:
    """Write ``models/<name>/model.ilos``, the model's parameters and
    settings with its identity in one container, and its ``history.csv``."""
    arrays, meta = trained.model.to_container()
    meta.update(
        name=trained.name,
        kind=trained.kind,
        scope=trained.scope,
        dataset=dataset_scope,
        imputation=trained.imputation,
        grid_scores=trained.grid_scores,
    )
    if parent_hash is not None:
        meta["pretrained_parent_sha256"] = parent_hash
    write_container(ws.write("models", trained.name, "model.ilos"), arrays, meta)
    if trained.history:
        keys = list(trained.history[0])
        lines = (
            ",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in keys)
            for row in trained.history
        )
        write_csv(ws.write("models", trained.name, "history.csv"), keys, lines, lineterminator="\n")


def stage_train(cfg: RunConfig, ws: Workspace) -> None:
    """Train per-network models (no transfer)."""
    kinds, options = _train_options(cfg)
    datasets = _load_datasets(ws)
    networks = cfg.train.get("networks") or sorted(datasets)
    missing = [net for net in networks if net not in datasets]
    if missing:
        raise MissingArtifactError(f"no built dataset for network(s) {missing}")
    for net in networks:
        _check_validation_positives(datasets[net], net)
    jobs = [
        (f"{kind} on {net}", partial(train_model, datasets[net], kind, net, **options))
        for net in networks
        for kind in kinds
    ]
    fits.run(jobs, lambda trained: _save_model(ws, trained, dataset_scope=trained.scope))


def stage_pretrain(cfg: RunConfig, ws: Workspace) -> None:
    """Build the mega-dataset and pre-train the selected models on it."""
    kinds, options = _train_options(cfg)
    mega = build_mega_dataset(list(_load_datasets(ws).values()))
    jobs = [(f"{kind} on mega", partial(train_model, mega, kind, "mega", **options)) for kind in kinds]
    fits.run(jobs, lambda trained: _save_model(ws, trained, dataset_scope="mega"))


FINETUNERS = {"classifier_only": finetune_classifier_only, "entirety": finetune_entirety}


def stage_finetune(cfg: RunConfig, ws: Workspace) -> None:
    strategies = cfg.transfer.get("strategies", list(FINETUNERS))
    unknown = [s for s in strategies if s not in FINETUNERS]
    if unknown:
        raise ConfigError(
            f"unknown fine-tune strategies {unknown}; expected any of {list(FINETUNERS)}"
        )
    schedule = _brits_settings(cfg)
    model_path = ws.require("models/brits_mega/model.ilos", "pretrain")
    mega = build_mega_dataset(list(_load_datasets(ws).values()))
    networks = cfg.transfer.get("networks") or list(mega.networks)
    missing = [net for net in networks if net not in mega.networks]
    if missing:
        raise MissingArtifactError(f"the mega dataset has no network(s) {missing}")
    pretrained, _ = _load_model(ws, model_path.parent)
    if pretrained.kind != "brits":
        raise DataError(f"{model_path}: 'kind' {pretrained.kind!r} is not 'brits'")
    parent_hash = _sha256(model_path)

    def finetune(strategy: str, net: str) -> TrainedModel:
        model, history = FINETUNERS[strategy](pretrained.model, mega, net, schedule)
        return TrainedModel(
            name=f"brits_mega_ft-{strategy}_{net}", kind="brits", scope=net, model=model, history=history
        )

    jobs = [
        (f"{strategy} fine-tune on {net}", partial(finetune, strategy, net))
        for net in networks
        for strategy in strategies
    ]
    fits.run(jobs, lambda trained: _save_model(ws, trained, dataset_scope="mega", parent_hash=parent_hash))


def _is_grid_score(item) -> bool:
    """Whether ``item`` is a saved ``[tree count, metric]`` pair."""
    return (
        isinstance(item, list)
        and len(item) == 2
        and type(item[0]) is int
        and type(item[1]) in (int, float)
    )


#: The identity of a model in its container's metadata: five strings, then
#: the grid scores.
IDENTITY_KEYS = ("name", "kind", "scope", "dataset", "imputation", "grid_scores")


def _check_identity(meta: dict, path: Path) -> None:
    """:class:`DataError` unless ``meta`` holds each identity value with the
    type ``_save_model`` writes."""
    require_keys(meta, IDENTITY_KEYS, path, "metadata")
    for key in IDENTITY_KEYS[:-1]:
        if not isinstance(meta[key], str):
            raise DataError(f"{path}: {key!r} is not a string")
    if not isinstance(meta["grid_scores"], list) or not all(map(_is_grid_score, meta["grid_scores"])):
        raise DataError(f"{path}: 'grid_scores' is not a list of [int, number] pairs")
    kind = meta["kind"]
    if kind not in MODEL_KINDS:
        raise DataError(f"{path}: 'kind' {kind!r} is not one of {list(MODEL_KINDS)}")
    allowed = FOREST_IMPUTATIONS if kind == "forest" else ("none",)
    if meta["imputation"] not in allowed:
        raise DataError(
            f"{path}: 'imputation' {meta['imputation']!r} is not one of {list(allowed)} "
            f"for 'kind' {kind!r}"
        )


def _load_model(ws: Workspace, model_dir: Path) -> tuple[TrainedModel, str]:
    """The trained model of ``model_dir`` and the dataset scope it was
    trained on, from its one container."""
    for old in ("meta.json", "model.json"):
        if (model_dir / old).exists():
            mega = model_dir.name.split("_")[1:2] == ["mega"]
            stage = "finetune" if "_ft-" in model_dir.name else "pretrain" if mega else "train"
            raise DataError(f"{model_dir}: holds the {old} of an older model layout; re-run the '{stage}' stage")
    path = ws.read(model_dir / "model.ilos")
    arrays, meta = read_container(path)
    _check_identity(meta, path)
    model_cls = BritsModel if meta["kind"] == "brits" else TreeEnsemble
    trained = TrainedModel(
        name=meta["name"],
        kind=meta["kind"],
        scope=meta["scope"],
        model=model_cls.from_container(path, arrays, meta),
        imputation=meta["imputation"],
        grid_scores=[tuple(x) for x in meta["grid_scores"]],
    )
    return trained, meta["dataset"]


def _load_models(ws: Workspace, names: list[str] | None) -> list[tuple[TrainedModel, str]]:
    """Each trained model and the dataset scope it was trained on."""
    models_dir = ws.require("models", "train")
    dirs = sorted(p for p in models_dir.iterdir() if p.is_dir())
    if names:
        wanted = set(names)
        dirs = [p for p in dirs if p.name in wanted]
        missing = wanted - {p.name for p in dirs}
        if missing:
            raise MissingArtifactError(f"no trained model artifacts for {sorted(missing)}")
    out = [_load_model(ws, model_dir) for model_dir in dirs]
    if not out:
        raise MissingArtifactError(f"no trained models under {models_dir}")
    return out


def stage_evaluate(cfg: RunConfig, ws: Workspace) -> None:
    datasets = _load_datasets(ws)
    mega: WindowDataset | None = None
    models = _load_models(ws, cfg.evaluate.get("models"))
    facilities = tuple(cfg.evaluate.get("facilities", ()))
    truth_path = ws.root / "synth" / "ground_truth.csv"
    truth = load_ground_truth(ws.read(truth_path)) if truth_path.exists() else None
    # Every model's dataset is resolved and checked before anything is written.
    evaluated = []
    for trained, scope in models:
        if scope == "mega":
            if mega is None:
                mega = build_mega_dataset(list(datasets.values()))
            ds = mega
        elif scope in datasets:
            ds = datasets[scope]
        else:
            raise MissingArtifactError(f"no built dataset for network {scope!r}")
        unknown = [fac for fac in facilities if fac not in ds.schema.onehot_features]
        if unknown:
            raise ConfigError(
                f"evaluate.facilities {unknown} are not facilities of the dataset of "
                f"{trained.name!r}; it has {list(ds.schema.onehot_features)}"
            )
        evaluated.append((trained, ds))
    for trained, ds in evaluated:
        extra = {}
        if truth is not None:
            extra["precursor_only"] = precursor_mask(ds, truth)
        idx = ds.indices(split=TEST)
        scores = trained.predictor(ds)(idx)
        report = evaluate_model(
            trained, ds, facilities=facilities, extra_masks=extra, scores=scores
        )
        write_json(ws.write("eval", trained.name, "scores.json"), report)
        # Per-model overall PR curve and raw scores for plotting and audit.
        # The curve comes through the metrics module, where perfbench's
        # tracer counts every ``pr_curve`` call.
        curve = metrics.pr_curve(scores, ds.label[idx])
        metrics.write_curve_csv(ws.write("eval", trained.name, "pr_curve.csv"), curve)
        pred_path = ws.write("eval", trained.name, "predictions.csv")
        write_csv(pred_path, ["sample_id", "score"], _prediction_lines(ds, idx, scores), lineterminator="\n")


def _prediction_lines(ds: WindowDataset, idx: np.ndarray, scores: np.ndarray) -> Iterator[str]:
    """predictions.csv lines ``network:port:day,score`` of samples ``idx``;
    the id prefix is rendered once per run of samples of one port."""
    network, port = ds.network[idx], ds.port[idx]
    new_run = np.ones(idx.size, dtype=bool)
    new_run[1:] = (network[1:] != network[:-1]) | (port[1:] != port[:-1])
    starts = np.flatnonzero(new_run)
    cells = text_cells((f"{n}:{p}:" for n, p in zip(network[starts], port[starts])), "\n")
    # csv.writer quotes the whole sample id, so a quoted prefix closes after the day.
    heads = [c[:-1] if c[:1] == '"' else c for c in cells]
    tails = ['",' if c[:1] == '"' else "," for c in cells]
    runs = (np.cumsum(new_run) - 1).tolist()
    columns = (runs, ds.present_day[idx].tolist(), scores.tolist())
    return (f"{heads[r]}{d}{tails[r]}{s!r}" for r, d, s in zip(*columns))


def stage_report(cfg: RunConfig, ws: Workspace) -> None:
    eval_dir = ws.require("eval", "evaluate")
    per_model = {}
    for scores_path in sorted(eval_dir.glob("*/scores.json")):
        report = read_json(ws.read(scores_path), required=("model",))
        if not isinstance(report["model"], str):
            raise DataError(f"{scores_path}: 'model' is not a string")
        per_model[report["model"]] = report
    if not per_model:
        raise MissingArtifactError(f"no evaluation outputs under {eval_dir}")
    plt = curves = None
    if cfg.report.get("plots", False):
        plt = _pyplot()
        curves = {path.parent.name: _read_curve(ws.read(path)) for path in sorted(eval_dir.glob("*/pr_curve.csv"))}
    write_json(ws.write("report", "report.json"), {"models": per_model})
    if plt is not None:
        _render_plots(plt, ws, curves)


def _pyplot():
    """matplotlib's pyplot on the file-only Agg backend; :class:`ConfigError`
    when matplotlib is not installed."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigError("report.plots requires matplotlib; install iloscast[plots]") from exc
    return plt


def _read_curve(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The recall and precision columns of a ``pr_curve.csv``;
    :class:`DataError` naming ``path`` unless both are there and finite."""
    with decoding(path, "PR curve"), warnings.catch_warnings():
        warnings.filterwarnings("error", "genfromtxt: Empty input file", UserWarning)
        try:
            rows = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
        except UserWarning:
            raise ValueError("the file holds no header line") from None
        recall, precision = rows["recall"], rows["precision"]
    if not (np.isfinite(recall).all() and np.isfinite(precision).all()):
        raise DataError(f"{path}: a recall or precision that is not a finite number")
    return recall, precision


def _render_plots(plt, ws: Workspace, curves: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    fig, ax = plt.subplots(figsize=(7, 5))
    for name, (recall, precision) in curves.items():
        ax.plot(recall, precision, label=name)
    ax.set_xscale("log")
    ax.set_xlabel("recall (log scale)")
    ax.set_ylabel("precision")
    ax.legend(fontsize=7)
    fig.savefig(ws.write("report", "pr_curves.svg"), format="svg")
    plt.close(fig)


STAGES = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "build": stage_build,
    "train": stage_train,
    "pretrain": stage_pretrain,
    "finetune": stage_finetune,
    "evaluate": stage_evaluate,
    "report": stage_report,
}


def run_stage(stage: str, cfg: RunConfig) -> list[Path]:
    """Run one stage over the config's workspace, append its run-log line
    (duration, sha256 of every file it read, every file it wrote) and
    return the files it wrote."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {sorted(STAGES)}")
    ws = Workspace(cfg.workspace)
    t0 = time.perf_counter()
    STAGES[stage](cfg, ws)
    ws.log_stage(stage, time.perf_counter() - t0)
    return ws.outputs


# ---------------------------------------------------------------------------
# Click wiring


def _make_command(stage_name: str):
    @click.command(name=stage_name, help=f"Run the {stage_name} stage.")
    @click.option("--config", "config_path", type=click.Path(), required=True)
    @click.option("--workspace", type=click.Path(), default=None, help="Override workspace dir.")
    @click.option("--seed", type=int, default=None, help="Override the config seed.")
    def command(config_path: str, workspace: str | None, seed: int | None):
        cfg = RunConfig.load(config_path)
        if workspace is not None:
            cfg.workspace = workspace
        if seed is not None:
            cfg.seed = seed
        outputs = run_stage(stage_name, cfg)
        for p in outputs:
            click.echo(str(p))

    return command


@click.group(help=__doc__)
def main() -> None:
    pass


for _name in STAGES:
    main.add_command(_make_command(_name))


def cli_entry(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    except MissingArtifactError as exc:
        click.echo(f"missing artifact: {exc}", err=True)
        return 3
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 4
    except IloscastError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code


def main_entry() -> None:
    sys.exit(cli_entry())


if __name__ == "__main__":
    main_entry()
