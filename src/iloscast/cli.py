"""Command-line pipeline: synth, ingest, build, train, pretrain, finetune,
evaluate, report.

Every stage reads its inputs from and writes its artifacts into a
workspace directory, appending a run-log line with content hashes of its
inputs so any report can be traced back to the exact bytes that produced
it. Exit codes: 0 success, 2 config error, 3 missing artifact, 4 numeric
failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np
import yaml

from .dataset import WindowDataset, write_audit_csv
from .errors import ConfigError, IloscastError, MissingArtifactError, NumericError
from .ingest import series_from_arrays, series_to_arrays
from .container import read_container, read_json, require_keys, write_container, write_json
from .metrics import evaluate_scores, write_curve_csv
from .pipeline import (
    BritsSettings,
    DEFAULT_GRID,
    TrainedModel,
    build_network_datasets,
    evaluate_model,
    ingest_csvs,
    precursor_mask,
    train_brits_model,
    train_tree_model,
)
from .rits import BritsModel, TrainSchedule
from .schema import FeatureSchema
from .synth import GenConfig, PROTOCOL_INDICATORS, generate, load_ground_truth, dataset_stats
from .transfer import build_mega_dataset, finetune_classifier_only, finetune_entirety
from .trees import TreeEnsemble
from .windows import TEST


@dataclass
class RunConfig:
    """Declarative run configuration; YAML round-trips losslessly."""

    seed: int
    workspace: str = "workspace"
    threads: int = 1
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
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
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
    """Artifact layout plus the append-only run log."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def dir(self, *parts: str) -> Path:
        p = self.root.joinpath(*parts)
        p.mkdir(parents=True, exist_ok=True)
        return p

    def require(self, relative: str, stage: str) -> Path:
        p = self.root / relative
        if not p.exists():
            raise MissingArtifactError(
                f"missing artifact {p}; run the '{stage}' stage first"
            )
        return p

    def log_stage(self, stage: str, inputs: list[Path], outputs: list[Path], seconds: float) -> None:
        entry = {
            "stage": stage,
            "duration_s": round(seconds, 3),
            "inputs": {str(p): _sha256(p) for p in inputs if p.is_file()},
            "outputs": [str(p) for p in outputs],
        }
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "runlog.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Stage implementations over a workspace


def stage_synth(cfg: RunConfig, ws: Workspace) -> list[Path]:
    t0 = time.time()
    opts = dict(cfg.synth)
    ports = opts.pop("ports_per_network", None)
    gen_kwargs = {}
    for name in (
        "n_networks",
        "days",
        "target_missing_rate",
        "degrade_fraction",
        "unpredictable_fraction",
        "benign_dip_fraction",
        "dual_facility_prob",
        "extra_features_per_network",
        "feature_overlap",
        "zero_suppression",
    ):
        if name in opts:
            gen_kwargs[name] = opts.pop(name)
    if opts:
        raise ConfigError(f"unknown synth options: {sorted(opts)}")
    if ports is not None:
        gen_kwargs["ports_per_network"] = tuple(ports)
        gen_kwargs.setdefault("n_networks", len(ports))
    try:
        gen_cfg = GenConfig(seed=cfg.seed, **gen_kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad synth options: {exc}") from exc
    out_dir = ws.dir("synth")
    result = generate(gen_cfg, out_dir, threads=max(1, cfg.threads))
    write_json(out_dir / "summary.json", result.summary)
    outputs = list(result.csv_paths) + [result.truth_path]
    ws.log_stage("synth", [], outputs, time.time() - t0)
    return outputs


def stage_ingest(cfg: RunConfig, ws: Workspace) -> list[Path]:
    t0 = time.time()
    inputs = [Path(p) for p in cfg.ingest.get("inputs", [])]
    if not inputs:
        synth_dir = ws.require("synth", "synth")
        inputs = sorted(synth_dir.glob("net*.csv"))
        if not inputs:
            raise MissingArtifactError(f"no input CSVs configured and none under {synth_dir}")
    indicators = tuple(cfg.ingest.get("protocol_indicators", PROTOCOL_INDICATORS))
    ingested = ingest_csvs(inputs, indicators)
    outputs = []
    for net, (schema, series) in ingested.items():
        net_dir = ws.dir("ingest", net)
        arrays, meta = series_to_arrays(series)
        meta["schema"] = schema.to_dict()
        container = net_dir / "series.ilos"
        write_container(container, arrays, meta)
        start = min(s.start_day for s in series)
        end = max(s.day(s.n_days - 1) for s in series)
        manifest = {
            "network_id": net,
            "schema": schema.to_dict(),
            "ports": sorted(s.port_id for s in series),
            "date_span": [start.isoformat(), end.isoformat()],
        }
        manifest_path = net_dir / "manifest.json"
        write_json(manifest_path, manifest)
        outputs += [container, manifest_path]
    ws.log_stage("ingest", inputs, outputs, time.time() - t0)
    return outputs


def _load_ingested(ws: Workspace) -> dict[str, tuple[FeatureSchema, list]]:
    ingest_dir = ws.require("ingest", "ingest")
    out = {}
    for net_dir in sorted(p for p in ingest_dir.iterdir() if p.is_dir()):
        path = net_dir / "series.ilos"
        arrays, meta = read_container(path)
        require_keys(meta, ("schema", "ports"), path, "metadata")
        schema = FeatureSchema.from_dict(meta["schema"])
        out[net_dir.name] = (schema, series_from_arrays(arrays, meta))
    if not out:
        raise MissingArtifactError(f"no ingested networks under {ingest_dir}")
    return out


def stage_build(cfg: RunConfig, ws: Workspace) -> list[Path]:
    t0 = time.time()
    ingested = _load_ingested(ws)
    past = int(cfg.build.get("past_days", 7))
    future = int(cfg.build.get("future_days", 7))
    datasets, audits = build_network_datasets(ingested, past, future)
    outputs = []
    for net, ds in datasets.items():
        net_dir = ws.dir("build", net)
        ds.save(net_dir / "windows.ilos")
        write_audit_csv(net_dir / "audit.csv", audits[net])
        stats_path = net_dir / "stats.json"
        write_json(stats_path, dataset_stats(ds))
        outputs += [net_dir / "windows.ilos", net_dir / "audit.csv", stats_path]
    inputs = sorted((ws.root / "ingest").glob("*/series.ilos"))
    ws.log_stage("build", inputs, outputs, time.time() - t0)
    return outputs


def _load_datasets(ws: Workspace) -> dict[str, WindowDataset]:
    build_dir = ws.require("build", "build")
    out = {}
    for net_dir in sorted(p for p in build_dir.iterdir() if p.is_dir() and p.name != "mega"):
        out[net_dir.name] = WindowDataset.load(net_dir / "windows.ilos")
    if not out:
        raise MissingArtifactError(f"no built datasets under {build_dir}")
    return out


def _load_mega(ws: Workspace) -> WindowDataset:
    path = ws.root / "build" / "mega" / "windows.ilos"
    if path.exists():
        return WindowDataset.load(path)
    datasets = _load_datasets(ws)
    mega = build_mega_dataset(list(datasets.values()))
    mega.save(path)
    manifest = {
        "sources": sorted(datasets),
        "union_schema": mega.schema.to_dict(),
        "samples_per_network": {
            net: int(mega.indices(network=net).size) for net in mega.networks
        },
    }
    write_json(path.parent / "manifest.json", manifest)
    return mega


def _brits_settings(cfg: RunConfig) -> BritsSettings:
    opts = dict(cfg.train.get("brits", {}))
    try:
        return BritsSettings(**opts)
    except TypeError as exc:
        raise ConfigError(f"bad train.brits options: {exc}") from exc


def _save_model(
    ws: Workspace, trained: TrainedModel, dataset_scope: str, parent_hash: str | None = None
) -> list[Path]:
    model_dir = ws.dir("models", trained.name)
    outputs = []
    if trained.kind == "brits":
        path = model_dir / "model.ilos"
        trained.model.save(path)
    else:
        path = model_dir / "model.json"
        trained.model.save(path)
    outputs.append(path)
    meta = {
        "name": trained.name,
        "kind": trained.kind,
        "scope": trained.scope,
        "dataset": dataset_scope,
        "imputation": trained.imputation,
        "grid_scores": trained.grid_scores,
    }
    if parent_hash is not None:
        meta["pretrained_parent_sha256"] = parent_hash
    meta_path = model_dir / "meta.json"
    write_json(meta_path, meta)
    outputs.append(meta_path)
    if trained.history:
        hist_path = model_dir / "history.csv"
        keys = list(trained.history[0])
        with open(hist_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(keys) + "\n")
            for row in trained.history:
                fh.write(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in keys) + "\n")
        outputs.append(hist_path)
    return outputs


def stage_train(cfg: RunConfig, ws: Workspace) -> list[Path]:
    """Train per-network models (no transfer)."""
    t0 = time.time()
    datasets = _load_datasets(ws)
    models = cfg.train.get("models", ["booster", "brits"])
    grid = tuple(cfg.train.get("grid", DEFAULT_GRID))
    imputation = cfg.train.get("forest_imputation", "zero")
    networks = cfg.train.get("networks") or sorted(datasets)
    outputs = []
    for net in networks:
        if net not in datasets:
            raise MissingArtifactError(f"no built dataset for network {net!r}")
        ds = datasets[net]
        for kind in models:
            if kind in ("booster", "forest"):
                trained = train_tree_model(
                    ds, kind, net, grid=grid, imputation=imputation, seed=cfg.seed
                )
            elif kind == "brits":
                trained = train_brits_model(ds, net, _brits_settings(cfg), seed=cfg.seed)
            else:
                raise ConfigError(f"unknown model kind {kind!r}")
            outputs += _save_model(ws, trained, dataset_scope=net)
    inputs = sorted((ws.root / "build").glob("*/windows.ilos"))
    ws.log_stage("train", inputs, outputs, time.time() - t0)
    return outputs


def stage_pretrain(cfg: RunConfig, ws: Workspace) -> list[Path]:
    """Build the mega-dataset and pre-train the selected models on it."""
    t0 = time.time()
    mega = _load_mega(ws)
    models = cfg.train.get("models", ["booster", "brits"])
    grid = tuple(cfg.train.get("grid", DEFAULT_GRID))
    imputation = cfg.train.get("forest_imputation", "zero")
    outputs = []
    for kind in models:
        if kind in ("booster", "forest"):
            trained = train_tree_model(
                mega, kind, "mega", grid=grid, imputation=imputation, seed=cfg.seed
            )
        elif kind == "brits":
            trained = train_brits_model(mega, "mega", _brits_settings(cfg), seed=cfg.seed)
        else:
            raise ConfigError(f"unknown model kind {kind!r}")
        outputs += _save_model(ws, trained, dataset_scope="mega")
    ws.log_stage(
        "pretrain",
        sorted((ws.root / "build").glob("*/windows.ilos")),
        outputs,
        time.time() - t0,
    )
    return outputs


def stage_finetune(cfg: RunConfig, ws: Workspace) -> list[Path]:
    t0 = time.time()
    mega = _load_mega(ws)
    model_path = ws.require("models/brits_mega/model.ilos", "pretrain")
    pretrained = BritsModel.load(model_path)
    strategies = cfg.transfer.get("strategies", ["classifier_only", "entirety"])
    networks = cfg.transfer.get("networks") or list(mega.networks)
    settings = _brits_settings(cfg)
    schedule = TrainSchedule(
        batch_size=settings.batch_size,
        max_epochs_phase2=settings.max_epochs_phase2,
        patience=settings.patience,
        min_delta=settings.min_delta,
        seed=cfg.seed,
    )
    outputs = []
    for net in networks:
        for strategy in strategies:
            if strategy == "classifier_only":
                model, history = finetune_classifier_only(pretrained, mega, net, schedule)
            elif strategy == "entirety":
                model, history = finetune_entirety(pretrained, mega, net, schedule)
            else:
                raise ConfigError(f"unknown fine-tune strategy {strategy!r}")
            trained = TrainedModel(
                name=f"brits_mega_ft-{strategy}_{net}",
                kind="brits",
                scope=net,
                model=model,
                history=history,
            )
            outputs += _save_model(
                ws, trained, dataset_scope="mega", parent_hash=_sha256(model_path)
            )
    ws.log_stage("finetune", [model_path], outputs, time.time() - t0)
    return outputs


def _load_models(
    ws: Workspace, names: list[str] | None
) -> list[tuple[TrainedModel, str, list[Path]]]:
    """Each trained model, the dataset scope it was trained on, and the
    files it was read from."""
    models_dir = ws.require("models", "train")
    dirs = sorted(p for p in models_dir.iterdir() if p.is_dir())
    if names:
        wanted = set(names)
        dirs = [p for p in dirs if p.name in wanted]
        missing = wanted - {p.name for p in dirs}
        if missing:
            raise MissingArtifactError(f"no trained model artifacts for {sorted(missing)}")
    out = []
    for model_dir in dirs:
        meta_path = model_dir / "meta.json"
        meta = read_json(meta_path, required=("name", "kind", "scope"))
        if meta["kind"] == "brits":
            model_path = model_dir / "model.ilos"
            model = BritsModel.load(model_path)
        else:
            model_path = model_dir / "model.json"
            model = TreeEnsemble.load(model_path)
        trained = TrainedModel(
            name=meta["name"],
            kind=meta["kind"],
            scope=meta["scope"],
            model=model,
            imputation=meta.get("imputation", "none"),
            grid_scores=[tuple(x) for x in meta.get("grid_scores", [])],
        )
        out.append((trained, meta.get("dataset", trained.scope), [meta_path, model_path]))
    if not out:
        raise MissingArtifactError(f"no trained models under {models_dir}")
    return out


def stage_evaluate(cfg: RunConfig, ws: Workspace) -> list[Path]:
    t0 = time.time()
    datasets = _load_datasets(ws)
    inputs = [ws.root / "build" / net / "windows.ilos" for net in datasets]
    mega: WindowDataset | None = None
    models = _load_models(ws, cfg.evaluate.get("models"))
    facilities = tuple(cfg.evaluate.get("facilities", ()))
    truth_path = ws.root / "synth" / "ground_truth.csv"
    truth = load_ground_truth(truth_path) if truth_path.exists() else None
    outputs = []
    for trained, scope, model_files in models:
        inputs += model_files
        if scope == "mega":
            if mega is None:
                mega = _load_mega(ws)
                inputs.append(ws.root / "build" / "mega" / "windows.ilos")
            ds = mega
        elif scope in datasets:
            ds = datasets[scope]
        else:
            raise MissingArtifactError(f"no built dataset for network {scope!r}")
        extra = {}
        if truth is not None:
            extra["precursor_only"] = precursor_mask(ds, truth)
        idx = ds.indices(split=TEST)
        scores = trained.predictor(ds)(idx)
        report = evaluate_model(
            trained, ds, facilities=facilities, extra_masks=extra, scores=scores
        )
        eval_dir = ws.dir("eval", trained.name)
        scores_path = eval_dir / "scores.json"
        write_json(scores_path, report)
        outputs.append(scores_path)
        # Per-model overall PR curve and raw scores for plotting and audit.
        _, curve = evaluate_scores(scores, ds.label[idx])
        curve_path = eval_dir / "pr_curve.csv"
        write_curve_csv(curve_path, curve)
        outputs.append(curve_path)
        pred_path = eval_dir / "predictions.csv"
        with open(pred_path, "w", encoding="utf-8") as fh:
            fh.write("sample_id,score\n")
            for i, s in zip(idx, scores):
                sample_id = f"{ds.network[i]}:{ds.port[i]}:{int(ds.present_day[i])}"
                fh.write(f"{sample_id},{float(s)!r}\n")
        outputs.append(pred_path)
    if truth is not None:
        inputs.append(truth_path)
    ws.log_stage("evaluate", inputs, outputs, time.time() - t0)
    return outputs


def stage_report(cfg: RunConfig, ws: Workspace) -> list[Path]:
    t0 = time.time()
    eval_dir = ws.require("eval", "evaluate")
    per_model = {}
    for scores_path in sorted(eval_dir.glob("*/scores.json")):
        report = read_json(scores_path, required=("model",))
        per_model[report["model"]] = report
    if not per_model:
        raise MissingArtifactError(f"no evaluation outputs under {eval_dir}")
    report_dir = ws.dir("report")
    report_path = report_dir / "report.json"
    write_json(report_path, {"models": per_model})
    outputs = [report_path]
    if cfg.report.get("plots", False):
        outputs += _render_plots(ws, eval_dir, report_dir)
    ws.log_stage("report", sorted(eval_dir.glob("*/scores.json")), outputs, time.time() - t0)
    return outputs


def _render_plots(ws: Workspace, eval_dir: Path, report_dir: Path) -> list[Path]:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigError(
            "report.plots requires matplotlib; install iloscast[plots]"
        ) from exc
    fig, ax = plt.subplots(figsize=(7, 5))
    for curve_path in sorted(eval_dir.glob("*/pr_curve.csv")):
        rows = np.genfromtxt(curve_path, delimiter=",", names=True)
        ax.plot(rows["recall"], rows["precision"], label=curve_path.parent.name)
    ax.set_xscale("log")
    ax.set_xlabel("recall (log scale)")
    ax.set_ylabel("precision")
    ax.legend(fontsize=7)
    out = report_dir / "pr_curves.svg"
    fig.savefig(out, format="svg")
    plt.close(fig)
    return [out]


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
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {sorted(STAGES)}")
    ws = Workspace(cfg.workspace)
    return STAGES[stage](cfg, ws)


# ---------------------------------------------------------------------------
# Click wiring


def _make_command(stage_name: str):
    @click.command(name=stage_name, help=f"Run the {stage_name} stage.")
    @click.option("--config", "config_path", type=click.Path(), required=True)
    @click.option("--workspace", type=click.Path(), default=None, help="Override workspace dir.")
    @click.option("--seed", type=int, default=None, help="Override the config seed.")
    @click.option("--threads", type=int, default=None, help="Parallelism cap.")
    def command(config_path: str, workspace: str | None, seed: int | None, threads: int | None):
        cfg = RunConfig.load(config_path)
        if workspace is not None:
            cfg.workspace = workspace
        if seed is not None:
            cfg.seed = seed
        if threads is not None:
            cfg.threads = threads
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
