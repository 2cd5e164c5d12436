"""Stage implementations shared by the CLI and the benchmark suite.

Each stage is a plain function over in-memory objects; the CLI wraps them
with artifact persistence and run logging. Keeping the compute pure makes
end-to-end runs reproducible and testable without a workspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Audit, WindowDataset, build_dataset
from .errors import DataError
from .ingest import PmColumns, build_schema, merge_to_port_level, read_pm_csv
from .metrics import evaluate_scores, pr_auc_truncated, pr_curve
from .rits import BritsModel, TrainSchedule, brits_predict, init_brits, train_brits
from .schema import FeatureSchema
from .synth import PROTOCOL_INDICATORS
from .transfer import rits_data
from .trees import (
    BoosterConfig,
    ForestConfig,
    GridResult,
    TreeEnsemble,
    grid_search_trees,
    predict_proba,
)
from .windows import TEST, TRAIN, VALIDATION

DEFAULT_GRID = (100, 200, 300, 400, 500)


def truncated_auc_metric(scores: np.ndarray, labels: np.ndarray) -> float:
    return pr_auc_truncated(pr_curve(scores, labels)).value


def ingest_csvs(
    paths: list[str | Path], protocol_indicators: tuple[str, ...] = PROTOCOL_INDICATORS
) -> dict[str, tuple[FeatureSchema, list]]:
    """Parse every file once into columns, then derive each network's
    schema and max-merge its ports.

    Returns {network_id: (schema, port series list)} in network order.
    """
    rows = PmColumns.concat([read_pm_csv(path) for path in paths])
    if not len(rows):
        raise DataError("no records found in the input files")
    out = {}
    for code, net in sorted(enumerate(rows.networks), key=lambda item: item[1]):
        net_rows = rows.take(rows.network == code)
        schema = build_schema(net_rows, protocol_indicators)
        out[net] = (schema, merge_to_port_level(net_rows, schema))
    return out


def build_network_datasets(
    ingested: dict[str, tuple[FeatureSchema, list]],
    past_days: int = 7,
    future_days: int = 7,
) -> tuple[dict[str, WindowDataset], dict[str, Audit]]:
    datasets = {}
    audits = {}
    for net in sorted(ingested):
        schema, series = ingested[net]
        datasets[net], audits[net] = build_dataset(series, schema, past_days, future_days)
    return datasets, audits


# ---------------------------------------------------------------------------
# Model training


@dataclass
class BritsSettings:
    hidden_size: int = 96
    batch_size: int = 256
    learning_rate: float = 1e-3
    max_epochs_phase1: int = 10
    max_epochs_phase2: int = 15
    patience: int = 5
    min_delta: float = 1e-4


@dataclass
class TrainedModel:
    name: str
    kind: str  # "forest" | "booster" | "brits"
    scope: str  # network id or "mega"
    model: TreeEnsemble | BritsModel
    imputation: str = "none"  # forest input mode
    grid_scores: list[tuple[int, float]] = field(default_factory=list)
    history: list[dict] = field(default_factory=list)

    def predictor(self, dataset: WindowDataset):
        """Index-based probability function over ``dataset``."""
        if self.kind == "brits":

            def fn(idx: np.ndarray) -> np.ndarray:
                return brits_predict(self.model, rits_data(dataset, idx))

        else:
            imputation = self.imputation if self.kind == "forest" else "none"

            def fn(idx: np.ndarray) -> np.ndarray:
                return predict_proba(self.model, dataset.tree_rows(idx, imputation))

        return fn


def _check_validation_positives(dataset: WindowDataset, scope: str) -> None:
    val = dataset.indices(split=VALIDATION)
    if val.size == 0 or dataset.label[val].sum() == 0:
        raise DataError(
            f"validation split of {scope!r} has no positive samples; cannot model-select"
        )


def train_tree_model(
    dataset: WindowDataset,
    kind: str,
    scope: str,
    grid: tuple[int, ...] = DEFAULT_GRID,
    imputation: str = "zero",
    seed: int = 0,
    max_depth: int | None = None,
) -> TrainedModel:
    """Grid-search a forest or booster over tree count on the validation split."""
    _check_validation_positives(dataset, scope)
    tr = dataset.indices(split=TRAIN)
    va = dataset.indices(split=VALIDATION)
    if kind == "booster":
        rows_tr = dataset.tree_rows(tr, "none")
        rows_va = dataset.tree_rows(va, "none")
        config = BoosterConfig(seed=seed, **({"max_depth": max_depth} if max_depth else {}))
        mode = "none"
    elif kind == "forest":
        rows_tr = dataset.tree_rows(tr, imputation)
        rows_va = dataset.tree_rows(va, imputation)
        config = ForestConfig(seed=seed, **({"max_depth": max_depth} if max_depth else {}))
        mode = imputation
    else:
        raise DataError(f"unknown tree model kind {kind!r}")

    result: GridResult = grid_search_trees(
        (rows_tr, dataset.label[tr].astype(np.float64)),
        (rows_va, dataset.label[va].astype(np.float64)),
        grid,
        truncated_auc_metric,
        kind=kind,
        config=config,
    )
    return TrainedModel(
        name=f"{kind}_{scope}" + (f"_{imputation}" if kind == "forest" else ""),
        kind=kind,
        scope=scope,
        model=result.best_model,
        imputation=mode,
        grid_scores=result.scores,
    )


def train_brits_model(
    dataset: WindowDataset,
    scope: str,
    settings: BritsSettings | None = None,
    seed: int = 0,
) -> TrainedModel:
    settings = settings or BritsSettings()
    _check_validation_positives(dataset, scope)
    tr = rits_data(dataset, dataset.indices(split=TRAIN))
    va = rits_data(dataset, dataset.indices(split=VALIDATION))
    model = init_brits(dataset.schema.width, hidden_size=settings.hidden_size, seed=seed)
    schedule = TrainSchedule(
        batch_size=settings.batch_size,
        learning_rate=settings.learning_rate,
        max_epochs_phase1=settings.max_epochs_phase1,
        max_epochs_phase2=settings.max_epochs_phase2,
        patience=settings.patience,
        min_delta=settings.min_delta,
        seed=seed,
    )
    trained, history = train_brits(model, tr, va, schedule)
    return TrainedModel(
        name=f"brits_{scope}", kind="brits", scope=scope, model=trained, history=history
    )


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_model(
    trained: TrainedModel,
    dataset: WindowDataset,
    facilities: tuple[str, ...] = (),
    extra_masks: dict[str, np.ndarray] | None = None,
    scores: np.ndarray | None = None,
) -> dict:
    """Test-split scores: per network, weighted average, optional facility
    subsets and extra named masks (e.g. precursor-only).

    The model scores ``dataset.indices(split=TEST)`` once and every subset
    is a slice of those scores. A caller that has already scored them
    passes them as ``scores``, in that index order.
    """
    test = dataset.indices(split=TEST)
    if scores is None:
        scores = trained.predictor(dataset)(test)
    labels = dataset.label[test]
    report: dict = {"model": trained.name, "per_network": {}, "per_facility": {}, "subsets": {}}

    def d_value(keep: np.ndarray, subset: str) -> float | None:
        """D on the kept test samples; None when they hold no positive."""
        if labels[keep].sum() == 0:
            return None
        return evaluate_scores(scores[keep], labels[keep], subset=subset)[0].value

    sizes = []
    values = []
    for net in dataset.networks:
        keep = dataset.network[test] == net
        value = d_value(keep, f"network={net}")
        if value is not None:
            report["per_network"][net] = value
            sizes.append(int(keep.sum()))
            values.append(value)
    if values:
        report["weighted_average"] = float(
            sum(v * s for v, s in zip(values, sizes)) / sum(sizes)
        )

    score, _ = evaluate_scores(scores, labels, subset="overall")
    report["overall"] = score.value

    for fac in facilities:
        keep = dataset.x[test, 0, dataset.schema.onehot_index(fac)] == 1.0
        value = d_value(keep, f"facility={fac}")
        if value is not None:
            report["per_facility"][fac] = value

    for name, mask in (extra_masks or {}).items():
        value = d_value(mask[test], name)
        if value is not None:
            report["subsets"][name] = value

    return report


def precursor_mask(dataset: WindowDataset, events: list) -> np.ndarray:
    """Mark samples that are either negative or positive due to a precursor
    outage within 14 days after the present day.

    Evaluating on this subset excludes the intrinsically unpredictable
    positives, which is the quantity the precursor-only benchmark tracks.
    """
    from .synth import START_DATE  # local import to keep module edges clean

    start_ord = START_DATE.toordinal()
    by_port: dict[tuple[str, str], list[int]] = {}
    for ev in events:
        if ev.has_precursor:
            by_port.setdefault((ev.network_id, ev.port_id), []).append(
                start_ord + ev.outage_day
            )

    mask = np.zeros(dataset.n, dtype=bool)
    for i in range(dataset.n):
        if dataset.label[i] == 0:
            mask[i] = True
            continue
        outages = by_port.get((dataset.network[i], dataset.port[i]), ())
        day = dataset.present_day[i]
        mask[i] = any(0 < o - day <= 14 for o in outages)
    return mask
