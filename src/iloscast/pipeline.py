"""Stage implementations shared by the CLI and the benchmark suite.

Each stage is a plain function over in-memory objects; the CLI wraps them
with artifact persistence and run logging. Keeping the compute pure makes
end-to-end runs reproducible and testable without a workspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import Audit, WindowDataset, build_dataset
from .errors import DataError, IndicatorError
from .ingest import PmColumns, PortSeries, build_schema, merge_to_port_level, read_pm_csv
from .metrics import pr_auc_truncated, pr_curve, weighted_average
from .rits import BritsModel, TrainSchedule, brits_predict, init_brits, train_brits
from .schema import FeatureSchema
from .synth import PROTOCOL_INDICATORS, START_DATE
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
MODEL_KINDS = ("booster", "forest", "brits")
#: The forest's input modes: absent cells filled by zero or by the
#: training split's per-feature median.
FOREST_IMPUTATIONS = ("zero", "median")


def truncated_auc_metric(scores: np.ndarray, labels: np.ndarray) -> float:
    """D of ``scores`` against 0/1 ``labels``: the one way grid search and
    evaluation compute it."""
    return pr_auc_truncated(pr_curve(scores, labels))


def ingest_csvs(
    paths: list[str | Path], protocol_indicators: tuple[str, ...] = PROTOCOL_INDICATORS
) -> dict[str, tuple[FeatureSchema, PortSeries]]:
    """Parse every file once into columns, then derive each network's
    schema and max-merge its ports.

    Returns {network_id: (schema, series block)} in network order.
    :class:`IndicatorError` names a network whose PMs lack one of the
    ``protocol_indicators``.
    """
    parts = [read_pm_csv(path) for path in paths]
    if not sum(map(len, parts)):
        raise DataError(f"no records found in the input files: {', '.join(map(str, paths))}")
    rows = PmColumns.concat(parts)
    out = {}
    for code, net in sorted(enumerate(rows.networks), key=lambda item: item[1]):
        net_rows = rows.take(rows.network == code)
        try:
            schema = build_schema(net_rows, protocol_indicators)
        except IndicatorError as exc:
            raise IndicatorError(f"network {net!r}: {exc}") from None
        out[net] = (schema, merge_to_port_level(net_rows, schema))
    return out


def build_network_datasets(
    ingested: dict[str, tuple[FeatureSchema, PortSeries]],
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
) -> TrainedModel:
    """Grid-search a forest or booster over tree count on the validation split.

    The booster takes rows with absent cells as they are; the forest takes
    them filled by ``imputation``.
    """
    if kind == "booster":
        config, mode = BoosterConfig(), "none"
    elif kind == "forest":
        config, mode = ForestConfig(seed=seed), imputation
    else:
        raise DataError(f"unknown tree model kind {kind!r}")
    _check_validation_positives(dataset, scope)
    tr = dataset.indices(split=TRAIN)
    va = dataset.indices(split=VALIDATION)
    result: GridResult = grid_search_trees(
        (dataset.tree_rows(tr, mode), dataset.label[tr].astype(np.float64)),
        (dataset.tree_rows(va, mode), dataset.label[va].astype(np.float64)),
        grid,
        truncated_auc_metric,
        config,
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
    schedule: TrainSchedule | None = None,
    seed: int = 0,
) -> TrainedModel:
    """Train the recurrent model on ``dataset`` with ``schedule``, its seed
    replaced by ``seed``."""
    schedule = replace(schedule or TrainSchedule(), seed=seed)
    _check_validation_positives(dataset, scope)
    tr = rits_data(dataset, dataset.indices(split=TRAIN))
    va = rits_data(dataset, dataset.indices(split=VALIDATION))
    model = init_brits(dataset.schema.width, schedule.hidden_size, seed=seed)
    trained, history = train_brits(model, tr, va, schedule)
    return TrainedModel(
        name=f"brits_{scope}", kind="brits", scope=scope, model=trained, history=history
    )


def train_model(
    dataset: WindowDataset,
    kind: str,
    scope: str,
    *,
    grid: tuple[int, ...] = DEFAULT_GRID,
    imputation: str = "zero",
    schedule: TrainSchedule | None = None,
    seed: int = 0,
) -> TrainedModel:
    """Train one model of any of ``MODEL_KINDS`` on ``dataset``.

    Tree families grid-search the tree count (``grid``; ``imputation`` is
    the forest's input mode); the recurrent model trains with
    ``schedule``.
    """
    if kind == "brits":
        return train_brits_model(dataset, scope, schedule, seed=seed)
    return train_tree_model(dataset, kind, scope, grid=grid, imputation=imputation, seed=seed)


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
    passes them as ``scores``, in that index order. A subset without a
    positive sample gets no score; the whole test split must have one.
    """
    test = dataset.indices(split=TEST)
    if scores is None:
        scores = trained.predictor(dataset)(test)
    labels = dataset.label[test]
    first_day = dataset.x[test, 0]  # facility one-hot flags are constant per port
    subsets = [("per_network", net, dataset.network[test] == net) for net in dataset.networks]
    subsets += [
        ("per_facility", fac, first_day[:, dataset.schema.onehot_index(fac)] == 1.0)
        for fac in facilities
    ]
    subsets += [("subsets", name, mask[test]) for name, mask in (extra_masks or {}).items()]

    report: dict = {"model": trained.name, "per_network": {}, "per_facility": {}, "subsets": {}}
    network_sizes = []
    for section, name, keep in subsets:
        if labels[keep].any():
            report[section][name] = truncated_auc_metric(scores[keep], labels[keep])
            if section == "per_network":
                network_sizes.append(int(keep.sum()))
    if network_sizes:
        report["weighted_average"] = weighted_average(
            list(report["per_network"].values()), network_sizes
        )
    report["overall"] = truncated_auc_metric(scores, labels)
    return report


def precursor_mask(dataset: WindowDataset, events: list) -> np.ndarray:
    """Mark samples that are either negative or positive due to a precursor
    outage within 14 days after the present day.

    Evaluating on this subset excludes the intrinsically unpredictable
    positives, which is the quantity the precursor-only benchmark tracks.
    """
    mask = dataset.label == 0
    pos = np.flatnonzero(~mask)
    pre = [ev for ev in events if ev.has_precursor]
    if not pos.size or not pre:
        return mask
    # Code each (network, port) pair of the positives; an event on a pair
    # without positives cannot mark any sample and is dropped.
    nets, net_code = np.unique(dataset.network[pos], return_inverse=True)
    ports, port_code = np.unique(dataset.port[pos], return_inverse=True)
    ev_net = np.array([ev.network_id for ev in pre], dtype=object)
    ev_port = np.array([ev.port_id for ev in pre], dtype=object)
    ev_day = START_DATE.toordinal() + np.array([ev.outage_day for ev in pre], dtype=np.int64)
    ev_net_code = np.searchsorted(nets, ev_net).clip(max=nets.size - 1)
    ev_port_code = np.searchsorted(ports, ev_port).clip(max=ports.size - 1)
    known = (nets[ev_net_code] == ev_net) & (ports[ev_port_code] == ev_port)
    # One sorted key per outage: pair code, then day. ``span`` exceeds every
    # day offset plus 14, so a key range never crosses into another pair.
    day = dataset.present_day[pos].astype(np.int64)
    base = min(day.min(), ev_day.min())
    span = max(day.max(), ev_day.max()) - base + 15
    outages = np.sort(
        (ev_net_code * ports.size + ev_port_code)[known] * span + ev_day[known] - base
    )
    key = (net_code * ports.size + port_code) * span + day - base
    # Any outage o of the same pair with day < o <= day + 14.
    after = np.searchsorted(outages, key, side="right")
    within = np.searchsorted(outages, key + 14, side="right")
    mask[pos] = within > after
    return mask
