"""Cross-network knowledge sharing: feature-union mega-dataset and the two
fine-tuning strategies for the recurrent model.

Tree models only ever pre-train; the recurrent model can afterwards be
fine-tuned per network, either touching the classifier head alone (the
imputer stays bit-identical, and one forward pass stands in for its
backprop) or every parameter block.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from .dataset import WindowDataset
from .errors import DataError
from .rits import (
    BritsModel,
    RitsData,
    TrainSchedule,
    train_brits,
    train_classifier_head,
)
from .schema import FeatureSchema
from .windows import TRAIN, VALIDATION, zscore_fit

FINETUNE_LR = 5e-4


def union_schema(schemas: list[FeatureSchema]) -> FeatureSchema:
    numeric = sorted(set().union(*(s.numeric_features for s in schemas)))
    onehot = sorted(set().union(*(s.onehot_features for s in schemas)))
    indicators = sorted(set().union(*(s.protocol_indicators for s in schemas)))
    return FeatureSchema(
        numeric_features=tuple(numeric),
        onehot_features=tuple(onehot),
        protocol_indicators=tuple(indicators),
    )


def project_x(
    x: np.ndarray, source: FeatureSchema, target: FeatureSchema
) -> np.ndarray:
    """Re-lay source columns into the target schema's positions.

    Numeric columns the source lacks become absent (NaN); one-hot columns
    it lacks become present zeros.
    """
    out = np.full(x.shape[:-1] + (target.width,), np.nan, dtype=np.float64)
    out[..., target.n_numeric :] = 0.0
    for j, name in enumerate(source.numeric_features):
        out[..., target.numeric_index(name)] = x[..., j]
    for j, name in enumerate(source.onehot_features):
        out[..., target.onehot_index(name)] = x[..., source.n_numeric + j]
    return out


def build_mega_dataset(datasets: list[WindowDataset]) -> WindowDataset:
    """Merge per-network datasets on the union schema.

    Samples keep their split tags and network/port metadata; normalization
    is refit on the merged training split. Datasets are ordered by network
    id so the merge is deterministic regardless of call order.
    """
    if len(datasets) < 2:
        raise DataError("mega-dataset needs at least two source datasets")
    seen: set[str] = set()
    for ds in datasets:
        nets = set(ds.networks)
        if nets & seen:
            raise DataError(f"duplicate network ids across datasets: {sorted(nets & seen)}")
        seen |= nets
    datasets = sorted(datasets, key=lambda d: d.networks)

    target = union_schema([d.schema for d in datasets])
    x = np.concatenate([project_x(d.x, d.schema, target) for d in datasets])
    label = np.concatenate([d.label for d in datasets])
    network = np.concatenate([d.network for d in datasets])
    port = np.concatenate([d.port for d in datasets])
    present_day = np.concatenate([d.present_day for d in datasets])
    split = np.concatenate([d.split for d in datasets])

    norm = zscore_fit(x[split == TRAIN], target.n_numeric)
    past = {d.past_days for d in datasets}
    future = {d.future_days for d in datasets}
    if len(past) != 1 or len(future) != 1:
        raise DataError("datasets disagree on window geometry")
    return WindowDataset(
        schema=target,
        x=x,
        label=label,
        network=network,
        port=port,
        present_day=present_day,
        split=split,
        norm=norm,
        split_bounds=("", ""),
        past_days=past.pop(),
        future_days=future.pop(),
    )


def rits_data(dataset: WindowDataset, idx: np.ndarray) -> RitsData:
    """Model-ready tensors for a slice of a dataset."""
    x, mask, delta = dataset.rits_tensors(idx)
    return RitsData(x=x, mask=mask, delta=delta, label=dataset.label[idx].astype(np.float64))


def _network_slices(
    mega: WindowDataset, network: str
) -> tuple[RitsData, RitsData]:
    train_idx = mega.indices(split=TRAIN, network=network)
    val_idx = mega.indices(split=VALIDATION, network=network)
    if train_idx.size == 0 or val_idx.size == 0:
        raise DataError(f"network {network!r} has an empty train or validation subset")
    return rits_data(mega, train_idx), rits_data(mega, val_idx)


def _finetune(
    pretrained: BritsModel,
    mega: WindowDataset,
    network: str,
    schedule: TrainSchedule | None,
    fit: Callable[..., tuple[BritsModel, list[dict]]],
) -> tuple[BritsModel, list[dict]]:
    train, val = _network_slices(mega, network)
    sched = replace(
        schedule or TrainSchedule(),
        learning_rate=FINETUNE_LR,
        max_epochs_phase1=0,  # fine-tuning continues on the full objective
    )
    return fit(pretrained, train, val, sched)


def finetune_classifier_only(
    pretrained: BritsModel,
    mega: WindowDataset,
    network: str,
    schedule: TrainSchedule | None = None,
) -> tuple[BritsModel, list[dict]]:
    """Retrain only the classifier head on one network's samples, over one
    frozen forward pass (``rits.train_classifier_head``).

    Every imputer block of the returned model is bit-identical to the
    pretrained snapshot; the learning rate is halved to 5e-4.
    """
    return _finetune(pretrained, mega, network, schedule, train_classifier_head)


def finetune_entirety(
    pretrained: BritsModel,
    mega: WindowDataset,
    network: str,
    schedule: TrainSchedule | None = None,
) -> tuple[BritsModel, list[dict]]:
    """Fine-tune every parameter block on one network's samples at 5e-4."""
    return _finetune(pretrained, mega, network, schedule, train_brits)
