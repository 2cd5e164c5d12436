"""The windowed-dataset currency shared by models, transfer, and evaluation.

A :class:`WindowDataset` keeps the raw (unnormalized) window tensors plus
sample metadata and split tags. Normalization is applied on the way out so
that a mega-merge can refit statistics without rebuilding windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .container import decoding, read_container, require_keys, text_cells, write_container, write_csv
from .errors import DataError
from .ingest import PortSeries
from .missing import compute_mask, compute_time_gaps, flatten_for_trees, impute_median, impute_zero, train_medians
from .schema import FeatureSchema
# slide_windows, label_window and filter_defective are not called here; they
# stay bound in this module as the per-sample views of the kernels that
# build_dataset calls, where perfbench's tracer looks them up.
from .windows import (
    REASONS,
    NormStats,
    TEST,
    TRAIN,
    VALIDATION,
    chronological_split,
    filter_defective,
    filter_reasons,
    label_window,
    slide_windows,
    stack_windows,
    window_labels,
    zscore_apply,
    zscore_fit,
)


@dataclass(frozen=True)
class Audit:
    """One row per emitted window, kept or dropped, as columns.

    ``port`` holds each window's index into the block's ``network_ids``
    and ``port_ids`` tables; ``present_day`` holds date ordinals;
    ``reason`` holds codes into :data:`~iloscast.windows.REASONS`, 0 for a
    kept window.
    """

    network_ids: np.ndarray
    port_ids: np.ndarray
    port: np.ndarray
    present_day: np.ndarray
    label: np.ndarray
    reason: np.ndarray

    def __len__(self) -> int:
        return self.reason.size

    @property
    def kept(self) -> np.ndarray:
        return self.reason == 0


#: The arrays a saved dataset holds.
_ARRAYS = ("x", "label", "split", "present_day", "network_code", "port_code")


@dataclass
class WindowDataset:
    """Labeled, filtered, split window samples as stacked arrays.

    ``x`` is (N, T, F) raw values; NaN marks absent numeric entries.
    ``split`` holds TRAIN/VALIDATION/TEST tags; ``network``/``port`` are
    metadata only and never appear in ``x``.
    """

    schema: FeatureSchema
    x: np.ndarray
    label: np.ndarray
    network: np.ndarray
    port: np.ndarray
    present_day: np.ndarray  # ordinal day numbers, int64
    split: np.ndarray
    norm: NormStats
    split_bounds: tuple[str, str] = ("", "")
    past_days: int = 7
    future_days: int = 7

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def networks(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.network.tolist())))

    def indices(self, split: int | None = None, network: str | None = None) -> np.ndarray:
        """Indices of samples matching the given split and network."""
        keep = np.ones(self.n, dtype=bool)
        if split is not None:
            keep &= self.split == split
        if network is not None:
            keep &= self.network == network
        return np.flatnonzero(keep)

    def subset(self, idx: np.ndarray) -> "WindowDataset":
        return WindowDataset(
            schema=self.schema,
            x=self.x[idx],
            label=self.label[idx],
            network=self.network[idx],
            port=self.port[idx],
            present_day=self.present_day[idx],
            split=self.split[idx],
            norm=self.norm,
            split_bounds=self.split_bounds,
            past_days=self.past_days,
            future_days=self.future_days,
        )

    def normalized_x(self, idx: np.ndarray | None = None) -> np.ndarray:
        """Z-scored copy of ``x`` (NaN preserved) using the fitted stats."""
        x = self.x if idx is None else self.x[idx]
        return zscore_apply(x, self.norm)

    def tree_rows(
        self, idx: np.ndarray, imputation: str = "none"
    ) -> np.ndarray:
        """Flattened day-major rows for tree models.

        ``imputation``: "none" keeps NaN markers (sparsity-aware booster),
        "zero"/"median" produce dense rows for the forest. Medians come from
        the training split's observed normalized entries only.
        """
        x = self.normalized_x(idx)
        if imputation == "none":
            pass
        elif imputation == "zero":
            x = impute_zero(x)
        elif imputation == "median":
            medians, _ = self.train_medians()
            x = impute_median(x, medians)
        else:
            raise DataError(f"unknown imputation mode {imputation!r}")
        return flatten_for_trees(x)

    def train_medians(self) -> tuple[np.ndarray, list[int]]:
        train_x = self.normalized_x(self.indices(split=TRAIN))
        return train_medians(train_x, self.schema.n_numeric)

    def rits_tensors(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, mask, delta) for the recurrent model: normalized, zero-filled."""
        xn = self.normalized_x(idx)
        mask = compute_mask(xn, self.schema.n_numeric)
        delta = compute_time_gaps(mask)
        x = np.where(mask == 1.0, np.nan_to_num(xn), 0.0)
        return x, mask, delta

    def save(self, path: str | Path) -> None:
        nets, net_codes = np.unique(self.network, return_inverse=True)
        ports, port_codes = np.unique(self.port, return_inverse=True)
        arrays = {
            "x": self.x,
            "label": self.label.astype(np.int8),
            "split": self.split.astype(np.int8),
            "present_day": self.present_day.astype(np.int64),
            "network_code": net_codes.astype(np.int32),
            "port_code": port_codes.astype(np.int32),
        }
        meta = {
            "schema": self.schema.to_dict(),
            "norm": self.norm.to_dict(),
            "networks": nets.tolist(),
            "ports": ports.tolist(),
            "split_bounds": list(self.split_bounds),
            "past_days": self.past_days,
            "future_days": self.future_days,
        }
        write_container(path, arrays, meta)

    @classmethod
    def load(cls, path: str | Path) -> "WindowDataset":
        arrays, meta = read_container(path)
        require_keys(meta, ("schema", "norm", "networks", "ports"), path, "metadata")
        require_keys(arrays, _ARRAYS, path, "array set")
        with decoding(path, "window dataset"):
            nets = np.asarray(meta["networks"], dtype=object)
            ports = np.asarray(meta["ports"], dtype=object)
            # A negative code would index from the end without an error.
            for key, names in (("network_code", nets), ("port_code", ports)):
                if ((arrays[key] < 0) | (arrays[key] >= names.size)).any():
                    raise DataError(f"{path}: {key} holds a code outside [0, {names.size})")
            dataset = cls(
                schema=FeatureSchema.from_dict(meta["schema"]),
                x=arrays["x"],
                label=arrays["label"].astype(np.int8),
                network=nets[arrays["network_code"]],
                port=ports[arrays["port_code"]],
                present_day=arrays["present_day"],
                split=arrays["split"].astype(np.int8),
                norm=NormStats.from_dict(meta["norm"]),
                split_bounds=tuple(meta.get("split_bounds", ("", ""))),
                past_days=int(meta.get("past_days", 7)),
                future_days=int(meta.get("future_days", 7)),
            )
        x, k = dataset.x, dataset.schema.n_numeric
        if x.ndim != 3 or x.shape[1:] != (dataset.past_days, dataset.schema.width):
            raise DataError(f"{path}: x has shape {x.shape}, not (N, past_days, schema width)")
        for name in _ARRAYS[1:]:
            if arrays[name].shape != x.shape[:1]:
                raise DataError(f"{path}: {name} has shape {arrays[name].shape}, not {x.shape[:1]} as x")
        if not np.isin(arrays["split"], (TRAIN, VALIDATION, TEST)).all():
            raise DataError(f"{path}: split holds a tag other than TRAIN, VALIDATION and TEST")
        if not np.isin(arrays["label"], (0, 1)).all():
            raise DataError(f"{path}: label holds a value other than 0 and 1")
        norm = dataset.norm
        if norm.n_numeric != k or norm.mean.shape != (k,) or norm.std.shape != (k,):
            raise DataError(f"{path}: norm does not hold {k} means and stds")
        return dataset


def build_dataset(
    series: PortSeries,
    schema: FeatureSchema,
    past_days: int = 7,
    future_days: int = 7,
) -> tuple[WindowDataset, Audit]:
    """Window a series block, then label, filter, split, and fit
    normalization, each over all windows at once.

    Returns the dataset of kept samples plus an audit row per emitted
    window (kept or dropped).
    """
    windows = stack_windows(series, schema, past_days, future_days)
    label = window_labels(windows.future_uas, windows.future_hccs)
    reason = filter_reasons(windows.x, windows.future_observed, schema)
    audit = Audit(series.network_id, series.port_id, windows.port, windows.present_day, label, reason)

    keep = reason == 0
    if not keep.any():
        raise DataError("no samples survived filtering")

    days = windows.present_day[keep]
    assignment = chronological_split(days)
    x = windows.x[keep]
    norm = zscore_fit(x[assignment.tags == TRAIN], schema.n_numeric)
    dataset = WindowDataset(
        schema=schema,
        x=x,
        label=label[keep],
        network=series.network_id[windows.port[keep]],
        port=series.port_id[windows.port[keep]],
        present_day=days,
        split=assignment.tags,
        norm=norm,
        split_bounds=(assignment.train_end.isoformat(), assignment.val_end.isoformat()),
        past_days=past_days,
        future_days=future_days,
    )
    return dataset, audit


def write_audit_csv(path: str | Path, audit: Audit) -> None:
    """Write one line per window, joined from three tables: a prefix per
    port, a date per day and a tail per (label, reason) pair."""
    net, port = text_cells(audit.network_ids.tolist()), text_cells(audit.port_ids.tolist())
    prefix = [f"{n},{p}," for n, p in zip(net, port)]
    days, day_index = np.unique(audit.present_day, return_inverse=True)
    iso = [f"{date.fromordinal(d).isoformat()}," for d in days.tolist()]
    reasons = text_cells(r or "" for r in REASONS)
    tail = [f"{label},{int(code == 0)},{r}" for label in (0, 1) for code, r in enumerate(reasons)]
    codes = zip(audit.port.tolist(), day_index.tolist(), (audit.label * len(REASONS) + audit.reason).tolist())
    lines = (f"{prefix[p]}{iso[d]}{tail[t]}" for p, d, t in codes)
    write_csv(path, ["network_id", "port_id", "present_day", "label", "kept", "reason"], lines)
