"""Turn port series into labeled, filtered, split, normalized window samples.

A sample spans 14 consecutive days: the first seven (past six plus the
present day) form the model input ``x``; the last seven are kept only as
label sources and audit metadata, never as model input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from .errors import ConfigError, SplitError
from .ingest import PortSeries
from .schema import FeatureSchema

#: Filter reason codes, in the order the predicates are evaluated.
REASON_EMPTY_PAST = "empty_past"
REASON_EMPTY_FUTURE = "empty_future"
REASON_NO_TRAFFIC = "no_traffic"
REASON_LOS_TODAY = "los_today"
#: Reason of each code that :func:`filter_reasons` returns; 0 keeps.
REASONS = (None, REASON_EMPTY_PAST, REASON_EMPTY_FUTURE, REASON_NO_TRAFFIC, REASON_LOS_TODAY)

TRAIN, VALIDATION, TEST = 0, 1, 2
#: Target shares of the training and validation splits; the test split
#: takes the rest (70/10/20).
TRAIN_FRACTION = 0.7
VALIDATION_FRACTION = 0.1


@dataclass(frozen=True, eq=False)
class WindowSample:
    """One sliding-window sample.

    ``x`` is (past_days, F) with NaN-coded numeric columns followed by
    always-present one-hot columns. ``future_uas``/``future_hccs`` carry the
    raw label-source values of the future days; ``future_observed_any``
    records whether any numeric entry of those days was observed at all,
    which the defect filter needs after the full future rows are gone.
    """

    network_id: str
    port_id: str
    present_day: date
    x: np.ndarray
    future_uas: np.ndarray
    future_hccs: np.ndarray
    future_observed_any: bool
    label: int | None = None


@dataclass(frozen=True)
class FilterDecision:
    keep: bool
    reason: str | None = None


@dataclass(frozen=True)
class SplitAssignment:
    """Per-sample split tags plus the day boundaries that induce them."""

    tags: np.ndarray  # int8, TRAIN/VALIDATION/TEST
    train_end: date  # last day (inclusive) in the training split
    val_end: date  # last day (inclusive) in the validation split


@dataclass
class NormStats:
    """Train-split z-score statistics for the numeric columns."""

    mean: np.ndarray
    std: np.ndarray
    n_numeric: int
    unobserved: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "n_numeric": self.n_numeric,
            "unobserved": list(self.unobserved),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(
            mean=np.asarray(d["mean"], dtype=np.float64),
            std=np.asarray(d["std"], dtype=np.float64),
            n_numeric=int(d["n_numeric"]),
            unobserved=tuple(d.get("unobserved", ())),
        )


@dataclass(frozen=True)
class WindowBatch:
    """Every fully contained window of a series block, as stacked arrays.

    Windows are ordered by port, then by start day. ``x`` is
    (W, past_days, F); ``future_uas``/``future_hccs`` are (W, future_days);
    ``future_observed`` is whether any numeric entry of the future days was
    observed; ``present_day`` holds date ordinals and ``port`` the index of
    each window's port in the block.
    """

    x: np.ndarray
    future_uas: np.ndarray
    future_hccs: np.ndarray
    future_observed: np.ndarray
    present_day: np.ndarray
    port: np.ndarray


def stack_windows(
    series: PortSeries,
    schema: FeatureSchema,
    past_days: int = 7,
    future_days: int = 7,
) -> WindowBatch:
    """Slide a (past + future)-day window over gap-free series, stride 1.

    Only fully contained windows are emitted; a port with fewer days than
    the window yields none. The present day is the last past row. All ports
    are windowed at once over the block's stacked rows.
    """
    for name, days in (("past_days", past_days), ("future_days", future_days)):
        if days < 1:
            raise ConfigError(f"{name} must be at least 1, got {days}")
    span = past_days + future_days
    k = schema.n_numeric
    counts = np.maximum(series.n_days - span + 1, 0)
    port = np.repeat(np.arange(len(series)), counts)
    local_start = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    # (W, span, k): the rows of each window, gathered from the block.
    first_row = (np.cumsum(series.n_days) - series.n_days)[port] + local_start
    windows = series.values[first_row[:, None] + np.arange(span)]
    x = np.empty((port.size, past_days, schema.width), dtype=np.float64)
    x[:, :, :k] = windows[:, :past_days]
    x[:, :, k:] = series.onehot[port][:, None, :]
    future = windows[:, past_days:]
    return WindowBatch(
        x=x,
        future_uas=future[:, :, schema.uas_index],
        future_hccs=future[:, :, schema.hccs_index],
        future_observed=~np.isnan(future).all(axis=(1, 2)),
        present_day=series.start_day[port] + local_start + past_days - 1,
        port=port,
    )


def window_labels(future_uas: np.ndarray, future_hccs: np.ndarray) -> np.ndarray:
    """Label 1 iff any future day has UAS > 0 or HCCS > 0 (absent = no).

    Takes (W, future_days) label sources and returns (W,) int8.
    """
    positive = (future_uas > 0) | (future_hccs > 0)
    return positive.any(axis=1).astype(np.int8)


def filter_reasons(
    x: np.ndarray, future_observed: np.ndarray, schema: FeatureSchema
) -> np.ndarray:
    """Keep/drop code of each labeled window: 0 keeps, else an index of
    :data:`REASONS`.

    Drop conditions, reported in this order: all numeric entries of the
    past days absent; all entries of the future days absent; no protocol
    indicator present-and-positive on the present day; LOS already in
    progress on the present day. The emptiness reasons come first since an
    all-absent input trivially also fails the traffic check. Absent entries
    compare as not positive.
    """
    present = x[:, -1]
    empty_past = np.isnan(x[:, :, : schema.n_numeric]).all(axis=(1, 2))
    carrying = (present[:, list(schema.indicator_indices)] > 0).any(axis=1)
    los_today = (present[:, schema.uas_index] > 0) | (present[:, schema.hccs_index] > 0)
    conditions = [empty_past, ~future_observed, ~carrying, los_today]
    return np.select(conditions, [1, 2, 3, 4], 0).astype(np.int8)


def slide_windows(
    series: PortSeries,
    schema: FeatureSchema,
    past_days: int = 7,
    future_days: int = 7,
) -> list[WindowSample]:
    """The windows of a series block as samples: a view of :func:`stack_windows`."""
    batch = stack_windows(series, schema, past_days, future_days)
    return [
        WindowSample(
            network_id=series.network_id[p],
            port_id=series.port_id[p],
            present_day=date.fromordinal(day),
            x=batch.x[i],
            future_uas=batch.future_uas[i],
            future_hccs=batch.future_hccs[i],
            future_observed_any=bool(batch.future_observed[i]),
        )
        for i, (p, day) in enumerate(zip(batch.port.tolist(), batch.present_day.tolist()))
    ]


def label_window(sample: WindowSample) -> WindowSample:
    """The sample labeled by :func:`window_labels`."""
    label = window_labels(sample.future_uas[None], sample.future_hccs[None])[0]
    return replace(sample, label=int(label))


def filter_defective(sample: WindowSample, schema: FeatureSchema) -> FilterDecision:
    """Keep/drop decision for a labeled sample by :func:`filter_reasons`,
    with the reason code on drop."""
    code = int(filter_reasons(sample.x[None], np.array([sample.future_observed_any]), schema)[0])
    return FilterDecision(code == 0, REASONS[code])


def chronological_split(present_days: np.ndarray) -> SplitAssignment:
    """Assign train/validation/test tags by snapping 70/10/20 to day edges.

    ``present_days`` holds each sample's present day as a date ordinal.
    All samples sharing a present day land in the same split. Boundaries
    are the day prefixes whose cumulative counts best approximate the
    target fractions, constrained so every split is non-empty.
    """
    days = np.asarray(present_days, dtype=np.int64)
    n = days.size
    if n < 10:
        raise SplitError(f"cannot split {n} samples; need at least 10")

    unique_days, counts = np.unique(days, return_counts=True)
    if unique_days.size < 3:
        raise SplitError(
            f"cannot split across {unique_days.size} distinct day(s); need at least 3"
        )
    cum = np.cumsum(counts)

    # Boundary i means "this split ends after unique_days[i]". Leave room
    # for one day of validation and one of test.
    last = unique_days.size - 1
    i1_candidates = np.arange(0, last - 1)
    i1 = int(i1_candidates[np.argmin(np.abs(cum[i1_candidates] - TRAIN_FRACTION * n))])
    i2_candidates = np.arange(i1 + 1, last)
    i2 = int(
        i2_candidates[
            np.argmin(np.abs(cum[i2_candidates] - (TRAIN_FRACTION + VALIDATION_FRACTION) * n))
        ]
    )

    tags = np.full(n, TEST, dtype=np.int8)
    tags[days <= unique_days[i2]] = VALIDATION
    tags[days <= unique_days[i1]] = TRAIN
    return SplitAssignment(
        tags=tags,
        train_end=date.fromordinal(int(unique_days[i1])),
        val_end=date.fromordinal(int(unique_days[i2])),
    )


def zscore_fit(train_x: np.ndarray, n_numeric: int) -> NormStats:
    """Fit per-feature mean/std on the observed training entries only.

    ``train_x`` is (N, T, F). Constant or never-observed features get
    std 0; the latter are recorded in ``unobserved``.
    """
    flat = train_x.reshape(-1, train_x.shape[-1])[:, :n_numeric]
    mean = np.zeros(n_numeric, dtype=np.float64)
    std = np.zeros(n_numeric, dtype=np.float64)
    unobserved = []
    for col in range(n_numeric):
        vals = flat[:, col]
        vals = vals[~np.isnan(vals)]
        if vals.size == 0:
            unobserved.append(col)
            continue
        mean[col] = vals.mean()
        s = vals.std()
        # Snap numerically-constant features to the zero-std rule instead of
        # dividing by float noise.
        std[col] = s if s > 1e-12 * max(1.0, abs(mean[col])) else 0.0
    return NormStats(mean=mean, std=std, n_numeric=n_numeric, unobserved=tuple(unobserved))


def zscore_apply(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Z-score numeric columns with train statistics.

    Absent entries stay absent, one-hot columns pass through, and observed
    entries of zero-std features map to 0.
    """
    out = x.astype(np.float64, copy=True)
    k = stats.n_numeric
    numeric = out[..., :k]
    safe_std = np.where(stats.std > 0, stats.std, 1.0)
    scaled = (numeric - stats.mean) / safe_std
    scaled = np.where(stats.std > 0, scaled, 0.0)
    out[..., :k] = np.where(np.isnan(numeric), np.nan, scaled)
    return out
