"""Missing-data primitives: masks, time gaps, baseline imputation, flattening.

All operations work on the 7xF window matrices where the first
``n_numeric`` columns are NaN-coded numeric features and the remaining
columns are facility one-hot flags (always present by construction).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def compute_mask(x: np.ndarray, n_numeric: int | None = None) -> np.ndarray:
    """Presence indicator: 1.0 where an entry is observed, 0.0 where absent.

    One-hot columns (those past ``n_numeric``) are forced to 1. With the
    default ``n_numeric=None`` every column is treated as numeric.
    """
    mask = (~np.isnan(x)).astype(np.float64)
    if n_numeric is not None:
        mask[..., n_numeric:] = 1.0
    return mask


def compute_time_gaps(mask: np.ndarray) -> np.ndarray:
    """Days since each feature was last observed, per the mask recurrence.

    Row 0 is all zeros; for t >= 1 the gap is 1 if the previous row was
    observed, else 1 plus the previous gap. Works on (T, F) and (N, T, F).
    """
    if mask.ndim not in (2, 3):
        raise DataError(f"mask must be 2-D or 3-D, got shape {mask.shape}")
    t_axis = mask.ndim - 2
    steps = mask.shape[t_axis]
    delta = np.zeros_like(mask, dtype=np.float64)
    for t in range(1, steps):
        prev_mask = mask[..., t - 1, :]
        prev_delta = delta[..., t - 1, :]
        delta[..., t, :] = np.where(prev_mask == 1.0, 1.0, 1.0 + prev_delta)
    return delta


def impute_zero(x: np.ndarray) -> np.ndarray:
    """Replace absent entries with 0.0; observed entries are untouched."""
    return np.where(np.isnan(x), 0.0, x)


def train_medians(
    train_x: np.ndarray, n_numeric: int
) -> tuple[np.ndarray, list[int]]:
    """Per-feature medians of observed training entries.

    ``train_x`` is (N, T, F). Features with no training observation fall
    back to 0 and their column indices are returned for the record.
    """
    medians = np.zeros(train_x.shape[-1], dtype=np.float64)
    fallback: list[int] = []
    flat = train_x.reshape(-1, train_x.shape[-1])
    for col in range(n_numeric):
        vals = flat[:, col]
        vals = vals[~np.isnan(vals)]
        if vals.size == 0:
            fallback.append(col)
        else:
            medians[col] = np.median(vals)
    return medians, fallback


def impute_median(x: np.ndarray, medians: np.ndarray) -> np.ndarray:
    """Replace absent entries with the per-feature training median."""
    if medians.shape[0] != x.shape[-1]:
        raise DataError(
            f"median vector of length {medians.shape[0]} does not match {x.shape[-1]} columns"
        )
    return np.where(np.isnan(x), medians, x)


def flatten_for_trees(x: np.ndarray) -> np.ndarray:
    """Expand (T, F) or (N, T, F) windows into day-major rows of length T*F.

    Cell (t, d) lands at index t*F + d. NaN markers pass through, so the
    sparse view for the sparsity-aware booster is the same call on
    un-imputed input.
    """
    if x.ndim == 2:
        return x.reshape(-1)
    if x.ndim == 3:
        return x.reshape(x.shape[0], -1)
    raise DataError(f"expected 2-D or 3-D window input, got shape {x.shape}")

