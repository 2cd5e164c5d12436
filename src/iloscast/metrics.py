"""Precision/recall machinery and the truncated PR-AUC score.

The headline score D is the area under the precision-recall step curve
restricted to recall <= 0.1, so a perfect classifier scores exactly 0.1.
Samples sharing a score enter the sweep together, which keeps the curve
and D independent of input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import write_csv
from .errors import DataError

RECALL_CAP = 0.1


@dataclass(frozen=True)
class PrCurve:
    """PR sweep over distinct thresholds, descending, ties grouped."""

    thresholds: np.ndarray
    precisions: np.ndarray
    recalls: np.ndarray
    n_pos: int
    n_total: int


def pr_curve(scores: np.ndarray, labels: np.ndarray) -> PrCurve:
    """Exact PR curve with one point per distinct score.

    Requires binary labels with at least one positive and finite scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be equal-length 1-D arrays")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be 0/1")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DataError("PR curve undefined without positive samples")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order].astype(np.int64)
    tp = np.cumsum(sorted_labels)
    ranks = np.arange(1, scores.size + 1)

    # Last index of each tie group = positions where the score changes.
    boundary = np.flatnonzero(np.diff(sorted_scores) != 0)
    group_end = np.concatenate([boundary, [scores.size - 1]])

    thresholds = sorted_scores[group_end]
    tp_g = tp[group_end].astype(np.float64)
    predicted = ranks[group_end].astype(np.float64)
    precisions = tp_g / predicted
    recalls = tp_g / n_pos
    return PrCurve(
        thresholds=thresholds,
        precisions=precisions,
        recalls=recalls,
        n_pos=n_pos,
        n_total=int(scores.size),
    )


def pr_auc_truncated(curve: PrCurve, recall_cap: float = RECALL_CAP) -> float:
    """Area of the precision(recall) step function from 0 to ``recall_cap``.

    Each recall increment takes the precision of the sweep point achieving
    it; the segment crossing the cap counts pro-rata. The anchor at recall 0
    is implicit: the first recall-raising point covers [0, r_1].
    """
    area = 0.0
    r_prev = 0.0
    for p, r in zip(curve.precisions, curve.recalls):
        if r <= r_prev:
            continue
        r_hi = min(r, recall_cap)
        if r_hi > r_prev:
            area += (r_hi - r_prev) * p
            r_prev = r_hi
        if r_prev >= recall_cap:
            break
    return float(area)


def weighted_average(scores: list[float], sizes: list[int]) -> float:
    """Test-size-weighted mean of per-network scores."""
    if not scores or len(scores) != len(sizes):
        raise DataError("need equal, non-empty score and size lists")
    if any(s <= 0 for s in sizes):
        raise DataError("sizes must be positive")
    total = float(sum(sizes))
    return float(sum(d * n for d, n in zip(scores, sizes)) / total)


def write_curve_csv(path: str | Path, curve: PrCurve) -> None:
    columns = (curve.thresholds.tolist(), curve.precisions.tolist(), curve.recalls.tolist())
    write_csv(path, ["threshold", "precision", "recall"], (f"{t!r},{p!r},{r!r}" for t, p, r in zip(*columns)))
