from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iloscast.errors import DataError
from iloscast.metrics import (
    pr_auc_truncated,
    pr_curve,
    weighted_average,
    write_curve_csv,
)


def brute_force_curve(scores, labels):
    """Independent per-threshold recount."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    points = []
    for thr in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= thr
        tp = int((predicted & (labels == 1)).sum())
        fp = int((predicted & (labels == 0)).sum())
        points.append((thr, tp / (tp + fp), tp / int(labels.sum())))
    return points


def precision_at_recall(scores, labels, r):
    """Step-function lookup via brute-force counting: the precision of the
    first sweep point achieving recall >= r."""
    for _, p, rec in brute_force_curve(scores, labels):
        if rec >= r:
            return p
    return 0.0


def oracle_truncated_area(scores, labels, cap=0.1):
    """Numeric integration of precision(recall) on a grid aligned to every
    achieved-recall breakpoint, exact for a step function."""
    recalls = sorted({rec for _, _, rec in brute_force_curve(scores, labels)})
    grid = sorted({0.0, cap} | {r for r in recalls if r < cap})
    area = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        mid = 0.5 * (lo + hi)
        area += (hi - lo) * precision_at_recall(scores, labels, mid)
    return area


def test_perfect_separation_point():
    curve = pr_curve(np.array([0.9, 0.1]), np.array([1, 0]))
    assert curve.thresholds[0] == 0.9
    assert curve.precisions[0] == 1.0
    assert curve.recalls[0] == 1.0


def test_tied_scores_grouped():
    curve = pr_curve(np.array([0.9, 0.9]), np.array([1, 0]))
    assert curve.thresholds.shape == (1,)
    assert curve.precisions[0] == 0.5
    assert curve.recalls[0] == 1.0


def test_curve_matches_bruteforce_recount():
    rng = np.random.default_rng(5)
    scores = np.round(rng.random(50), 2)  # force ties
    labels = (rng.random(50) < 0.3).astype(int)
    labels[0] = 1
    curve = pr_curve(scores, labels)
    expected = brute_force_curve(scores, labels)
    assert len(expected) == curve.thresholds.size
    for (thr, p, r), i in zip(expected, range(curve.thresholds.size)):
        assert curve.thresholds[i] == thr
        assert curve.precisions[i] == pytest.approx(p, abs=1e-15)
        assert curve.recalls[i] == pytest.approx(r, abs=1e-15)


def test_curve_requires_positive():
    with pytest.raises(DataError, match="positive"):
        pr_curve(np.array([0.1, 0.2]), np.array([0, 0]))


def test_curve_rejects_nonfinite():
    with pytest.raises(DataError, match="finite"):
        pr_curve(np.array([np.inf, 0.2]), np.array([1, 0]))


def test_recall_reaches_one_and_is_monotone():
    rng = np.random.default_rng(6)
    scores = rng.random(80)
    labels = (rng.random(80) < 0.4).astype(int)
    labels[3] = 1
    curve = pr_curve(scores, labels)
    assert curve.recalls[-1] == 1.0
    assert np.all(np.diff(curve.recalls) >= 0)


def test_perfect_classifier_scores_full_cap():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    d = pr_auc_truncated(pr_curve(scores, labels))
    assert type(d) is float
    assert d == pytest.approx(0.1, abs=0)


def test_constant_half_precision_rectangle():
    # each tie group holds one positive and one negative, so every sweep
    # point has precision exactly 0.5: a 0.5 x 0.1 rectangle
    scores = np.repeat(np.arange(50, 0, -1, dtype=float), 2)
    labels = np.tile([1, 0], 50)
    d = pr_auc_truncated(pr_curve(scores, labels))
    assert d == pytest.approx(0.05, abs=0)


def test_truncated_area_matches_integration_oracle():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(5, 60))
        scores = np.round(rng.random(n), 2)
        labels = (rng.random(n) < rng.uniform(0.1, 0.6)).astype(int)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        d = pr_auc_truncated(pr_curve(scores, labels))
        assert d == pytest.approx(oracle_truncated_area(scores, labels), abs=1e-12)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(8)
    scores = rng.random(60)
    labels = (rng.random(60) < 0.3).astype(int)
    labels[0] = 1
    base = pr_auc_truncated(pr_curve(scores, labels))
    for transform in (lambda s: 3 * s + 2, np.exp, lambda s: s**3 + s):
        assert pr_auc_truncated(pr_curve(transform(scores), labels)) == base


@given(
    n=st.integers(10, 80),
    seed=st.integers(0, 10_000),
    cap_a=st.floats(0.01, 0.5),
    cap_b=st.floats(0.01, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_truncation_monotonicity_and_bounds(n, seed, cap_a, cap_b):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    labels = (rng.random(n) < 0.4).astype(int)
    labels[0] = 1
    curve = pr_curve(scores, labels)
    lo, hi = sorted((cap_a, cap_b))
    d_lo = pr_auc_truncated(curve, lo)
    d_hi = pr_auc_truncated(curve, hi)
    assert d_lo <= d_hi + 1e-15
    assert 0.0 <= d_lo <= lo + 1e-15
    assert 0.0 <= d_hi <= hi + 1e-15


def test_order_invariance():
    rng = np.random.default_rng(9)
    scores = np.round(rng.random(40), 1)
    labels = (rng.random(40) < 0.4).astype(int)
    labels[0] = 1
    d1 = pr_auc_truncated(pr_curve(scores, labels))
    perm = rng.permutation(40)
    d2 = pr_auc_truncated(pr_curve(scores[perm], labels[perm]))
    assert d1 == d2


def test_weighted_average_examples():
    assert weighted_average([0.02, 0.04], [100, 300]) == pytest.approx(0.035)
    assert weighted_average([0.02, 0.04], [7, 7]) == pytest.approx(0.03)
    assert weighted_average([0.042], [55]) == pytest.approx(0.042)


def test_weighted_average_errors():
    with pytest.raises(DataError):
        weighted_average([], [])
    with pytest.raises(DataError):
        weighted_average([0.1], [0])


def test_curve_csv(tmp_path):
    curve = pr_curve(np.array([0.9, 0.5, 0.1]), np.array([1, 0, 1]))
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "threshold,precision,recall"
    assert len(lines) == 1 + curve.thresholds.size
