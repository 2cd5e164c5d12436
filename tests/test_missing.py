from __future__ import annotations

import itertools

import numpy as np
import pytest

from iloscast.errors import DataError
from iloscast.missing import (
    compute_mask,
    compute_time_gaps,
    flatten_for_trees,
    impute_median,
    impute_zero,
    train_medians,
)


def test_mask_fully_observed_row():
    x = np.ones((7, 3))
    np.testing.assert_array_equal(compute_mask(x), np.ones((7, 3)))


def test_mask_fully_absent_row_except_onehot():
    x = np.full((7, 4), np.nan)
    x[:, 3] = 1.0  # one-hot column
    mask = compute_mask(x, n_numeric=3)
    np.testing.assert_array_equal(mask[:, :3], np.zeros((7, 3)))
    np.testing.assert_array_equal(mask[:, 3], np.ones(7))


def test_mask_mixed_row():
    x = np.array([[1.0, np.nan, 2.0]])
    np.testing.assert_array_equal(compute_mask(x), [[1.0, 0.0, 1.0]])


def test_onehot_column_mask_forced_even_if_nan():
    x = np.full((2, 2), np.nan)
    mask = compute_mask(x, n_numeric=1)
    np.testing.assert_array_equal(mask, [[0.0, 1.0], [0.0, 1.0]])


def delta_column(mask_col: list[int]) -> list[int]:
    m = np.asarray(mask_col, dtype=np.float64).reshape(-1, 1)
    return compute_time_gaps(m)[:, 0].astype(int).tolist()


def test_delta_all_observed():
    assert delta_column([1, 1, 1, 1, 1, 1, 1]) == [0, 1, 1, 1, 1, 1, 1]


def test_delta_hand_derived_mixed():
    assert delta_column([1, 1, 0, 1, 0, 0, 1]) == [0, 1, 1, 2, 1, 2, 3]


def test_delta_never_observed():
    assert delta_column([0, 0, 0, 0, 0, 0, 0]) == [0, 1, 2, 3, 4, 5, 6]


def closed_form_gaps(mask_col: tuple[int, ...]) -> list[int]:
    """Distance to the most recent prior observed day, capped by the
    window start: the independent oracle for the recurrence."""
    out = []
    for t in range(len(mask_col)):
        if t == 0:
            out.append(0)
            continue
        gap = None
        for back in range(t - 1, -1, -1):
            if mask_col[back] == 1:
                gap = t - back
                break
        out.append(gap if gap is not None else t)
    return out


def test_delta_recurrence_equals_closed_form_all_128_columns():
    for bits in itertools.product((0, 1), repeat=7):
        assert delta_column(list(bits)) == closed_form_gaps(bits), bits


def test_delta_batched_matches_per_sample():
    rng = np.random.default_rng(0)
    masks = (rng.random((5, 7, 3)) > 0.5).astype(np.float64)
    batched = compute_time_gaps(masks)
    for i in range(5):
        np.testing.assert_array_equal(batched[i], compute_time_gaps(masks[i]))


def test_delta_rejects_bad_rank():
    with pytest.raises(DataError):
        compute_time_gaps(np.ones(7))


def test_impute_zero():
    x = np.array([[np.nan, 3.2], [1.0, np.nan]])
    np.testing.assert_array_equal(impute_zero(x), [[0.0, 3.2], [1.0, 0.0]])


def test_impute_median_uses_train_value():
    medians = np.array([7.5, 0.0])
    x = np.array([[np.nan, 3.2]])
    np.testing.assert_array_equal(impute_median(x, medians), [[7.5, 3.2]])


def test_impute_preserves_observed():
    x = np.array([[3.2, np.nan]])
    assert impute_zero(x)[0, 0] == 3.2
    assert impute_median(x, np.array([9.0, 9.0]))[0, 0] == 3.2


def test_impute_idempotent_on_dense():
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    np.testing.assert_array_equal(impute_zero(x), x)
    np.testing.assert_array_equal(impute_median(x, np.array([5.0, 5.0, 5.0])), x)


def test_train_medians_even_count_and_fallback():
    train = np.array(
        [[[1.0, np.nan], [3.0, np.nan]], [[2.0, np.nan], [4.0, np.nan]]]
    )  # (2 samples, 2 days, 2 features)
    medians, fallback = train_medians(train, n_numeric=2)
    assert medians[0] == 2.5  # mean of the two central order statistics
    assert medians[1] == 0.0
    assert fallback == [1]


def test_flatten_day_major_index():
    x = np.arange(21, dtype=np.float64).reshape(7, 3)
    row = flatten_for_trees(x)
    for t in range(7):
        for d in range(3):
            assert row[3 * t + d] == x[t, d]


def test_flatten_preserves_absent_markers():
    x = np.array([[1.0, np.nan], [np.nan, 2.0]])
    row = flatten_for_trees(x)
    assert np.isnan(row[1]) and np.isnan(row[2])


def test_mask_x_consistency_random():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 6))
    x[rng.random((7, 6)) < 0.4] = np.nan
    mask = compute_mask(x)
    np.testing.assert_array_equal(mask == 0.0, np.isnan(x))
