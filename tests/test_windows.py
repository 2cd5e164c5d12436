from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iloscast.errors import SplitError
from iloscast.windows import (
    REASON_EMPTY_FUTURE,
    REASON_EMPTY_PAST,
    REASON_LOS_TODAY,
    REASON_NO_TRAFFIC,
    TEST,
    TRAIN,
    VALIDATION,
    chronological_split,
    filter_defective,
    label_window,
    slide_windows,
    zscore_apply,
    zscore_fit,
)

from conftest import healthy_fill, make_series, start_date


def observed_series(schema, n_days, **kwargs):
    fill = healthy_fill(schema, n_days)
    fill.update(kwargs)
    return make_series(schema, n_days, fill=fill)


def test_exactly_one_window_for_14_days(schema):
    assert len(slide_windows(observed_series(schema, 14), schema)) == 1


def test_seven_windows_for_20_days(schema):
    assert len(slide_windows(observed_series(schema, 20), schema)) == 7


def test_no_windows_for_13_days(schema):
    assert slide_windows(observed_series(schema, 13), schema) == []


def test_present_day_is_seventh_row(schema):
    series = observed_series(schema, 14)
    (w,) = slide_windows(series, schema)
    assert w.present_day == start_date(series) + timedelta(days=6)
    assert w.x.shape == (7, schema.width)
    # one-hot columns ride along every row
    np.testing.assert_array_equal(w.x[:, schema.n_numeric :], np.tile(series.onehot, (7, 1)))


def test_future_meta_has_seven_rows_and_no_leak_into_x(schema):
    series = observed_series(schema, 14, UAS=[None] * 10 + [5.0] + [None] * 3)
    (w,) = slide_windows(series, schema)
    assert w.future_uas.shape == (7,)
    assert w.future_hccs.shape == (7,)
    # the UAS hit on day 11 (index 10) is in the future part, not in x
    assert np.isnan(w.x[:, schema.uas_index]).all()
    assert w.future_uas[3] == 5.0


def label_of(schema, uas=None, hccs=None):
    n = 14
    series = observed_series(
        schema,
        n,
        UAS=uas or [None] * n,
        HCCS=hccs or [None] * n,
    )
    (w,) = slide_windows(series, schema)
    return label_window(w).label


def test_label_all_clear(schema):
    assert label_of(schema, uas=[0.0] * 14, hccs=[None] * 14) == 0


def test_label_future_uas(schema):
    uas = [None] * 9 + [5.0] + [None] * 4  # future day +3
    assert label_of(schema, uas=uas) == 1


def test_label_future_hccs_last_day(schema):
    hccs = [None] * 13 + [1.0]  # future day +7
    assert label_of(schema, hccs=hccs) == 1


def test_label_absent_counts_as_clear(schema):
    assert label_of(schema) == 0


def labeled_window(schema, **kwargs):
    series = observed_series(schema, 14, **kwargs)
    (w,) = slide_windows(series, schema)
    return label_window(w)


def test_filter_keeps_healthy_sample(schema):
    w = labeled_window(schema, UAS=[0.0] * 7 + [None] * 7)
    decision = filter_defective(w, schema)
    assert decision.keep and decision.reason is None


def test_filter_no_traffic(schema):
    traffic = [1.0] * 6 + [0.0] + [1.0] * 7
    w = labeled_window(schema, TRAFFIC=traffic)
    assert filter_defective(w, schema).reason == REASON_NO_TRAFFIC


def test_filter_absent_indicator_is_no_traffic(schema):
    traffic = [1.0] * 6 + [None] + [1.0] * 7
    w = labeled_window(schema, TRAFFIC=traffic)
    assert filter_defective(w, schema).reason == REASON_NO_TRAFFIC


def test_filter_los_today(schema):
    hccs = [None] * 6 + [2.0] + [None] * 7
    w = labeled_window(schema, HCCS=hccs)
    assert filter_defective(w, schema).reason == REASON_LOS_TODAY


def test_filter_empty_past(schema):
    series = make_series(schema, 14, fill={"QAVG": [None] * 7 + [1.0] * 7})
    (w,) = slide_windows(series, schema)
    w = label_window(w)
    assert filter_defective(w, schema).reason == REASON_EMPTY_PAST


def test_filter_empty_future(schema):
    fill = healthy_fill(schema, 14)
    fill = {k: v[:7] + [None] * 7 for k, v in fill.items()}
    series = make_series(schema, 14, fill=fill)
    (w,) = slide_windows(series, schema)
    w = label_window(w)
    assert filter_defective(w, schema).reason == REASON_EMPTY_FUTURE


def test_filter_reason_priority_no_traffic_first(schema):
    # present day both traffic-free and in LOS: no_traffic is reported
    fill = {"UAS": [None] * 6 + [3.0] + [5.0] * 7, "QAVG": [1.0] * 14}
    series = make_series(schema, 14, fill=fill)
    (w,) = slide_windows(series, schema)
    w = label_window(w)
    assert filter_defective(w, schema).reason == REASON_NO_TRAFFIC


def test_filter_soundness_predicates(schema):
    """Every drop satisfies its reason predicate; keeps satisfy none."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = 14
        fill = {}
        for name in schema.numeric_features:
            col = [
                float(rng.integers(0, 3)) if rng.random() > 0.5 else None
                for _ in range(n)
            ]
            fill[name] = col
        series = make_series(schema, n, fill=fill)
        (w,) = slide_windows(series, schema)
        w = label_window(w)
        d = filter_defective(w, schema)

        present = w.x[6]
        carrying = any(
            not np.isnan(present[c]) and present[c] > 0
            for c in schema.indicator_indices
        )
        los = any(
            not np.isnan(present[c]) and present[c] > 0
            for c in (schema.uas_index, schema.hccs_index)
        )
        empty_past = bool(np.all(np.isnan(w.x[:, : schema.n_numeric])))
        empty_future = not w.future_observed_any
        predicates = {
            REASON_NO_TRAFFIC: not carrying,
            REASON_LOS_TODAY: los,
            REASON_EMPTY_PAST: empty_past,
            REASON_EMPTY_FUTURE: empty_future,
        }
        if d.keep:
            assert not any(predicates.values())
        else:
            assert predicates[d.reason]


# ---------------------------------------------------------------------------
# Chronological split


def days_array(counts: dict[int, int]) -> np.ndarray:
    out = []
    for day, k in counts.items():
        out.extend([date(2024, 1, 1).toordinal() + day] * k)
    return np.asarray(out, dtype=np.int64)


def test_split_exact_proportions_on_distinct_days():
    days = days_array({d: 1 for d in range(100)})
    split = chronological_split(days)
    assert (split.tags == TRAIN).sum() == 70
    assert (split.tags == VALIDATION).sum() == 10
    assert (split.tags == TEST).sum() == 20


def test_split_single_day_errors():
    with pytest.raises(SplitError):
        chronological_split(days_array({3: 50}))


def test_split_too_few_samples_errors():
    with pytest.raises(SplitError, match="at least 10"):
        chronological_split(days_array({1: 3, 2: 3, 3: 3}))


def test_split_snaps_ties_to_one_side():
    # 1000 samples, a 60-sample pile right at the 70% boundary
    counts = {d: 1 for d in range(970)}
    counts[500] = 31  # ties at the boundary day
    days = days_array(counts)
    split = chronological_split(days)
    n_train = (split.tags == TRAIN).sum()
    assert abs(n_train - 700) <= 20  # within 2% of 70%
    # all samples of the boundary day share one split
    boundary = date(2024, 1, 1).toordinal() + 500
    tags_at_boundary = split.tags[days == boundary]
    assert len(set(tags_at_boundary.tolist())) == 1


@given(
    day_counts=st.lists(st.integers(min_value=1, max_value=8), min_size=3, max_size=40)
)
@settings(max_examples=60, deadline=None)
def test_split_monotone_and_complete(day_counts):
    days = days_array(dict(enumerate(day_counts)))
    if days.size < 10:
        return
    split = chronological_split(days)
    assert days[split.tags == TRAIN].max() <= days[split.tags == VALIDATION].min()
    assert days[split.tags == VALIDATION].max() <= days[split.tags == TEST].min()
    assert all((split.tags == k).sum() > 0 for k in (TRAIN, VALIDATION, TEST))


# ---------------------------------------------------------------------------
# Z-score normalization


def test_zscore_arithmetic(schema):
    train = np.full((4, 7, schema.n_numeric), np.nan)
    j = schema.numeric_index("QAVG")
    train[:, :, j] = np.array([8.0, 12.0, 8.0, 12.0])[:, None]  # mean 10, std 2
    stats = zscore_fit(train, schema.n_numeric)
    x = np.full((7, schema.width), np.nan)
    x[0, j] = 14.0
    out = zscore_apply(x, stats)
    assert out[0, j] == 2.0


def test_zscore_constant_feature_maps_to_zero(schema):
    train = np.full((3, 7, schema.n_numeric), np.nan)
    j = schema.numeric_index("X1")
    train[:, :, j] = 4.2
    stats = zscore_fit(train, schema.n_numeric)
    x = np.full((7, schema.width), np.nan)
    x[2, j] = 99.0
    assert zscore_apply(x, stats)[2, j] == 0.0


def test_zscore_preserves_absence_and_onehot(schema):
    train = np.zeros((2, 7, schema.n_numeric))
    stats = zscore_fit(train, schema.n_numeric)
    x = np.full((7, schema.width), np.nan)
    x[:, schema.n_numeric :] = 1.0
    out = zscore_apply(x, stats)
    assert np.isnan(out[:, : schema.n_numeric]).all()
    np.testing.assert_array_equal(out[:, schema.n_numeric :], 1.0)


def test_zscore_train_entries_standardized_after_apply(schema):
    rng = np.random.default_rng(3)
    train = rng.normal(5.0, 3.0, size=(40, 7, schema.n_numeric))
    train[rng.random(train.shape) < 0.3] = np.nan
    stats = zscore_fit(train, schema.n_numeric)
    full = np.concatenate(
        [train, np.ones((40, 7, schema.width - schema.n_numeric))], axis=2
    )
    normed = zscore_apply(full, stats)[:, :, : schema.n_numeric]
    for j in range(schema.n_numeric):
        vals = normed[:, :, j]
        vals = vals[~np.isnan(vals)]
        assert abs(vals.mean()) < 1e-9
        assert abs(vals.std() - 1.0) < 1e-9
