from __future__ import annotations

import csv
import io
from datetime import date, timedelta

import numpy as np
import pytest

from iloscast.dataset import build_dataset, write_audit_csv, WindowDataset
from iloscast.errors import DataError
from iloscast.missing import compute_time_gaps
from iloscast.schema import FeatureSchema
from iloscast.windows import REASONS, TRAIN, VALIDATION, TEST

from conftest import healthy_fill, make_series, one_port, stack_series, start_date


def build_fixture(schema, n_ports=4, n_days=40):
    series = []
    for p in range(n_ports):
        fill = healthy_fill(schema, n_days)
        if p == 0:
            # one port gets a late LOS so labels are not all zero
            uas = [None] * (n_days - 5) + [10.0] + [None] * 4
            fill["UAS"] = uas
        series.append(
            make_series(schema, n_days, port_id=f"p{p}", fill=fill, onehot=(float(p % 2), 1.0))
        )
    return build_dataset(stack_series(series), schema)


def test_build_dataset_shapes_and_split(schema):
    ds, audit = build_fixture(schema)
    assert ds.x.shape[1:] == (7, schema.width)
    assert set(np.unique(ds.split)) <= {TRAIN, VALIDATION, TEST}
    assert len(audit) >= ds.n
    assert ds.label.max() == 1


def test_indices_filters(schema):
    ds, _ = build_fixture(schema)
    assert ds.indices().tolist() == list(range(ds.n))
    p_train = ds.indices(split=TRAIN, network="net1")
    assert p_train.size > 0
    np.testing.assert_array_equal(
        p_train, np.flatnonzero((ds.split == TRAIN) & (ds.network == "net1"))
    )
    assert ds.indices(network="net9").size == 0


def test_normalized_x_preserves_nan_layout(schema):
    ds, _ = build_fixture(schema)
    xn = ds.normalized_x()
    np.testing.assert_array_equal(np.isnan(xn), np.isnan(ds.x))


def test_tree_rows_modes(schema):
    ds, _ = build_fixture(schema)
    idx = ds.indices(split=TRAIN)
    sparse = ds.tree_rows(idx, "none")
    dense = ds.tree_rows(idx, "zero")
    med = ds.tree_rows(idx, "median")
    assert sparse.shape == (idx.size, 7 * schema.width)
    assert not np.isnan(dense).any()
    assert not np.isnan(med).any()
    with pytest.raises(DataError, match="imputation"):
        ds.tree_rows(idx, "bogus")


def test_rits_tensors_contract(schema):
    ds, _ = build_fixture(schema)
    idx = ds.indices(split=TRAIN)
    x, mask, delta = ds.rits_tensors(idx)
    assert np.isfinite(x).all()
    np.testing.assert_array_equal(x[mask == 0], 0.0)
    np.testing.assert_array_equal(delta, compute_time_gaps(mask))
    # one-hot columns are always observed
    np.testing.assert_array_equal(mask[..., schema.n_numeric :], 1.0)


def test_save_load_round_trip(tmp_path, schema):
    ds, _ = build_fixture(schema)
    path = tmp_path / "windows.ilos"
    ds.save(path)
    loaded = WindowDataset.load(path)
    np.testing.assert_array_equal(
        np.nan_to_num(loaded.x, nan=-1.5), np.nan_to_num(ds.x, nan=-1.5)
    )
    np.testing.assert_array_equal(loaded.label, ds.label)
    np.testing.assert_array_equal(loaded.split, ds.split)
    assert loaded.schema == ds.schema
    assert list(loaded.network) == list(ds.network)
    assert list(loaded.port) == list(ds.port)
    np.testing.assert_array_equal(loaded.norm.mean, ds.norm.mean)
    assert loaded.split_bounds == ds.split_bounds


def audit_columns(audit):
    """Per-window network ids, port ids, days, labels and reason codes."""
    return (
        audit.network_ids[audit.port].tolist(),
        audit.port_ids[audit.port].tolist(),
        audit.present_day.tolist(),
        audit.label.tolist(),
        audit.reason.tolist(),
    )


def test_audit_csv(tmp_path, schema):
    """audit.csv holds the bytes csv.writer writes for the audit's rows."""
    ds, audit = build_fixture(schema)
    path = tmp_path / "audit.csv"
    write_audit_csv(path, audit)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["network_id", "port_id", "present_day", "label", "kept", "reason"])
    for net, port, day, label, code in zip(*audit_columns(audit)):
        writer.writerow([net, port, date.fromordinal(day).isoformat(), label, int(code == 0), REASONS[code] or ""])
    assert path.read_bytes() == expected.getvalue().encode()


def test_no_samples_survive_raises(schema):
    # all ports traffic-free: every window drops
    series = make_series(schema, 20, fill={"QAVG": [1.0] * 20})
    with pytest.raises(DataError, match="survived"):
        build_dataset(series, schema)


def test_median_provenance_guard(schema):
    """Medians come from the train split only: recomputing them over all
    splits must be able to differ."""
    rng = np.random.default_rng(42)
    series = []
    n_days = 40
    for p in range(4):
        fill = {
            "QAVG": (13.0 + rng.normal(0, 1.0, n_days)).tolist(),
            "TRAFFIC": [1.0] * n_days,
            "X1": (5.0 + rng.normal(0, 2.0, n_days)).tolist(),
        }
        if p == 0:
            fill["UAS"] = [None] * (n_days - 5) + [10.0] + [None] * 4
        series.append(make_series(schema, n_days, port_id=f"p{p}", fill=fill))
    ds, _ = build_dataset(stack_series(series), schema)

    train_meds, _ = ds.train_medians()
    # shift every non-train sample's observed raw values far away: the
    # train-only medians must not move
    shifted = ds.subset(np.arange(ds.n))
    mask = shifted.split != TRAIN
    shifted.x[mask] = shifted.x[mask] + 1000.0
    train_meds_after, _ = shifted.train_medians()
    np.testing.assert_array_equal(train_meds, train_meds_after)

    from iloscast.missing import train_medians as med_fn

    all_meds, _ = med_fn(shifted.normalized_x(np.arange(ds.n)), schema.n_numeric)
    assert not np.allclose(all_meds, train_meds_after)


# ---------------------------------------------------------------------------
# Whole-array build against the per-window reference loop


def reference_build(series_list, schema, past_days=7, future_days=7):
    """The per-window loop the array kernels replaced, over a list of
    one-port blocks: (dataset arrays, audit rows), or the exception it
    raised."""
    from datetime import timedelta

    from iloscast.windows import chronological_split, zscore_fit

    audit, kept = [], []
    for series in series_list:
        span = past_days + future_days
        network_id, port_id = series.network_id[0], series.port_id[0]
        for start in range(int(series.n_days[0]) - span + 1):
            past = series.values[start : start + past_days]
            future = series.values[start + past_days : start + span]
            x = np.concatenate([past, np.tile(series.onehot[0], (past_days, 1))], axis=1)
            label = int(
                np.any(np.nan_to_num(future[:, schema.uas_index]) > 0)
                or np.any(np.nan_to_num(future[:, schema.hccs_index]) > 0)
            )
            present = x[-1]
            if np.all(np.isnan(x[:, : schema.n_numeric])):
                reason = "empty_past"
            elif np.all(np.isnan(future)):
                reason = "empty_future"
            elif not any(
                not np.isnan(present[c]) and present[c] > 0 for c in schema.indicator_indices
            ):
                reason = "no_traffic"
            elif any(
                not np.isnan(present[c]) and present[c] > 0
                for c in (schema.uas_index, schema.hccs_index)
            ):
                reason = "los_today"
            else:
                reason = None
            day = start_date(series) + timedelta(days=start + past_days - 1)
            audit.append((network_id, port_id, day.toordinal(), label, reason))
            if reason is None:
                kept.append((x, label, network_id, port_id, day.toordinal()))
    if not kept:
        return DataError("no samples survived filtering"), audit
    days = np.array([k[4] for k in kept], dtype=np.int64)
    try:
        assignment = chronological_split(days)
    except Exception as exc:  # the same error is expected from build_dataset
        return exc, audit
    x = np.stack([k[0] for k in kept])
    return {
        "x": x,
        "label": np.array([k[1] for k in kept], dtype=np.int8),
        "network": [k[2] for k in kept],
        "port": [k[3] for k in kept],
        "present_day": days,
        "split": assignment.tags,
        "norm": zscore_fit(x[assignment.tags == TRAIN], schema.n_numeric),
        "split_bounds": (assignment.train_end.isoformat(), assignment.val_end.isoformat()),
    }, audit


def random_series(rng, schema, n_days, port_id):
    """Sparse, zero-heavy values with +-inf, whole absent weeks and LOS days."""
    pool = np.array([np.nan, np.nan, np.nan, 0.0, -0.0, 1.0, 3.0, -2.0, np.inf, -np.inf])
    values = rng.choice(pool, size=(n_days, schema.n_numeric))
    traffic = [schema.numeric_index(n) for n in schema.protocol_indicators]
    if traffic:
        values[:, traffic] = np.where(rng.random((n_days, len(traffic))) < 0.8, 1.0, values[:, traffic])
    uas = schema.uas_index
    values[:, uas] = np.where(rng.random(n_days) < 0.8, np.nan, values[:, uas])
    if rng.random() < 0.3:
        gap = int(rng.integers(0, max(1, n_days - 7)))
        values[gap : gap + 7] = np.nan  # an all-absent past or future week
    onehot = (rng.random(schema.n_onehot) < 0.6).astype(np.float64)
    start = date(2024, 1, 1) + timedelta(days=int(rng.integers(0, 5)))
    return one_port("net1", port_id, start, values, onehot)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in zscore_fit
@pytest.mark.parametrize("indicators", [("TRAFFIC",), ("TRAFFIC", "X1"), ()])
def test_build_matches_reference_loop(schema, indicators):
    schema = FeatureSchema(
        numeric_features=schema.numeric_features,
        onehot_features=schema.onehot_features,
        protocol_indicators=indicators,
    )
    rng = np.random.default_rng(17)
    reasons_seen = set()
    built = 0
    for trial in range(25):
        lengths = [13, 14, 20] + [int(n) for n in rng.integers(10, 45, size=5)]
        series = [random_series(rng, schema, n, f"p{i}") for i, n in enumerate(lengths)]
        expected, expected_audit = reference_build(series, schema)
        reasons_seen |= {row[4] for row in expected_audit}
        if isinstance(expected, Exception):
            with pytest.raises(type(expected), match=str(expected)):
                build_dataset(stack_series(series), schema)
            continue
        ds, audit = build_dataset(stack_series(series), schema)
        built += 1
        np.testing.assert_array_equal(ds.x.view(np.uint64), expected["x"].view(np.uint64))
        for key in ("label", "present_day", "split"):
            np.testing.assert_array_equal(getattr(ds, key), expected[key])
        assert ds.label.dtype == np.int8 and ds.split.dtype == np.int8
        assert ds.network.tolist() == expected["network"]
        assert ds.port.tolist() == expected["port"]
        assert ds.split_bounds == expected["split_bounds"]
        np.testing.assert_array_equal(ds.norm.mean.view(np.uint64), expected["norm"].mean.view(np.uint64))
        np.testing.assert_array_equal(ds.norm.std.view(np.uint64), expected["norm"].std.view(np.uint64))
        assert ds.norm.unobserved == expected["norm"].unobserved
        net, port, day, label, code = audit_columns(audit)
        rows = list(zip(net, port, day, label, [REASONS[c] for c in code]))
        assert rows == expected_audit
    assert built >= (20 if indicators else 0)
    expected_reasons = {None, "empty_past", "empty_future", "no_traffic", "los_today"}
    assert reasons_seen == (expected_reasons if indicators else {"empty_past", "empty_future", "no_traffic"})


def test_audit_csv_matches_reference_rows(tmp_path, schema):
    ds, audit = build_fixture(schema)
    path = tmp_path / "audit.csv"
    write_audit_csv(path, audit)
    expected = ["network_id,port_id,present_day,label,kept,reason"]
    for net, port, day, label, code in zip(*audit_columns(audit)):
        reason = REASONS[code] or ""
        expected.append(f"{net},{port},{date.fromordinal(day).isoformat()},{label},{int(code == 0)},{reason}")
    assert path.read_bytes() == ("\r\n".join(expected) + "\r\n").encode()
