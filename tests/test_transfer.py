from __future__ import annotations

import numpy as np
import pytest

from iloscast.dataset import WindowDataset
from iloscast.errors import DataError
from iloscast.rits import AdamState, CLASSIFIER_BLOCKS, init_brits, brits_loss_and_grads
from iloscast.schema import FeatureSchema
from iloscast.transfer import (
    build_mega_dataset,
    finetune_classifier_only,
    finetune_entirety,
    project_x,
    rits_data,
    union_schema,
)
from iloscast.rits import TrainSchedule, brits_predict
from iloscast.windows import TRAIN


def small_schema(extra: tuple[str, ...], facilities: tuple[str, ...]) -> FeatureSchema:
    numeric = tuple(sorted(("HCCS", "QAVG", "TRAFFIC", "UAS") + extra))
    return FeatureSchema(
        numeric_features=numeric,
        onehot_features=facilities,
        protocol_indicators=("TRAFFIC",),
    )


def make_dataset(schema, network, n=60, seed=0, start_day=739000):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 7, schema.width))
    x[..., : schema.n_numeric][rng.random((n, 7, schema.n_numeric)) < 0.4] = np.nan
    x[..., schema.n_numeric :] = 0.0
    x[..., schema.n_numeric] = 1.0  # first facility present
    label = (rng.random(n) < 0.3).astype(np.int8)
    label[:3] = 1
    split = np.zeros(n, dtype=np.int8)
    split[int(n * 0.7) : int(n * 0.8)] = 1
    split[int(n * 0.8) :] = 2
    days = start_day + np.arange(n) // 3
    train_x = x[split == 0]
    from iloscast.windows import zscore_fit

    return WindowDataset(
        schema=schema,
        x=x,
        label=label,
        network=np.array([network] * n, dtype=object),
        port=np.array([f"p{i%7}" for i in range(n)], dtype=object),
        present_day=days.astype(np.int64),
        split=split,
        norm=zscore_fit(train_x, schema.n_numeric),
    )


def test_union_schema_size_arithmetic():
    # 76 and 91 numeric features overlapping in 42 -> union of 125
    base = tuple(f"C{i:03d}" for i in range(38))  # common pool beyond the 4 core
    a_extra = base + tuple(f"A{i:03d}" for i in range(76 - 4 - 38))
    b_extra = base + tuple(f"B{i:03d}" for i in range(91 - 4 - 38))
    sa = small_schema(a_extra, ("OTM",))
    sb = small_schema(b_extra, ("ETH",))
    assert sa.n_numeric == 76 and sb.n_numeric == 91
    union = union_schema([sa, sb])
    assert union.n_numeric == 125
    assert union.onehot_features == ("ETH", "OTM")


def test_projection_absent_columns_masked():
    sa = small_schema(("ALPHA",), ("OTM",))
    union = union_schema([sa, small_schema(("BETA",), ("ETH",))])
    x = np.zeros((2, 7, sa.width))
    projected = project_x(x, sa, union)
    beta_col = union.numeric_index("BETA")
    assert np.isnan(projected[..., beta_col]).all()
    eth_col = union.onehot_index("ETH")
    np.testing.assert_array_equal(projected[..., eth_col], 0.0)


def test_projection_round_trip_soundness():
    sa = small_schema(("ALPHA", "GAMMA"), ("OTM",))
    sb = small_schema(("BETA",), ("ETH", "OTM"))
    union = union_schema([sa, sb])
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 7, sa.width))
    x[rng.random(x.shape) < 0.3] = np.nan
    cols = [union.numeric_index(n) for n in sa.numeric_features]
    cols += [union.onehot_index(n) for n in sa.onehot_features]
    back = project_x(x, sa, union)[..., cols]
    np.testing.assert_array_equal(np.isnan(back), np.isnan(x))
    np.testing.assert_array_equal(back[~np.isnan(back)], x[~np.isnan(x)])


def test_mega_requires_distinct_networks():
    s = small_schema((), ("OTM",))
    d1 = make_dataset(s, "net1", seed=2)
    d2 = make_dataset(s, "net1", seed=3)
    with pytest.raises(DataError, match="duplicate network"):
        build_mega_dataset([d1, d2])


def test_mega_merges_and_refits_normalization():
    sa = small_schema(("ALPHA",), ("OTM",))
    sb = small_schema(("BETA",), ("ETH",))
    da = make_dataset(sa, "net1", seed=4)
    db = make_dataset(sb, "net2", seed=5)
    mega = build_mega_dataset([da, db])
    assert mega.n == da.n + db.n
    assert mega.schema.n_numeric == 6
    # split tags preserved
    assert (mega.split == 1).sum() == (da.split == 1).sum() + (db.split == 1).sum()
    # normalization was refit on the merged train split
    train_x = mega.x[mega.split == TRAIN]
    from iloscast.windows import zscore_fit

    refit = zscore_fit(train_x, mega.schema.n_numeric)
    np.testing.assert_allclose(mega.norm.mean, refit.mean)
    np.testing.assert_allclose(mega.norm.std, refit.std)


def test_mega_missing_rate_not_below_sources():
    sa = small_schema(("ALPHA",), ("OTM",))
    sb = small_schema(("BETA",), ("ETH",))
    da = make_dataset(sa, "net1", seed=6)
    db = make_dataset(sb, "net2", seed=7)
    mega = build_mega_dataset([da, db])

    def missing_rate(ds):
        xn = ds.x[..., : ds.schema.n_numeric]
        return float(np.isnan(xn).mean())

    assert missing_rate(mega) >= max(missing_rate(da), missing_rate(db)) - 1e-12


def test_mega_order_invariance():
    sa = small_schema(("ALPHA",), ("OTM",))
    sb = small_schema(("BETA",), ("ETH",))
    da = make_dataset(sa, "net1", seed=8)
    db = make_dataset(sb, "net2", seed=9)
    m1 = build_mega_dataset([da, db])
    m2 = build_mega_dataset([db, da])
    np.testing.assert_array_equal(
        np.nan_to_num(m1.x, nan=-999), np.nan_to_num(m2.x, nan=-999)
    )
    np.testing.assert_array_equal(m1.label, m2.label)


def test_network_tag_opacity():
    sa = small_schema(("ALPHA",), ("OTM",))
    sb = small_schema(("BETA",), ("ETH",))
    mega = build_mega_dataset([make_dataset(sa, "net1", seed=10), make_dataset(sb, "net2", seed=11)])
    model = init_brits(mega.schema.width, hidden_size=8, seed=0)
    idx = np.arange(mega.n)
    p1 = brits_predict(model, rits_data(mega, idx))
    relabeled = mega.subset(idx)
    relabeled.network = np.array(["other"] * mega.n, dtype=object)
    p2 = brits_predict(model, rits_data(relabeled, idx))
    np.testing.assert_array_equal(p1, p2)


def mega_fixture():
    sa = small_schema(("ALPHA",), ("OTM",))
    sb = small_schema(("BETA",), ("ETH",))
    return build_mega_dataset(
        [make_dataset(sa, "net1", n=80, seed=12), make_dataset(sb, "net2", n=50, seed=13)]
    )


def test_finetune_classifier_only_freezes_imputer():
    mega = mega_fixture()
    pretrained = init_brits(mega.schema.width, hidden_size=8, seed=1)
    schedule = TrainSchedule(batch_size=16, max_epochs_phase2=2, seed=2)
    tuned, history = finetune_classifier_only(pretrained, mega, "net1", schedule)
    assert history  # it actually trained
    for d in ("fwd", "bwd"):
        for k in pretrained.fwd:
            before = getattr(pretrained, d)[k]
            after = getattr(tuned, d)[k]
            if k in CLASSIFIER_BLOCKS:
                assert not np.array_equal(before, after)
            else:
                assert np.array_equal(before, after)


def test_finetune_entirety_moves_imputer_blocks():
    mega = mega_fixture()
    pretrained = init_brits(mega.schema.width, hidden_size=8, seed=1)
    schedule = TrainSchedule(batch_size=16, max_epochs_phase2=1, seed=2)
    tuned, _ = finetune_entirety(pretrained, mega, "net1", schedule)
    moved = [
        k
        for k in pretrained.fwd
        if k not in CLASSIFIER_BLOCKS and not np.array_equal(pretrained.fwd[k], tuned.fwd[k])
    ]
    assert moved  # gradient flowed into the imputer


def test_finetune_zero_epochs_is_identity():
    mega = mega_fixture()
    pretrained = init_brits(mega.schema.width, hidden_size=8, seed=1)
    schedule = TrainSchedule(batch_size=16, max_epochs_phase2=0, seed=2)
    tuned, history = finetune_classifier_only(pretrained, mega, "net1", schedule)
    assert history == []
    for d in ("fwd", "bwd"):
        for k in pretrained.fwd:
            np.testing.assert_array_equal(getattr(pretrained, d)[k], getattr(tuned, d)[k])


def test_finetune_unknown_network_errors():
    mega = mega_fixture()
    pretrained = init_brits(mega.schema.width, hidden_size=8, seed=1)
    with pytest.raises(DataError, match="empty"):
        finetune_classifier_only(pretrained, mega, "netX")


def test_classifier_only_equals_entirety_with_zeroed_imputer_grads():
    """Stepping Adam with imputer gradients forced to zero reproduces the
    classifier-only restriction exactly."""
    mega = mega_fixture()
    idx = mega.indices(split=TRAIN, network="net1")[:16]
    data = rits_data(mega, idx)

    m_restrict = init_brits(mega.schema.width, hidden_size=8, seed=3)
    m_zeroed = m_restrict.copy()
    opt_a = AdamState(m_restrict)
    opt_b = AdamState(m_zeroed)
    for _ in range(4):
        _, ga = brits_loss_and_grads(m_restrict, data.x, data.mask, data.delta, data.label, phase=2)
        opt_a.step(m_restrict, {d: {k: ga[d][k] for k in CLASSIFIER_BLOCKS} for d in ga}, 5e-4)
        _, gb = brits_loss_and_grads(m_zeroed, data.x, data.mask, data.delta, data.label, phase=2)
        for d in ("fwd", "bwd"):
            for k in gb[d]:
                if k not in CLASSIFIER_BLOCKS:
                    gb[d][k] = np.zeros_like(gb[d][k])
        opt_b.step(m_zeroed, gb, 5e-4)
    for d in ("fwd", "bwd"):
        for k in m_restrict.fwd:
            np.testing.assert_array_equal(getattr(m_restrict, d)[k], getattr(m_zeroed, d)[k])
