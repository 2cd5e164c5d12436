from __future__ import annotations

import os
import re
import signal
from dataclasses import replace

import numpy as np
import pytest

from iloscast import trees
from iloscast.errors import ConfigError, DataError
from iloscast.trees import (
    PRESORT_MIN_ROWS,
    SPLIT_WORKER_MIN_CELLS,
    SPLIT_WORKER_MIN_FIT_CELLS,
    TREE_KEYS,
    BoosterConfig,
    ForestConfig,
    Tree,
    TreeEnsemble,
    grid_search_trees,
    predict_proba,
    staged_proba,
    train_gbdt,
    train_random_forest,
    tree_values,
    route_leaf_ids,
    _LEAF,
    _SortedColumns,
    _logloss,
    _split_node_sorted,
    _split_presorted,
)
from test_cli import deadline




def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# ---------------------------------------------------------------------------
# Independent booster-split oracle


def oracle_best_split(rows, idx, g, h, reg_lambda, min_child_hessian):
    """Exhaustive enumeration over (feature, threshold, default direction),
    fully independent of the training-path code."""
    G = float(g[idx].sum())
    H = float(h[idx].sum())
    parent = G * G / (H + reg_lambda)
    best = None
    best_gain = 0.0
    for f in range(rows.shape[1]):
        vals = rows[idx, f]
        observed = sorted(set(vals[~np.isnan(vals)].tolist()))
        for lo, hi in zip(observed[:-1], observed[1:]):
            thr = 0.5 * (lo + hi)
            obs_left = (~np.isnan(vals)) & (vals < thr)
            obs_right = (~np.isnan(vals)) & (vals >= thr)
            missing = np.isnan(vals)
            for default_left in (True, False):
                left = obs_left | (missing if default_left else np.zeros_like(missing))
                right = obs_right | (missing if not default_left else np.zeros_like(missing))
                gl, hl = float(g[idx[left]].sum()), float(h[idx[left]].sum())
                gr, hr = float(g[idx[right]].sum()), float(h[idx[right]].sum())
                if hl < min_child_hessian or hr < min_child_hessian:
                    continue
                gain = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent)
                if gain > best_gain:
                    best_gain = gain
                    best = (f, thr, default_left, gain)
    return best


def audit_booster_splits(model: TreeEnsemble, rows, labels):
    """Replay the boosting rounds, re-deriving every node's sample set, and
    yield (node info, oracle result, flipped-direction gain)."""
    cfg = model.config
    y = labels.astype(np.float64)
    margin = np.full(rows.shape[0], model.base_score)
    for tree in model.trees:
        p = sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        frontier = [(0, np.arange(rows.shape[0]))]
        while frontier:
            node, idx = frontier.pop()
            if tree.feature[node] < 0:
                continue
            f, thr = int(tree.feature[node]), float(tree.threshold[node])
            default_left = bool(tree.default_left[node])
            oracle = oracle_best_split(rows, idx, g, h, cfg.reg_lambda, cfg.min_child_hessian)
            flipped_gain = directional_gain(
                rows, idx, g, h, f, thr, not default_left, cfg.reg_lambda, cfg.min_child_hessian
            )
            chosen_gain = directional_gain(
                rows, idx, g, h, f, thr, default_left, cfg.reg_lambda, cfg.min_child_hessian
            )
            yield (f, thr, default_left, chosen_gain, flipped_gain, oracle)
            vals = rows[idx, f]
            go_left = np.where(np.isnan(vals), default_left, vals < thr)
            frontier.append((int(tree.left[node]), idx[go_left]))
            frontier.append((int(tree.right[node]), idx[~go_left]))
        margin += tree_values(tree, rows)


def directional_gain(rows, idx, g, h, f, thr, default_left, reg_lambda, min_child_hessian):
    vals = rows[idx, f]
    go_left = np.where(np.isnan(vals), default_left, vals < thr)
    gl, hl = float(g[idx[go_left]].sum()), float(h[idx[go_left]].sum())
    gr, hr = float(g[idx[~go_left]].sum()), float(h[idx[~go_left]].sum())
    if hl < min_child_hessian or hr < min_child_hessian:
        return -np.inf
    G, H = gl + gr, hl + hr
    return 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - G * G / (H + reg_lambda))


# ---------------------------------------------------------------------------
# Booster


def test_booster_matches_exhaustive_oracle_dense():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n, d = int(rng.integers(40, 120)), int(rng.integers(2, 8))
        rows = rng.normal(size=(n, d))
        labels = (rows[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)
        cfg = BoosterConfig(n_trees=2, max_depth=3, min_child_hessian=0.5)
        model = train_gbdt(rows, labels, cfg)
        for f, thr, default_left, chosen, flipped, oracle in audit_booster_splits(model, rows, labels):
            assert oracle is not None
            of, othr, odef, ogain = oracle
            # optimality: the chosen split attains the exhaustive optimum
            assert chosen == pytest.approx(ogain, rel=1e-9)
            if chosen != ogain:
                assert (f, thr) == (of, othr)


def test_booster_default_direction_gain_optimal_with_absences():
    rng = np.random.default_rng(12)
    for _ in range(6):
        n, d = int(rng.integers(60, 150)), int(rng.integers(3, 8))
        rows = rng.normal(size=(n, d))
        rows[rng.random((n, d)) < 0.3] = np.nan
        labels = (np.nan_to_num(rows[:, 0]) > 0).astype(float)
        cfg = BoosterConfig(n_trees=2, max_depth=3, min_child_hessian=0.5)
        model = train_gbdt(rows, labels, cfg)
        found_split = False
        for f, thr, default_left, chosen, flipped, _ in audit_booster_splits(model, rows, labels):
            found_split = True
            assert chosen >= flipped
        assert found_split


def mixed_rows(rng, n):
    """Rows with every column shape the split search must handle, ~30 % absent."""
    rows = np.column_stack(
        [
            rng.normal(size=n),  # continuous
            np.round(rng.normal(size=n), 1),  # many duplicate values
            np.full(n, np.nan),  # never observed
            np.full(n, 5.0),  # constant
            rng.integers(0, 4, size=n).astype(float),  # four distinct values
            rng.normal(size=n),
        ]
    )
    absent = rng.random(rows.shape) < 0.3
    absent[:, 3] = False  # the constant column stays fully observed
    rows[absent] = np.nan
    signal = np.nan_to_num(rows[:, 0]) + 0.5 * np.nan_to_num(rows[:, 4], nan=3.0)
    labels = (signal + 0.7 * rng.normal(size=n) > 1.0).astype(float)
    return rows, labels


def replay_split_nodes(model: TreeEnsemble, rows, labels):
    """Yield (tree, node, idx, g, h) for every split node of every round."""
    y = labels.astype(np.float64)
    margin = np.full(rows.shape[0], model.base_score)
    for tree in model.trees:
        p = sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        frontier = [(0, np.arange(rows.shape[0]))]
        while frontier:
            node, idx = frontier.pop()
            if tree.feature[node] < 0:
                continue
            yield tree, node, idx, g, h
            vals = rows[idx, tree.feature[node]]
            go_left = np.where(np.isnan(vals), tree.default_left[node], vals < tree.threshold[node])
            frontier.append((int(tree.left[node]), idx[go_left]))
            frontier.append((int(tree.right[node]), idx[~go_left]))
        margin += tree_values(tree, rows)


def per_column_split(rows, idx, g, h, reg_lambda, min_child_hessian):
    """Reference search that sorts the node's observed values column by column,
    with the same floating-point operations as the production kernels, so
    their results must match it bit for bit."""
    G, H = g[idx].sum(), h[idx].sum()
    parent = G * G / (H + reg_lambda)
    best, best_gain = None, 0.0
    for f in range(rows.shape[1]):
        vals = rows[idx, f]
        obs = ~np.isnan(vals)
        order = np.argsort(vals[obs], kind="stable")
        v, gi, hi = vals[obs][order], g[idx][obs][order], h[idx][obs][order]
        cut = np.flatnonzero(v[:-1] < v[1:])
        if cut.size == 0:
            continue
        gains = []
        for gl, hl in (
            (np.cumsum(gi)[cut] + (G - gi.sum()), np.cumsum(hi)[cut] + (H - hi.sum())),
            (np.cumsum(gi)[cut], np.cumsum(hi)[cut]),
        ):
            gr, hr = G - gl, H - hl
            value = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent)
            gains.append(np.where((hl >= min_child_hessian) & (hr >= min_child_hessian), value, -np.inf))
        take_left = gains[0] >= gains[1]
        cand = np.where(take_left, gains[0], gains[1])
        k = int(np.argmax(cand))
        if cand[k] > best_gain:
            best_gain = float(cand[k])
            best = (best_gain, f, float(0.5 * (v[cut[k]] + v[cut[k] + 1])), bool(take_left[k]))
    return best


def test_presorted_splits_match_exhaustive_oracle_on_large_nodes():
    rng = np.random.default_rng(31)
    rows, labels = mixed_rows(rng, 1500)
    cfg = BoosterConfig(n_trees=2, max_depth=3, min_child_hessian=0.5)
    model = train_gbdt(rows, labels, cfg)
    checked = 0
    for tree, node, idx, g, h in replay_split_nodes(model, rows, labels):
        if idx.size < PRESORT_MIN_ROWS:
            continue
        f, thr, default_left = int(tree.feature[node]), float(tree.threshold[node]), bool(tree.default_left[node])
        oracle = oracle_best_split(rows, idx, g, h, cfg.reg_lambda, cfg.min_child_hessian)
        assert oracle is not None
        of, othr, odef, ogain = oracle
        chosen = directional_gain(rows, idx, g, h, f, thr, default_left, cfg.reg_lambda, cfg.min_child_hessian)
        flipped = directional_gain(rows, idx, g, h, f, thr, not default_left, cfg.reg_lambda, cfg.min_child_hessian)
        assert chosen == pytest.approx(ogain, rel=1e-9)
        assert tree.gain[node] == pytest.approx(ogain, rel=1e-9)
        assert chosen >= flipped
        if (f, thr) == (of, othr) and flipped != pytest.approx(chosen, rel=1e-9):
            assert default_left == odef
        checked += 1
    assert checked >= 4


def test_both_split_kernels_agree_bit_for_bit():
    rng = np.random.default_rng(32)
    rows, labels = mixed_rows(rng, 1200)
    cols = _SortedColumns.of(rows)
    cfg = BoosterConfig(n_trees=2, max_depth=4, min_child_hessian=0.5)
    model = train_gbdt(rows, labels, cfg)
    nodes = [(idx, g, h) for _, _, idx, g, h in replay_split_nodes(model, rows, labels)]
    assert any(idx.size >= PRESORT_MIN_ROWS for idx, _, _ in nodes)
    assert any(idx.size < PRESORT_MIN_ROWS for idx, _, _ in nodes)
    g, h = nodes[0][1], nodes[0][2]
    for size in (2, 3, 40, 499, 500, 900):
        nodes.append((np.sort(rng.choice(rows.shape[0], size=size, replace=False)), g, h))
    found = 0
    for idx, g, h in nodes:
        args = (idx, g, h, cfg.reg_lambda, cfg.min_child_hessian)
        expected = per_column_split(rows, *args)
        found += expected is not None
        assert _split_presorted(cols, *args) == expected
        assert _split_node_sorted(cols, *args) == expected
    assert found >= len(nodes) - 2  # the 2- and 3-row nodes may have no legal split
    # Only the never-observed and constant columns: no candidate anywhere.
    for idx, g, h in nodes[:3]:
        bare = _SortedColumns.of(rows[:, 2:4])
        assert _split_presorted(bare, idx, g, h, 1.0, 0.5) is None
        assert _split_node_sorted(bare, idx, g, h, 1.0, 0.5) is None


def test_split_kernels_skip_redundant_columns_bit_for_bit():
    """Columns the kernels may skip or sum in groups: a copy of the root's
    winning column at a higher index, a column that is constant inside the
    root's left child, and three columns with one shared absence pattern.
    Both kernels must still equal the search over every column."""
    rng = np.random.default_rng(33)
    n = 1200
    rows, labels = mixed_rows(rng, n)
    cfg = BoosterConfig(n_trees=2, max_depth=4, min_child_hessian=0.5)
    p = np.full(n, labels.mean())
    root = per_column_split(rows, np.arange(n), p - labels, p * (1.0 - p), cfg.reg_lambda, cfg.min_child_hessian)
    _, win, thr, _ = root
    absent = rng.random(n) < 0.3
    same_counts = rng.normal(size=(n, 3))
    same_counts[absent] = np.nan
    copy = rows.shape[1]
    rows = np.column_stack(
        [rows, rows[:, win], np.where(rows[:, win] < thr, 2.0, rng.normal(size=n)), same_counts]
    )
    cols = _SortedColumns.of(rows)
    assert win in cols.searched and copy not in cols.searched
    assert 2 not in cols.searched and 3 not in cols.searched  # never observed, constant
    model = train_gbdt(rows, labels, cfg)
    assert model.trees[0].feature[0] == win
    nodes = [(idx, g, h) for _, _, idx, g, h in replay_split_nodes(model, rows, labels)]
    g, h = nodes[0][1], nodes[0][2]
    left = np.flatnonzero(rows[:, win] < thr)
    for size in (40, left.size // 2, left.size):
        nodes.append((np.sort(rng.choice(left, size=size, replace=False)), g, h))
    found = 0
    for idx, g, h in nodes:
        args = (idx, g, h, cfg.reg_lambda, cfg.min_child_hessian)
        expected = per_column_split(rows, *args)
        found += expected is not None
        assert _split_presorted(cols, *args) == expected
        assert _split_node_sorted(cols, *args) == expected
    assert found >= len(nodes) - 1


def test_booster_train_loss_matches_tree_values_replay():
    """The margin updated from each row's leaf during growth equals the
    margin from routing the rows through each finished tree."""
    rng = np.random.default_rng(34)
    rows, labels = mixed_rows(rng, 900)
    model = train_gbdt(rows, labels, BoosterConfig(n_trees=6, max_depth=4))
    margin = np.full(rows.shape[0], model.base_score)
    replayed = []
    for tree in model.trees:
        margin += tree_values(tree, rows)
        replayed.append(_logloss(labels, margin))
    assert model.train_loss == replayed


def test_booster_all_labels_identical():
    rows = np.arange(40, dtype=float).reshape(20, 2)
    model = train_gbdt(rows, np.ones(20), BoosterConfig(n_trees=3, max_depth=4))
    for tree in model.trees:
        assert tree.n_nodes == 1  # single leaf, no splits possible
    p = predict_proba(model, rows)
    assert np.all(p > 0.99)


def test_booster_training_loss_non_increasing():
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(200, 6))
    rows[rng.random((200, 6)) < 0.25] = np.nan
    labels = (np.nan_to_num(rows[:, 1]) + 0.3 * rng.normal(size=200) > 0).astype(float)
    model = train_gbdt(rows, labels, BoosterConfig(n_trees=30))
    losses = np.asarray(model.train_loss)
    assert np.all(np.diff(losses) <= 1e-12)


def test_booster_separable_accuracy():
    rng = np.random.default_rng(14)
    rows = rng.normal(size=(100, 1)) * 4 + 5
    labels = (rows[:, 0] > 5).astype(float)
    model = train_gbdt(rows, labels, BoosterConfig(n_trees=10))
    assert np.mean((predict_proba(model, rows) > 0.5) == labels) == 1.0


def test_booster_gain_nonnegative_everywhere():
    rng = np.random.default_rng(15)
    rows = rng.normal(size=(150, 5))
    rows[rng.random((150, 5)) < 0.3] = np.nan
    labels = (rng.random(150) < 0.4).astype(float)
    model = train_gbdt(rows, labels, BoosterConfig(n_trees=5))
    for tree in model.trees:
        split_nodes = tree.feature >= 0
        assert np.all(tree.gain[split_nodes] >= 0)


def test_empty_like_booster_predicts_base():
    rows = np.ones((5, 2))
    model = TreeEnsemble(kind="booster", trees=[], config=BoosterConfig(), n_columns=2, base_score=0.4)
    np.testing.assert_allclose(predict_proba(model, rows), sigmoid(0.4))


def stump(feature=0, threshold=5.0, default_left=True, left_value=-1.0, right_value=2.0) -> Tree:
    return Tree(
        feature=np.array([feature, -1, -1], dtype=np.int32),
        threshold=np.array([threshold, 0.0, 0.0]),
        default_left=np.array([default_left, True, True]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.0, left_value, right_value]),
        gain=np.zeros(3),
    )


def test_stump_default_routing_of_absent():
    tree = stump()
    rows = np.array([[np.nan], [7.0], [3.0]])
    np.testing.assert_array_equal(tree_values(tree, rows), [-1.0, 2.0, -1.0])


def test_routing_totality_random_absence():
    rng = np.random.default_rng(16)
    rows = rng.normal(size=(300, 4))
    rows[rng.random((300, 4)) < 0.5] = np.nan
    labels = (rng.random(300) < 0.3).astype(float)
    model = train_gbdt(rows, labels, BoosterConfig(n_trees=4))
    for tree in model.trees:
        leaf_ids = route_leaf_ids(tree, rows)
        assert np.all(tree.feature[leaf_ids] == -1)


def test_booster_determinism():
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(120, 5))
    rows[rng.random((120, 5)) < 0.3] = np.nan
    labels = (rng.random(120) < 0.4).astype(float)
    m1 = train_gbdt(rows, labels, BoosterConfig(n_trees=6))
    m2 = train_gbdt(rows, labels, BoosterConfig(n_trees=6))
    np.testing.assert_array_equal(predict_proba(m1, rows), predict_proba(m2, rows))


def test_booster_rejects_nan_free_dimension_mismatch():
    model = train_gbdt(np.ones((10, 3)), np.r_[np.ones(5), np.zeros(5)], BoosterConfig(n_trees=1))
    with pytest.raises(DataError, match="columns"):
        predict_proba(model, np.ones((4, 2)))


def test_probabilities_bounded():
    rng = np.random.default_rng(18)
    rows = rng.normal(size=(80, 4))
    labels = (rng.random(80) < 0.2).astype(float)
    model = train_gbdt(rows, labels, BoosterConfig(n_trees=20))
    p = predict_proba(model, rows)
    assert np.all((p > 0) & (p < 1))


# ---------------------------------------------------------------------------
# Split search on two processes


@pytest.fixture
def worker(monkeypatch):
    """Two usable CPUs whatever the machine has, a split worker for every
    fit of two or more searched columns, and the pid of every worker
    forked; each must be reaped when the test ends."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(trees, "SPLIT_WORKER_MIN_FIT_CELLS", 0)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    assert_reaped(pids)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def saved_bytes(model, path) -> bytes:
    model.save(path)
    return path.read_bytes()


def in_process_bytes(monkeypatch, rows, labels, cfg, path) -> bytes:
    """The fit with one usable CPU, which must start no worker."""
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one_cpu.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
        return saved_bytes(train_gbdt(rows, labels, cfg), path)


def record_searches(monkeypatch):
    """(node rows, columns searched) of every kernel call in this process."""
    calls = []
    search = trees._best_split_booster

    def recording(cols, idx, *args):
        calls.append((idx.size, cols.searched.size))
        return search(cols, idx, *args)

    monkeypatch.setattr(trees, "_best_split_booster", recording)
    return calls


def duplicate_columns(rng, n):
    """Bitwise copies of earlier columns, which are not searched."""
    rows, labels = mixed_rows(rng, n)
    return np.column_stack([rows, rows[:, [4, 0]], rows[:, 1:2]]), labels


def two_searched_columns(rng, n):
    """Each share holds a single column."""
    rows, labels = mixed_rows(rng, n)
    return rows[:, [0, 2, 3, 4]], labels


def nan_heavy(rng, n):
    rows, labels = mixed_rows(rng, n)
    rows[rng.random(rows.shape) < 0.6] = np.nan
    return rows, labels


@pytest.mark.parametrize("make", [mixed_rows, nan_heavy, duplicate_columns, two_searched_columns])
@pytest.mark.parametrize("min_rows", [2, PRESORT_MIN_ROWS // 2, PRESORT_MIN_ROWS + 1])
def test_worker_fit_saves_the_in_process_bytes(worker, monkeypatch, tmp_path, make, min_rows):
    """Nodes of at least ``min_rows`` rows are searched in two shares, the
    others in-process; the saved ensemble equals that of a fit with one
    usable CPU byte for byte."""
    rows, labels = make(np.random.default_rng(35), 1300)
    cfg = BoosterConfig(n_trees=3, max_depth=4, min_child_hessian=0.5)
    want = in_process_bytes(monkeypatch, rows, labels, cfg, tmp_path / "one.json")
    searched = _SortedColumns.of(rows).searched.size
    monkeypatch.setattr(trees, "SPLIT_WORKER_MIN_CELLS", min_rows * searched)
    calls = record_searches(monkeypatch)
    assert saved_bytes(train_gbdt(rows, labels, cfg), tmp_path / "two.json") == want
    assert len(worker) == 1
    shared = {size for size, cols in calls if cols < searched}
    alone = {size for size, cols in calls if cols == searched}
    assert shared and min(shared) >= min_rows
    assert all(size < min_rows for size in alone)


def test_worker_splits_equal_one_process_at_every_threshold(worker, monkeypatch):
    """Nodes either side of each size threshold give the split of one
    search over every column: around ``PRESORT_MIN_ROWS`` in two shares,
    and around ``SPLIT_WORKER_MIN_CELLS`` in one and in two."""
    rng = np.random.default_rng(40)
    n = 3000
    rows, labels = nan_heavy(rng, n)
    cols = _SortedColumns.of(rows)
    first = -(-SPLIT_WORKER_MIN_CELLS // cols.searched.size)  # fewest rows for two shares
    assert PRESORT_MIN_ROWS < first < n
    p = np.clip(sigmoid(rng.normal(size=n)), 0.05, 0.95)
    one_process = trees._best_split_booster
    calls = record_searches(monkeypatch)
    with trees._SplitSearch(cols, 1, 1.0, 0.5) as search:
        assert worker
        np.subtract(p, labels, out=search.g)
        np.multiply(p, 1.0 - p, out=search.h)
        for min_cells, sizes in (
            (0, [2, 3, PRESORT_MIN_ROWS - 1, PRESORT_MIN_ROWS, PRESORT_MIN_ROWS + 1, n]),
            (SPLIT_WORKER_MIN_CELLS, [first - 1, first]),
        ):
            monkeypatch.setattr(trees, "SPLIT_WORKER_MIN_CELLS", min_cells)
            for size in sizes:
                idx = np.sort(rng.choice(n, size=size, replace=False))
                assert search.find(idx) == one_process(cols, idx, search.g, search.h, 1.0, 0.5)
    full = cols.searched.size
    assert [size for size, searched in calls if searched == full] == [first - 1]


def test_small_fit_or_one_searched_column_starts_no_worker(monkeypatch):
    """A fit forks from ``SPLIT_WORKER_MIN_FIT_CELLS`` rows times searched
    columns times rounds, and never with one searched column."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    rows, labels = mixed_rows(np.random.default_rng(36), 6000)
    searched, rounds = _SortedColumns.of(rows).searched.size, 50
    n = -(-SPLIT_WORKER_MIN_FIT_CELLS // (searched * rounds))
    assert n <= rows.shape[0] and _SortedColumns.of(rows[: n - 1]).searched.size == searched
    cfg = BoosterConfig(n_trees=rounds, max_depth=1)
    train_gbdt(rows[: n - 1], labels[: n - 1], cfg)
    assert not forks
    train_gbdt(rows[:n], labels[:n], cfg)
    assert len(forks) == 1
    model = train_gbdt(rows[:, [0, 2, 3]], labels, replace(cfg, n_trees=2 * rounds))
    assert len(forks) == 1
    assert {int(f) for t in model.trees for f in t.feature} == {_LEAF, 0}


def test_equal_gains_in_two_shares_go_to_the_lower_feature(worker, monkeypatch, tmp_path):
    """Columns 2 and 3 order the rows alike, so every candidate of theirs
    has the same gain to the bit. The worker's share holds the lower of
    them and this process's the higher; the lower wins at every node, as in
    one process."""
    rng = np.random.default_rng(37)
    n = 1200
    x = rng.normal(size=n)
    x[rng.random(n) < 0.2] = np.nan
    noise = rng.normal(size=(n, 2))
    noise[rng.random(n) < 0.1, 1] = np.nan
    rows = np.column_stack([noise, x, 2.0 * x])
    labels = (np.nan_to_num(x, nan=0.5) + 0.3 * rng.normal(size=n) > 0.2).astype(float)
    mine, theirs = _SortedColumns.of(rows).halves()
    assert mine.searched.tolist() == [0, 3] and theirs.searched.tolist() == [1, 2]
    p = np.full(n, labels.mean())
    args = (np.arange(n), p - labels, p * (1.0 - p), 1.0, 1.0)
    gain, feature, _, _ = _split_presorted(theirs, *args)
    assert feature == 2 and _split_presorted(mine, *args)[:2] == (gain, 3)

    cfg = BoosterConfig(n_trees=2, max_depth=3)
    want = in_process_bytes(monkeypatch, rows, labels, cfg, tmp_path / "one.json")
    monkeypatch.setattr(trees, "SPLIT_WORKER_MIN_CELLS", 0)
    got = train_gbdt(rows, labels, cfg)
    assert len(worker) == 1
    assert got.trees[0].feature[0] == 2
    assert 3 not in {int(f) for t in got.trees for f in t.feature}
    assert saved_bytes(got, tmp_path / "two.json") == want


def fail_in_worker(monkeypatch, how):
    """Make the worker's kernel ``how`` = "die" or "raise"; this process's
    kernel still runs."""
    parent = os.getpid()
    search = trees._best_split_booster

    def failing(*args):
        if os.getpid() != parent:
            if how == "die":
                os._exit(3)
            raise ValueError("kernel broke")
        return search(*args)

    monkeypatch.setattr(trees, "_best_split_booster", failing)


@pytest.mark.parametrize(
    "how, message",
    [("die", "exited during a split search"), ("raise", "failed: ValueError: kernel broke")],
)
def test_failed_worker_fails_the_fit_and_is_reaped(worker, monkeypatch, how, message):
    rows, labels = mixed_rows(np.random.default_rng(38), 1300)
    monkeypatch.setattr(trees, "SPLIT_WORKER_MIN_CELLS", 0)
    fail_in_worker(monkeypatch, how)
    with deadline(60), pytest.raises(RuntimeError, match=f"booster split worker \\(pid \\d+\\) {message}"):
        train_gbdt(rows, labels, BoosterConfig(n_trees=2, max_depth=3))
    assert len(worker) == 1
    assert_reaped(worker)


def test_worker_killed_between_nodes_fails_the_fit(worker, monkeypatch):
    """A worker that is gone before a node's row count is sent."""
    rows, labels = mixed_rows(np.random.default_rng(42), 1300)
    monkeypatch.setattr(trees, "SPLIT_WORKER_MIN_CELLS", 0)
    better = trees._better

    def kill_worker(a, b):
        os.kill(worker[0], signal.SIGKILL)
        os.waitid(os.P_PID, worker[0], os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        return better(a, b)

    monkeypatch.setattr(trees, "_better", kill_worker)
    with deadline(60), pytest.raises(RuntimeError, match="exited during a split search"):
        train_gbdt(rows, labels, BoosterConfig(n_trees=2, max_depth=3))
    assert len(worker) == 1
    assert_reaped(worker)


def test_fit_that_fails_in_process_reaps_the_worker(worker, monkeypatch):
    rows, labels = mixed_rows(np.random.default_rng(39), 1300)
    monkeypatch.setattr(trees, "SPLIT_WORKER_MIN_CELLS", 0)
    monkeypatch.setattr(trees, "_better", lambda a, b: 1 / 0)
    with deadline(60), pytest.raises(ZeroDivisionError):
        train_gbdt(rows, labels, BoosterConfig(n_trees=2, max_depth=3))
    assert len(worker) == 1
    assert_reaped(worker)


# ---------------------------------------------------------------------------
# Forest


def test_forest_separable_data():
    rng = np.random.default_rng(19)
    rows = rng.uniform(0, 10, size=(200, 1))
    labels = (rows[:, 0] > 5).astype(float)
    model = train_random_forest(rows, labels, ForestConfig(n_trees=10, seed=2))
    # root split near the class boundary for every tree
    for tree in model.trees:
        assert 4.0 < tree.threshold[0] < 6.0
    assert np.mean((predict_proba(model, rows) > 0.5) == labels) == 1.0


def test_forest_all_negative_labels():
    rows = np.arange(20, dtype=float).reshape(10, 2)
    model = train_random_forest(rows, np.zeros(10), ForestConfig(n_trees=5, seed=0))
    np.testing.assert_array_equal(predict_proba(model, rows), np.zeros(10))


def test_forest_determinism():
    rng = np.random.default_rng(20)
    rows = rng.normal(size=(100, 6))
    labels = (rng.random(100) < 0.5).astype(float)
    m1 = train_random_forest(rows, labels, ForestConfig(n_trees=8, seed=7))
    m2 = train_random_forest(rows, labels, ForestConfig(n_trees=8, seed=7))
    np.testing.assert_array_equal(predict_proba(m1, rows), predict_proba(m2, rows))


def test_forest_rejects_nan_input():
    rows = np.ones((10, 2))
    rows[0, 0] = np.nan
    with pytest.raises(DataError, match="dense"):
        train_random_forest(rows, np.r_[np.ones(5), np.zeros(5)], ForestConfig(n_trees=1))


def test_forest_probability_bounds():
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(100, 4))
    labels = (rng.random(100) < 0.3).astype(float)
    model = train_random_forest(rows, labels, ForestConfig(n_trees=15, seed=3))
    p = predict_proba(model, rows)
    assert np.all((p >= 0) & (p <= 1))


# ---------------------------------------------------------------------------
# Grid search


def d_metric_stub(scores, labels):
    # brute separability proxy: mean score of positives minus negatives
    return float(scores[labels == 1].mean() - scores[labels == 0].mean())


def test_grid_dominant_count_wins():
    rng = np.random.default_rng(22)
    rows = rng.normal(size=(300, 4))
    labels = (rows[:, 0] + rng.normal(size=300) > 0).astype(float)
    tr = (rows[:200], labels[:200])
    va = (rows[200:], labels[200:])
    result = grid_search_trees(tr, va, [2, 25], d_metric_stub, config=BoosterConfig())
    scores = dict(result.scores)
    assert scores[25] > scores[2]
    assert result.best_count == 25
    assert len(result.best_model.trees) == 25


def test_grid_tie_breaks_to_smaller_count():
    rows = np.ones((20, 2))
    labels = np.r_[np.ones(10), np.zeros(10)]
    # constant rows: every tree is a bare leaf, all prefix scores equal
    result = grid_search_trees(
        (rows, labels), (rows, labels), [3, 7], lambda s, y: 0.5, config=BoosterConfig()
    )
    assert result.best_count == 3


def test_grid_prefix_equals_direct_training_forest():
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(150, 5))
    labels = (rows[:, 1] > 0).astype(float)
    tr = (rows[:100], labels[:100])
    va = (rows[100:], labels[100:])
    result = grid_search_trees(tr, va, [3, 6], d_metric_stub, config=ForestConfig(seed=5))
    direct = train_random_forest(tr[0], tr[1], ForestConfig(n_trees=3, seed=5))
    np.testing.assert_array_equal(
        predict_proba(direct, va[0]),
        predict_proba(
            TreeEnsemble(kind="forest", trees=result.best_model.trees[:3], config=direct.config, n_columns=5),
            va[0],
        ),
    )


def test_staged_proba_matches_predict_proba_prefixes():
    rng = np.random.default_rng(25)
    rows = rng.normal(size=(120, 4))
    labels = (rows[:, 0] + rng.normal(size=120) > 0).astype(float)
    sparse = np.where(rng.random(rows.shape) < 0.2, np.nan, rows)
    for model, x in (
        (train_gbdt(sparse, labels, BoosterConfig(n_trees=6)), sparse),
        (train_random_forest(rows, labels, ForestConfig(n_trees=6, seed=3)), rows),
    ):
        counts = range(1, len(model.trees) + 1)
        staged = staged_proba(model, x, counts)
        assert len(staged) == len(counts)
        for k, proba in zip(counts, staged):
            prefix = TreeEnsemble(
                kind=model.kind,
                trees=model.trees[:k],
                config=model.config,
                n_columns=model.n_columns,
                base_score=model.base_score,
            )
            assert proba.tobytes() == predict_proba(prefix, x).tobytes()


def test_grid_empty_errors():
    with pytest.raises(ConfigError, match="empty"):
        grid_search_trees((np.ones((5, 1)), np.ones(5)), (np.ones((5, 1)), np.ones(5)), [], d_metric_stub)


# ---------------------------------------------------------------------------
# Serialization


def test_ensemble_json_round_trip(tmp_path):
    rng = np.random.default_rng(24)
    rows = rng.normal(size=(60, 3))
    rows[rng.random((60, 3)) < 0.3] = np.nan
    labels = (rng.random(60) < 0.4).astype(float)
    model = train_gbdt(rows, labels, BoosterConfig(n_trees=4))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = TreeEnsemble.load(path)
    np.testing.assert_array_equal(predict_proba(model, rows), predict_proba(loaded, rows))
    assert loaded.config == model.config
    # default directions are explicit in the serialized form
    import json

    payload = json.loads(path.read_text())
    assert "default_left" in payload["trees"][0]
    # A booster file written while BoosterConfig had its unused seed loads.
    payload["config"]["seed"] = 0
    path.write_text(json.dumps(payload))
    assert TreeEnsemble.load(path).config == model.config


def nan_at_first_split(key):
    def edit(payload):
        tree = payload["trees"][0]
        tree[key][next(i for i, f in enumerate(tree["feature"]) if f >= 0)] = float("nan")

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["trees"][1]["value"].__setitem__(-1, float("nan")), "tree 1 has a value or gain that is not finite"),
        (lambda p: p["trees"][0]["value"].__setitem__(-1, float("-inf")), "tree 0 has a value or gain that is not finite"),
        (nan_at_first_split("gain"), "tree 0 has a value or gain that is not finite"),
        (nan_at_first_split("threshold"), "tree 0 has a NaN threshold"),
        (lambda p: p.update(base_score=float("inf")), "base_score inf is not finite"),
        (lambda p: p.update(base_score=float("nan")), "base_score nan is not finite"),
    ],
    ids=["nan-value", "inf-value", "nan-gain", "nan-threshold", "inf-base-score", "nan-base-score"],
)
def test_load_rejects_non_finite_numbers(tmp_path, edit, message):
    """Python's json reads NaN and Infinity; a model holding them could not
    have been trained, and loading names the file."""
    import json

    rng = np.random.default_rng(26)
    rows = rng.normal(size=(80, 3))
    labels = (rows[:, 0] + rng.normal(size=80) > 0.3).astype(float)
    path = tmp_path / "model.json"
    train_gbdt(rows, labels, BoosterConfig(n_trees=2, max_depth=2)).save(path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
        TreeEnsemble.load(path)


#: Config keys that files of the older format carry, with the values the
#: fits then used.
OLDER_CONFIG_KEYS = {
    "booster": {"seed": 0},
    "forest": {"max_depth": 12, "features_per_split": None, "bootstrap": True, "min_samples_split": 2},
}


@pytest.mark.parametrize("kind", ["booster", "forest"])
def test_older_format_files_load(tmp_path, kind):
    """Files that carry a per-node ``gain_flipped`` and the retired config
    keys load to the same model; a key of neither format is still refused."""
    import json

    rng = np.random.default_rng(25)
    rows = rng.normal(size=(80, 4))
    labels = (rows[:, 0] + rng.normal(size=80) > 0.5).astype(float)
    if kind == "booster":
        rows[rng.random(rows.shape) < 0.3] = np.nan
        model = train_gbdt(rows, labels, BoosterConfig(n_trees=3))
    else:
        model = train_random_forest(rows, labels, ForestConfig(n_trees=3, seed=1))
    path = tmp_path / "model.json"
    model.save(path)
    payload = json.loads(path.read_text())
    payload["config"].update(OLDER_CONFIG_KEYS[kind])
    for tree in payload["trees"]:
        tree["gain_flipped"] = [0.25] * len(tree["gain"])
    path.write_text(json.dumps(payload))
    loaded = TreeEnsemble.load(path)
    assert loaded.config == model.config
    assert loaded.train_loss == model.train_loss
    for old, new in zip(model.trees, loaded.trees):
        for key in TREE_KEYS:
            assert getattr(old, key).tobytes() == getattr(new, key).tobytes(), key
    assert predict_proba(loaded, rows).tobytes() == predict_proba(model, rows).tobytes()

    # A key of the other kind only is still refused.
    foreign = "bootstrap" if kind == "booster" else "learning_rate"
    payload["config"][foreign] = 1
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"unknown key\\(s\\) \\['{foreign}'\\]"):
        TreeEnsemble.load(path)
