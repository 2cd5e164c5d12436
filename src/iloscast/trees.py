"""From-scratch tree models on flattened window rows.

Two families share the node layout and traversal:

* a bagged random forest (Gini impurity, per-split feature subsets) that
  requires dense, pre-imputed input, and
* a second-order gradient-boosted classifier on logistic loss whose split
  finder enumerates observed values only and learns a default direction
  for absent values by scoring both routings of the absent set.

Exact greedy split finding throughout; candidate thresholds are midpoints
between consecutive distinct observed values, ties broken toward the lower
feature index, lower threshold, and left default direction.

The booster's split search has two kernels that return identical results
(XGBoost's column blocks, Chen & Guestrin 2016, sections 3.4 and 4.1).
``train_gbdt`` sorts each column's observed values once per fit, because
the rows never change across rounds. Nodes of at least
``PRESORT_MIN_ROWS`` rows filter those presorted orders down to their
members. Smaller nodes run one 2-D stable sort, cumsum and gain pass over
all columns at once. Node row ids are always increasing, so a filtered
stable order equals a stable sort of the node. Both kernels use the same
floating-point operations as a per-column sort, so they pick the same
splits to the bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .activation import sigmoid
from .container import read_json, require_keys
from .errors import ConfigError, DataError

_LEAF = -1

#: Full-scale tree-count grid: 100 to 3000 in steps of 100, thirty values.
#: Desk-scale runs use a truncated prefix of it.
FULL_TREE_GRID = tuple(range(100, 3001, 100))


@dataclass
class Tree:
    """One decision tree as parallel node arrays; ``feature == -1`` marks leaves."""

    feature: np.ndarray
    threshold: np.ndarray
    default_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gain: np.ndarray
    gain_flipped: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "default_left": self.default_left.astype(int).tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "gain": self.gain.tolist(),
            "gain_flipped": self.gain_flipped.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(
            feature=np.asarray(d["feature"], dtype=np.int32),
            threshold=np.asarray(d["threshold"], dtype=np.float64),
            default_left=np.asarray(d["default_left"], dtype=bool),
            left=np.asarray(d["left"], dtype=np.int32),
            right=np.asarray(d["right"], dtype=np.int32),
            value=np.asarray(d["value"], dtype=np.float64),
            gain=np.asarray(d["gain"], dtype=np.float64),
            gain_flipped=np.asarray(d["gain_flipped"], dtype=np.float64),
        )


#: The node arrays a saved tree must hold.
TREE_KEYS = tuple(Tree.__dataclass_fields__)


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 12
    features_per_split: int | None = None  # default ceil(sqrt(n_columns))
    bootstrap: bool = True
    min_samples_split: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1:
            raise ConfigError("forest needs n_trees >= 1 and max_depth >= 1")


@dataclass(frozen=True)
class BoosterConfig:
    n_trees: int = 100
    max_depth: int = 6
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    min_child_hessian: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1:
            raise ConfigError("booster needs n_trees >= 1 and max_depth >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning rate must be in (0, 1]")
        if self.reg_lambda < 0:
            raise ConfigError("reg_lambda must be >= 0")


@dataclass
class TreeEnsemble:
    """A trained forest or booster; immutable once built."""

    kind: str  # "forest" | "booster"
    trees: list[Tree]
    config: ForestConfig | BoosterConfig
    n_columns: int
    base_score: float = 0.0  # booster prior logit
    train_loss: list[float] = field(default_factory=list)

    def save(self, path: str | Path) -> None:
        payload = {
            "format": "iloscast-tree-ensemble",
            "version": 1,
            "kind": self.kind,
            "n_columns": self.n_columns,
            "base_score": self.base_score,
            "config": self.config.__dict__,
            "train_loss": self.train_loss,
            "trees": [t.to_dict() for t in self.trees],
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "TreeEnsemble":
        payload = read_json(path)
        if payload.get("format") != "iloscast-tree-ensemble" or payload.get("version") != 1:
            raise DataError(f"{path}: not a version-1 tree ensemble file")
        require_keys(payload, ("kind", "trees", "config", "n_columns", "base_score"), path)
        cfg_cls = ForestConfig if payload["kind"] == "forest" else BoosterConfig
        return cls(
            kind=payload["kind"],
            trees=[Tree.from_dict(require_keys(d, TREE_KEYS, path, "tree")) for d in payload["trees"]],
            config=cfg_cls(**payload["config"]),
            n_columns=int(payload["n_columns"]),
            base_score=float(payload["base_score"]),
            train_loss=list(payload.get("train_loss", [])),
        )


def _logloss(y: np.ndarray, margin: np.ndarray) -> float:
    p = np.clip(sigmoid(margin), 1e-15, 1.0 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def route_leaf_ids(tree: Tree, rows: np.ndarray) -> np.ndarray:
    """Vectorized traversal; absent cells follow the node's default direction."""
    node = np.zeros(rows.shape[0], dtype=np.int32)
    while True:
        active = np.flatnonzero(tree.feature[node] >= 0)
        if active.size == 0:
            return node
        nid = node[active]
        vals = rows[active, tree.feature[nid]]
        go_left = np.where(
            np.isnan(vals), tree.default_left[nid], vals < tree.threshold[nid]
        )
        node[active] = np.where(go_left, tree.left[nid], tree.right[nid])


def tree_values(tree: Tree, rows: np.ndarray) -> np.ndarray:
    return tree.value[route_leaf_ids(tree, rows)]


def predict_proba(model: TreeEnsemble, rows: np.ndarray) -> np.ndarray:
    """Positive-class probability per row."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.n_columns:
        raise DataError(
            f"expected rows with {model.n_columns} columns, got shape {rows.shape}"
        )
    if model.kind == "booster":
        margin = np.full(rows.shape[0], model.base_score, dtype=np.float64)
        for tree in model.trees:
            margin += tree_values(tree, rows)
        return sigmoid(margin)
    if not model.trees:
        raise DataError("forest has no trees")
    acc = np.zeros(rows.shape[0], dtype=np.float64)
    for tree in model.trees:
        acc += tree_values(tree, rows)
    return acc / len(model.trees)


# ---------------------------------------------------------------------------
# Booster


#: Nodes with at least this many rows search the columns presorted once per
#: fit; smaller nodes sort their own rows in one 2-D pass, which is cheaper
#: there than scanning every column's full presorted order (timings per node
#: size in BENCH_booster_split.json).
PRESORT_MIN_ROWS = 500


@dataclass(frozen=True)
class _SortedColumns:
    """Training rows as column blocks, each column's observed rows presorted.

    Rows never change across boosting rounds, so the sort is done once per
    fit. ``order[f]`` holds the row ids of column ``f``'s observed values in
    ascending value order, ties by row id; ``values[f]`` holds those values.
    """

    columns: np.ndarray  # (d, n): the rows transposed, C-contiguous
    order: list[np.ndarray]
    values: list[np.ndarray]

    @classmethod
    def of(cls, rows: np.ndarray) -> "_SortedColumns":
        columns = np.ascontiguousarray(rows.T)
        full = np.argsort(columns, axis=1, kind="stable")  # NaN sorts last
        n_obs = (~np.isnan(columns)).sum(axis=1)
        order = [full[f, :k].copy() for f, k in enumerate(n_obs)]  # drops the NaN tails
        return cls(columns, order, [columns[f, o] for f, o in enumerate(order)])


def _score_candidates(
    gl_obs: np.ndarray,
    hl_obs: np.ndarray,
    g_obs: np.ndarray,
    h_obs: np.ndarray,
    G: float,
    H: float,
    thr: np.ndarray,
    features: np.ndarray,
    counts: np.ndarray,
    reg_lambda: float,
    min_child_hessian: float,
) -> tuple[float, float, int, float, bool] | None:
    """Best positive-gain split among a node's candidate thresholds, or None.

    Candidates come feature by feature, ``counts[i]`` of them for
    ``features[i]``, thresholds ascending within a feature. ``gl_obs`` and
    ``hl_obs`` are the gradient and hessian totals of the observed rows left
    of each candidate; ``g_obs`` and ``h_obs`` those of all observed rows of
    each feature. The absent set's totals are added to the left child, then
    to the right, and the better routing kept; a child under
    ``min_child_hessian`` scores -inf. Ties go to the lower feature, the
    lower threshold and the left default direction. A feature with a NaN
    gain never wins, as when each feature's ``argmax`` was taken on its own.
    """
    parent = G * G / (H + reg_lambda)

    def gain(gl: np.ndarray, hl: np.ndarray) -> np.ndarray:
        gr = G - gl
        hr = H - hl
        value = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent)
        ok = (hl >= min_child_hessian) & (hr >= min_child_hessian)
        return np.where(ok, value, -np.inf)

    g_missing = np.repeat(G - g_obs, counts)
    h_missing = np.repeat(H - h_obs, counts)
    gain_left = gain(gl_obs + g_missing, hl_obs + h_missing)
    gain_right = gain(gl_obs, hl_obs)
    take_left = gain_left >= gain_right
    cand = np.where(take_left, gain_left, gain_right)
    starts = np.cumsum(counts) - counts
    top = np.maximum.reduceat(cand, starts)  # NaN propagates
    top = np.where(top > 0.0, top, 0.0)
    i = int(np.argmax(top))
    if top[i] == 0.0:
        return None
    k = starts[i] + int(np.argmax(cand[starts[i] : starts[i] + counts[i]]))
    flipped = gain_right[k] if take_left[k] else gain_left[k]
    return float(cand[k]), float(flipped), int(features[i]), float(thr[k]), bool(take_left[k])


def _split_presorted(
    cols: _SortedColumns,
    idx: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float,
    min_child_hessian: float,
) -> tuple[float, float, int, float, bool] | None:
    """Large-node kernel: filter each column's presorted order to the node.

    ``idx`` is increasing, so the filtered order equals a stable sort of the
    node's observed values.
    """
    G = g[idx].sum()
    H = h[idx].sum()
    member = np.zeros(cols.columns.shape[1], dtype=bool)
    member[idx] = True
    features, counts, g_obs, h_obs = [], [], [], []
    gl_obs, hl_obs, thr = [], [], []
    for f, (order, values) in enumerate(zip(cols.order, cols.values)):
        keep = member[order]
        v = values[keep]
        cut = np.flatnonzero(v[:-1] < v[1:])
        if cut.size == 0:
            continue
        sel = order[keep]
        gi = g[sel]
        hi = h[sel]
        features.append(f)
        counts.append(cut.size)
        g_obs.append(gi.sum())
        h_obs.append(hi.sum())
        gl_obs.append(np.cumsum(gi)[cut])
        hl_obs.append(np.cumsum(hi)[cut])
        thr.append(0.5 * (v[cut] + v[cut + 1]))
    if not features:
        return None
    return _score_candidates(
        np.concatenate(gl_obs),
        np.concatenate(hl_obs),
        np.asarray(g_obs),
        np.asarray(h_obs),
        G,
        H,
        np.concatenate(thr),
        np.asarray(features),
        np.asarray(counts),
        reg_lambda,
        min_child_hessian,
    )


def _split_node_sorted(
    cols: _SortedColumns,
    idx: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float,
    min_child_hessian: float,
) -> tuple[float, float, int, float, bool] | None:
    """Small-node kernel: one 2-D sort, cumsum and gain pass over all columns."""
    g_node = g[idx]
    h_node = h[idx]
    G = g_node.sum()
    H = h_node.sum()
    x = cols.columns[:, idx]
    order = np.argsort(x, axis=1, kind="stable")  # NaN sorts last
    v = np.take_along_axis(x, order, axis=1)
    cut = v[:, :-1] < v[:, 1:]  # False next to NaN
    counts = cut.sum(axis=1)
    features = np.flatnonzero(counts)
    if features.size == 0:
        return None
    gs = g_node[order]
    hs = h_node[order]
    n_obs = (~np.isnan(v[features])).sum(axis=1)
    # Each column's observed slice is summed as its own contiguous 1-D array,
    # as in the presorted kernel: numpy sums those pairwise, and a 2-D or
    # zero-padded sum would associate differently and change the bits.
    return _score_candidates(
        np.cumsum(gs, axis=1)[:, :-1][cut],
        np.cumsum(hs, axis=1)[:, :-1][cut],
        np.array([gs[f, :k].sum() for f, k in zip(features, n_obs)]),
        np.array([hs[f, :k].sum() for f, k in zip(features, n_obs)]),
        G,
        H,
        0.5 * (v[:, :-1][cut] + v[:, 1:][cut]),
        features,
        counts[features],
        reg_lambda,
        min_child_hessian,
    )


def _best_split_booster(
    cols: _SortedColumns,
    idx: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float,
    min_child_hessian: float,
) -> tuple[float, float, int, float, bool] | None:
    """Best (gain, flipped_gain, feature, threshold, default_left) or None.

    Gain is the second-order split gain with the absent set's gradient and
    hessian totals added to the default side; both routings are scored and
    the better kept (ties go left). ``idx`` must be increasing.
    """
    kernel = _split_presorted if idx.size >= PRESORT_MIN_ROWS else _split_node_sorted
    return kernel(cols, idx, g, h, reg_lambda, min_child_hessian)


def _grow_booster_tree(
    cols: _SortedColumns, g: np.ndarray, h: np.ndarray, cfg: BoosterConfig
) -> Tree:
    feature: list[int] = []
    threshold: list[float] = []
    default_left: list[bool] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    gain: list[float] = []
    gain_flipped: list[float] = []

    def new_node() -> int:
        feature.append(_LEAF)
        threshold.append(0.0)
        default_left.append(True)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(0.0)
        gain.append(0.0)
        gain_flipped.append(0.0)
        return len(feature) - 1

    root = new_node()
    frontier: list[tuple[int, np.ndarray, int]] = [
        (root, np.arange(cols.columns.shape[1], dtype=np.int64), 0)
    ]
    while frontier:
        node, idx, depth = frontier.pop(0)
        split = None
        if depth < cfg.max_depth and idx.size >= 2:
            split = _best_split_booster(
                cols, idx, g, h, cfg.reg_lambda, cfg.min_child_hessian
            )
        if split is None:
            G = g[idx].sum()
            H = h[idx].sum()
            value[node] = -G / (H + cfg.reg_lambda) * cfg.learning_rate
            continue
        best_gain, flipped, f, thr, go_left_default = split
        vals = cols.columns[f, idx]
        go_left = np.where(np.isnan(vals), go_left_default, vals < thr)
        feature[node] = f
        threshold[node] = thr
        default_left[node] = go_left_default
        gain[node] = best_gain
        gain_flipped[node] = flipped
        lid = new_node()
        rid = new_node()
        left[node] = lid
        right[node] = rid
        frontier.append((lid, idx[go_left], depth + 1))
        frontier.append((rid, idx[~go_left], depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        default_left=np.asarray(default_left, dtype=bool),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
        gain=np.asarray(gain, dtype=np.float64),
        gain_flipped=np.asarray(gain_flipped, dtype=np.float64),
    )


def train_gbdt(
    rows: np.ndarray, labels: np.ndarray, config: BoosterConfig
) -> TreeEnsemble:
    """Second-order boosting on logistic loss over rows that may contain NaN."""
    rows = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if rows.ndim != 2 or y.shape != (rows.shape[0],):
        raise DataError("rows must be (n, d) with one label per row")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("labels must be 0/1")

    p0 = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    base = float(np.log(p0 / (1.0 - p0)))
    margin = np.full(rows.shape[0], base, dtype=np.float64)
    cols = _SortedColumns.of(rows)
    trees: list[Tree] = []
    loss_history: list[float] = []
    for _ in range(config.n_trees):
        p = sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        tree = _grow_booster_tree(cols, g, h, config)
        trees.append(tree)
        margin += tree_values(tree, rows)
        loss_history.append(_logloss(y, margin))
    return TreeEnsemble(
        kind="booster",
        trees=trees,
        config=config,
        n_columns=rows.shape[1],
        base_score=base,
        train_loss=loss_history,
    )


# ---------------------------------------------------------------------------
# Random forest


def _best_split_gini(
    rows: np.ndarray, idx: np.ndarray, y: np.ndarray, features: np.ndarray
) -> tuple[float, int, float] | None:
    """Best (impurity_decrease, feature, threshold) over the sampled features."""
    y_node = y[idx]
    n = idx.size
    pos = float(y_node.sum())
    p = pos / n
    parent = 1.0 - p * p - (1.0 - p) * (1.0 - p)
    if parent == 0.0:
        return None

    best_dec = 1e-12
    best: tuple[float, int, float] | None = None
    for f in features:
        v = rows[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y_node[order]
        cut = np.flatnonzero(vs[:-1] < vs[1:])
        if cut.size == 0:
            continue
        n_l = (cut + 1).astype(np.float64)
        pos_l = np.cumsum(ys)[cut].astype(np.float64)
        n_r = n - n_l
        pos_r = pos - pos_l
        pl = pos_l / n_l
        pr = pos_r / n_r
        gini_l = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
        gini_r = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
        weighted = (n_l * gini_l + n_r * gini_r) / n
        k = int(np.argmin(weighted))
        dec = parent - float(weighted[k])
        if dec > best_dec:
            best_dec = dec
            best = (dec, int(f), float(0.5 * (vs[cut[k]] + vs[cut[k] + 1])))
    return best


def _grow_forest_tree(
    rows: np.ndarray,
    y: np.ndarray,
    cfg: ForestConfig,
    mtry: int,
    rng: np.random.Generator,
) -> Tree:
    n = rows.shape[0]
    if cfg.bootstrap:
        sample = rng.integers(0, n, size=n)
    else:
        sample = np.arange(n)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    frontier: list[tuple[int, np.ndarray, int]] = [(root, sample, 0)]
    while frontier:
        node, idx, depth = frontier.pop(0)
        split = None
        if depth < cfg.max_depth and idx.size >= cfg.min_samples_split:
            feats = np.sort(rng.choice(rows.shape[1], size=mtry, replace=False))
            split = _best_split_gini(rows, idx, y, feats)
        if split is None:
            value[node] = float(y[idx].mean())
            continue
        _, f, thr = split
        go_left = rows[idx, f] < thr
        feature[node] = f
        threshold[node] = thr
        lid = new_node()
        rid = new_node()
        left[node] = lid
        right[node] = rid
        frontier.append((lid, idx[go_left], depth + 1))
        frontier.append((rid, idx[~go_left], depth + 1))

    k = len(feature)
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        default_left=np.ones(k, dtype=bool),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
        gain=np.zeros(k, dtype=np.float64),
        gain_flipped=np.zeros(k, dtype=np.float64),
    )


def train_random_forest(
    rows: np.ndarray, labels: np.ndarray, config: ForestConfig
) -> TreeEnsemble:
    """Bagged Gini trees over dense, pre-imputed rows.

    Per-tree randomness derives from (seed, tree index), so a k-tree prefix
    of a larger forest equals the k-tree forest trained directly.
    """
    rows = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if np.isnan(rows).any():
        raise DataError("forest input must be dense; impute absent values first")
    if rows.ndim != 2 or y.shape != (rows.shape[0],):
        raise DataError("rows must be (n, d) with one label per row")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("labels must be 0/1")

    mtry = config.features_per_split or int(np.ceil(np.sqrt(rows.shape[1])))
    mtry = min(mtry, rows.shape[1])
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, t)))
        trees.append(_grow_forest_tree(rows, y, config, mtry, rng))
    return TreeEnsemble(kind="forest", trees=trees, config=config, n_columns=rows.shape[1])


# ---------------------------------------------------------------------------
# Grid search over tree count


@dataclass
class GridResult:
    best_model: TreeEnsemble
    best_count: int
    scores: list[tuple[int, float]]


def grid_search_trees(
    train: tuple[np.ndarray, np.ndarray],
    validation: tuple[np.ndarray, np.ndarray],
    grid: Sequence[int],
    metric: Callable[[np.ndarray, np.ndarray], float],
    kind: str = "booster",
    config: BoosterConfig | ForestConfig | None = None,
) -> GridResult:
    """Pick the tree count maximizing the validation metric.

    Trains once at the largest grid point and scores prefixes, which is
    mathematically identical to separate trainings for both families here
    (boosting is sequential; forest tree seeds depend only on tree index).
    Ties break toward the smaller count.
    """
    if not grid:
        raise ConfigError("tree-count grid is empty")
    grid = sorted(set(int(k) for k in grid))
    if grid[0] < 1:
        raise ConfigError("tree counts must be >= 1")
    rows_tr, y_tr = train
    rows_va, y_va = validation

    if kind == "booster":
        cfg = config or BoosterConfig()
        full = train_gbdt(rows_tr, y_tr, cfg.__class__(**{**cfg.__dict__, "n_trees": grid[-1]}))
        margin = np.full(rows_va.shape[0], full.base_score, dtype=np.float64)
        scores = []
        checkpoints = set(grid)
        for k, tree in enumerate(full.trees, start=1):
            margin += tree_values(tree, rows_va)
            if k in checkpoints:
                scores.append((k, float(metric(sigmoid(margin), y_va))))
    elif kind == "forest":
        cfg = config or ForestConfig()
        full = train_random_forest(
            rows_tr, y_tr, cfg.__class__(**{**cfg.__dict__, "n_trees": grid[-1]})
        )
        acc = np.zeros(rows_va.shape[0], dtype=np.float64)
        scores = []
        checkpoints = set(grid)
        for k, tree in enumerate(full.trees, start=1):
            acc += tree_values(tree, rows_va)
            if k in checkpoints:
                scores.append((k, float(metric(acc / k, y_va))))
    else:
        raise ConfigError(f"unknown model kind {kind!r}")

    best_count, best_score = scores[0]
    for k, s in scores[1:]:
        if s > best_score:
            best_count, best_score = k, s
    best_model = TreeEnsemble(
        kind=full.kind,
        trees=full.trees[:best_count],
        config=full.config.__class__(**{**full.config.__dict__, "n_trees": best_count}),
        n_columns=full.n_columns,
        base_score=full.base_score,
        train_loss=full.train_loss[:best_count],
    )
    return GridResult(best_model=best_model, best_count=best_count, scores=scores)
