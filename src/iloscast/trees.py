"""From-scratch tree models on flattened window rows.

Two families share the node layout, the traversal, one breadth-first
grower (``_grow_tree``) and one prefix-scoring loop (``staged_proba``):

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

Work whose result is fixed for the whole fit is done once
(``_SortedColumns``): the kernels search only the first of each group of
bitwise-identical columns, and only columns with two or more distinct
observed values; the root, which holds every row in every round, reuses
its cut positions; and a threshold is computed for the winning candidate
only. The small-node kernel sums observed gradients and hessians in one
contiguous block per group of columns with equal observed counts
(``_observed_sums``). ``train_gbdt`` updates the margin from the leaf each
row reached while the tree grew instead of routing the rows again.

With two usable CPUs, a large fit searches each large node's columns in
two halves, one in a forked worker process (``_SplitSearch``), and keeps
the better half's split by the same rule, so the trees do not change.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import pickle
import signal
import socket
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .activation import sigmoid
from .container import atomic_write, decoding, read_json, require_keys
from .cpus import usable_cpus
from .errors import ConfigError, DataError

_LEAF = -1


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
        )


#: The node arrays a saved tree must hold.
TREE_KEYS = tuple(Tree.__dataclass_fields__)


FOREST_MAX_DEPTH = 12


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigError("forest needs n_trees >= 1")


@dataclass(frozen=True)
class BoosterConfig:
    n_trees: int = 100
    max_depth: int = 6
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    min_child_hessian: float = 1.0

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1:
            raise ConfigError("booster needs n_trees >= 1 and max_depth >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning rate must be in (0, 1]")
        if self.reg_lambda < 0:
            raise ConfigError("reg_lambda must be >= 0")


#: Config keys of older files that loading drops: no fit reads them.
RETIRED_CONFIG_KEYS = {
    "booster": ("seed",),
    "forest": ("max_depth", "features_per_split", "bootstrap", "min_samples_split"),
}


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
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "TreeEnsemble":
        """Read a saved ensemble; :class:`DataError` for any file that could
        not have been saved, including trees whose traversal would not end."""
        payload = read_json(path)
        if payload.get("format") != "iloscast-tree-ensemble" or payload.get("version") != 1:
            raise DataError(f"{path}: not a version-1 tree ensemble file")
        require_keys(payload, ("kind", "trees", "config", "n_columns", "base_score"), path)
        if payload["kind"] not in ("booster", "forest"):
            raise DataError(f"{path}: unknown ensemble kind {payload['kind']!r}")
        cfg_cls = ForestConfig if payload["kind"] == "forest" else BoosterConfig
        config = payload["config"]
        if not isinstance(config, dict):
            raise DataError(f"{path}: config is not a JSON object")
        retired = RETIRED_CONFIG_KEYS[payload["kind"]]
        config = {key: value for key, value in config.items() if key not in retired}
        unknown = sorted(set(config) - set(cfg_cls.__dataclass_fields__))
        if unknown:
            raise DataError(f"{path}: config has unknown key(s) {unknown} for {cfg_cls.__name__}")
        with decoding(path, "tree ensemble"):
            model = cls(
                kind=payload["kind"],
                trees=[Tree.from_dict(require_keys(d, TREE_KEYS, path, "tree")) for d in payload["trees"]],
                config=cfg_cls(**config),
                n_columns=int(payload["n_columns"]),
                base_score=float(payload["base_score"]),
                train_loss=list(payload.get("train_loss", [])),
            )
        if not math.isfinite(model.base_score):
            raise DataError(f"{path}: base_score {model.base_score} is not finite")
        for i, tree in enumerate(model.trees):
            problem = _tree_defect(tree, model.n_columns)
            if problem:
                raise DataError(f"{path}: tree {i} {problem}")
        return model


def _tree_defect(tree: Tree, n_columns: int) -> str | None:
    """Why ``tree`` cannot be traversed or scored over ``n_columns``
    columns, or None.

    Every node array has one entry per node, features lie in
    [-1, n_columns), each split node's children have larger ids than the
    node, so every traversal ends at a leaf, values and gains are finite
    and no threshold is NaN.
    """
    n = tree.n_nodes
    if n == 0 or any(getattr(tree, key).shape != (n,) for key in TREE_KEYS):
        return "has node arrays of unequal or zero length"
    if ((tree.feature < _LEAF) | (tree.feature >= n_columns)).any():
        return f"has a feature outside [-1, {n_columns})"
    if not (np.isfinite(tree.value).all() and np.isfinite(tree.gain).all()):
        return "has a value or gain that is not finite"
    if np.isnan(tree.threshold).any():
        return "has a NaN threshold"
    split = np.flatnonzero(tree.feature >= 0)
    for child in (tree.left[split], tree.right[split]):
        if ((child <= split) | (child >= n)).any():
            return "has a child id that is not above its node and below the node count"
    return None


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


def staged_proba(
    model: TreeEnsemble, rows: np.ndarray, counts: Sequence[int]
) -> list[np.ndarray]:
    """Positive-class probability per row of each ``k``-tree prefix of
    ``model``, for ``k`` in the ascending ``counts``.

    One pass over the trees: the sum starts at ``model.base_score`` (0.0
    for a forest) and gains each tree's values; at each count the booster
    maps it through the sigmoid and the forest divides it by the count.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.n_columns:
        raise DataError(
            f"expected rows with {model.n_columns} columns, got shape {rows.shape}"
        )
    total = np.full(rows.shape[0], model.base_score, dtype=np.float64)
    staged = []
    done = 0
    for k in counts:
        for tree in model.trees[done:k]:
            total += tree_values(tree, rows)
        done = k
        staged.append(sigmoid(total) if model.kind == "booster" else total / k)
    return staged


def predict_proba(model: TreeEnsemble, rows: np.ndarray) -> np.ndarray:
    """Positive-class probability per row."""
    if model.kind == "forest" and not model.trees:
        raise DataError("forest has no trees")
    return staged_proba(model, rows, [len(model.trees)])[0]


# ---------------------------------------------------------------------------
# Booster


#: Nodes with at least this many rows search the columns presorted once per
#: fit; smaller nodes sort their own rows in one 2-D pass, which is cheaper
#: there than scanning every column's full presorted order (timings per node
#: size in BENCH_booster_split.json).
PRESORT_MIN_ROWS = 500


@dataclass(frozen=True)
class _SortedColumns:
    """Training rows as column blocks, each searched column's observed rows
    presorted, and the root's cut positions.

    Rows never change across boosting rounds, so everything here is
    computed once per fit. ``searched`` lists the columns that can win a
    split, ascending: the first of each group of bitwise-identical columns
    (a later copy only ties it, and ties go to the lower feature), among
    those with at least two distinct observed values (the others have no
    threshold in any node). For the ``i``-th searched column, ``order[i]``
    holds the row ids of its observed values in ascending value order, ties
    by row id, ``values[i]`` those values and ``root_cut[i]`` the positions
    in them that the root cuts after: the root holds every row in every
    round.
    """

    columns: np.ndarray  # (d, n): the rows transposed, C-contiguous
    searched: np.ndarray
    order: list[np.ndarray]
    values: list[np.ndarray]
    root_cut: list[np.ndarray]

    @classmethod
    def of(cls, rows: np.ndarray) -> "_SortedColumns":
        columns = np.ascontiguousarray(rows.T)
        bits = columns.view(np.uint64)
        # The wrapping sum of a column's bit patterns only narrows which
        # columns are compared bit by bit.
        kept: dict[int, list[int]] = {}
        for f, key in enumerate(bits.sum(axis=1).tolist()):
            same_key = kept.setdefault(key, [])
            if not any(np.array_equal(bits[e], bits[f]) for e in same_key):
                same_key.append(f)
        # One 2-D sort of every column: a sort per column left freed heap
        # blocks behind that raised booster_fit's peak RSS by 5-9 %.
        full = np.argsort(columns, axis=1, kind="stable")  # NaN sorts last
        n_obs = (~np.isnan(columns)).sum(axis=1)
        searched, order, values, root_cut = [], [], [], []
        for f in sorted(f for same_key in kept.values() for f in same_key):
            o = full[f, : n_obs[f]].copy()  # drops the NaN tail
            v = columns[f, o]
            cut = np.flatnonzero(v[:-1] < v[1:])
            if cut.size:
                searched.append(f)
                order.append(o)
                values.append(v)
                root_cut.append(cut)
        return cls(columns, np.asarray(searched, dtype=np.int64), order, values, root_cut)

    def halves(self) -> tuple["_SortedColumns", "_SortedColumns"]:
        """The searched columns in two shares of about equal observed
        count, each ascending: the presorted kernel's work on a column grows
        with it. Columns go largest first to the lighter share."""
        picks: tuple[list[int], list[int]] = ([], [])
        load = [0, 0]
        for i in sorted(range(len(self.order)), key=lambda i: -self.order[i].size):
            share = int(load[1] < load[0])
            picks[share].append(i)
            load[share] += self.order[i].size

        def share_of(picked: list[int]) -> "_SortedColumns":
            picked = sorted(picked)
            return replace(
                self,
                searched=self.searched[picked],
                order=[self.order[i] for i in picked],
                values=[self.values[i] for i in picked],
                root_cut=[self.root_cut[i] for i in picked],
            )

        return share_of(picks[0]), share_of(picks[1])


def _midpoint(v: np.ndarray, cut: int) -> float:
    """The threshold between sorted observed values ``v[cut]`` and ``v[cut + 1]``."""
    return float(0.5 * (v[cut] + v[cut + 1]))


def _score_candidates(
    gl_obs: np.ndarray,
    hl_obs: np.ndarray,
    g_obs: np.ndarray,
    h_obs: np.ndarray,
    G: float,
    H: float,
    features: np.ndarray,
    counts: np.ndarray,
    threshold: Callable[[int, int], float],
    reg_lambda: float,
    min_child_hessian: float,
) -> tuple[float, int, float, bool] | None:
    """Best positive-gain split among a node's candidate thresholds, or None.

    Candidates come feature by feature, ``counts[i]`` of them for
    ``features[i]``, thresholds ascending within a feature; only the
    winner's threshold is computed, as ``threshold(i, j)`` for the ``j``-th
    candidate of ``features[i]``. ``gl_obs`` and ``hl_obs`` are the gradient
    and hessian totals of the observed rows left of each candidate, and are
    overwritten; ``g_obs`` and ``h_obs`` those of all observed rows of each
    feature. The absent set's totals are added to the left child, then to
    the right, and the better routing kept; a child under
    ``min_child_hessian`` scores -inf. Ties go to the lower feature, the
    lower threshold and the left default direction. A feature with a NaN
    gain never wins, as when each feature's ``argmax`` was taken on its own.
    """
    parent = G * G / (H + reg_lambda)

    def gain(gl: np.ndarray, hl: np.ndarray) -> np.ndarray:
        # 0.5 * (gl*gl / (hl+lambda) + gr*gr / (hr+lambda) - parent), in
        # place over gl and hl, with the operations in that order.
        gr = G - gl
        hr = H - hl
        ok = hl >= min_child_hessian
        ok &= hr >= min_child_hessian
        gl *= gl
        hl += reg_lambda
        gl /= hl
        gr *= gr
        hr += reg_lambda
        gr /= hr
        gl += gr
        gl -= parent
        gl *= 0.5
        np.copyto(gl, -np.inf, where=~ok)
        return gl

    g_missing = np.repeat(G - g_obs, counts)
    h_missing = np.repeat(H - h_obs, counts)
    g_missing += gl_obs
    h_missing += hl_obs
    gain_left = gain(g_missing, h_missing)
    gain_right = gain(gl_obs, hl_obs)
    take_left = gain_left >= gain_right
    cand = np.where(take_left, gain_left, gain_right)
    starts = np.cumsum(counts) - counts
    top = np.maximum.reduceat(cand, starts)  # NaN propagates
    top = np.where(top > 0.0, top, 0.0)
    i = int(np.argmax(top))
    if top[i] == 0.0:
        return None
    j = int(np.argmax(cand[starts[i] : starts[i] + counts[i]]))
    k = starts[i] + j
    return float(cand[k]), int(features[i]), threshold(i, j), bool(take_left[k])


def _split_presorted(
    cols: _SortedColumns,
    idx: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float,
    min_child_hessian: float,
) -> tuple[float, int, float, bool] | None:
    """Large-node kernel: filter each column's presorted order to the node.

    ``idx`` is increasing, so the filtered order equals a stable sort of the
    node's observed values. A node of every row is the root, whose cuts
    are computed once per fit.
    """
    G = g[idx].sum()
    H = h[idx].sum()
    root = idx.size == cols.columns.shape[1]
    if not root:
        member = np.zeros(cols.columns.shape[1], dtype=bool)
        member[idx] = True
    features, counts, g_obs, h_obs = [], [], [], []
    gl_obs, hl_obs, vs, cuts = [], [], [], []
    for f, order, v, cut in zip(cols.searched, cols.order, cols.values, cols.root_cut):
        sel = order
        if not root:
            keep = member[order]
            v = v[keep]
            cut = np.flatnonzero(v[:-1] < v[1:])
            if cut.size == 0:
                continue
            sel = order[keep]
        gi = g[sel]
        hi = h[sel]
        features.append(f)
        counts.append(cut.size)
        vs.append(v)
        cuts.append(cut)
        g_obs.append(gi.sum())
        h_obs.append(hi.sum())
        gl_obs.append(np.cumsum(gi)[cut])
        hl_obs.append(np.cumsum(hi)[cut])
    if not features:
        return None
    return _score_candidates(
        np.concatenate(gl_obs),
        np.concatenate(hl_obs),
        np.asarray(g_obs),
        np.asarray(h_obs),
        G,
        H,
        np.asarray(features),
        np.asarray(counts),
        lambda i, j: _midpoint(vs[i], cuts[i][j]),
        reg_lambda,
        min_child_hessian,
    )


def _observed_sums(
    gs: np.ndarray, hs: np.ndarray, rows: np.ndarray, n_obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the first ``n_obs[i]`` entries of ``gs[rows[i]]`` and of
    ``hs[rows[i]]``.

    Rows with the same count are summed as one C-contiguous 2-D block along
    its last axis, which numpy sums pairwise row by row exactly as it sums
    each row alone as a 1-D array. A block that is not C-ordered, or zero
    padding, would associate differently and change the bits.
    """
    g_obs = np.empty(rows.size)
    h_obs = np.empty(rows.size)
    by_count = np.argsort(n_obs, kind="stable")
    starts = np.flatnonzero(np.diff(n_obs[by_count])) + 1
    for at in np.split(by_count, starts):
        block, k = rows[at], n_obs[at[0]]
        g_obs[at] = np.ascontiguousarray(gs[block, :k]).sum(axis=1)
        h_obs[at] = np.ascontiguousarray(hs[block, :k]).sum(axis=1)
    return g_obs, h_obs


def _split_node_sorted(
    cols: _SortedColumns,
    idx: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float,
    min_child_hessian: float,
) -> tuple[float, int, float, bool] | None:
    """Small-node kernel: one 2-D sort, cumsum and gain pass over the
    searched columns."""
    g_node = g[idx]
    h_node = h[idx]
    G = g_node.sum()
    H = h_node.sum()
    x = cols.columns[cols.searched[:, None], idx]
    order = np.argsort(x, axis=1, kind="stable")  # NaN sorts last
    v = np.take_along_axis(x, order, axis=1)
    cut = v[:, :-1] < v[:, 1:]  # False next to NaN
    counts = cut.sum(axis=1)
    live = np.flatnonzero(counts)
    if live.size == 0:
        return None
    gs = g_node[order]
    hs = h_node[order]
    n_obs = (~np.isnan(v[live])).sum(axis=1)
    return _score_candidates(
        np.cumsum(gs, axis=1)[:, :-1][cut],
        np.cumsum(hs, axis=1)[:, :-1][cut],
        *_observed_sums(gs, hs, live, n_obs),
        G,
        H,
        cols.searched[live],
        counts[live],
        lambda i, j: _midpoint(v[live[i]], np.flatnonzero(cut[live[i]])[j]),
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
) -> tuple[float, int, float, bool] | None:
    """Best (gain, feature, threshold, default_left) or None.

    Gain is the second-order split gain with the absent set's gradient and
    hessian totals added to the default side; both routings are scored and
    the better kept (ties go left). ``idx`` must be increasing.
    """
    kernel = _split_presorted if idx.size >= PRESORT_MIN_ROWS else _split_node_sorted
    return kernel(cols, idx, g, h, reg_lambda, min_child_hessian)


#: A node is searched on two processes when its rows times searched
#: columns reach this; below it the round trip to the worker costs more
#: than searching half the columns saves (timings per node size in
#: BENCH_booster_processes.json).
SPLIT_WORKER_MIN_CELLS = 10_000

#: A fit forks the split worker only when its rows times searched columns
#: times rounds reach this; smaller fits do not win back the fork.
SPLIT_WORKER_MIN_FIT_CELLS = 1_000_000


def _better(
    a: tuple[float, int, float, bool] | None, b: tuple[float, int, float, bool] | None
) -> tuple[float, int, float, bool] | None:
    """The better of two shares' splits by ``_score_candidates``' rule: the
    higher gain, and on equal gains the lower feature."""
    if a is None or b is None:
        return a if b is None else b
    return a if (a[0], -a[1]) >= (b[0], -b[1]) else b


class _SplitSearch:
    """The booster's split finder for one fit, ``find(idx)``, over the
    gradients ``g`` and hessians ``h`` that the caller rewrites each round.

    Used as a context manager. With two or more usable CPUs, ``os.fork``,
    two or more searched columns and a fit of at least
    ``SPLIT_WORKER_MIN_FIT_CELLS``, entering forks one worker process that
    inherits the presorted columns. ``g``, ``h`` and a node's row ids live
    in one shared anonymous ``mmap``. At a node of at least
    ``SPLIT_WORKER_MIN_CELLS``, this process writes the row ids, sends
    their count over a socket, searches one half of the columns
    (``_SortedColumns.halves``) while the worker searches the other, and
    keeps the better reply (``_better``). Each column's candidates get the
    same operations on either side, so the splits equal a search of every
    column in one process to the bit. The worker only runs kernels and
    leaves on end of file; leaving the context closes the socket and reaps
    it, after killing it if the fit failed.
    """

    def __init__(
        self, cols: _SortedColumns, rounds: int, reg_lambda: float, min_child_hessian: float
    ):
        self.cols = cols
        self.args = (reg_lambda, min_child_hessian)
        n = cols.columns.shape[1]
        self.forks = (
            cols.searched.size >= 2
            and n * cols.searched.size * rounds >= SPLIT_WORKER_MIN_FIT_CELLS
            and hasattr(os, "fork")
            and usable_cpus() >= 2
        )
        self.pid = 0
        if self.forks:
            self.shared = mmap.mmap(-1, 3 * 8 * n)
            self.g, self.h = np.frombuffer(self.shared, np.float64, 2 * n).reshape(2, n)
            self.idx = np.frombuffer(self.shared, np.int64, n, 16 * n)
        else:
            self.g, self.h = np.empty((2, n))

    def __enter__(self) -> "_SplitSearch":
        if not self.forks:
            return self
        self.mine, theirs = self.cols.halves()
        self.sock, child = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
            pid = os.fork()
        if pid == 0:
            try:
                self.sock.close()
                self._serve(child, theirs)
            finally:
                os._exit(0)
        child.close()
        self.pid = pid
        return self

    def __exit__(self, exc_type, *_) -> None:
        if not self.pid:
            return
        try:
            self.sock.close()
            if exc_type is not None:
                os.kill(self.pid, signal.SIGKILL)
        finally:
            os.waitpid(self.pid, 0)
            self.pid = 0

    def _serve(self, sock: socket.socket, share: _SortedColumns) -> None:
        """The worker's loop: search ``share`` at each node whose row count
        arrives, and reply ``(True, split)`` or ``(False, error)``."""
        while True:
            count = sock.recv(8)
            if not count:
                return
            idx = self.idx[: int.from_bytes(count, "little")]
            try:
                reply = (True, _best_split_booster(share, idx, self.g, self.h, *self.args))
            except Exception as exc:  # reported to the fitting process
                reply = (False, f"{type(exc).__name__}: {exc}")
            sock.send(pickle.dumps(reply))

    def find(self, idx: np.ndarray) -> tuple[float, int, float, bool] | None:
        if not self.pid or idx.size * self.cols.searched.size < SPLIT_WORKER_MIN_CELLS:
            return _best_split_booster(self.cols, idx, self.g, self.h, *self.args)
        self.idx[: idx.size] = idx
        try:
            self.sock.send(idx.size.to_bytes(8, "little"))
            mine = _best_split_booster(self.mine, idx, self.g, self.h, *self.args)
            reply = self.sock.recv(4096)
        except ConnectionError:  # the worker is gone: send or receive fails
            reply = b""
        if not reply:
            raise RuntimeError(f"booster split worker (pid {self.pid}) exited during a split search")
        ok, theirs = pickle.loads(reply)
        if not ok:
            raise RuntimeError(f"booster split worker (pid {self.pid}) failed: {theirs}")
        return _better(mine, theirs)


def _grow_tree(
    columns: np.ndarray,
    root: np.ndarray,
    max_depth: int,
    find_split: Callable[[np.ndarray], tuple[float, int, float, bool] | None],
    leaf_value: Callable[[np.ndarray], float],
) -> Tree:
    """Grow one tree breadth-first over ``columns`` (d, n) from the row ids
    ``root``.

    A node shallower than ``max_depth`` with at least two rows ``idx`` asks
    ``find_split(idx)`` for (gain, feature, threshold, default_left); a
    node it gets None for, or does not ask, becomes a leaf of
    ``leaf_value(idx)``. Absent cells follow ``default_left``.
    """
    nodes: list[list | None] = [None]  # one row per node, in TREE_KEYS order
    frontier: list[tuple[int, np.ndarray, int]] = [(0, root, 0)]
    while frontier:
        node, idx, depth = frontier.pop(0)
        split = None
        if depth < max_depth and idx.size >= 2:
            split = find_split(idx)
        if split is None:
            nodes[node] = [_LEAF, 0.0, True, _LEAF, _LEAF, leaf_value(idx), 0.0]
            continue
        gain, f, thr, go_left_default = split
        vals = columns[f, idx]
        go_left = np.where(np.isnan(vals), go_left_default, vals < thr)
        lid = len(nodes)
        nodes[node] = [f, thr, go_left_default, lid, lid + 1, 0.0, gain]
        nodes += [None, None]
        frontier.append((lid, idx[go_left], depth + 1))
        frontier.append((lid + 1, idx[~go_left], depth + 1))
    return Tree.from_dict(dict(zip(TREE_KEYS, zip(*nodes))))


def _rows_and_labels(rows: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if rows.ndim != 2 or y.shape != (rows.shape[0],):
        raise DataError("rows must be (n, d) with one label per row")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("labels must be 0/1")
    return rows, y


def train_gbdt(
    rows: np.ndarray, labels: np.ndarray, config: BoosterConfig
) -> TreeEnsemble:
    """Second-order boosting on logistic loss over rows that may contain NaN."""
    rows, y = _rows_and_labels(rows, labels)

    p0 = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    base = float(np.log(p0 / (1.0 - p0)))
    margin = np.full(rows.shape[0], base, dtype=np.float64)
    cols = _SortedColumns.of(rows)
    step = np.empty_like(margin)
    trees: list[Tree] = []
    loss_history: list[float] = []
    with _SplitSearch(cols, config.n_trees, config.reg_lambda, config.min_child_hessian) as search:
        g, h = search.g, search.h  # rewritten in place each round

        def leaf(idx: np.ndarray) -> float:
            # Every row reaches exactly one leaf while the tree grows, and
            # the same one that routing it through the finished tree gives.
            value = -g[idx].sum() / (h[idx].sum() + config.reg_lambda) * config.learning_rate
            step[idx] = value
            return value

        for _ in range(config.n_trees):
            p = sigmoid(margin)
            np.subtract(p, y, out=g)
            np.multiply(p, 1.0 - p, out=h)
            tree = _grow_tree(
                cols.columns,
                np.arange(rows.shape[0], dtype=np.int64),
                config.max_depth,
                search.find,
                leaf,
            )
            trees.append(tree)
            margin += step
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
    rows: np.ndarray, idx: np.ndarray, y: np.ndarray, mtry: int, rng: np.random.Generator
) -> tuple[float, int, float, bool] | None:
    """Best Gini split over ``mtry`` features drawn from ``rng``, or None.

    Returned as the grower's (gain, feature, threshold, default_left) with
    gain 0.0 and default_left True: forest input is dense, and a forest
    stores no split gains.
    """
    features = np.sort(rng.choice(rows.shape[1], size=mtry, replace=False))
    y_node = y[idx]
    n = idx.size
    pos = float(y_node.sum())
    p = pos / n
    parent = 1.0 - p * p - (1.0 - p) * (1.0 - p)
    if parent == 0.0:
        return None

    best_dec = 1e-12
    best = None
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
            best = (0.0, int(f), float(0.5 * (vs[cut[k]] + vs[cut[k] + 1])), True)
    return best


def train_random_forest(
    rows: np.ndarray, labels: np.ndarray, config: ForestConfig
) -> TreeEnsemble:
    """Bagged Gini trees over dense, pre-imputed rows: each grows on a
    bootstrap sample to ``FOREST_MAX_DEPTH``, splitting every node of two or
    more rows on the best of ceil(sqrt(d)) features drawn per node.

    Per-tree randomness derives from (seed, tree index), so a k-tree prefix
    of a larger forest equals the k-tree forest trained directly.
    """
    rows, y = _rows_and_labels(rows, labels)
    if np.isnan(rows).any():
        raise DataError("forest input must be dense; impute absent values first")

    n, d = rows.shape
    mtry = int(np.ceil(np.sqrt(d)))
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, t)))
        trees.append(
            _grow_tree(
                rows.T,
                rng.integers(0, n, size=n),
                FOREST_MAX_DEPTH,
                lambda idx: _best_split_gini(rows, idx, y, mtry, rng),
                lambda idx: float(y[idx].mean()),
            )
        )
    return TreeEnsemble(kind="forest", trees=trees, config=config, n_columns=d)


# ---------------------------------------------------------------------------
# Grid search over tree count


@dataclass
class GridResult:
    best_model: TreeEnsemble
    best_count: int
    scores: list[tuple[int, float]]


def tree_count_grid(grid: Sequence[int]) -> list[int]:
    """The distinct tree counts of ``grid`` in ascending order;
    :class:`ConfigError` when it is empty or holds a count below 1."""
    if not grid:
        raise ConfigError("tree-count grid is empty")
    counts = sorted(set(int(k) for k in grid))
    if counts[0] < 1:
        raise ConfigError("tree counts must be >= 1")
    return counts


def grid_search_trees(
    train: tuple[np.ndarray, np.ndarray],
    validation: tuple[np.ndarray, np.ndarray],
    grid: Sequence[int],
    metric: Callable[[np.ndarray, np.ndarray], float],
    config: BoosterConfig | ForestConfig = BoosterConfig(),
) -> GridResult:
    """Pick the tree count maximizing the validation metric.

    The family follows the config's type. Trains once at the largest grid
    point and scores prefixes, which is mathematically identical to
    separate trainings for both families here (boosting is sequential;
    forest tree seeds depend only on tree index). Ties break toward the
    smaller count.
    """
    grid = tree_count_grid(grid)
    fit = train_gbdt if isinstance(config, BoosterConfig) else train_random_forest
    full = fit(*train, replace(config, n_trees=grid[-1]))
    rows_va, y_va = validation
    staged = staged_proba(full, rows_va, grid)
    scores = [(k, float(metric(proba, y_va))) for k, proba in zip(grid, staged)]
    best_count = max(scores, key=lambda item: item[1])[0]
    best_model = replace(
        full,
        trees=full.trees[:best_count],
        config=replace(full.config, n_trees=best_count),
        train_loss=full.train_loss[:best_count],
    )
    return GridResult(best_model=best_model, best_count=best_count, scores=scores)
