"""Test-side reference for the tree grower: growing one node at a time
from a first-in first-out queue, as the trees were grown before the
grower asked for a whole level's splits at once."""

from __future__ import annotations

from typing import Callable

import numpy as np

from iloscast.trees import _LEAF, NODE_DTYPES, Tree


def grow_fifo(
    columns: np.ndarray,
    root: np.ndarray,
    max_depth: int,
    find_split: Callable[[np.ndarray], tuple[float, int, float, bool] | None],
    leaf_value: Callable[[np.ndarray], float],
) -> Tree:
    """Grow one tree breadth-first over ``columns`` (d, n) from the row ids
    ``root``, asking ``find_split(idx)`` node by node as each leaves the
    queue; a node it gets None for, or does not ask, becomes a leaf of
    ``leaf_value(idx)``."""
    nodes: list[list | None] = [None]
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
    return Tree(*(np.asarray(column, dtype) for column, dtype in zip(zip(*nodes), NODE_DTYPES.values())))
