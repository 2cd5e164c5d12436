"""The logistic function shared by the tree ensembles and the recurrent model."""

from __future__ import annotations

import numpy as np


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-z)), without overflow and without branches.

    With e = exp(-|z|), the result is 1 / (1 + e) for z >= 0 and e / (1 + e)
    otherwise: the same two expressions, and so the same bits, as evaluating
    each sign's stable form on its own masked subset. NaN stays NaN. The
    form 0.5 * (1 + tanh(z / 2)) is not used here: it is as fast but rounds
    differently, and boosting margins pass through this function, so it
    would move booster splits.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)
