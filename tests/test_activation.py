from __future__ import annotations

import numpy as np

from iloscast.activation import sigmoid


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """Reference: each sign's stable form evaluated on its own masked subset."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    scales = 10.0 ** rng.uniform(-3.0, np.log10(800.0), size=200_000)
    special = [0.0, -0.0, 1e-310, -1e-310, 36.7, -36.7, 709.0, -709.0, 745.0, -745.0,
               800.0, -800.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
    z = np.concatenate([rng.normal(size=scales.size) * scales, special])
    got, want = sigmoid(z), masked_sigmoid(z)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    assert np.all((got[~nan] >= 0.0) & (got[~nan] <= 1.0))


def test_sigmoid_keeps_shape_of_2d_input():
    z = np.linspace(-40.0, 40.0, 24).reshape(4, 6)
    assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
