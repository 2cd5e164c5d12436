"""Test-side references for the recurrent model: finite-difference
gradients, and classifier-only training as full training with every other
block's gradient zeroed."""

from __future__ import annotations

from unittest import mock

import numpy as np

from iloscast import rits
from iloscast.rits import (
    CLASSIFIER_BLOCKS,
    _check_batch,
    _complement_gap,
    _loss_components,
    _rits_forward,
    backward_inputs,
    brits_loss_and_grads,
    total_loss,
)


def finite_difference_block_errors(model, x, mask, delta, label, phase=2, eps=1e-6):
    """Relative error per parameter block between analytic and central
    finite-difference gradients.

    The error is ||fd - analytic|| / max(||fd||, ||analytic||) over each
    block, which keeps float64 roundoff on near-zero entries from
    swamping the comparison. The constrained diagonal of the
    feature-regression weight is excluded (it does not affect the loss).
    Perturbed losses come from forward-only passes on the calling thread,
    whose total equals the training step's bit for bit; a perturbation
    reruns only the direction it touches.
    """
    _, grads = brits_loss_and_grads(model, x, mask, delta, label, phase=phase)
    x, mask, delta = _check_batch(x, mask, delta)
    y = np.asarray(label, dtype=np.float64).reshape(-1)
    inputs = {"fwd": (x, mask, delta), "bwd": backward_inputs(x, mask)}
    unperturbed = {d: _rits_forward(getattr(model, d), *inputs[d]) for d in inputs}

    def loss(dname: str) -> float:
        out = dict(unperturbed)
        out[dname] = _rits_forward(getattr(model, dname), *inputs[dname])
        fwd, bwd = out["fwd"], out["bwd"]
        return total_loss(_loss_components(fwd, bwd, _complement_gap(fwd, bwd), y), phase)

    errors: dict[str, float] = {}
    for dname in ("fwd", "bwd"):
        params = getattr(model, dname)
        for name, arr in params.items():
            flat = arr.ravel()
            fd = np.zeros_like(flat)
            skip_diag = name == "feat_W"
            f_dim = arr.shape[0] if skip_diag else 0
            for i in range(flat.size):
                if skip_diag and i % (f_dim + 1) == 0:
                    continue
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss(dname)
                flat[i] = orig - eps
                lm = loss(dname)
                flat[i] = orig
                fd[i] = (lp - lm) / (2.0 * eps)
            g = grads[dname][name].ravel()
            denom = max(float(np.linalg.norm(fd)), float(np.linalg.norm(g)), 1e-12)
            errors[f"{dname}.{name}"] = float(np.linalg.norm(fd - g) / denom)
    return errors


def train_with_head_gradients_only(model, train, validation, schedule):
    """``train_brits`` with every non-classifier gradient zeroed before each
    Adam step: zero gradients leave Adam's moments at zero, so those
    blocks never move, and the head trains as on its own."""
    full_step = rits.brits_loss_and_grads

    def head_gradients_only(*args, **kwargs):
        comps, grads = full_step(*args, **kwargs)
        for direction in grads.values():
            for name, grad in direction.items():
                if name not in CLASSIFIER_BLOCKS:
                    grad[...] = 0.0
        return comps, grads

    with mock.patch.object(rits, "brits_loss_and_grads", head_gradients_only):
        return rits.train_brits(model, train, validation, schedule)
