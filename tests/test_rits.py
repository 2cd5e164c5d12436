from __future__ import annotations

import numpy as np
import pytest

from iloscast.activation import sigmoid
from iloscast.errors import DataError
from iloscast.missing import compute_time_gaps
from iloscast.rits import (
    AdamState,
    BritsModel,
    CLASSIFIER_BLOCKS,
    LOGIT_CLAMP,
    RitsData,
    TrainSchedule,
    brits_forward,
    brits_loss_and_grads,
    brits_predict,
    evaluate_losses,
    finite_difference_block_errors,
    init_brits,
    total_loss,
    train_brits,
    _check_batch,
    _forward_pair,
    _loss_components,
    _rits_forward,
)

F, H = 5, 8


def make_batch(seed=0, batch=3, missing=0.4, steps=7):
    rng = np.random.default_rng(seed)
    mask = (rng.random((batch, steps, F)) > missing).astype(np.float64)
    x = np.where(mask == 1, rng.normal(size=(batch, steps, F)), 0.0)
    delta = compute_time_gaps(mask)
    y = (rng.random(batch) < 0.5).astype(np.float64)
    return x, mask, delta, y


def jittered_model(seed=3, jitter_seed=11):
    """Model at a generic parameter point: biases moved off the ReLU kink."""
    model = init_brits(F, hidden_size=H, seed=seed)
    jit = np.random.default_rng(jitter_seed)
    for d in (model.fwd, model.bwd):
        for arr in d.values():
            arr += jit.uniform(0.01, 0.08, size=arr.shape) * jit.choice([-1.0, 1.0], size=arr.shape)
        np.fill_diagonal(d["feat_W"], 0.0)
    return model


def test_all_absent_input_is_finite():
    model = init_brits(F, hidden_size=H, seed=0)
    mask = np.zeros((1, 7, F))
    x = np.zeros((1, 7, F))
    delta = compute_time_gaps(mask)
    out = _rits_forward(model.fwd, *_check_batch(x, mask, delta))
    assert np.isfinite(out["prob"]).all()
    assert out["est_per_sample"].mean() == 0.0  # no observed entries to penalize


def test_zero_delta_means_no_decay():
    model = init_brits(F, hidden_size=H, seed=0)
    # with b=0 and delta=0, gamma = exp(-relu(0)) = 1 at the first step
    x, mask, delta, _ = make_batch()
    delta0 = np.zeros_like(delta)
    params = model.fwd
    s = delta0[:, 0] @ params["decay_h_W"].T + params["decay_h_b"]
    gamma = np.exp(-np.maximum(0.0, s))
    np.testing.assert_array_equal(gamma, np.ones_like(gamma))


def test_fully_observed_complement_equals_input():
    model = jittered_model()
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 7, F))
    mask = np.ones_like(x)
    delta = compute_time_gaps(mask)
    out = _rits_forward(model.fwd, *_check_batch(x, mask, delta))
    np.testing.assert_array_equal(out["x_comp"], x)


def test_rits_rejects_nonfinite_input():
    model = init_brits(F, hidden_size=H, seed=0)
    x, mask, delta, _ = make_batch()
    x[0, 0, 0] = np.nan
    with pytest.raises(DataError, match="finite"):
        _rits_forward(model.fwd, *_check_batch(x, mask, delta))


def test_brits_probability_is_mean_of_directions():
    model = jittered_model()
    x, mask, delta, _ = make_batch()
    out = brits_forward(model, x, mask, delta)
    fwd, bwd, _ = _forward_pair(model, *_check_batch(x, mask, delta))
    np.testing.assert_array_equal(out.probability, 0.5 * (fwd["prob"] + bwd["prob"]))


def test_palindromic_input_with_tied_directions_has_zero_consistency():
    model = jittered_model()
    model.bwd = {k: v.copy() for k, v in model.fwd.items()}
    rng = np.random.default_rng(5)
    half = rng.normal(size=(1, 3, F))
    mid = rng.normal(size=(1, 1, F))
    x = np.concatenate([half, mid, half[:, ::-1]], axis=1)  # palindrome in time
    mask = np.ones_like(x)
    delta = compute_time_gaps(mask)
    comps = _loss_components(*_forward_pair(model, x, mask, delta), np.zeros(1))
    assert comps["consistency"] == pytest.approx(0.0, abs=1e-12)


def test_fully_observed_consistency_nonnegative():
    model = jittered_model()
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 7, F))
    mask = np.ones_like(x)
    delta = compute_time_gaps(mask)
    out = brits_forward(model, x, mask, delta)
    np.testing.assert_array_equal(out.imputed, x)  # complements pass observed through
    comps = _loss_components(*_forward_pair(model, x, mask, delta), np.zeros(2))
    assert comps["consistency"] >= 0.0


def test_loss_components_and_bounds():
    model = jittered_model()
    x, mask, delta, y = make_batch()
    comps = _loss_components(*_forward_pair(model, *_check_batch(x, mask, delta)), y)
    assert total_loss(comps) >= 0.0
    for key in ("estimation_fwd", "estimation_bwd", "consistency"):
        assert comps[key] >= 0.0


def test_loss_perfect_classifier_vanishing_bce():
    model = jittered_model()
    x, mask, delta, _ = make_batch(batch=2)
    fwd, bwd, diff = _forward_pair(model, *_check_batch(x, mask, delta))
    # force both directions to the clamped logit of a sure positive, label 1
    for out in (fwd, bwd):
        out["logit"] = np.full(2, LOGIT_CLAMP)
        out["est_per_sample"] = np.zeros(2)
    comps = _loss_components(fwd, bwd, np.zeros_like(diff), np.ones(2))
    assert comps["classification_fwd"] < 1e-6
    assert np.isfinite(total_loss(comps))


def test_loss_identical_directional_imputations_zero_consistency():
    model = jittered_model()
    x, mask, delta, y = make_batch()
    fwd, bwd, _ = _forward_pair(model, *_check_batch(x, mask, delta))
    bwd["x_comp"] = fwd["x_comp"][:, ::-1]
    diff = fwd["x_comp"] - bwd["x_comp"][:, ::-1]
    assert _loss_components(fwd, bwd, diff, y)["consistency"] == 0.0


def test_gradient_check_all_blocks_both_phases():
    model = jittered_model()
    x, mask, delta, y = make_batch(seed=7, batch=2)
    for phase in (1, 2):
        errors = finite_difference_block_errors(model, x, mask, delta, y, phase=phase)
        assert len(errors) == 30
        worst = max(errors.values())
        assert worst < 1e-5, {k: v for k, v in errors.items() if v >= 1e-5}


def test_masked_loss_locality():
    """Perturbing input entries where the mask is 0 leaves every loss
    component of both phases unchanged, bit for bit."""
    model = jittered_model()
    x, mask, delta, y = make_batch(seed=8)
    x2 = x.copy()
    x2[mask == 0] = 97.5  # absent cells are zero-filled by the pipeline
    # the model contract requires finite input, so perturb within that
    for phase in (1, 2):
        base, _ = brits_loss_and_grads(model, x, mask, delta, y, phase=phase)
        pert, _ = brits_loss_and_grads(model, x2, mask, delta, y, phase=phase)
        assert pert == base
    # observed entries pass through the imputation unchanged
    out1 = brits_forward(model, x, mask, delta)
    np.testing.assert_array_equal(out1.imputed * mask, x * mask)


def test_zero_diag_preserved_after_optimizer_steps():
    model = jittered_model()
    x, mask, delta, y = make_batch(seed=9)
    opt = AdamState(model)
    for _ in range(5):
        _, grads = brits_loss_and_grads(model, x, mask, delta, y, phase=2)
        opt.step(model, grads, 1e-3, None)
    for params in (model.fwd, model.bwd):
        np.testing.assert_array_equal(np.diag(params["feat_W"]), np.zeros(F))


def test_diag_of_feat_w_does_not_affect_loss():
    model = jittered_model()
    x, mask, delta, y = make_batch(seed=10)
    base, _ = brits_loss_and_grads(model, x, mask, delta, y, phase=2)
    model.fwd["feat_W"] = model.fwd["feat_W"].copy()
    np.fill_diagonal(model.fwd["feat_W"], 123.0)
    pert, _ = brits_loss_and_grads(model, x, mask, delta, y, phase=2)
    assert pert["total"] == base["total"]


def make_data(seed, n, separable=False):
    rng = np.random.default_rng(seed)
    mask = (rng.random((n, 7, F)) > 0.4).astype(np.float64)
    mask[:, :, 0] = 1.0  # feature 0 always observed
    x = np.where(mask == 1, rng.normal(size=(n, 7, F)), 0.0)
    if separable:
        y = (x[:, 6, 0] > 0).astype(np.float64)
        x[:, :, 0] += 2.0 * (2 * y - 1)[:, None]
    else:
        y = (rng.random(n) < 0.5).astype(np.float64)
    return RitsData(x=x, mask=mask, delta=compute_time_gaps(mask), label=y)


def test_zero_iteration_schedule_is_identity():
    model = init_brits(F, hidden_size=H, seed=1)
    data = make_data(20, 12)
    schedule = TrainSchedule(batch_size=4, max_epochs_phase1=0, max_epochs_phase2=0, seed=0)
    trained, history = train_brits(model, data, data, schedule)
    assert history == []
    for d in ("fwd", "bwd"):
        for k, v in getattr(model, d).items():
            np.testing.assert_array_equal(v, getattr(trained, d)[k])


def test_training_improves_separable_task():
    model = init_brits(F, hidden_size=16, seed=2)
    train = make_data(21, 160, separable=True)
    val = make_data(22, 48, separable=True)
    schedule = TrainSchedule(
        batch_size=16,
        learning_rate=3e-3,
        max_epochs_phase1=2,
        max_epochs_phase2=60,
        patience=60,
        seed=0,
    )
    trained, history = train_brits(model, train, val, schedule)
    phase2 = [h for h in history if h["phase"] == 2]
    assert phase2[-1]["train_classification"] < 0.1 * 2  # two directions summed


def test_training_deterministic():
    model = init_brits(F, hidden_size=H, seed=3)
    train = make_data(23, 40)
    val = make_data(24, 16)
    schedule = TrainSchedule(batch_size=16, max_epochs_phase1=2, max_epochs_phase2=2, seed=5)
    t1, h1 = train_brits(model, train, val, schedule)
    t2, h2 = train_brits(model, train, val, schedule)
    assert h1 == h2
    losses = ("total", "estimation", "consistency", "classification")
    columns = ["phase", "epoch"] + [f"{split}_{key}" for split in ("train", "val") for key in losses]
    assert [list(row) for row in h1] == [columns] * 4
    for d in ("fwd", "bwd"):
        for k in t1.fwd:
            np.testing.assert_array_equal(getattr(t1, d)[k], getattr(t2, d)[k])


def test_phase1_ignores_classification():
    model = jittered_model()
    x, mask, delta, y = make_batch(seed=25)
    comps, grads = brits_loss_and_grads(model, x, mask, delta, y, phase=1)
    assert comps["total"] == pytest.approx(
        comps["estimation_fwd"] + comps["estimation_bwd"] + comps["consistency"]
    )
    np.testing.assert_array_equal(grads["fwd"]["cls_W"], np.zeros(H))


def test_predict_deterministic_and_bounded():
    model = jittered_model()
    data = make_data(26, 20)
    p1 = brits_predict(model, data)
    p2 = brits_predict(model, data)
    np.testing.assert_array_equal(p1, p2)
    assert np.all((p1 > 0) & (p1 < 1))


def test_impute_passes_observed_through():
    model = jittered_model()
    data = make_data(27, 10)
    dense = brits_forward(model, data.x, data.mask, data.delta).imputed
    np.testing.assert_array_equal(dense[data.mask == 1], data.x[data.mask == 1])
    assert np.isfinite(dense).all()


def test_freeze_classifier_only_updates_nothing_else():
    model = jittered_model()
    data = make_data(28, 32)
    schedule = TrainSchedule(
        batch_size=8,
        max_epochs_phase1=0,
        max_epochs_phase2=3,
        trainable=CLASSIFIER_BLOCKS,
        seed=1,
    )
    trained, _ = train_brits(model, data, data, schedule)
    for d in ("fwd", "bwd"):
        for k in model.fwd:
            if k in CLASSIFIER_BLOCKS:
                assert not np.array_equal(getattr(model, d)[k], getattr(trained, d)[k])
            else:
                np.testing.assert_array_equal(getattr(model, d)[k], getattr(trained, d)[k])


def test_model_save_load_round_trip(tmp_path):
    model = jittered_model()
    path = tmp_path / "model.ilos"
    model.save(path)
    loaded = BritsModel.load(path)
    assert loaded.hidden_size == model.hidden_size
    data = make_data(29, 6)
    np.testing.assert_array_equal(brits_predict(model, data), brits_predict(loaded, data))


def test_decay_factors_in_unit_interval():
    model = jittered_model()
    x, mask, delta, _ = make_batch(seed=30, batch=4)
    params = model.fwd
    for t in range(7):
        s = delta[:, t] @ params["decay_h_W"].T + params["decay_h_b"]
        gamma = np.exp(-np.maximum(0.0, s))
        assert np.all((gamma > 0.0) & (gamma <= 1.0))


def test_fused_gates_match_separate_nonlinearities():
    """One tanh yields sigmoid input/forget/output and tanh candidate gates."""
    model = jittered_model()
    x, mask, delta, _ = make_batch(seed=31, batch=4)
    params = model.fwd
    cache = _rits_forward(params, x, mask, delta, keep_steps=True)
    for st in cache["steps"]:
        a = st["u"] @ params["lstm_W"].T + st["h_dec"] @ params["lstm_U"].T + params["lstm_b"]
        want = np.concatenate(
            [sigmoid(a[:, : 2 * H]), np.tanh(a[:, 2 * H : 3 * H]), sigmoid(a[:, 3 * H :])],
            axis=1,
        )
        np.testing.assert_allclose(st["gates"], want, rtol=0, atol=4e-16)


def test_forward_only_pass_equals_training_forward_bit_for_bit():
    model = jittered_model()
    x, mask, delta = _check_batch(*make_batch(seed=32, batch=6)[:3])
    for params in (model.fwd, model.bwd):
        bare = _rits_forward(params, x, mask, delta)
        cached = _rits_forward(params, x, mask, delta, keep_steps=True)
        assert bare["steps"] == [] and len(cached["steps"]) == x.shape[1]
        for key in ("prob", "logit", "x_prime", "x_comp", "h_last", "est_per_sample"):
            assert bare[key].tobytes() == cached[key].tobytes(), key
    # brits_forward is the cache-free pair; the training pair keeps caches.
    out = brits_forward(model, x, mask, delta)
    fwd, bwd, _ = _forward_pair(model, x, mask, delta, keep_steps=True)
    probability = 0.5 * (fwd["prob"] + bwd["prob"])
    imputed = mask * x + (1.0 - mask) * (0.5 * (fwd["x_prime"] + bwd["x_prime"][:, ::-1]))
    assert out.probability.tobytes() == probability.tobytes()
    assert out.imputed.tobytes() == imputed.tobytes()


def test_validation_losses_equal_training_components():
    """evaluate_losses over one batch reproduces the training step's loss."""
    model = jittered_model()
    data = make_data(33, 12)
    for phase in (1, 2):
        comps, _ = brits_loss_and_grads(
            model, data.x, data.mask, data.delta, data.label, phase=phase
        )
        val = evaluate_losses(model, data, phase, batch_size=data.n)
        for key, value in comps.items():
            assert val[key] == pytest.approx(value, rel=1e-14, abs=0.0), key
