"""Training steps and forward-only passes on two threads: same bits as one
thread, errors and forks handled, and the thread count chosen from the
environment."""

from __future__ import annotations

import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from iloscast import rits, trees
from iloscast.container import write_container
from iloscast.cpus import usable_cpus
from iloscast.missing import compute_time_gaps
from iloscast.rits import (
    RitsData,
    StepWorkspace,
    TrainSchedule,
    backward_inputs,
    brits_forward,
    brits_loss_and_grads,
    brits_predict,
    classification_weight,
    evaluate_losses,
    init_brits,
    loss_summary,
    train_brits,
    _check_batch,
    _loss_components,
    _rits_backward,
    _rits_forward,
)
from iloscast.trees import BoosterConfig, train_gbdt


def make_batch(seed, batch, steps, features, missing=0.5):
    rng = np.random.default_rng(seed)
    mask = (rng.random((batch, steps, features)) > missing).astype(np.float64)
    x = np.where(mask == 1, rng.normal(size=(batch, steps, features)), 0.0)
    y = (rng.random(batch) < 0.3).astype(np.float64)
    return x, mask, compute_time_gaps(mask), y


def jittered_model(features, hidden, seed):
    model = init_brits(features, hidden_size=hidden, seed=seed)
    jit = np.random.default_rng(seed + 1)
    for d in (model.fwd, model.bwd):
        for arr in d.values():
            arr += jit.uniform(0.01, 0.08, size=arr.shape) * jit.choice([-1.0, 1.0], size=arr.shape)
        np.fill_diagonal(d["feat_W"], 0.0)
    return model


def sequential_reference(model, x, mask, delta, y, phase):
    """One direction after the other on the calling thread, composed from
    the directional passes with the step's loss and upstream gradients."""
    x, mask, delta = _check_batch(x, mask, delta)
    fwd = _rits_forward(model.fwd, x, mask, delta, keep_steps=True)
    bwd = _rits_forward(model.bwd, *backward_inputs(x, mask), keep_steps=True)
    diff = fwd["x_comp"] - bwd["x_comp"][:, ::-1]
    comps = _loss_components(fwd, bwd, diff, y)
    scale = 1.0 / diff.size
    d_chat_fwd = (1.0 - mask) * np.sign(diff) * scale
    d_chat_bwd = ((1.0 - mask) * -np.sign(diff) * scale)[:, ::-1].copy()
    w_cls, B = classification_weight(phase), x.shape[0]
    grads = {
        "fwd": _rits_backward(model.fwd, fwd, d_chat_fwd, w_cls * ((fwd["prob"] - y) / B)),
        "bwd": _rits_backward(model.bwd, bwd, d_chat_bwd, w_cls * ((bwd["prob"] - y) / B)),
    }
    return comps, grads


def grad_bytes(grads):
    return {f"{d}.{k}": v.tobytes() for d in ("fwd", "bwd") for k, v in grads[d].items()}


@pytest.fixture
def two_threads(monkeypatch):
    """Force the worker on, and record which thread runs each direction."""
    monkeypatch.setattr(rits, "step_threads", lambda: 2)
    threads = []
    forward = rits._rits_forward

    def recording_forward(params, *args, **kwargs):
        threads.append(threading.current_thread().name)
        return forward(params, *args, **kwargs)

    monkeypatch.setattr(rits, "_rits_forward", recording_forward)
    return threads


@pytest.mark.parametrize("shape", [(2, 7, 5, 8), (256, 7, 19, 96)], ids=["criterion4", "benchmark"])
def test_threaded_step_equals_sequential_reference(two_threads, shape):
    B, T, F, H = shape
    model = jittered_model(F, H, seed=B)
    x, mask, delta, y = make_batch(B + 1, B, T, F)
    workspace = StepWorkspace()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads' Python code finely
    try:
        for phase in (1, 2):
            want_comps, want_grads = sequential_reference(model, x, mask, delta, y, phase)
            for ws in (None, workspace, workspace):
                two_threads.clear()
                comps, grads = brits_loss_and_grads(model, x, mask, delta, y, phase=phase, workspace=ws)
                assert len(set(two_threads)) == 2, two_threads
                for key, value in want_comps.items():
                    assert np.float64(comps[key]).tobytes() == np.float64(value).tobytes(), key
                assert grad_bytes(grads) == grad_bytes(want_grads)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("where", ["_rits_forward", "_rits_backward"])
def test_worker_exception_reaches_the_caller(two_threads, monkeypatch, where):
    model = jittered_model(5, 8, seed=1)
    x, mask, delta, y = make_batch(2, 4, 7, 5)
    original = getattr(rits, where)

    def failing(params, *args, **kwargs):
        if params is model.bwd:
            raise FloatingPointError(f"{where} failed on {threading.current_thread().name}")
        return original(params, *args, **kwargs)

    monkeypatch.setattr(rits, where, failing)
    with pytest.raises(FloatingPointError, match="iloscast-bwd"):
        brits_loss_and_grads(model, x, mask, delta, y)
    # The worker survives its job's error and serves the next step.
    monkeypatch.setattr(rits, where, original)
    _, grads = brits_loss_and_grads(model, x, mask, delta, y)
    assert grad_bytes(grads) == grad_bytes(sequential_reference(model, x, mask, delta, y, 2)[1])


def sequential_pair(model, x, mask, delta):
    """The two directions' forward-only passes, one after the other on the
    calling thread, each over fresh arrays."""
    x, mask, delta = _check_batch(x, mask, delta)
    return x, mask, _rits_forward(model.fwd, x, mask, delta), _rits_forward(model.bwd, *backward_inputs(x, mask))


def sequential_forward_only(model, data, batch):
    """What brits_forward (over the whole data), brits_predict and
    evaluate_losses (over batches of ``batch``) return, composed from
    sequential directional passes."""
    x, mask, fwd, bwd = sequential_pair(model, data.x, data.mask, data.delta)
    forward = (
        0.5 * (fwd["prob"] + bwd["prob"]),
        mask * x + (1.0 - mask) * (0.5 * (fwd["x_prime"] + bwd["x_prime"][:, ::-1])),
    )
    prob = np.empty(data.n)
    sums = {phase: dict.fromkeys(rits.LOSS_COMPONENTS, 0.0) for phase in (1, 2)}
    for lo in range(0, data.n, batch):
        hi = min(lo + batch, data.n)
        _, _, fwd, bwd = sequential_pair(model, data.x[lo:hi], data.mask[lo:hi], data.delta[lo:hi])
        prob[lo:hi] = 0.5 * (fwd["prob"] + bwd["prob"])
        diff = fwd["x_comp"] - bwd["x_comp"][:, ::-1]
        comps = _loss_components(fwd, bwd, diff, data.label[lo:hi])
        for phase in (1, 2):
            for key in sums[phase]:
                sums[phase][key] += comps[key] * (hi - lo)
    losses = {phase: loss_summary(sums[phase], data.n, phase) for phase in (1, 2)}
    return forward, prob, losses


def float_bytes(summary):
    return {key: np.float64(value).tobytes() for key, value in summary.items()}


@pytest.mark.parametrize(
    "shape",
    [(2, 7, 5, 8, 1024), (1024, 7, 19, 96, 1024), (1324, 7, 19, 96, 1024)],
    ids=["criterion4", "one-batch", "ragged-last-batch"],
)
def test_forward_only_passes_on_two_threads_equal_sequential(two_threads, shape):
    """brits_forward, brits_predict and evaluate_losses run the backward
    direction on the worker and return the sequential bytes."""
    B, T, F, H, batch = shape
    model = jittered_model(F, H, seed=B)
    data = RitsData(*make_batch(B + 2, B, T, F))
    (want_prob, want_imputed), want_predict, want_losses = sequential_forward_only(model, data, batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        two_threads.clear()
        out = brits_forward(model, data.x, data.mask, data.delta)
        assert out.probability.tobytes() == want_prob.tobytes()
        assert out.imputed.tobytes() == want_imputed.tobytes()
        assert brits_predict(model, data, batch).tobytes() == want_predict.tobytes()
        for phase in (1, 2):
            assert float_bytes(evaluate_losses(model, data, phase, batch)) == float_bytes(want_losses[phase])
        assert len(set(two_threads)) == 2, two_threads
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("entry", ["brits_predict", "evaluate_losses"])
def test_forward_only_worker_exception_reaches_the_caller(two_threads, monkeypatch, entry):
    model = jittered_model(5, 8, seed=2)
    data = RitsData(*make_batch(3, 6, 7, 5))
    run = {"brits_predict": lambda: brits_predict(model, data, 4), "evaluate_losses": lambda: evaluate_losses(model, data, 2, 4)}[entry]
    want = sequential_forward_only(model, data, 4)
    original = rits._rits_forward

    def failing(params, *args, **kwargs):
        if params is model.bwd:
            raise FloatingPointError(f"forward failed on {threading.current_thread().name}")
        return original(params, *args, **kwargs)

    monkeypatch.setattr(rits, "_rits_forward", failing)
    with pytest.raises(FloatingPointError, match="iloscast-bwd"):
        run()
    # The worker survives its job's error and serves the next call.
    monkeypatch.setattr(rits, "_rits_forward", original)
    if entry == "brits_predict":
        assert run().tobytes() == want[1].tobytes()
    else:
        assert float_bytes(run()) == float_bytes(want[2][2])


@pytest.mark.parametrize(
    "openblas, omp, cpus, want",
    [
        ("1", None, 2, 2),
        ("1", None, 1, 1),
        (None, "1", 4, 2),
        ("2", "1", 2, 1),
        ("4", None, 2, 1),
        (None, None, 2, 1),
    ],
)
def test_step_threads_follow_the_environment(monkeypatch, openblas, omp, cpus, want):
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert rits.step_threads() == want


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_booster_fit_beside_a_live_step_thread_saves_the_same_bytes(two_threads, monkeypatch, tmp_path):
    """The booster's split worker is forked while the step worker thread
    lives; the trees equal those of a fit with one usable CPU."""
    rng = np.random.default_rng(41)
    rows = rng.normal(size=(1300, 6))
    rows[rng.random(rows.shape) < 0.3] = np.nan
    labels = (np.nan_to_num(rows[:, 0]) + rng.normal(size=1300) > 0.5).astype(float)
    config = BoosterConfig(n_trees=3, max_depth=4)
    monkeypatch.setattr(trees, "SPLIT_WORKER_MIN_FIT_CELLS", 0)
    monkeypatch.setattr(trees, "SPLIT_WORKER_MIN_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    write_container(tmp_path / "one.ilos", *train_gbdt(rows, labels, config).to_container())

    brits_loss_and_grads(jittered_model(5, 8, seed=6), *make_batch(6, 5, 7, 5))
    assert any(t.name.startswith("iloscast-bwd") for t in threading.enumerate())
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    write_container(tmp_path / "two.ilos", *train_gbdt(rows, labels, config).to_container())
    assert forks
    assert (tmp_path / "two.ilos").read_bytes() == (tmp_path / "one.ilos").read_bytes()


def test_sequential_step_starts_no_thread(monkeypatch):
    monkeypatch.setattr(rits, "step_threads", lambda: 1)
    monkeypatch.setattr(rits, "_worker", None)
    model = jittered_model(5, 8, seed=3)
    brits_loss_and_grads(model, *make_batch(4, 3, 7, 5))
    assert rits._worker is None


def test_sequential_prediction_starts_no_thread(monkeypatch):
    monkeypatch.setattr(rits, "step_threads", lambda: 1)
    monkeypatch.setattr(rits, "_worker", None)
    before = threading.active_count()
    model = jittered_model(5, 8, seed=4)
    data = RitsData(*make_batch(5, 9, 7, 5))
    brits_predict(model, data, 4)
    evaluate_losses(model, data, 2, 4)
    assert rits._worker is None
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_steps_after_a_threaded_step(two_threads):
    model = jittered_model(5, 8, seed=5)
    batch = make_batch(6, 5, 7, 5)
    _, grads = brits_loss_and_grads(model, *batch)
    assert rits._worker is not None
    want = pickle.dumps(grad_bytes(grads))
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            signal.alarm(30)
            _, child = brits_loss_and_grads(model, *batch)
            os.write(write_end, b"same" if pickle.dumps(grad_bytes(child)) == want else b"diff")
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 20.0)
        answer = os.read(read_end, 4) if ready else b""
    finally:
        os.close(read_end)
        if not answer:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert answer == b"same", "the child's step hung or failed" if not answer else answer


def tiny_fit():
    x, mask, delta, y = make_batch(7, 60, 7, 6)
    train = RitsData(x[:44], mask[:44], delta[:44], y[:44])
    validation = RitsData(x[44:], mask[44:], delta[44:], y[44:])
    schedule = TrainSchedule(
        hidden_size=8, batch_size=16, max_epochs_phase1=2, max_epochs_phase2=2, seed=4
    )
    model, history = train_brits(init_brits(6, 8, seed=4), train, validation, schedule)
    params = {f"{d}.{k}": v.tobytes() for d in ("fwd", "bwd") for k, v in getattr(model, d).items()}
    return params, history


def _fit_in_child(path):
    params, history = tiny_fit()
    with open(path, "wb") as fh:
        pickle.dump((rits.step_threads(), rits._worker is not None, params, history), fh)


def test_pinned_child_fits_the_same_bits_on_two_threads(tmp_path, monkeypatch):
    """A fresh interpreter with BLAS pinned to one thread trains on two
    threads; its parameters and history equal a sequential fit here."""
    monkeypatch.setattr(rits, "step_threads", lambda: 1)
    want_params, want_history = tiny_fit()
    path = tmp_path / "fit.pkl"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    # A plain subprocess, not multiprocessing's spawn context, whose
    # resource-tracker process would outlive the test.
    here = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([here, *filter(None, sys.path)]))
    code = "import sys, test_step_threads; test_step_threads._fit_in_child(sys.argv[1])"
    child = subprocess.run([sys.executable, "-c", code, str(path)], timeout=60)
    assert child.returncode == 0
    with open(path, "rb") as fh:
        threads, worker_started, params, history = pickle.load(fh)
    if len(os.sched_getaffinity(0)) >= 2:
        assert threads == 2 and worker_started
    assert params == want_params
    assert history == want_history
