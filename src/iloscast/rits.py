"""Recurrent imputation + classification model and its bidirectional pair.

One directional model runs, per step: temporal decay of the hidden state,
a history-based regression estimate, a feature-based regression estimate
(zero-diagonal weight, so a feature never predicts itself), a learned
convex combination of the two, complement formation, and an LSTM cell
consuming the complement concatenated with the mask. A classifier head
reads the last hidden state. The bidirectional wrapper runs a second model
on time-reversed input and averages outputs; a consistency penalty ties
the two directions' imputation matrices together.

Everything is float64 numpy with hand-written backpropagation, verified
against central finite differences.

Recurrent model cost: one step evaluates the four LSTM gates with a single
``tanh`` over the (B, 4H) pre-activation, since sigma(a) = 1/2 +
tanh(a/2)/2, and keeps that one (B, 4H) gate array for backprop. The
forward writes every per-step quantity in place into one (T, B, width)
array, which training reuses across steps (``StepWorkspace``); backprop
uses plain temporaries, because writing them in place measured no faster.
Every pass, training step or forward-only, runs the two directions on
two threads when ``step_threads()`` allows it, with the same bits as one
thread. Forward-only passes (``brits_forward`` and through it prediction,
and ``evaluate_losses``) run the same time loop with step caching off,
rewriting one slot per quantity, and sum the estimation error inside it.
Classifier-only fine-tuning (``train_classifier_head``) runs one such
pass and then trains the head alone on what it cached. The
other sigmoids (combination weight, output probability) use the shared
``activation.sigmoid``, the exact branch-free form of the two-sided
stable sigmoid; the tanh form would round differently, which the tree
ensembles sharing that function must not do.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .activation import sigmoid
from .container import read_container, require_keys, write_container
from .cpus import usable_cpus
from .errors import ConfigError, DataError, NumericError
from .missing import compute_time_gaps

LOGIT_CLAMP = 15.0


def rits_param_shapes(n_features: int, hidden_size: int) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter block of one direction, in a fixed order."""
    f, h = n_features, hidden_size
    return {
        "decay_h_W": (h, f),
        "decay_h_b": (h,),
        "decay_x_W": (f, f),
        "decay_x_b": (f,),
        "hist_W": (f, h),
        "hist_b": (f,),
        "feat_W": (f, f),
        "feat_b": (f,),
        "comb_W": (f, 2 * f),
        "comb_b": (f,),
        "lstm_W": (4 * h, 2 * f),
        "lstm_U": (4 * h, h),
        "lstm_b": (4 * h,),
        "cls_W": (h,),
        "cls_b": (1,),
    }


#: Parameter blocks of one direction; the classifier blocks are the ones
#: fine-tuning may single out.
PARAM_BLOCKS = tuple(rits_param_shapes(1, 1))
CLASSIFIER_BLOCKS = ("cls_W", "cls_b")


def init_rits_params(
    n_features: int, hidden_size: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(H) weights, zero biases, forget-gate bias 1.

    The weights are drawn in ``PARAM_BLOCKS`` order.
    """
    k = 1.0 / np.sqrt(hidden_size)
    params = {
        name: np.zeros(shape) if name.endswith("_b") else rng.uniform(-k, k, size=shape)
        for name, shape in rits_param_shapes(n_features, hidden_size).items()
    }
    np.fill_diagonal(params["feat_W"], 0.0)
    params["lstm_b"][hidden_size : 2 * hidden_size] = 1.0
    return params


@dataclass
class BritsModel:
    """Forward and backward directional parameter sets."""

    fwd: dict[str, np.ndarray]
    bwd: dict[str, np.ndarray]
    n_features: int
    hidden_size: int

    def copy(self) -> "BritsModel":
        return BritsModel(
            fwd={k: v.copy() for k, v in self.fwd.items()},
            bwd={k: v.copy() for k, v in self.bwd.items()},
            n_features=self.n_features,
            hidden_size=self.hidden_size,
        )

    def save(self, path: str | Path) -> None:
        arrays = {}
        for tag, params in (("fwd", self.fwd), ("bwd", self.bwd)):
            for name, arr in params.items():
                arrays[f"{tag}.{name}"] = arr
        meta = {
            "format": "iloscast-brits",
            "version": 1,
            "n_features": self.n_features,
            "hidden_size": self.hidden_size,
        }
        write_container(path, arrays, meta)

    @classmethod
    def load(cls, path: str | Path) -> "BritsModel":
        arrays, meta = read_container(path)
        if meta.get("format") != "iloscast-brits" or meta.get("version") != 1:
            raise DataError(f"{path}: not a version-1 model file")
        # Other keys are ignored: older files also hold the unit loss weights
        # that are now constants.
        require_keys(meta, ("n_features", "hidden_size"), path, "metadata")
        try:
            n_features, hidden_size = int(meta["n_features"]), int(meta["hidden_size"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed model metadata: {exc}") from None
        shapes = rits_param_shapes(n_features, hidden_size)
        params = {}
        for tag in ("fwd", "bwd"):
            params[tag] = {k.split(".", 1)[1]: v for k, v in arrays.items() if k.startswith(f"{tag}.")}
            for name in PARAM_BLOCKS:
                block = params[tag].get(name)
                if block is None or block.shape != shapes[name]:
                    got = "missing" if block is None else f"shape {block.shape}"
                    raise DataError(
                        f"{path}: block {tag}.{name} is {got}, expected shape {shapes[name]} "
                        f"for n_features={n_features}, hidden_size={hidden_size}"
                    )
        return cls(
            fwd=params["fwd"],
            bwd=params["bwd"],
            n_features=n_features,
            hidden_size=hidden_size,
        )


def init_brits(n_features: int, hidden_size: int, seed: int = 0) -> BritsModel:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB1D1)))
    return BritsModel(
        fwd=init_rits_params(n_features, hidden_size, rng),
        bwd=init_rits_params(n_features, hidden_size, rng),
        n_features=n_features,
        hidden_size=hidden_size,
    )


def _check_batch(x: np.ndarray, mask: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, ...]:
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if x.ndim == 2:
        x, mask, delta = x[None], mask[None], delta[None]
    if x.ndim != 3 or x.shape != mask.shape or x.shape != delta.shape:
        raise DataError(f"x/mask/delta shapes disagree: {x.shape} {mask.shape} {delta.shape}")
    if not (np.isfinite(x).all() and np.isfinite(delta).all()):
        raise DataError("model input must be finite (zero-fill absent entries)")
    return x, mask, delta


def _gate_affine(hidden_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale and shift that turn one tanh into the four LSTM gates.

    sigma(a) = 1/2 + tanh(a/2)/2, so with gates = tanh(a * scale) * scale +
    shift the input, forget and output blocks (scale 1/2, shift 1/2) are
    sigmoids and the candidate block (scale 1, shift 0) is tanh(a).
    """
    h = hidden_size
    scale = np.full(4 * h, 0.5)
    scale[2 * h : 3 * h] = 1.0
    shift = np.where(scale == 0.5, 0.5, 0.0)
    return scale, shift


#: The per-step quantities that backprop reads, with their widths in terms
#: of the feature count F and hidden size H; ``*_pos`` ones are boolean.
STEP_WIDTHS = {
    "gamma_h": (0, 1), "s_h_pos": (0, 1), "s_x_pos": (1, 0), "h_dec": (0, 1),
    "xhat": (1, 0), "xh": (1, 0), "zhat": (1, 0), "comb_in": (2, 0), "beta": (1, 0),
    "chat": (1, 0), "u": (2, 0), "gates": (0, 4), "tanh_c": (0, 1),
}


def _step_arrays(T: int, B: int, F: int, H: int, keep_steps: bool) -> dict[str, np.ndarray]:
    """Arrays one direction's time loop writes in place.

    Each ``STEP_WIDTHS`` quantity gets a (T, B, width) array with
    ``keep_steps`` and one slot rewritten every step without; the hidden and
    cell states ``h``/``c`` get one slot more for the initial state, or a
    pair of slots taken in turn. ``s_h``, ``gi_gg`` and ``h_gates`` are
    one-slot scratch.
    """
    slots = T if keep_steps else 1
    arrays = {
        name: np.empty((slots, B, nf * F + nh * H), dtype=bool if name.endswith("_pos") else np.float64)
        for name, (nf, nh) in STEP_WIDTHS.items()
    }
    for name in ("h", "c"):
        arrays[name] = np.empty((slots + 1, B, H))
    for name, width in {"s_h": H, "gi_gg": H, "h_gates": 4 * H}.items():
        arrays[name] = np.empty((1, B, width))
    return arrays


class StepWorkspace:
    """Step arrays of both directions, reused by every batch of one fit or
    one forward-only pass, so that each batch writes memory already mapped
    instead of fresh pages. Caching (``keep_steps``) and one-slot arrays
    are held apart. A batch takes the first B rows of each array; a larger
    batch or another shape allocates anew."""

    def __init__(self) -> None:
        self._held: dict[tuple[str, bool], tuple[tuple[int, int, int], dict[str, np.ndarray]]] = {}

    def arrays(
        self, direction: str, T: int, B: int, F: int, H: int, keep_steps: bool
    ) -> dict[str, np.ndarray]:
        key = (direction, keep_steps)
        shape, held = self._held.get(key, (None, {}))
        if shape != (T, F, H) or held["h"].shape[1] < B:
            held = _step_arrays(T, B, F, H, keep_steps)
            self._held[key] = ((T, F, H), held)
        return {name: arr[:, :B] for name, arr in held.items()}


def _rits_forward(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    mask: np.ndarray,
    delta: np.ndarray,
    keep_steps: bool = False,
    arrays: dict[str, np.ndarray] | None = None,
) -> dict:
    """Forward pass of one direction over checked (B, T, F) input.

    With ``keep_steps`` the result also holds the per-step intermediates
    that backprop needs, as ``steps[t]`` views into ``arrays`` (see
    ``_step_arrays``; allocated when not given); forward-only callers leave
    it off and keep none.
    """
    B, T, F = x.shape
    H = params["cls_W"].shape[0]
    offdiag = 1.0 - np.eye(F)
    w_off = params["feat_W"] * offdiag
    gate_scale, gate_shift = _gate_affine(H)

    if arrays is None:
        arrays = _step_arrays(T, B, F, H, keep_steps)
    hs, cs = arrays["h"], arrays["c"]
    hs[0] = 0.0
    cs[0] = 0.0
    state_slots = hs.shape[0]
    s_h, gi_gg, h_gates = arrays["s_h"][0], arrays["gi_gg"][0], arrays["h_gates"][0]
    steps = []
    x_prime = np.empty((B, T, F))
    x_comp = np.empty((B, T, F))
    abs_err = np.zeros(B)

    for t in range(T):
        xt, mt, dt = x[:, t], mask[:, t], delta[:, t]
        st = {name: arrays[name][t if keep_steps else 0] for name in STEP_WIDTHS}
        st["h_prev"], h = hs[t % state_slots], hs[(t + 1) % state_slots]
        st["c_prev"], c = cs[t % state_slots], cs[(t + 1) % state_slots]
        gamma_h, h_dec, xhat, xh, zhat, comb_in, beta, chat, u, gates = (
            st[name]
            for name in ("gamma_h", "h_dec", "xhat", "xh", "zhat", "comb_in", "beta", "chat", "u", "gates")
        )

        np.matmul(dt, params["decay_h_W"].T, out=s_h)
        s_h += params["decay_h_b"]
        np.greater(s_h, 0, out=st["s_h_pos"])
        np.maximum(0.0, s_h, out=gamma_h)
        np.negative(gamma_h, out=gamma_h)
        np.exp(gamma_h, out=gamma_h)
        s_x = dt @ params["decay_x_W"].T + params["decay_x_b"]
        np.greater(s_x, 0, out=st["s_x_pos"])
        comb_in[:, :F] = np.exp(-np.maximum(0.0, s_x))
        comb_in[:, F:] = mt
        np.multiply(gamma_h, st["h_prev"], out=h_dec)
        np.matmul(h_dec, params["hist_W"].T, out=xhat)
        xhat += params["hist_b"]
        not_mt = 1.0 - mt
        np.multiply(mt, xt, out=xh)
        xh += not_mt * xhat
        np.matmul(xh, w_off.T, out=zhat)
        zhat += params["feat_b"]
        beta[...] = sigmoid(comb_in @ params["comb_W"].T + params["comb_b"])
        np.multiply(beta, zhat, out=chat)
        chat += (1.0 - beta) * xhat
        xc = mt * xt + not_mt * chat
        u[:, :F] = xc
        u[:, F:] = mt
        np.matmul(u, params["lstm_W"].T, out=gates)
        np.matmul(h_dec, params["lstm_U"].T, out=h_gates)
        gates += h_gates
        gates += params["lstm_b"]
        gates *= gate_scale
        np.tanh(gates, out=gates)
        gates *= gate_scale
        gates += gate_shift
        gi, gf, gg, go = (gates[:, k * H : (k + 1) * H] for k in range(4))
        np.multiply(gf, st["c_prev"], out=c)
        np.multiply(gi, gg, out=gi_gg)
        c += gi_gg
        np.tanh(c, out=st["tanh_c"])
        np.multiply(go, st["tanh_c"], out=h)

        x_prime[:, t] = chat
        x_comp[:, t] = xc
        err = np.abs(xhat - xt) + np.abs(zhat - xt) + np.abs(chat - xt)
        abs_err += (mt * err).sum(axis=1)
        if keep_steps:
            steps.append(st)

    h_last = hs[T % state_slots]
    est_norm = 3.0 * np.maximum(mask.reshape(B, -1).sum(axis=1), 1.0)

    return {
        "x": x,
        "mask": mask,
        "delta": delta,
        "w_off": w_off,
        "offdiag": offdiag,
        "steps": steps,
        "h_last": h_last,
        "x_prime": x_prime,
        "x_comp": x_comp,
        **_head(params, h_last),
        "est_per_sample": abs_err / est_norm,
        "est_norm": est_norm,
    }


def _head(params: dict[str, np.ndarray], h_last: np.ndarray) -> dict[str, np.ndarray]:
    """The classifier head on the last hidden states: raw and clamped logit
    and the probability."""
    logit_raw = h_last @ params["cls_W"] + params["cls_b"][0]
    logit = np.clip(logit_raw, -LOGIT_CLAMP, LOGIT_CLAMP)
    return {"logit_raw": logit_raw, "logit": logit, "prob": sigmoid(logit)}


def _head_backward(out: dict, d_logit: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
    """Add the head's gradients, given ``d_logit`` on the clamped logit of
    ``out`` (a direction's outputs), to ``grads``; return the gradient on
    the raw logit, which is zero where the clamp is active."""
    dz = d_logit * (np.abs(out["logit_raw"]) < LOGIT_CLAMP)
    grads["cls_W"] += out["h_last"].T @ dz
    grads["cls_b"][0] += dz.sum()
    return dz


def _rits_backward(
    params: dict[str, np.ndarray],
    cache: dict,
    d_chat_extra: np.ndarray,
    d_logit: np.ndarray,
) -> dict[str, np.ndarray]:
    """BPTT for one direction over a ``keep_steps`` forward cache.

    ``d_chat_extra`` carries upstream gradient on the combined estimates
    (consistency term); ``d_logit`` the classification gradient on the
    clamped logit.
    """
    x, mask = cache["x"], cache["mask"]
    steps = cache["steps"]
    B, T, F = x.shape
    H = params["cls_W"].shape[0]
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    # Only the complement half of the LSTM input carries gradient upstream;
    # the mask half is data.
    lstm_w_in = np.ascontiguousarray(params["lstm_W"][:, :F])

    # Per-sample estimation normalization, batch-averaged.
    alpha = (1.0 / (cache["est_norm"] * B))[:, None]

    dz = _head_backward(cache, d_logit, grads)
    dh = dz[:, None] * params["cls_W"][None, :]
    dc = np.zeros((B, H))
    da = np.empty((B, 4 * H))
    for t in range(T - 1, -1, -1):
        st = steps[t]
        xt, mt, dt = x[:, t], mask[:, t], cache["delta"][:, t]
        gi, gf, gg, go = (st["gates"][:, k * H : (k + 1) * H] for k in range(4))
        tanh_c = st["tanh_c"]

        # LSTM cell: gradient on the (B, 4H) pre-activation, block by block.
        da[:, 3 * H :] = dh * tanh_c * go * (1.0 - go)
        dc = dc + dh * go * (1.0 - tanh_c**2)
        da[:, :H] = dc * gg * gi * (1.0 - gi)
        da[:, H : 2 * H] = dc * st["c_prev"] * gf * (1.0 - gf)
        da[:, 2 * H : 3 * H] = dc * gi * (1.0 - gg**2)
        dc_prev = dc * gf
        grads["lstm_W"] += da.T @ st["u"]
        grads["lstm_U"] += da.T @ st["h_dec"]
        grads["lstm_b"] += da.sum(axis=0)
        dxc = da @ lstm_w_in
        dh_dec = da @ params["lstm_U"]

        # Complement and the three estimates with their masked-MAE terms.
        dchat = (1.0 - mt) * dxc + mt * np.sign(st["chat"] - xt) * alpha + d_chat_extra[:, t]
        dbeta = dchat * (st["zhat"] - st["xhat"])
        dzhat = dchat * st["beta"] + mt * np.sign(st["zhat"] - xt) * alpha
        dxhat = dchat * (1.0 - st["beta"]) + mt * np.sign(st["xhat"] - xt) * alpha

        ds_b = dbeta * st["beta"] * (1.0 - st["beta"])
        grads["comb_W"] += ds_b.T @ st["comb_in"]
        grads["comb_b"] += ds_b.sum(axis=0)
        dgamma_x = ds_b @ params["comb_W"][:, :F]

        grads["feat_W"] += (dzhat.T @ st["xh"]) * cache["offdiag"]
        grads["feat_b"] += dzhat.sum(axis=0)
        dxh = dzhat @ cache["w_off"]
        dxhat += (1.0 - mt) * dxh

        grads["hist_W"] += dxhat.T @ st["h_dec"]
        grads["hist_b"] += dxhat.sum(axis=0)
        dh_dec += dxhat @ params["hist_W"]

        dgamma_h = dh_dec * st["h_prev"]
        dh_prev = dh_dec * st["gamma_h"]
        ds_h = -dgamma_h * st["gamma_h"] * st["s_h_pos"]
        grads["decay_h_W"] += ds_h.T @ dt
        grads["decay_h_b"] += ds_h.sum(axis=0)
        gamma_x = st["comb_in"][:, :F]
        ds_x = -dgamma_x * gamma_x * st["s_x_pos"]
        grads["decay_x_W"] += ds_x.T @ dt
        grads["decay_x_b"] += ds_x.sum(axis=0)

        dh = dh_prev
        dc = dc_prev

    return grads


def _bce(logit: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stable binary cross-entropy from (already clamped) logits."""
    return np.maximum(logit, 0.0) - logit * y + np.log1p(np.exp(-np.abs(logit)))


@dataclass
class BritsOutput:
    """Combined bidirectional outputs, in forward time order."""

    probability: np.ndarray  # mean of the two directions' probabilities
    imputed: np.ndarray  # m*x + (1-m)*mean of directional estimates


def backward_inputs(x: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time-reverse x and mask; gaps are recomputed on the reversed mask."""
    xb = x[:, ::-1].copy()
    mb = mask[:, ::-1].copy()
    return xb, mb, compute_time_gaps(mb)


_worker: ThreadPoolExecutor | None = None


def _forget_worker() -> None:
    """A forked child has no worker thread; it starts its own when needed."""
    global _worker
    _worker = None


os.register_at_fork(after_in_child=_forget_worker)


def step_threads() -> int:
    """Threads for the two directions of one pass, training step or
    forward-only: 2 when this process may run on two or more CPUs and BLAS
    is pinned to one thread (``OPENBLAS_NUM_THREADS``, else
    ``OMP_NUM_THREADS``, is ``1``); 1 otherwise, where a second thread
    would compete with BLAS's own."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    return 2 if blas == "1" and usable_cpus() >= 2 else 1


def _both_directions(run_fwd: Callable, run_bwd: Callable) -> tuple:
    """``(run_fwd(), run_bwd())``; with two step threads, ``run_bwd`` runs
    on one persistent worker thread meanwhile. NumPy and BLAS release the
    GIL, the two calls share no written array, and each does the same
    arithmetic in the same order on either thread."""
    global _worker
    if step_threads() < 2:
        return run_fwd(), run_bwd()
    if _worker is None:
        # Unlocked: two racing first callers would each start a worker,
        # and either one computes the same bits.
        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="iloscast-bwd")
    job = _worker.submit(run_bwd)
    try:
        fwd = run_fwd()
    finally:
        # Always join; an error in the worker surfaces here, chained to
        # the calling thread's if both directions failed.
        bwd = job.result()
    return fwd, bwd


def _forward_pair(
    model: BritsModel,
    x: np.ndarray,
    mask: np.ndarray,
    delta: np.ndarray,
    keep_steps: bool = False,
    workspace: StepWorkspace | None = None,
) -> tuple[dict, dict]:
    """Both directions over checked input, the backward one (its time
    reversal included) on the step worker when ``_both_directions`` uses
    it. Training steps keep step caches; forward-only passes keep none.

    ``workspace`` lends the arrays of both directions to every step of a
    fit or every batch of a forward-only pass; with both directions
    running at once, reusing them keeps peak memory near that of one
    direction after the other.
    """
    arrays = {"fwd": None, "bwd": None}
    if workspace is not None:
        B, T, F = x.shape
        arrays = {d: workspace.arrays(d, T, B, F, model.hidden_size, keep_steps) for d in arrays}
    return _both_directions(
        lambda: _rits_forward(model.fwd, x, mask, delta, keep_steps, arrays["fwd"]),
        lambda: _rits_forward(model.bwd, *backward_inputs(x, mask), keep_steps, arrays["bwd"]),
    )


def _complement_gap(fwd: dict, bwd: dict) -> np.ndarray:
    """The two directions' complements, aligned in time, subtracted.

    Consistency ties the two directions' imputation matrices (the
    complements) together; observed entries agree by construction, so the
    gap is nonzero on the filled-in cells only.
    """
    return fwd["x_comp"] - bwd["x_comp"][:, ::-1]


#: The batch-mean loss terms of one step, as ``_loss_components`` names them.
LOSS_COMPONENTS = (
    "estimation_fwd", "estimation_bwd", "consistency", "classification_fwd", "classification_bwd"
)


def _loss_components(fwd: dict, bwd: dict, diff: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Batch-mean loss components; classification is BCE on the clamped logits."""
    return {
        "estimation_fwd": float(fwd["est_per_sample"].mean()),
        "estimation_bwd": float(bwd["est_per_sample"].mean()),
        "consistency": float(np.mean(np.abs(diff))),
        "classification_fwd": float(_bce(fwd["logit"], y).mean()),
        "classification_bwd": float(_bce(bwd["logit"], y).mean()),
    }


def classification_weight(phase: int) -> float:
    """Weight of the classification terms: phase 1 trains the imputation
    objective alone, phase 2 adds classification. Every other term has
    unit weight in both phases."""
    return 1.0 if phase == 2 else 0.0


def total_loss(comps: dict[str, float], phase: int = 2) -> float:
    """The training objective from its components: estimation (both
    directions) plus consistency, plus classification (both directions)
    in phase 2."""
    return (
        comps["estimation_fwd"]
        + comps["estimation_bwd"]
        + comps["consistency"]
        + classification_weight(phase) * (comps["classification_fwd"] + comps["classification_bwd"])
    )


def loss_summary(sums: dict[str, float], n: int, phase: int) -> dict[str, float]:
    """Sample-weighted sums of the ``LOSS_COMPONENTS`` over ``n`` samples as
    means, plus their ``estimation`` and ``classification`` direction sums
    and the phase's ``total``."""
    comps = {key: sums[key] / n for key in LOSS_COMPONENTS}
    comps["estimation"] = comps["estimation_fwd"] + comps["estimation_bwd"]
    comps["classification"] = comps["classification_fwd"] + comps["classification_bwd"]
    comps["total"] = total_loss(comps, phase)
    return comps


def _step_loss(fwd: dict, bwd: dict, diff: np.ndarray, y: np.ndarray, phase: int) -> dict[str, float]:
    """One training batch's loss components and ``total``;
    :class:`NumericError` if the total is not finite."""
    comps = _loss_components(fwd, bwd, diff, y)
    comps["total"] = total_loss(comps, phase)
    if not np.isfinite(comps["total"]):
        raise NumericError(f"non-finite loss: {comps}")
    return comps


def _d_logit(out: dict, y: np.ndarray, phase: int) -> np.ndarray:
    """Gradient of the batch-mean weighted BCE on one direction's clamped logit."""
    return classification_weight(phase) * ((out["prob"] - y) / y.size)


def _summed_losses(batches: Iterable[tuple[dict, dict, np.ndarray, np.ndarray]], phase: int) -> dict[str, float]:
    """``loss_summary`` over ``(fwd, bwd, gap, y)`` batches, each batch's
    components weighted by its size."""
    sums = dict.fromkeys(LOSS_COMPONENTS, 0.0)
    n = 0
    for fwd, bwd, gap, y in batches:
        batch = _loss_components(fwd, bwd, gap, y)
        for key in sums:
            sums[key] += batch[key] * y.size
        n += y.size
    return loss_summary(sums, n, phase)


def brits_forward(
    model: BritsModel,
    x: np.ndarray,
    mask: np.ndarray,
    delta: np.ndarray,
    workspace: StepWorkspace | None = None,
) -> BritsOutput:
    """Run both directions and average their outputs; keeps no step caches
    and computes no loss terms. ``brits_predict`` passes one ``workspace``
    for all its batches."""
    x, mask, delta = _check_batch(x, mask, delta)
    fwd, bwd = _forward_pair(model, x, mask, delta, workspace=workspace)
    mean_prime = 0.5 * (fwd["x_prime"] + bwd["x_prime"][:, ::-1])
    return BritsOutput(
        probability=0.5 * (fwd["prob"] + bwd["prob"]),
        imputed=mask * x + (1.0 - mask) * mean_prime,
    )


def brits_loss_and_grads(
    model: BritsModel,
    x: np.ndarray,
    mask: np.ndarray,
    delta: np.ndarray,
    label: np.ndarray,
    phase: int = 2,
    workspace: StepWorkspace | None = None,
) -> tuple[dict[str, float], dict[str, dict[str, np.ndarray]]]:
    """Loss components plus analytic gradients for both directions.

    Phase 1 trains the imputation objective only (estimation both ways plus
    consistency); phase 2 adds per-direction classification. With two
    ``step_threads()`` the backward direction's forward and backprop run on
    a worker thread, joined before the loss and before returning; the
    result is the same bits either way. ``train_brits`` passes one
    ``workspace`` for all the steps of a fit.
    """
    x, mask, delta = _check_batch(x, mask, delta)
    y = np.asarray(label, dtype=np.float64).reshape(-1)

    fwd, bwd = _forward_pair(model, x, mask, delta, keep_steps=True, workspace=workspace)
    diff = _complement_gap(fwd, bwd)
    comps = _step_loss(fwd, bwd, diff, y, phase)

    # The consistency gradient reaches the combined estimates through
    # (1 - mask), because observed entries of the complements cancel.
    cons_scale = 1.0 / diff.size
    d_chat_fwd = (1.0 - mask) * np.sign(diff) * cons_scale
    d_chat_bwd = ((1.0 - mask) * -np.sign(diff) * cons_scale)[:, ::-1].copy()
    grads_fwd, grads_bwd = _both_directions(
        lambda: _rits_backward(model.fwd, fwd, d_chat_fwd, _d_logit(fwd, y, phase)),
        lambda: _rits_backward(model.bwd, bwd, d_chat_bwd, _d_logit(bwd, y, phase)),
    )
    return comps, {"fwd": grads_fwd, "bwd": grads_bwd}


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainSchedule:
    """The recurrent model's size and two-phase training plan: imputation
    warm-up, then the full objective.

    Mega pre-training, single-network training and both fine-tuning
    strategies all train with one of these.
    """

    hidden_size: int = 96
    batch_size: int = 256
    learning_rate: float = 1e-3
    max_epochs_phase1: int = 10
    max_epochs_phase2: int = 15
    patience: int = 5
    min_delta: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        lowest = {
            "hidden_size": 1,
            "batch_size": 1,
            "max_epochs_phase1": 0,
            "max_epochs_phase2": 0,
            "patience": 1,
            "min_delta": 0,
        }
        for name, low in lowest.items():
            if not getattr(self, name) >= low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)!r}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate!r}")


class AdamState:
    """Adam with per-block first/second moment accumulators and the
    usual constants (Kingma & Ba, 2015)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model: BritsModel):
        self.t = 0
        self.m = {d: {k: np.zeros_like(v) for k, v in params.items()} for d, params in (("fwd", model.fwd), ("bwd", model.bwd))}
        self.v = {d: {k: np.zeros_like(v) for k, v in params.items()} for d, params in (("fwd", model.fwd), ("bwd", model.bwd))}

    def step(self, model: BritsModel, grads: dict[str, dict[str, np.ndarray]], lr: float) -> None:
        """Update the blocks that ``grads`` holds; the others stay as they are."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for d, params in (("fwd", model.fwd), ("bwd", model.bwd)):
            for k, g in grads[d].items():
                p = params[k]
                m = self.m[d][k]
                v = self.v[d][k]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            # A feature never predicts itself: keep the diagonal at zero.
            np.fill_diagonal(params["feat_W"], 0.0)


@dataclass
class RitsData:
    """Model-ready tensors: zero-filled x, mask, delta, labels."""

    x: np.ndarray
    mask: np.ndarray
    delta: np.ndarray
    label: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _check_width(model: BritsModel, data: RitsData) -> None:
    """:class:`DataError` unless ``data`` has the model's feature count."""
    if data.x.shape[-1] != model.n_features:
        raise DataError(
            f"the recurrent model takes {model.n_features} features per step, "
            f"but the data has {data.x.shape[-1]}"
        )


def _batches(n: int, size: int) -> Iterator[slice]:
    """Consecutive row ranges of at most ``size`` covering ``n`` rows."""
    return (slice(lo, min(lo + size, n)) for lo in range(0, n, size))


def _forward_chunks(model: BritsModel, data: RitsData, chunks: Iterable[slice]) -> Iterator[tuple[slice, dict, dict]]:
    """``(rows, fwd, bwd)`` per row range of ``chunks``: one forward-only
    pass whose batches share one ``StepWorkspace``, so each batch's
    outputs are to be read before the next is computed."""
    _check_width(model, data)
    workspace = StepWorkspace()
    for rows in chunks:
        x, mask, delta = _check_batch(data.x[rows], data.mask[rows], data.delta[rows])
        yield rows, *_forward_pair(model, x, mask, delta, workspace=workspace)


def evaluate_losses(model: BritsModel, data: RitsData, phase: int, batch_size: int = 1024) -> dict[str, float]:
    """Batched loss evaluation without gradients or step caches, summarized
    by ``loss_summary``."""
    return _summed_losses(
        (
            (fwd, bwd, _complement_gap(fwd, bwd), data.label[rows].astype(np.float64))
            for rows, fwd, bwd in _forward_chunks(model, data, _batches(data.n, batch_size))
        ),
        phase,
    )


def _fit(
    model: BritsModel,
    n_train: int,
    schedule: TrainSchedule,
    step: Callable[[BritsModel, np.ndarray, int], tuple[dict[str, float], dict]],
    validate: Callable[[BritsModel, int], dict[str, float]],
) -> tuple[BritsModel, list[dict]]:
    """The two-phase epoch loop of every recurrent fit, on a copy of
    ``model``: shuffled batches of ``n_train`` training rows, an Adam step
    on the gradients ``step(model, rows, phase)`` returns with the batch's
    loss components, and ``validate(model, phase)``'s ``loss_summary``
    after each epoch for the history and early stopping."""
    model = model.copy()
    opt = AdamState(model)
    rng = np.random.default_rng(np.random.SeedSequence((schedule.seed, 0x7E41)))
    history: list[dict] = []

    def run_phase(phase: int, max_epochs: int, monitor: str) -> None:
        best = np.inf
        stale = 0
        for epoch in range(max_epochs):
            order = rng.permutation(n_train)
            # Running sums, not each step's results: keeping a small dict
            # per step alive raised perfbench brits_fit's peak RSS by ~6 MB,
            # likely by pinning freed heap between the steps' temporaries.
            sums = dict.fromkeys(LOSS_COMPONENTS, 0.0)
            for batch in _batches(n_train, schedule.batch_size):
                rows = order[batch]
                comps, grads = step(model, rows, phase)
                opt.step(model, grads, schedule.learning_rate)
                for key in sums:
                    sums[key] += comps[key] * rows.size
            val = validate(model, phase)
            row = {"phase": phase, "epoch": epoch}
            for prefix, summary in (("train", loss_summary(sums, n_train, phase)), ("val", val)):
                for key in ("total", "estimation", "consistency", "classification"):
                    row[f"{prefix}_{key}"] = summary[key]
            history.append(row)
            monitored = val[monitor]
            if monitored < best - schedule.min_delta:
                best = monitored
                stale = 0
            else:
                stale += 1
                if stale >= schedule.patience:
                    break

    run_phase(1, schedule.max_epochs_phase1, "estimation")
    run_phase(2, schedule.max_epochs_phase2, "total")
    return model, history


def train_brits(
    model: BritsModel,
    train: RitsData,
    validation: RitsData,
    schedule: TrainSchedule,
) -> tuple[BritsModel, list[dict]]:
    """Two-phase Adam training of every block; returns a trained copy plus
    epoch history.

    Phase 1 optimizes estimation + consistency until the validation
    estimation loss stops improving by ``min_delta`` for ``patience``
    epochs; phase 2 optimizes the full loss under the same policy on the
    validation total. The input model is left untouched.
    """
    _check_width(model, train)
    _check_width(model, validation)
    workspace = StepWorkspace()

    def step(model: BritsModel, rows: np.ndarray, phase: int) -> tuple[dict[str, float], dict]:
        return brits_loss_and_grads(
            model,
            train.x[rows],
            train.mask[rows],
            train.delta[rows],
            train.label[rows],
            phase=phase,
            workspace=workspace,
        )

    def validate(model: BritsModel, phase: int) -> dict[str, float]:
        return evaluate_losses(model, validation, phase, schedule.batch_size)

    return _fit(model, train.n, schedule, step, validate)


@dataclass
class FrozenPass:
    """What the classifier head does not change, per sample of ``data``:
    each direction's last hidden state and estimation term, and the
    complement gap, from one forward-only pass in batches of ``size``.

    BLAS picks kernels by matrix size, so a sample's outputs can differ in
    the last bit with the size of the batch it is computed in, and in some
    small batches also with its place there. So the pass computes every
    sample in a batch of ``size`` rows, the training batch size (or all
    rows, if fewer); a batch of that size reads these values, and a batch
    of any other size, a ragged last one, runs the encoder again.
    """

    data: RitsData
    size: int
    h_last: dict[str, np.ndarray]  # direction -> (n, H)
    est_per_sample: dict[str, np.ndarray]  # direction -> (n,)
    gap: np.ndarray  # (n, T, F)

    @classmethod
    def run(cls, model: BritsModel, data: RitsData, batch_size: int) -> "FrozenPass":
        n, size = data.n, min(batch_size, data.n)
        h_last = {d: np.empty((n, model.hidden_size)) for d in ("fwd", "bwd")}
        est = {d: np.empty(n) for d in ("fwd", "bwd")}
        gap = np.empty(data.x.shape)
        # The last batch ends at row n and overlaps the one before it.
        starts = (min(lo, n - size) for lo in range(0, n, size))
        for rows, fwd, bwd in _forward_chunks(model, data, (slice(lo, lo + size) for lo in starts)):
            for d, out in (("fwd", fwd), ("bwd", bwd)):
                h_last[d][rows] = out["h_last"]
                est[d][rows] = out["est_per_sample"]
            gap[rows] = _complement_gap(fwd, bwd)
        return cls(data, size, h_last, est, gap)

    def batch(self, model: BritsModel, rows: np.ndarray | slice) -> tuple[dict, dict, np.ndarray, np.ndarray]:
        """``(fwd, bwd, gap, y)`` of ``rows`` under ``model``'s head, as a
        forward pass over those rows gives them."""
        y = np.asarray(self.data.label[rows], dtype=np.float64)
        if y.size != self.size:
            x, mask, delta = _check_batch(self.data.x[rows], self.data.mask[rows], self.data.delta[rows])
            fwd, bwd = _forward_pair(model, x, mask, delta)
            return fwd, bwd, _complement_gap(fwd, bwd), y
        outs = {}
        for d in ("fwd", "bwd"):
            h_last = self.h_last[d][rows]
            outs[d] = {"h_last": h_last, "est_per_sample": self.est_per_sample[d][rows], **_head(getattr(model, d), h_last)}
        return outs["fwd"], outs["bwd"], self.gap[rows], y


def train_classifier_head(
    model: BritsModel,
    train: RitsData,
    validation: RitsData,
    schedule: TrainSchedule,
) -> tuple[BritsModel, list[dict]]:
    """``train_brits`` restricted to the classifier head (``cls_W``,
    ``cls_b``) of both directions; every other block stays bit-identical.

    With the rest frozen, one forward-only pass over each split
    (``FrozenPass``) fixes everything but the logits, so a step computes
    only the logits, the loss and the head's gradients; only a ragged
    last batch runs the encoder again. The shuffling, batches, validation
    chunks, history and early stopping are ``train_brits``'s, and so are
    the bits wherever a full batch's outputs per sample do not depend on
    the batch's other rows, as at the batch sizes the tests check.
    """
    frozen_train = FrozenPass.run(model, train, schedule.batch_size)
    frozen_val = FrozenPass.run(model, validation, schedule.batch_size)

    def step(model: BritsModel, rows: np.ndarray, phase: int) -> tuple[dict[str, float], dict]:
        fwd, bwd, gap, y = frozen_train.batch(model, rows)
        comps = _step_loss(fwd, bwd, gap, y, phase)
        grads = {}
        for d, out in (("fwd", fwd), ("bwd", bwd)):
            grads[d] = {k: np.zeros_like(getattr(model, d)[k]) for k in CLASSIFIER_BLOCKS}
            _head_backward(out, _d_logit(out, y, phase), grads[d])
        return comps, grads

    def validate(model: BritsModel, phase: int) -> dict[str, float]:
        chunks = _batches(validation.n, schedule.batch_size)
        return _summed_losses((frozen_val.batch(model, rows) for rows in chunks), phase)

    return _fit(model, train.n, schedule, step, validate)


def brits_predict(model: BritsModel, data: RitsData, batch_size: int = 1024) -> np.ndarray:
    """Mean of the two directions' probabilities, batched; the batches share
    one ``StepWorkspace``."""
    _check_width(model, data)
    workspace = StepWorkspace()
    out = np.empty(data.n, dtype=np.float64)
    for rows in _batches(data.n, batch_size):
        res = brits_forward(model, data.x[rows], data.mask[rows], data.delta[rows], workspace)
        out[rows] = res.probability
    return out
