"""Amortized-residual DAE: a patch MLP trained so that -R(y) approximates
the marginal score.

Per step, with annealing scale sigma_a drawn from a geometric schedule,

    loss = mean over batch of  (u_c + sigma_a * R(patch + sigma_a * u))^2

where u is a standard-normal draw over the whole patch and u_c its value at
the center pixel (the network predicts the score at the center).  As
sigma_a -> 0 the minimizer of the population loss is the score of the
sigma_a-smoothed marginal, so R converges to l'(y).

Architecture: fully connected tanh layers on flattened (2r+1) x (2r+1)
patches with a linear head.  The first layer sees (x - 0.5) * 4 rather than
raw intensities: inputs living in (0, 1] are far from odd-symmetric around
zero, which starves the first-layer gradient; the fixed affine coupling is
part of the architecture, not a data-dependent normalization.

An EMA shadow copy (theta' <- m*theta' + (1-m)*theta after every step) is
what inference uses.  Optimization is Adam with (0.9, 0.999) and a single
ten-fold learning-rate drop halfway through the epochs.

The network is float32 (DTYPE): its weights, training buffers, checkpoints
and inference.  The kernels compute in the dtype of the weights they are
given, so ``gradient_check`` runs them on a float64 copy.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TrainingDivergence, ValidationError
from .scores import ScoreField, geometric_schedule

IN_SHIFT = 0.5
IN_GAIN = 4.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

DTYPE = np.float32
KINDS = ("w", "b", "ew", "eb")  # checkpoint names of the MlpParams lists, in field order
CHECKPOINT_VERSION = 2  # 1 held float64 arrays
PATCH_BLOCK = 1024  # pixels per block of eval_score; float32 at 128²: ties 512, 5 % faster than 2048
GRADCHECK_STEP, GRADCHECK_PROBES = 1e-5, 40  # gradient_check: central-difference step, entries per array


@dataclass(frozen=True)
class ArdaeConfig:
    sigma_a_max: float = 0.1
    sigma_a_min: float = 0.001
    schedule_len: int = 10
    ema_decay: float = 0.999
    epochs: int = 100
    batch_size: int = 4096
    lr: float = 2e-4
    patch_radius: int = 4
    hidden: tuple = (128, 128)
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.sigma_a_min <= self.sigma_a_max < np.inf):
            raise DomainError("need 0 < sigma_a_min <= sigma_a_max < inf")
        if not (0 <= self.ema_decay < 1):
            raise DomainError("ema_decay must lie in [0, 1)")
        if self.epochs < 0 or self.batch_size < 2 or self.schedule_len < 2:
            raise DomainError("bad epochs/batch_size/schedule_len")
        if not 0 < self.lr < np.inf or self.patch_radius < 0 or min(self.hidden, default=1) < 1:
            raise DomainError("bad lr/patch_radius/hidden")

    @property
    def patch_dim(self) -> int:
        return (2 * self.patch_radius + 1) ** 2

    @property
    def layer_sizes(self) -> list:
        return [self.patch_dim, *self.hidden, 1]


@dataclass
class MlpParams:
    """Weights/biases plus the EMA shadow copy, all same shapes."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    ema_weights: list = field(default_factory=list)
    ema_biases: list = field(default_factory=list)

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy(self, dtype=None) -> "MlpParams":
        """A deep copy, cast to ``dtype`` if given."""
        return MlpParams(*([a.astype(dtype or a.dtype) for a in group] for group in vars(self).values()))


def init_mlp(layer_sizes, seed: int) -> MlpParams:
    """Scaled-normal weights, zero biases, in DTYPE; EMA copy starts equal."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 10]))
    ws, bs = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        ws.append((rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)).astype(DTYPE))
        bs.append(np.zeros(n_out, DTYPE))
    return MlpParams(ws, bs, [w.copy() for w in ws], [b.copy() for b in bs])


def mlp_forward(params: MlpParams, x: np.ndarray, use_ema: bool = False, acts=None):
    """Forward pass in the weights' dtype; returns (output (N,), activations
    cache for backprop).  It fills ``acts``, one (N, width) buffer per layer
    from input to output, if given; ``x`` may be ``acts[0]``."""
    ws = params.ema_weights if use_ema else params.weights
    bs = params.ema_biases if use_ema else params.biases
    x = np.asarray(x, dtype=ws[0].dtype)
    if acts is None:
        acts = [np.empty((x.shape[0], n), ws[0].dtype) for n in params.layer_sizes]
    h = np.subtract(x, IN_SHIFT, out=acts[0])
    h *= IN_GAIN
    for W, b, a in zip(ws[:-1], bs[:-1], acts[1:-1]):
        np.matmul(h, W, out=a)
        a += b
        h = np.tanh(a, out=a)
    out = np.matmul(h, ws[-1], out=acts[-1])
    out += bs[-1]
    return out[:, 0], acts[:-1]


def mlp_backward(params: MlpParams, acts, dout: np.ndarray, work=None):
    """Gradients of sum(dout * output) w.r.t. weights and biases.  It fills
    ``work``, a (delta, tanh') pair of buffers per hidden layer, if given."""
    ws = params.weights
    if work is None:
        work = [(np.empty_like(a), np.empty_like(a)) for a in acts[1:]]
    gws = [None] * len(ws)
    gbs = [None] * len(ws)
    delta = dout[:, None]  # (N, 1)
    gws[-1] = acts[-1].T @ delta
    gbs[-1] = delta.sum(axis=0)
    for i in range(len(ws) - 2, -1, -1):
        nxt, deriv = work[i]
        np.multiply(acts[i + 1], acts[i + 1], out=deriv)
        np.subtract(1.0, deriv, out=deriv)
        delta = np.matmul(delta, ws[i + 1].T, out=nxt)
        delta *= deriv
        gws[i] = acts[i].T @ delta
        gbs[i] = delta.sum(axis=0)
    return gws, gbs


def _workspace(layer_sizes, n: int):
    """DTYPE buffers for one n-row training step: the gathered batch; its
    probe noise; each layer's activations, input and output included; and a
    (delta, tanh-derivative) pair per hidden layer."""
    return (
        np.empty((n, layer_sizes[0]), DTYPE),
        np.empty((n, layer_sizes[0]), DTYPE),
        [np.empty((n, s), DTYPE) for s in layer_sizes],
        [(np.empty((n, s), DTYPE), np.empty((n, s), DTYPE)) for s in layer_sizes[1:-1]],
    )


def ardae_loss_and_grad(params: MlpParams, batch: np.ndarray, sigma_a: float, seed: int,
                        _forward=None, work=None):
    """Loss mean (u_c + sigma_a R(y + sigma_a u))^2 over the batch and its
    exact parameter gradients, computed in the dtype of the weights (DTYPE
    without them).

    ``batch`` is (N, D) with the center pixel at column D // 2; u is drawn
    per element from the given seed.  ``_forward`` is a test hook replacing
    the network evaluation.  ``work`` holds buffers to fill, as
    ``_workspace`` makes them less the batch.
    """
    if sigma_a <= 0:
        raise DomainError(f"sigma_a must be positive, got {sigma_a}")
    dtype = np.dtype(DTYPE if params is None else params.weights[0].dtype)
    sigma_a = dtype.type(sigma_a)  # a float64 scalar would promote the float32 arrays under NEP 50
    batch = np.asarray(batch, dtype=dtype)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise DomainError("batch must be a nonempty (N, D) array")
    n, d = batch.shape
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 11]))
    u, acts, back = (np.empty((n, d), dtype), None, None) if work is None else work
    rng.standard_normal(out=u, dtype=dtype)
    u_c = u[:, d // 2]
    noisy = np.multiply(u, sigma_a, out=None if acts is None else acts[0])
    noisy += batch
    if _forward is not None:
        r = np.asarray(_forward(noisy), dtype=dtype)
        acts = None
    else:
        r, acts = mlp_forward(params, noisy, acts=acts)
    resid = u_c + sigma_a * r
    loss = float(np.mean(resid**2))
    if not np.isfinite(loss):
        raise TrainingDivergence(f"non-finite loss {loss!r}")
    if acts is None:
        return loss, None
    dout = 2.0 * sigma_a * resid / n
    gws, gbs = mlp_backward(params, acts, dout, back)
    return loss, (gws, gbs)


def _as_image(img, radius: int) -> np.ndarray:
    """``img`` as a 2-D float array (1-D data as one row), shape-checked;
    float32 stays float32, anything else becomes float64."""
    img = np.asarray(img)
    img = img.astype(np.result_type(img.dtype, np.float32), copy=False)
    if img.ndim == 1:
        if radius != 0:
            raise DomainError("1-D data only supports patch_radius = 0")
        return img[None, :]
    if img.ndim != 2:
        raise DomainError(f"expected 1-D or 2-D data, got shape {img.shape}")
    return img


def extract_patches(img: np.ndarray, radius: int, index=None, out=None) -> np.ndarray:
    """(H*W, (2r+1)^2) rows of reflect-padded context patches.

    With ``index``, the rows of those flat pixel positions only, in that
    order, written into ``out`` if given.
    """
    return _gather_patches(_patch_windows(img, radius), index, out)


def _patch_windows(img, radius: int) -> np.ndarray:
    """(H, W, 2r+1, 2r+1) view of every context patch of the reflect-padded image."""
    img, size = _as_image(img, radius), (2 * radius + 1,) * 2
    if not img.size:  # no window fits into an empty image
        return np.empty(img.shape + size)
    return np.lib.stride_tricks.sliding_window_view(np.pad(img, radius, mode="reflect"), size)


def _gather_patches(windows: np.ndarray, index=None, out=None) -> np.ndarray:
    """The rows of ``extract_patches`` from the windows of ``_patch_windows``."""
    h, w, p, _ = windows.shape
    index = np.arange(h * w) if index is None else np.asarray(index)
    if index.size and not (0 <= index.min() and index.max() < h * w):
        raise DomainError(f"pixel index out of range for a {h}x{w} image")
    rows = windows[np.divmod(index, w)].reshape(index.size, p * p)
    if out is None:
        return rows
    out[...] = rows
    return out


def _adam_step(params, grads, state, lr, t):
    gws, gbs = grads
    for group, grad_list, key in ((params.weights, gws, "w"), (params.biases, gbs, "b")):
        for i, g in enumerate(grad_list):
            m, v = state[key][i]
            m[:] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v[:] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            mhat = m / (1 - ADAM_BETA1**t)
            vhat = v / (1 - ADAM_BETA2**t)
            group[i] -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def ema_update(params: MlpParams, m: float) -> None:
    """One shadow-average step Theta' <- m*Theta' + (1-m)*Theta, in place.

    With constant Theta this contracts ||Theta' - Theta|| by the factor m
    per call; m = 0 makes the copy track Theta exactly.
    """
    for w, ew in zip(params.weights, params.ema_weights):
        ew *= m
        ew += (1 - m) * w
    for b, eb in zip(params.biases, params.ema_biases):
        eb *= m
        eb += (1 - m) * b


def train_ardae(config: ArdaeConfig, data) -> tuple:
    """Mini-batch AR-DAE training over the pooled patches of ``data``.

    ``data`` is a sequence of noisy arrays (2-D images, or 1-D samples when
    patch_radius = 0).  Returns (MlpParams with EMA copy, history) where
    history is one (epoch, mean_loss, lr) triple per epoch.  A non-finite
    loss aborts with :class:`TrainingDivergence` carrying the last
    finite-loss snapshot.

    Each batch gathers its patches from the images, numbered image after
    image in raster order, into buffers that every full batch reuses.
    The data, the batches and every step's arithmetic are DTYPE.
    """
    arrays = [data] if isinstance(data, np.ndarray) else list(data)
    arrays = [_as_image(np.asarray(a, DTYPE), config.patch_radius) for a in arrays]
    starts = np.cumsum([0] + [a.size for a in arrays])
    n_rows = int(starts[-1])
    if n_rows < 2:
        raise DomainError(f"training needs at least 2 pixels, got {n_rows}")
    params = init_mlp(config.layer_sizes, config.seed)
    history = []
    schedule = geometric_schedule(config.sigma_a_max, config.sigma_a_min, config.schedule_len)
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 12]))
    state = {
        "w": [(np.zeros_like(w), np.zeros_like(w)) for w in params.weights],
        "b": [(np.zeros_like(b), np.zeros_like(b)) for b in params.biases],
    }
    full = _workspace(config.layer_sizes, min(config.batch_size, n_rows))
    m = config.ema_decay
    t = 0
    for epoch in range(config.epochs):
        lr = config.lr / 10.0 if epoch >= config.epochs // 2 else config.lr
        perm = rng.permutation(n_rows)
        losses = []
        for lo in range(0, n_rows, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            if idx.size < 2:
                continue
            sigma_a = schedule[rng.integers(0, config.schedule_len)]
            step_seed = int(rng.integers(0, 2**63 - 1))
            batch, *work = full if idx.size == len(full[0]) else _workspace(config.layer_sizes, idx.size)
            owner = np.searchsorted(starts, idx, side="right") - 1
            for k in np.unique(owner):
                rows = owner == k
                batch[rows] = extract_patches(arrays[k], config.patch_radius, idx[rows] - starts[k])
            try:
                loss, grads = ardae_loss_and_grad(params, batch, sigma_a, step_seed, work=work)
            except TrainingDivergence as exc:
                # a failed loss evaluation leaves params at the last good step
                raise TrainingDivergence(
                    f"diverged at epoch {epoch}: {exc}", last_good=params.copy()
                ) from exc
            t += 1
            _adam_step(params, grads, state, lr, t)
            ema_update(params, m)
            losses.append(loss)
        history.append((epoch, float(np.mean(losses)), lr))
    return params, history


def eval_score(params: MlpParams, y: np.ndarray, use_ema: bool = True) -> ScoreField:
    """Score field over an image: the network applied per context patch.

    Border pixels see reflect padding.  The image is cast once to the
    weights' dtype, and the pixels go through the network in blocks of
    PATCH_BLOCK rows, the last one filled up with copies of the last pixel,
    so that every block makes the same BLAS calls and each pixel's score is
    a pure function of its own patch.  The scores are returned as float64.
    Pure; repeated calls are bit-identical.
    """
    dtype = params.weights[0].dtype
    y = np.asarray(y, dtype=dtype)
    dim = params.layer_sizes[0]
    radius = (int(np.sqrt(dim)) - 1) // 2
    if (2 * radius + 1) ** 2 != dim:
        raise DomainError(f"non-square input layer of width {dim}")
    windows = _patch_windows(y, radius)
    scores = np.empty(y.size)
    acts = [np.empty((PATCH_BLOCK, n), dtype) for n in params.layer_sizes]
    for lo in range(0, y.size, PATCH_BLOCK):
        patches = _gather_patches(windows, np.minimum(np.arange(lo, lo + PATCH_BLOCK), y.size - 1), acts[0])
        out, _ = mlp_forward(params, patches, use_ema, acts)
        scores[lo : lo + PATCH_BLOCK] = out[: y.size - lo]
    return ScoreField(scores.reshape(y.shape), backend="ardae")


def save_checkpoint(path, params: MlpParams, config: ArdaeConfig) -> None:
    """Versioned npz blob: JSON header + DTYPE parameter arrays."""
    header = {
        "version": CHECKPOINT_VERSION,
        "layer_sizes": params.layer_sizes,
        "ema": True,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(config).items()},
    }
    arrays = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
    for kind, group in zip(KINDS, vars(params).values()):
        arrays.update({f"{kind}{i}": np.asarray(a, DTYPE) for i, a in enumerate(group)})
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Returns (MlpParams, header dict).  A file that is no checkpoint, or
    whose arrays are missing or lack the DTYPE and the shapes of the
    header's layer_sizes, raises :class:`ValidationError`."""
    try:
        with np.load(path) as z:
            header = dict(json.loads(bytes(z["header"]).decode()))  # a JSON object, or TypeError/ValueError
            arrays = dict(z)
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path} is not a checkpoint: {exc}") from exc
    if header.get("version") != CHECKPOINT_VERSION:
        raise DomainError(f"unsupported checkpoint version {header.get('version')!r}: "
                          f"version {CHECKPOINT_VERSION} holds a float32 network; retrain it")
    sizes = header.get("layer_sizes")
    if not isinstance(sizes, list) or len(sizes) < 2:
        raise ValidationError(f"{path}: bad layer_sizes {sizes!r}")
    groups = [[arrays.get(f"{kind}{i}") for i in range(len(sizes) - 1)] for kind in KINDS]
    for kind, group in zip(KINDS, groups):
        for i, (a, m, n) in enumerate(zip(group, sizes, sizes[1:])):
            shape = (m, n) if kind.endswith("w") else (n,)
            if a is None or a.shape != shape or a.dtype != DTYPE:
                raise ValidationError(f"{path}: {kind}{i} is missing or no float32 array of shape {shape}")
    return MlpParams(*groups), header


def gradient_check(params: MlpParams, batch: np.ndarray, sigma_a: float, seed: int):
    """Worst relative gap between backprop and central finite differences.

    Probes GRADCHECK_PROBES entries spread across every weight/bias array of a
    float64 copy of ``params``, so the caller's params are left untouched.
    """
    params = params.copy(np.float64)
    loss0, grads = ardae_loss_and_grad(params, batch, sigma_a, seed)
    gws, gbs = grads
    worst = 0.0
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 13]))
    for arrays, grad_list in ((params.weights, gws), (params.biases, gbs)):
        for arr, g in zip(arrays, grad_list):
            flat = arr.reshape(-1)
            gflat = np.asarray(g).reshape(-1)
            for j in rng.choice(flat.size, size=min(GRADCHECK_PROBES, flat.size), replace=False):
                orig = flat[j]
                flat[j] = orig + GRADCHECK_STEP
                lp, _ = ardae_loss_and_grad(params, batch, sigma_a, seed)
                flat[j] = orig - GRADCHECK_STEP
                lm, _ = ardae_loss_and_grad(params, batch, sigma_a, seed)
                flat[j] = orig
                fd = (lp - lm) / (2 * GRADCHECK_STEP)
                denom = max(abs(fd), abs(gflat[j]), 1e-8)
                worst = max(worst, abs(fd - gflat[j]) / denom)
    return worst
