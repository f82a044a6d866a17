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
from .scores import ScoreField

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
    def layer_sizes(self) -> list:
        return [(2 * self.patch_radius + 1) ** 2, *self.hidden, 1]


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
    """Gradients of sum(dout * output) w.r.t. weights and biases.  Once a
    hidden activation's weight gradient is taken, its buffer in ``acts``
    holds tanh' = 1 - a^2 and then the layer's delta.  ``work``, a flat
    buffer of at least N * max(hidden) entries, holds each delta before
    its tanh' factor; one is made if not given."""
    ws = params.weights
    if work is None:
        work = np.empty(len(dout) * max(params.layer_sizes[1:-1], default=0), ws[0].dtype)
    gws = [None] * len(ws)
    gbs = [None] * len(ws)
    delta = dout[:, None]  # (N, 1)
    gws[-1] = acts[-1].T @ delta
    gbs[-1] = delta.sum(axis=0)
    for i in range(len(ws) - 2, -1, -1):
        deriv = acts[i + 1]
        np.multiply(deriv, deriv, out=deriv)
        np.subtract(1.0, deriv, out=deriv)
        nxt = np.matmul(delta, ws[i + 1].T, out=work[: deriv.size].reshape(deriv.shape))
        delta = np.multiply(nxt, deriv, out=deriv)
        gws[i] = acts[i].T @ delta
        gbs[i] = delta.sum(axis=0)
    return gws, gbs


def _workspace(layer_sizes, n: int):
    """DTYPE buffers for training steps of up to n rows, each used through
    its leading rows: the probe noise; each layer's activations, input and
    output included, the input's first holding the gathered and then the
    probed batch; and mlp_backward's flat delta buffer of n * max(hidden)
    entries."""
    return (
        np.empty((n, layer_sizes[0]), DTYPE),
        [np.empty((n, s), DTYPE) for s in layer_sizes],
        np.empty(n * max(layer_sizes[1:-1], default=0), DTYPE),
    )


def _draw_noise(seed: int, out: np.ndarray) -> np.ndarray:
    """``out``, filled with the probe noise u of the step seeded ``seed``: a
    standard-normal draw in out's dtype.  Numpy alone, as the training
    loop's worker thread runs it."""
    np.random.default_rng(np.random.SeedSequence([int(seed), 11])).standard_normal(out=out, dtype=out.dtype)
    return out


def _probe(batch: np.ndarray, noise: np.ndarray, sigma_a: float) -> np.ndarray:
    """Adds sigma_a * u into ``batch`` in place, u being ``noise``, which
    then holds sigma_a * u; returns u's center column, a copy."""
    u_c = noise[:, noise.shape[1] // 2].copy()
    noise *= noise.dtype.type(sigma_a)  # a float64 scalar would compute sigma_a * u in float64 under NEP 50
    batch += noise
    return u_c


def ardae_loss_and_grad(params: MlpParams, batch: np.ndarray, sigma_a: float, u_c: np.ndarray, work=None):
    """Loss mean (u_c + sigma_a R(y + sigma_a u))^2 over the batch and its
    exact parameter gradients (weight list, bias list), computed in the
    dtype of the weights: the network is always evaluated and differentiated.

    ``batch`` is the probed (N, D) batch y + sigma_a u with the center pixel
    at column D // 2, and ``u_c`` the (N,) center column of u; ``_probe``
    makes both from the patches y and the noise u.  ``work`` is
    (activations, delta buffer) of ``_workspace``, the activations cut to N
    rows; ``batch`` may be the input's buffer, which the forward pass
    overwrites.
    """
    if sigma_a <= 0:
        raise DomainError(f"sigma_a must be positive, got {sigma_a}")
    dtype = params.weights[0].dtype
    sigma_a = dtype.type(sigma_a)  # a float64 scalar would promote the float32 arrays under NEP 50
    batch, u_c = np.asarray(batch, dtype=dtype), np.asarray(u_c, dtype=dtype)
    if batch.ndim != 2 or batch.shape[0] == 0 or u_c.shape != batch.shape[:1]:
        raise DomainError("batch must be a nonempty (N, D) array and u_c its (N,) center noise")
    n = batch.shape[0]
    acts, back = (None, None) if work is None else work
    r, acts = mlp_forward(params, batch, acts=acts)
    resid = u_c + sigma_a * r
    with np.errstate(over="ignore"):  # a diverging step is reported by its non-finite loss alone
        loss = float(np.mean(resid**2))
    if not np.isfinite(loss):
        raise TrainingDivergence(f"non-finite loss {loss!r}")
    dout = 2.0 * sigma_a * resid / n
    return loss, mlp_backward(params, acts, dout, back)


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


def extract_patches(img: np.ndarray, radius: int, index=None) -> np.ndarray:
    """(H*W, (2r+1)^2) rows of reflect-padded context patches.

    With ``index``, the rows of those flat pixel positions only, in that order.
    """
    return _gather_patches(_patch_windows(img, radius), index)


def _patch_windows(img, radius: int) -> np.ndarray:
    """(H, W, 2r+1, 2r+1) view of every context patch of the reflect-padded image."""
    img, size = _as_image(img, radius), (2 * radius + 1,) * 2
    if not img.size:  # no window fits into an empty image
        return np.empty(img.shape + size)
    return np.lib.stride_tricks.sliding_window_view(np.pad(img, radius, mode="reflect"), size)


def _gather_patches(windows: np.ndarray, index=None) -> np.ndarray:
    """The rows of ``extract_patches`` from the windows of ``_patch_windows``."""
    h, w, p, _ = windows.shape
    index = np.arange(h * w) if index is None else np.asarray(index)
    if index.size and not (0 <= index.min() and index.max() < h * w):
        raise DomainError(f"pixel index out of range for a {h}x{w} image")
    return windows[np.divmod(index, w)].reshape(index.size, p * p)


def _adam_step(params, grads, state, lr, t):
    gws, gbs = grads
    for p, g, (m, v) in zip(params.weights + params.biases, gws + gbs, state):
        m[:] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v[:] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1**t)
        vhat = v / (1 - ADAM_BETA2**t)
        p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def ema_update(params: MlpParams, m: float) -> None:
    """One shadow-average step Theta' <- m*Theta' + (1-m)*Theta, in place.

    With constant Theta this contracts ||Theta' - Theta|| by the factor m
    per call; m = 0 makes the copy track Theta exactly.
    """
    for a, ea in zip(params.weights + params.biases, params.ema_weights + params.ema_biases):
        ea *= m
        ea += (1 - m) * a


def geometric_schedule(sigma_a_max: float, sigma_a_min: float, T: int):
    """Length-T geometric sequence from sigma_a_max down to sigma_a_min.

    Endpoints are exact; interior points use ratio (min/max)^(1/(T-1)).
    """
    if not (0 < sigma_a_min <= sigma_a_max):
        raise DomainError(f"need 0 < min <= max, got ({sigma_a_max}, {sigma_a_min})")
    if T < 2:
        raise DomainError(f"schedule length must be >= 2, got {T}")
    ratio = (sigma_a_min / sigma_a_max) ** (1.0 / (T - 1))
    seq = sigma_a_max * ratio ** np.arange(T, dtype=np.float64)
    seq[0] = sigma_a_max
    seq[-1] = sigma_a_min
    return seq


def _steps(config: ArdaeConfig, n_rows: int):
    """Each training step's (epoch, rows, sigma_a, seed).  One generator
    draws, epoch by epoch, the permutation of the rows and then each batch's
    sigma_a and seed; a batch of fewer than 2 rows is skipped."""
    schedule = geometric_schedule(config.sigma_a_max, config.sigma_a_min, config.schedule_len)
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 12]))
    for epoch in range(config.epochs):
        perm = rng.permutation(n_rows)
        for lo in range(0, n_rows, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            if idx.size >= 2:
                yield epoch, idx, schedule[rng.integers(0, config.schedule_len)], int(rng.integers(0, 2**63 - 1))


def train_ardae(config: ArdaeConfig, data) -> tuple:
    """Mini-batch AR-DAE training over the pooled patches of ``data``.

    ``data`` is a sequence of noisy arrays (2-D images, or 1-D samples when
    patch_radius = 0).  Returns (MlpParams with EMA copy, history) where
    history is one (epoch, mean_loss, lr) triple per epoch.  A non-finite
    loss aborts with :class:`TrainingDivergence` carrying the last
    finite-loss snapshot.

    Each batch gathers its patches from the images, numbered image after
    image in raster order, into the input activation's buffer, which every
    batch reuses.  Each image is cast to DTYPE as it is read, so the data is
    held once; the batches and every step's arithmetic are DTYPE too.  A
    worker thread draws the next step's probe noise while a step runs its
    passes, Adam and the EMA; the thread ends before this returns or raises.
    """
    from concurrent.futures import ThreadPoolExecutor  # only training starts a thread

    data = [data] if isinstance(data, np.ndarray) else data
    arrays = [_as_image(np.asarray(a, DTYPE), config.patch_radius) for a in data]
    starts = np.cumsum([0] + [a.size for a in arrays])
    n_rows = int(starts[-1])
    if n_rows < 2:
        raise DomainError(f"training needs at least 2 pixels, got {n_rows}")
    params = init_mlp(config.layer_sizes, config.seed)
    history, losses, t = [], [], 0
    state = [(np.zeros_like(a), np.zeros_like(a)) for a in params.weights + params.biases]
    noise, full_acts, back = _workspace(config.layer_sizes, min(config.batch_size, n_rows))
    steps = _steps(config, n_rows)
    step = next(steps, None)
    with ThreadPoolExecutor(max_workers=1) as pool:
        if step is not None:
            drawn = pool.submit(_draw_noise, step[3], noise[: step[1].size])
        while step is not None:
            epoch, idx, sigma_a, _ = step
            lr = config.lr / 10.0 if epoch >= config.epochs // 2 else config.lr
            # a ragged last batch uses the leading rows of the buffers
            acts = [a[: idx.size] for a in full_acts]
            owner = np.searchsorted(starts, idx, side="right") - 1
            for k in np.flatnonzero(np.bincount(owner)):  # np.unique would import numpy.ma
                rows = owner == k
                acts[0][rows] = extract_patches(arrays[k], config.patch_radius, idx[rows] - starts[k])
            u_c = _probe(acts[0], drawn.result(), sigma_a)
            step = next(steps, None)
            if step is not None:  # the noise buffer is free again: the next u is drawn while this step runs
                drawn = pool.submit(_draw_noise, step[3], noise[: step[1].size])
            try:
                loss, grads = ardae_loss_and_grad(params, acts[0], sigma_a, u_c, work=(acts, back))
            except TrainingDivergence as exc:
                # a failed loss evaluation leaves params at the last good step
                raise TrainingDivergence(
                    f"diverged at epoch {epoch}: {exc}", last_good=params.copy()
                ) from exc
            t += 1
            _adam_step(params, grads, state, lr, t)
            ema_update(params, config.ema_decay)
            losses.append(loss)
            if step is None or step[0] != epoch:
                history.append((epoch, float(np.mean(losses)), lr))
                losses = []
    return params, history


def eval_score(params: MlpParams, y: np.ndarray) -> ScoreField:
    """Score field over an image: the network's EMA copy applied per context
    patch (``MlpParams(w, b, w, b)`` makes that copy the raw weights w, b).

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
        patches = _gather_patches(windows, np.minimum(np.arange(lo, lo + PATCH_BLOCK), y.size - 1))
        out, _ = mlp_forward(params, patches, use_ema=True, acts=acts)
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
    Every loss evaluation sees one probed batch, its u drawn from ``seed``.
    """
    params = params.copy(np.float64)
    probed = np.array(batch, np.float64)
    u_c = _probe(probed, _draw_noise(seed, np.empty_like(probed)), sigma_a)
    _, (gws, gbs) = ardae_loss_and_grad(params, probed, sigma_a, u_c)
    worst = 0.0
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 13]))
    for arr, g in zip(params.weights + params.biases, gws + gbs):
        flat = arr.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for j in rng.choice(flat.size, size=min(GRADCHECK_PROBES, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + GRADCHECK_STEP
            lp, _ = ardae_loss_and_grad(params, probed, sigma_a, u_c)
            flat[j] = orig - GRADCHECK_STEP
            lm, _ = ardae_loss_and_grad(params, probed, sigma_a, u_c)
            flat[j] = orig
            fd = (lp - lm) / (2 * GRADCHECK_STEP)
            denom = max(abs(fd), abs(gflat[j]), 1e-8)
            worst = max(worst, abs(fd - gflat[j]) / denom)
    return worst
