"""Synthetic data: mixture priors, clean images, noise injection, PSNR, file IO.

Everything takes an explicit integer seed and is a pure function of its
arguments.  Random streams are built on the counter-based Philox generator
keyed through ``SeedSequence([seed, *tags])`` so that independent purposes
(clean draw, noise draw, perturbation) never share a stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ValidationError
from .tweedie import EPS_Y, ModelKind, NoiseModel

PIECEWISE_CONSTANT = "piecewise_constant"
GMM_IID = "gmm_iid"


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic Philox stream for (seed, tags)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, tags)])))


@dataclass(frozen=True)
class GmmPrior:
    """Finite Gaussian mixture over pixel intensities.

    weights sum to 1; means lie in (EPS_Y, 1]; stds positive.
    """

    weights: tuple
    means: tuple
    stds: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.stds, dtype=np.float64)
        if not (w.shape == m.shape == s.shape) or w.ndim != 1 or w.size == 0:
            raise DomainError("weights/means/stds must be equal-length 1-D sequences")
        if not np.all(np.isfinite(np.concatenate([w, m, s]))):
            raise DomainError("weights, means and stds must be finite")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"weights sum to {w.sum()!r}, expected 1")
        if np.any(w < 0):
            raise DomainError("negative component weight")
        if np.any(m <= EPS_Y) or np.any(m > 1.0):
            raise DomainError(f"means must lie in ({EPS_Y}, 1]")
        if np.any(s <= 0):
            raise DomainError("stds must be positive")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "means", tuple(float(x) for x in m))
        object.__setattr__(self, "stds", tuple(float(x) for x in s))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one clean image."""

    kind: str
    height: int
    width: int
    prior: GmmPrior
    regions: int = 1  # piecewise-constant only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (PIECEWISE_CONSTANT, GMM_IID):
            raise DomainError(f"unknown synth kind {self.kind!r}")
        if self.height < 8 or self.width < 8:
            raise DomainError("height and width must be >= 8")
        if self.regions < 1:
            raise DomainError("region count must be >= 1")


def gen_clean(spec: SynthSpec) -> np.ndarray:
    """Deterministic clean image for the given spec.

    piecewise_constant: a grid of ceil(sqrt(regions))^2 axis-aligned cells,
    each filled with a prior mean drawn by the prior weights.  gmm_iid:
    every pixel i.i.d. from the prior, clamped to [EPS_Y, 1].
    """
    rng = rng_for(spec.seed, 0)
    H, W = spec.height, spec.width
    if spec.kind == GMM_IID:
        comp = rng.choice(len(spec.prior.weights), size=(H, W), p=spec.prior.weights)
        x = np.asarray(spec.prior.means)[comp] + np.asarray(spec.prior.stds)[comp] * rng.standard_normal((H, W))
        return np.clip(x, EPS_Y, 1.0)
    g = math.isqrt(spec.regions - 1) + 1  # smallest g with g*g >= regions
    levels = rng.choice(np.asarray(spec.prior.means), size=(g, g), p=spec.prior.weights)
    ri = np.minimum(np.arange(H) * g // H, g - 1)
    ci = np.minimum(np.arange(W) * g // W, g - 1)
    return levels[np.ix_(ri, ci)].astype(np.float64)


def sample_noisy(x: np.ndarray, model: NoiseModel, seed: int) -> np.ndarray:
    """Draw y ~ p(y | x) for the given noise model; output clamped >= EPS_Y.

    Gaussian: y = x + sigma*n.  Poisson: y = zeta * Pois(x/zeta), so that
    Var[y|x] = zeta*x.  Gamma: y = x * Gamma(shape=k, rate=k), mean-one
    multiplicative with Var[y|x] = x^2/k.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = rng_for(seed, 1)
    if model.kind is ModelKind.GAUSSIAN:
        y = x + math.sqrt(model.level) * rng.standard_normal(x.shape)
    elif model.kind is ModelKind.POISSON:
        try:
            y = model.level * rng.poisson(x / model.level).astype(np.float64)
        except ValueError as exc:  # numpy cannot draw at rates this large
            raise DomainError(f"Poisson rate x/zeta out of range for zeta={model.level}: {exc}") from exc
    else:
        k = model.level
        y = x * rng.gamma(shape=k, scale=1.0 / k, size=x.shape)
    return np.maximum(y, EPS_Y)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(1 / MSE) in dB, for images on the [0, 1] scale; +inf when they coincide."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch {a.shape} vs {b.shape}")
    d = a - b
    d *= d  # squared in place
    mse = float(np.mean(d))
    if mse == 0.0:
        return float("inf")
    return 10.0 * math.log10(1.0 / mse)


# ---------------------------------------------------------------------------
# tensor files: little-endian f32 payload + JSON sidecar


def save_tensor(path, arr: np.ndarray) -> None:
    path = Path(path)
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise DomainError(f"expected a 2-D tensor, got shape {arr.shape}")
    path.write_bytes(np.ascontiguousarray(arr, dtype="<f4"))
    sidecar = {"dtype": "f32", "shape": [int(arr.shape[0]), int(arr.shape[1])]}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))


def load_tensor(path) -> np.ndarray:
    """The 2-D tensor that ``save_tensor`` wrote, as the float32 array it is stored in."""
    path = Path(path)
    try:
        meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        h, w = meta["shape"]
        with path.open("rb") as fh:
            raw = np.fromfile(fh, dtype="<f4")
            if fh.read(1):  # fromfile stops before a partial float
                raise ValueError("payload size is not a multiple of 4 bytes")
    except (OSError, ValueError, KeyError, TypeError) as exc:  # missing file, bad JSON, no 2-entry shape
        raise ValidationError(f"tensor {path} is missing or malformed: {exc}") from exc
    if not all(type(n) is int and n >= 0 for n in (h, w)):  # bools, floats and negatives break reshape
        raise ValidationError(f"tensor {path}: shape must be two non-negative integers, got {meta['shape']!r}")
    if meta.get("dtype") != "f32":
        raise DomainError(f"unsupported dtype {meta.get('dtype')!r}")
    if raw.size != h * w:
        raise DomainError(f"payload holds {raw.size} floats, sidecar says {h}x{w}")
    return raw.reshape(h, w)
