"""Blind noise-model and noise-level estimation from one noisy image.

Everything rests on a tiny additive probe: y2 = y1 + eps*u with u standard
normal and eps ~ 1e-5, plus the score fields s1 = l'(y1), s2 = l'(y2) from
the same backend.

Model index.  With a = log(y2/y1), b = 2*y1*s1, w = 2*y2*s2 - 2*y1*s1, any
Tweedie model satisfies a*(rho - 2)*(rho + b) + w ~= 0 at each pixel up to
probe-order terms.  Pixels are first masked to |w / (rho_assumed + b)| <=
mask_eps (w vanishes at the true rho, so small values flag pixels where the
probe stayed in the linear regime); w and b are then reduced to scalar
means over the mask, the per-pixel quadratic (keeping the full a field) is
solved, each root is averaged ignoring non-finite entries, and

    rho_hat = max(mean root 1, mean root 2, 0).

Classification bands: [0, 0.9) Gaussian, [0.9, 1.9) Poisson, [1.9, 2.9)
Gamma, else unknown.

Level.  Given the classified family, per pixel

    Gaussian  sigma^2 = -eps*u / (s2 - s1)
    Poisson   zeta    = -y1 + sqrt(y1^2 - 2c),  c = eps*u / (s2 - s1)
    Gamma     k       = 1 + (s2 - s1) / (1/y2 - 1/y1)

with pixels excluded when the relevant denominator magnitude is below
1e-12 or the radicand is negative, and the median of the survivors
reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationFailure
from .scores import ScoreField
from .simulate import rng_for
from .tweedie import EPS_Y, ModelKind

DEFAULT_EPS = 1e-5
DEFAULT_MASK_EPS = 1e-5
DEFAULT_RHO_ASSUMED = 2.2
LEVEL_DENOM_FLOOR = 1e-12
LEVEL_QUORUM = 16

UNKNOWN = "unknown"


@dataclass(frozen=True)
class PerturbationPair:
    """y2 = y1 + eps*u (then clamped at EPS_Y); u stored pre-clamp."""

    y1: np.ndarray
    y2: np.ndarray
    u: np.ndarray
    eps: float


@dataclass(frozen=True)
class ModelEstimate:
    rho_hat: float
    classified: str  # a ModelKind value or "unknown"
    mask_fraction: float
    roots: tuple  # (mean root 1, mean root 2) diagnostics
    n_nonfinite: int = 0


@dataclass(frozen=True)
class LevelEstimate:
    kind: str
    value: float  # sigma^2 | zeta | k
    pixel_count: int
    iqr: float  # spread of the per-pixel estimates


def perturb(y1: np.ndarray, eps: float, seed: int) -> PerturbationPair:
    """Draw the probe pair; eps = 0 degenerates to y2 = y1 exactly."""
    if eps < 0 or not np.isfinite(eps):
        raise DomainError(f"eps must be nonnegative, got {eps}")
    y1 = np.asarray(y1, dtype=np.float64)
    u = rng_for(seed, 2).standard_normal(y1.shape)
    y2 = np.maximum(y1 + eps * u, EPS_Y)
    return PerturbationPair(y1, y2, u, float(eps))


def estimate_rho(
    pair: PerturbationPair,
    s1: ScoreField,
    s2: ScoreField,
    mask_eps: float = DEFAULT_MASK_EPS,
    rho_assumed: float = DEFAULT_RHO_ASSUMED,
) -> ModelEstimate:
    y1, y2 = pair.y1, pair.y2
    v1, v2 = s1.values, s2.values
    a = np.log(y2 / y1)
    b = 2.0 * y1 * v1
    w = 2.0 * y2 * v2 - 2.0 * y1 * v1
    with np.errstate(all="ignore"):
        ww = w / (rho_assumed + b)
    mask = np.isfinite(ww) & (np.abs(ww) <= mask_eps)
    if not mask.any():
        raise EstimationFailure(
            f"empty mask at mask_eps={mask_eps}; increase mask_eps or the image size"
        )
    wbar = float(np.nanmean(w[mask]))
    bbar = float(np.nanmean(b[mask]))
    # a*(rho - 2)*(rho + bbar) + wbar = 0, expanded to a standard quadratic
    first = a * (bbar - 2.0)
    with np.errstate(all="ignore"):
        disc = first**2 - 4.0 * a * (-2.0 * a * bbar + wbar)
        root = np.sqrt(disc)
        p1 = (-first + root) / (2.0 * a)
        p2 = (-first - root) / (2.0 * a)
    f1, f2 = np.isfinite(p1), np.isfinite(p2)
    n_nonfinite = int(np.count_nonzero(~f1) + np.count_nonzero(~f2))
    if not (f1.any() or f2.any()):
        raise EstimationFailure("all quadratic roots non-finite (negative discriminant everywhere?)")
    r1 = float(p1[f1].mean()) if f1.any() else float("nan")
    r2 = float(p2[f2].mean()) if f2.any() else float("nan")
    rho_hat = max(np.nanmax([r1, r2]), 0.0)
    return ModelEstimate(
        rho_hat=float(rho_hat),
        classified=classify_model(rho_hat),
        mask_fraction=float(mask.mean()),
        roots=(r1, r2),
        n_nonfinite=n_nonfinite,
    )


def classify_model(rho_hat: float) -> str:
    """Band rule on rho_hat; total on [0, inf)."""
    if rho_hat < 0 or not np.isfinite(rho_hat):
        raise DomainError(f"rho_hat must be finite and >= 0, got {rho_hat}")
    if rho_hat < 0.9:
        return ModelKind.GAUSSIAN.value
    if rho_hat < 1.9:
        return ModelKind.POISSON.value
    if rho_hat < 2.9:
        return ModelKind.GAMMA.value
    return UNKNOWN


def estimate_level(
    kind,
    pair: PerturbationPair,
    s1: ScoreField,
    s2: ScoreField,
    quorum: int = LEVEL_QUORUM,
) -> LevelEstimate:
    kind = ModelKind(kind)
    y1, y2 = pair.y1, pair.y2
    ds = s2.values - s1.values
    eu = pair.eps * pair.u
    with np.errstate(all="ignore"):
        if kind is ModelKind.GAUSSIAN:
            est = -eu / ds
            keep = np.abs(ds) >= LEVEL_DENOM_FLOOR
        elif kind is ModelKind.POISSON:
            c = eu / ds
            radicand = y1**2 - 2.0 * c
            keep = (np.abs(ds) >= LEVEL_DENOM_FLOOR) & (radicand >= 0)
            est = -y1 + np.sqrt(np.where(keep, radicand, 0.0))
        elif kind is ModelKind.GAMMA:
            dinv = 1.0 / y2 - 1.0 / y1
            est = 1.0 + ds / dinv
            keep = np.abs(dinv) >= LEVEL_DENOM_FLOOR
        else:
            raise DomainError(f"no level estimator for {kind}")
    keep &= np.isfinite(est)
    n = int(np.count_nonzero(keep))
    if n < quorum:
        raise EstimationFailure(f"only {n} valid pixels for {kind.value} level (quorum {quorum})")
    vals = est[keep]
    value = float(np.median(vals))
    if not np.isfinite(value) or value <= 0:
        raise EstimationFailure(f"degenerate {kind.value} level estimate {value!r}")
    q75, q25 = np.percentile(vals, [75, 25])
    return LevelEstimate(kind=kind.value, value=value, pixel_count=n, iqr=float(q75 - q25))
