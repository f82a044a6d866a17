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

Both estimators work in blocks of BLOCK pixels and gather the survivors into
one flat array, so each mean and order statistic is the whole image's, bit
for bit, and memory beyond the probe data is one pixel-sized buffer and a
few blocks.
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
BLOCK = 1 << 15  # pixels per block of the estimators' elementwise work

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


def _blocks(*arrays):
    """The arrays' aligned flat blocks of BLOCK pixels."""
    flat = [np.ravel(x) for x in arrays]
    return ([x[lo:lo + BLOCK] for x in flat] for lo in range(0, flat[0].size, BLOCK))


def estimate_rho(
    pair: PerturbationPair,
    s1: ScoreField,
    s2: ScoreField,
    mask_eps: float = DEFAULT_MASK_EPS,
    rho_assumed: float = DEFAULT_RHO_ASSUMED,
) -> ModelEstimate:
    n, ws, bs = pair.y1.size, [], []
    for y1, y2, v1, v2 in _blocks(pair.y1, pair.y2, s1.values, s2.values):
        b = 2.0 * y1 * v1
        w = 2.0 * y2 * v2 - b
        with np.errstate(all="ignore"):
            ww = w / (rho_assumed + b)
        mask = np.isfinite(ww) & (np.abs(ww) <= mask_eps)
        ws.append(w[mask])
        bs.append(b[mask])
    n_masked = sum(w.size for w in ws)
    if not n_masked:
        raise EstimationFailure(f"empty mask at mask_eps={mask_eps}; increase mask_eps or the image size")
    wbar, bbar = (float(np.nanmean(np.concatenate(x))) for x in (ws, bs))
    del ws, bs
    # a*(rho - 2)*(rho + bbar) + wbar = 0, expanded to a standard quadratic;
    # each sign's finite roots are gathered into one buffer and averaged there
    buf, roots, n_nonfinite = np.empty(n), [], 0
    for sign in (1.0, -1.0):
        k = 0
        for y1, y2 in _blocks(pair.y1, pair.y2):
            a = np.log(y2 / y1)
            first = a * (bbar - 2.0)
            with np.errstate(all="ignore"):
                disc = first**2 - 4.0 * a * (-2.0 * a * bbar + wbar)
                p = (-first + sign * np.sqrt(disc)) / (2.0 * a)
            p = p[np.isfinite(p)]
            buf[k:k + p.size] = p
            k += p.size
        n_nonfinite += n - k
        roots.append(float(buf[:k].mean()) if k else float("nan"))
    if n_nonfinite == 2 * n:
        raise EstimationFailure("all quadratic roots non-finite (negative discriminant everywhere?)")
    rho_hat = max(np.nanmax(roots), 0.0)
    return ModelEstimate(rho_hat=float(rho_hat), classified=classify_model(rho_hat), mask_fraction=n_masked / n,
                         roots=tuple(roots), n_nonfinite=n_nonfinite)


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
) -> LevelEstimate:
    kind = ModelKind(kind)
    vals, n = np.empty(pair.y1.size), 0  # the kept per-pixel estimates, gathered
    for y1, y2, u, v1, v2 in _blocks(pair.y1, pair.y2, pair.u, s1.values, s2.values):
        ds, eu = v2 - v1, pair.eps * u
        with np.errstate(all="ignore"):
            if kind is ModelKind.GAUSSIAN:
                est = -eu / ds
                keep = np.abs(ds) >= LEVEL_DENOM_FLOOR
            elif kind is ModelKind.POISSON:
                radicand = y1**2 - 2.0 * (eu / ds)
                keep = (np.abs(ds) >= LEVEL_DENOM_FLOOR) & (radicand >= 0)
                est = -y1 + np.sqrt(np.where(keep, radicand, 0.0))
            else:
                dinv = 1.0 / y2 - 1.0 / y1
                est = 1.0 + ds / dinv
                keep = np.abs(dinv) >= LEVEL_DENOM_FLOOR
        est = est[keep & np.isfinite(est)]
        vals[n:n + est.size] = est
        n += est.size
    if n < LEVEL_QUORUM:
        raise EstimationFailure(f"only {n} valid pixels for {kind.value} level (quorum {LEVEL_QUORUM})")
    vals = vals[:n]
    value = float(np.median(vals, overwrite_input=True))
    if not np.isfinite(value) or value <= 0:
        raise EstimationFailure(f"degenerate {kind.value} level estimate {value!r}")
    q75, q25 = np.percentile(vals, [75, 25], overwrite_input=True)
    return LevelEstimate(kind=kind.value, value=value, pixel_count=n, iqr=float(q75 - q25))
