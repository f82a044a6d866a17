"""Blind noise-model and noise-level estimation from one noisy image.

Everything rests on a tiny additive probe: y2 = max(y1 + eps*u, EPS_Y) with
u standard normal and eps ~ 1e-5, plus the score fields s1 = l'(y1),
s2 = l'(y2) from the same backend.  The probe is the two images y1 and y2;
u is not kept, and every estimator reads the step dy = y2 - y1 that the
score saw (exact in float64 at this eps, clamp included).

Model index.  With a = log(y2/y1), b = 2*y1*s1, w = 2*y2*s2 - 2*y1*s1, any
Tweedie model satisfies a*(rho - 2)*(rho + b) + w ~= 0 at each pixel up to
probe-order terms.  Pixels are first masked to |w / (RHO_ASSUMED + b)| <=
mask_eps, RHO_ASSUMED = 2.2 (w vanishes at the true rho, so small values flag
pixels where the probe stayed in the linear regime); w and b are then reduced
to scalar means over the mask, the per-pixel quadratic (keeping the full a
field) is solved, each root is averaged ignoring non-finite entries, and

    rho_hat = max(mean root 1, mean root 2, 0).

Classification bands: [0, 0.9) Gaussian, [0.9, 1.9) Poisson, [1.9, 2.9)
Gamma, else unknown.

Level.  Given the classified family, per pixel

    Gaussian  sigma^2 = -dy / (s2 - s1)
    Poisson   zeta    = -y1 + sqrt(y1^2 - 2c),  c = dy / (s2 - s1)
    Gamma     k       = 1 + (s2 - s1) / (1/y2 - 1/y1)

with pixels excluded when the probe did not move them (dy = 0; a patch
score's s2 - s1 need not vanish there), when the relevant denominator
magnitude is below 1e-12 or when the radicand is negative, and the median
of the survivors reported if a NoiseModel takes it (Gamma needs k > 1).

A group of images is estimated as one pool: the pair's fields and the score
fields are then Pools of each image's arrays, read in order and never copied
into one.  Both estimators work in blocks of BLOCK pixels, image by image,
and gather what each mean or order statistic needs (the masked w, then the
masked b, each sign's finite roots, the kept level values) into one
pixel-sized buffer, so every statistic is that of the concatenated arrays,
bit for bit, and memory beyond the probe data is that buffer and a few
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationFailure
from .scores import Pool, ScoreField
from .simulate import rng_for
from .tweedie import EPS_Y, ModelKind, NoiseModel

DEFAULT_EPS = 1e-5
DEFAULT_MASK_EPS = 1e-5
RHO_ASSUMED = 2.2  # the constant of the mask rule
LEVEL_DENOM_FLOOR = 1e-12
LEVEL_QUORUM = 16
BLOCK = 1 << 15  # pixels per block of the estimators' elementwise work

UNKNOWN = "unknown"


@dataclass(frozen=True)
class PerturbationPair:
    """The probe: y1 and y2 = max(y1 + eps*u, EPS_Y).  A pooled group's pair
    holds a Pool of each image's arrays in both fields."""

    y1: np.ndarray
    y2: np.ndarray


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
    """The probe pair y1, max(y1 + eps*u, EPS_Y) with u standard normal from
    ``rng_for(seed, 2)``, not kept; eps = 0 degenerates to y2 = y1 exactly."""
    if eps < 0 or not np.isfinite(eps):
        raise DomainError(f"eps must be nonnegative, got {eps}")
    y1 = np.asarray(y1, dtype=np.float64)
    return PerturbationPair(y1, np.maximum(y1 + eps * rng_for(seed, 2).standard_normal(y1.shape), EPS_Y))


def _blocks(*fields):
    """The fields' aligned flat blocks of BLOCK pixels; Pools image by image, in order."""
    for arrays in zip(*(f if isinstance(f, Pool) else (f,) for f in fields), strict=True):
        flat = [np.ravel(x) for x in arrays]
        yield from ([x[lo:lo + BLOCK] for x in flat] for lo in range(0, flat[0].size, BLOCK))


def _gather(buf: np.ndarray, parts) -> int:
    """Copy the parts one after another into the front of ``buf``; returns their count."""
    k = 0
    for part in parts:
        buf[k:k + part.size] = part
        k += part.size
    return k


def estimate_rho(
    pair: PerturbationPair,
    s1: ScoreField,
    s2: ScoreField,
    mask_eps: float = DEFAULT_MASK_EPS,
) -> ModelEstimate:
    n = pair.y1.size
    buf, masks = np.empty(n), []  # every gather below reuses buf; masks are kept for the gather of b

    def masked_w():
        for y1, y2, v1, v2 in _blocks(pair.y1, pair.y2, s1.values, s2.values):
            b = 2.0 * y1 * v1
            w = 2.0 * y2 * v2 - b
            with np.errstate(all="ignore"):
                ww = w / (RHO_ASSUMED + b)
            masks.append(np.isfinite(ww) & (np.abs(ww) <= mask_eps))
            yield w[masks[-1]]

    def finite_roots(sign):
        # a*(rho - 2)*(rho + bbar) + wbar = 0, expanded to a standard quadratic
        for y1, y2 in _blocks(pair.y1, pair.y2):
            a = np.log(y2 / y1)
            first = a * (bbar - 2.0)
            with np.errstate(all="ignore"):
                disc = first**2 - 4.0 * a * (-2.0 * a * bbar + wbar)
                p = (-first + sign * np.sqrt(disc)) / (2.0 * a)
            yield p[np.isfinite(p)]

    n_masked = _gather(buf, masked_w())
    if not n_masked:
        raise EstimationFailure(f"empty mask at mask_eps={mask_eps}; increase mask_eps or the image size")
    # a finite ww needs finite w and b, so these plain means are the NaN-ignoring ones
    wbar = float(buf[:n_masked].mean())
    _gather(buf, ((2.0 * y1 * v1)[mask] for (y1, v1), mask in zip(_blocks(pair.y1, s1.values), masks)))
    del masks
    bbar = float(buf[:n_masked].mean())
    roots, n_nonfinite = [], 0
    for sign in (1.0, -1.0):
        k = _gather(buf, finite_roots(sign))
        n_nonfinite += n - k
        roots.append(float(buf[:k].mean()) if k else np.nan)  # the NaN object that from_json reads back
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

    def kept():  # the kept per-pixel estimates, block by block
        for y1, y2, v1, v2 in _blocks(pair.y1, pair.y2, s1.values, s2.values):
            ds, dy = v2 - v1, y2 - y1
            with np.errstate(all="ignore"):
                if kind is ModelKind.GAUSSIAN:
                    est = -dy / ds
                    keep = (np.abs(ds) >= LEVEL_DENOM_FLOOR) & (dy != 0)
                elif kind is ModelKind.POISSON:
                    radicand = y1**2 - 2.0 * (dy / ds)
                    keep = (np.abs(ds) >= LEVEL_DENOM_FLOOR) & (dy != 0) & (radicand >= 0)
                    est = -y1 + np.sqrt(np.where(keep, radicand, 0.0))
                else:
                    dinv = 1.0 / y2 - 1.0 / y1
                    est = 1.0 + ds / dinv
                    keep = np.abs(dinv) >= LEVEL_DENOM_FLOOR
            yield est[keep & np.isfinite(est)]

    vals = np.empty(pair.y1.size)
    n = _gather(vals, kept())
    if n < LEVEL_QUORUM:
        raise EstimationFailure(f"only {n} valid pixels for {kind.value} level (quorum {LEVEL_QUORUM})")
    vals = vals[:n]
    # np.median and np.percentile (linear), written out over one partition at their order positions;
    # n >= LEVEL_QUORUM > 1, so each quartile's upper neighbour i + 1 is inside vals
    at = [(n - 1) * 0.75, (n - 1) * 0.25]  # the quartiles' fractional positions
    below = [int(x) for x in at]
    vals.partition(sorted({(n - 1) // 2, n // 2, *below, *(i + 1 for i in below)}))
    value = float(vals[(n - 1) // 2:n // 2 + 1].mean())  # the middle value, or the middle two's mean
    try:
        NoiseModel(kind, value)  # finite and positive, Gamma k > 1
    except DomainError:
        raise EstimationFailure(f"degenerate {kind.value} level estimate {value!r}") from None
    q75, q25 = (_lerp(vals[i], vals[i + 1], x - i) for x, i in zip(at, below))
    return LevelEstimate(kind=kind.value, value=value, pixel_count=n, iqr=float(q75 - q25))


def _lerp(a, b, t):
    """np.percentile's linear interpolation from a to b, exact at both ends."""
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t
