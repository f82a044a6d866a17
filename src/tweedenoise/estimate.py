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
into one.  Both estimators work in blocks of BLOCK pixels (``scores``'
element budget), image by image, computing into a few BLOCK-sized buffers
made once per call (a float32 y1 is widened block by block into one more),
and gather what each mean or order statistic needs (the masked w, then the
masked b, each sign's finite roots, the kept level values) into one
pixel-sized buffer, so every statistic is that of the concatenated float64
arrays, bit for bit, and memory beyond the probe data is that buffer, a
mask byte per pixel and those blocks.  The buffered arithmetic keeps the
operation order of the plain expressions, e.g. the discriminant
first**2 - (4a)*((-2a)*bbar + wbar), so each pixel's value is theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationFailure
from .scores import BLOCK, Pool, ScoreField
from .simulate import rng_for
from .tweedie import EPS_Y, ModelKind, NoiseModel

DEFAULT_EPS = 1e-5
DEFAULT_MASK_EPS = 1e-5
RHO_ASSUMED = 2.2  # the constant of the mask rule
LEVEL_DENOM_FLOOR = 1e-12
LEVEL_QUORUM = 16

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
    ``rng_for(seed, 2)``, not kept; eps = 0 degenerates to y2 = y1 exactly.
    A float32 y1 is kept as it is, any other as float64; y2 is float64, and
    the sum widens y1 exactly."""
    if eps < 0 or not np.isfinite(eps):
        raise DomainError(f"eps must be nonnegative, got {eps}")
    y1 = np.asarray(y1)
    y1 = y1.astype(np.float32 if y1.dtype == np.float32 else np.float64, copy=False)
    u = rng_for(seed, 2).standard_normal(y1.shape)
    u *= eps
    u += y1
    return PerturbationPair(y1, np.maximum(u, EPS_Y, out=u))


def _blocks(*fields):
    """The fields' aligned flat float64 blocks of BLOCK pixels; Pools image by image, in order.  A block
    of another dtype (a float32 y1) is widened into its field's one reused buffer: under NEP 50 a float32
    array computes with a Python float in float32, which would change the estimators' bits."""
    wide = [None] * len(fields)
    for arrays in zip(*(f if isinstance(f, Pool) else (f,) for f in fields), strict=True):
        flat = [np.ravel(x) for x in arrays]
        for lo in range(0, flat[0].size, BLOCK):
            block = [x[lo:lo + BLOCK] for x in flat]
            for j, x in enumerate(block):
                if x.dtype != np.float64:
                    if wide[j] is None:
                        wide[j] = np.empty(BLOCK)
                    block[j] = wide[j][:x.size]
                    block[j][...] = x
            yield block


def _gather(buf: np.ndarray, parts) -> int:
    """Copy the parts one after another into the front of ``buf``; returns their count."""
    k = 0
    for part in parts:
        buf[k:k + part.size] = part
        k += part.size
    return k


def _twice_product(y, v, out):
    """2.0 * y * v, into ``out``."""
    np.multiply(y, 2.0, out=out)
    out *= v
    return out


def estimate_rho(
    pair: PerturbationPair,
    s1: ScoreField,
    s2: ScoreField,
    mask_eps: float = DEFAULT_MASK_EPS,
) -> ModelEstimate:
    n = pair.y1.size
    buf, masks = np.empty(n), []  # every gather below reuses buf; masks are kept for the gather of b
    tmp, flag = np.empty((4, min(n, BLOCK))), np.empty(min(n, BLOCK), dtype=bool)  # each block's work

    def masked_w():
        for y1, y2, v1, v2 in _blocks(pair.y1, pair.y2, s1.values, s2.values):
            b, w, ww = tmp[:3, :y1.size]
            _twice_product(y1, v1, b)
            _twice_product(y2, v2, w)
            w -= b
            with np.errstate(all="ignore"):
                np.divide(w, np.add(b, RHO_ASSUMED, out=ww), out=ww)
            keep = np.isfinite(ww)
            keep &= np.less_equal(np.abs(ww, out=ww), mask_eps, out=flag[:y1.size])
            masks.append(keep)
            yield w[keep]

    def finite_roots(sign):
        # a*(rho - 2)*(rho + bbar) + wbar = 0, expanded to a standard quadratic:
        # p = (-first + sign*sqrt(first**2 - (4a)*((-2a)*bbar + wbar))) / (2a), first = a*(bbar - 2)
        for y1, y2 in _blocks(pair.y1, pair.y2):
            a, first, p, t = tmp[:, :y1.size]
            np.log(np.divide(y2, y1, out=a), out=a)
            np.multiply(a, bbar - 2.0, out=first)
            with np.errstate(all="ignore"):
                np.multiply(a, -2.0, out=p)
                p *= bbar
                p += wbar
                np.multiply(a, 4.0, out=t)
                t *= p
                np.subtract(np.square(first, out=p), t, out=p)
                np.sqrt(p, out=p)
                p *= sign
                p -= first
                a *= 2.0
                p /= a
            yield p[np.isfinite(p, out=flag[:y1.size])]

    n_masked = _gather(buf, masked_w())
    if not n_masked:
        raise EstimationFailure(f"empty mask at mask_eps={mask_eps}; increase mask_eps or the image size")
    # a finite ww needs finite w and b, so these plain means are the NaN-ignoring ones
    wbar = float(buf[:n_masked].mean())
    _gather(buf, (_twice_product(y1, v1, tmp[0, :y1.size])[mask]
                  for (y1, v1), mask in zip(_blocks(pair.y1, s1.values), masks)))
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
    tmp, flags = np.empty((3, min(pair.y1.size, BLOCK))), np.empty((2, min(pair.y1.size, BLOCK)), dtype=bool)

    def kept():  # the kept per-pixel estimates, block by block
        for y1, y2, v1, v2 in _blocks(pair.y1, pair.y2, s1.values, s2.values):
            ds, t, est = tmp[:, :y1.size]
            keep, ok = flags[:, :y1.size]
            np.subtract(v2, v1, out=ds)
            with np.errstate(all="ignore"):
                if kind is ModelKind.GAUSSIAN:
                    dy = np.subtract(y2, y1, out=t)
                    np.divide(np.negative(dy, out=est), ds, out=est)  # -dy / ds
                    np.greater_equal(np.abs(ds, out=ds), LEVEL_DENOM_FLOOR, out=keep)
                    keep &= np.not_equal(dy, 0.0, out=ok)
                elif kind is ModelKind.POISSON:  # -y1 + sqrt(y1**2 - 2.0 * (dy / ds)), 0 for sqrt where not kept
                    dy = np.subtract(y2, y1, out=t)
                    np.divide(dy, ds, out=est)
                    est *= 2.0
                    np.greater_equal(np.abs(ds, out=ds), LEVEL_DENOM_FLOOR, out=keep)
                    keep &= np.not_equal(dy, 0.0, out=ok)
                    radicand = np.subtract(np.square(y1, out=t), est, out=t)
                    keep &= np.greater_equal(radicand, 0.0, out=ok)
                    np.copyto(radicand, 0.0, where=np.logical_not(keep, out=ok))
                    np.subtract(np.sqrt(radicand, out=radicand), y1, out=est)
                else:
                    dinv = np.subtract(np.divide(1.0, y2, out=t), np.divide(1.0, y1, out=est), out=t)
                    np.divide(ds, dinv, out=est)
                    est += 1.0
                    np.greater_equal(np.abs(dinv, out=dinv), LEVEL_DENOM_FLOOR, out=keep)
            keep &= np.isfinite(est, out=ok)
            yield est[keep]

    vals = np.empty(pair.y1.size)
    n = _gather(vals, kept())
    if n < LEVEL_QUORUM:
        raise EstimationFailure(f"only {n} valid pixels for {kind.value} level (quorum {LEVEL_QUORUM})")
    vals = vals[:n]
    # np.median and np.percentile (linear), written out over one-position partitions of nested views:
    # numpy selects one position in SIMD, several by introselect.  Partitioned at the middle, vals holds
    # the values below it in low and those above it in high; n >= LEVEL_QUORUM = 16 puts each quartile
    # and its upper neighbour i + 1 inside one of them, and a neighbour above is the minimum of its part
    mid = (n - 1) // 2
    vals.partition(mid)
    low, high = vals[:mid], vals[mid + 1:]
    middle = vals[mid:mid + 1] if n % 2 else np.array([vals[mid], high.min()])
    value = float(middle.mean())  # the middle value, or the middle two's mean
    try:
        NoiseModel(kind, value)  # finite and positive, Gamma k > 1
    except DomainError:
        raise EstimationFailure(f"degenerate {kind.value} level estimate {value!r}") from None
    at = [(n - 1) * 0.75, (n - 1) * 0.25]  # the quartiles' fractional positions
    below = [int(x) for x in at]
    q75, q25 = (_lerp(*_selected(part, i - start), x - i)
                for x, i, part, start in zip(at, below, (high, low), (mid + 1, 0)))
    return LevelEstimate(kind=kind.value, value=value, pixel_count=n, iqr=float(q75 - q25))


def _selected(part, i):
    """The i-th and (i + 1)-th smallest values of ``part``, by one partition at i."""
    part.partition(i)
    return part[i], part[i + 1:].min()


def _lerp(a, b, t):
    """np.percentile's linear interpolation from a to b, exact at both ends."""
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t
