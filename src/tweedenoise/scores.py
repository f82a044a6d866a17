"""Score oracles: l'(y) = d/dy log p(y) for known mixture priors.

Gaussian noise admits a closed-form marginal (each mixture component
convolves to another Gaussian); ``gaussian_posterior`` evaluates its score
and the oracle column component-major, per block of QUAD_BLOCK pixels.
Poisson and Gamma marginals are integrated by fixed-order Gauss-Legendre
quadrature over each prior component, with the score taken by analytic
differentiation under the integral:

    Poisson  p(y|x) interpolated via lgamma:  n = y/zeta,
             log p = n*log(x/zeta) - x/zeta - lgamma(n+1)
             => l'(y) = (E[log(x/zeta) | y] - digamma(n+1)) / zeta
    Gamma    p(y|x) = Gamma(y; shape k, rate k/x)
             => l'(y) = (k-1)/y - k * E[1/x | y]

The lgamma interpolation makes the Poisson likelihood smooth in y, so the
same under-the-integral route serves both kinds; the digamma term is the
exact derivative of the interpolated normalizer.  Every call is
double-checked against a doubled quadrature order and fails loudly rather
than returning an unconverged score.

On the log scale the node posterior p(x_j | y) is affine in y: the terms
constant in x (lgamma(n+1); lgamma(k) and (k-1)*log(y)) cancel on
normalisation, leaving c_j + y*d_j, with logw_j the node's log-weight:

    Poisson  c_j = logw_j - x_j/zeta,        d_j = log(x_j/zeta)/zeta
    Gamma    c_j = logw_j + k*log(k/x_j),    d_j = -k/x_j

``quadrature_posterior`` evaluates it in blocks of QUAD_BLOCK pixels, which
bounds memory whatever the image size, for the score and the oracle column.
scipy is imported only where it is used: digamma, in the Poisson score.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, QuadratureError
from .simulate import GmmPrior
from .tweedie import EPS_Y, ModelKind, NoiseModel

QUAD_ORDER = 48  # per-component Gauss-Legendre points
QUAD_SPAN = 8.0  # integrate each component over mean +- QUAD_SPAN stds
CONVERGENCE_TOL = 1e-6  # max |score(order) - score(2*order)| allowed
QUAD_BLOCK = 2048  # pixels per block of the quadrature kernel


@dataclass(frozen=True)
class ScoreField:
    """Per-pixel score values plus the backend that produced them."""

    values: np.ndarray
    backend: str = "unspecified"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise DomainError("score field contains non-finite entries")
        object.__setattr__(self, "values", v)


def analytic_score_gaussian(y, prior: GmmPrior, sigma: float) -> ScoreField:
    """Exact marginal score under Gaussian noise.

    p(y) = sum_j w_j N(y; m_j, v_j) with v_j = s_j^2 + sigma^2; the score is
    the responsibility-weighted sum of per-component scores -(y - m_j) / v_j.
    """
    if not np.isfinite(sigma) or sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    return ScoreField(gaussian_posterior(y, prior, sigma * sigma, -1.0, 0.0), backend="oracle-gaussian")


def gaussian_posterior(y, prior: GmmPrior, var: float, gain, offset):
    """sum_j p(j | y) * (gain_j / v_j * (y - m_j) + offset_j) shaped like ``y``, v_j = s_j^2 + var.
    Per block, one buffer row per component holds the logits c_j - (y - m_j)^2 / (2 v_j),
    unexpanded to keep digits, shifted by their max and exponentiated in place."""
    m, v = np.asarray(prior.means)[:, None], np.square(prior.stds)[:, None] + var
    c = np.log(np.maximum(prior.weights, 1e-300))[:, None] - 0.5 * np.log(2.0 * np.pi * v)
    slope, offset = np.reshape(gain, (-1, 1)) / v, np.reshape(offset, (-1, 1))
    flat = np.asarray(y, dtype=np.float64).ravel()
    out = np.empty_like(flat)
    buf = np.empty((2, m.size, min(flat.size, QUAD_BLOCK)))
    norm = np.empty(buf.shape[2])
    for lo in range(0, flat.size, QUAD_BLOCK):
        yb, res = flat[lo : lo + QUAD_BLOCK], out[lo : lo + QUAD_BLOCK]
        dev, logit, z = buf[0, :, : yb.size], buf[1, :, : yb.size], norm[: yb.size]
        np.subtract(yb, m, out=dev)
        np.multiply(dev, dev, out=logit)
        logit /= 2.0 * v
        np.subtract(c, logit, out=logit)
        logit -= logit.max(axis=0, out=z)
        np.exp(logit, out=logit)
        dev *= slope
        dev += offset
        dev *= logit
        np.divide(dev.sum(axis=0, out=res), logit.sum(axis=0, out=z), out=res)
    return out.reshape(np.shape(y))[()]


@functools.lru_cache(maxsize=8)
def _component_nodes(prior: GmmPrior, order: int):
    """Gauss-Legendre nodes/log-weights covering every prior component,
    built once per (prior, order) and returned read-only."""
    t, w = leggauss(order)
    xs, logws = [], []
    for wt, m, sd in zip(prior.weights, prior.means, prior.stds):
        lo = max(m - QUAD_SPAN * sd, EPS_Y * 0.1)
        hi = m + QUAD_SPAN * sd
        x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        logpdf = -0.5 * ((x - m) / sd) ** 2 - np.log(sd * np.sqrt(2.0 * np.pi))
        xs.append(x)
        logws.append(np.log(max(wt, 1e-300)) + logpdf + np.log(0.5 * (hi - lo) * w))
    xs, logws = np.concatenate(xs), np.concatenate(logws)
    xs.flags.writeable = logws.flags.writeable = False
    return xs, logws


def quadrature_posterior(y, prior: GmmPrior, model: NoiseModel, order: int):
    """(E[f(x) | y], E[x | y]) over the quadrature nodes, each shaped like
    ``y``, for Poisson or Gamma noise, with f = log(x/zeta) (Poisson) or 1/x
    (Gamma).  Per block, [y, 1] @ [d; c] fills a reused buffer with the node
    logits, which are shifted by their row max and exponentiated in place;
    one product with the node columns [1, f, x] sums all three moments."""
    xs, logws = _component_nodes(prior, order)
    kind = ModelKind(model.kind)
    if kind is ModelKind.POISSON:
        zeta = model.level
        f = np.log(xs / zeta)
        c, d = logws - xs / zeta, f / zeta
    elif kind is ModelKind.GAMMA:
        k = model.level
        f = 1.0 / xs
        c, d = logws + k * np.log(k / xs), -k * f
    else:
        raise DomainError(f"quadrature oracle only covers Poisson/Gamma, got {kind}")
    dc, cols = np.stack([d, c]), np.stack([np.ones_like(xs), f, xs], axis=1)
    flat = np.asarray(y, dtype=np.float64).ravel()
    sums = np.empty((flat.size, 3))
    y_one = np.ones((min(flat.size, QUAD_BLOCK), 2))
    buf = np.empty((len(y_one), xs.size))
    for lo in range(0, flat.size, QUAD_BLOCK):
        n = min(QUAD_BLOCK, flat.size - lo)
        y_one[:n, 0] = flat[lo : lo + n]
        b = np.matmul(y_one[:n], dc, out=buf[:n])
        b -= b.max(axis=1, keepdims=True)
        np.exp(b, out=b)
        np.matmul(b, cols, out=sums[lo : lo + n])
    return tuple((sums[:, 1:] / sums[:, :1]).T.reshape(2, *np.shape(y)))


def _quad_score_once(y, prior, model, order):
    e_f, _ = quadrature_posterior(y, prior, model, order)
    if ModelKind(model.kind) is ModelKind.POISSON:
        from scipy.special import digamma
        zeta = model.level
        return (e_f - digamma(y / zeta + 1.0)) / zeta
    k = model.level
    return (k - 1.0) / y - k * e_f


def numeric_marginal_score(
    y, prior: GmmPrior, model: NoiseModel, order: int = QUAD_ORDER, check: bool = True
) -> ScoreField:
    """Quadrature-oracle score for Poisson or Gamma noise over a GMM prior.

    With ``check`` the score is recomputed at twice the order and any
    disagreement beyond CONVERGENCE_TOL raises :class:`QuadratureError`.
    """
    model.validate()
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < EPS_Y * 0.999):
        raise DomainError("y below the intensity floor")
    s = _quad_score_once(y, prior, model, order)
    if check:
        s2 = _quad_score_once(y, prior, model, 2 * order)
        gap = float(np.max(np.abs(s - s2))) if s.size else 0.0
        if gap > CONVERGENCE_TOL:
            raise QuadratureError(
                f"quadrature not converged: order {order} vs {2 * order} differ by {gap:.3e}"
            )
        s = s2  # return the finer evaluation
    return ScoreField(s, backend="oracle-quadrature")


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
