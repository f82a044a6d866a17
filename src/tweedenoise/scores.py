"""Score oracles: l'(y) = d/dy log p(y) for known mixture priors.

Gaussian noise admits a closed-form marginal (each mixture component
convolves to another Gaussian), evaluated in log-sum-exp form.  Poisson and
Gamma marginals are integrated by fixed-order Gauss-Legendre quadrature over
each prior component, with the score taken by analytic differentiation under
the integral:

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import digamma, gammaln, logsumexp

from .errors import DomainError, QuadratureError
from .simulate import GmmPrior
from .tweedie import EPS_Y, ModelKind, NoiseModel

QUAD_ORDER = 48  # per-component Gauss-Legendre points
QUAD_SPAN = 8.0  # integrate each component over mean +- QUAD_SPAN stds
CONVERGENCE_TOL = 1e-6  # max |score(order) - score(2*order)| allowed


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

    p(y) = sum_j w_j N(y; m_j, s_j^2 + sigma^2); the score is the
    responsibility-weighted sum of per-component Gaussian scores.
    """
    if not np.isfinite(sigma) or sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    yy, m, v, resp = gaussian_responsibilities(y, prior, sigma * sigma)
    score = np.sum(resp * ((m - yy) / v), axis=-1)
    return ScoreField(score, backend="oracle-gaussian")


def gaussian_responsibilities(y, prior: GmmPrior, var: float):
    """Posterior component weights p(j | y) under Gaussian noise of variance
    ``var``, shape ``y.shape + (components,)``; returns them after
    ``y[..., None]``, the means m_j and the marginal variances s_j^2 + var."""
    yy = np.asarray(y, dtype=np.float64)[..., None]
    m = np.asarray(prior.means)
    v = np.asarray(prior.stds) ** 2 + var
    logw = np.log(np.maximum(prior.weights, 1e-300))
    logp = logw - 0.5 * (np.log(2.0 * np.pi * v) + (yy - m) ** 2 / v)
    return yy, m, v, np.exp(logp - logsumexp(logp, axis=-1, keepdims=True))


def _component_nodes(prior: GmmPrior, order: int):
    """Gauss-Legendre nodes/log-weights covering every prior component."""
    t, w = leggauss(order)
    xs, logws = [], []
    for wt, m, sd in zip(prior.weights, prior.means, prior.stds):
        lo = max(m - QUAD_SPAN * sd, EPS_Y * 0.1)
        hi = m + QUAD_SPAN * sd
        x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        logpdf = -0.5 * ((x - m) / sd) ** 2 - np.log(sd * np.sqrt(2.0 * np.pi))
        xs.append(x)
        logws.append(np.log(max(wt, 1e-300)) + logpdf + np.log(0.5 * (hi - lo) * w))
    return np.concatenate(xs), np.concatenate(logws)


def quadrature_posterior(y, prior: GmmPrior, model: NoiseModel, order: int):
    """Gauss-Legendre nodes ``xs`` and the posterior weights p(x_j | y) over
    them, shape ``y.shape + xs.shape``, for Poisson or Gamma noise."""
    xs, logws = _component_nodes(prior, order)
    kind = ModelKind(model.kind)
    yy = np.asarray(y, dtype=np.float64)[..., None]
    if kind is ModelKind.POISSON:
        zeta = model.level
        n = yy / zeta
        loglik = n * np.log(xs / zeta) - xs / zeta - gammaln(n + 1.0)
    elif kind is ModelKind.GAMMA:
        k = model.level
        loglik = k * np.log(k / xs) - gammaln(k) + (k - 1.0) * np.log(yy) - (k / xs) * yy
    else:
        raise DomainError(f"quadrature oracle only covers Poisson/Gamma, got {kind}")
    post = loglik + logws
    post -= logsumexp(post, axis=-1, keepdims=True)
    return xs, np.exp(post)


def _quad_score_once(y, prior, model, order):
    xs, post = quadrature_posterior(y, prior, model, order)
    y = np.asarray(y, dtype=np.float64)
    if ModelKind(model.kind) is ModelKind.POISSON:
        zeta = model.level
        e_logx = np.sum(post * np.log(xs / zeta), axis=-1)
        return (e_logx - digamma(y / zeta + 1.0)) / zeta
    k = model.level
    return (k - 1.0) / y - k * np.sum(post / xs, axis=-1)


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
