"""Tweedie exponential-dispersion mathematics.

A Tweedie model has conditional variance ``V[mu] = phi * mu**rho``.  The
members used here:

    rho = 0   Gaussian,         phi = sigma^2
    rho = 1   Poisson (scaled), phi = zeta
    rho = 2   Gamma,            phi = 1/k      (shape alpha = beta = k)

Other indices, rho = 3 (inverse Gaussian) among them, are density-only:
they enter through :class:`TweedieParams`, never as a :class:`ModelKind`.

The density is handled through the saddle-point form

    p(y; mu, phi) ~= (2*pi*phi*y**rho)**(-1/2) * exp(-d(y, mu) / (2*phi))

with unit deviance

    d(y, mu) = 2 * [ y^(2-rho)/((1-rho)(2-rho))
                     - y*mu^(1-rho)/(1-rho) + mu^(2-rho)/(2-rho) ]

and the posterior mean of mu given a noisy y and the marginal score
l'(y) = d/dy log p(y) is

    xhat = y * (1 + (1-rho)*alpha)^(1/(1-rho)),
    alpha = phi * y^(rho-1) * (rho/(2y) + l'(y)),

which reduces exactly to the familiar special cases at rho = 0 and 2 and to
``y*exp(alpha)`` in the rho -> 1 limit.

All functions are elementwise over numpy arrays and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SingularEstimateError

# Intensities are clamped below at this floor before entering any formula
# with y^(rho-1), log(y) or 1/y in it.
EPS_Y = 1e-4

# |rho - b| below this routes to the analytic branch at b in {1, 2}; the
# generic deviance expression cancels catastrophically nearby.
BRANCH_EPS = 1e-6

# Batch Gamma denoising clamps (k - 1) - y*l'(y) below at this floor
# instead of raising per pixel.
GAMMA_DENOM_FLOOR = 1e-6


class ModelKind(str, Enum):
    GAUSSIAN = "gaussian"
    POISSON = "poisson"
    GAMMA = "gamma"


@dataclass(frozen=True)
class TweedieParams:
    """The pair (rho, phi) of a power-variance dispersion model."""

    rho: float
    phi: float

    def __post_init__(self):
        # phi may be an array (one dispersion per pixel); rho stays scalar
        phi = np.asarray(self.phi)
        if not np.isfinite(self.rho) or not np.all(np.isfinite(phi)):
            raise DomainError(f"non-finite Tweedie params {self}")
        if np.any(phi <= 0):
            raise DomainError(f"phi must be positive, got {self.phi}")


@dataclass(frozen=True)
class NoiseModel:
    """A concrete noise family plus its level parameter.

    ``level`` is sigma^2 for Gaussian, zeta for Poisson and k for Gamma.
    Checked when made, with ``kind`` stored as a :class:`ModelKind`.
    """

    kind: ModelKind
    level: float

    def __post_init__(self):
        kind = ModelKind(self.kind)
        if not np.isfinite(self.level) or self.level <= 0:
            raise DomainError(f"level must be finite and positive, got {self.level}")
        if kind is ModelKind.GAMMA and self.level <= 1:  # the denoising formula divides by (k - 1) - y*l'(y)
            raise DomainError(f"Gamma requires k > 1, got {self.level}")
        object.__setattr__(self, "kind", kind)


def _check_positive(name, x):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} contains non-finite entries")
    if np.any(x <= 0):
        raise DomainError(f"{name} must be strictly positive")
    return x


def unit_deviance(y, mu, rho: float):
    """Unit deviance d(y, mu) of the rho-Tweedie family.

    Uses the analytic limits at rho in {0, 1, 2} and the generic power
    expression elsewhere; nonnegative, zero iff y == mu.
    """
    y = _check_positive("y", y)
    mu = _check_positive("mu", mu)
    if not np.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho}")
    if rho == 0.0:
        return np.square(y - mu)
    if abs(rho - 1.0) < BRANCH_EPS:
        return 2.0 * (y * np.log(y / mu) - (y - mu))
    if abs(rho - 2.0) < BRANCH_EPS:
        return 2.0 * (y / mu - np.log(y / mu) - 1.0)
    r1, r2 = 1.0 - rho, 2.0 - rho
    # difference-of-powers arrangement: exactly 0 at y == mu, no residue
    # from three-way cancellation
    return 2.0 * (
        y * (np.power(y, r1) - np.power(mu, r1)) / r1
        - (np.power(y, r2) - np.power(mu, r2)) / r2
    )


def saddle_density(y, params: TweedieParams, mu):
    """Saddle-point density (2*pi*phi*y^rho)^(-1/2) * exp(-d/(2*phi)).

    Computed through the log so that overflow degrades to 0 / +inf
    consistently with the sign of the exponent.
    """
    if 0.0 < params.rho < 1.0:  # no EDM exists on (0,1); such values occur only as estimates
        raise DomainError(f"rho={params.rho} in (0,1) has no density")
    y = _check_positive("y", y)
    mu = _check_positive("mu", mu)
    d = unit_deviance(y, mu, params.rho)
    log_norm = -0.5 * (np.log(2.0 * np.pi * params.phi) + params.rho * np.log(y))
    with np.errstate(over="ignore"):
        return np.exp(log_norm - d / (2.0 * params.phi))


def variance_function(mu, params: TweedieParams):
    """Conditional variance V[mu] = phi * mu**rho."""
    mu = _check_positive("mu", mu)
    return params.phi * np.power(mu, params.rho)


def alpha_term(y, params: TweedieParams, score):
    """alpha(y, rho, phi) = phi * y^(rho-1) * (rho/(2y) + l'(y))."""
    y = _check_positive("y", y)
    score = np.asarray(score, dtype=np.float64)
    return params.phi * np.power(y, params.rho - 1.0) * (params.rho / (2.0 * y) + score)


def posterior_mean_universal(y, params: TweedieParams, score):
    """Posterior mean y*(1 + (1-rho)*alpha)^(1/(1-rho)) for any rho.

    At rho = 0 this is y + phi*l'(y), evaluated directly; near rho = 1 the
    L'Hospital limit y*exp(alpha) is used.  Raises
    :class:`SingularEstimateError` if the base of the fractional power is
    not positive at some pixel.
    """
    a = alpha_term(y, params, score)
    y = np.asarray(y, dtype=np.float64)
    if params.rho == 0.0:
        # exponent 1/(1-rho) is exactly 1; the reduction to y + phi*l'(y)
        # is an algebraic identity and evaluating it directly keeps the
        # Gaussian case exact (no power/cancellation round-off)
        return y + params.phi * np.asarray(score, dtype=np.float64)
    if abs(params.rho - 1.0) < BRANCH_EPS:
        return y * np.exp(a)
    r1 = 1.0 - params.rho
    base = 1.0 + r1 * a
    if np.any(base <= 0.0):
        idx = int(np.flatnonzero(np.atleast_1d(base <= 0.0))[0])
        raise SingularEstimateError(
            f"non-positive fractional-power base at pixel {idx} "
            f"(rho={params.rho}, base={np.atleast_1d(base).ravel()[idx]:.3e})"
        )
    return y * np.power(base, 1.0 / r1)


def _family_mean(y, model: NoiseModel, score):
    """(y, xhat, denom) of the closed-form family means.  For Gamma, denom
    is (k - 1) - y*l'(y) and xhat divides by it clamped below at
    GAMMA_DENOM_FLOOR; denom is None for the other families."""
    y = _check_positive("y", y)
    score = np.asarray(score, dtype=np.float64)
    if model.kind is ModelKind.GAUSSIAN:
        return y, y + model.level * score, None
    if model.kind is ModelKind.POISSON:
        with np.errstate(over="ignore"):
            return y, (y + model.level / 2.0) * np.exp(model.level * score), None
    k = model.level
    denom = (k - 1.0) - y * score
    return y, k * y / np.maximum(denom, GAMMA_DENOM_FLOOR), denom


def posterior_mean_special(y, model: NoiseModel, score):
    """Closed-form posterior means for the three denoising families.

    Gaussian:  y + sigma^2 * l'(y)
    Poisson:   (y + zeta/2) * exp(zeta * l'(y))
    Gamma:     k*y / ((k - 1) - y*l'(y))

    Raises :class:`SingularEstimateError` where a Gamma denominator is at or
    below GAMMA_DENOM_FLOOR; see :func:`denoise_field` for the guarded
    batch variant.
    """
    _, xhat, denom = _family_mean(y, model, score)
    if denom is not None and np.any(denom <= GAMMA_DENOM_FLOOR):
        idx = int(np.flatnonzero(np.atleast_1d(denom <= GAMMA_DENOM_FLOOR))[0])
        raise SingularEstimateError(
            f"Gamma denominator {np.atleast_1d(denom).ravel()[idx]:.3e} at or "
            f"below floor {GAMMA_DENOM_FLOOR} at pixel {idx}"
        )
    return xhat


def denoise_field(y, model: NoiseModel, score):
    """Batch posterior mean with the per-pixel singularity guards.

    Returns ``(xhat, n_singular)``.  Gamma denominators are clamped below
    at :data:`GAMMA_DENOM_FLOOR`; any remaining non-finite estimate falls
    back to the identity xhat = y.  Both events count as singular pixels.
    """
    y, xhat, denom = _family_mean(y, model, score)
    n_singular = 0 if denom is None else int(np.count_nonzero(denom < GAMMA_DENOM_FLOOR))
    bad = ~np.isfinite(xhat)
    if np.any(bad):
        n_singular += int(np.count_nonzero(bad))
        xhat = np.where(bad, y, xhat)
    return xhat, n_singular
