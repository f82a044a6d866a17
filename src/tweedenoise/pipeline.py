"""End-to-end denoising and the independent posterior-mean oracle.

The blind path chains probe -> scores -> index estimate -> classification
-> level estimate -> family formula, consuming the score at y1 for the
final formula and clamping the output to [EPS_Y, 1].  Blind estimation
costs exactly one extra score evaluation (at y2) over known-model
denoising.

``brute_posterior_mean`` computes E[x | y] by adaptive quadrature against
the exact likelihood (lattice-sum convention for Poisson: y = zeta * n) and
serves as the ground truth that the Tweedie formulas are tested against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EstimationFailure, QuadratureError, ValidationError
from .estimate import (
    DEFAULT_EPS,
    DEFAULT_MASK_EPS,
    UNKNOWN,
    LevelEstimate,
    ModelEstimate,
    PerturbationPair,
    classify_model,
    estimate_level,
    estimate_rho,
    perturb,
)
from .scores import QUAD_ORDER, Pool, ScoreField, gaussian_posterior, posterior_moment
from .simulate import GmmPrior
from .tweedie import EPS_Y, ModelKind, NoiseModel, denoise_field


@dataclass(frozen=True)
class DenoiseCfg:
    eps: float = DEFAULT_EPS
    mask_eps: float = DEFAULT_MASK_EPS
    seed: int = 0

    def __post_init__(self):
        if self.eps <= 0 or not np.isfinite(self.eps):
            raise ValidationError(f"perturbation eps must be positive, got {self.eps} (y2 must differ from y1)")
        if self.mask_eps <= 0 or not np.isfinite(self.mask_eps):
            raise ValidationError(f"mask_eps must be positive and finite, got {self.mask_eps}")


@dataclass
class DenoiseReport:
    """One group's blind estimate, from ``blind_estimate`` to ``estimate_NNN.json`` and back."""

    backend: str = "unspecified"
    model_estimate: ModelEstimate | None = None
    level_estimate: LevelEstimate | None = None
    n_singular: int = 0
    y1_scores: list = field(default_factory=list)  # per image of the estimated group
    seed: int = 0  # the group's probe seed
    error: str = ""  # the estimation failure's message
    inputs: str = ""  # the CLI's digest of what decided the estimate; "" from the library

    @property
    def level(self) -> float | None:
        """The level in natural units: sigma, zeta or k (internally sigma^2 | zeta | k)."""
        le = self.level_estimate
        if le is None:
            return None
        return float(np.sqrt(le.value)) if le.kind == ModelKind.GAUSSIAN.value else le.value

    @property
    def noise_model(self) -> NoiseModel | None:
        """The estimated NoiseModel: the classified family at the estimated level, or None with no level."""
        le = self.level_estimate
        return None if le is None else NoiseModel(self.model_estimate.classified, le.value)

    def to_json(self) -> str:
        """``estimate_NNN.json``: the index estimate (there must be one), the level, the probe and the
        inputs.  The level is stored in internal units too, as ``level_value``: sigma squared is not
        sigma^2 bit for bit.  A non-finite root is ``null``."""
        me, le = self.model_estimate, self.level_estimate
        keys = dict(backend=self.backend, error=self.error, inputs=self.inputs, level=self.level,
                    level_iqr=le and le.iqr, level_pixel_count=le and le.pixel_count, level_value=le and le.value,
                    mask_fraction=me.mask_fraction, model=me.classified, n_nonfinite=me.n_nonfinite,
                    pixel_count=sum(s.values.size for s in self.y1_scores), rho_hat=me.rho_hat,
                    roots=[r if np.isfinite(r) else None for r in me.roots], seed=self.seed)
        return json.dumps(keys, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> DenoiseReport:
        """The report whose ``to_json`` is ``text``, its ``y1_scores`` not yet set; a ``null`` root
        reads as ``np.nan`` and ``n_singular``, which the formula counts, as 0.  Raises
        ValueError, KeyError or TypeError when ``text`` is no such record."""
        d = json.loads(text)
        me = ModelEstimate(d["rho_hat"], d["model"], d["mask_fraction"],
                           tuple(np.nan if r is None else r for r in d["roots"]), d["n_nonfinite"])
        le = None if d["level_value"] is None else LevelEstimate(
            d["model"], d["level_value"], d["level_pixel_count"], d["level_iqr"])
        report = cls(d["backend"], me, le, seed=d["seed"], error=d["error"], inputs=d["inputs"])
        # what to_json writes: the class of rho_hat, a level that a NoiseModel takes exactly when there
        # is no error, and finite numbers (to_json refuses others)
        if classify_model(me.rho_hat) != me.classified or (le is None) != bool(report.error):
            raise ValueError("not a DenoiseReport record: its class, level and error disagree")
        if le is not None:
            NoiseModel(le.kind, le.value)
        report.to_json()
        return report


def blind_estimate(ys, score_backend, cfg: DenoiseCfg):
    """Shared blind-estimation front end over one or many images.

    Returns (model_estimate, level_estimate, pairs, s1_list).  Estimation
    statistics are pooled across all images in ``ys``: the estimators read
    each image's probe pair and scores in place, as Pools, so no probe pixel
    is copied and each pair's y1 is its image itself (float32 as it is, any
    other dtype as float64; the results are those of its float64 copy).  The
    per-image pairs and y1-scores are returned, so callers can apply the
    formula without re-evaluating the backend.  Raises
    :class:`ValidationError` for no images and :class:`EstimationFailure`
    on an empty mask, an unknown classification or a failed level estimate;
    its report carries the y1 scores, the probe seed, the message as
    ``error`` and the model estimate when there is one.  Such a report,
    failed or not, survives ``to_json`` and ``DenoiseReport.from_json``
    field for field: stored, it applies again with the y1 scores alone.
    """
    pairs, f1, v2 = [], [], []
    for i, y in enumerate(ys):
        pairs.append(perturb(y, cfg.eps, cfg.seed + i))
        f1.append(score_backend(pairs[-1].y1))
        v2.append(score_backend(pairs[-1].y2).values)
    if not pairs:
        raise ValidationError("no images to estimate")
    pooled = PerturbationPair(Pool(p.y1 for p in pairs), Pool(p.y2 for p in pairs))
    backend = f1[0].backend
    s1, s2 = ScoreField(Pool(s.values for s in f1), backend), ScoreField(Pool(v2), backend)
    report = DenoiseReport(backend=backend, y1_scores=f1, seed=cfg.seed)
    try:
        me = estimate_rho(pooled, s1, s2, mask_eps=cfg.mask_eps)
        report.model_estimate = me
        if me.classified == UNKNOWN:
            raise EstimationFailure(f"rho_hat={me.rho_hat:.3f} classified as unknown; no level estimator applies")
        le = estimate_level(me.classified, pooled, s1, s2)
    except EstimationFailure as exc:
        report.error = str(exc)
        exc.report = report
        raise
    return me, le, pairs, f1


def denoise_blind(y, score_backend, cfg: DenoiseCfg = DenoiseCfg()):
    """Blind denoising of a single image: the estimated model's formula at y1, with the
    score the estimate evaluated there, clamped to [EPS_Y, 1]; returns (xhat, DenoiseReport)."""
    me, le, pairs, f1 = blind_estimate([y], score_backend, cfg)
    report = DenoiseReport(f1[0].backend, me, le, y1_scores=f1, seed=cfg.seed)
    xhat, report.n_singular = denoise_field(pairs[0].y1, report.noise_model, f1[0].values)
    return np.clip(xhat, EPS_Y, 1.0), report


def denoise_known(y, model: NoiseModel, score_backend):
    """Known-model denoising: one score evaluation, one formula, clamp."""
    y = np.asarray(y, dtype=np.float64)
    s = score_backend(y)
    xhat = np.asarray(denoise_field(y, model, s.values)[0])  # the formula's own array; 0-d for a scalar y
    return np.clip(xhat, EPS_Y, 1.0, out=xhat)[()]


# ---------------------------------------------------------------------------
# independent posterior-mean oracles

PRIOR_NSD = 12.0  # each prior component is integrated over its mean +- PRIOR_NSD stds


def _quad(f, lo, hi):
    from scipy import integrate
    # epsabs admits negligible components (integrands are offset to O(1)
    # scale, so 1e-30 is far below any contribution that matters)
    val, err = integrate.quad(f, lo, hi, epsabs=1e-30, epsrel=1e-10, limit=200)
    if not np.isfinite(val) or err > 1e-6 * abs(val) + 1e-30:
        raise QuadratureError(f"adaptive quadrature error {err:.2e} for value {val:.2e}")
    return val


def brute_posterior_mean(y: float, prior: GmmPrior, model: NoiseModel) -> float:
    """E[x | y] by adaptive quadrature against the exact likelihood.

    Poisson observations live on the lattice y = zeta*n; other y values are
    rejected because the continuous interpolation is exactly the saddle
    approximation this oracle must stay independent of.
    """
    from scipy.special import gammaln
    y = float(y)
    if y <= 0:
        raise DomainError(f"y must be positive, got {y}")
    if model.kind is ModelKind.GAUSSIAN:
        sig2 = model.level

        def loglik(x):
            return -0.5 * ((y - x) ** 2 / sig2 + np.log(2 * np.pi * sig2))

    elif model.kind is ModelKind.POISSON:
        zeta = model.level
        n = y / zeta
        if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
            raise DomainError(f"Poisson oracle needs lattice y = zeta*n, got y/zeta = {n}")
        n = round(n)

        def loglik(x):
            return n * np.log(x / zeta) - x / zeta - gammaln(n + 1)

    else:
        k = model.level

        def loglik(x):
            return k * np.log(k / x) - gammaln(k) + (k - 1) * np.log(y) - (k / x) * y

    # shared log offset keeps the integrands O(1) even deep in the tails;
    # it cancels in the ratio
    offset = max(loglik(m) for m in prior.means)
    num = den = 0.0
    for wt, m, sd in zip(prior.weights, prior.means, prior.stds):
        lo, hi = max(m - PRIOR_NSD * sd, 1e-8), m + PRIOR_NSD * sd

        def integrand(x, moment):
            lp = loglik(x) - 0.5 * ((x - m) / sd) ** 2 - np.log(sd * np.sqrt(2 * np.pi))
            return (x**moment) * np.exp(lp - offset)

        den += wt * _quad(lambda x: integrand(x, 0), lo, hi)
        num += wt * _quad(lambda x: integrand(x, 1), lo, hi)
    if den <= 0 or not np.isfinite(num / den):
        raise QuadratureError(f"degenerate posterior at y={y}: num={num}, den={den}")
    return num / den


def posterior_mean_field(y, prior: GmmPrior, model: NoiseModel):
    """Vectorized E[x | y] over a whole tensor.

    Gaussian uses the exact conjugate-mixture closed form; Poisson and Gamma
    read the order-``2 * QUAD_ORDER`` Gauss-Legendre posterior over the prior
    components from the checked table the score oracle shares
    (:func:`scores.posterior_moment`; agrees with
    :func:`brute_posterior_mean` to quadrature accuracy).
    """
    y = np.asarray(y, dtype=np.float64)
    if model.kind is ModelKind.GAUSSIAN:
        # per component the conjugate mean m_j + s_j^2 / v_j * (y - m_j)
        return gaussian_posterior(y, prior, model.level, np.square(prior.stds), prior.means)
    return posterior_moment(y, prior, model, 2 * QUAD_ORDER, 1)
