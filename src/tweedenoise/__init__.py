"""Blind self-supervised denoising with Tweedie exponential-dispersion models.

Estimate the noise family (Gaussian / Poisson / Gamma) and its level from a
single noisy image plus a score function, then denoise with the matching
posterior-mean formula.
"""

from .ardae import (
    ArdaeConfig,
    MlpParams,
    ardae_loss_and_grad,
    ema_update,
    eval_score,
    extract_patches,
    gradient_check,
    init_mlp,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
    train_ardae,
)
from .errors import (
    DomainError,
    EstimationFailure,
    QuadratureError,
    SingularEstimateError,
    TrainingDivergence,
    TweedenoiseError,
    ValidationError,
)
from .estimate import (
    UNKNOWN,
    LevelEstimate,
    ModelEstimate,
    PerturbationPair,
    classify_model,
    estimate_level,
    estimate_rho,
    perturb,
)
from .pipeline import (
    DenoiseCfg,
    DenoiseReport,
    blind_estimate,
    brute_posterior_mean,
    denoise_blind,
    denoise_known,
    posterior_mean_field,
)
from .scores import (
    ScoreField,
    analytic_score_gaussian,
    geometric_schedule,
    numeric_marginal_score,
)
from .simulate import (
    GmmPrior,
    SynthSpec,
    clamp_rate,
    gen_clean,
    load_tensor,
    psnr,
    rng_for,
    sample_noisy,
    save_tensor,
)
from .tweedie import (
    EPS_Y,
    ModelKind,
    NoiseModel,
    TweedieParams,
    alpha_term,
    denoise_field,
    posterior_mean_special,
    posterior_mean_universal,
    saddle_density,
    unit_deviance,
)

__version__ = "0.1.0"
