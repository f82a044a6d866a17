"""Blind self-supervised denoising with Tweedie exponential-dispersion models.

Estimate the noise family (Gaussian / Poisson / Gamma) and its level from a
single noisy image plus a score function, then denoise with the matching
posterior-mean formula.
"""

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
    numeric_marginal_score,
)
from .simulate import (
    GmmPrior,
    SynthSpec,
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


# the AR-DAE exports import tweedenoise.ardae on first use (PEP 562), so oracle-backend runs never load it
_LAZY_EXPORTS = ("ArdaeConfig", "MlpParams", "ardae_loss_and_grad", "ema_update", "eval_score", "extract_patches",
                 "geometric_schedule", "gradient_check", "init_mlp", "load_checkpoint", "mlp_forward",
                 "save_checkpoint", "train_ardae")


def __getattr__(name: str):
    if name not in _LAZY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import ardae
    globals().update((n, getattr(ardae, n)) for n in _LAZY_EXPORTS)
    return globals()[name]
