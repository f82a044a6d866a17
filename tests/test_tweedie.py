import numpy as np
import pytest
from scipy import stats

from tweedenoise import (
    EPS_Y,
    DomainError,
    ModelKind,
    NoiseModel,
    SingularEstimateError,
    TweedieParams,
    alpha_term,
    denoise_field,
    posterior_mean_special,
    posterior_mean_universal,
    saddle_density,
    unit_deviance,
)


# ---------------------------------------------------------------------------
# unit deviance

def test_deviance_zero_at_equal_args():
    assert unit_deviance(0.7, 0.7, 1.5) == 0.0


def test_deviance_gaussian_is_squared_residual():
    assert unit_deviance(1.0, 0.5, 0.0) == 0.25
    y = np.linspace(0.05, 1.0, 37)
    mu = y[::-1]
    np.testing.assert_array_equal(unit_deviance(y, mu, 0.0), (y - mu) ** 2)


def test_deviance_generic_matches_high_precision_value():
    # frozen from a 50-digit evaluation of the power-form expression
    d = unit_deviance(0.8, 0.4, 1.7)
    np.testing.assert_allclose(d, 0.49815888561394963, rtol=1e-12)


def test_deviance_limit_branches():
    y, mu = 0.8, 0.3
    pois = 2.0 * (y * np.log(y / mu) - (y - mu))
    gam = 2.0 * (y / mu - np.log(y / mu) - 1.0)
    np.testing.assert_allclose(unit_deviance(y, mu, 1.0), pois, rtol=1e-14)
    np.testing.assert_allclose(unit_deviance(y, mu, 2.0), gam, rtol=1e-14)
    # the routing window hands nearby rho to the same branch
    assert unit_deviance(y, mu, 1.0 + 5e-7) == unit_deviance(y, mu, 1.0)
    assert unit_deviance(y, mu, 2.0 - 5e-7) == unit_deviance(y, mu, 2.0)
    # just outside the window the generic form agrees smoothly
    np.testing.assert_allclose(unit_deviance(y, mu, 1.0 + 1e-5), pois, rtol=1e-4)


def test_deviance_positive_unless_equal():
    ys = np.array([0.1, 0.3, 0.55, 0.8, 1.0])
    for rho in (0.0, 1.0, 1.5, 2.0, 3.0):
        for y in ys:
            for mu in ys:
                d = float(unit_deviance(y, mu, rho))
                if y == mu:
                    assert d == 0.0
                else:
                    assert d > 0.0, (y, mu, rho)


def test_deviance_rejects_bad_domain():
    with pytest.raises(DomainError):
        unit_deviance(-0.1, 0.5, 1.5)
    with pytest.raises(DomainError):
        unit_deviance(0.5, 0.0, 1.5)
    with pytest.raises(DomainError):
        unit_deviance(0.5, 0.5, np.inf)
    with pytest.raises(DomainError):
        unit_deviance(np.nan, 0.5, 1.5)


# ---------------------------------------------------------------------------
# saddle density

def test_saddle_normalizer_at_mode():
    got = saddle_density(0.5, TweedieParams(0.0, 0.04), 0.5)
    np.testing.assert_allclose(got, (2 * np.pi * 0.04) ** -0.5, rtol=1e-15)
    got = saddle_density(0.5, TweedieParams(2.0, 0.01), 0.5)
    np.testing.assert_allclose(got, (2 * np.pi * 0.01 * 0.25) ** -0.5, rtol=1e-15)


def test_saddle_gaussian_case_is_exact():
    y = np.linspace(0.05, 1.2, 200)
    for phi in (0.001, 0.01, 0.09):
        for mu in (0.2, 0.5, 0.9):
            got = saddle_density(y, TweedieParams(0.0, phi), mu)
            ref = stats.norm.pdf(y, mu, np.sqrt(phi))
            np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_saddle_gamma_ratio_is_constant_stirling_factor():
    # saddle/exact ratio depends only on k, not on y, and -> 1 as k grows
    y = np.linspace(0.1, 1.0, 400)
    mu = 0.45
    for k, tol in ((100.0, 0.01), (400.0, 0.0025)):
        got = saddle_density(y, TweedieParams(2.0, 1.0 / k), mu)
        exact = stats.gamma.pdf(y, a=k, scale=mu / k)
        ratio = got / exact
        assert np.max(np.abs(ratio / ratio.mean() - 1.0)) <= 1e-9
        assert abs(ratio.mean() - 1.0) <= tol


def test_saddle_rejects_unit_interval_rho():
    with pytest.raises(DomainError):
        saddle_density(0.5, TweedieParams(0.5, 0.01), 0.5)


def test_saddle_underflows_to_zero():
    # monstrous deviance: exponent -> -inf, density -> 0.0, no warning blowup
    assert saddle_density(1.0, TweedieParams(0.0, 1e-4), 0.01) == 0.0


# ---------------------------------------------------------------------------
# alpha

def test_alpha_term_values():
    np.testing.assert_allclose(alpha_term(0.5, TweedieParams(0.0, 0.04), 0.2), 0.016)
    np.testing.assert_allclose(alpha_term(0.5, TweedieParams(2.0, 0.01), 0.0), 0.01)
    np.testing.assert_allclose(
        alpha_term(0.25, TweedieParams(1.3, 0.02), -0.5),
        0.027709666126230779, rtol=1e-12,
    )
    with pytest.raises(DomainError):
        alpha_term(0.0, TweedieParams(1.3, 0.02), -0.5)


# ---------------------------------------------------------------------------
# posterior means

def test_universal_matches_frozen_value():
    got = posterior_mean_universal(0.25, TweedieParams(1.3, 0.02), -0.5)
    np.testing.assert_allclose(got, 0.25705405669701234, rtol=1e-12)


def test_universal_gaussian_reduction_is_exact():
    rng = np.random.default_rng(42)
    y = rng.uniform(EPS_Y, 1.0, 20_000)
    phi = 10 ** rng.uniform(-4, -1, y.size)
    s = rng.uniform(-10.0, 10.0, y.size)
    got = posterior_mean_universal(y, TweedieParams(0.0, phi), s)
    assert np.max(np.abs(got - (y + phi * s))) <= 1e-12 * np.min(np.abs(y))
    np.testing.assert_allclose(
        posterior_mean_universal(0.5, TweedieParams(0.0, 0.04), 0.2), 0.508
    )


def test_universal_gamma_reduction():
    rng = np.random.default_rng(43)
    y = rng.uniform(EPS_Y, 1.0, 20_000)
    phi = 10 ** rng.uniform(-4, -1, y.size)
    s = rng.uniform(-10.0, 10.0, y.size)
    k = 1.0 / phi
    denom = (k - 1.0) - y * s
    keep = denom > 1e-3
    assert keep.mean() > 0.95
    got = posterior_mean_universal(y[keep], TweedieParams(2.0, phi[keep]), s[keep])
    ref = k[keep] * y[keep] / denom[keep]
    np.testing.assert_allclose(got, ref, rtol=1e-12)
    np.testing.assert_allclose(
        posterior_mean_universal(0.5, TweedieParams(2.0, 0.01), 0.0),
        100 * 0.5 / 99.0, rtol=1e-12,
    )


def test_universal_poisson_limit_branch():
    got = posterior_mean_universal(0.5, TweedieParams(1.0, 0.01), 0.2)
    np.testing.assert_allclose(got, 0.5 * np.exp(0.012), rtol=1e-15)
    np.testing.assert_allclose(got, 0.50603614443303888, rtol=1e-12)


def test_universal_limit_continuity_near_one():
    # the exponential limit is an approximation with error ~ delta*alpha^2/2,
    # so the 1e-6 agreement holds where alpha stays small
    rng = np.random.default_rng(44)
    y = rng.uniform(0.1, 1.0, 20_000)
    phi = 10 ** rng.uniform(-4, -2, y.size)
    s = rng.uniform(-10.0, 10.0, y.size)
    lim = y * np.exp(phi * (0.5 / y + s))
    for delta in (1e-6, -1e-6):
        got = posterior_mean_universal(y, TweedieParams(1.0 + delta, phi), s)
        assert np.max(np.abs(got - lim) / lim) <= 1e-6


def test_universal_raises_on_bad_base():
    # rho=3, large positive score drives 1 + (1-rho)*alpha negative
    with pytest.raises(SingularEstimateError, match="pixel"):
        posterior_mean_universal(
            np.array([0.5, 0.5]), TweedieParams(3.0, 0.1), np.array([0.0, 50.0])
        )


def test_special_case_values():
    np.testing.assert_allclose(
        posterior_mean_special(0.5, NoiseModel(ModelKind.GAUSSIAN, 0.04), 0.2), 0.508
    )
    np.testing.assert_allclose(
        posterior_mean_special(0.5, NoiseModel(ModelKind.POISSON, 0.01), 0.0), 0.505
    )
    np.testing.assert_allclose(
        posterior_mean_special(0.5, NoiseModel(ModelKind.GAMMA, 100.0), -1.0),
        100 * 0.5 / 99.5, rtol=1e-15,
    )


def test_special_gamma_denominator_guard():
    model = NoiseModel(ModelKind.GAMMA, 100.0)
    with pytest.raises(SingularEstimateError):
        posterior_mean_special(0.5, model, 99.0 / 0.5)  # denominator exactly 0


def test_poisson_special_approximates_universal_form():
    # (y + z/2)exp(zs) vs y*exp(z/(2y))exp(zs): gap bounded by 2(z/2y)^2*y*exp(zs)
    rng = np.random.default_rng(45)
    y = rng.uniform(0.05, 1.0, 5000)
    zeta = rng.uniform(0.001, 0.02, y.size)
    s = rng.uniform(-3.0, 3.0, y.size)
    keep = zeta / (2 * y) <= 0.1
    y, zeta, s = y[keep], zeta[keep], s[keep]
    lhs = (y + zeta / 2) * np.exp(zeta * s)
    rhs = y * np.exp(zeta / (2 * y)) * np.exp(zeta * s)
    bound = (zeta / (2 * y)) ** 2 * y * np.exp(zeta * s) * 2.0
    assert np.all(np.abs(lhs - rhs) <= bound)


# ---------------------------------------------------------------------------
# model/params validation

def test_noise_model_validation():
    with pytest.raises(DomainError):
        NoiseModel(ModelKind.GAUSSIAN, 0.0)
    with pytest.raises(DomainError):
        NoiseModel(ModelKind.GAMMA, 1.0)  # formula divides by k-1
    NoiseModel(ModelKind.GAMMA, 50.0)


def test_params_validation():
    with pytest.raises(DomainError):
        TweedieParams(1.5, -0.1)
    with pytest.raises(DomainError):
        TweedieParams(np.nan, 0.1)
    params = TweedieParams(0.3, 0.1)  # estimates in (0,1) are fine...
    with pytest.raises(DomainError, match="no density"):
        saddle_density(0.5, params, 0.5)  # ...densities are not


# ---------------------------------------------------------------------------
# guarded batch variants

def test_denoise_field_matches_special_when_clean():
    rng = np.random.default_rng(46)
    y = rng.uniform(0.2, 0.9, 512)
    s = rng.normal(0, 2.0, y.size)
    for model in (
        NoiseModel(ModelKind.GAUSSIAN, 0.01),
        NoiseModel(ModelKind.POISSON, 0.02),
    ):
        xhat, n_bad = denoise_field(y, model, s)
        assert n_bad == 0
        np.testing.assert_array_equal(xhat, posterior_mean_special(y, model, s))


def test_denoise_field_gamma_clamps_and_counts():
    y = np.array([0.5, 0.5, 0.5])
    s = np.array([0.0, 99.0 / 0.5, 300.0])  # denom: 99, 0, negative
    xhat, n_bad = denoise_field(y, NoiseModel(ModelKind.GAMMA, 100.0), s)
    assert n_bad == 2
    assert np.all(np.isfinite(xhat)) and xhat[0] == pytest.approx(100 * 0.5 / 99)
    assert xhat[1] > 1e4 and xhat[2] > 1e4  # clamped denominators blow up, caller clips


def test_denoise_field_nonfinite_score_falls_back_to_identity():
    y = np.array([0.3, 0.6])
    xhat, n_bad = denoise_field(y, NoiseModel(ModelKind.POISSON, 0.05), np.array([0.0, 1e6]))
    # exp overflow -> inf -> identity fallback at that pixel
    assert n_bad == 1
    assert xhat[1] == 0.6



def test_batch_partitioning_is_bit_identical():
    # pure elementwise math: any pixel partition gives the same answer
    rng = np.random.default_rng(47)
    y = rng.uniform(0.1, 1.0, 1000)
    s = rng.normal(0, 1.5, y.size)
    model = NoiseModel(ModelKind.POISSON, 0.03)
    whole, _ = denoise_field(y, model, s)
    parts = np.concatenate(
        [denoise_field(y[i : i + 217], model, s[i : i + 217])[0] for i in range(0, 1000, 217)]
    )
    np.testing.assert_array_equal(whole, parts)
