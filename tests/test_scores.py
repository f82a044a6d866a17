import logging
import tracemalloc

import numpy as np
import pytest
from scipy.special import digamma, gammaln, logsumexp

from tweedenoise import (
    EPS_Y,
    DomainError,
    GmmPrior,
    ModelKind,
    NoiseModel,
    QuadratureError,
    ScoreField,
    analytic_score_gaussian,
    numeric_marginal_score,
    posterior_mean_field,
)
from tweedenoise import scores
from tweedenoise.scores import QUAD_BLOCK, _component_nodes, posterior_table, quadrature_posterior

P2 = GmmPrior((0.5, 0.5), (0.3, 0.9), (0.02, 0.02))
P58 = GmmPrior((0.5, 0.5), (0.5, 0.8), (0.02, 0.02))


def point_prior(x0, std=1e-9):
    return GmmPrior((1.0,), (x0,), (std,))


def test_score_field_rejects_nonfinite():
    with pytest.raises(DomainError):
        ScoreField(np.array([0.0, np.nan]))
    f = ScoreField([1.0, 2.0], backend="x")
    assert f.values.dtype == np.float64


# ---------------------------------------------------------------------------
# gaussian oracle

def test_single_component_score_is_linear():
    # one near-point component: score = (m - y) / (sigma^2 + s^2)
    got = analytic_score_gaussian(0.7, point_prior(0.5), sigma=0.2)
    np.testing.assert_allclose(got.values, -5.0, rtol=1e-9)
    assert got.backend == "oracle-gaussian"


def test_score_vanishes_at_symmetry_point():
    got = analytic_score_gaussian(0.6, P2, sigma=0.1)
    assert abs(float(got.values)) <= 1e-12


def test_gaussian_score_matches_finite_difference_of_marginal():
    sigma = 25.0 / 255.0
    y = np.linspace(0.15, 1.05, 301)
    got = analytic_score_gaussian(y, P2, sigma).values

    def logmarg(t):
        v = np.asarray(P2.stds) ** 2 + sigma**2
        terms = (
            np.log(P2.weights)
            - 0.5 * np.log(2 * np.pi * v)
            - (t[:, None] - np.asarray(P2.means)) ** 2 / (2 * v)
        )
        return logsumexp(terms, axis=1)

    h = 1e-5
    fd = (logmarg(y + h) - logmarg(y - h)) / (2 * h)
    assert np.max(np.abs(got - fd)) <= 1e-6


PALETTE = GmmPrior((0.2, 0.8), (0.3, 0.9), (0.005, 0.005))
BIMODAL = GmmPrior((0.5, 0.5), (0.3, 0.7), (0.08, 0.08))
SIGMA = 25.0 / 255.0


def gaussian_reference(y, prior, var):
    """Pixels x components responsibilities normalised by logsumexp, as the
    Gaussian oracles computed them before the blocked component-major
    kernel: returns the score and E[x | y]."""
    yy = np.asarray(y, dtype=np.float64)[..., None]
    m, s2 = np.asarray(prior.means), np.asarray(prior.stds) ** 2
    v = s2 + var
    logp = np.log(prior.weights) - 0.5 * (np.log(2.0 * np.pi * v) + (yy - m) ** 2 / v)
    resp = np.exp(logp - logsumexp(logp, axis=-1, keepdims=True))
    return np.sum(resp * ((m - yy) / v), axis=-1), np.sum(resp * ((s2 * yy + var * m) / v), axis=-1)


@pytest.mark.parametrize("prior", [PALETTE, BIMODAL], ids=["palette", "bimodal"])
@pytest.mark.parametrize("shape", [(), (0,), (QUAD_BLOCK - 1,), (QUAD_BLOCK + 1,), (37, 61)], ids=str)
def test_gaussian_kernel_matches_logsumexp_reference(prior, shape):
    y = np.random.default_rng(5).uniform(EPS_Y, 1.2, size=shape)
    ref_score, ref_mean = gaussian_reference(y, prior, SIGMA**2)
    score = analytic_score_gaussian(y, prior, SIGMA).values
    mean = posterior_mean_field(y, prior, NoiseModel(ModelKind.GAUSSIAN, SIGMA**2))
    assert score.shape == np.shape(mean) == np.shape(y)
    if score.size:
        assert np.max(np.abs(score - ref_score)) <= 1e-12
        assert np.max(np.abs(mean - ref_mean) / ref_mean) <= 1e-13


def test_gaussian_score_is_a_pure_function_of_each_pixel():
    y = np.random.default_rng(6).uniform(EPS_Y, 1.2, size=(67, 71))  # several blocks, ragged tail
    whole = analytic_score_gaussian(y, PALETTE, SIGMA).values.ravel()
    np.testing.assert_array_equal(analytic_score_gaussian(y.ravel()[7:], PALETTE, SIGMA).values, whole[7:])


def test_gaussian_memory_is_bounded_by_the_block():
    # the pixels x components temporaries of a 512^2 field took 36.8 MiB
    y = np.random.default_rng(7).uniform(EPS_Y, 1.2, size=(512, 512))
    tracemalloc.start()
    try:
        analytic_score_gaussian(y, PALETTE, SIGMA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_gaussian_oracle_rejects_bad_sigma():
    with pytest.raises(DomainError):
        analytic_score_gaussian(0.5, P2, sigma=0.0)


# ---------------------------------------------------------------------------
# quadrature oracle

def test_gamma_point_prior_closed_form():
    # E[1/x | y] collapses to 1/x0, so l'(y) = (k-1)/y - k/x0
    k, x0 = 80.0, 0.6
    y = np.linspace(0.3, 1.0, 64)
    got = numeric_marginal_score(y, point_prior(x0), NoiseModel(ModelKind.GAMMA, k))
    np.testing.assert_allclose(got.values, (k - 1.0) / y - k / x0, rtol=1e-9)
    assert got.backend == "oracle-quadrature"


def test_poisson_point_prior_matches_finite_difference():
    zeta, x0 = 0.02, 0.5
    y = np.linspace(0.2, 0.9, 41)

    def loglik(t):
        n = t / zeta
        return n * np.log(x0 / zeta) - x0 / zeta - gammaln(n + 1.0)

    h = 1e-5
    fd = (loglik(y + h) - loglik(y - h)) / (2 * h)
    got = numeric_marginal_score(y, point_prior(x0), NoiseModel(ModelKind.POISSON, zeta))
    assert np.max(np.abs(got.values - fd)) <= 1e-6


def test_quadrature_self_convergence_on_narrow_priors():
    """Doubling the order moves the score by < 1e-8 on sd-0.02 mixtures."""
    y = np.linspace(0.3, 1.1, 400)
    cases = [
        NoiseModel(ModelKind.POISSON, 0.05),
        NoiseModel(ModelKind.POISSON, 0.01),
        NoiseModel(ModelKind.GAMMA, 100.0),
        NoiseModel(ModelKind.GAMMA, 40.0),
    ]
    for model in cases:
        a = numeric_marginal_score(y, P58, model, order=48, check=False).values
        b = numeric_marginal_score(y, P58, model, order=96, check=False).values
        assert np.max(np.abs(a - b)) <= 1e-8, model


def test_unconverged_quadrature_fails_loudly():
    # wide prior + tiny zeta: in the far left tail the posterior runs off
    # the node range and the built-in doubling check must catch it
    wide = GmmPrior((0.5, 0.5), (0.44, 0.66), (0.08, 0.08))
    y = np.arange(2, 111) * 0.01
    with pytest.raises(QuadratureError, match="not converged"):
        numeric_marginal_score(y, wide, NoiseModel(ModelKind.POISSON, 0.01))
    # a finer rule converges
    f = numeric_marginal_score(y, wide, NoiseModel(ModelKind.POISSON, 0.01), order=128)
    assert np.all(np.isfinite(f.values))


def test_quadrature_domain_checks():
    with pytest.raises(DomainError):
        numeric_marginal_score(1e-6, point_prior(0.5), NoiseModel(ModelKind.POISSON, 0.02))
    with pytest.raises(DomainError):
        numeric_marginal_score(0.5, point_prior(0.5), NoiseModel(ModelKind.GAUSSIAN, 0.01))


QUAD_MODELS = [NoiseModel(ModelKind.POISSON, 0.05), NoiseModel(ModelKind.GAMMA, 50.0)]


def logsumexp_reference(y, prior, model, order):
    """The full per-node log-likelihood normalised by logsumexp, as the
    oracles computed it before the blocked affine-logit kernel: returns the
    score and E[x | y]."""
    xs, logws = _component_nodes(prior, order)
    y = np.asarray(y, dtype=np.float64)
    yy = y[..., None]
    if model.kind is ModelKind.POISSON:
        zeta = model.level
        n = yy / zeta
        loglik = n * np.log(xs / zeta) - xs / zeta - gammaln(n + 1.0)
    else:
        k = model.level
        loglik = k * np.log(k / xs) - gammaln(k) + (k - 1.0) * np.log(yy) - (k / xs) * yy
    post = loglik + logws
    post = np.exp(post - logsumexp(post, axis=-1, keepdims=True))
    if model.kind is ModelKind.POISSON:
        score = (np.sum(post * np.log(xs / zeta), axis=-1) - digamma(y / zeta + 1.0)) / zeta
    else:
        score = (k - 1.0) / y - k * np.sum(post / xs, axis=-1)
    return score, np.sum(post * xs, axis=-1)


@pytest.mark.parametrize("model", QUAD_MODELS, ids=lambda m: m.kind.value)
@pytest.mark.parametrize("shape", [(), (0,), (QUAD_BLOCK - 1,), (QUAD_BLOCK + 1,), (37, 61)], ids=str)
def test_quadrature_kernel_matches_logsumexp_reference(model, shape):
    y = np.random.default_rng(3).uniform(0.3, 1.1, size=shape)
    ref_score, ref_mean = logsumexp_reference(y, P58, model, 96)
    score = numeric_marginal_score(y, P58, model).values  # the checked order-96 score
    mean = posterior_mean_field(y, P58, model)
    assert score.shape == mean.shape == np.shape(y)
    if score.size:
        assert np.max(np.abs(score - ref_score)) <= 1e-9
        assert np.max(np.abs(mean - ref_mean) / ref_mean) <= 1e-12


P6 = GmmPrior((1 / 6,) * 6, (0.1, 0.25, 0.4, 0.55, 0.7, 0.85), (0.01,) * 6)
TABLE_MODELS = [NoiseModel(ModelKind.GAMMA, 50.0), NoiseModel(ModelKind.GAMMA, 100.0),
                NoiseModel(ModelKind.POISSON, 0.01), NoiseModel(ModelKind.POISSON, 0.05)]


@pytest.mark.parametrize("model", TABLE_MODELS, ids=lambda m: f"{m.kind.value}-{m.level:g}")
@pytest.mark.parametrize("prior", [PALETTE, P58, P6], ids=["palette", "p58", "p6"])
def test_refined_table_meets_direct_quadrature_over_its_span(prior, model):
    # cells kept at a coarser step are re-expanded onto the final one; every served value must still
    # meet the order-96 kernel within the logsumexp test's bounds, wherever the table serves y
    table = posterior_table(prior, model, 96)
    y = np.linspace(0.999 * EPS_Y, EPS_Y + table.step * table.ok.size, 2**16, endpoint=False)
    y = y[table.ok[np.clip(((y - EPS_Y) / table.step).astype(int), 0, None)]]
    assert y.size > 0.9 * 2**16
    score = numeric_marginal_score(y, prior, model).values
    assert np.max(np.abs(score - numeric_marginal_score(y, prior, model, order=96, check=False).values)) <= 1e-9
    mean = posterior_mean_field(y, prior, model)
    assert np.max(np.abs(mean / quadrature_posterior(y, prior, model, 96)[1] - 1.0)) <= 1e-12


def test_refined_table_evaluates_few_kernel_points(monkeypatch, caplog):
    # the uniform halving of the gamma-quad workload's table took 28,725 order-96 points
    points = []
    real = scores.quadrature_posterior
    monkeypatch.setattr(scores, "quadrature_posterior",
                        lambda y, prior, model, order, slopes=False: points.append((order, np.size(y)))
                        or real(y, prior, model, order, slopes))
    posterior_table.cache_clear()
    with caplog.at_level(logging.INFO, logger="tweedenoise"):
        table = posterior_table(PALETTE, NoiseModel(ModelKind.GAMMA, 50.0), 96)
    fine, coarse = (sum(n for order, n in points if order == q) for q in (96, 48))
    assert fine <= 6000
    assert table.step == 2.0**-12 and table.ok.all()
    assert f"{fine} and {coarse} points at orders 96 and 48" in caplog.text  # the build's run.log line


def test_quadrature_nodes_are_built_once_and_read_only():
    first = _component_nodes(P58, 96)
    again = _component_nodes(GmmPrior(P58.weights, P58.means, P58.stds), 96)
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_quadrature_memory_is_bounded_by_the_block():
    # a 512^2 field with its order-doubling check: the per-node arrays of all
    # pixels at once would take 2 x 512^2 x 192 x 8 B = 768 MiB each
    y = np.random.default_rng(4).uniform(0.3, 1.1, size=(512, 512))
    tracemalloc.start()
    try:
        numeric_marginal_score(y, P58, QUAD_MODELS[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("model", QUAD_MODELS, ids=lambda m: m.kind.value)
def test_tabulated_score_and_column_are_pure_functions_of_each_pixel(model):
    y = np.random.default_rng(20).uniform(0.3, 1.1, size=(67, 71))  # several blocks, ragged tail
    for f in (lambda v: numeric_marginal_score(v, P58, model).values, lambda v: posterior_mean_field(v, P58, model)):
        np.testing.assert_array_equal(f(y.ravel()[7:]), f(y).ravel()[7:])


@pytest.mark.parametrize("model", QUAD_MODELS, ids=lambda m: m.kind.value)
def test_tabulated_values_are_bitwise_independent_of_history(model):
    # the table's span and step come from (prior, model, order), never from the call that builds it
    small = np.random.default_rng(21).uniform(0.45, 0.55, size=300)
    wide = np.random.default_rng(22).uniform(EPS_Y, 1.5, size=5000)
    runs = []
    for first in (small, wide):
        posterior_table.cache_clear()
        numeric_marginal_score(first, P58, model)
        runs.append((numeric_marginal_score(small, P58, model).values, posterior_mean_field(small, P58, model)))
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a, b)


def test_quadrature_table_is_built_once_and_read_only():
    model = NoiseModel(ModelKind.GAMMA, 77.0)
    y1 = np.random.default_rng(23).uniform(0.3, 1.1, size=(40, 40))
    y2 = y1 + 1e-5 * np.random.default_rng(24).standard_normal(y1.shape)
    posterior_table.cache_clear()
    numeric_marginal_score(y1, P58, model)
    numeric_marginal_score(y2, P58, model)
    posterior_mean_field(y1, P58, model)
    assert posterior_table.cache_info().misses == 1
    table = posterior_table(P58, model, 2 * 48)
    for a in (table.coef, table.ok):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quadrature_oracles_reject_nonfinite_y_before_tabulating(bad):
    model = NoiseModel(ModelKind.POISSON, 0.03)
    y = np.array([0.5, bad, 0.7])
    before = posterior_table.cache_info().misses
    for f in (
        lambda: numeric_marginal_score(y, P58, model),
        lambda: numeric_marginal_score(y, P58, model, check=False),
        lambda: posterior_mean_field(y, P58, model),
    ):
        with pytest.raises(DomainError):
            f()
    assert posterior_table.cache_info().misses == before


@pytest.mark.parametrize("model", QUAD_MODELS, ids=lambda m: m.kind.value)
def test_pixels_above_the_table_span_take_the_direct_kernel(model):
    y = np.random.default_rng(25).uniform(0.3, 1.1, size=(512, 512))
    above = np.zeros(y.shape, dtype=bool)
    above.flat[::97] = True
    y[above] = 10.0  # far above the span of any table of P58
    posterior_table.cache_clear()  # the table's build counts towards the peak
    tracemalloc.start()
    try:
        score = numeric_marginal_score(y, P58, model).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    direct = numeric_marginal_score(y[above], P58, model, order=96, check=False).values
    np.testing.assert_array_equal(score[above], direct)
    np.testing.assert_array_equal(posterior_mean_field(y, P58, model)[above], quadrature_posterior(y[above], P58, model, 96)[1])
