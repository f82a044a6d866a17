import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from tweedenoise import (
    EPS_Y,
    ArdaeConfig,
    DenoiseCfg,
    DenoiseReport,
    DomainError,
    EstimationFailure,
    GmmPrior,
    LevelEstimate,
    ModelEstimate,
    ModelKind,
    NoiseModel,
    QuadratureError,
    ScoreField,
    SynthSpec,
    TweedieParams,
    ValidationError,
    analytic_score_gaussian,
    blind_estimate,
    brute_posterior_mean,
    denoise_blind,
    denoise_known,
    gen_clean,
    numeric_marginal_score,
    posterior_mean_field,
    posterior_mean_special,
    psnr,
    sample_noisy,
)
from tweedenoise import pipeline

PAL = GmmPrior((0.2, 0.8), (0.3, 0.9), (0.005, 0.005))
P2 = GmmPrior((0.5, 0.5), (0.3, 0.7), (0.02, 0.02))
P58 = GmmPrior((0.5, 0.5), (0.5, 0.8), (0.02, 0.02))
SIG = 25.0 / 255.0


def gaussian_scene(seed_triple=(2, 102, 202)):
    cs, ns, ps = seed_triple
    x = gen_clean(SynthSpec("piecewise_constant", 64, 64, PAL, regions=64, seed=cs))
    y = sample_noisy(x, NoiseModel(ModelKind.GAUSSIAN, SIG**2), seed=ns)
    backend = lambda v: analytic_score_gaussian(v, PAL, SIG)
    return x, y, backend, DenoiseCfg(seed=ps)


def test_cfg_validation():
    with pytest.raises(ValidationError, match="eps"):
        DenoiseCfg(eps=0.0)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="mask_eps"):
            DenoiseCfg(mask_eps=bad)
    DenoiseCfg()


def test_value_types_check_themselves_when_made():
    # each raises its error type at construction, before any use; NoiseModel keeps its kind as a ModelKind
    for make, error in ((lambda: NoiseModel(ModelKind.GAMMA, 1.0), DomainError),
                        (lambda: TweedieParams(1.5, -0.1), DomainError),
                        (lambda: DenoiseCfg(eps=0.0), ValidationError),
                        (lambda: ArdaeConfig(batch_size=1), DomainError)):
        with pytest.raises(error):
            make()
    assert NoiseModel("gamma", 50.0).kind is ModelKind.GAMMA
    with pytest.raises(ValueError):
        NoiseModel("gaussain", 0.01)  # ModelKind's own error for an unknown name
    with pytest.raises(dataclasses.FrozenInstanceError):
        ArdaeConfig().epochs = 1


def test_blind_gaussian_recovers_model_and_gains_psnr():
    x, y, backend, cfg = gaussian_scene()
    xhat, report = denoise_blind(y, backend, cfg)
    me, le = report.model_estimate, report.level_estimate
    assert me.classified == "gaussian"
    assert me.rho_hat == 0.0
    assert le.value == pytest.approx(SIG**2, rel=0.05)
    gain = psnr(x, xhat) - psnr(x, y)
    assert gain >= 3.0  # measured ~16.7 dB on this scene
    assert 16.0 < gain < 17.5
    assert report.n_singular == 0
    assert np.all(xhat >= EPS_Y) and np.all(xhat <= 1.0)


def test_blind_output_is_deterministic():
    _, y, backend, cfg = gaussian_scene()
    a, ra = denoise_blind(y, backend, cfg)
    b, rb = denoise_blind(y, backend, cfg)
    np.testing.assert_array_equal(a, b)
    assert ra.to_json() == rb.to_json()
    assert ra.n_singular == rb.n_singular


def test_blind_equals_known_at_estimated_model():
    _, y, backend, cfg = gaussian_scene()
    xhat, report = denoise_blind(y, backend, cfg)
    est = NoiseModel(ModelKind(report.model_estimate.classified), report.level_estimate.value)
    np.testing.assert_array_equal(xhat, denoise_known(y, est, backend))


def test_denoise_report_to_json(monkeypatch):
    me = ModelEstimate(rho_hat=0.38, classified="gaussian", mask_fraction=0.11, roots=(0.38, -1.0))
    scores = [ScoreField(np.zeros((64, 64)), "oracle-gaussian")] * 2
    rep = DenoiseReport("oracle-gaussian", me, LevelEstimate("gaussian", 0.01, 4000, 0.001), y1_scores=scores, seed=7)
    assert rep.to_json() == (
        '{"backend": "oracle-gaussian", "level": 0.1, "mask_fraction": 0.11, "model": "gaussian", '
        '"pixel_count": 8192, "rho_hat": 0.38, "seed": 7}'
    )
    gamma = ModelEstimate(rho_hat=2.1, classified="gamma", mask_fraction=0.2, roots=(2.1, 0.0))
    rep = DenoiseReport("oracle-quadrature", gamma, LevelEstimate("gamma", 49.9, 4000, 3.0), y1_scores=scores)
    assert json.loads(rep.to_json())["level"] == 49.9  # k as estimated
    # denoise_blind reports sigma, not the internal sigma^2, and its probe
    _, y, backend, cfg = gaussian_scene()
    _, rep = denoise_blind(y, backend, cfg)
    d = json.loads(rep.to_json())
    assert d["level"] == np.sqrt(rep.level_estimate.value) == rep.level
    assert (d["model"], d["pixel_count"], d["seed"], rep.error) == ("gaussian", y.size, cfg.seed, "")

    def no_quorum(kind, *args, **kwargs):
        raise EstimationFailure(f"only 3 valid pixels for {kind} level (quorum 16)")

    monkeypatch.setattr(pipeline, "estimate_level", no_quorum)
    with pytest.raises(EstimationFailure) as exc:
        blind_estimate([y], backend, cfg)
    rep = exc.value.report
    assert rep.error == "only 3 valid pixels for gaussian level (quorum 16)"
    d = json.loads(rep.to_json())
    assert d["level"] is None and d["model"] == "gaussian" and d["seed"] == cfg.seed


def test_unknown_classification_aborts_with_report():
    _, y, backend, cfg = gaussian_scene()
    hostile = lambda v: ScoreField(-2.5 / v)  # roots land at {2, 5}
    with pytest.raises(EstimationFailure, match="unknown") as exc:
        denoise_blind(y, hostile, cfg)
    rep = exc.value.report
    assert rep is not None
    assert rep.model_estimate.classified == "unknown"
    assert rep.model_estimate.rho_hat >= 2.9
    assert rep.level_estimate is None


def test_empty_mask_failure_carries_the_y1_scores():
    _, y, backend, _ = gaussian_scene()
    with pytest.raises(EstimationFailure, match="empty mask") as exc:
        blind_estimate([y, y], backend, DenoiseCfg(mask_eps=1e-30))
    rep = exc.value.report
    assert rep.model_estimate is None  # no index estimate to report
    assert len(rep.y1_scores) == 2
    np.testing.assert_array_equal(rep.y1_scores[1].values, backend(y).values)


def test_pooled_estimation_across_images():
    model = NoiseModel(ModelKind.GAUSSIAN, SIG**2)
    ys = []
    for seed in range(3):
        x = gen_clean(SynthSpec("gmm_iid", 48, 48, P2, seed=seed))
        ys.append(sample_noisy(x, model, seed=seed + 50))
    backend = lambda v: analytic_score_gaussian(v, P2, SIG)
    me, le, pairs, f1 = blind_estimate(ys, backend, DenoiseCfg(seed=9))
    assert me.classified == "gaussian"
    assert len(pairs) == len(f1) == 3
    # pooling is literal concatenation: the flattened images reproduce it
    me2, le2, _, _ = blind_estimate([y.ravel() for y in ys], backend, DenoiseCfg(seed=9))
    assert me2.rho_hat == me.rho_hat
    assert le2.value == le.value


def test_pooled_probe_data_is_held_once():
    # no pooled copy: every pair's y1 is its image itself and the backend scores the image in place,
    # and each pair and y1 score equals the probe and the backend on that image alone
    ys = [gaussian_scene((s, 100 + s, 200))[1] for s in range(3)]
    backend = lambda v: analytic_score_gaussian(v, PAL, SIG)
    seen = []

    def spy(v):
        seen.append(v)
        return backend(v)

    _, _, pairs, f1 = blind_estimate(ys, spy, DenoiseCfg(seed=9))
    assert [v is p.y1 for v, p in zip(seen[::2], pairs)] == [True] * 3
    for i, (y, pair, s1) in enumerate(zip(ys, pairs, f1)):
        assert pair.y1 is y
        alone = pipeline.perturb(y, 1e-5, 9 + i)
        for k in ("y1", "y2"):
            np.testing.assert_array_equal(getattr(pair, k), getattr(alone, k))
        np.testing.assert_array_equal(s1.values, backend(y).values)


def test_one_image_keeps_its_own_arrays():
    _, y, backend, cfg = gaussian_scene()
    seen, scored = [], []

    def spy(v):
        seen.append(v)
        scored.append(backend(v))
        return scored[-1]

    _, _, pairs, f1 = blind_estimate([y], spy, cfg)
    assert np.shares_memory(pairs[0].y1, y) and np.shares_memory(seen[0], y)
    assert np.shares_memory(f1[0].values, scored[0].values)
    seen.clear()
    scored.clear()
    _, report = denoise_blind(y, spy, cfg)
    assert np.shares_memory(seen[0], y) and np.shares_memory(report.y1_scores[0].values, scored[0].values)


def test_blind_estimate_needs_an_image():
    _, _, backend, cfg = gaussian_scene()
    with pytest.raises(ValidationError, match="^no images to estimate$"):
        blind_estimate([], backend, cfg)
    with pytest.raises(ValidationError, match="^no images to estimate$"):
        blind_estimate(iter(()), backend, cfg)


def test_pooled_estimation_memory_is_bounded():
    # 16 x 256^2 pixels: y2 and the two scores take 24 MiB beside the images, one gather buffer 8 MiB,
    # so 38 MiB leaves no room for a copy of any probe array
    model = NoiseModel(ModelKind.GAUSSIAN, SIG**2)
    ys = [
        sample_noisy(gen_clean(SynthSpec("piecewise_constant", 256, 256, PAL, regions=64, seed=i)), model, seed=100 + i)
        for i in range(16)
    ]
    backend = lambda v: analytic_score_gaussian(v, PAL, SIG)
    tracemalloc.start()
    try:
        me, le, _, _ = blind_estimate(ys, backend, DenoiseCfg(seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert me.classified == "gaussian" and le.pixel_count > 0.99 * 16 * 256 * 256
    assert peak <= 38 * 2**20


def test_backend_call_budget():
    _, y, backend, cfg = gaussian_scene()
    calls = []

    def counting(v):
        calls.append(np.asarray(v).size)
        return backend(v)

    denoise_blind(y, counting, cfg)
    assert len(calls) == 2  # y1 and y2: one extra evaluation over known-model
    calls.clear()
    denoise_known(y, NoiseModel(ModelKind.GAUSSIAN, SIG**2), counting)
    assert len(calls) == 1


def test_known_with_vanishing_dispersion_is_identity():
    rng = np.random.default_rng(30)
    y = rng.uniform(0.2, 0.9, (16, 16))
    backend = lambda v: analytic_score_gaussian(v, P2, SIG)
    xhat = denoise_known(y, NoiseModel(ModelKind.GAUSSIAN, 1e-300), backend)
    np.testing.assert_array_equal(xhat, np.clip(y, EPS_Y, 1.0))


# ---------------------------------------------------------------------------
# brute-force oracle

def test_brute_point_prior_returns_the_point():
    point = GmmPrior((1.0,), (0.55,), (1e-9,))
    for y in (0.2, 0.55, 0.9):
        got = brute_posterior_mean(y, point, NoiseModel(ModelKind.GAUSSIAN, 0.01))
        assert got == pytest.approx(0.55, rel=1e-9)


def test_brute_matches_conjugate_gaussian_posterior():
    m, s2, sig2 = 0.6, 0.02**2, 0.08**2
    prior = GmmPrior((1.0,), (m,), (0.02,))
    model = NoiseModel(ModelKind.GAUSSIAN, sig2)
    for y in (0.35, 0.6, 0.8):
        expect = (s2 * y + sig2 * m) / (s2 + sig2)
        assert brute_posterior_mean(y, prior, model) == pytest.approx(expect, rel=1e-9)


def test_brute_poisson_is_lattice_only():
    model = NoiseModel(ModelKind.POISSON, 0.01)
    val = brute_posterior_mean(0.5, P58, model)  # 0.5 = 50 counts exactly
    assert 0.4 < val < 0.9
    with pytest.raises(DomainError, match="lattice"):
        brute_posterior_mean(0.505, P58, model)


def test_tweedie_formula_exact_for_gaussian():
    model = NoiseModel(ModelKind.GAUSSIAN, SIG**2)
    ys = np.linspace(0.25, 0.75, 11)
    xt = posterior_mean_special(ys, model, analytic_score_gaussian(ys, P2, SIG).values)
    xb = np.array([brute_posterior_mean(float(t), P2, model) for t in ys])
    assert np.max(np.abs(xt - xb) / xb) <= 1e-6  # measured ~5e-16


def test_tweedie_formula_near_exact_for_gamma():
    # saddle-approximation bias: small where the marginal carries mass
    model = NoiseModel(ModelKind.GAMMA, 100.0)
    ys = np.array([0.42, 0.5, 0.55, 0.75, 0.8, 0.88])
    s = numeric_marginal_score(ys, P58, model).values
    xt = posterior_mean_special(ys, model, s)
    xb = np.array([brute_posterior_mean(float(t), P58, model) for t in ys])
    assert np.max(np.abs(xt - xb) / xb) <= 0.02  # measured worst 0.21%


def test_field_oracle_agrees_with_brute():
    pmod = NoiseModel(ModelKind.POISSON, 0.01)
    yl = 0.01 * np.arange(30, 101, 10)
    xf = posterior_mean_field(yl, P58, pmod)
    xb = np.array([brute_posterior_mean(float(t), P58, pmod) for t in yl])
    np.testing.assert_allclose(xf, xb, rtol=1e-6)

    gmod = NoiseModel(ModelKind.GAMMA, 100.0)
    yg = np.array([0.45, 0.6, 0.8])
    xf = posterior_mean_field(yg, P58, gmod)
    xb = np.array([brute_posterior_mean(float(t), P58, gmod) for t in yg])
    np.testing.assert_allclose(xf, xb, rtol=1e-6)


def test_field_oracle_gaussian_closed_form():
    model = NoiseModel(ModelKind.GAUSSIAN, 0.05**2)
    y = np.linspace(0.2, 0.9, 40).reshape(5, 8)
    got = posterior_mean_field(y, P2, model)
    assert got.shape == (5, 8)
    flat = np.array([brute_posterior_mean(float(t), P2, model) for t in y.ravel()])
    np.testing.assert_allclose(got.ravel(), flat, rtol=1e-9)


def test_brute_rejects_bad_inputs():
    with pytest.raises(DomainError):
        brute_posterior_mean(-0.5, P2, NoiseModel(ModelKind.GAUSSIAN, 0.01))
    with pytest.raises((DomainError, QuadratureError)):
        brute_posterior_mean(0.5, P2, NoiseModel(ModelKind.GAUSSIAN, -1.0))
