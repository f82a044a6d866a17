import json

import numpy as np
import pytest
from scipy import stats

from tweedenoise import (
    EPS_Y,
    DomainError,
    GmmPrior,
    ModelKind,
    NoiseModel,
    SynthSpec,
    ValidationError,
    gen_clean,
    load_tensor,
    psnr,
    rng_for,
    sample_noisy,
    save_tensor,
)

P2 = GmmPrior((0.5, 0.5), (0.3, 0.9), (0.02, 0.02))


def test_rng_for_is_deterministic_and_streams_are_separate():
    a = rng_for(5, 1).standard_normal(8)
    b = rng_for(5, 1).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, rng_for(5, 2).standard_normal(8))
    assert not np.array_equal(a, rng_for(6, 1).standard_normal(8))


# ---------------------------------------------------------------------------
# priors and specs

def test_prior_validation():
    # the config's JSON lists make the prior, as parse_config builds it
    d = {"weights": [0.5, 0.5], "means": [0.3, 0.9], "stds": [0.02, 0.02]}
    assert GmmPrior(**json.loads(json.dumps(d))) == P2
    with pytest.raises(DomainError):
        GmmPrior((0.5, 0.4), (0.3, 0.9), (0.02, 0.02))  # weights don't sum to 1
    with pytest.raises(DomainError):
        GmmPrior((1.5, -0.5), (0.3, 0.9), (0.02, 0.02))
    with pytest.raises(DomainError):
        GmmPrior((1.0,), (1.2,), (0.02,))  # mean above 1
    with pytest.raises(DomainError):
        GmmPrior((1.0,), (0.5,), (0.0,))
    with pytest.raises(DomainError):
        GmmPrior((0.5, 0.5), (0.3,), (0.02, 0.02))
    nan, inf = float("nan"), float("inf")
    for bad in (((nan, 1.0), (0.3, 0.9), (0.02, 0.02)), ((0.5, 0.5), (0.3, nan), (0.02, 0.02)),
                ((0.5, 0.5), (0.3, 0.9), (nan, 0.02)), ((0.5, 0.5), (0.3, 0.9), (0.02, inf))):
        with pytest.raises(DomainError, match="finite"):
            GmmPrior(*bad)


def test_synth_spec_validation():
    with pytest.raises(DomainError):
        SynthSpec("speckle", 64, 64, P2)
    with pytest.raises(DomainError):
        SynthSpec("gmm_iid", 4, 64, P2)
    with pytest.raises(DomainError):
        SynthSpec("piecewise_constant", 64, 64, P2, regions=0)


# ---------------------------------------------------------------------------
# clean content

def test_piecewise_single_region_is_constant():
    x = gen_clean(SynthSpec("piecewise_constant", 32, 48, P2, regions=1, seed=3))
    assert x.shape == (32, 48)
    assert np.unique(x).size == 1
    assert x.flat[0] in P2.means


def test_piecewise_levels_come_from_prior_means():
    x = gen_clean(SynthSpec("piecewise_constant", 64, 64, P2, regions=9, seed=1))
    assert set(np.unique(x)) <= set(P2.means)
    # 9 regions -> 3x3 grid of cells, so at most 9 distinct runs per axis
    assert np.unique(x).size <= 9


def test_gen_clean_is_deterministic():
    spec = SynthSpec("gmm_iid", 40, 40, P2, seed=11)
    np.testing.assert_array_equal(gen_clean(spec), gen_clean(spec))


def test_gmm_iid_mean_within_three_standard_errors():
    spec = SynthSpec("gmm_iid", 64, 64, P2, seed=7)
    x = gen_clean(spec)
    assert np.all(x >= EPS_Y) and np.all(x <= 1.0)
    w, m, s = map(np.asarray, (P2.weights, P2.means, P2.stds))
    mean = np.dot(w, m)  # the mixture's mean and variance
    var = np.dot(w, s**2 + m**2) - mean**2
    assert abs(x.mean() - mean) <= 3 * np.sqrt(var / x.size)


# ---------------------------------------------------------------------------
# noise

def test_vanishing_gaussian_level_returns_input():
    x = gen_clean(SynthSpec("gmm_iid", 32, 32, P2, seed=0))
    y = sample_noisy(x, NoiseModel(ModelKind.GAUSSIAN, 1e-24), seed=5)  # sigma = 1e-12
    assert np.max(np.abs(y - x)) <= 1e-10


def test_sample_noisy_is_deterministic():
    x = gen_clean(SynthSpec("piecewise_constant", 32, 32, P2, seed=2))
    m = NoiseModel(ModelKind.POISSON, 0.02)
    np.testing.assert_array_equal(sample_noisy(x, m, 9), sample_noisy(x, m, 9))
    assert not np.array_equal(sample_noisy(x, m, 9), sample_noisy(x, m, 10))


def test_conditional_moments_match_the_model():
    """Var[y|x] follows phi * x^rho for each family on a flat 128x128 field."""
    x = np.full((128, 128), 0.5)
    for seed in (0, 1, 2):
        y = sample_noisy(x, NoiseModel(ModelKind.POISSON, 0.05), seed)
        assert abs(y.mean() - 0.5) <= 0.01
        assert abs(y.var() / (0.05 * 0.5) - 1.0) <= 0.10
        y = sample_noisy(x, NoiseModel(ModelKind.GAMMA, 50.0), seed)
        assert abs(y.mean() - 0.5) <= 0.01
        assert abs(y.var() / (0.25 / 50.0) - 1.0) <= 0.10
        y = sample_noisy(x, NoiseModel(ModelKind.GAUSSIAN, 0.01), seed)
        assert abs(y.var() / 0.01 - 1.0) <= 0.10


def test_sample_noisy_rejects_bad_levels():
    x = np.full((16, 16), 0.5)
    with pytest.raises(DomainError):
        sample_noisy(x, NoiseModel(ModelKind.GAUSSIAN, 0.0), 0)
    with pytest.raises(DomainError):
        sample_noisy(x, NoiseModel(ModelKind.GAMMA, 0.8), 0)


def test_output_is_clamped_to_floor():
    # zeta comparable to x: plenty of zero counts, all lifted to EPS_Y
    x = np.full((64, 64), 0.05)
    y = sample_noisy(x, NoiseModel(ModelKind.POISSON, 0.1), seed=4)
    assert np.min(y) >= EPS_Y
    rate = np.count_nonzero(y <= EPS_Y) / y.size
    # P(count = 0) = exp(-0.5) ~ 0.61
    assert 0.5 < rate < 0.7


def test_gaussian_clamp_shift_against_partial_moment():
    """Mean shift from the EPS_Y floor equals (eps-x)*Phi(z) + sigma*phi(z).

    At sigma = 25/255 and x = 0.2 the shift stays under 1e-3; at 55/255 the
    tail through zero is no longer negligible and the shift is ~0.02.
    """
    x = np.full(2**17, 0.2)
    for sigma, small in ((25.0 / 255.0, True), (55.0 / 255.0, False)):
        y = sample_noisy(x, NoiseModel(ModelKind.GAUSSIAN, sigma**2), seed=99)
        shift = y.mean() - 0.2
        z = (EPS_Y - 0.2) / sigma
        oracle = (EPS_Y - 0.2) * stats.norm.cdf(z) + sigma * stats.norm.pdf(z)
        assert abs(shift - oracle) <= 0.05 * oracle + 1e-5
        if small:
            assert shift <= 1e-3
        else:
            assert shift > 1e-3  # the floor visibly biases the mean here


# ---------------------------------------------------------------------------
# psnr

def test_psnr_values():
    a = np.full((8, 8), 0.5)
    assert psnr(a, a) == np.inf
    assert psnr(a, a + 0.1) == pytest.approx(20.0)
    assert psnr(a, a + np.sqrt(1e-3)) == pytest.approx(30.0)
    with pytest.raises(DomainError):
        psnr(a, np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# file IO

def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.uniform(0, 1, (17, 23)).astype(np.float32).astype(np.float64)
    p = tmp_path / "img.f32"
    save_tensor(p, arr)
    meta = json.loads((tmp_path / "img.f32.json").read_text())
    assert meta == {"dtype": "f32", "shape": [17, 23]}
    loaded = load_tensor(p)
    assert loaded.dtype == np.float32 and loaded.flags.writeable
    np.testing.assert_array_equal(loaded, arr)


def test_tensor_io_errors(tmp_path):
    with pytest.raises(DomainError):
        save_tensor(tmp_path / "v.f32", np.zeros(5))
    p = tmp_path / "bad.f32"
    save_tensor(p, np.zeros((4, 4)))
    meta = json.loads((tmp_path / "bad.f32.json").read_text())
    meta["shape"] = [4, 5]
    (tmp_path / "bad.f32.json").write_text(json.dumps(meta))
    with pytest.raises(DomainError):
        load_tensor(p)
    save_tensor(p, np.zeros((4, 4)))
    with open(p, "ab") as fh:  # a partial float after the 16 the sidecar names
        fh.write(b"\0\0")
    with pytest.raises(ValidationError, match="multiple of 4"):
        load_tensor(p)
