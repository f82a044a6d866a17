import dataclasses

import numpy as np
import pytest

from tweedenoise import (
    EPS_Y,
    UNKNOWN,
    DomainError,
    EstimationFailure,
    GmmPrior,
    LevelEstimate,
    ModelEstimate,
    ModelKind,
    NoiseModel,
    PerturbationPair,
    ScoreField,
    SynthSpec,
    analytic_score_gaussian,
    classify_model,
    estimate_level,
    estimate_rho,
    gen_clean,
    numeric_marginal_score,
    perturb,
    rng_for,
    sample_noisy,
)
from tweedenoise import estimate as estimate_module
from tweedenoise.estimate import LEVEL_DENOM_FLOOR, LEVEL_QUORUM
from tweedenoise.scores import Pool

P2 = GmmPrior((0.5, 0.5), (0.3, 0.7), (0.02, 0.02))
PAL = GmmPrior((0.2, 0.8), (0.3, 0.9), (0.005, 0.005))
P58 = GmmPrior((0.5, 0.5), (0.5, 0.8), (0.02, 0.02))
SIG = 25.0 / 255.0


def noisy_pair(prior, model, size, seeds, backend, **kw):
    clean_seed, noise_seed, probe_seed = seeds
    x = gen_clean(SynthSpec("gmm_iid", size, size, prior, seed=clean_seed))
    y = sample_noisy(x, model, seed=noise_seed)
    pair = perturb(y, 1e-5, seed=probe_seed)
    return pair, backend(pair.y1), backend(pair.y2)


# ---------------------------------------------------------------------------
# probe

def test_perturb_zero_eps_is_identity():
    y = np.full((8, 8), 0.5)
    pair = perturb(y, 0.0, seed=1)
    np.testing.assert_array_equal(pair.y1, pair.y2)


def test_perturb_is_deterministic_and_additive():
    rng = np.random.default_rng(0)
    y = rng.uniform(0.3, 0.9, (16, 16))
    a = perturb(y, 1e-5, seed=4)
    b = perturb(y, 1e-5, seed=4)
    np.testing.assert_array_equal(a.y2, b.y2)
    # far from the floor nothing clamps, so the probe is exactly additive
    np.testing.assert_array_equal(a.y2, y + 1e-5 * rng_for(4, 2).standard_normal(y.shape))
    assert not np.array_equal(a.y2, perturb(y, 1e-5, seed=5).y2)


def test_perturb_stores_preclamp_noise():
    # the pair is the two images: y2 is y1 plus the rng_for(seed, 2) draw, clamped at EPS_Y, and the draw is not kept
    y = np.full(4096, EPS_Y)
    pair = perturb(y, 1e-2, seed=6)
    assert [f.name for f in dataclasses.fields(pair)] == ["y1", "y2"]
    np.testing.assert_array_equal(pair.y2, np.maximum(y + 1e-2 * rng_for(6, 2).standard_normal(y.size), EPS_Y))
    assert np.min(pair.y2) >= EPS_Y
    assert np.count_nonzero(pair.y2 == EPS_Y) > 1000
    with pytest.raises(DomainError):
        perturb(y, -1e-5, seed=0)


# ---------------------------------------------------------------------------
# model-index estimation on simulated data

def test_rho_hat_lands_in_gaussian_band():
    model = NoiseModel(ModelKind.GAUSSIAN, SIG**2)
    pair, s1, s2 = noisy_pair(
        P2, model, 128, (0, 100, 200), lambda v: analytic_score_gaussian(v, P2, SIG)
    )
    me = estimate_rho(pair, s1, s2)
    assert me.rho_hat == pytest.approx(0.383064, abs=1e-4)
    assert me.classified == "gaussian"
    assert 0.0 < me.mask_fraction < 1.0


def test_rho_hat_lands_in_poisson_band():
    model = NoiseModel(ModelKind.POISSON, 0.05)
    pair, s1, s2 = noisy_pair(
        P58, model, 128, (0, 100, 200),
        lambda v: numeric_marginal_score(v, P58, model, check=False),
    )
    me = estimate_rho(pair, s1, s2, mask_eps=5e-6)
    assert me.rho_hat == pytest.approx(1.451457, abs=1e-4)
    assert me.classified == "poisson"


def test_rho_hat_lands_in_gamma_band():
    # needs the large image: root averaging converges like N^(-1/4)
    model = NoiseModel(ModelKind.GAMMA, 100.0)
    pair, s1, s2 = noisy_pair(
        P58, model, 256, (0, 100, 200),
        lambda v: numeric_marginal_score(v, P58, model, check=False),
    )
    me = estimate_rho(pair, s1, s2, mask_eps=5e-6)
    assert me.rho_hat == pytest.approx(2.728580, abs=1e-4)
    assert me.classified == "gamma"


def test_mask_grows_with_mask_eps():
    model = NoiseModel(ModelKind.GAUSSIAN, SIG**2)
    pair, s1, s2 = noisy_pair(
        P2, model, 64, (1, 101, 201), lambda v: analytic_score_gaussian(v, P2, SIG)
    )
    fracs = [estimate_rho(pair, s1, s2, mask_eps=m).mask_fraction for m in (1e-6, 1e-5, 1e-4)]
    assert fracs[0] <= fracs[1] <= fracs[2]
    assert fracs[2] > fracs[0]


# ---------------------------------------------------------------------------
# constructed score fields with known root structure

def test_constructed_scores_clamp_rho_to_zero():
    """s = 3/y makes w vanish and both roots average to -2, so the final
    max(. , 0) clamp is what produces the answer."""
    rng = np.random.default_rng(11)
    y1 = rng.uniform(0.3, 0.9, 4096)
    pair = perturb(y1, 1e-5, seed=12)
    me = estimate_rho(pair, ScoreField(3.0 / pair.y1), ScoreField(3.0 / pair.y2))
    assert me.rho_hat == 0.0
    assert me.classified == "gaussian"
    assert me.mask_fraction == 1.0
    assert me.roots[0] < 0 and me.roots[1] < 0


def test_constructed_scores_pick_consistent_root():
    # single-sign probe => a > 0 everywhere; with b = 1 the roots are {2, -1}
    # and the plus branch is 2 at every pixel
    rng = np.random.default_rng(13)
    y1 = rng.uniform(0.3, 0.9, 2048)
    y2 = y1 + 1e-5 * np.abs(rng.standard_normal(y1.size))
    pair = PerturbationPair(y1, y2)
    me = estimate_rho(pair, ScoreField(0.5 / y1), ScoreField(0.5 / y2))
    assert me.rho_hat == pytest.approx(2.0, abs=1e-9)
    assert me.classified == "gamma"
    assert me.roots[1] == pytest.approx(-1.0, abs=1e-9)


def test_empty_mask_failure_mentions_mask_eps():
    rng = np.random.default_rng(14)
    y1 = rng.uniform(0.3, 0.9, 256)
    pair = perturb(y1, 1e-5, seed=15)
    with pytest.raises(EstimationFailure, match="mask_eps"):
        estimate_rho(pair, ScoreField(np.zeros_like(y1)), ScoreField(np.ones_like(y1)))


def test_zero_eps_probe_fails_estimation():
    # y2 == y1 -> a == 0 -> every quadratic degenerates to 0/0
    rng = np.random.default_rng(16)
    y1 = rng.uniform(0.3, 0.9, 256)
    pair = perturb(y1, 0.0, seed=17)
    s = ScoreField(1.0 / y1)
    with pytest.raises(EstimationFailure, match="non-finite"):
        estimate_rho(pair, s, s)


# ---------------------------------------------------------------------------
# classification bands

def test_classify_bands_and_boundaries():
    assert classify_model(0.05) == "gaussian"
    assert classify_model(1.1) == "poisson"
    assert classify_model(2.95) == UNKNOWN
    assert classify_model(0.9) == "poisson"
    assert classify_model(1.9) == "gamma"
    assert classify_model(2.9) == UNKNOWN
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            classify_model(bad)


def test_classify_is_a_partition():
    labels = {"gaussian", "poisson", "gamma", UNKNOWN}
    for r in np.linspace(0.0, 5.0, 501):
        assert classify_model(float(r)) in labels


# ---------------------------------------------------------------------------
# level estimation

def test_gaussian_level_close_to_truth():
    model = NoiseModel(ModelKind.GAUSSIAN, SIG**2)
    pair, s1, s2 = noisy_pair(
        P2, model, 64, (3, 103, 203), lambda v: analytic_score_gaussian(v, P2, SIG)
    )
    le = estimate_level("gaussian", pair, s1, s2)
    assert abs(np.sqrt(le.value) - SIG) / SIG <= 0.10  # measured 2.2%
    assert le.pixel_count == 64 * 64
    assert le.iqr >= 0


def test_poisson_and_gamma_levels_close_to_truth():
    # flat content keeps the score in a single smooth regime, where the
    # per-pixel inversions are well conditioned
    flat = GmmPrior((1.0,), (0.6,), (0.01,))
    for kind, lvl, rel in (("poisson", 0.01, 0.0167), ("gamma", 100.0, 0.0268)):
        model = NoiseModel(ModelKind(kind), lvl)
        pair, s1, s2 = noisy_pair(
            flat, model, 64, (0, 100, 200),
            lambda v: numeric_marginal_score(v, flat, model, check=False),
        )
        le = estimate_level(kind, pair, s1, s2)
        assert abs(le.value - lvl) / lvl == pytest.approx(rel, abs=2e-3)
        assert abs(le.value - lvl) / lvl <= 0.10


def test_level_estimate_is_insensitive_to_probe_seed():
    x = gen_clean(SynthSpec("gmm_iid", 64, 64, P2, seed=7))
    y = sample_noisy(x, NoiseModel(ModelKind.GAUSSIAN, SIG**2), seed=107)
    bk = lambda v: analytic_score_gaussian(v, P2, SIG)
    vals = []
    for s in range(10):
        pair = perturb(y, 1e-5, seed=s)
        vals.append(estimate_level("gaussian", pair, bk(pair.y1), bk(pair.y2)).value)
    vals = np.array(vals)
    assert (vals.max() - vals.min()) / np.median(vals) <= 0.05


def test_gamma_level_plugin_is_exact():
    rng = np.random.default_rng(18)
    y1 = rng.uniform(0.3, 0.9, 1024)
    pair = perturb(y1, 1e-5, seed=19)
    dinv = 1.0 / pair.y2 - 1.0 / pair.y1
    le = estimate_level("gamma", pair, ScoreField(np.zeros_like(y1)), ScoreField(9.0 * dinv))
    assert le.value == pytest.approx(10.0, abs=1e-9)
    assert le.iqr == pytest.approx(0.0, abs=1e-9)


def test_poisson_negative_radicand_pixels_are_excluded():
    n = 1024
    y1 = np.full(n, 0.1)
    pair = perturb(y1, 1e-3, seed=20)
    c = np.where(np.arange(n) % 2 == 0, -1e-3, 1e-2)  # +1e-2 > y1^2/2 = 5e-3
    le = estimate_level("poisson", pair, ScoreField(np.zeros(n)), ScoreField((pair.y2 - pair.y1) / c))
    assert le.pixel_count == n // 2
    assert le.value == pytest.approx(-0.1 + np.sqrt(0.01 + 2e-3), rel=1e-9)


def test_level_reads_the_step_the_score_saw():
    # flat images at the floor, where the clamp at EPS_Y moves a share of the probes, scored exactly: the
    # per-pixel level is -dy / ds = sigma^2 at every pixel only if dy is the step from y1 to the clamped y2.
    # float32(EPS_Y) lies 2.5e-12 below EPS_Y, so there the clamp moves a pixel up whatever u's sign
    sig2 = 0.01
    score = lambda v: ScoreField(-(v - 0.5) / sig2)
    pairs = [perturb(np.full((64, 64), y), 1e-5, seed=3) for y in (EPS_Y + 5e-6, float(np.float32(EPS_Y)))]
    assert 0.2 < np.mean(pairs[0].y2 == EPS_Y) < 0.4  # about 31 % of the probes clamp
    above, at = (estimate_level("gaussian", p, score(p.y1), score(p.y2)) for p in pairs)
    assert above.pixel_count == at.pixel_count == 64 * 64
    assert above.iqr <= 1e-9 * above.value and above.value == pytest.approx(sig2, rel=1e-9)
    assert at.iqr <= 1e-4 * at.value


@pytest.mark.parametrize("kind", ["gaussian", "poisson", "gamma"])
def test_level_leaves_out_unmoved_pixels(kind):
    # a quarter of the pixels did not move (y2 == y1) although the score did (s2 - s1 = 1), as a patch score's
    # may when a pixel's neighbours move: they are no pixels of the level, which is the level without them
    rng = np.random.default_rng(25)
    n = 4096
    y1 = rng.uniform(0.3, 0.9, n)
    y2 = y1 + 1e-5 * rng.standard_normal(n)
    v1 = rng.normal(0.0, 3.0, n)
    v2 = v1 - (y2 - y1) / rng.uniform(0.005, 0.02, n)  # per-pixel Gaussian levels 0.005-0.02
    moved = np.arange(n) % 4 != 0
    y2[~moved], v2[~moved] = y1[~moved], v1[~moved] + 1.0
    le = estimate_level(kind, PerturbationPair(y1, y2), ScoreField(v1), ScoreField(v2))
    assert le.pixel_count == n - n // 4
    assert le == estimate_level(kind, PerturbationPair(y1[moved], y2[moved]), ScoreField(v1[moved]),
                                ScoreField(v2[moved]))


def test_level_quorum_failure():
    y1 = np.full(256, 0.5)
    pair = perturb(y1, 1e-5, seed=21)
    s = ScoreField(np.zeros(256))
    with pytest.raises(EstimationFailure, match="quorum"):
        estimate_level("gaussian", pair, s, s)  # ds == 0 at every pixel


def test_level_negative_median_failure():
    rng = np.random.default_rng(22)
    y1 = rng.uniform(0.3, 0.9, 256)
    pair = perturb(y1, 1e-5, seed=23)
    with pytest.raises(EstimationFailure, match="degenerate"):  # -dy / ds = -1 at every pixel
        estimate_level("gaussian", pair, ScoreField(np.zeros(256)), ScoreField(pair.y2 - pair.y1))


def test_level_rejects_unknown_kind():
    y1 = np.full(64, 0.5)
    pair = perturb(y1, 1e-5, seed=24)
    s = ScoreField(np.ones(64))
    with pytest.raises((DomainError, ValueError)):
        estimate_level("cauchy", pair, s, s)


# ---------------------------------------------------------------------------
# blocked estimators against the whole-array formulas


def whole_array_rho(
    pair: PerturbationPair,
    s1: ScoreField,
    s2: ScoreField,
    mask_eps: float = 1e-5,
    rho_assumed: float = 2.2,
) -> ModelEstimate:
    """``estimate_rho`` over whole arrays at once: the formulas before blocking, verbatim."""
    y1, y2 = pair.y1, pair.y2
    v1, v2 = s1.values, s2.values
    a = np.log(y2 / y1)
    b = 2.0 * y1 * v1
    w = 2.0 * y2 * v2 - 2.0 * y1 * v1
    with np.errstate(all="ignore"):
        ww = w / (rho_assumed + b)
    mask = np.isfinite(ww) & (np.abs(ww) <= mask_eps)
    if not mask.any():
        raise EstimationFailure(
            f"empty mask at mask_eps={mask_eps}; increase mask_eps or the image size"
        )
    wbar = float(np.nanmean(w[mask]))
    bbar = float(np.nanmean(b[mask]))
    # a*(rho - 2)*(rho + bbar) + wbar = 0, expanded to a standard quadratic
    first = a * (bbar - 2.0)
    with np.errstate(all="ignore"):
        disc = first**2 - 4.0 * a * (-2.0 * a * bbar + wbar)
        root = np.sqrt(disc)
        p1 = (-first + root) / (2.0 * a)
        p2 = (-first - root) / (2.0 * a)
    f1, f2 = np.isfinite(p1), np.isfinite(p2)
    n_nonfinite = int(np.count_nonzero(~f1) + np.count_nonzero(~f2))
    if not (f1.any() or f2.any()):
        raise EstimationFailure("all quadratic roots non-finite (negative discriminant everywhere?)")
    r1 = float(p1[f1].mean()) if f1.any() else float("nan")
    r2 = float(p2[f2].mean()) if f2.any() else float("nan")
    rho_hat = max(np.nanmax([r1, r2]), 0.0)
    return ModelEstimate(
        rho_hat=float(rho_hat),
        classified=classify_model(rho_hat),
        mask_fraction=float(mask.mean()),
        roots=(r1, r2),
        n_nonfinite=n_nonfinite,
    )


def whole_array_level(
    kind,
    pair: PerturbationPair,
    s1: ScoreField,
    s2: ScoreField,
) -> LevelEstimate:
    """``estimate_level`` over whole arrays at once: the formulas before blocking, verbatim."""
    kind = ModelKind(kind)
    y1, y2 = pair.y1, pair.y2
    ds = s2.values - s1.values
    dy = y2 - y1
    with np.errstate(all="ignore"):
        if kind is ModelKind.GAUSSIAN:
            est = -dy / ds
            keep = (np.abs(ds) >= LEVEL_DENOM_FLOOR) & (dy != 0)
        elif kind is ModelKind.POISSON:
            c = dy / ds
            radicand = y1**2 - 2.0 * c
            keep = (np.abs(ds) >= LEVEL_DENOM_FLOOR) & (dy != 0) & (radicand >= 0)
            est = -y1 + np.sqrt(np.where(keep, radicand, 0.0))
        else:
            dinv = 1.0 / y2 - 1.0 / y1
            est = 1.0 + ds / dinv
            keep = np.abs(dinv) >= LEVEL_DENOM_FLOOR
    keep &= np.isfinite(est)
    n = int(np.count_nonzero(keep))
    if n < LEVEL_QUORUM:
        raise EstimationFailure(f"only {n} valid pixels for {kind.value} level (quorum {LEVEL_QUORUM})")
    vals = est[keep]
    value = float(np.median(vals))
    if not np.isfinite(value) or value <= 0 or (kind is ModelKind.GAMMA and value <= 1):  # NoiseModel's rule
        raise EstimationFailure(f"degenerate {kind.value} level estimate {value!r}")
    q75, q25 = np.percentile(vals, [75, 25])
    return LevelEstimate(kind=kind.value, value=value, pixel_count=n, iqr=float(q75 - q25))


def as_images(args):
    """``args`` with the probe pair and score fields split into a pooled group of ragged images:
    a third of a block, the bulk (several blocks), one pixel and a 21 x 37 image."""
    n = next(a for a in args if isinstance(a, PerturbationPair)).y1.size
    cuts = [estimate_module.BLOCK // 3, n - 778, n - 777]

    def images(x):
        *head, last = np.split(np.ravel(x), cuts)
        return Pool([*head, last.reshape(21, 37)])

    def split(a):
        if isinstance(a, PerturbationPair):
            return PerturbationPair(images(a.y1), images(a.y2))
        return ScoreField(images(a.values)) if isinstance(a, ScoreField) else a

    return [split(a) for a in args]


def same_outcome(blocked, whole, *args, **kw):
    """The whole-array result, or failure type and message, which the blocked estimator must equal,
    on the same arrays and on them split into a pooled group of images."""
    def outcome(f, *a):
        try:
            return f(*a, **kw)
        except (EstimationFailure, ValueError) as exc:  # DomainError, and ModelKind's own for an unknown name
            return type(exc).__name__, str(exc)

    ref = outcome(whole, *args)
    assert outcome(blocked, *args) == ref
    assert outcome(blocked, *as_images(args)) == ref
    return ref


def pooled_gaussian_probe(n_images=5, size=128):
    """Gaussian palette images, probed and scored one by one, then pooled."""
    model = NoiseModel(ModelKind.GAUSSIAN, SIG**2)
    backend = lambda v: analytic_score_gaussian(v, PAL, SIG)
    parts = [noisy_pair(PAL, model, size, (i, 100 + i, 200 + i), backend) for i in range(n_images)]
    y1, y2, v1, v2 = (np.concatenate([get(part).ravel() for part in parts]) for get in (
        lambda p: p[0].y1, lambda p: p[0].y2, lambda p: p[1].values, lambda p: p[2].values))
    return PerturbationPair(y1, y2), ScoreField(v1), ScoreField(v2)


def hostile_probe(n=70001):
    """Random scores: negative discriminants and radicands, ds == 0 at every 97th pixel and dy == 0 at
    the pixel after each of those."""
    rng = np.random.default_rng(31)
    pair = perturb(rng.uniform(EPS_Y, 1.0, n), 1e-3, seed=32)
    pair.y2[1::97] = pair.y1[1::97]
    v1 = rng.normal(0.0, 3.0, n)
    v2 = v1 + rng.normal(0.0, 1e-2, n)
    v2[::97] = v1[::97]
    return pair, ScoreField(v1), ScoreField(v2)


@pytest.mark.parametrize("block", [None, 1000], ids=["default-block", "block-1000"])
def test_blocked_estimators_match_whole_array_bitwise(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(estimate_module, "BLOCK", block)
    kinds = ("gaussian", "poisson", "gamma", "invgauss")
    results = []
    for (pair, s1, s2), mask_eps in [(pooled_gaussian_probe(), 1e-5), (hostile_probe(), 0.1)]:
        n = pair.y1.size
        assert n > 2 * estimate_module.BLOCK and n % estimate_module.BLOCK  # several blocks, a ragged last one
        me = same_outcome(estimate_rho, whole_array_rho, pair, s1, s2, mask_eps=mask_eps)
        assert isinstance(me, ModelEstimate) and me.n_nonfinite > 0  # some roots are dropped
        assert np.isfinite(me.roots).all()  # so == compares both roots
        results.append([n] + [same_outcome(estimate_level, whole_array_level, k, pair, s1, s2) for k in kinds])
    (n, gauss, poisson, gamma, invgauss), (m, h_gauss, h_poisson, h_gamma, _) = results
    assert all(isinstance(le, LevelEstimate) for le in (gauss, poisson, gamma, h_poisson))
    assert poisson.pixel_count < gauss.pixel_count  # negative radicands on the pooled images
    assert h_poisson.pixel_count < m - m // 97 - 1  # and far more on the hostile scores
    assert invgauss[0] == "ValueError" and h_gauss[1].startswith("degenerate gaussian level")
    assert h_gamma == ("EstimationFailure", "degenerate gamma level estimate 1.0")  # no Gamma k <= 1
    # the other failures keep their conditions and messages too
    pair, s1, s2 = hostile_probe()
    still = perturb(pair.y1, 0.0, seed=33)
    failures = [
        same_outcome(estimate_rho, whole_array_rho, pair, s1, s2, mask_eps=1e-300),
        same_outcome(estimate_rho, whole_array_rho, still, s1, s1),
        same_outcome(estimate_level, whole_array_level, "gaussian", pair, s1, s1),
    ]
    assert [f[1].split()[:2] for f in failures] == [["empty", "mask"], ["all", "quadratic"], ["only", "0"]]


def test_level_order_statistics_are_numpys_bitwise():
    # est = -(y2 - y1) / (s2 - s1) is exactly v for y1 = 2v, y2 = v and s2 - s1 = 1: the median and the
    # quartiles, from one partition, must be np.median's and np.percentile's at every size mod 4. Each
    # order position they read starts a new random level, so neighbours differ and the rest are ties
    rng = np.random.default_rng(41)
    for n in range(LEVEL_QUORUM, LEVEL_QUORUM + 1000):
        at = [(n - 1) // 2, n // 2, *(int((n - 1) * q) + k for q in (0.25, 0.75) for k in (0, 1))]
        levels = np.sort(rng.uniform(0.1, 2.0, len(at) + 1))
        v = rng.permutation(levels[np.searchsorted(np.sort(at), np.arange(n), side="right")])
        pair = PerturbationPair(2.0 * v, v)
        le = estimate_level("gaussian", pair, ScoreField(np.zeros(n)), ScoreField(np.ones(n)))
        q75, q25 = np.percentile(v, [75, 25])
        assert (le.pixel_count, le.value, le.iqr) == (n, float(np.median(v)), float(q75 - q25)), n
