import inspect
import json
import threading
import tracemalloc

import numpy as np
import pytest

from tweedenoise import (
    ArdaeConfig,
    DomainError,
    TrainingDivergence,
    ardae_loss_and_grad,
    ema_update,
    eval_score,
    extract_patches,
    geometric_schedule,
    gradient_check,
    init_mlp,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
    train_ardae,
)
from tweedenoise import ardae
from tweedenoise.ardae import IN_GAIN, PATCH_BLOCK

TINY = ArdaeConfig(
    sigma_a_max=0.05, sigma_a_min=0.01, schedule_len=4, epochs=4,
    batch_size=128, lr=1e-3, patch_radius=0, hidden=(8,), seed=1,
)


def training_noise(seed, n, d):
    # the exact u stream of a training step seeded `seed`: float32, the network's dtype
    return np.random.default_rng(np.random.SeedSequence([seed, 11])).standard_normal((n, d), dtype=np.float32)


def probe(batch, sigma_a, seed):
    """The float32 probed batch and u's center column, made by the helpers the training loop runs."""
    probed = np.array(batch, np.float32)
    return probed, ardae._probe(probed, ardae._draw_noise(seed, np.empty_like(probed)), sigma_a)


def test_config_validation():
    for bad in (
        dict(sigma_a_max=0.01, sigma_a_min=0.1),
        dict(ema_decay=1.0),
        dict(epochs=-1),
        dict(batch_size=1),  # a one-row batch is skipped, so training would never step
        dict(schedule_len=1),
        dict(lr=0.0),
        dict(lr=float("nan")),
        dict(lr=float("inf")),
        dict(sigma_a_max=float("inf")),
        dict(patch_radius=-1),
    ):
        with pytest.raises(DomainError):
            ArdaeConfig(**bad)
    cfg = ArdaeConfig(patch_radius=2, hidden=(32,))
    assert cfg.layer_sizes == [25, 32, 1]


def test_init_shapes_and_determinism():
    p = init_mlp([9, 16, 1], seed=5)
    assert [w.shape for w in p.weights] == [(9, 16), (16, 1)]
    assert {a.dtype for a in p.weights + p.biases + p.ema_weights + p.ema_biases} == {np.dtype(np.float32)}
    assert all(np.all(b == 0) for b in p.biases)
    for w, ew in zip(p.weights, p.ema_weights):
        np.testing.assert_array_equal(w, ew)
        assert w is not ew
    q = init_mlp([9, 16, 1], seed=5)
    np.testing.assert_array_equal(p.weights[0], q.weights[0])
    assert not np.array_equal(p.weights[0], init_mlp([9, 16, 1], seed=6).weights[0])
    assert p.layer_sizes == [9, 16, 1]


# ---------------------------------------------------------------------------
# loss

def zero_net(layer_sizes):
    p = init_mlp(layer_sizes, 0)
    for a in p.weights + p.biases:
        a[:] = 0.0
    return p


def test_loss_is_zero_when_network_cancels_noise():
    # a linear net whose center weight undoes the input gain and the probe scale, on a center column of
    # 0.5, the input shift: sigma_a R = -u_c up to the float32 rounding of the input 0.5 + sigma_a u_c
    sigma_a = 0.0625
    p = zero_net([9, 1])
    p.weights[0][4, 0] = -1.0 / (IN_GAIN * sigma_a**2)
    batch = np.random.default_rng(2).uniform(0.1, 1.0, (64, 9))
    batch[:, 4] = 0.5
    probed, u_c = probe(batch, sigma_a, 7)
    loss, (gws, gbs) = ardae_loss_and_grad(p, probed, sigma_a, u_c)
    assert loss <= 1e-12
    assert [g.shape for g in gws + gbs] == [(9, 1), (1,)]


def test_loss_of_zero_network_is_center_noise_power():
    rng = np.random.default_rng(3)
    batch = rng.uniform(0.1, 1.0, (128, 25))
    u = training_noise(9, 128, 25)
    probed, u_c = probe(batch, 0.03, 9)
    np.testing.assert_array_equal(u_c, u[:, 12])
    np.testing.assert_array_equal(probed, np.float32(0.03) * u + batch.astype(np.float32))
    loss, _ = ardae_loss_and_grad(zero_net([25, 8, 1]), probed, 0.03, u_c)
    assert loss == np.mean(u[:, 12] ** 2)


def test_loss_domain_errors():
    p = init_mlp([1, 4, 1], 0)
    for batch, sigma_a, u_c in [
        (np.ones((4, 1)), 0.0, np.ones(4)),
        (np.ones((0, 1)), 0.1, np.ones(0)),
        (np.ones(4), 0.1, np.ones(4)),
        (np.ones((4, 1)), 0.1, np.ones(3)),  # u_c of another batch
    ]:
        with pytest.raises(DomainError):
            ardae_loss_and_grad(p, batch, sigma_a, u_c)


def test_loss_takes_params_then_batch():
    # perfbench's _step_probe reads each step's params and batch at positions 0 and 1 to count its FLOPs
    assert list(inspect.signature(ardae_loss_and_grad).parameters)[:2] == ["params", "batch"]


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(4)
    batch = rng.uniform(0.1, 1.0, (32, 9))
    for sizes, seed in [([9, 12, 1], 0), ([9, 12, 1], 1), ([9, 12, 1], 2), ([9, 12, 7, 1], 0)]:  # last: unequal widths
        params = init_mlp(sizes, seed)
        before = params.copy()
        worst = gradient_check(params, batch, sigma_a=0.05, seed=seed)
        assert worst <= 1e-4, (sizes, seed, worst)
        # the check perturbs a float64 copy: the float32 params come back untouched
        for a, b in zip(params.weights + params.biases, before.weights + before.biases):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# EMA

def test_ema_contracts_toward_constant_weights():
    p = init_mlp([4, 6, 1], 0)
    for w in p.weights:
        w[:] = 0.0
    for b in p.biases:
        b[:] = 0.0
    start = [ew.copy() for ew in p.ema_weights]
    ema_update(p, 0.5)
    for ew, s in zip(p.ema_weights, start):
        np.testing.assert_array_equal(ew, 0.5 * s)  # exact halving toward 0
    ema_update(p, 0.5)
    for ew, s in zip(p.ema_weights, start):
        np.testing.assert_array_equal(ew, 0.25 * s)


def test_ema_decay_zero_tracks_exactly():
    p = init_mlp([4, 6, 1], 1)
    for w in p.weights:
        w += 0.3
    ema_update(p, 0.0)
    for w, ew in zip(p.weights, p.ema_weights):
        np.testing.assert_array_equal(w, ew)
    for b, eb in zip(p.biases, p.ema_biases):
        np.testing.assert_array_equal(b, eb)


# ---------------------------------------------------------------------------
# patches

def test_extract_patches_shapes_and_reflect():
    img = np.arange(12, dtype=float).reshape(3, 4)
    out = extract_patches(img, 1)
    assert out.shape == (12, 9)
    np.testing.assert_array_equal(out[:, 4], img.ravel())  # center column
    # top-left patch reflects row 1 / col 1 back over the edge
    np.testing.assert_array_equal(out[0], [5, 4, 5, 1, 0, 1, 5, 4, 5])
    assert extract_patches(img, 0).shape == (12, 1)


def test_extract_patches_1d_and_errors():
    v = np.linspace(0, 1, 7)
    out = extract_patches(v, 0)
    assert out.shape == (7, 1)
    np.testing.assert_array_equal(out[:, 0], v)
    assert extract_patches(v[:0], 0).shape == (0, 1)
    with pytest.raises(DomainError):
        extract_patches(v, 1)
    with pytest.raises(DomainError):
        extract_patches(np.zeros((2, 2, 2)), 0)
    for index in ([-1], [7]):
        with pytest.raises(DomainError):
            extract_patches(v, 0, index)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 3), (3, 4), (5, 2), (9, 13)], ids=str)
@pytest.mark.parametrize("radius", [0, 1, 2, 4])
def test_extract_patches_matches_np_pad_reference(shape, radius):
    # radii past the image edge reflect more than once, as np.pad does
    img = np.random.default_rng(10).uniform(0.1, 1.0, shape)
    win = np.lib.stride_tricks.sliding_window_view(np.pad(img, radius, mode="reflect"), (2 * radius + 1,) * 2)
    ref = win.reshape(img.size, -1)
    np.testing.assert_array_equal(extract_patches(img, radius), ref)
    index = np.random.default_rng(11).integers(0, img.size, 2 * img.size)
    np.testing.assert_array_equal(extract_patches(img, radius, index), ref[index])


# ---------------------------------------------------------------------------
# schedules

def test_geometric_schedule_values():
    np.testing.assert_allclose(geometric_schedule(0.1, 0.001, 3), [0.1, 0.01, 0.001])
    seq = geometric_schedule(0.05, 0.01, 5)
    assert seq[0] == 0.05 and seq[-1] == 0.01  # endpoints exact
    np.testing.assert_allclose(np.diff(np.log(seq)), np.log(0.2) / 4)
    same = geometric_schedule(0.03, 0.03, 4)
    np.testing.assert_array_equal(same, np.full(4, 0.03))


def test_geometric_schedule_errors():
    with pytest.raises(DomainError):
        geometric_schedule(0.1, 0.001, 1)
    with pytest.raises(DomainError):
        geometric_schedule(0.001, 0.1, 5)
    with pytest.raises(DomainError):
        geometric_schedule(0.1, 0.0, 5)


# ---------------------------------------------------------------------------
# training loop

def train_reference(config, data):
    """train_ardae as it was before batches were gathered from the images:
    one concatenated patch matrix, indexed per batch, and new arrays in
    every step; the probe noise drawn in the step, on this thread; Adam
    (0.9, 0.999) and the EMA written out here."""
    arrays = [data] if isinstance(data, np.ndarray) else list(data)
    X = np.concatenate([extract_patches(a, config.patch_radius) for a in arrays], axis=0)
    params = init_mlp(config.layer_sizes, config.seed)
    schedule = geometric_schedule(config.sigma_a_max, config.sigma_a_min, config.schedule_len)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 12]))
    b1, b2, eps, decay = 0.9, 0.999, 1e-8, config.ema_decay
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in params.weights + params.biases]
    history, t = [], 0
    for epoch in range(config.epochs):
        lr = config.lr / 10.0 if epoch >= config.epochs // 2 else config.lr
        perm = rng.permutation(X.shape[0])
        losses = []
        for lo in range(0, X.shape[0], config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            if idx.size < 2:
                continue
            sigma_a = np.float32(schedule[rng.integers(0, config.schedule_len)])
            u = training_noise(int(rng.integers(0, 2**63 - 1)), idx.size, X.shape[1])
            probed = sigma_a * u + X[idx].astype(np.float32)
            loss, (gws, gbs) = ardae_loss_and_grad(params, probed, sigma_a, u[:, X.shape[1] // 2])
            t += 1
            for a, g, (m, v) in zip(params.weights + params.biases, gws + gbs, moments):
                m[:] = b1 * m + (1 - b1) * g
                v[:] = b2 * v + (1 - b2) * g * g
                a -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            for a, ema in zip(params.weights + params.biases, params.ema_weights + params.ema_biases):
                ema[:] = decay * ema + (1 - decay) * a
            losses.append(loss)
        history.append((epoch, float(np.mean(losses)), lr))
    return params, history


TWO_SIZES = [(33, 40), (20, 57), (33, 40)]


@pytest.mark.parametrize(
    "shapes, radius, batch_size, hidden",
    [
        (TWO_SIZES, 2, 300, (16, 16)),  # two image sizes; batches span images; ragged last batch
        ([(1000,)], 0, 256, (16, 16)),  # ragged last batch
        ([(100,)], 0, 128, (16, 16)),  # one batch, smaller than batch_size
        # unequal hidden widths: each delta fits its own layer's activation buffer, not the next one's
        (TWO_SIZES, 2, 300, (16, 8)),
        ([(1000,)], 0, 256, (16, 8)),
        (TWO_SIZES, 2, 300, (8, 16, 12)),
        ([(1000,)], 0, 256, (8, 16, 12)),
    ],
    ids=["2d-two-sizes", "1d", "1d-one-batch",
         "2d-two-sizes-16-8", "1d-16-8", "2d-two-sizes-8-16-12", "1d-8-16-12"],
)
def test_training_is_bitwise_the_concatenated_reference(shapes, radius, batch_size, hidden):
    rng = np.random.default_rng(12)
    data = [rng.uniform(0.1, 1.0, shape) for shape in shapes]
    cfg = ArdaeConfig(**{**vars(TINY), "patch_radius": radius, "batch_size": batch_size, "hidden": hidden})
    p, hist = train_ardae(cfg, data)
    q, ref_hist = train_reference(cfg, data)
    assert hist == ref_hist
    for a, b in zip(p.weights + p.biases + p.ema_weights + p.ema_biases,
                    q.weights + q.biases + q.ema_weights + q.ema_biases):
        np.testing.assert_array_equal(a, b)


def test_training_memory_is_bounded_by_the_batch():
    # the concatenated patch matrix of these images alone took 162 MiB
    data = [np.random.default_rng(13 + i).uniform(0.1, 1.0, (256, 256)) for i in range(4)]
    tracemalloc.start()
    try:
        train_ardae(ArdaeConfig(epochs=1), data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak / 2**20


def test_training_is_deterministic():
    rng = np.random.default_rng(5)
    data = rng.uniform(0.1, 1.0, 512)
    p1, h1 = train_ardae(TINY, data)
    p2, h2 = train_ardae(TINY, data)
    assert h1 == h2
    for a, b in zip(p1.weights + p1.ema_weights, p2.weights + p2.ema_weights):
        np.testing.assert_array_equal(a, b)


def test_zero_epochs_returns_init():
    cfg = ArdaeConfig(**{**vars(TINY), "epochs": 0})
    p, hist = train_ardae(cfg, np.full(64, 0.5))
    assert hist == []
    ref = init_mlp(cfg.layer_sizes, cfg.seed)
    for a, b in zip(p.weights, ref.weights):
        np.testing.assert_array_equal(a, b)


def test_learning_rate_drops_halfway():
    rng = np.random.default_rng(6)
    _, hist = train_ardae(TINY, rng.uniform(0.1, 1.0, 512))
    lrs = [h[2] for h in hist]
    assert lrs == [1e-3, 1e-3, 1e-4, 1e-4]
    epochs = [h[0] for h in hist]
    assert epochs == [0, 1, 2, 3]


def poisoned_data():
    data = np.random.default_rng(7).uniform(0.1, 1.0, 2048)
    data[777] = np.nan  # poisons the loss the first time this pixel is batched
    return data


def test_divergence_carries_last_good_snapshot():
    with pytest.raises(TrainingDivergence, match="epoch") as exc:
        train_ardae(TINY, poisoned_data())
    snap = exc.value.last_good
    assert snap is not None
    assert all(np.all(np.isfinite(w)) for w in snap.weights)


@pytest.mark.parametrize("diverges", [False, True], ids=["returns", "raises"])
def test_training_leaves_no_thread_running(monkeypatch, diverges):
    draws, steps = [], []
    draw, loss_and_grad = ardae._draw_noise, ardae.ardae_loss_and_grad

    def spy_draw(seed, out):
        draws.append(threading.current_thread())
        return draw(seed, out)

    def spy_step(*args, **kwargs):
        steps.append(None)
        return loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(ardae, "_draw_noise", spy_draw)
    monkeypatch.setattr(ardae, "ardae_loss_and_grad", spy_step)
    if diverges:
        with pytest.raises(TrainingDivergence):
            train_ardae(TINY, poisoned_data())
    else:
        train_ardae(TINY, np.nan_to_num(poisoned_data(), nan=0.5))
    # each step's u is drawn on the worker; the step that diverges has submitted the next step's draw,
    # so a draw is pending when it raises, and the worker finishes it before the thread ends
    assert steps and len(draws) == len(steps) + diverges
    assert all(t is not threading.main_thread() and not t.is_alive() for t in draws)


def test_train_rejects_empty_data():
    with pytest.raises(DomainError):
        train_ardae(TINY, [])
    for one_pixel in (np.ones(1), [np.ones((1, 1))]):  # no batch of 2 rows: no step could run
        with pytest.raises(DomainError, match="2 pixels"):
            train_ardae(TINY, one_pixel)


def test_one_training_step_stays_float32(monkeypatch):
    # geometric_schedule yields np.float64 sigma_a; under NEP 50 an uncast one would
    # promote the residual, and with it dout, the deltas and the gradients, to float64
    seen = {}

    def spy(name):
        fn = getattr(ardae, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.setdefault(name, []).append((args, out))
            return out

        monkeypatch.setattr(ardae, name, wrapped)

    for name in ("mlp_forward", "mlp_backward", "_adam_step", "ema_update"):
        spy(name)
    assert type(geometric_schedule(0.05, 0.01, 4)[1]) is np.float64
    cfg = ArdaeConfig(**{**vars(TINY), "epochs": 1, "batch_size": 256, "patch_radius": 1, "hidden": (8, 8)})
    params, _ = train_ardae(cfg, [np.random.default_rng(20).uniform(0.1, 1.0, (16, 16))])
    assert all(len(calls) == 1 for calls in seen.values()) and len(seen) == 4  # one step
    [((_, x), (out, acts))] = seen["mlp_forward"]
    [((_, back_acts, dout, delta_buffer), (gws, gbs))] = seen["mlp_backward"]
    [((_, grads, state, _, _), _)] = seen["_adam_step"]
    assert delta_buffer.shape == (256 * 8,)  # flat, N * max(hidden)
    arrays = {
        "input": [x], "output": [out], "activation": acts + back_acts, "dout": [dout],
        # mlp_backward leaves each hidden layer's delta in that layer's activation buffer
        "delta": [delta_buffer] + back_acts[1:], "weight gradient": gws, "bias gradient": gbs,
        "adam moment": [a for pair in state for a in pair],
        "parameter": params.weights + params.biases, "ema": params.ema_weights + params.ema_biases,
    }
    for what, group in arrays.items():
        assert group and all(a.dtype == np.float32 for a in group), (what, [a.dtype for a in group])
    assert eval_score(params, np.full((5, 5), 0.5)).values.dtype == np.float64


# ---------------------------------------------------------------------------
# inference + checkpoints

def test_eval_score_constant_field():
    p = init_mlp([9, 8, 1], 3)
    f = eval_score(p, np.full((6, 5), 0.4))
    assert f.values.shape == (6, 5)
    assert np.unique(f.values).size == 1  # identical patches, identical scores
    assert f.backend == "ardae"


def test_eval_score_is_pure_and_uses_ema():
    rng = np.random.default_rng(8)
    p = init_mlp([9, 8, 1], 4)
    y = rng.uniform(0.2, 0.9, (12, 12))
    a = eval_score(p, y).values
    np.testing.assert_array_equal(a, eval_score(p, y).values)
    p.weights[0][:] += 0.5  # the raw weights move: inference reads the shadow copy only
    np.testing.assert_array_equal(eval_score(p, y).values, a)
    p.ema_weights[0][:] += 0.5  # the shadow copy moves
    b = eval_score(p, y).values
    assert not np.array_equal(a, b)
    out, _ = mlp_forward(p, extract_patches(y, 1), use_ema=True)
    np.testing.assert_array_equal(b, out.reshape(y.shape))


def full_size_net(radius, seed):
    p = init_mlp([(2 * radius + 1) ** 2, 128, 128, 1], seed)
    p.ema_weights[0][:] += 0.01  # inference reads the shadow copy
    return p


@pytest.mark.parametrize(
    "radius, shape", [(4, (128, 128)), (4, (512, 512)), (0, (3 * PATCH_BLOCK,))], ids=["128^2", "512^2", "1d"]
)
def test_eval_score_is_bitwise_the_whole_matrix_forward(radius, shape):
    # the whole-matrix reference is a single BLAS call per layer; its row count is a whole number of blocks
    y = np.random.default_rng(14).uniform(0.1, 1.0, shape)
    p = full_size_net(radius, 15)
    out, _ = mlp_forward(p, extract_patches(y, radius), use_ema=True)
    np.testing.assert_array_equal(eval_score(p, y).values, out.reshape(shape))


@pytest.mark.parametrize("radius", [0, 4])
def test_eval_score_is_a_pure_function_of_each_patch(radius):
    # a crop moves every pixel to another place in its blocks; pixels at least
    # radius from the crop's edge keep their patch and so their score
    y = np.random.default_rng(16).uniform(0.1, 1.0, (67, 71))  # several blocks, ragged tail
    p = full_size_net(radius, 17)
    whole = eval_score(p, y).values
    for rows, cols in ((slice(3, 60), slice(5, 70)), (slice(4, 5), slice(4, 66)), (slice(20, 21), slice(30, 31))):
        crop = eval_score(p, y[rows, cols]).values
        h, w = crop.shape
        inner = (slice(radius, h - radius), slice(radius, w - radius))
        np.testing.assert_array_equal(crop[inner], whole[rows, cols][inner])


def test_eval_memory_is_bounded_by_the_block():
    # the whole patch matrix and its activations at 512^2 took 1,092 MiB
    y = np.random.default_rng(18).uniform(0.1, 1.0, (512, 512))
    p = full_size_net(4, 19)
    tracemalloc.start()
    try:
        eval_score(p, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak / 2**20


@pytest.mark.parametrize("radius, shape", [(4, (128, 128)), (0, (2001,))], ids=["128^2", "1d-grid"])
def test_eval_score_is_within_the_declared_bound_of_float64(radius, shape):
    # the declared numeric change: float32 inference differs from a float64 forward pass
    # of the same weights by at most 2e-6 * (1 + |s|), 16 float32 epsilons; measured up to 5e-7
    y = np.random.default_rng(21).uniform(0.1, 1.0, shape) if radius else np.linspace(0.05, 1.0, 2001)
    p = full_size_net(radius, 22)
    ref, _ = mlp_forward(p.copy(np.float64), extract_patches(y, radius), use_ema=True)
    s = eval_score(p, y).values
    assert s.dtype == np.float64
    assert np.max(np.abs(s - ref.reshape(shape)) / (1 + np.abs(ref.reshape(shape)))) <= 2e-6


def test_eval_score_rejects_nonsquare_input_layer():
    p = init_mlp([8, 4, 1], 0)
    with pytest.raises(DomainError):
        eval_score(p, np.full((6, 6), 0.5))


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    cfg = ArdaeConfig(patch_radius=1, hidden=(8,), seed=2)
    p = init_mlp(cfg.layer_sizes, cfg.seed)
    p.ema_weights[0][:] = rng.standard_normal(p.ema_weights[0].shape)
    path = tmp_path / "model.npz"
    save_checkpoint(path, p, cfg)
    q, header = load_checkpoint(path)
    assert header["version"] == 2  # version 1 held float64 arrays
    assert header["layer_sizes"] == [9, 8, 1]
    assert header["config"]["hidden"] == [8]
    for a, b in zip(p.weights + p.ema_weights, q.weights + q.ema_weights):
        assert b.dtype == np.float32
        np.testing.assert_array_equal(a, b)


def test_checkpoint_version_gate(tmp_path):
    cfg = ArdaeConfig(patch_radius=0, hidden=(4,))
    p = init_mlp(cfg.layer_sizes, 0)
    path = tmp_path / "model.npz"
    save_checkpoint(path, p, cfg)
    with np.load(path) as z:
        blob = {k: z[k] for k in z.files}
    header = json.loads(bytes(blob["header"]).decode())
    for version in (99, 1):
        header["version"] = version
        blob["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **blob)
        with pytest.raises(DomainError, match="version.*retrain"):
            load_checkpoint(path)
