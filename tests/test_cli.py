import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tweedenoise import (
    EPS_Y,
    ArdaeConfig,
    DenoiseCfg,
    EstimationFailure,
    GmmPrior,
    NoiseModel,
    ScoreField,
    analytic_score_gaussian,
    blind_estimate,
    denoise_blind,
    denoise_known,
    init_mlp,
    load_checkpoint,
    load_tensor,
    psnr,
    save_checkpoint,
    save_tensor,
)
from tweedenoise import ardae, cli, pipeline
from tweedenoise.cli import main

SIGMA = 25.0 / 255.0
HUGE = 10**400  # a JSON integer that no float holds
PALETTE = GmmPrior((0.2, 0.8), (0.3, 0.9), (0.005, 0.005))


def base_config(out_dir):
    return {
        "schema_version": 1,
        "seed": 11,
        "out_dir": str(out_dir),
        "synth": {
            "kind": "piecewise_constant", "height": 64, "width": 64,
            "regions": 64, "count": 4,
            "prior": {"weights": [0.2, 0.8], "means": [0.3, 0.9], "stds": [0.005, 0.005]},
        },
        "noise": {"model": "gaussian", "level": 25},
        "score_backend": "oracle-gaussian",
        "estimation": {"pooled": True},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(cmd, cfg_path, *extra):
    return main([cmd, "--config", cfg_path, *extra])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def synth_run(tmp_path):
    """A fresh synth output directory plus its config path."""
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, base_config(out))
    assert run("synth", cfg_path) == 0
    return out, cfg_path, tmp_path


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_tensors_and_manifest(synth_run):
    out, _, _ = synth_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["images"]) == 4
    assert len(list(out.glob("*.f32"))) == 8  # clean + noisy per image
    assert manifest["model"] == "gaussian"
    assert manifest["level"] == 25.0 / 255.0  # sigma scaled at parse, bit-equal
    y = load_tensor(out / manifest["images"][0]["noisy"])
    assert y.shape == (64, 64)
    assert np.min(y) >= np.float32(EPS_Y)  # floor survives the f32 roundtrip


def test_synth_rerun_is_byte_identical(synth_run):
    out, cfg_path, _ = synth_run
    before = (out / "manifest.json").read_bytes(), (out / "noisy_000.f32").read_bytes()
    assert run("synth", cfg_path) == 0
    assert (out / "manifest.json").read_bytes() == before[0]
    assert (out / "noisy_000.f32").read_bytes() == before[1]


def test_synth_needs_sections(tmp_path):
    cfg = base_config(tmp_path / "o")
    del cfg["synth"]
    assert run("synth", write_config(tmp_path, cfg)) == 2


def test_seed_override_changes_data(synth_run):
    out, cfg_path, _ = synth_run
    first = (out / "noisy_000.f32").read_bytes()
    assert run("synth", cfg_path, "--seed", "99") == 0
    assert (out / "noisy_000.f32").read_bytes() != first


def test_out_override(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "a"))
    other = tmp_path / "elsewhere"
    assert run("synth", cfg_path, "--out", str(other)) == 0
    assert (other / "manifest.json").exists()


# ---------------------------------------------------------------------------
# config validation -> exit 2

def test_config_error_exit_codes(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("synth", write_config(tmp_path, base_config(out), "base.json")) == 0
    cases = []  # (command, config)
    c = base_config(out); c["typo_key"] = 1; cases.append(("synth", c))
    c = base_config(out); c["synth"]["regioms"] = 4; cases.append(("synth", c))
    c = base_config(out); c["schema_version"] = 3; cases.append(("synth", c))
    c = base_config(out); del c["seed"]; cases.append(("synth", c))
    c = base_config(out); c["seed"] = True; cases.append(("synth", c))
    c = base_config(out); c["score_backend"] = "oracle-mystery"; cases.append(("synth", c))
    c = base_config(out); c["score_backend"] = "ardae:missing.npz"; cases.append(("synth", c))
    c = base_config(out); c["noise"]["model"] = "levy"; cases.append(("synth", c))
    c = base_config(out); del c["noise"]["level"]; cases.append(("synth", c))
    c = base_config(out); del c["synth"]["prior"]["means"]; cases.append(("synth", c))
    c = base_config(out); c["synth"]["height"] = "abc"; cases.append(("synth", c))
    c = base_config(out); c["estimation"] = {"eps": "x"}; cases.append(("synth", c))
    c = base_config(out); c["ardae"] = {"hidden": 5}; cases.append(("synth", c))
    c = base_config(out); c["ardae"] = {"lr_decay_epoch": 2}; cases += [("synth", c), ("train", c)]  # a removed knob
    # JSON's NaN and Infinity
    nan, inf = float("nan"), float("inf")
    for section, key, value in (("estimation", "mask_eps", nan), ("estimation", "mask_eps", inf),
                                ("estimation", "rho_assumed", inf), ("ardae", "lr", nan), ("ardae", "lr", inf),
                                ("ardae", "sigma_a_max", inf)):
        c = base_config(out); c[section] = {key: value}; cases += [("synth", c), ("estimate", c)]
    for key in ("weights", "means", "stds"):
        c = base_config(out); c["synth"]["prior"][key] = [nan, 0.8]; cases.append(("synth", c))
    # an oracle backend needs the prior and noise sections, and only fits its own families
    c = base_config(out); del c["synth"], c["noise"]; cases += [("estimate", c), ("eval", c)]
    for model, level in (("poisson", 0.02), ("gamma", 50)):  # on data of that noise, so the manifest agrees
        c = base_config(tmp_path / model); c["noise"] = {"model": model, "level": level}; cases.append(("estimate", c))
        assert run("synth", write_config(tmp_path, c, f"{model}.json")) == 0
    # a synth section that SynthSpec rejects, in every command
    for edit in ({"kind": "stripes"}, {"height": 4}, {"width": 7}, {"regions": 0}):
        c = base_config(out); c["synth"].update(edit); cases += [(command, c) for command in cli.COMMANDS]
    # a negative seed, a non-positive level or Gamma k <= 1, and a family no sampler or formula covers,
    # are all rejected at parse, in every command
    bad_noise = [("gaussian", -25), ("gaussian", 0), ("poisson", -0.02), ("gamma", 1), ("invgauss", 0.1)]
    for command in ("synth", "estimate", "train"):
        c = base_config(out); c["seed"] = -1; cases.append((command, c))
        for model, level in bad_noise:
            c = base_config(out); c["noise"] = {"model": model, "level": level}; cases.append((command, c))
        # a JSON integer too large for a float, at each kind of number key
        for path in (("noise", "level"), ("estimation", "eps"), ("synth", "prior", "stds"), ("ardae", "lr"),
                     ("ardae", "sigma_a_max")):
            c = base_config(out); c.setdefault("ardae", {})
            parent = functools.reduce(dict.__getitem__, path[:-1], c)
            parent[path[-1]] = [HUGE, 0.005] if path[-1] == "stds" else HUGE
            cases.append((command, c))
    for i, (command, c) in enumerate(cases):
        assert run(command, write_config(tmp_path, c, f"c{i}.json")) == 2, (command, c)
    assert run("estimate", str(tmp_path / "base.json"), "--seed", "-1") == 2
    assert run("synth", str(tmp_path / "nope.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("synth", str(bad)) == 2
    # a missing or garbled tensor file, in each command that reads tensors
    breakages = [
        ("estimate", lambda: (out / "noisy_000.f32.json").unlink()),
        ("eval", lambda: (out / "clean_001.f32").unlink()),
        ("denoise", lambda: (out / "noisy_002.f32.json").write_text("{not json")),
        ("train", lambda: (out / "noisy_003.f32.json").write_text('{"dtype": "f32"}')),
        # a shape whose product matches the payload but that is no pair of non-negative ints
        ("estimate", lambda: (out / "noisy_001.f32.json").write_text('{"dtype": "f32", "shape": [64.0, 64.0]}')),
        ("estimate", lambda: (out / "noisy_001.f32.json").write_text('{"dtype": "f32", "shape": [-64, -64]}')),
    ]
    for command, breakage in breakages:
        assert run("synth", str(tmp_path / "base.json")) == 0
        breakage()
        assert run(command, str(tmp_path / "base.json")) == 2, command
    manifest = out / "manifest.json"
    manifest.write_text(manifest.read_text()[:40])  # truncated
    assert run("estimate", str(tmp_path / "base.json")) == 2
    assert run("synth", str(tmp_path / "base.json")) == 0
    manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), level=float("nan"))))
    assert run("estimate", str(tmp_path / "base.json")) == 2
    assert run("synth", str(tmp_path / "base.json")) == 0
    manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), level=HUGE)))
    assert run("estimate", str(tmp_path / "base.json")) == 2
    # indices that are not 0, 1, ..., n-1 in order: negative, repeated, swapped or with a gap (a per-image run
    # probes image i with seed + index, a pooled one with seed + position), an unknown family, a level that
    # no noise model takes, and a noise model other than the config's (another level, or another family at
    # the same level: every column would be computed for the config's noise), in each command that reads the
    # manifest
    assert run("synth", str(tmp_path / "base.json")) == 0
    good = json.loads(manifest.read_text())
    first, second, *rest = good["images"]
    for edit in (dict(images=[dict(first, index=-1), second, *rest]),
                 dict(images=[first, dict(second, index=0), *rest]),
                 dict(images=[dict(first, index=1), dict(second, index=0), *rest]),
                 dict(images=[first, dict(second, index=2)]),
                 dict(model="gaussain"), dict(level=-3), dict(model="gamma", level=1),
                 dict(level=50 / 255), dict(model="poisson")):
        manifest.write_text(json.dumps(dict(good, **edit)))
        for command in ("estimate", "denoise", "eval", "train"):
            assert run(command, str(tmp_path / "base.json")) == 2, (command, edit)
    # the true model and level are optional only as a pair, and eval needs each image's clean tensor
    for key in ("model", "level"):
        manifest.write_text(json.dumps({k: v for k, v in good.items() if k != key}))
        for command in ("estimate", "denoise", "eval", "train"):
            assert run(command, str(tmp_path / "base.json")) == 2, (command, key)
    manifest.write_text(json.dumps(dict(good, images=[first, {k: v for k, v in second.items() if k != "clean"},
                                                      *rest])))
    assert run("eval", str(tmp_path / "base.json")) == 2
    # a noisy pixel that is not finite and positive, the rule of the formula, in each command that reads the
    # noisy tensors; the message names the tensor
    for value in (0.0, -0.5, np.nan, np.inf):
        assert run("synth", str(tmp_path / "base.json")) == 0
        y = load_tensor(out / "noisy_001.f32")
        y[3, 3] = value
        save_tensor(out / "noisy_001.f32", y)
        capsys.readouterr()
        for command in ("estimate", "denoise", "eval", "train"):
            assert run(command, str(tmp_path / "base.json")) == 2, (command, value)
            assert f"noisy tensor {out / 'noisy_001.f32'}" in capsys.readouterr().err, (command, value)


def test_config_sections_name_the_value_types_fields():
    # the CLI passes these sections into the constructors: a knob added or removed must be so in both
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)} - {"seed"}

    assert set(cli._SCHEMA["estimation"]) == fields(DenoiseCfg) | {"pooled"}
    assert set(cli._SCHEMA["ardae"]) == fields(ArdaeConfig)


def edit_checkpoint(path, header=(), dtype=np.float32, **arrays):
    """A [1, 4, 1] checkpoint with its header keys updated, its arrays cast
    to ``dtype`` and then replaced; an array given as None is left out."""
    save_checkpoint(path, init_mlp([1, 4, 1], 0), ArdaeConfig(patch_radius=0, hidden=(4,)))
    with np.load(path) as z:
        blob = {k: z[k].astype(dtype) for k in z.files if k != "header"}
        head = dict(json.loads(bytes(z["header"]).decode()), **dict(header))
    blob.update(arrays, header=np.frombuffer(json.dumps(head).encode(), dtype=np.uint8))
    np.savez(path, **{k: v for k, v in blob.items() if v is not None})


@pytest.mark.parametrize(
    "write",
    [
        lambda p: p.write_bytes(b"not a checkpoint"),
        lambda p: np.savez(p, w0=np.zeros(3)),
        lambda p: np.savez(p, header=np.frombuffer(b"[1]", dtype=np.uint8)),
        lambda p: edit_checkpoint(p, ew1=None),
        lambda p: edit_checkpoint(p, b0=np.zeros(5, np.float32)),
        lambda p: edit_checkpoint(p, w1=np.zeros((4, 1))),
        lambda p: edit_checkpoint(p, {"layer_sizes": None}),
        lambda p: edit_checkpoint(p, {"version": 1}, np.float64),  # the float64 network version 1 stored
    ],
    ids=["text", "zip-without-header", "header-not-an-object", "missing-array", "bad-shape", "float64-array",
         "no-layer-sizes", "version-1"],
)
def test_non_checkpoint_backend_file_exits_2(synth_run, write):
    out, _, tmp_path = synth_run
    fake = tmp_path / "fake.npz"
    write(fake)
    cfg = base_config(out)
    cfg["score_backend"] = f"ardae:{fake}"
    assert run("estimate", write_config(tmp_path, cfg, "fake.json")) == 2


def test_out_dir_naming_a_file_exits_2(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run("synth", write_config(tmp_path, base_config(taken))) == 2


def test_cli_start_up_and_gaussian_estimate_load_no_scipy(tmp_path):
    # scipy serves only the Poisson score and the brute-force oracle; a fresh
    # interpreter shows what the CLI's own imports and a Gaussian run load.
    # The level's order statistics need no numpy.ma either (numpy 1.x imports it with numpy itself),
    # nor does an eval that reuses the estimate record
    cfg_path = write_config(tmp_path, base_config(tmp_path / "o"))
    script = (
        "import sys\n"
        "import numpy\n"
        "eager_ma = 'numpy.ma' in sys.modules\n"
        "from tweedenoise import cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(scipy_modules())\n"
        f"assert cli.main(['synth', '--config', {cfg_path!r}]) == 0\n"
        f"assert cli.main(['estimate', '--config', {cfg_path!r}]) == 0\n"
        "print(scipy_modules())\n"
        "estimates = []\n"
        "cli.blind_estimate = lambda *args, real=cli.blind_estimate: estimates.append(args) or real(*args)\n"
        f"assert cli.main(['eval', '--config', {cfg_path!r}]) == 0\n"
        "print(scipy_modules(), len(estimates))\n"
        "print('numpy.ma' in sys.modules and not eager_ma)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    after_import, after_estimate, after_eval, loaded_ma = done.stdout.splitlines()
    assert after_import == "[]"
    assert after_estimate == "[]"
    assert after_eval == "[] 0"  # the record was reused
    assert loaded_ma == "False"


def test_oracle_commands_do_not_import_ardae(tmp_path):
    # only an ardae section, an ardae: backend or train loads the network module
    script = "import sys\nfrom tweedenoise import cli\n"
    for model, level, backend in (("gaussian", 25, "oracle-gaussian"), ("gamma", 50, "oracle-quadrature")):
        c = base_config(tmp_path / model)
        c["noise"], c["score_backend"], c["synth"]["count"] = {"model": model, "level": level}, backend, 1
        cfg_path = write_config(tmp_path, c, f"{model}.json")
        script += "".join(f"assert cli.main([{c!r}, '--config', {cfg_path!r}]) == 0\n" for c in ("synth", "estimate"))
    script += "print('tweedenoise.ardae' in sys.modules)\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False"]


def test_cli_train_loads_no_numpy_ma(tmp_path):
    # on numpy 2, np.unique imports numpy.ma; training visits each image's batch rows without it
    cfg_path = write_config(tmp_path, train_config(tmp_path / "t"))
    script = (
        "import sys\n"
        "import numpy\n"
        "eager_ma = 'numpy.ma' in sys.modules\n"
        "from tweedenoise import cli\n"
        f"assert cli.main(['synth', '--config', {cfg_path!r}]) == 0\n"
        f"assert cli.main(['train', '--config', {cfg_path!r}]) == 0\n"
        "print('numpy.ma' in sys.modules and not eager_ma)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False"]


# every key of base_config but out_dir, by its path; a mutation replaces or deletes one
def _paths(d, prefix=()):
    for key, value in d.items():
        if prefix + (key,) != ("out_dir",):
            yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


DELETE = object()
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(sorted(_paths(base_config("o")))),
        st.one_of(
            st.just(DELETE), st.none(), st.booleans(), st.integers(-2, 66),
            st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
            st.sampled_from(["gaussian", "poisson", "gamma", "invgauss", "gmm_iid", "oracle-quadrature"]),
            st.lists(st.floats(-1.0, 2.0), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
        ),
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(MUTATIONS)
@example([(("seed",), -1)])
@example([(("noise", "level"), HUGE)])
def test_mutated_configs_exit_cleanly(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = base_config(Path(tmp) / "out")
        for path, value in mutations:
            parent = cfg
            for key in path[:-1]:
                parent = parent.get(key) if isinstance(parent, dict) else None
            if isinstance(parent, dict):
                if value is DELETE:
                    parent.pop(path[-1], None)
                else:
                    parent[path[-1]] = value
        cfg_path = write_config(Path(tmp), cfg)
        for command in ("synth", "estimate", "eval"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(command, cfg_path)
            assert code in (0, 2, 3, 4), (command, code, cfg)
            assert "Traceback" not in err.getvalue()


def test_estimate_without_manifest_fails(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "empty"))
    assert run("estimate", cfg_path) == 2


def test_estimate_empty_manifest_fails(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({"schema_version": 1, "images": []}))
    cfg_path = write_config(tmp_path, base_config(out))
    assert run("estimate", cfg_path) == 2


# ---------------------------------------------------------------------------
# estimate

def test_estimate_summary_accuracy_and_level(synth_run):
    out, cfg_path, _ = synth_run
    assert run("estimate", cfg_path) == 0
    header, rows = read_csv(out / "estimates.csv")
    assert header == ["image", "rho_hat", "model", "level", "truth_model", "truth_level", "correct"]
    assert len(rows) == 4
    for r in rows:
        assert r[2] == "gaussian" and r[4] == "gaussian"
        assert int(r[6]) == 1
        assert abs(float(r[3]) - SIGMA) / SIGMA <= 0.10  # natural units: sigma
    # pooled mode: every image reports the same pooled estimate
    assert len({r[1] for r in rows}) == 1
    rep = json.loads((out / "estimate_000.json").read_text())
    assert rep["model"] == "gaussian"
    assert rep["backend"] == "oracle-gaussian"
    assert rep["pixel_count"] == 4 * 64 * 64


@pytest.mark.parametrize("pooled", [True, False])
def test_cli_rows_equal_the_library(tmp_path, pooled):
    # image i is probed with seed + i in both the CLI and the library
    out = tmp_path / "run"
    cfg = base_config(out)
    cfg["estimation"] = {"pooled": pooled}
    cfg_path = write_config(tmp_path, cfg)
    for command in ("synth", "estimate", "denoise"):
        assert run(command, cfg_path) == 0
    _, rows = read_csv(out / "estimates.csv")
    ys = [load_tensor(out / f"noisy_{i:03d}.f32") for i in range(4)]
    backend = lambda v: analytic_score_gaussian(v, PALETTE, SIGMA)
    if pooled:  # the estimated model's formula at each y1, with the score the estimate evaluated there
        me, le, pairs, f1 = blind_estimate(ys, backend, DenoiseCfg(seed=11))
        estimated = NoiseModel(me.classified, le.value)
        expected = [(denoise_known(p.y1, estimated, lambda _: s1), me, le) for p, s1 in zip(pairs, f1)]
    else:
        blind = [denoise_blind(y, backend, DenoiseCfg(seed=11 + i)) for i, y in enumerate(ys)]
        expected = [(xhat, report.model_estimate, report.level_estimate) for xhat, report in blind]
    for i, (row, (xhat, me, le)) in enumerate(zip(rows, expected)):
        assert float(row[1]) == me.rho_hat
        assert row[2] == me.classified
        assert float(row[3]) == math.sqrt(le.value)
        np.testing.assert_array_equal(load_tensor(out / f"denoised_{i:03d}.f32"), xhat.astype(np.float32))


def test_per_image_reports_record_the_probe_seed(tmp_path):
    out = tmp_path / "run"
    cfg = base_config(out)
    cfg["estimation"] = {"pooled": False}
    cfg_path = write_config(tmp_path, cfg)
    for command in ("synth", "estimate", "denoise"):
        assert run(command, cfg_path) == 0
    for i in range(4):
        for kind in ("estimate", "denoise"):
            assert json.loads((out / f"{kind}_{i:03d}.json").read_text())["seed"] == 11 + i


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "per-image"])
def test_seed_override_reaches_the_probe(synth_run, pooled):
    out, _, tmp_path = synth_run
    cfg = base_config(out)
    cfg["estimation"] = {"pooled": pooled}
    assert run("estimate", write_config(tmp_path, cfg, "seeded.json"), "--seed", "5") == 0
    for i in range(4):
        assert json.loads((out / f"estimate_{i:03d}.json").read_text())["seed"] == (5 if pooled else 5 + i)


@pytest.mark.parametrize(
    "command, mask_eps", [("estimate", None), ("eval", None), ("eval", 1e-30)], ids=["estimate", "eval", "eval-empty-mask"]
)
def test_a_finished_group_is_freed_before_the_next_is_scored(tmp_path, monkeypatch, command, mask_eps):
    # per-image groups score y1 and y2: calls 2k and 2k + 1 belong to image k
    fields = []
    real = cli.make_backend

    def tracking_backend(cfg):
        backend = real(cfg)

        def score(y):
            if len(fields) % 2 == 0:
                alive = [i for i, ref in enumerate(fields) if ref() is not None]
                assert not alive, f"scores {alive} outlive their group at call {len(fields)}"
            field = backend(y)
            fields.append(weakref.ref(field))
            return field

        return score

    monkeypatch.setattr(cli, "make_backend", tracking_backend)
    out = tmp_path / "run"
    cfg = base_config(out)
    cfg["estimation"] = {"pooled": False} if mask_eps is None else {"pooled": False, "mask_eps": mask_eps}
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    assert run(command, cfg_path) == 0
    assert len(fields) == 2 * cfg["synth"]["count"]


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "per-image"])
def test_blind_images_hold_one_copy_of_the_pixels(synth_run, monkeypatch, pooled):
    out, _, tmp_path = synth_run
    cfg = base_config(out)
    cfg["estimation"] = {"pooled": pooled}
    cfg = cli.parse_config(write_config(tmp_path, cfg, "one_copy.json"))
    loaded, real = [], cli.load_tensor

    def tracking(path):
        t = real(path)
        loaded.append(weakref.ref(t))
        return t

    monkeypatch.setattr(cli, "load_tensor", tracking)
    backend, scored = cli.make_backend(cfg), []

    def spy(v):
        scored.append(v)
        return backend(v)

    ys = []
    for k, (im, y, s1, _) in enumerate(cli._blind_images(cfg, out, cli._load_manifest(out, cfg)["images"], spy)):
        # the probe's y1, scored first of each image's two calls, is the loaded tensor itself: the float32
        # array on disk
        assert scored[2 * k] is y is loaded[k]() and len(loaded) == len(scored) // 2 == (4 if pooled else k + 1)
        assert y.dtype == np.float32 and y.tobytes() == (out / im["noisy"]).read_bytes()
        np.testing.assert_array_equal(y, real(out / im["noisy"]))
        np.testing.assert_array_equal(s1.values, backend(y).values)  # the image's score alone
        ys.append(y)
    assert len(ys) == 4


def test_estimate_failure_exit_code(synth_run):
    out, _, tmp_path = synth_run
    cfg = base_config(out)
    cfg["estimation"] = {"mask_eps": 1e-30}  # nothing survives the mask
    assert run("estimate", write_config(tmp_path, cfg, "strict.json")) == 3


@pytest.mark.parametrize("pooled", [True, False])
def test_estimate_writes_a_row_when_only_the_level_fails(synth_run, monkeypatch, pooled):
    out, _, tmp_path = synth_run

    def no_quorum(kind, *args, **kwargs):
        raise EstimationFailure(f"only 3 valid pixels for {kind} level (quorum 16)")

    monkeypatch.setattr(pipeline, "estimate_level", no_quorum)
    cfg = base_config(out)
    cfg["estimation"] = {"pooled": pooled}
    assert run("estimate", write_config(tmp_path, cfg, "nolevel.json")) == 0
    _, rows = read_csv(out / "estimates.csv")
    assert len(rows) == 4
    for r in rows:
        assert float(r[1]) >= 0 and r[2] == "gaussian" and r[3] == ""
    for i in range(4):
        rep = json.loads((out / f"estimate_{i:03d}.json").read_text())
        assert rep["model"] == "gaussian" and rep["level"] is None


# ---------------------------------------------------------------------------
# denoise / eval

def test_denoise_psnr_table(synth_run):
    # denoise writes the blind output, eval the table that compares it with the clean images
    out, cfg_path, _ = synth_run
    assert run("denoise", cfg_path) == 0
    assert not (out / "psnr.csv").exists()
    for i in range(4):
        xb = load_tensor(out / f"denoised_{i:03d}.f32")
        assert np.min(xb) >= np.float32(EPS_Y) and np.max(xb) <= 1.0
    rep = json.loads((out / "denoise_000.json").read_text())
    assert rep["model"] == "gaussian"
    assert run("eval", cfg_path) == 0
    header, rows = read_csv(out / "psnr.csv")
    assert header == ["image", "psnr_noisy", "blind", "known_level", "oracle_posterior", "error"]
    assert rows[-1][0] == "mean"
    body = rows[:-1]
    assert len(body) == 4
    for r in body:
        noisy, blind, known, oracle = map(float, r[1:5])
        assert r[5] == ""
        assert blind >= noisy  # denoising never hurts on this oracle run
        assert blind <= known + 0.1
        assert abs(known - oracle) <= 0.01  # Gaussian case: formula is exact
    # both commands write the DenoiseReport of the same estimate
    assert run("estimate", cfg_path) == 0
    assert (out / "denoise_000.json").read_bytes() == (out / "estimate_000.json").read_bytes()


def test_denoise_rerun_is_byte_identical(synth_run):
    out, cfg_path, _ = synth_run
    assert run("denoise", cfg_path) == 0
    first = denoise_outputs(out)
    assert "denoised_000.f32" in first and "psnr.csv" not in first
    assert run("denoise", cfg_path) == 0
    assert denoise_outputs(out) == first
    assert run("eval", cfg_path) == 0
    table = (out / "psnr.csv").read_bytes()
    assert run("eval", cfg_path) == 0
    assert (out / "psnr.csv").read_bytes() == table


def test_eval_writes_table_but_no_tensors(synth_run):
    out, cfg_path, _ = synth_run
    assert run("eval", cfg_path) == 0
    assert (out / "psnr.csv").exists()
    assert not list(out.glob("denoised_*.f32"))


def test_a_gamma_level_no_model_takes_is_a_failed_estimate(tmp_path, monkeypatch):
    # on these scores the pooled Gamma level estimate is k = 0.36, which the formula cannot take (k > 1)
    score = lambda y: ScoreField(-0.5 * y - 1.0 / y)
    monkeypatch.setattr(cli, "make_backend", lambda cfg: score)
    out = tmp_path / "run"
    cfg = dict(base_config(out), seed=0, noise={"model": "gamma", "level": 50}, score_backend="oracle-quadrature")
    cfg["synth"]["count"] = 2
    cfg_path = write_config(tmp_path, cfg)
    for command in ("synth", "estimate", "eval"):
        assert run(command, cfg_path) == 0, command
    _, rows = read_csv(out / "estimates.csv")
    assert [r[2:4] for r in rows] == [["gamma", ""]] * 2  # the index estimate, with its level left empty
    _, rows = read_csv(out / "psnr.csv")
    assert len(rows) == 2
    for r in rows:
        assert r[5].startswith("degenerate gamma level estimate 0.36") and math.isnan(float(r[2]))
        assert float(r[3]) > 0  # known-level column still filled
    with pytest.raises(EstimationFailure, match="degenerate gamma level estimate 0.3"):
        denoise_blind(load_tensor(out / "noisy_000.f32"), score, DenoiseCfg())


@pytest.mark.parametrize("pooled", [True, False])
def test_per_image_failures_are_recorded_not_fatal(synth_run, pooled):
    out, _, tmp_path = synth_run
    cfg = base_config(out)
    cfg["estimation"] = {"mask_eps": 1e-30, "pooled": pooled}
    assert run("eval", write_config(tmp_path, cfg, "peri.json")) == 0
    header, rows = read_csv(out / "psnr.csv")
    assert len(rows) == 4
    assert all(r[0] != "mean" for r in rows)  # no survivors, no mean row
    for r in rows:
        assert "mask_eps" in r[5]
        assert math.isnan(float(r[2]))
        assert float(r[3]) > 0  # known-level column still filled


def counting_backends(monkeypatch):
    """The list of values that the backends ``make_backend`` builds from now on are called on."""
    calls, real = [], cli.make_backend

    def counting_backend(cfg):
        backend = real(cfg)
        return lambda y: calls.append(y) or backend(y)

    monkeypatch.setattr(cli, "make_backend", counting_backend)
    return calls


@pytest.mark.parametrize(
    "pooled, failure",
    [
        pytest.param(True, None, id="True"),
        pytest.param(False, "classified as unknown", id="False"),
        pytest.param(True, "empty mask", id="empty-mask-pooled"),
        pytest.param(False, "empty mask", id="empty-mask-per-image"),
    ],
)
def test_eval_scores_each_image_twice(tmp_path, monkeypatch, pooled, failure):
    # at y1 and y2; the known-level column reuses the score at y1, which is y itself,
    # also for an image whose blind path failed
    calls = counting_backends(monkeypatch)
    out = tmp_path / "run"
    cfg = base_config(out)
    cfg["estimation"] = {"pooled": pooled}
    if failure == "classified as unknown":  # gamma data on which one image of three is classified unknown
        cfg.update(seed=14, noise={"model": "gamma", "level": 50}, score_backend="oracle-quadrature")
        cfg["synth"].update(height=32, width=32, regions=16, count=3)
    elif failure == "empty mask":
        cfg["estimation"]["mask_eps"] = 1e-30
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    assert run("eval", cfg_path) == 0
    _, rows = read_csv(out / "psnr.csv")
    count = cfg["synth"]["count"]
    assert len(calls) == 2 * count
    failed = [r for r in rows if r[5]]
    assert len(failed) == {None: 0, "classified as unknown": 1, "empty mask": count}[failure]
    parsed = cli.parse_config(cfg_path)
    for r in failed:
        assert failure in r[5]
        i = int(r[0])
        x, y = (load_tensor(out / f"{kind}_{i:03d}.f32") for kind in ("clean", "noisy"))
        xk = denoise_known(y, parsed["truth"], cli.make_backend(parsed))  # a fresh score at y
        assert float(r[3]) == psnr(x, xk)


def denoise_outputs(out):
    """File name -> bytes of what denoise and eval write: denoised_NNN.f32 and denoise_NNN.json, and psnr.csv."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name.startswith(("psnr.", "denoise"))}


def reuse_case(tmp_path, case):
    """(output directory, config path) of a synthesized fixture; ardae trains its checkpoint first."""
    out = tmp_path / "run"
    cfg = train_config(out) if case == "ardae" else base_config(out)
    if case == "gaussian-per-image":
        cfg["estimation"] = {"pooled": False}
    elif case == "poisson-quadrature":
        cfg.update(noise={"model": "poisson", "level": 0.02}, score_backend="oracle-quadrature")
        cfg["synth"]["count"] = 2
    elif case == "gamma-quadrature":  # per image; one image of three is classified unknown
        cfg.update(seed=14, noise={"model": "gamma", "level": 50}, score_backend="oracle-quadrature",
                   estimation={"pooled": False})
        cfg["synth"].update(height=32, width=32, regions=16, count=3)
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    if case == "ardae":
        assert run("train", cfg_path) == 0
        cfg["score_backend"] = f"ardae:{out / 'checkpoint.npz'}"
        cfg_path = write_config(tmp_path, cfg, "ardae.json")
    return out, cfg_path


@pytest.mark.parametrize(
    "case", ["gaussian-pooled", "gaussian-per-image", "poisson-quadrature", "gamma-quadrature", "ardae"]
)
def test_reusing_the_estimate_record_is_bitwise_identical(tmp_path, monkeypatch, case):
    # synth -> eval against synth -> estimate -> eval, and the same with denoise: the record that estimate
    # wrote for these inputs replaces the probe at y2, so each image is scored once instead of twice
    out, cfg_path = reuse_case(tmp_path, case)
    count = len(json.loads((out / "manifest.json").read_text())["images"])
    calls, written = counting_backends(monkeypatch), {}
    for estimated in (False, True):
        if estimated:
            assert run("estimate", cfg_path) == 0
        for command in ("eval", "denoise"):
            for p in out.glob("denoise*"):
                p.unlink()
            calls.clear()
            assert run(command, cfg_path) == 0
            assert len(calls) == (1 if estimated else 2) * count, (command, estimated)
            written[command, estimated] = denoise_outputs(out)
    for command in ("eval", "denoise"):
        assert written[command, True] == written[command, False], command
    assert any(name.startswith("denoised_") for name in written["denoise", True])
    if case == "gamma-quadrature":  # the unknown image's record is reused with its error
        _, rows = read_csv(out / "psnr.csv")
        assert sum("classified as unknown" in r[5] for r in rows) == 1


@pytest.mark.parametrize("case", ["ardae", "gaussian-pooled"])
def test_denoise_needs_no_clean_image_or_true_noise(tmp_path, case):
    # the blind pipeline on the noisy images alone: the manifest stripped of the true noise and the clean
    # names, the clean files deleted and, for the network, the config without its synth and noise sections
    out, cfg_path = reuse_case(tmp_path, case)
    checkpoint = (out / "checkpoint.npz").read_bytes() if case == "ardae" else None
    written = {}
    for blind in (False, True):
        commands = ("estimate", "denoise")
        if blind:
            manifest = json.loads((out / "manifest.json").read_text())
            images = [{"index": im["index"], "noisy": im["noisy"]} for im in manifest["images"]]
            (out / "manifest.json").write_text(json.dumps({"schema_version": 1, "images": images}))
            for p in [*out.glob("clean_*"), *out.glob("estimate*"), *out.glob("denoise*")]:
                p.unlink()
            if case == "ardae":
                cfg = json.loads(Path(cfg_path).read_text())
                del cfg["synth"], cfg["noise"]
                cfg_path, commands = write_config(tmp_path, cfg, "blind.json"), ("train", *commands)
        for command in commands:
            assert run(command, cfg_path) == 0, (command, blind)
        _, rows = read_csv(out / "estimates.csv")
        written[blind] = denoise_outputs(out), [r[:4] for r in rows], [r[4:] for r in rows]
    assert written[True][:2] == written[False][:2]
    assert any(name.startswith("denoised_") for name in written[True][0]) and not (out / "psnr.csv").exists()
    assert written[True][2] == [["", "", ""]] * len(rows)
    if case == "ardae":
        assert (out / "checkpoint.npz").read_bytes() == checkpoint
    assert run("eval", cfg_path) == 2  # the comparison needs the clean images and the true noise


def _rewrite_one_pixel(out):
    y = load_tensor(out / "noisy_002.f32")
    y[5, 5] += 1e-3
    save_tensor(out / "noisy_002.f32", y)


def _tamper(out, **edit):
    """Every record of the pooled group edited alike, its digest kept."""
    for i in range(4):
        path = out / f"estimate_{i:03d}.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **edit), sort_keys=True))


# one input of the group digest changed after estimate, a record of the pooled group broken, or all of
# them edited with their digest kept: the config or the output directory edited (the seed with --seed)
STALE = {
    "eps": lambda cfg, out: cfg["estimation"].update(eps=2e-5),
    "mask_eps": lambda cfg, out: cfg["estimation"].update(mask_eps=2e-5),
    "seed": lambda cfg, out: None,
    "pooled": lambda cfg, out: cfg["estimation"].update(pooled=False),
    "noisy-tensor": lambda cfg, out: _rewrite_one_pixel(out),
    "prior": lambda cfg, out: cfg["synth"]["prior"].update(stds=[0.005, 0.006]),
    "garbled-record": lambda cfg, out: (out / "estimate_001.json").write_text('{"backend": "oracle-gau'),
    "missing-record": lambda cfg, out: (out / "estimate_003.json").unlink(),
    "tampered-level": lambda cfg, out: _tamper(out, level_value="x"),
    "tampered-class": lambda cfg, out: _tamper(out, rho_hat=2.0),
    "tampered-error": lambda cfg, out: _tamper(out, error="no level"),
}


@pytest.mark.parametrize("change", sorted(STALE))
def test_a_stale_record_is_never_used(synth_run, monkeypatch, change):
    out, cfg_path, tmp_path = synth_run
    assert run("estimate", cfg_path) == 0
    cfg = base_config(out)
    STALE[change](cfg, out)
    extra = ("--seed", "12") if change == "seed" else ()
    cfg_path = write_config(tmp_path, cfg, "changed.json")
    calls = counting_backends(monkeypatch)
    assert run("eval", cfg_path, *extra) == 0
    assert len(calls) == 2 * 4  # estimated afresh
    assert_matches_eval_without_records(out, cfg_path, *extra)


def test_a_record_of_another_checkpoint_is_never_used(tmp_path, monkeypatch):
    out, cfg_path = reuse_case(tmp_path, "ardae")
    assert run("estimate", cfg_path) == 0
    assert run("train", str(tmp_path / "cfg.json"), "--seed", "99") == 0  # the same path, other weights
    calls = counting_backends(monkeypatch)
    assert run("eval", cfg_path) == 0
    assert len(calls) == 2 * 2
    assert_matches_eval_without_records(out, cfg_path)


def test_group_digest_hashes_the_float64_pixels(synth_run, monkeypatch):
    # the loaded float32 images hash as their float64 copies, in any block size, so records written when
    # images loaded as float64 keep their digest
    out, cfg_path, _ = synth_run
    cfg = cli.parse_config(cfg_path)
    images = cli._load_manifest(out, cfg)["images"]
    ys = [cli._load_noisy(out, im) for im in images]
    wide = cli._group_digest(cfg, cfg["denoise"], images, [y.astype(np.float64) for y in ys])
    monkeypatch.setattr(cli, "BLOCK", 999)
    assert [y.dtype for y in ys] == [np.float32] * 4 and cli._group_digest(cfg, cfg["denoise"], images, ys) == wide


def assert_matches_eval_without_records(out, cfg_path, *extra):
    """The psnr.csv just written equals that of an eval with no estimate record to reuse."""
    written = (out / "psnr.csv").read_bytes()
    for p in out.glob("estimate_*.json"):
        p.unlink()
    assert run("eval", cfg_path, *extra) == 0
    assert (out / "psnr.csv").read_bytes() == written


# ---------------------------------------------------------------------------
# train

def train_config(out_dir):
    return {
        "schema_version": 1,
        "seed": 5,
        "out_dir": str(out_dir),
        "synth": {
            "kind": "gmm_iid", "height": 64, "width": 64, "count": 2,
            "prior": {"weights": [0.5, 0.5], "means": [0.3, 0.7], "stds": [0.02, 0.02]},
        },
        "noise": {"model": "gaussian", "level": 25},
        "score_backend": "oracle-gaussian",
        "ardae": {"epochs": 3, "batch_size": 512, "patch_radius": 2, "hidden": [16, 16]},
    }


def test_train_writes_checkpoint_and_loss_curve(tmp_path):
    out = tmp_path / "t"
    cfg_path = write_config(tmp_path, train_config(out))
    assert run("synth", cfg_path) == 0
    assert run("train", cfg_path) == 0
    params, header = load_checkpoint(out / "checkpoint.npz")
    assert header["layer_sizes"] == [25, 16, 16, 1]
    assert header["config"]["epochs"] == 3
    cols, rows = read_csv(out / "loss.csv")
    assert cols == ["epoch", "loss", "running_min", "lr"]
    assert len(rows) == 3
    mins = [float(r[2]) for r in rows]
    assert all(a >= b for a, b in zip(mins, mins[1:]))  # running min is monotone
    assert all(float(r[2]) <= float(r[1]) for r in rows)
    lrs = [float(r[3]) for r in rows]
    assert lrs[0] == 2e-4 and lrs[-1] == 2e-5  # ten-fold drop halfway


def test_seed_override_reaches_training(tmp_path):
    out = tmp_path / "t"
    cfg_path = write_config(tmp_path, train_config(out))
    assert run("synth", cfg_path) == 0
    assert run("train", cfg_path) == 0
    first, _ = load_checkpoint(out / "checkpoint.npz")
    assert run("train", cfg_path, "--seed", "99") == 0
    params, header = load_checkpoint(out / "checkpoint.npz")
    assert header["config"]["seed"] == 99
    assert not np.array_equal(params.weights[0], first.weights[0])


def test_eval_loads_the_checkpoint_once(tmp_path, monkeypatch):
    out = tmp_path / "t"
    cfg = train_config(out)
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    assert run("train", cfg_path) == 0
    loads = []
    real = ardae.load_checkpoint
    monkeypatch.setattr(ardae, "load_checkpoint", lambda path: loads.append(path) or real(path))
    cfg["score_backend"] = f"ardae:{out / 'checkpoint.npz'}"
    assert run("eval", write_config(tmp_path, cfg, "eval.json")) == 0
    assert len(loads) == 1


def test_ardae_fixture_keeps_its_blind_class(tmp_path):
    # the three-epoch network is undertrained and calls this Gaussian data Poisson, float64 and
    # float32 alike: its rho_hat (0.99 to 1.05) differs between the two by at most 0.005
    out = tmp_path / "t"
    cfg = train_config(out)
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    assert run("train", cfg_path) == 0
    cfg["score_backend"] = f"ardae:{out / 'checkpoint.npz'}"
    for pooled in (True, False):
        cfg["estimation"] = {"pooled": pooled}
        assert run("estimate", write_config(tmp_path, cfg, "estimate.json")) == 0
        _, rows = read_csv(out / "estimates.csv")
        assert [r[2] for r in rows] == ["poisson", "poisson"], pooled


def test_train_without_a_two_row_batch_exits_2(tmp_path):
    # without it every step is skipped: nan losses and the untouched initial weights
    out = tmp_path / "t"
    cfg = train_config(out)
    assert run("synth", write_config(tmp_path, cfg)) == 0
    cfg["ardae"]["batch_size"] = 1
    assert run("train", write_config(tmp_path, cfg)) == 2
    cfg = train_config(out)
    cfg["synth"]["count"] = 1
    assert run("synth", write_config(tmp_path, cfg)) == 0
    save_tensor(out / "noisy_000.f32", np.full((1, 1), 0.5, np.float32))  # one training pixel
    assert run("train", write_config(tmp_path, cfg)) == 2
    assert not (out / "checkpoint.npz").exists() and not (out / "loss.csv").exists()


def test_train_zero_epochs_equals_init(tmp_path):
    out = tmp_path / "t0"
    cfg = train_config(out)
    cfg["ardae"]["epochs"] = 0
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    assert run("train", cfg_path) == 0
    params, header = load_checkpoint(out / "checkpoint.npz")
    ref = init_mlp([25, 16, 16, 1], seed=5)
    for a, b in zip(params.weights + params.ema_weights, ref.weights + ref.ema_weights):
        np.testing.assert_array_equal(a, b)
    cols, rows = read_csv(out / "loss.csv")
    assert rows == []


def test_train_divergence_exit_code(tmp_path):
    out = tmp_path / "td"
    cfg = train_config(out)
    cfg["ardae"]["lr"] = 1e30  # the first step overflows the weights
    cfg_path = write_config(tmp_path, cfg)
    assert run("synth", cfg_path) == 0
    # in a fresh interpreter, so stderr is all a user sees: the one-line message and no numpy warning
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "tweedenoise.cli", "train", "--config", cfg_path],
                          capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 4
    assert "diverged at epoch 0: non-finite loss" in done.stderr
    assert "RuntimeWarning" not in done.stderr
