"""Command-line surface: synth | train | estimate | denoise | eval.

Each command is a pure function of (config file, input files): reruns
produce byte-identical outputs.  Wall-clock timings never enter reports;
they go to ``run.log`` only.

Config is a single JSON file, schema-versioned, with unknown keys rejected
at any nesting level.  Gaussian noise levels are given as sigma on the
0-255 scale (divided by 255 at parse time); Poisson zeta and Gamma k are
unit-scale already.

Exit codes: 0 success, 2 malformed config or manifest (NaN, Infinity and
integers beyond the float range too), 3 estimation failure (quadrature non-convergence included), 4
training divergence.

``estimate``, ``denoise`` and ``eval`` share one loop over
``pipeline.blind_estimate``: one group of all images with seed ``seed`` when
pooled, else one group per image with seed ``seed + index``; each image gets
its group's ``pipeline.DenoiseReport``.  ``estimate`` writes every index
estimate, also with an ``unknown`` class or a failed level estimate (its
level left empty), and exits 3 when a group has none; ``denoise``/``eval``
record a group's ``error`` in the column of that name and exit 0.  Their
blind and known-level columns both apply ``pipeline.denoise_known``, with
the estimated and the true model, to the score at y1 (y itself), so each
image is scored twice.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .ardae import ArdaeConfig, eval_score, load_checkpoint, save_checkpoint, train_ardae
from .errors import (
    DomainError,
    EstimationFailure,
    TrainingDivergence,
    TweedenoiseError,
    ValidationError,
)
from .pipeline import (
    DenoiseCfg,
    DenoiseReport,
    blind_estimate,
    denoise_known,
    posterior_mean_field,
)
from .scores import analytic_score_gaussian, numeric_marginal_score
from .simulate import (
    GmmPrior,
    SynthSpec,
    gen_clean,
    load_tensor,
    psnr,
    sample_noisy,
    save_tensor,
)
from .tweedie import EPS_Y, ModelKind, NoiseModel

log = logging.getLogger("tweedenoise")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3
EXIT_DIVERGENCE = 4

_NUMBER = (int, float)
# the accepted types of each key of the config and manifest objects; [t] is a list of t
_SCHEMA = {
    "top level": {
        "schema_version": int, "seed": int, "out_dir": str, "synth": dict, "noise": dict,
        "score_backend": str, "ardae": dict, "estimation": dict,
    },
    "synth": {"kind": str, "height": int, "width": int, "regions": int, "count": int, "prior": dict},
    "synth.prior": {"weights": [_NUMBER], "means": [_NUMBER], "stds": [_NUMBER]},
    "noise": {"model": str, "level": _NUMBER},
    "estimation": {"eps": _NUMBER, "mask_eps": _NUMBER, "pooled": bool},  # DenoiseCfg's but seed, and pooled
    "ardae": {  # the ArdaeConfig fields but its seed
        "sigma_a_max": _NUMBER, "sigma_a_min": _NUMBER, "schedule_len": int, "ema_decay": _NUMBER,
        "epochs": int, "batch_size": int, "lr": _NUMBER, "patch_radius": int, "hidden": [int],
    },
    "manifest": {"schema_version": int, "model": str, "level": _NUMBER, "images": [dict]},
    "manifest image": {"index": int, "clean": str, "noisy": str, "noise_seed": int},
}
# the noise families each oracle score backend is exact for
_ORACLE_FAMILIES = {
    "oracle-gaussian": (ModelKind.GAUSSIAN,),
    "oracle-quadrature": (ModelKind.POISSON, ModelKind.GAMMA),
}


def _is(value, types) -> bool:
    """isinstance, with [t] meaning a list of t; a JSON boolean is only ever a bool."""
    if isinstance(types, list):
        return isinstance(value, list) and all(_is(v, types[0]) for v in value)
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def _finite(x) -> bool:
    """``x`` converts to a finite float; a JSON integer may be too large to."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _section(d, where: str, *required: str) -> dict:
    """``d`` checked as the config object ``where`` of _SCHEMA: unknown keys,
    mistyped values, numbers that are no finite float and missing
    ``required`` keys are rejected."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be an object")
    schema = _SCHEMA[where]
    extra = set(d) - set(schema)
    if extra:
        raise ValidationError(f"unknown key(s) {sorted(extra)} in {where}")
    for key, value in d.items():
        if not _is(value, schema[key]):
            raise ValidationError(f"{where}.{key} has the wrong type: {value!r}")
        numbers = value if schema[key] == [_NUMBER] else [value] if schema[key] == _NUMBER else []
        if not all(map(_finite, numbers)):
            raise ValidationError(f"{where}.{key} must be a finite number")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValidationError(f"{where} lacks the required key(s) {missing}")
    return d


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _read_json(path: Path, what: str) -> dict:
    if not path.is_file():
        raise ValidationError(f"{what} {path} does not exist")
    try:
        raw = json.loads(path.read_text(), parse_constant=_reject_constant)
    except ValueError as exc:  # malformed JSON, NaN or Infinity, or not text at all
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return raw


def parse_config(path) -> dict:
    """Load, validate and normalize a config file.

    The seeded objects (``DenoiseCfg``, ``ArdaeConfig``) are built by the
    commands from ``cfg["seed"]``, so that ``--seed`` reaches all of them.
    """
    raw = _section(_read_json(Path(path), "config file"), "top level", "seed")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(f"schema_version must be {SCHEMA_VERSION}")

    cfg = {"seed": raw["seed"], "out_dir": raw.get("out_dir", "out")}

    if "synth" in raw:
        synth = _section(raw["synth"], "synth", "prior")
        cfg["prior"] = GmmPrior.from_dict(_section(synth["prior"], "synth.prior", "weights", "means", "stds"))
        cfg["synth"] = {
            "kind": synth.get("kind", "gmm_iid"),
            "height": synth.get("height", 64),
            "width": synth.get("width", 64),
            "regions": synth.get("regions", 1),
            "count": synth.get("count", 1),
        }
        if cfg["synth"]["count"] < 1:
            raise ValidationError("synth.count must be >= 1")

    if "noise" in raw:
        noise = _section(raw["noise"], "noise", "model", "level")
        try:
            kind = ModelKind(noise["model"])
        except ValueError as exc:
            raise ValidationError(f"unknown noise model {noise['model']!r}") from exc
        level = float(noise["level"])
        if kind is ModelKind.GAUSSIAN:
            level = level / 255.0  # sigma given on the 8-bit scale
        NoiseModel(kind, level)  # finite and positive, Gamma k > 1
        cfg["noise_kind"] = kind
        cfg["noise_level"] = level  # natural units: sigma | zeta | k

    est = _section(raw.get("estimation", {}), "estimation")
    cfg["estimation"] = {k: float(v) for k, v in est.items() if k != "pooled"}
    DenoiseCfg(**cfg["estimation"])
    cfg["pooled"] = est.get("pooled", False)

    ar = _section(raw.get("ardae", {}), "ardae")
    cfg["ardae"] = dict(ar, hidden=tuple(ar["hidden"])) if "hidden" in ar else ar
    ArdaeConfig(**cfg["ardae"])

    sb = cfg["score_backend"] = raw.get("score_backend", "oracle-gaussian")
    if sb.startswith("ardae:"):
        ckpt = Path(sb.split(":", 1)[1])
        if not ckpt.is_file():
            raise ValidationError(f"checkpoint {ckpt} does not exist")
    elif sb not in _ORACLE_FAMILIES:
        raise ValidationError(f"unknown score backend {sb!r}")
    return cfg


def _image_seed(master: int, index: int, purpose: int) -> int:
    return int(np.random.SeedSequence([master, index, purpose]).generate_state(1)[0])


def _true_model(cfg) -> NoiseModel:
    kind, level = cfg["noise_kind"], cfg["noise_level"]
    if kind is ModelKind.GAUSSIAN:
        return NoiseModel(kind, level * level)  # store sigma^2 internally
    return NoiseModel(kind, level)


def _need_truth(cfg, what: str):
    if "prior" not in cfg or "noise_kind" not in cfg:
        raise ValidationError(f"{what} needs the synth and noise config sections")


def make_backend(cfg):
    """Score-field closure y -> ScoreField for the configured backend."""
    sb = cfg["score_backend"]
    if sb.startswith("ardae:"):
        params, _ = load_checkpoint(sb.split(":", 1)[1])
        return lambda y: eval_score(params, y)
    _need_truth(cfg, f"score backend {sb}")
    if cfg["noise_kind"] not in _ORACLE_FAMILIES[sb]:
        raise ValidationError(f"score backend {sb} does not fit {cfg['noise_kind'].value} noise")
    prior = cfg["prior"]
    if sb == "oracle-gaussian":
        sigma = cfg["noise_level"]
        return lambda y: analytic_score_gaussian(y, prior, sigma)
    model = _true_model(cfg)
    return lambda y: numeric_marginal_score(y, prior, model)


def _load_manifest(out_dir: Path):
    manifest = _section(_read_json(out_dir / "manifest.json", "manifest"), "manifest", "model", "level", "images")
    if not manifest["images"]:
        raise ValidationError("manifest lists no images")
    indices = [_section(im, "manifest image", "index", "clean", "noisy")["index"] for im in manifest["images"]]
    if indices != list(range(len(indices))):  # an index is its position: pooled or not, it keys the probe seed
        raise ValidationError(f"manifest image indices must be 0, 1, ..., n-1 in order, got {indices}")
    try:  # a known family, its level in natural units
        NoiseModel(manifest["model"], manifest["level"])
    except ValueError as exc:  # DomainError, or ModelKind's own for an unknown name
        raise ValidationError(f"manifest model {manifest['model']!r} at level {manifest['level']!r}: {exc}") from exc
    return manifest


def cmd_synth(cfg) -> int:
    _need_truth(cfg, "synth")
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    sp, model = cfg["synth"], _true_model(cfg)
    images = []
    for i in range(sp["count"]):
        spec = SynthSpec(
            kind=sp["kind"], height=sp["height"], width=sp["width"],
            prior=cfg["prior"], regions=sp["regions"],
            seed=_image_seed(cfg["seed"], i, 0),
        )
        x = gen_clean(spec)
        noise_seed = _image_seed(cfg["seed"], i, 1)
        y = sample_noisy(x, model, noise_seed)
        clean_name, noisy_name = f"clean_{i:03d}.f32", f"noisy_{i:03d}.f32"
        save_tensor(out / clean_name, x)
        save_tensor(out / noisy_name, y)
        images.append({"index": i, "clean": clean_name, "noisy": noisy_name, "noise_seed": noise_seed})
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "model": cfg["noise_kind"].value,
        "level": cfg["noise_level"],
        "images": images,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    log.info("synth: wrote %d image pairs to %s", len(images), out)
    return EXIT_OK


def cmd_train(cfg) -> int:
    out = Path(cfg["out_dir"])
    manifest = _load_manifest(out)
    data = [load_tensor(out / im["noisy"]) for im in manifest["images"]]
    config = ArdaeConfig(seed=cfg["seed"], **cfg["ardae"])
    params, history = train_ardae(config, data)
    save_checkpoint(out / "checkpoint.npz", params, config)
    running = float("inf")
    with open(out / "loss.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["epoch", "loss", "running_min", "lr"])
        for epoch, loss, lr in history:
            running = min(running, loss)
            wr.writerow([epoch, repr(loss), repr(running), repr(lr)])
    log.info("train: %d epochs -> %s", len(history), out / "checkpoint.npz")
    return EXIT_OK


def _blind_images(cfg, out: Path, images, backend):
    """(manifest image, y, score at y1, the group's DenoiseReport) per image,
    in manifest order; a failed group's report names the failure in ``error``.

    A pooled run estimates once over all images with seed ``seed``; a
    per-image run estimates each image alone with seed ``seed + index``.  A
    group's noisy tensors are loaded when the loop reaches it; each is its
    probe's y1, never copied.  The loop drops them and their scores before it
    scores the next group, and callers drop what they were handed too.
    """
    dn = DenoiseCfg(seed=cfg["seed"], **cfg["estimation"])
    if cfg["pooled"]:
        groups = [(dn, images)]
    else:
        groups = [(dataclasses.replace(dn, seed=dn.seed + im["index"]), [im]) for im in images]
    for group_cfg, group in groups:
        ys = [load_tensor(out / im["noisy"]) for im in group]
        try:
            me, le, pairs, f1 = blind_estimate(ys, backend, group_cfg)
            report = DenoiseReport(f1[0].backend, me, le, y1_scores=f1, seed=group_cfg.seed)
            del pairs, f1  # frees y2 before the next group is scored
        except EstimationFailure as exc:
            report = exc.report
        for im, y, s1 in zip(group, ys, report.y1_scores):
            yield im, y, s1, report
        del ys, report, y, s1


def cmd_estimate(cfg) -> int:
    out = Path(cfg["out_dir"])
    manifest = _load_manifest(out)
    truth_kind, truth_level = manifest["model"], manifest["level"]
    rows = []
    for im, _, _, report in _blind_images(cfg, out, manifest["images"], make_backend(cfg)):
        me, level = report.model_estimate, report.level
        if me is None:  # no index estimate, e.g. an empty mask
            raise EstimationFailure(report.error)
        (out / f"estimate_{im['index']:03d}.json").write_text(report.to_json())
        rows.append(
            [im["index"], repr(me.rho_hat), me.classified, "" if level is None else repr(level),
             truth_kind, repr(truth_level), int(me.classified == truth_kind)]
        )
        del _, report  # the group's scores, freed before the next group is scored
    with open(out / "estimates.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["image", "rho_hat", "model", "level", "truth_model", "truth_level", "correct"])
        wr.writerows(rows)
    acc = float(np.mean([r[-1] for r in rows]))
    log.info("estimate: accuracy %.3f over %d images", acc, len(rows))
    return EXIT_OK


def _denoise_batch(cfg, save_tensors: bool) -> int:
    out = Path(cfg["out_dir"])
    manifest = _load_manifest(out)
    _need_truth(cfg, "denoise/eval")
    truth = _true_model(cfg)
    rows = []
    for im, y, s1, report in _blind_images(cfg, out, manifest["images"], make_backend(cfg)):
        x = load_tensor(out / im["clean"])
        row = {"image": im["index"], "noisy": psnr(x, y), "blind": float("nan"), "error": report.error}
        if report.error:
            log.warning("image %s blind path failed: %s", im["index"], report.error)
        else:
            estimated = NoiseModel(report.model_estimate.classified, report.level_estimate.value)
            xb = denoise_known(y, estimated, lambda _: s1)
            row["blind"] = psnr(x, xb)
            if save_tensors:
                save_tensor(out / f"denoised_{im['index']:03d}.f32", xb)
                (out / f"denoise_{im['index']:03d}.json").write_text(report.to_json())
        row["known"] = psnr(x, denoise_known(y, truth, lambda _: s1))
        row["oracle"] = psnr(x, np.clip(posterior_mean_field(y, cfg["prior"], truth), EPS_Y, 1.0))
        rows.append(row)
        del s1, report  # the group's scores, freed before the next group is scored

    with open(out / "psnr.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["image", "psnr_noisy", "blind", "known_level", "oracle_posterior", "error"])
        columns = ("noisy", "blind", "known", "oracle")
        for r in rows:
            wr.writerow([r["image"], *(repr(r[c]) for c in columns), r["error"]])
        ok = [r for r in rows if not np.isnan(r["blind"])]
        if ok:
            wr.writerow(["mean", *(repr(float(np.mean([r[c] for r in ok]))) for c in columns), ""])
    log.info("denoise: wrote %s", out / "psnr.csv")
    return EXIT_OK


def cmd_denoise(cfg) -> int:
    return _denoise_batch(cfg, save_tensors=True)


def cmd_eval(cfg) -> int:
    return _denoise_batch(cfg, save_tensors=False)


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "estimate": cmd_estimate,
    "denoise": cmd_denoise,
    "eval": cmd_eval,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tweedenoise", description=__doc__)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="path to the JSON config")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument("--out", default=None, help="override the output directory")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if cfg["seed"] < 0:  # every stream is keyed through SeedSequence, which takes no negative entropy
            raise ValidationError(f"seed must be a non-negative integer, got {cfg['seed']}")
        if args.out is not None:
            cfg["out_dir"] = args.out
        out = Path(cfg["out_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. out_dir names an existing file
            raise ValidationError(f"out_dir {out} cannot be a directory: {exc}") from exc
        logging.basicConfig(
            level=logging.INFO,
            format="%(asctime)s %(levelname)s %(message)s",
            handlers=[logging.FileHandler(out / "run.log"), logging.StreamHandler(sys.stderr)],
            force=True,
        )
        return COMMANDS[args.command](cfg)
    except (ValidationError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TrainingDivergence as exc:
        print(f"training divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except TweedenoiseError as exc:  # EstimationFailure, QuadratureError, SingularEstimateError
        print(f"estimation failure: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
