"""Command-line surface: synth | train | estimate | denoise | eval.

Each command is a pure function of (config file, input files): reruns
produce byte-identical outputs.  Wall-clock timings never enter reports;
they go to ``run.log`` only.

Config is a single JSON file, schema-versioned, with unknown keys rejected
at any nesting level.  ``parse_config`` makes every value type the commands
use, once, so a section that its type rejects exits 2 in every command.
Gaussian noise levels are given as sigma on the 0-255 scale (divided by 255
at parse time); Poisson zeta and Gamma k are unit-scale already.

Exit codes: 0 success, 2 malformed config or manifest (NaN, Infinity and
integers beyond the float range too, or a config noise other than the
manifest's) or a noisy pixel that is not finite and positive, 3 estimation
failure (quadrature non-convergence included), 4 training divergence.

``estimate``, ``denoise`` and ``eval`` share one loop over
``pipeline.blind_estimate``: one group of all images with seed ``seed`` when
pooled, else one group per image with seed ``seed + index``; each image gets
its group's ``pipeline.DenoiseReport``.  ``estimate`` writes every index
estimate, also with an ``unknown`` class or a failed level estimate (its
level left empty), and exits 3 when a group has none.  ``denoise`` writes
only the blind output: ``pipeline.denoise_known`` with the estimated model,
on the score at y1 (y itself).  ``eval`` compares it, the true model's output
and the oracle column with the clean images, naming a failed group in its
``error`` column.  Only ``eval`` and the oracle backends need the manifest's
optional true ``model``/``level`` pair and its images' ``clean`` names.

``estimate`` always estimates; its ``estimate_NNN.json`` records carry the
sha256 of everything that decided the group's estimate (``_group_digest``).
``denoise`` and ``eval`` rebuild a group's report from those records when
every image of the group has one with that digest, and then score each image
once, at y1; otherwise they estimate and score it twice.  The digest knows the
code only by the package version: rerun ``estimate`` after changing the library.
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

from . import __version__
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
from .tweedie import EPS_Y, ModelKind, NoiseModel, _check_positive

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


def parse_config(path, seed=None) -> dict:
    """Load and validate a config file into the value types the commands use.

    ``seed`` (``--seed``) replaces the config's, in the seeded objects too:
    ``denoise`` (``DenoiseCfg``) and ``ardae`` (``ArdaeConfig``), set only by an
    ``ardae`` section: only it, an ``ardae:`` backend and ``train`` import ``tweedenoise.ardae``.  A
    ``synth`` section gives ``synth``, a ``SynthSpec`` of seed 0 that
    ``synth`` reseeds per image, and ``count``; a ``noise`` section gives
    ``truth``, the true ``NoiseModel`` (sigma^2 inside), and ``noise_level``.
    ``checkpoint`` is the existing file PATH of ``ardae:PATH``, else None.
    """
    raw = _section(_read_json(Path(path), "config file"), "top level", "seed")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(f"schema_version must be {SCHEMA_VERSION}")
    seed = raw["seed"] if seed is None else seed
    if seed < 0:  # every stream is keyed through SeedSequence, which takes no negative entropy
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")

    cfg = {"seed": seed, "out_dir": raw.get("out_dir", "out")}

    if "synth" in raw:
        synth = _section(raw["synth"], "synth", "prior")
        prior = GmmPrior(**_section(synth["prior"], "synth.prior", "weights", "means", "stds"))
        cfg["synth"] = SynthSpec(synth.get("kind", "gmm_iid"), synth.get("height", 64), synth.get("width", 64),
                                 prior, synth.get("regions", 1))
        cfg["count"] = synth.get("count", 1)
        if cfg["count"] < 1:
            raise ValidationError("synth.count must be >= 1")

    if "noise" in raw:
        noise = _section(raw["noise"], "noise", "model", "level")
        try:
            kind = ModelKind(noise["model"])
        except ValueError as exc:
            raise ValidationError(f"unknown noise model {noise['model']!r}") from exc
        gaussian = kind is ModelKind.GAUSSIAN
        level = float(noise["level"]) / 255.0 if gaussian else float(noise["level"])  # sigma on the 8-bit scale
        NoiseModel(kind, level)  # finite and positive, Gamma k > 1: checked before sigma is squared
        cfg["truth"] = NoiseModel(kind, level * level if gaussian else level)
        cfg["noise_level"] = level  # natural units: sigma | zeta | k, as the manifest has it

    est = _section(raw.get("estimation", {}), "estimation")
    cfg["denoise"] = DenoiseCfg(seed=seed, **{k: float(v) for k, v in est.items() if k != "pooled"})
    cfg["pooled"] = est.get("pooled", False)

    if "ardae" in raw:  # checked in every command; train defaults a missing one
        from .ardae import ArdaeConfig
        ar = _section(raw["ardae"], "ardae")
        cfg["ardae"] = ArdaeConfig(seed=seed, **(dict(ar, hidden=tuple(ar["hidden"])) if "hidden" in ar else ar))

    sb = cfg["score_backend"] = raw.get("score_backend", "oracle-gaussian")
    ckpt = cfg["checkpoint"] = Path(sb.split(":", 1)[1]) if sb.startswith("ardae:") else None
    if ckpt is not None and not ckpt.is_file():
        raise ValidationError(f"checkpoint {ckpt} does not exist")
    if ckpt is None and sb not in _ORACLE_FAMILIES:
        raise ValidationError(f"unknown score backend {sb!r}")
    return cfg


def _image_seed(master: int, index: int, purpose: int) -> int:
    return int(np.random.SeedSequence([master, index, purpose]).generate_state(1)[0])


def _need_truth(cfg, what: str):
    if "synth" not in cfg or "truth" not in cfg:
        raise ValidationError(f"{what} needs the synth and noise config sections")


def make_backend(cfg):
    """Score-field closure y -> ScoreField for the configured backend."""
    if cfg["checkpoint"] is not None:
        from .ardae import eval_score, load_checkpoint
        params, _ = load_checkpoint(cfg["checkpoint"])
        return lambda y: eval_score(params, y)
    sb = cfg["score_backend"]
    _need_truth(cfg, f"score backend {sb}")
    prior, truth = cfg["synth"].prior, cfg["truth"]
    if truth.kind not in _ORACLE_FAMILIES[sb]:
        raise ValidationError(f"score backend {sb} does not fit {truth.kind.value} noise")
    if sb == "oracle-gaussian":
        sigma = cfg["noise_level"]
        return lambda y: analytic_score_gaussian(y, prior, sigma)
    return lambda y: numeric_marginal_score(y, prior, truth)


def _load_manifest(out_dir: Path, cfg):
    """``manifest.json``, checked, its truth also against the config's noise where both have one: the
    level round-trips through JSON, so the same noise has the same level bit for bit."""
    manifest = _section(_read_json(out_dir / "manifest.json", "manifest"), "manifest", "images")
    if not manifest["images"]:
        raise ValidationError("manifest lists no images")
    indices = [_section(im, "manifest image", "index", "noisy")["index"] for im in manifest["images"]]
    if indices != list(range(len(indices))):  # an index is its position: pooled or not, it keys the probe seed
        raise ValidationError(f"manifest image indices must be 0, 1, ..., n-1 in order, got {indices}")
    if ("model" in manifest) != ("level" in manifest):
        raise ValidationError("manifest must give the true model and level together, or neither")
    if "model" not in manifest:
        return manifest
    try:  # a known family, its level in natural units
        NoiseModel(manifest["model"], manifest["level"])
    except ValueError as exc:  # DomainError, or ModelKind's own for an unknown name
        raise ValidationError(f"manifest model {manifest['model']!r} at level {manifest['level']!r}: {exc}") from exc
    if "truth" in cfg and (manifest["model"], manifest["level"]) != (cfg["truth"].kind.value, cfg["noise_level"]):
        raise ValidationError(f"config noise {cfg['truth'].kind.value} at level {cfg['noise_level']!r} is not the "
                              f"manifest's {manifest['model']} at level {manifest['level']!r}")
    return manifest


def _load_noisy(out: Path, im) -> np.ndarray:
    """Manifest image ``im``'s noisy tensor, float64; a pixel not finite and positive exits 2, naming it."""
    return _check_positive(f"noisy tensor {out / im['noisy']}", load_tensor(out / im["noisy"]))


def cmd_synth(cfg) -> int:
    _need_truth(cfg, "synth")
    out = Path(cfg["out_dir"])  # main made it
    images = []
    for i in range(cfg["count"]):
        x = gen_clean(dataclasses.replace(cfg["synth"], seed=_image_seed(cfg["seed"], i, 0)))
        noise_seed = _image_seed(cfg["seed"], i, 1)
        y = sample_noisy(x, cfg["truth"], noise_seed)
        clean_name, noisy_name = f"clean_{i:03d}.f32", f"noisy_{i:03d}.f32"
        save_tensor(out / clean_name, x)
        save_tensor(out / noisy_name, y)
        images.append({"index": i, "clean": clean_name, "noisy": noisy_name, "noise_seed": noise_seed})
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "model": cfg["truth"].kind.value,
        "level": cfg["noise_level"],
        "images": images,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    log.info("synth: wrote %d image pairs to %s", len(images), out)
    return EXIT_OK


def cmd_train(cfg) -> int:
    from .ardae import ArdaeConfig, save_checkpoint, train_ardae
    out = Path(cfg["out_dir"])
    manifest = _load_manifest(out, cfg)
    data = (_load_noisy(out, im) for im in manifest["images"])  # train_ardae keeps each in float32
    ar = cfg.get("ardae") or ArdaeConfig(seed=cfg["seed"])
    params, history = train_ardae(ar, data)
    save_checkpoint(out / "checkpoint.npz", params, ar)
    running = float("inf")
    with open(out / "loss.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["epoch", "loss", "running_min", "lr"])
        for epoch, loss, lr in history:
            running = min(running, loss)
            wr.writerow([epoch, repr(loss), repr(running), repr(lr)])
    log.info("train: %d epochs -> %s", len(history), out / "checkpoint.npz")
    return EXIT_OK


def _group_digest(cfg, group_cfg: DenoiseCfg, group, ys) -> str:
    """sha256 of everything that decides a group's estimate: the package version, the score backend and
    what ``make_backend`` reads for it (the checkpoint's bytes, or the prior and the true noise), pooling,
    the group's DenoiseCfg (eps, mask_eps, probe seed), its image indices and each image's loaded pixels."""
    import hashlib  # here, off the start-up path that every command shares

    sb = cfg["score_backend"]
    h = hashlib.sha256(json.dumps([__version__, sb, cfg["pooled"], dataclasses.astuple(group_cfg),
                                   [im["index"] for im in group], [y.shape for y in ys]]).encode())
    if cfg["checkpoint"] is not None:
        h.update(cfg["checkpoint"].read_bytes())
    else:
        h.update(json.dumps([dataclasses.astuple(cfg["synth"].prior), cfg["truth"].kind.value,
                             cfg["noise_level"]]).encode())
    for y in ys:
        h.update(y)
    return h.hexdigest()


def _recorded(out: Path, group, digest: str):
    """The report of the group's ``estimate_NNN.json`` records, its scores not yet set, when every image
    has one, all are the same text, ``DenoiseReport.from_json`` takes it and it carries ``digest``; else None."""
    try:
        texts = {(out / f"estimate_{im['index']:03d}.json").read_text() for im in group}
        report = DenoiseReport.from_json(texts.pop()) if len(texts) == 1 else None
    except (OSError, ValueError, KeyError, TypeError):  # missing, not text, not JSON or not a record
        return None
    return report if report and report.inputs == digest else None


def _blind_images(cfg, out: Path, images, backend, reuse=False):
    """(manifest image, y, score at y1, the group's DenoiseReport) per image,
    in manifest order; a failed group's report names the failure in ``error``.

    A pooled run estimates once over all images with seed ``seed``; a
    per-image run estimates each image alone with seed ``seed + index``.  A
    group's noisy tensors are loaded when the loop reaches it; each is its
    probe's y1, never copied.  The loop drops them and their scores before it
    scores the next group, and callers drop what they were handed too.

    Each report carries the group's digest as ``inputs``.  With ``reuse``, a
    group whose records ``estimate`` wrote for the same digest takes its
    report from them and is scored at y1 only; any other group is estimated.
    """
    dn = cfg["denoise"]
    if cfg["pooled"]:
        groups = [(dn, images)]
    else:
        groups = [(dataclasses.replace(dn, seed=dn.seed + im["index"]), [im]) for im in images]
    for group_cfg, group in groups:
        ys = [_load_noisy(out, im) for im in group]
        digest = _group_digest(cfg, group_cfg, group, ys)
        report = _recorded(out, group, digest) if reuse else None
        if report is not None:
            report.y1_scores = [backend(y) for y in ys]
        else:
            try:
                me, le, pairs, f1 = blind_estimate(ys, backend, group_cfg)
                report = DenoiseReport(f1[0].backend, me, le, y1_scores=f1, seed=group_cfg.seed)
                del pairs, f1  # frees y2 before the next group is scored
            except EstimationFailure as exc:
                report = exc.report
            report.inputs = digest
        for im, y, s1 in zip(group, ys, report.y1_scores):
            yield im, y, s1, report
        del ys, report, y, s1


def cmd_estimate(cfg) -> int:
    out = Path(cfg["out_dir"])
    manifest = _load_manifest(out, cfg)
    truth_kind, truth_level = manifest.get("model"), manifest.get("level")
    rows = []
    for im, _, _, report in _blind_images(cfg, out, manifest["images"], make_backend(cfg)):
        me, level = report.model_estimate, report.level
        if me is None:  # no index estimate, e.g. an empty mask
            raise EstimationFailure(report.error)
        (out / f"estimate_{im['index']:03d}.json").write_text(report.to_json())
        truth = [truth_kind, repr(truth_level), int(me.classified == truth_kind)] if truth_kind else [""] * 3
        rows.append([im["index"], repr(me.rho_hat), me.classified, "" if level is None else repr(level), *truth])
        del _, report  # the group's scores, freed before the next group is scored
    with open(out / "estimates.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["image", "rho_hat", "model", "level", "truth_model", "truth_level", "correct"])
        wr.writerows(rows)
    if truth_kind:
        log.info("estimate: accuracy %.3f over %d images", float(np.mean([r[-1] for r in rows])), len(rows))
    return EXIT_OK


def cmd_denoise(cfg) -> int:
    out = Path(cfg["out_dir"])
    manifest = _load_manifest(out, cfg)
    for im, y, s1, report in _blind_images(cfg, out, manifest["images"], make_backend(cfg), reuse=True):
        if report.error:
            log.warning("image %s blind path failed: %s", im["index"], report.error)
        else:
            save_tensor(out / f"denoised_{im['index']:03d}.f32", denoise_known(y, report.noise_model, lambda _: s1))
            (out / f"denoise_{im['index']:03d}.json").write_text(report.to_json())
        del s1, report  # the group's scores, freed before the next group is scored
    log.info("denoise: wrote the denoised images to %s", out)
    return EXIT_OK


def cmd_eval(cfg) -> int:
    out = Path(cfg["out_dir"])
    manifest = _load_manifest(out, cfg)
    _need_truth(cfg, "eval")
    unpaired = [im["index"] for im in manifest["images"] if "clean" not in im]
    if unpaired:
        raise ValidationError(f"eval needs each image's clean tensor; manifest image(s) {unpaired} name none")
    truth = cfg["truth"]
    rows = []
    for im, y, s1, report in _blind_images(cfg, out, manifest["images"], make_backend(cfg), reuse=True):
        x = load_tensor(out / im["clean"])
        row = {"image": im["index"], "noisy": psnr(x, y), "blind": float("nan"), "error": report.error}
        if report.error:
            log.warning("image %s blind path failed: %s", im["index"], report.error)
        else:
            row["blind"] = psnr(x, denoise_known(y, report.noise_model, lambda _: s1))
        row["known"] = psnr(x, denoise_known(y, truth, lambda _: s1))
        oracle = posterior_mean_field(y, cfg["synth"].prior, truth)
        row["oracle"] = psnr(x, np.clip(oracle, EPS_Y, 1.0, out=oracle))
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
    log.info("eval: wrote %s", out / "psnr.csv")
    return EXIT_OK


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
        cfg = parse_config(args.config, args.seed)
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
