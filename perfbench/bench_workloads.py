"""The benchmark's workloads: JSON configs made from a seed, and the CLI
commands each workload runs, in order.

Why each workload exists, and which layer it stresses or bypasses, is in
README.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# blocky images at two palette levels; the acceptance suite's PALETTE prior
PALETTE = {"weights": [0.2, 0.8], "means": [0.3, 0.9], "stds": [0.005, 0.005]}
# two broad modes, drawn per pixel: a smooth marginal for the score network
BIMODAL = {"weights": [0.5, 0.5], "means": [0.3, 0.7], "stds": [0.08, 0.08]}

OUT_DIR = "out"  # relative to the run's work directory
CHECKPOINT = f"{OUT_DIR}/checkpoint.npz"

# functions every workload must reach in the traced run; estimate.estimate_level
# must also fire whenever some image was classified (see bench_layers.coverage)
COMMON_EXPECTED = (
    "cli.parse_config", "cli.make_backend",
    "simulate.gen_clean", "simulate.sample_noisy", "simulate.save_tensor", "simulate.load_tensor",
    "estimate.perturb", "estimate.estimate_rho",
    "pipeline.denoise_known", "pipeline.posterior_mean_field", "tweedie.denoise_field",
)


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    noise: dict
    backend: str  # a CLI score backend, or "ardae" for the checkpoint that train writes
    pooled: bool
    commands: tuple  # (command, config file name) pairs, run in order
    expected: tuple  # wrapped functions that must fire, besides COMMON_EXPECTED
    ardae: dict | None = None

    @property
    def images(self) -> int:
        return self.synth["count"]

    @property
    def pixels_per_image(self) -> int:
        return self.synth["height"] * self.synth["width"]

    @property
    def setup_config(self) -> str:
        """The config of the last command: the one whose backend is built."""
        return self.commands[-1][1]

    def configs(self, seed: int) -> dict:
        """Config file name -> JSON text, a pure function of ``seed``."""
        base = {
            "schema_version": 1,
            "seed": int(seed),
            "out_dir": OUT_DIR,
            "synth": self.synth,
            "noise": self.noise,
            "score_backend": "oracle-gaussian" if self.backend == "ardae" else self.backend,
            "estimation": {"pooled": self.pooled},
        }
        if self.ardae is not None:
            base["ardae"] = self.ardae
        files = {"run.json": base}
        if self.backend == "ardae":
            files["eval.json"] = dict(base, score_backend=f"ardae:{CHECKPOINT}")
        return {name: json.dumps(cfg, sort_keys=True, indent=1) + "\n" for name, cfg in files.items()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gauss-pooled",
            synth={"kind": "piecewise_constant", "height": 256, "width": 256, "regions": 64,
                   "count": 16, "prior": PALETTE},
            noise={"model": "gaussian", "level": 25},
            backend="oracle-gaussian",
            pooled=True,
            commands=(("synth", "run.json"), ("estimate", "run.json"),
                      ("denoise", "run.json"), ("eval", "run.json")),
            expected=("scores.analytic_score_gaussian",),
        ),
        Workload(
            name="gamma-quad",
            synth={"kind": "piecewise_constant", "height": 256, "width": 256, "regions": 64,
                   "count": 2, "prior": PALETTE},
            noise={"model": "gamma", "level": 50},
            backend="oracle-quadrature",
            pooled=False,
            commands=(("synth", "run.json"), ("estimate", "run.json"), ("eval", "run.json")),
            expected=("scores.numeric_marginal_score",),
        ),
        Workload(
            name="gauss-ardae",
            synth={"kind": "gmm_iid", "height": 128, "width": 128, "regions": 1,
                   "count": 8, "prior": BIMODAL},
            noise={"model": "gaussian", "level": 25},
            backend="ardae",
            pooled=False,
            commands=(("synth", "run.json"), ("train", "run.json"), ("eval", "eval.json")),
            expected=("ardae.train_ardae", "ardae.ardae_loss_and_grad", "ardae.mlp_forward",
                      "ardae.mlp_backward", "ardae.ema_update", "ardae.extract_patches",
                      "ardae.save_checkpoint", "ardae.load_checkpoint", "ardae.eval_score"),
            ardae={"epochs": 1},
        ),
    )
}
