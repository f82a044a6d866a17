"""Per-layer metrics from the spans of a traced run (module name = layer).

``PROBES`` read counts from a wrapped call's arguments and result;
``layer_metrics`` turns the spans of one traced pass over a workload into
the metrics listed in ``METRICS``.  Metrics whose layer a workload bypasses
read 0.  Names ending in ``_computed`` are derived from array shapes, not
timed or counted.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import numpy as np

from bench_trace import self_times
from bench_workloads import COMMON_EXPECTED

MIB = float(1 << 20)
COMMANDS = ("synth", "estimate", "denoise", "eval", "train")

# name -> (unit, better)
METRICS = {
    "scores.calls": ("count", "lower"),
    "scores.calls_per_image": ("count", "lower"),
    "scores.pixels": ("count", "lower"),
    "scores.busy_s": ("s", "lower"),
    "scores.s_per_mpix": ("s/Mpix", "lower"),
    "scores.peak_alloc_mb": ("MiB", "lower"),
    "scores.quad_array_mb_computed": ("MiB", "lower"),
    "pipeline.oracle_s": ("s", "lower"),
    "pipeline.oracle_pixels": ("count", "lower"),
    "pipeline.oracle_peak_alloc_mb": ("MiB", "lower"),
    "pipeline.denoise_known_self_s": ("s", "lower"),
    "estimate.perturb_s": ("s", "lower"),
    "estimate.rho_calls": ("count", "lower"),
    "estimate.rho_pixels": ("count", "lower"),
    "estimate.rho_s": ("s", "lower"),
    "estimate.level_s": ("s", "lower"),
    "estimate.mask_fraction": ("frac", "higher"),
    "estimate.level_keep_frac": ("frac", "higher"),
    "estimate.nonfinite_root_frac": ("frac", "lower"),
    "estimate.unknown_frac": ("frac", "lower"),
    "ardae.steps": ("count", "lower"),
    "ardae.step_s": ("s", "lower"),
    "ardae.forward_s": ("s", "lower"),
    "ardae.backward_s": ("s", "lower"),
    "ardae.ema_s": ("s", "lower"),
    "ardae.train_self_s": ("s", "lower"),
    "ardae.gflops": ("GFLOP/s", "higher"),
    "ardae.gflop_per_step_computed": ("GFLOP", "lower"),
    "ardae.patch_matrix_mb_computed": ("MiB", "lower"),
    "ardae.checkpoint_loads": ("count", "lower"),
    "ardae.checkpoint_io_s": ("s", "lower"),
    "ardae.infer_calls": ("count", "lower"),
    "ardae.infer_s": ("s", "lower"),
    "cli.make_backend_calls": ("count", "lower"),
    "cli.make_backend_s": ("s", "lower"),
    "cli.parse_config_s": ("s", "lower"),
    **{f"cli.{c}_s": ("s", "lower") for c in COMMANDS},
    "simulate.gen_clean_s": ("s", "lower"),
    "simulate.sample_noisy_s": ("s", "lower"),
    "simulate.save_tensor_s": ("s", "lower"),
    "simulate.save_tensor_bytes": ("bytes", "lower"),
    "simulate.load_tensor_s": ("s", "lower"),
    "simulate.load_tensor_calls": ("count", "lower"),
    "simulate.load_tensor_bytes": ("bytes", "lower"),
    "tweedie.denoise_field_s": ("s", "lower"),
    "tweedie.singular_frac": ("frac", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}

# wrapped calls that also record their tracemalloc peak
MEASURE_ALLOC = frozenset(
    {"scores.analytic_score_gaussian", "scores.numeric_marginal_score", "pipeline.posterior_mean_field"}
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pixels_of(index, name):
    return lambda a, k, r: {"pixels": int(np.size(_arg(a, k, index, name)))}


def _rho_probe(a, k, r):
    n = int(_arg(a, k, 0, "pair").y1.size)
    return {"pixels": n, "masked": r.mask_fraction * n, "nonfinite": r.n_nonfinite,
            "unknown": int(r.classified == "unknown")}


def _level_probe(a, k, r):
    return {"pixels": int(_arg(a, k, 1, "pair").y1.size), "kept": r.pixel_count}


def _step_probe(a, k, r):
    sizes = _arg(a, k, 0, "params").layer_sizes
    rows = int(np.shape(_arg(a, k, 1, "batch"))[0])
    macs = [i * o for i, o in zip(sizes[:-1], sizes[1:])]
    # forward GEMMs, weight-gradient GEMMs, and delta propagation below the head
    return {"flops": 2 * rows * (2 * sum(macs) + sum(macs[1:]))}


PROBES = {
    "scores.analytic_score_gaussian": _pixels_of(0, "y"),
    "scores.numeric_marginal_score": _pixels_of(0, "y"),
    "pipeline.posterior_mean_field": _pixels_of(0, "y"),
    "ardae.eval_score": _pixels_of(1, "y"),
    "estimate.estimate_rho": _rho_probe,
    "estimate.estimate_level": _level_probe,
    "ardae.ardae_loss_and_grad": _step_probe,
    "ardae.extract_patches": lambda a, k, r: {"bytes": int(r.nbytes)},
    "tweedie.denoise_field": lambda a, k, r: {"pixels": int(np.size(_arg(a, k, 0, "y"))),
                                              "singular": int(r[1])},
    "simulate.save_tensor": lambda a, k, r: {"bytes": Path(_arg(a, k, 0, "path")).stat().st_size},
    "simulate.load_tensor": lambda a, k, r: {"bytes": int(r.size) * 4},
}


SCORES = ("scores.analytic_score_gaussian", "scores.numeric_marginal_score")


class SpanIndex:
    """Spans grouped by name, each tagged with the command it ran under
    (the name of its root span, "command.<name>")."""

    def __init__(self, spans):
        self.command = {}
        self.by_name = defaultdict(list)
        for s in spans:  # parents are recorded before their children
            self.command[s.sid] = s.name.partition(".")[2] if s.parent is None else self.command[s.parent]
            self.by_name[s.name].append(s)

    def select(self, names, command=None):
        names = (names,) if isinstance(names, str) else names
        return [s for n in names for s in self.by_name[n] if command in (None, self.command[s.sid])]

    def busy(self, names, command=None):
        return sum(s.duration for s in self.select(names, command))

    def calls(self, names, command=None):
        return len(self.select(names, command))

    def total(self, names, key, command=None):
        return sum(s.info.get(key, 0) for s in self.select(names, command))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, workload, quad_nodes_per_component: int) -> dict:
    """Metric name -> value for the spans of one traced pass."""
    ix = SpanIndex(spans)
    busy, calls, total = ix.busy, ix.calls, ix.total
    own = self_times(spans)

    def peak(names):
        return max((s.info.get("peak_alloc_bytes", 0) for s in ix.select(names)), default=0) / MIB

    score_pixels = total(SCORES, "pixels")
    score_busy = busy(SCORES)
    quad_pixels = max((s.info["pixels"] for s in ix.select("scores.numeric_marginal_score")), default=0)
    components = len(workload.synth["prior"]["weights"])
    rho_pixels = total("estimate.estimate_rho", "pixels")
    steps = calls("ardae.ardae_loss_and_grad", "train")
    fwd, bwd = busy("ardae.mlp_forward", "train"), busy("ardae.mlp_backward", "train")
    flops = total("ardae.ardae_loss_and_grad", "flops", "train")
    train_loop = busy("ardae.train_ardae") - busy(("ardae.extract_patches", "ardae.init_mlp"), "train")
    return {
        "scores.calls": calls(SCORES),
        "scores.calls_per_image": calls(SCORES, "eval") / workload.images,
        "scores.pixels": score_pixels,
        "scores.busy_s": score_busy,
        "scores.s_per_mpix": _ratio(score_busy, score_pixels / 1e6),
        "scores.peak_alloc_mb": peak(SCORES),
        "scores.quad_array_mb_computed": quad_pixels * components * quad_nodes_per_component * 8 / MIB,
        "pipeline.oracle_s": busy("pipeline.posterior_mean_field"),
        "pipeline.oracle_pixels": total("pipeline.posterior_mean_field", "pixels"),
        "pipeline.oracle_peak_alloc_mb": peak("pipeline.posterior_mean_field"),
        "pipeline.denoise_known_self_s": sum(own[s.sid] for s in ix.select("pipeline.denoise_known")),
        "estimate.perturb_s": busy("estimate.perturb"),
        "estimate.rho_calls": calls("estimate.estimate_rho"),
        "estimate.rho_pixels": rho_pixels,
        "estimate.rho_s": busy("estimate.estimate_rho"),
        "estimate.level_s": busy("estimate.estimate_level"),
        "estimate.mask_fraction": _ratio(total("estimate.estimate_rho", "masked"), rho_pixels),
        "estimate.level_keep_frac": _ratio(total("estimate.estimate_level", "kept"),
                                           total("estimate.estimate_level", "pixels")),
        "estimate.nonfinite_root_frac": _ratio(total("estimate.estimate_rho", "nonfinite"), 2 * rho_pixels),
        "estimate.unknown_frac": _ratio(total("estimate.estimate_rho", "unknown"),
                                        calls("estimate.estimate_rho")),
        "ardae.steps": steps,
        "ardae.step_s": _ratio(train_loop, steps),
        "ardae.forward_s": fwd,
        "ardae.backward_s": bwd,
        "ardae.ema_s": busy("ardae.ema_update"),
        "ardae.train_self_s": sum(own[s.sid] for s in ix.select("ardae.train_ardae")),
        "ardae.gflops": _ratio(flops / 1e9, fwd + bwd),
        "ardae.gflop_per_step_computed": _ratio(flops / 1e9, steps),
        "ardae.patch_matrix_mb_computed": total("ardae.extract_patches", "bytes", "train") / MIB,
        "ardae.checkpoint_loads": calls("ardae.load_checkpoint"),
        "ardae.checkpoint_io_s": busy("ardae.load_checkpoint") + busy("ardae.save_checkpoint"),
        "ardae.infer_calls": calls("ardae.eval_score"),
        "ardae.infer_s": busy("ardae.eval_score"),
        "cli.make_backend_calls": calls("cli.make_backend"),
        "cli.make_backend_s": busy("cli.make_backend"),
        "cli.parse_config_s": busy("cli.parse_config"),
        **{f"cli.{c}_s": busy(f"command.{c}") for c in COMMANDS},
        "simulate.gen_clean_s": busy("simulate.gen_clean"),
        "simulate.sample_noisy_s": busy("simulate.sample_noisy"),
        "simulate.save_tensor_s": busy("simulate.save_tensor"),
        "simulate.save_tensor_bytes": total("simulate.save_tensor", "bytes"),
        "simulate.load_tensor_s": busy("simulate.load_tensor"),
        "simulate.load_tensor_calls": calls("simulate.load_tensor"),
        "simulate.load_tensor_bytes": total("simulate.load_tensor", "bytes"),
        "tweedie.denoise_field_s": busy("tweedie.denoise_field"),
        "tweedie.singular_frac": _ratio(total("tweedie.denoise_field", "singular"),
                                        total("tweedie.denoise_field", "pixels")),
    }


# counts that repeat exactly, per command, for later changes to cite
COUNTED = {
    "scores.calls": SCORES,
    "ardae.infer_calls": ("ardae.eval_score",),
    "cli.make_backend_calls": ("cli.make_backend",),
    "ardae.checkpoint_loads": ("ardae.load_checkpoint",),
    "estimate.rho_calls": ("estimate.estimate_rho",),
}


def known_shares(spans) -> dict:
    """Share of each command's traced time taken by the layer that dominates
    it on its workload; None where the command does not run."""
    ix = SpanIndex(spans)

    def share(names, command, minus=()):
        whole = ix.busy(f"command.{command}")
        return (ix.busy(names, command) - ix.busy(minus, command)) / whole if whole else None

    return {
        "estimate.rho_s+level_s / cli.estimate_s": share(
            ("estimate.estimate_rho", "estimate.estimate_level"), "estimate"),
        "scores.busy_s+pipeline.oracle_s / cli.eval_s": share((*SCORES, "pipeline.posterior_mean_field"), "eval"),
        "ardae.step_s*ardae.steps / cli.train_s": share(
            "ardae.train_ardae", "train", minus=("ardae.extract_patches", "ardae.init_mlp")),
    }


def counts_by_command(spans) -> dict:
    """command -> {count name -> value}, plus estimate.rho_pixels."""
    ix = SpanIndex(spans)
    out = {}
    for c in dict.fromkeys(ix.command[s.sid] for s in spans if s.parent is None):
        out[c] = {k: ix.calls(names, c) for k, names in COUNTED.items()}
        out[c]["estimate.rho_pixels"] = ix.total("estimate.estimate_rho", "pixels", c)
    return out


def coverage(spans, workload) -> list:
    """Expected wrapped functions that never fired on this workload."""
    fired = {s.name for s in spans}
    expected = set(COMMON_EXPECTED) | set(workload.expected)
    if any(s.info.get("unknown") == 0 for s in spans if s.name == "estimate.estimate_rho"):
        expected.add("estimate.estimate_level")  # some image was classified
    return sorted(expected - fired)
