"""Benchmark of the tweedenoise CLI: fixed workloads, end-to-end and per-layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gauss-pooled --seed 1 --seconds 20 --trace 0

The workload's configs are made from ``--seed``.  With ``--trace 0`` each
command runs as a child process (``python -m tweedenoise.cli <command>
--config ...``), one after another, in passes over the workload until
``--seconds`` have gone by; the end-to-end metrics are medians over passes.
With ``--trace 1`` the same commands also run in this process through
``cli.main``, once plainly and once with every public library function
wrapped in a span recorder, and the per-layer metrics come from those spans.

Both modes check the outputs: every command exits 0 without a traceback,
every pass writes byte-identical artifacts (``run.log`` excepted), the traced
pass writes the same artifacts as the untraced ones, the known-level and
oracle PSNRs are finite, and (traced) every expected wrapper fired.  The
last line of stdout is one JSON object with the metrics named in
BENCHMARK.json; a human-readable table comes before it, and the full record
is written under ``perfbench/.work/results/``.
"""

from __future__ import annotations

import os

# pin BLAS before numpy can load, here and in every child: steadier timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import json
import logging
import math
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from bench_layers import (MEASURE_ALLOC, METRICS, PROBES, counts_by_command, coverage, known_shares,
                          layer_metrics)
from bench_trace import Recorder, check_metric_name, install
from bench_workloads import OUT_DIR, WORKLOADS

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0
PROCESSING = ("estimate", "denoise", "eval")  # commands that read noisy pixels
E2E_UNITS = {
    "setup_s": "s", "synth_s": "s", "estimate_s": "s", "denoise_s": "s", "eval_s": "s",
    "train_s": "s", "workload_s": "s", "mpix_per_s": "Mpix/s", "peak_rss_mb": "MiB",
    "accuracy": "frac", "psnr_gain_db": "dB", "train_loss": "loss", "fail_frac": "frac",
}
SETUP_SNIPPET = (
    "import sys\n"
    "from tweedenoise import cli\n"
    "cli.make_backend(cli.parse_config(sys.argv[1]))\n"
    "print(cli.__file__)\n"
)


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    wall: dict = field(default_factory=dict)  # command -> seconds
    rss: dict = field(default_factory=dict)  # command -> MiB
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def run_child(argv, cwd: Path, env: dict) -> Child:
    """Run one child to completion; wall time and its own peak RSS."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def digest_tree(root: Path) -> dict:
    """Relative path -> sha256 of every artifact except run.log."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "run.log"
    }


def digest_mismatch(ref: dict, got: dict) -> list:
    return sorted(k for k in ref.keys() | got.keys() if ref.get(k) != got.get(k))


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_quality(out: Path, wl) -> tuple:
    """(quality metrics, correctness errors, attempted, failed) of one pass.

    A failed operation is an unknown row in estimates.csv or a psnr.csv
    image row with an error; the caller adds failed commands.
    """
    q, errors, attempted, failed = {}, [], 0, 0
    truth = wl.noise["model"]
    if (out / "estimates.csv").exists():
        rows = _read_csv(out / "estimates.csv")
        if len(rows) != wl.images or any(r["truth_model"] != truth for r in rows):
            errors.append("estimates.csv: wrong image count or truth model")
        q["accuracy"] = sum(int(r["correct"]) for r in rows) / max(len(rows), 1)
        attempted += len(rows)
        failed += sum(r["model"] == "unknown" for r in rows)
    if (out / "psnr.csv").exists():
        rows = _read_csv(out / "psnr.csv")
        images = [r for r in rows if r["image"] != "mean"]
        if len(images) != wl.images:
            errors.append(f"psnr.csv: {len(images)} image rows, expected {wl.images}")
        for r in images:
            if not (math.isfinite(float(r["known_level"])) and math.isfinite(float(r["oracle_posterior"]))):
                errors.append(f"psnr.csv: non-finite known/oracle PSNR for image {r['image']}")
        mean = [r for r in rows if r["image"] == "mean"]
        if mean:
            q["psnr_gain_db"] = float(mean[0]["blind"]) - float(mean[0]["psnr_noisy"])
        attempted += len(images)
        failed += sum(bool(r["error"]) for r in images)
    if (out / "loss.csv").exists():
        q["train_loss"] = float(_read_csv(out / "loss.csv")[-1]["running_min"])
    return q, errors, attempted, failed


class Bench:
    def __init__(self, root: Path, wl, seed: int):
        self.root, self.wl, self.seed = root, wl, seed
        self.work = root / "perfbench" / ".work" / f"{wl.name}-seed{seed}-pid{os.getpid()}"
        self.out = self.work / OUT_DIR
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.configs = wl.configs(seed)
        self.work.mkdir(parents=True, exist_ok=True)
        for name, text in self.configs.items():
            (self.work / name).write_text(text)

    def subprocess_pass(self) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        p = Pass()
        for command, config in self.wl.commands:
            argv = [sys.executable, "-m", "tweedenoise.cli", command, "--config", config]
            c = run_child(argv, self.work, self.env)
            p.wall[command], p.rss[command] = c.wall_s, c.rss_mb
            if c.code != 0 or "Traceback" in c.stderr:
                p.errors.append(f"{command} exited {c.code}: {c.stderr.strip()[-400:]}")
                return p
        p.digests = digest_tree(self.out)
        return p

    def setup_times(self) -> list:
        """Fresh interpreter: import the CLI, parse the config, build the backend."""
        times = []
        argv = [sys.executable, "-c", SETUP_SNIPPET, self.wl.setup_config]
        for _ in range(SETUP_REPEATS):
            c = run_child(argv, self.work, self.env)
            if c.code != 0 or not Path(c.stdout.strip()).resolve().is_relative_to(self.root / "src"):
                raise RuntimeError(f"set-up child failed or imported the wrong tree: {c.stderr[-400:]}")
            times.append(c.wall_s)
        return times

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(bench: Bench, passes: list, setup: list) -> dict:
    wl = bench.wl
    med = statistics.median
    commands = [c for c, _ in wl.commands]
    m = {"setup_s": med(setup)}
    for c in commands:
        m[f"{c}_s"] = med(p.wall[c] for p in passes)
    m["workload_s"] = med(sum(p.wall.values()) for p in passes)
    mpix = wl.images * wl.pixels_per_image / 1e6 * sum(c in PROCESSING for c in commands)
    m["mpix_per_s"] = med(mpix / sum(p.wall[c] for c in commands if c in PROCESSING) for p in passes)
    m["peak_rss_mb"] = med(max(p.rss.values()) for p in passes)
    return m


def check_passes(passes: list) -> list:
    errors = [e for p in passes for e in p.errors]
    for i, p in enumerate(passes[1:], start=2):
        diff = digest_mismatch(passes[0].digests, p.digests)
        if diff and not p.errors:
            errors.append(f"pass {i} artifacts differ from pass 1: {diff[:5]}")
    return errors


def measure(bench: Bench, seconds: float) -> dict:
    passes, lengths, t0 = [], [], time.perf_counter()
    # stop before a pass that would overrun, so a run lasts about ``seconds``
    while len(passes) < 2 or time.perf_counter() - t0 + statistics.median(lengths) <= seconds:
        start = time.perf_counter()
        passes.append(bench.subprocess_pass())
        lengths.append(time.perf_counter() - start)
        if passes[-1].errors:
            break
    errors = check_passes(passes)
    metrics, setup = {}, []
    if not errors:
        quality, qerrors, rows, bad_rows = read_quality(bench.out, bench.wl)
        errors += qerrors
        setup = bench.setup_times()
        metrics = end_to_end(bench, passes, setup) | quality
        # failed commands (none here) plus failed image rows, over both
        metrics["fail_frac"] = bad_rows / (rows + len(bench.wl.commands))
    return {"metrics": metrics, "errors": errors,
            "attempted": sum(len(p.wall) for p in passes),
            "failed": sum(bool(p.errors) for p in passes),
            "passes": [{"wall_s": p.wall, "rss_mb": p.rss} for p in passes],
            "setup_s": setup, "digests": passes[0].digests}


def trace(bench: Bench, seconds: float) -> dict:
    """One child-process pass for reference, then plain and traced passes in-process."""
    t0 = time.perf_counter()
    ref = bench.subprocess_pass()
    errors = list(ref.errors)
    result = {"errors": errors, "attempted": len(ref.wall), "failed": int(bool(ref.errors)),
              "metrics": {}}
    if errors:
        return result
    sys.path.insert(0, str(bench.root / "src"))
    import tweedenoise.cli as cli
    from tweedenoise.scores import QUAD_ORDER

    if not Path(cli.__file__).resolve().is_relative_to(bench.root / "src"):
        errors.append(f"imported tweedenoise from {cli.__file__}, not from this checkout")
        return result

    def inproc_pass(recorder):
        shutil.rmtree(bench.out, ignore_errors=True)
        start = time.perf_counter()
        for command, config in bench.wl.commands:
            with recorder.span(f"command.{command}") if recorder else nullcontext():
                code = cli.main([command, "--config", config])
            result["attempted"] += 1
            if code != 0:
                result["failed"] += 1
                errors.append(f"in-process {command} exited {code}")
        elapsed = time.perf_counter() - start
        diff = digest_mismatch(ref.digests, digest_tree(bench.out))
        if diff:
            errors.append(f"{'traced' if recorder else 'in-process'} artifacts differ: {diff[:5]}")
        return elapsed

    plain, traced, layer_runs, counts = [], [], [], {}
    cwd = Path.cwd()
    os.chdir(bench.work)
    try:
        while not traced or time.perf_counter() - t0 < seconds:
            plain.append(inproc_pass(None))
            rec = Recorder()
            result["wrapped"], uninstall = install(rec, "tweedenoise", PROBES, MEASURE_ALLOC)
            try:
                traced.append(inproc_pass(rec))
            finally:
                uninstall()
            missing = coverage(rec.spans, bench.wl)
            if missing:
                errors.append(f"expected wrappers never fired: {missing}")
            layer_runs.append(layer_metrics(rec.spans, bench.wl, 2 * QUAD_ORDER))
            counts = counts_by_command(rec.spans)
            if errors:
                break
    finally:
        for h in logging.getLogger().handlers:
            h.close()
        os.chdir(cwd)
    m = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
    m["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    result["metrics"] = m
    result["counts_by_command"] = counts
    result["child_wall_s"] = ref.wall
    result["shares"] = known_shares(rec.spans)
    return result


def metadata(root: Path, bench: Bench, seconds: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = r.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        src.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return {
        "workload": bench.wl.name, "seed": bench.seed, "seconds": seconds,
        "commit": commit, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "configs_sha256": {n: hashlib.sha256(t.encode()).hexdigest() for n, t in bench.configs.items()},
    }


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "tweedenoise" / "cli.py").is_file():
        print(f"error: {root} holds no tweedenoise source (src/tweedenoise); run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {k: u for k, (u, _) in METRICS.items()} if args.trace else E2E_UNITS

    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    try:
        res = trace(bench, args.seconds) if args.trace else measure(bench, args.seconds)
        res["meta"] = metadata(root, bench, args.seconds)
    finally:
        bench.close()

    m = res["metrics"]
    print(f"# {bench.wl.name} seed={args.seed} trace={args.trace} "
          f"passes={len(res.get('passes', [])) or 'n/a'}")
    for k, v in res["meta"].items():
        print(f"# meta {k}: {v}")
    for name, unit in units.items():
        print(f"  {name:34s} {_fmt(m.get(name)):>12s} {unit}")
    for k, v in res.get("shares", {}).items():
        print(f"# share {k}: {_fmt(v)}")
    for c, row in res.get("counts_by_command", {}).items():
        print(f"# counts {c}: {row}")
    for e in res["errors"]:
        print(f"# ERROR {e}")

    correct = not res["errors"]
    out = {}
    if correct:
        for entry in wanted:
            name = check_metric_name(entry["name"])
            if entry["unit"] != units[name]:
                raise ValueError(f"BENCHMARK.json gives {name} in {entry['unit']}, the code in {units[name]}")
            out[name] = {"value": m[name], "unit": entry["unit"]}
    results = root / "perfbench" / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{bench.wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
