"""Time alternating children of one CLI command on two checkouts.

    python3 tools/child_ab.py PARENT_SRC CHANGE_SRC WORKLOAD COMMAND [--seed S] [--pairs N]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of the two tweedenoise
checkouts.  Each side gets its own fresh directory, with the configs that
``perfbench/bench_workloads.py`` makes for WORKLOAD from S, and runs there,
with its own code, the workload's commands that come before COMMAND.  Then N
pairs of ``python -m tweedenoise.cli COMMAND --config <file>`` children run,
one per side in each pair, the parent first in even pairs and the change
first in odd ones; BLAS is pinned to one thread, as perfbench pins it.  Each
child's wall time, CPU time (user + system) and peak RSS (``ru_maxrss``)
come from ``os.wait4``.  For each side the median and quartiles of each are
printed, then the pairs the change won (ties count for neither), and last
one JSON line with every sample.  A child that exits non-zero stops the run
with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run as perfbench  # importing it pins BLAS to one thread, here and in the children
from bench_workloads import WORKLOADS

SIDES = ("parent", "change")
METRICS = ("wall_s", "cpu_s", "maxrss_mib")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_child(argv, cwd: Path, env: dict) -> dict:
    """Run one child to completion; its wall time, CPU time and peak RSS.  CPU time is the growth of
    this process's reaped-children usage, so no other child may end while it runs."""
    cpu = _children_cpu()
    child = perfbench.run_child(argv, cwd, env)
    if child.code != 0:
        raise SystemExit(f"{' '.join(argv[3:])} in {cwd} exited {child.code}: {child.stderr.strip()[-400:]}")
    return {"wall_s": child.wall_s, "cpu_s": _children_cpu() - cpu, "maxrss_mib": child.rss_mb}


def prepare(src: Path, work: Path, wl, seed: int, command: str) -> tuple:
    """Write the workload's configs into ``work`` and run the commands before ``command`` there;
    returns the argv and environment of ``command``'s children."""
    env = os.environ | {"PYTHONPATH": str(src)}
    for file, text in wl.configs(seed).items():
        (work / file).write_text(text)
    commands = [c for c, _ in wl.commands]
    for cmd, config in wl.commands[:commands.index(command)]:
        timed_child([sys.executable, "-m", "tweedenoise.cli", cmd, "--config", config], work, env)
    config = dict(wl.commands)[command]
    return [sys.executable, "-m", "tweedenoise.cli", command, "--config", config], env


def summary(samples: dict, pairs: int) -> list:
    """Printed lines: each side's median [q1, q3] of each metric, then the change's wins."""
    lines = [f"{'side':<8}" + "".join(f"{m + ' median [q1, q3]':>32}" for m in METRICS)]
    for side in SIDES:
        cells = []
        for m in METRICS:
            q1, med, q3 = np.percentile([s[m] for s in samples[side]], [25, 50, 75])
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        lines.append(f"{side:<8}" + "".join(f"{c:>32}" for c in cells))
    wins = [sum(c[m] < p[m] for p, c in zip(samples["parent"], samples["change"])) for m in METRICS]
    lines.append("change wins: " + ", ".join(f"{m} {w}/{pairs}" for m, w in zip(METRICS, wins)))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the src directory of the parent checkout")
    ap.add_argument("change", type=Path, help="the src directory of the changed checkout")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("command", help="a command of the workload, e.g. estimate")
    ap.add_argument("--seed", type=int, default=1, help="the workload seed, as perfbench/run.py --seed")
    ap.add_argument("--pairs", type=int, default=10, help="alternating parent/change pairs")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.command not in dict(wl.commands):
        ap.error(f"{args.workload} runs {[c for c, _ in wl.commands]}, not {args.command!r}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    srcs = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    for src in srcs.values():
        if not (src / "tweedenoise" / "cli.py").is_file():
            ap.error(f"{src} holds no tweedenoise package")
    samples = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="child-ab-") as tmp:
        runs = {}
        for side, src in srcs.items():
            work = Path(tmp) / side
            work.mkdir()
            runs[side] = (*prepare(src, work, wl, args.seed, args.command), work)
        for k in range(args.pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                argv_, env, work = runs[side]
                samples[side].append(timed_child(argv_, work, env))
    print(f"{args.workload} {args.command}, seed {args.seed}: {args.pairs} alternating pairs, one BLAS thread")
    print("\n".join(summary(samples, args.pairs)))
    print(json.dumps({"workload": args.workload, "command": args.command, "seed": args.seed,
                      "src": {side: str(src) for side, src in srcs.items()}, "samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
