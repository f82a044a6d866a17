"""Print the sha256 of every artifact the benchmark's workloads write, run.log excepted.

    python3 tools/artifact_digests.py SRC SEED [WORKLOAD ...]

SRC is the ``src`` directory of the tweedenoise checkout to run.  Each
workload (every one when none is named) runs in a fresh directory, on the
configs that ``perfbench/bench_workloads.py`` makes from SEED, and its
commands run there one after another as the benchmark runs them: ``python -m
tweedenoise.cli <command> --config <file>``, with SRC on PYTHONPATH and BLAS
pinned to one thread.  Each output line is ``<sha256>  <workload>/<path>``,
so the outputs for two checkouts compare with ``diff``.  A command that exits
non-zero stops the run with exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run as perfbench  # importing it pins BLAS to one thread, here and in the children
from bench_workloads import OUT_DIR, WORKLOADS


def workload_digests(src: Path, seed: int, name: str) -> dict:
    """Relative path -> sha256 of each artifact of workload ``name`` at ``seed``, run on ``src``."""
    wl = WORKLOADS[name]
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(prefix=f"{name}-seed{seed}-") as tmp:
        work = Path(tmp)
        for file, text in wl.configs(seed).items():
            (work / file).write_text(text)
        for command, config in wl.commands:
            argv = [sys.executable, "-m", "tweedenoise.cli", command, "--config", config]
            child = perfbench.run_child(argv, work, env)
            if child.code != 0:
                raise SystemExit(f"{name}: {command} exited {child.code}: {child.stderr.strip()[-400:]}")
        return perfbench.digest_tree(work / OUT_DIR)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", type=Path, help="the src directory of the checkout to run")
    ap.add_argument("seed", type=int, help="the workload seed, as perfbench/run.py --seed")
    ap.add_argument("workloads", nargs="*", help=f"any of {sorted(WORKLOADS)}; all when none is named")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if not (src / "tweedenoise" / "cli.py").is_file():
        ap.error(f"{src} holds no tweedenoise package")
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}")
    for name in args.workloads or WORKLOADS:
        for path, digest in workload_digests(src, args.seed, name).items():
            print(f"{digest}  {name}/{path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
