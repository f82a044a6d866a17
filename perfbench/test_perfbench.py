"""Self-tests of the benchmark: span arithmetic, wrapper installation, metric
names and the BENCHMARK.json definition."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from bench_layers import METRICS, counts_by_command, known_shares
from bench_trace import Recorder, Span, check_metric_name, covered_length, install, self_times
from bench_workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "intervals, lo, hi, expected",
    [
        ([], 0.0, 10.0, 0.0),
        ([(1, 2), (4, 6)], 0.0, 10.0, 3.0),  # disjoint
        ([(1, 5), (3, 7)], 0.0, 10.0, 6.0),  # overlapping
        ([(1, 9), (2, 3)], 0.0, 10.0, 8.0),  # nested
        ([(-5, 2), (8, 20)], 0.0, 10.0, 4.0),  # clipped at both ends
        ([(11, 12)], 0.0, 10.0, 0.0),  # outside
    ],
)
def test_covered_length(intervals, lo, hi, expected):
    assert covered_length(intervals, lo, hi) == pytest.approx(expected)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "a.child", 1, 2.0, 3.0),  # grandchild of root: not subtracted from root
        Span(3, "b", 0, 3.5, 6.0),  # overlaps a: the overlap counts once
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.5)


def test_recorder_links_nested_spans():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    with rec.span("next"):
        pass
    outer, inner, nxt = rec.spans
    assert (outer.parent, inner.parent, nxt.parent) == (None, outer.sid, None)
    assert outer.start <= inner.start <= inner.end <= outer.end <= nxt.start


def test_shares_and_counts_follow_the_root_command():
    spans = [
        Span(0, "command.estimate", None, 0.0, 10.0),
        Span(1, "estimate.estimate_rho", 0, 1.0, 5.0, {"pixels": 100}),
        Span(2, "estimate.estimate_level", 0, 5.0, 7.0),
        Span(3, "command.eval", None, 10.0, 12.0),
        Span(4, "estimate.estimate_rho", 3, 10.5, 11.0, {"pixels": 10}),
    ]
    shares = known_shares(spans)
    assert shares["estimate.rho_s+level_s / cli.estimate_s"] == pytest.approx(0.6)
    assert shares["ardae.step_s*ardae.steps / cli.train_s"] is None
    counts = counts_by_command(spans)
    assert counts["estimate"]["estimate.rho_calls"] == 1 and counts["eval"]["estimate.rho_calls"] == 1
    assert counts["estimate"]["estimate.rho_pixels"] == 100


@pytest.mark.parametrize("name", ["setup_s", "scores.calls", "a-b.c_d", "9lives", "x" * 64])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", ".hidden", "_x", "a b", "a/b", "lat(ms)", "x" * 65, None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_install_wraps_every_binding_and_undoes(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    exec("def work(n):\n    return helper(n) + 1\n"
         "def helper(n):\n    return 2 * n\n"
         "def _private(n):\n    return n\n", mod.__dict__)
    user.work = mod.work  # as ``from .core import work`` binds it
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    original = mod.work

    rec = Recorder()
    names, uninstall = install(rec, "fakepkg", {"core.work": lambda a, k, r: {"n": a[0]}})
    assert names == ["core.helper", "core.work"]
    assert user.work(3) == 7 and mod.work(1) == 3
    assert [s.name for s in rec.spans] == ["core.work", "core.helper", "core.work", "core.helper"]
    assert rec.spans[0].info == {"n": 3} and rec.spans[1].parent == rec.spans[0].sid
    uninstall()
    assert mod.work is original and user.work is original


def test_configs_are_a_pure_function_of_the_seed():
    for wl in WORKLOADS.values():
        assert wl.configs(5) == wl.configs(5)
        assert wl.configs(5) != wl.configs(6)
        assert all(json.loads(t)["seed"] == 5 for t in wl.configs(5).values())


def test_benchmark_definition_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["per_layer"] == [{"name": n, "unit": u, "better": b} for n, (u, b) in METRICS.items()]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    for m in [*SPEC["end_to_end"], *SPEC["per_layer"]]:
        check_metric_name(m["name"])


def test_refuses_to_run_without_program_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "gauss-pooled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0 and r.stdout == ""
