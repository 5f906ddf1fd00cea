"""Tests of the benchmark itself: names, determinism, verdicts, fingerprint.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # noqa: F401  (pins BLAS threads, imports proxigmm from src/)
import bench
import compare
import fingerprint

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def small(name: str, reps: int) -> bench.Workload:
    """The workload cut to one chunk of ``reps`` replications; with ``seconds=0``
    a run does just that chunk."""
    return dataclasses.replace(bench.WORKLOADS[name], chunk=reps, chunks=1)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_printed_metrics_match_benchmark_json(name, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_RUNS", 1)
    wl = small(name, 2)
    plain, _ = run.run_workload(wl, seed=5, seconds=0, trace=False)
    traced, spans = run.run_workload(wl, seed=5, seconds=0, trace=True)
    assert {s.name for s in spans} >= {"simulation.rep", "selection.select_k", "gmm.fit_optimal"}
    assert plain["correct"] and traced["correct"]
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == END_TO_END
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == PER_LAYER
    baseline_ms = [v["value"] for k, v in traced["metrics"].items()
                   if k.startswith("baselines.") and k.endswith("_ms")]
    if "naive" in wl.methods:
        assert all(v > 0 for v in baseline_ms)
    else:
        assert all(v == 0 for v in baseline_ms)


def _deterministic(wl, seed):
    loop = bench.measure(wl, seed, seconds=0)
    q = bench.quality(wl, loop)
    keep = ("records", "errors", "non_finite", "wild_se", "fail_share", "warning_count",
            "gmm_rmse", "gmm_cover_gap", "k_star_hist", "k_star_mean", "k_star_at_cap_share")
    return {k: q[k] for k in keep}, [(r["method"], r["tau_hat"]) for r in loop.records]


@pytest.mark.parametrize("name", ["mc-I400-all", "mc-II800-all"])
def test_same_seed_gives_identical_deterministic_metrics(name):
    wl = small(name, 6)
    first, taus = _deterministic(wl, 7)
    second, taus_again = _deterministic(wl, 7)
    assert first == second
    assert taus == taus_again
    assert _deterministic(wl, 8)[1] != taus
    assert fingerprint.check_workload(wl)["tau_drift_max"] == 0.0


@pytest.mark.parametrize(
    "base, new, better, bound, expected",
    [
        # 10/10 wins and a gap far beyond the base spread.
        ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10],
         [12, 12.1, 11.9, 12, 12.2, 11.8, 12, 12.1, 11.9, 12], "higher", 0.1, "gain"),
        # The same numbers are a regression when lower is better.
        ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10],
         [12, 12.1, 11.9, 12, 12.2, 11.8, 12, 12.1, 11.9, 12], "lower", 0.1, "regression"),
        # 8/10 wins is not enough for a gain, and the median moved within the bound.
        ([10, 10, 10, 10, 10, 10, 10, 10, 10, 10],
         [10.5, 10.5, 10.5, 10.5, 10.5, 10.5, 10.5, 10.5, 9.5, 9.5], "higher", 0.1, "unchanged"),
        # 9/10 wins but the gap does not exceed the base quartile spread.
        ([9, 11, 9, 11, 9, 11, 9, 11, 9, 11],
         [11.5, 11.5, 11.5, 11.5, 11.5, 11.5, 11.5, 11.5, 11.5, 8], "higher", 0.25, "unchanged"),
        # Base spread (2 of a median of 10) is wider than a 5% bound.
        ([9, 11, 9, 11, 9, 11, 9, 11, 9, 11],
         [10, 10, 10, 10, 10, 10, 10, 10, 10, 10], "higher", 0.05, "unresolved"),
        # Wide spread, but every new run beats every base run (the gain rule fails
        # only because the gap is within the spread).
        ([9, 11, 9, 11, 9, 11, 9, 11, 9, 11],
         [11.1] * 10, "higher", 0.05, "not-worse"),
        # Ties count for neither side.
        ([5.0] * 10, [5.0] * 10, "lower", 0.1, "unchanged"),
        # No bound: only a gain can be reported.
        ([1.0, 1.1, 0.9, 1.0], [3.0, 3.1, 2.9, 3.0], "lower", None, "no-bound"),
    ],
)
def test_compare_rule(base, new, better, bound, expected):
    assert compare.verdict(base, new, better, bound) == expected


def _result(workload, seed, trace, metrics, started):
    return {"workload": workload, "seed": seed, "trace": trace, "started_at": started,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def test_compare_diff_pairs_files_by_seed(tmp_path, capsys):
    for side, rate in (("base", 10.0), ("new", 20.0)):
        (tmp_path / side).mkdir()
        for seed in range(10):
            started = seed * 2 + ((seed % 2) ^ (side == "new"))
            res = _result("mc-I400-all", seed, 0, {"reps_per_s": rate + 0.01 * seed}, started)
            (tmp_path / side / f"w.seed{seed}.trace0.json").write_text(json.dumps(res))
        (tmp_path / side / "w.seed0.trace1.spans.json").write_text("[]")
    rows = compare.diff(tmp_path / "base", tmp_path / "new", SPEC)
    assert [(r["metric"], r["verdict"]) for r in rows] == [("reps_per_s", "gain")]
    out = capsys.readouterr().out
    assert "base ran first in 5, the change in 5" in out
    assert "of base 10.045 1/s" in out


REF = [
    {"rep": 0, "method": "gmm-div", "tau_hat": 0.5, "se_tau": 0.1, "k_star": 4, "error": None},
    {"rep": 0, "method": "pipw", "tau_hat": None, "se_tau": None, "k_star": None,
     "error": "NoConvergence: x"},
]


def _with(**changes):
    cur = [dict(r) for r in REF]
    cur[0].update(changes)
    return cur


def test_fingerprint_accepts_drift_within_tolerance():
    res = fingerprint.check(REF, _with(tau_hat=0.5 + fingerprint.TAU_TOL / 2))
    assert res["ok"] and 0 < res["tau_drift_max"] <= fingerprint.TAU_TOL


@pytest.mark.parametrize("changes", [
    {"tau_hat": 0.5 + 10 * fingerprint.TAU_TOL},
    {"se_tau": 0.2},
    {"k_star": 5},
    {"tau_hat": None, "se_tau": None, "error": "SingularVariance: y"},
])
def test_fingerprint_fails_on_drift_or_new_failure(changes):
    assert not fingerprint.check(REF, _with(**changes))["ok"]


def test_fingerprint_counts_recovered_records_without_failing():
    cur = [dict(r) for r in REF]
    cur[1].update(tau_hat=0.4, se_tau=0.1, error=None)
    res = fingerprint.check(REF, cur)
    assert res["ok"] and res["recovered"] == 1


def test_run_fails_without_package_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-I400-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_all_runs_each_workload_in_its_own_process(monkeypatch):
    """``peak_rss_mb`` is the peak of the whole process, so ``all`` must not
    run a second workload in the process of the first."""
    calls = []

    def fake_run(cmd, *args, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0)

    def no_run_here(*args, **kwargs):
        raise AssertionError("a workload ran in the parent process")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    monkeypatch.setattr(run, "run_workload", no_run_here)
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "2", "--trace", "0"]) == 0
    assert [c[:2] for c in calls] == [[sys.executable, run.__file__]] * len(bench.WORKLOADS)
    assert [c[c.index("--workload") + 1] for c in calls] == list(bench.WORKLOADS)
    assert Path(run.__file__).resolve() == bench.ROOT / "perfbench" / "run.py"
    for cmd in calls:
        opts = dict(zip(cmd[2::2], cmd[3::2]))
        assert (opts["--seed"], opts["--seconds"], opts["--trace"]) == ("3", "2.0", "0")
