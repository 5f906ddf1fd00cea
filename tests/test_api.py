"""Public API guard.

Every exported name must resolve, and the names the benchmark tracer in
``perfbench/tracing.py`` calls or patches must exist with the call shapes
it uses, so deleting one fails here before it breaks a traced run.
"""

from __future__ import annotations

import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import proxigmm
import proxigmm.selection
from proxigmm import BasisMatrix, EstimateReport, MomentDecomposition, OutcomeBridge, SieveSpec


def test_every_exported_name_resolves():
    missing = [name for name in proxigmm.__all__ if not hasattr(proxigmm, name)]
    assert missing == []


def test_tracer_call_shapes_exist():
    shapes = {
        "generate": ("config", 0, 0),
        "select_k": ("ds", "bridge", "spec", 12),
        "build_basis": ("ds", "spec", 12),
        "orthonormalize": ("raw",),
        "fit_optimal": ("ds", "basis", "bridge"),
        "fit_initial": ("ds", "basis", "bridge"),
        "joint_score": ("ds", "basis", "bridge", "gamma", "tau"),
        "estimate_upsilon": ("scores",),
        "regularize_moments": ("upsilon",),
        "fit_with_weight": ("ds", "basis", "bridge", "weight"),
        "variance": ("fit", "ds", "basis", "bridge"),
        "confidence_interval": ("fit",),
        "wald_test": ("fit",),
        **{name: ("ds",) for name in ("naive_gformula", "rgmm", "p2sls", "pipw", "pdr")},
    }
    for name, args in shapes.items():
        inspect.signature(getattr(proxigmm, name)).bind(*args)
    inspect.signature(SieveSpec).bind()
    # The tracer records the size of every basis it times as ``out.u.nbytes``.
    assert "u" in {f.name for f in dataclasses.fields(BasisMatrix)}
    inspect.signature(proxigmm.run_replications).bind(
        "config", "methods", 1, 0, k_bar=12, threads=1
    )
    inspect.signature(OutcomeBridge.linear).bind(1, 1)
    inspect.signature(EstimateReport.ci95).bind("report")
    inspect.signature(EstimateReport.wald_reject).bind("report")
    assert callable(MomentDecomposition.floored_weight)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of import time, and the normal
    # quantile the intervals need comes from scipy.special.
    src = str(Path(proxigmm.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import proxigmm, proxigmm.cli; "
        "print(proxigmm.__file__); print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == [proxigmm.__file__, "False"]


def test_select_k_looks_up_the_patched_sieve_names(scenario1_ds, monkeypatch):
    # The tracer times select_k's basis work by rebinding these two names
    # in proxigmm.selection; select_k must call them through that module.
    calls = {"build_basis": 0, "orthonormalize": 0}
    for name in calls:
        original = getattr(proxigmm.selection, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(proxigmm.selection, name, counted)
    bridge = OutcomeBridge.linear(1, 1)
    proxigmm.select_k(scenario1_ds, bridge, SieveSpec(), 6)
    assert calls["build_basis"] >= 1
    # One QR per full-rank scan: every candidate is a prefix of one basis.
    assert calls["orthonormalize"] == 1
