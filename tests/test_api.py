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

from helpers import write_csv
import proxigmm
import proxigmm.selection
from proxigmm import (
    BasisMatrix,
    EstimateReport,
    MomentDecomposition,
    OutcomeBridge,
    ScenarioConfig,
    SieveSpec,
    generate,
)

EXPORTS = [
    "BasisMatrix", "Dataset", "DgpCoefficients", "EstimateReport", "GmmFit",
    "MomentDecomposition", "OutcomeBridge", "ProxiGmmError", "ReplicationSummary",
    "ScenarioConfig", "SelectionDiagnostics", "SieveSpec", "VariableRoles", "build_basis",
    "confidence_interval", "estimate_upsilon", "fit_initial", "fit_optimal",
    "fit_with_weight", "generate", "joint_score", "k_histogram", "load_csv",
    "naive_gformula", "orthonormalize", "p2sls", "pdr", "pipw", "regularize_moments",
    "rgmm", "run_replications", "select_and_fit", "select_k", "summarize",
    "true_bridge_params", "variance", "wald_test",
]


def test_every_exported_name_resolves():
    assert proxigmm.__all__ == EXPORTS
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


_SRC = str(Path(proxigmm.__file__).resolve().parents[1])


def _fresh_interpreter(code: str) -> list[str]:
    """Run ``code`` in a new interpreter that turns warnings into errors and
    imports ``proxigmm`` from this checkout; return its output's words."""
    prelude = "import sys; sys.path.insert(0, sys.argv[1]); import proxigmm, proxigmm.cli\n"
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", prelude + code, _SRC],
        capture_output=True, text=True, check=True,
    ).stdout.split()


def test_common_paths_leave_optional_scipy_modules_unloaded(tmp_path):
    # Every path needs numpy alone: importing scipy.linalg or scipy.special
    # costs about a third of a second of start-up each, and scipy.optimize
    # about 20 MB of memory. The inputs include a rep on which Newton finds
    # no root, so pipw and pdr take the minimum-norm fallback.
    data = str(tmp_path / "data.csv")
    write_csv(generate(ScenarioConfig("II", 300), 1), data)
    code = f"""
import contextlib, io
from proxigmm import OutcomeBridge, ScenarioConfig, SieveSpec, generate, select_and_fit
from proxigmm.cli import main
from proxigmm.simulation import BASELINES
for rep in (3, 34):  # Newton converges on rep 3, not on rep 34
    ds = generate(ScenarioConfig("II", 800), 3, rep)
    select_and_fit(ds, OutcomeBridge.linear(1, 1), SieveSpec(), 12)
    for estimator in BASELINES.values():
        estimator(ds)
data = {data!r}
flags = ["--data", data, "--outcome", "y", "--treatment", "a", "--proxies-z", "z1",
         "--proxies-w", "w1", "--covariates", "x1"]
runs = [
    ["simulate", "--n", "200", "--reps", "2"],
    ["misspec", "--level", "minor", "--n", "200", "--reps", "2"],
    ["estimate", *flags],
    ["select-k", *flags],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([*argv, "--out-dir", {str(tmp_path)!r}]) for argv in runs]
print(proxigmm.__file__, len(BASELINES), *codes)
print(*sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    assert _fresh_interpreter(code) == [proxigmm.__file__, "5", "0", "0", "0", "0"]


def test_fallback_in_a_fresh_interpreter_returns_the_same_arrays():
    # Newton finds no root on this rep, as in test_baselines. A fresh
    # interpreter's minimum-norm fallback returns, bit for bit, the arrays
    # it returns in this process, and loads no scipy module.
    setup = (
        "import hashlib\n"
        "from proxigmm import ScenarioConfig, generate\n"
        "from proxigmm.baselines import _solve_treatment_bridge\n"
        "arrays = _solve_treatment_bridge(generate(ScenarioConfig('II', 800), 3, 34))[:2]\n"
        "digest = hashlib.sha256(b''.join(a.tobytes() for a in arrays)).hexdigest()\n"
    )
    namespace = {}
    exec(setup, namespace)
    code = setup + "print(digest, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_interpreter(code) == [namespace["digest"]]


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
