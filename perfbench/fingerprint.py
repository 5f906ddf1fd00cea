"""Behaviour fingerprint: fixed-seed estimates per workload against a reference.

For each workload, ``FINGERPRINT_REPS`` replications from ``FINGERPRINT_SEED``
are run through ``run_replications`` and compared, record by record, with
``fingerprint.json``. A record fails the check when its estimate moved by
more than ``TAU_TOL``, its standard error by more than ``SE_REL_TOL`` of
itself, its selected K changed, or it raised an error where the reference
succeeded. A record that failed in the reference and now succeeds is
reported but does not fail the check.

Write a new reference with ``python3 perfbench/run.py --write-fingerprint``
only when a change is meant to alter estimates, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import proxigmm as pg

import bench

REFERENCE = Path(__file__).resolve().parent / "fingerprint.json"
FINGERPRINT_SEED = 2501
FINGERPRINT_REPS = 4
TAU_TOL = 1e-8
SE_REL_TOL = 1e-6


def _num(x):
    return None if x is None or not math.isfinite(x) else float(x)


def records(wl: bench.Workload) -> list[dict]:
    recs = pg.run_replications(
        wl.config, wl.methods, FINGERPRINT_REPS, FINGERPRINT_SEED,
        k_bar=wl.k_bar, threads=wl.threads,
    )
    return [
        {
            "rep": r["rep"], "method": r["method"], "tau_hat": _num(r["tau_hat"]),
            "se_tau": _num(r["se_tau"]), "k_star": r["k_star"], "error": r["error"],
        }
        for r in recs
    ]


def check(reference: list[dict], current: list[dict]) -> dict:
    """Compare records keyed by (rep, method); see the module docstring."""
    now = {(r["rep"], r["method"]): r for r in current}
    problems, recovered = [], 0
    drift = 0.0
    for ref in reference:
        key = (ref["rep"], ref["method"])
        cur = now.get(key)
        if cur is None:
            problems.append(f"{key}: record missing")
            continue
        if ref["error"] is not None:
            recovered += cur["error"] is None
            continue
        if cur["error"] is not None:
            problems.append(f"{key}: succeeded in the reference, now {cur['error']}")
            continue
        if cur["tau_hat"] is None or ref["tau_hat"] is None:
            if cur["tau_hat"] != ref["tau_hat"]:
                problems.append(f"{key}: tau_hat {ref['tau_hat']} -> {cur['tau_hat']}")
            continue
        d_tau = abs(cur["tau_hat"] - ref["tau_hat"])
        drift = max(drift, d_tau)
        if d_tau > TAU_TOL:
            problems.append(f"{key}: tau_hat moved by {d_tau:.3e} (tolerance {TAU_TOL:g})")
        if (cur["se_tau"] is None) != (ref["se_tau"] is None) or (
            ref["se_tau"] is not None
            and abs(cur["se_tau"] - ref["se_tau"]) > SE_REL_TOL * abs(ref["se_tau"])
        ):
            problems.append(f"{key}: se_tau {ref['se_tau']} -> {cur['se_tau']}")
        if cur["k_star"] != ref["k_star"]:
            problems.append(f"{key}: K* {ref['k_star']} -> {cur['k_star']}")
    return {
        "records": len(reference),
        "tau_drift_max": drift,
        "recovered": recovered,
        "problems": problems,
        "ok": not problems,
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_workload(wl: bench.Workload) -> dict:
    return check(load_reference()["workloads"][wl.name], records(wl))


def write_reference() -> None:
    ref = {
        "seed": FINGERPRINT_SEED,
        "reps": FINGERPRINT_REPS,
        "tau_tol": TAU_TOL,
        "se_rel_tol": SE_REL_TOL,
        "workloads": {name: records(wl) for name, wl in bench.WORKLOADS.items()},
    }
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
