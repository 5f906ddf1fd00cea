"""Behaviour fingerprint guard.

Reruns the fixed-seed replications recorded in ``perfbench/fingerprint.json``
(read only) for the benchmark's three Monte Carlo cells and compares every
record: the selected K and the error must be equal, the estimate and its
standard error within the file's own tolerances. A change that flips a K*
or moves an estimate fails here, before the benchmark is run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from proxigmm import ScenarioConfig, run_replications
from proxigmm.simulation import METHODS

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "fingerprint.json").read_text()
)
# The benchmark's cells: (config, methods, k_bar, threads) per workload name.
CELLS = {
    "mc-I400-all": (ScenarioConfig("I", 400), METHODS, 12, 1),
    "mc-II800-all": (ScenarioConfig("II", 800), METHODS, 12, 1),
    "mc-II3200-gmm-k20-t2": (ScenarioConfig("II", 3200), ("gmm-div",), 20, 2),
}


def _finite_or_none(value):
    return None if value is None or not math.isfinite(value) else value


def test_every_fingerprinted_workload_has_a_cell():
    # A workload added to the fingerprint without a cell here would go unchecked.
    assert set(CELLS) == set(REFERENCE["workloads"])


@pytest.mark.parametrize("workload", CELLS)
def test_records_match_the_fingerprint(workload):
    config, methods, k_bar, threads = CELLS[workload]
    records = run_replications(
        config, methods, REFERENCE["reps"], REFERENCE["seed"], k_bar=k_bar, threads=threads
    )
    now = {(r["rep"], r["method"]): r for r in records}
    reference = REFERENCE["workloads"][workload]
    assert len(now) == len(reference)
    for ref in reference:
        key = (ref["rep"], ref["method"])
        cur = now[key]
        assert (cur["k_star"], cur["error"]) == (ref["k_star"], ref["error"]), key
        tau, se = _finite_or_none(cur["tau_hat"]), _finite_or_none(cur["se_tau"])
        if ref["tau_hat"] is None:
            assert tau is None, key
        else:
            assert abs(tau - ref["tau_hat"]) <= REFERENCE["tau_tol"], key
        if ref["se_tau"] is None:
            assert se is None, key
        else:
            assert abs(se - ref["se_tau"]) <= REFERENCE["se_rel_tol"] * abs(ref["se_tau"]), key
