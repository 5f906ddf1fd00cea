"""The Monte Carlo cells that ``records_digest.py`` and ``records_drift.py``
run, and the encoding by which they compare records.

The cells are I/400 and II/800 with every method, II/3200 ``gmm-div`` at
``k_bar`` 20 on 2 workers, and every misspecification level (II/800, every
method).
"""

from __future__ import annotations

import functools

from proxigmm import ScenarioConfig, run_replications
from proxigmm.simulation import METHODS, MISSPEC_LEVELS

FIELDS = ("rep", "method", "tau_hat", "se_tau", "ci_lo", "ci_hi", "reject", "k_star", "error")


def encode(rec: dict) -> str:
    """The record's ``FIELDS``, floats as ``float.hex``, tab-separated: two
    records are bit-identical when their encodings are equal."""
    return "\t".join(v.hex() if isinstance(v, float) else repr(v) for v in map(rec.get, FIELDS))


def cells(seed: int, reps: int) -> dict:
    """Each cell's name and a call that returns its records."""
    return {
        "I/400 all": functools.partial(
            run_replications, ScenarioConfig("I", 400), METHODS, reps, seed),
        "II/800 all": functools.partial(
            run_replications, ScenarioConfig("II", 800), METHODS, reps, seed),
        "II/3200 gmm-div k_bar 20, 2 workers": functools.partial(
            run_replications, ScenarioConfig("II", 3200), ("gmm-div",), reps, seed,
            k_bar=20, threads=2),
        **{f"misspec {level} II/800 all": functools.partial(
            run_replications, ScenarioConfig("II", 800, distortion=level), METHODS, reps, seed)
           for level in MISSPEC_LEVELS},
    }
