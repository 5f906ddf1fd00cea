"""The Monte Carlo cells that ``records_digest.py`` and ``records_drift.py``
run, and the encoding by which they compare records.

The cells are I/400 and II/800 with every method, II/3200 ``gmm-div`` at
``k_bar`` 20 on 2 workers, and every misspecification level (II/800, every
method).
"""

from __future__ import annotations

import functools

from proxigmm import ScenarioConfig, run_replications, simulation
from proxigmm.simulation import METHODS, MISSPEC_LEVELS


def encode(rec: dict) -> str:
    """The record's ``simulation.RECORD_FIELDS``, floats as ``float.hex``,
    tab-separated: two records are bit-identical when their encodings are
    equal. The fields are looked up here, when a record is encoded, so
    that ``records_drift.py`` can load ``cells`` against a tree that
    predates them."""
    fields = simulation.RECORD_FIELDS
    return "\t".join(v.hex() if isinstance(v, float) else repr(v) for v in map(rec.get, fields))


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
