"""Print one SHA-256 digest per Monte Carlo cell and method over its records.

Run ``PYTHONPATH=src python scripts/records_digest.py --seed S --reps R`` on
two trees and ``diff`` the output: equal lines mean bit-identical records,
so a change that moves one method's rounding leaves every other method's
lines equal. A digest covers each of the method's records' rep, method,
tau_hat, se_tau, ci_lo, ci_hi, reject, k_star and error, floats as
``float.hex``. The cells are I/400 and II/800 with every method, II/3200
``gmm-div`` at ``k_bar`` 20 on 2 workers, and every misspecification level
(II/800, every method).
"""

from __future__ import annotations

import argparse
import functools
import hashlib

from proxigmm import ScenarioConfig, run_replications
from proxigmm.simulation import METHODS, MISSPEC_LEVELS

FIELDS = ("rep", "method", "tau_hat", "se_tau", "ci_lo", "ci_hi", "reject", "k_star", "error")


def digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for rec in records:
        values = (v.hex() if isinstance(v, float) else repr(v) for v in map(rec.get, FIELDS))
        h.update(("\t".join(values) + "\n").encode())
    return h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=200)
    opts = parser.parse_args(argv)
    seed, reps = opts.seed, opts.reps
    cells = {
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
    for name, run in cells.items():
        records = run()
        for method in dict.fromkeys(rec["method"] for rec in records):
            mine = [rec for rec in records if rec["method"] == method]
            print(f"{digest(mine)}  {name}  {method}", flush=True)


if __name__ == "__main__":
    main()
