"""Print one SHA-256 digest per Monte Carlo cell and method over its records.

Run ``PYTHONPATH=src python scripts/records_digest.py --seed S --reps R`` on
two trees and ``diff`` the output: equal lines mean bit-identical records,
so a change that moves one method's rounding leaves every other method's
lines equal. A digest covers each of the method's records' rep, method,
tau_hat, se_tau, ci_lo, ci_hi, reject, k_star and error, floats as
``float.hex``. The cells are those of ``record_cells.py``.

``--threads N`` runs every cell at N worker processes, so that the output
at 1 and at 2 can be ``diff``ed: a serial call runs its replications in
blocks and stacks their shared fits, a pool runs one replication per
task, and the records must not tell the two apart.
"""

from __future__ import annotations

import argparse
import hashlib

from record_cells import cells, encode


def digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update((encode(rec) + "\n").encode())
    return h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker processes for every cell (default: each cell's own)",
    )
    opts = parser.parse_args(argv)
    for name, run in cells(opts.seed, opts.reps).items():
        records = run() if opts.threads is None else run(threads=opts.threads)
        for method in dict.fromkeys(rec["method"] for rec in records):
            mine = [rec for rec in records if rec["method"] == method]
            print(f"{digest(mine)}  {name}  {method}", flush=True)


if __name__ == "__main__":
    main()
