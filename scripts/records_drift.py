"""Print how far each Monte Carlo cell's records moved from another tree's.

From the repository root, with ``PARENT`` a checkout of the commit to
compare against (``git archive`` or ``git clone``):

    PYTHONPATH=src python scripts/records_drift.py PARENT --seed 3 --reps 200

Each tree runs the cells of ``record_cells.py`` (those of
``records_digest.py``) in an interpreter of its own, on its own ``src``.
One line per cell and method gives the number of records, how many carry
an error in each tree (so that a change to an error path states the error
traffic it rests on), how many are bit-identical (every field of
``records_digest.py``'s digest), how many changed their error, K* or Wald
decision, the largest |change in tau_hat| and the largest relative change
in se_tau over the records both trees estimated whose SE is not wild in
either tree. An SE is wild when it is
more than 10 times the median SE of its cell and method in its tree, the
rule by which ``perfbench/bench.py`` flags a failed record. After the
table, each cell and method with wild records gets one more line with
their count, the same two maxima over them and their rep indices, so that
their large moves do not hide the rounding-level drift of the others and
each of them can be looked up. For ``pipw`` and
``pdr`` that line is split in two: the records whose treatment-bridge
solve took the minimum-norm fallback in either tree, and the Newton roots
the 10x rule flags with them. Each tree's interpreter finds its fallback
solves by solving the dataset of each of its wild ``pipw``/``pdr`` records
again with ``baselines._levenberg_marquardt`` wrapped. Then each cell and
method whose records are not all bit-identical gets one more line with the
first 10 changed rep indices.

``gmm-div`` gets two lines per cell, and so two of each line after the
table: ``gmm-div K*=p``, the records whose K* in the tree compared against
is the bridge dimension p, where the fit is exactly identified, and
``gmm-div K*>p``, every other record (those that tree could not fit
included), where the fit is overidentified and polished.
"""

from __future__ import annotations

import argparse
import math
import pickle
import statistics
import subprocess
import sys
from pathlib import Path

from record_cells import cells, encode

from proxigmm import baselines, generate

_HERE = Path(__file__).resolve().parent
# An SE above this multiple of its cell and method's median SE is wild.
_WILD_SE_FACTOR = 10.0
# The methods whose wild records are split by the treatment-bridge solver's path.
_SOLVED = ("pipw", "pdr")
# Runs in a fresh interpreter: argv is (src, scripts, seed, reps). Prints
# the path proxigmm was loaded from, the pickled records of every cell and
# the reps of each cell whose wild pipw/pdr records took the fallback.
_CHILD = """
import pickle, sys
sys.path[:0] = sys.argv[1:3]
import proxigmm
from record_cells import cells
from records_drift import wild_fallbacks
records, fallbacks = {}, {}
for name, run in cells(int(sys.argv[3]), int(sys.argv[4])).items():
    records[name] = run()
    fallbacks[name] = wild_fallbacks(run, records[name])
pickle.dump((proxigmm.__file__, records, fallbacks), sys.stdout.buffer)
"""


def fallback_reps(config, seed: int, reps) -> set[int]:
    """The reps among ``reps`` of cell ``config`` and seed ``seed`` whose
    dataset's treatment-bridge solve takes the minimum-norm fallback, seen
    by solving it again with ``baselines._levenberg_marquardt`` wrapped.
    Each of them must be a dataset whose solve returns."""
    search, taken = baselines._levenberg_marquardt, set()

    def spy(*args):
        taken.add(rep)  # the rep whose solve is running
        return search(*args)

    baselines._levenberg_marquardt = spy
    try:
        for rep in reps:
            baselines._solve_treatment_bridge(generate(config, seed, rep))
    finally:
        baselines._levenberg_marquardt = search
    return taken


def wild_fallbacks(run, records: list[dict]) -> set[int]:
    """The reps whose ``pipw`` or ``pdr`` record among ``records`` has a wild
    SE and whose solve took the fallback; ``run`` is the cell's call from
    ``record_cells.cells``, ``run_replications`` with (config, methods,
    reps, seed)."""
    config, _, _, seed = run.args
    wild = set()
    for method in _SOLVED:
        recs = [r for r in records if r["method"] == method]
        wild |= {rec["rep"] for rec, is_wild in zip(recs, _wild(recs)) if is_wild}
    return fallback_reps(config, seed, wild)


def _groups(cell: str, method: str, seed: int, old: list[dict], new: list[dict]) -> dict:
    """One method's records in both trees, by the label of their table line:
    ``gmm-div``'s split by whether K* in ``old`` is the bridge dimension p,
    the count of the linear bridge's features (1, w, a, x) on the cell's
    datasets (``cell`` names one of ``record_cells.cells``)."""
    if method != "gmm-div":
        return {method: (old, new)}
    ds = generate(cells(seed, 1)[cell].args[0], seed, 0)
    p = 2 + ds.w.shape[1] + ds.x.shape[1]
    at_p = [rec["k_star"] == p for rec in old]
    return {
        f"{method} K*{sign}p": tuple(
            [rec for rec, flag in zip(recs, at_p) if flag == want] for recs in (old, new)
        )
        for sign, want in (("=", True), (">", False))
    }


def run_tree(root: Path, seed: int, reps: int) -> tuple[dict[str, list[dict]], dict[str, set]]:
    """Every cell's records as the tree at ``root`` computes them, and each
    cell's :func:`wild_fallbacks`."""
    src = (root / "src").resolve()
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(_HERE), str(seed), str(reps)],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    loaded, records, fallbacks = pickle.loads(out)
    if not Path(loaded).resolve().is_relative_to(src):
        raise RuntimeError(f"expected proxigmm from {src}, loaded {loaded}")
    return records, fallbacks


def _relative(old: float, new: float) -> float:
    """|new - old| / |old|: 0 when the two are equal, inf from a zero ``old``."""
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def _wild(records: list[dict]) -> list[bool]:
    """Whether each record estimated finite values with an SE above
    ``_WILD_SE_FACTOR`` times the median SE of those that did."""
    finite = [
        r["error"] is None and math.isfinite(r["tau_hat"]) and math.isfinite(r["se_tau"])
        for r in records
    ]
    ses = [r["se_tau"] for r, ok in zip(records, finite) if ok]
    cut = _WILD_SE_FACTOR * statistics.median(ses) if ses else math.inf
    return [ok and r["se_tau"] > cut for r, ok in zip(records, finite)]


def _largest(pairs: list[tuple[dict, dict]]) -> tuple[float, float]:
    """(max |dtau|, max relative dSE) over pairs of records."""
    return (
        max((abs(b["tau_hat"] - a["tau_hat"]) for a, b in pairs), default=0.0),
        max((_relative(a["se_tau"], b["se_tau"]) for a, b in pairs), default=0.0),
    )


def drift(old: list[dict], new: list[dict]) -> tuple[tuple, list]:
    """How one method's records moved between two trees.

    Returns (records, errors in ``old``, errors in ``new``, identical,
    error flips, K* flips, reject flips, max |dtau|, max relative dSE), the
    maxima over the records both trees estimated with an SE wild in
    neither, and the pairs of records both estimated with an SE wild in
    either.
    """
    if [(r["rep"], r["method"]) for r in old] != [(r["rep"], r["method"]) for r in new]:
        raise RuntimeError("the trees' records are not the same replications")
    pairs = list(zip(old, new))
    both = [
        (pair, a_wild or b_wild)
        for pair, a_wild, b_wild in zip(pairs, _wild(old), _wild(new))
        if pair[0]["error"] is None and pair[1]["error"] is None
    ]
    wild = [pair for pair, is_wild in both if is_wild]
    return (
        len(pairs),
        *(sum(r["error"] is not None for r in recs) for recs in (old, new)),
        sum(encode(a) == encode(b) for a, b in pairs),
        *(sum(a[key] != b[key] for a, b in pairs) for key in ("error", "k_star", "reject")),
        *_largest([pair for pair, is_wild in both if not is_wild]),
    ), wild


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the tree to compare against")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=200)
    opts = parser.parse_args(argv)
    old, old_fallbacks = run_tree(opts.parent, opts.seed, opts.reps)
    new, new_fallbacks = run_tree(_HERE.parent, opts.seed, opts.reps)
    print(f"{'cell':<38}{'method':<13}{'records':>8}{'errs-old':>9}{'errs-new':>9}"
          f"{'identical':>10}{'error':>6}{'k*':>4}{'reject':>7}{'max|dtau|':>11}{'max|dSE|/SE':>13}")
    wild, changed = {}, {}
    for cell, records in new.items():
        for method in dict.fromkeys(rec["method"] for rec in records):
            mine = [[r for r in recs if r["method"] == method] for recs in (old[cell], records)]
            for label, both in _groups(cell, method, opts.seed, *mine).items():
                (n, err_old, err_new, same, errors, ks, rejects, dtau, dse), wild_drift = drift(
                    *both)
                print(f"{cell:<38}{label:<13}{n:>8}{err_old:>9}{err_new:>9}{same:>10}"
                      f"{errors:>6}{ks:>4}{rejects:>7}{dtau:>11.1e}{dse:>13.1e}", flush=True)
                if wild_drift and method in _SOLVED:
                    fallbacks = old_fallbacks[cell] | new_fallbacks[cell]
                    for path, took in (("fallback", True), ("Newton root", False)):
                        wild[cell, label, path] = [
                            pair for pair in wild_drift if (pair[0]["rep"] in fallbacks) == took
                        ]
                elif wild_drift:
                    wild[cell, label, None] = wild_drift
                if same < n:
                    changed[cell, label] = [
                        a["rep"] for a, b in zip(*both) if encode(a) != encode(b)
                    ]
    for (cell, label, path), pairs in wild.items():
        kind = "wild SE" if path is None else f"wild SE, {path}"
        dtau, dse = _largest(pairs)
        reps = "".join(f" {a['rep']}" for a, _ in pairs)
        print(f"{cell:<38}{label:<13}{kind}: {len(pairs)} records, max|dtau| {dtau:.1e}, "
              f"max|dSE|/SE {dse:.1e}, reps:{reps}")
    for (cell, label), reps in changed.items():
        print(f"{cell:<38}{label:<13}changed reps: {' '.join(map(str, reps[:10]))}")


if __name__ == "__main__":
    main()
