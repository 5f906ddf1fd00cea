"""Print the Monte Carlo summary of one simulation cell, method by method.

From the repository root:

    PYTHONPATH=src python scripts/cell_study.py II/800 --methods all --seed 5 --reps 1000 --k-bar 12

The cell is ``SCENARIO/N``. The script runs ``run_replications`` on it and
prints one line per method over that method's records: how many failed
(carry an error), how many of the others have a wild SE (more than 10
times the method's median SE, the rule of ``records_drift.py``), and,
over every record with an estimate, the bias and SD of tau_hat,
sqrt(n)·SD, n·MSE (n times the mean squared error of tau_hat about the
true effect), the coverage of the 95% interval, the SD of the
t-statistic t = (tau_hat - tau)/SE (near 1 when the SE tracks the
estimator's spread) and the binomial 95% band that a coverage of .95
falls in at that many records. Each method that
selects K then gets a line with its K* histogram.

``--fixed-k 4,8,12`` adds one line per K, labelled ``K=4`` and so on:
``gmm-div``'s fit at that fixed moment count on each replication's dataset
(``fit_optimal`` on a fresh K-column basis, the fit ``select_and_fit``
makes wherever it selects K* = K), so that a cell's n·MSE at the best fixed
K can be set against the selected one. It runs after, and apart from,
``run_replications``, whose records it leaves as they are.
"""

from __future__ import annotations

import argparse
import math

from records_drift import _wild

from proxigmm import (
    DgpCoefficients,
    OutcomeBridge,
    ProxiGmmError,
    ScenarioConfig,
    SieveSpec,
    build_basis,
    confidence_interval,
    fit_optimal,
    generate,
    k_histogram,
    orthonormalize,
    run_replications,
)
from proxigmm.simulation import DEFAULT_K_BAR, METHODS

# The nominal coverage of the intervals and the normal quantile of its band.
_NOMINAL, _Z95 = 0.95, 1.959963984540054


def _sd(values: list[float]) -> float:
    """Sample standard deviation of ``values``; NaN below two values."""
    m = len(values)
    if m < 2:
        return math.nan
    mean = sum(values) / m
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (m - 1))


def summary(records: list[dict], n: int, tau0: float) -> dict:
    """One method's figures over its ``records`` at sample size ``n`` and
    true effect ``tau0``."""
    good = [r for r in records if r["error"] is None]
    taus = [r["tau_hat"] for r in good]
    m = len(taus)
    mean = sum(taus) / m if m else math.nan
    sd = _sd(taus)
    half = _Z95 * math.sqrt(_NOMINAL * (1 - _NOMINAL) / m) if m else math.nan
    return {
        "records": len(records),
        "failed": len(records) - m,
        "wild_se": sum(_wild(records)),
        "bias": mean - tau0,
        "sd": sd,
        "root_n_sd": math.sqrt(n) * sd,
        "n_mse": n * sum((t - tau0) ** 2 for t in taus) / m if m else math.nan,
        "coverage": sum(r["ci_lo"] <= tau0 <= r["ci_hi"] for r in good) / m if m else math.nan,
        "sd_t": _sd([(r["tau_hat"] - tau0) / r["se_tau"] for r in good]),
        "band": (max(0.0, _NOMINAL - half), min(1.0, _NOMINAL + half)),
    }


def fixed_k_records(config: ScenarioConfig, k: int, reps: int, seed: int) -> list[dict]:
    """``gmm-div``'s fit at the fixed moment count ``k`` on the dataset of
    each of ``reps`` replications, as records with the fields ``summary``
    reads; a fit that raises is recorded with its error."""
    records = []
    for rep in range(reps):
        ds = generate(config, seed, rep)
        bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
        try:
            fit = fit_optimal(ds, orthonormalize(build_basis(ds, SieveSpec(), k)), bridge)
        except ProxiGmmError as exc:
            records.append({"tau_hat": math.nan, "se_tau": math.nan, "ci_lo": math.nan,
                            "ci_hi": math.nan, "error": f"{type(exc).__name__}: {exc}"})
            continue
        lo, hi = confidence_interval(fit)
        records.append({"tau_hat": fit.tau_hat, "se_tau": fit.se_tau, "ci_lo": lo, "ci_hi": hi,
                        "error": None})
    return records


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cell", help="SCENARIO/N, e.g. II/800")
    parser.add_argument("--methods", default="all", help="comma-separated, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--k-bar", type=int, default=DEFAULT_K_BAR)
    parser.add_argument("--fixed-k", default="",
                        help="comma-separated moment counts: gmm-div's fit at each fixed K")
    opts = parser.parse_args(argv)
    scenario, n = opts.cell.split("/")
    config = ScenarioConfig(scenario, int(n))
    methods = METHODS if opts.methods == "all" else tuple(opts.methods.split(","))
    records = run_replications(config, methods, opts.reps, opts.seed, k_bar=opts.k_bar)
    tau0 = DgpCoefficients().true_ate
    print(f"{opts.cell} k_bar {opts.k_bar}, seed {opts.seed}, {opts.reps} reps")
    print(f"{'method':<9}{'records':>8}{'failed':>7}{'wild':>5}{'bias':>9}{'SD':>8}"
          f"{'rootn*SD':>9}{'n*MSE':>8}{'coverage':>9}{'SD(t)':>7}  band")
    by_method = {m: [r for r in records if r["method"] == m] for m in methods}
    for k in (int(k) for k in opts.fixed_k.split(",") if k):
        by_method[f"K={k}"] = fixed_k_records(config, k, opts.reps, opts.seed)
    for method, recs in by_method.items():
        s = summary(recs, config.n, tau0)
        print(f"{method:<9}{s['records']:>8}{s['failed']:>7}{s['wild_se']:>5}{s['bias']:>+9.4f}"
              f"{s['sd']:>8.4f}{s['root_n_sd']:>9.3f}{s['n_mse']:>8.2f}{s['coverage']:>9.3f}"
              f"{s['sd_t']:>7.3f}  [{s['band'][0]:.3f}, {s['band'][1]:.3f}]")
    for method, recs in by_method.items():
        if hist := k_histogram(recs):
            print(f"{method} K*: " + " ".join(f"{k}:{c}" for k, c in hist.items()))


if __name__ == "__main__":
    main()
