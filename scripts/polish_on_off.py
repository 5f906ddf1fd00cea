"""Monte Carlo comparison of ``gmm-div`` with and without the
continuous-update polish.

Each cell runs the same replications twice, on the same datasets and with
the same selected K: once as shipped, and once with
``gmm._refine_continuous_update`` returning the two-step solution
unchanged. It prints each arm's absolute bias, SD, RMSE and 95% coverage,
and the largest paired change in the estimate and, relative, in its
standard error. From the repository root:

    PYTHONPATH=src python scripts/polish_on_off.py --reps 500 --seed 2024 \\
        --threads 2 --cell II:800:12 --cell II:800:20 --cell II:800:30 \\
        --cell II:3200:20
"""

from __future__ import annotations

import argparse

import numpy as np

from proxigmm import ScenarioConfig, gmm, run_replications, summarize


def _records(config: ScenarioConfig, k_bar: int, args, polish: bool) -> list[dict]:
    refine = gmm._refine_continuous_update
    if not polish:
        gmm._refine_continuous_update = lambda moments, start, *_: (start, float("nan"))
    try:
        return run_replications(
            config, ("gmm-div",), args.reps, args.seed, k_bar=k_bar, threads=args.threads
        )
    finally:
        gmm._refine_continuous_update = refine


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument(
        "--cell", action="append", required=True, metavar="SCENARIO:N:K_BAR"
    )
    args = parser.parse_args(argv)
    print("cell           arm     abs_bias  sd       rmse     coverage")
    for cell in args.cell:
        scenario, n, k_bar = cell.split(":")
        config = ScenarioConfig(scenario, int(n))
        arms = {arm: _records(config, int(k_bar), args, arm == "on") for arm in ("on", "off")}
        for arm, records in arms.items():
            (s,) = summarize(records, config)
            print(f"{cell:14s} {arm:7s} {s.abs_bias:.4f}   {s.sd:.4f}   {s.rmse:.4f}   "
                  f"{s.coverage:.3f}   ({s.reps_converged} reps)")
        on, off = (
            np.array([[r["tau_hat"], r["se_tau"]] for r in arms[arm]]) for arm in ("on", "off")
        )
        if [r["k_star"] for r in arms["on"]] != [r["k_star"] for r in arms["off"]]:
            raise SystemExit(f"{cell}: the arms selected different K")
        print(f"{cell:14s} max |dtau| {np.nanmax(np.abs(on[:, 0] - off[:, 0])):.2e}   "
              f"max |dse|/se {np.nanmax(np.abs(on[:, 1] - off[:, 1]) / off[:, 1]):.3f}")


if __name__ == "__main__":
    main()
