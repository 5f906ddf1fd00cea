"""Compare two sets of benchmark result files, metric by metric and workload by workload.

    python3 perfbench/compare.py diff BASE_DIR NEW_DIR
    python3 perfbench/compare.py pairs --base-tree PARENT --new-tree CHANGE \\
        --workload mc-II800-all --pairs 10 --seconds 20 --out OUT_DIR

``pairs`` runs each tree's own ``perfbench/run.py`` on seeds ``first-seed``,
``first-seed + 1``, ..., alternating which side runs first, writes the
result files under ``OUT_DIR/base`` and ``OUT_DIR/new``, then prints the
``diff``. Runs of the two sides with the same workload, trace flag and
seed form a pair.

The verdict for one metric on one workload follows these rules:

* gain: the change is better in at least 9/10 of the pairs (ties count
  for neither side) and its median is better than the base median by more
  than the base runs' quartile spread (q3 - q1);
* unresolved: the base spread is wider than the metric's bound (a share
  of the base median), unless every run of the change is better than
  every base run, which reads not-worse;
* regression: the change's median is worse than the base median by more
  than the bound;
* unchanged: none of the above.

Per-layer metrics have no bound, so they are only tested for a gain.
Every ratio is printed next to the base value it divides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
GAIN_WIN_SHARE = 0.9


def wins(base: list[float], new: list[float], better: str) -> int:
    """Pairs in which the change reads better; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (n - b) > 0 for b, n in zip(base, new))


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    """Verdict for paired runs ``base[i]``/``new[i]``; see the module docstring."""
    if len(base) != len(new) or len(base) < 2:
        raise ValueError("need at least two pairs of runs")
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = q3 - q1
    improvement = sign * (mn - mb)
    if wins(base, new, better) >= GAIN_WIN_SHARE * len(base) and improvement > spread:
        return "gain"
    if bound is None:
        return "no-bound"
    if spread > bound * abs(mb):
        all_better = all(sign * (n - b) > 0 for n in new for b in base)
        return "not-worse" if all_better else "unresolved"
    if -improvement > bound * abs(mb):
        return "regression"
    return "unchanged"


def load_results(directory: Path) -> dict:
    """Result files keyed by (workload, trace, seed)."""
    out = {}
    for path in sorted(directory.glob("*.trace[01].json")):
        res = json.loads(path.read_text())
        out[(res["workload"], int(res["trace"]), res["seed"])] = res
    return out


def _fmt(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def diff(base_dir: Path, new_dir: Path, spec: dict) -> list[dict]:
    """One row per (workload, trace flag, metric) present in both sets."""
    base, new = load_results(base_dir), load_results(new_dir)
    groups: dict[tuple, list] = {}
    for key in sorted(set(base) & set(new)):
        groups.setdefault(key[:2], []).append(key)
    rows = []
    for (workload, trace), keys in groups.items():
        declared = spec["per_layer" if trace else "end_to_end"]
        base_first = sum(base[k]["started_at"] < new[k]["started_at"] for k in keys)
        print(f"{workload} (trace {trace}): {len(keys)} pairs, base ran first in "
              f"{base_first}, the change in {len(keys) - base_first}")
        if abs(2 * base_first - len(keys)) > 1:
            print("  warning: the pairs do not alternate which side runs first")
        if len(keys) < 2:
            print("  fewer than two pairs; no verdicts")
            continue
        for m in declared:
            name = m["name"]
            if not all(name in base[k]["metrics"] and name in new[k]["metrics"] for k in keys):
                continue
            b = [base[k]["metrics"][name]["value"] for k in keys]
            n = [new[k]["metrics"][name]["value"] for k in keys]
            v = verdict(b, n, m["better"], m.get("bound"))
            mb = statistics.median(b)
            ratio = statistics.median(n) / mb if mb else float("nan")
            won = wins(b, n, m["better"])
            unit = m["unit"]
            print(f"  {name:32s} base {_fmt(b)} {unit} | new {_fmt(n)} {unit} | "
                  f"new/base {ratio:.4f} of base {mb:.5g} {unit} | wins {won}/{len(keys)} | {v}")
            rows.append({"workload": workload, "trace": trace, "metric": name,
                         "verdict": v, "ratio": ratio, "base_median": mb, "wins": won})
    return rows


def run_pairs(args) -> None:
    out = args.out
    sides = {"base": args.base_tree, "new": args.new_tree}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str((out / side).resolve())]
            print(f"pair {i + 1}/{args.pairs} seed {seed}: {side}", flush=True)
            subprocess.run(cmd, cwd=sides[side], check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_diff = sub.add_parser("diff", help="compare two directories of result files")
    p_diff.add_argument("base", type=Path)
    p_diff.add_argument("new", type=Path)
    p_pairs = sub.add_parser("pairs", help="run alternating pairs, then diff them")
    p_pairs.add_argument("--base-tree", type=Path, required=True)
    p_pairs.add_argument("--new-tree", type=Path, required=True)
    p_pairs.add_argument("--workload", required=True)
    p_pairs.add_argument("--pairs", type=int, default=10)
    p_pairs.add_argument("--first-seed", type=int, default=1)
    p_pairs.add_argument("--seconds", type=float, required=True)
    p_pairs.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_pairs.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    if args.command == "pairs":
        run_pairs(args)
        base, new = args.out / "base", args.out / "new"
    else:
        base, new = args.base, args.new
    rows = diff(base, new, spec)
    counts = {v: sum(r["verdict"] == v for r in rows) for v in sorted({r["verdict"] for r in rows})}
    print(f"verdicts: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
