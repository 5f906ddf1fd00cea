"""Run one proxigmm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-II800-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --write-fingerprint

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Every run first checks the behaviour fingerprint
(``fingerprint.json``), writes a result file with its environment under
``--out``, and prints one JSON object as the last line of standard output.
``--workload all`` runs each workload in a process of its own, so that
process-wide figures such as ``peak_rss_mb`` belong to that workload.
See README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pin  # noqa: F401  (first: pins BLAS threads before numpy loads)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import proxigmm from it."""
    if not (SRC / "proxigmm" / "__init__.py").is_file():
        sys.exit(f"run.py: no proxigmm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import proxigmm

    if Path(proxigmm.__file__).resolve().parent != SRC / "proxigmm":
        sys.exit(f"run.py: proxigmm was imported from {proxigmm.__file__}, not {SRC}")


_import_package()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import bench  # noqa: E402
import fingerprint  # noqa: E402
import tracing  # noqa: E402


def run_workload(wl: bench.Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """One run: fingerprint check (which also warms up), then the measured loop.

    Returns the result record and, for a traced run, its spans.
    """
    started = time.time()
    env = bench.environment(seed)
    fp = fingerprint.check_workload(wl)
    problems = [f"fingerprint {p}" for p in fp["problems"]]
    spans = []
    if trace:
        metrics, checks, spans = tracing.run_traced(wl, seed, seconds)
        if checks["mismatched_records"]:
            problems.append(f"traced estimates differ at {checks['mismatched_records']}")
        if not checks["compared_records"]:
            problems.append("no traced record overlapped an untraced one")
        attempted, failed = checks["records"], checks["errors"]
        details = checks
    else:
        metrics, details, loop = bench.run_untraced(wl, seed, seconds)
        problems += bench.outputs_sane(wl, loop, details)
        attempted, failed = details["records"], details["errors"]
    details["tau_drift_max"] = fp["tau_drift_max"]
    details["fingerprint_records"] = fp["records"]
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_at": started,
        "env": env,
        "workload_spec": {"scenario": wl.scenario, "n": wl.n, "methods": list(wl.methods),
                          "k_bar": wl.k_bar, "threads": wl.threads, "chunk": wl.chunk,
                          "chunks": wl.chunks},
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }, spans


def report(result: dict, path: Path) -> None:
    wl, d = result["workload_spec"], result["details"]
    print(f"{result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"scenario {wl['scenario']}, n={wl['n']}, k_bar={wl['k_bar']}, "
          f"threads={wl['threads']}, methods {','.join(wl['methods'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        print(f"  fail_share {d['fail_share']:.4g} ({d['errors']} errors, {d['non_finite']} "
              f"non-finite, {d['wild_se']} wild SEs of {d['records']} records)")
        print(f"  warning_count {d['warning_count']}")
        raw = d["raw"]
        print(f"  gmm_rmse {d['gmm_rmse']:.5g}, gmm_cover_gap {d['gmm_cover_gap']:.4g} "
              f"(coverage {d['gmm_coverage']:.4f} over {raw['quality_reps']} reps)")
        print(f"  K* histogram {d['k_star_hist']}")
        print(f"  raw: {raw['reps_per_s']:.4g} reps/s, {raw['cpu_ms_per_rep']:.4g} CPU ms/rep over "
              f"{raw['reps']} reps; machine slowdown {raw['slowdown']:.3f} (wall), "
              f"{raw['cpu_slowdown']:.3f} (CPU)")
    print(f"  fingerprint: {d['fingerprint_records']} records, "
          f"tau_drift_max {d['tau_drift_max']:.3g}")
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")
    print(f"  result file {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*bench.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "results",
                        help="directory for result files")
    parser.add_argument("--write-fingerprint", action="store_true",
                        help="rewrite fingerprint.json from the current code and exit")
    args = parser.parse_args(argv)
    if args.write_fingerprint:
        fingerprint.write_reference()
        print(f"wrote {fingerprint.REFERENCE}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--out", str(args.out)]).returncode
            for name in bench.WORKLOADS
        ]
        return 0 if not any(codes) else 1
    result, spans = run_workload(
        bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = bench.write_result(args.out, result, spans)
    report(result, path)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
