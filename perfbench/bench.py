"""Monte Carlo cell benchmark for proxigmm: workloads, timed loop, results.

A workload is one Monte Carlo table cell: a scenario, a sample size, a
method list, the moment cap ``k_bar`` and the replication thread count.
The timed loop is closed: one process calls ``run_replications`` for a
chunk of replications, then the next chunk. Each chunk runs once and is
followed by one run of a calibration kernel that scales the times to a
reference machine speed (see :func:`measure`). Chunk ``c`` of a run with
seed ``s`` draws its datasets from base seed ``s * CHUNK_SEED_STRIDE + c``,
so a seed fixes every input and two runs of one seed see the same
datasets in the same order.

``run.py`` pins BLAS threads (``pin.py``) before numpy is imported.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import proxigmm as pg
from pin import BLAS_PIN

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALL_METHODS = ("naive", "rgmm", "p2sls", "pipw", "pdr", "gmm-div")
CHUNK_SEED_STRIDE = 1_000_000
# A standard error above this multiple of its method's median in the run
# counts as a failed record, like an error or a non-finite estimate.
WILD_SE_FACTOR = 10.0
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 8


@dataclass(frozen=True)
class Workload:
    """One Monte Carlo cell, run ``chunk`` replications per ``run_replications`` call.

    The first ``chunks`` chunks of every untraced run are its quality
    prefix (see :func:`measure`).
    """

    name: str
    scenario: str
    n: int
    methods: tuple[str, ...]
    k_bar: int
    threads: int
    chunk: int
    chunks: int

    @property
    def config(self) -> pg.ScenarioConfig:
        return pg.ScenarioConfig(scenario=self.scenario, n=self.n)


# Why each workload exists is recorded in README.md next to this list.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-I400-all", "I", 400, ALL_METHODS, 12, 1, 20, 20),
        Workload("mc-II800-all", "II", 800, ALL_METHODS, 12, 1, 10, 20),
        Workload("mc-II3200-gmm-k20-t2", "II", 3200, ("gmm-div",), 20, 2, 4, 16),
    )
}


def chunk_seed(seed: int, chunk: int) -> int:
    return seed * CHUNK_SEED_STRIDE + chunk


@dataclass
class Chunk:
    """Records and costs of one ``run_replications`` call."""

    records: list[dict]
    wall_s: float
    cpu_s: float


def run_chunk(wl: Workload, seed: int, index: int, threads: int, rep_fn=None) -> Chunk:
    """Run chunk ``index`` of the seed's inputs; tag each record with the index.

    ``rep_fn(base_seed, threads)`` replaces ``run_replications`` on the
    workload's cell, for the traced replication.
    """
    base = chunk_seed(seed, index)
    t0, c0 = time.perf_counter(), time.process_time()
    if rep_fn is None:
        records = pg.run_replications(
            wl.config, wl.methods, wl.chunk, base, k_bar=wl.k_bar, threads=threads
        )
    else:
        records = rep_fn(base, threads)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    for rec in records:
        rec["chunk"] = index
    return Chunk(records, wall, cpu)


# Calibration kernel: fixed numpy/scipy algebra on an 800 x 12 matrix plus
# interpreter work, the mix a replication runs, and no proxigmm code, so a
# change to the package cannot move it. CAL_REF_S is about its wall time
# on a lightly loaded 2-CPU machine (400 runs there: minimum 20.7 ms,
# deciles 21-38 ms); it only sets the scale of the reported rates.
_CAL_X = np.random.default_rng(0).standard_normal((800, 12))
_CAL_Y = np.random.default_rng(1).standard_normal(800)
CAL_REF_S = 0.025


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the calibration kernel."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0.0
    for _ in range(60):
        q, _r = scipy.linalg.qr(_CAL_X, mode="economic")
        w, _v = scipy.linalg.eigh(_CAL_X.T @ _CAL_X)
        b = scipy.linalg.lstsq(_CAL_X, _CAL_Y)[0]
        c = scipy.linalg.cho_factor(_CAL_X.T @ _CAL_X)[0]
        z = (_CAL_X * _CAL_Y[:, None]).T @ _CAL_X / 800
        counts: dict[int, float] = {}
        for i in range(300):
            counts[i % 17] = counts.get(i % 17, 0.0) + i * 0.5
        acc += float(q[0, 0] + w[0] + b[0] + c[0, 0] + z[0, 0]) + sum(counts.values())
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return time.perf_counter() - t0, time.process_time() - c0


@dataclass
class Measurement:
    """Outcome of :func:`measure`."""

    records: list[dict]
    reps: int
    wall_s: float
    cpu_s: float
    cal_wall_s: float
    cal_cpu_s: float
    chunks: int
    warnings: int

    @property
    def slowdown(self) -> float:
        """Mean calibration wall time over CAL_REF_S; above 1 the machine ran slow."""
        return self.cal_wall_s / self.chunks / CAL_REF_S

    @property
    def cpu_slowdown(self) -> float:
        """The same for the calibration's process CPU time."""
        return self.cal_cpu_s / self.chunks / CAL_REF_S


def measure(wl: Workload, seed: int, seconds: float) -> Measurement:
    """Closed loop over the seed's chunks, each followed by the calibration kernel.

    The first ``wl.chunks`` chunks always run; their records give the
    quality figures, which thus depend on the seed only. Further chunks
    run until ``seconds`` have passed and count for time only.

    Other tenants of the 2-CPU machine the benchmark was written on slow
    the same work by 20-40% for stretches of seconds to minutes. The
    calibration kernel right after each chunk slows with it: over 5-second
    windows chunk time varied by +-20% while chunk time over calibration
    time varied by +-4%. Dividing by the calibration's slowdown reports
    throughput at the machine speed where the kernel takes ``CAL_REF_S``.
    """
    calibrate()
    chunks: list[Chunk] = []
    cals: list[tuple[float, float]] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        while len(chunks) < wl.chunks or time.perf_counter() - t0 < seconds:
            chunks.append(run_chunk(wl, seed, len(chunks), wl.threads))
            if len(chunks) == wl.chunks:
                n_warnings = len(caught)
            cals.append(calibrate())
    return Measurement(
        records=[rec for c in chunks[: wl.chunks] for rec in c.records],
        reps=wl.chunk * len(chunks),
        wall_s=sum(c.wall_s for c in chunks),
        cpu_s=sum(c.cpu_s for c in chunks),
        cal_wall_s=sum(w for w, _ in cals),
        cal_cpu_s=sum(c for _, c in cals),
        chunks=len(chunks),
        warnings=n_warnings,
    )


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def record_flags(records: list[dict]) -> list[str | None]:
    """Why each record failed ("error", "non-finite", "wild-se") or None."""
    ses: dict[str, list[float]] = {}
    for r in records:
        if r["error"] is None and _finite(r["tau_hat"]) and _finite(r["se_tau"]):
            ses.setdefault(r["method"], []).append(r["se_tau"])
    medians = {m: statistics.median(v) for m, v in ses.items()}
    flags = []
    for r in records:
        if r["error"] is not None:
            flags.append("error")
        elif not (_finite(r["tau_hat"]) and _finite(r["se_tau"])):
            flags.append("non-finite")
        elif r["se_tau"] > WILD_SE_FACTOR * medians[r["method"]]:
            flags.append("wild-se")
        else:
            flags.append(None)
    return flags


def quality(wl: Workload, loop: Measurement) -> dict:
    """Seed-determined outcome figures of one loop (no timings)."""
    flags = record_flags(loop.records)
    gmm = [r for r in loop.records if r["method"] == "gmm-div"]
    summary = {s.method: s for s in pg.summarize(gmm, wl.config)}["gmm-div"]
    k_stars = [r["k_star"] for r in gmm if r["k_star"] is not None]
    return {
        "records": len(flags),
        "errors": flags.count("error"),
        "non_finite": flags.count("non-finite"),
        "wild_se": flags.count("wild-se"),
        "fail_share": sum(f is not None for f in flags) / len(flags),
        "warning_count": loop.warnings,
        "gmm_rmse": summary.rmse,
        "gmm_coverage": summary.coverage,
        "gmm_cover_gap": abs(summary.coverage - 0.95),
        "k_star_hist": {str(k): c for k, c in pg.k_histogram(gmm).items()},
        "k_star_mean": float(np.mean(k_stars)) if k_stars else float("nan"),
        "k_star_at_cap_share": (
            sum(k == wl.k_bar for k in k_stars) / len(k_stars) if k_stars else float("nan")
        ),
    }


def outputs_sane(wl: Workload, loop: Measurement, q: dict) -> list[str]:
    """Problems with the program's outputs; empty when they look right.

    Each successful record must carry an interval around its estimate, and
    ``gmm-div`` must succeed in most replications with a coverage that is
    not grossly off (the paper's cells sit near 0.95).
    """
    problems = []
    for r in loop.records:
        if r["error"] is None and _finite(r["se_tau"]) and not (
            r["ci_lo"] <= r["tau_hat"] <= r["ci_hi"]
        ):
            problems.append(f"{r['method']} rep {r['rep']}: interval misses its estimate")
            break
    gmm = [r for r in loop.records if r["method"] == "gmm-div"]
    gmm_ok = sum(r["error"] is None for r in gmm)
    if gmm_ok < 0.95 * len(gmm):
        problems.append(f"gmm-div succeeded in only {gmm_ok} of {len(gmm)} replications")
    if len(gmm) >= 50 and not q["gmm_coverage"] >= 0.80:
        problems.append(f"gmm-div coverage {q['gmm_coverage']:.3f} is below 0.80")
    return problems


def setup_seconds(wl: Workload, seed: int) -> list[float]:
    """Wall times of ``SETUP_RUNS`` fresh interpreters that import proxigmm and
    run one replication of the cell."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import proxigmm as pg; "
        f"pg.run_replications(pg.ScenarioConfig(scenario={wl.scenario!r}, n={wl.n}), "
        f"{wl.methods!r}, 1, {chunk_seed(seed, 0)}, k_bar={wl.k_bar}, threads={wl.threads})"
    )
    env = {**os.environ, **BLAS_PIN}
    walls = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(SRC)], env=env, cwd=ROOT,
            check=True, capture_output=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
    return walls


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": git_commit(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_untraced(wl: Workload, seed: int, seconds: float) -> tuple[dict, dict, Measurement]:
    """End-to-end metrics and quality figures of one untraced run.

    Every time is divided by the calibration kernel's mean slowdown over
    the loop (see :func:`measure`), ``setup_s`` too: the kernel runs next
    to the chunks average out its own jitter, while kernel runs between
    the set-ups did not track them (README.md). The raw readings go into
    the details.
    """
    setups = setup_seconds(wl, seed)
    loop = measure(wl, seed, seconds)
    q = quality(wl, loop)
    metrics = {
        "setup_s": metric(statistics.median(setups) / loop.slowdown, "s"),
        "reps_per_s": metric(loop.reps / loop.wall_s * loop.slowdown, "1/s"),
        "cpu_ms_per_rep": metric(1000 * loop.cpu_s / loop.reps / loop.cpu_slowdown, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ok_share": metric(1.0 - q["fail_share"], "share"),
    }
    q["raw"] = {
        "setup_s": setups,
        "reps_per_s": loop.reps / loop.wall_s,
        "cpu_ms_per_rep": 1000 * loop.cpu_s / loop.reps,
        "slowdown": loop.slowdown,
        "cpu_slowdown": loop.cpu_slowdown,
        "reps": loop.reps,
        "chunks": loop.chunks,
        "quality_reps": len({(r["chunk"], r["rep"]) for r in loop.records}),
    }
    return metrics, q, loop


def write_result(out_dir: Path, result: dict, spans: list) -> Path:
    """Write the result file and, for a traced run, its spans beside it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}.seed{result['seed']}.trace{int(result['trace'])}"
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    if spans:
        rows = [[s.sid, s.name, s.parent, s.rep, s.start, s.end] for s in spans]
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(rows) + "\n")
    return path
