"""Synthetic data generation and Monte Carlo studies.

The generative model draws a standard normal covariate and unmeasured
confounder, a logistic treatment, Gaussian proxies on each side, and a
linear outcome; the two study scenarios differ only in whether the proxy
and outcome noise scales depend on the covariate. Replications are keyed
by (base_seed, replication index, stream), with one counter-based stream
per random variable, so results are bit-identical for any worker count and
platform. Multi-worker calls run in one pool of forked worker processes
that the process keeps and reuses (see ``_replicate``).
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import sys
import threading
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtri

from . import baselines
from .bridges import DgpCoefficients, OutcomeBridge
from .data import Dataset, transform_column
from .errors import DimensionMismatch, ProxiGmmError
from .gmm import (
    GmmFit,
    _first_step_decomposition,
    _fixed_weight_fit,
    _Moments,
    confidence_interval,
    wald_test,
)
from .selection import select_and_fit, select_k
from .sieve import SieveSpec, build_basis, orthonormalize

SCENARIOS = ("I", "II")
# Reference estimators by method name; "gmm-div" is the moment-selected fit.
BASELINES = {
    "naive": baselines.naive_gformula,
    "rgmm": baselines.rgmm,
    "p2sls": baselines.p2sls,
    "pipw": baselines.pipw,
    "pdr": baselines.pdr,
}
METHODS = (*BASELINES, "gmm-div")
MISSPEC_LEVELS = ("correct", "minor", "moderate", "significant")
DEFAULT_K_BAR = 12

# Stream ids within one replication, in draw order.
_STREAMS = ("x", "u", "a", "noise_z", "noise_w", "noise_y")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: coefficients, noise scenario, sample size.

    Scenario "I" uses unit noise scales everywhere; scenario "II" keeps the
    treatment-proxy noise at 1 but shrinks the outcome-proxy and outcome
    noise as the covariate moves away from zero, which is what makes
    higher-order instruments informative.
    """

    scenario: str = "I"
    n: int = 400
    coefficients: DgpCoefficients = field(default_factory=DgpCoefficients)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise DimensionMismatch(f"unknown scenario {self.scenario!r}")
        if self.n < 1:
            raise DimensionMismatch("sample size must be positive")

    def noise_scales(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ones = np.ones_like(x)
        if self.scenario == "I":
            return ones, ones, ones
        return ones, (0.3 + x**2) ** -1.0, (0.5 + 0.8 * x**2) ** -1.0


def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    # Integers in [1, 2^53) mapped to (0, 1): endpoints are unreachable, so
    # the normal inverse CDF below never sees 0 or 1.
    return rng.integers(1, 2**53, size=n) / 2**53


def _streams(seed, rep: int | None) -> dict[str, np.random.Generator]:
    entropy = (int(seed),) if rep is None else (int(seed), int(rep))
    children = np.random.SeedSequence(entropy).spawn(len(_STREAMS))
    return {
        name: np.random.Generator(np.random.Philox(child))
        for name, child in zip(_STREAMS, children)
    }


def generate(config: ScenarioConfig, seed, rep: int | None = None) -> Dataset:
    """Draw one dataset; the confounder stays internal to the generator.

    ``seed`` plus an optional replication index key the random streams, so
    ``generate(cfg, s, r)`` is reproducible elementwise regardless of how
    many replications run or in what order.
    """
    rngs = _streams(seed, rep)
    n = config.n
    coef = config.coefficients
    x = ndtri(_uniform_open(rngs["x"], n))
    u = ndtri(_uniform_open(rngs["u"], n))
    a0, ax, au = coef.treatment_logit
    prob = expit(a0 + ax * x + au * u)
    a = (_uniform_open(rngs["a"], n) < prob).astype(float)
    s1, s2, s3 = config.noise_scales(x)
    z0, za, zx, zu = coef.z_proxy
    z = z0 + za * a + zx * x + zu * u + s1 * ndtri(_uniform_open(rngs["noise_z"], n))
    w0, wx, wu = coef.w_proxy
    w = w0 + wx * x + wu * u + s2 * ndtri(_uniform_open(rngs["noise_w"], n))
    y0, ya, yw, yx, yu = coef.outcome
    y = y0 + ya * a + yw * w + yx * x + yu * u + s3 * ndtri(_uniform_open(rngs["noise_y"], n))
    return Dataset(y=y, a=a, z=z, w=w, x=x)


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregate Monte Carlo metrics for one method in one study cell.

    ``sd`` is the sample standard deviation of the point estimates and
    ``rmse`` is defined as sqrt(abs_bias^2 + sd^2). ``degenerate_sd`` marks
    a single-replication cell whose spread is reported as 0.
    """

    scenario: str
    n: int
    method: str
    abs_bias: float
    sd: float
    rmse: float
    mean_ci_length: float
    median_ci_length: float
    coverage: float
    power: float
    reps_converged: int
    degenerate_sd: bool = False


def _check_methods(methods: tuple[str, ...]) -> None:
    for m in methods:
        if m not in METHODS:
            raise DimensionMismatch(f"unknown method {m!r}; choose from {METHODS}")


def _fit_record(fit: GmmFit, k_star: int) -> dict:
    lo, hi = confidence_interval(fit)
    _, reject = wald_test(fit)
    return {
        "tau_hat": fit.tau_hat, "se_tau": fit.se_tau,
        "ci_lo": lo, "ci_hi": hi, "reject": reject, "k_star": k_star,
    }


def _run_method(ds: Dataset, method: str, k_bar: int, spec: SieveSpec) -> dict:
    if method == "gmm-div":
        bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
        fit, diag = select_and_fit(ds, bridge, spec, k_bar)
        return _fit_record(fit, diag.k_star)
    report = BASELINES[method](ds)
    lo, hi = report.ci95()
    return {
        "tau_hat": report.tau_hat, "se_tau": report.se_tau,
        "ci_lo": lo, "ci_hi": hi, "reject": report.wald_reject(), "k_star": None,
    }


def _method_records(rep: int, methods: tuple[str, ...], run) -> list[dict]:
    """One record per method of ``run(method)``; a method failure is recorded.

    ``pipw`` and ``pdr`` on one dataset share its treatment-bridge solve.
    """
    out = []
    with baselines._one_treatment_solve_per_dataset():
        for method in methods:
            rec = {"rep": rep, "method": method}
            try:
                rec.update(run(method))
                rec["error"] = None
            except ProxiGmmError as exc:
                rec.update(
                    tau_hat=np.nan, se_tau=np.nan, ci_lo=np.nan, ci_hi=np.nan,
                    reject=None, k_star=None, error=f"{type(exc).__name__}: {exc}",
                )
            out.append(rec)
    return out


# Python 3.12 and later warn in the parent when they fork a process that
# runs other threads. Here those are a multi-threaded BLAS's pool, which
# OpenBLAS (numpy's and scipy's wheels) shuts down and rebuilds across a
# fork, and the child runs only replications, so the warning is silenced
# around pool start. Threads of the caller's own are not covered: a caller
# that runs them should keep ``threads=1``.
_FORK_WITH_THREADS = r"This process .* is multi-threaded, use of fork\(\)"


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker process."""


def _rep_in_worker(one_rep, rep: int) -> tuple[list[dict] | None, list[tuple], tuple | None]:
    """``one_rep(rep)`` in a worker: its records, the warnings it raised, and
    the exception that ended it with that exception's traceback, if any."""
    records = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records = one_rep(rep)
        except Exception as exc:
            error = exc, traceback.format_exc()
    return records, [(w.message, w.category, w.filename, w.lineno) for w in caught], error


def _warn_again(caught: list[tuple]) -> None:
    """Emit warnings recorded in a worker as if this process had raised them.

    Each goes through this process's filters with the module name and
    once-per-location registry of the module that raised it, as in the
    serial loop. A warning from a file no loaded module owns gets the
    defaults ``warn_explicit`` derives from the file name; an explicit
    ``module=None`` would drop it.
    """
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        origin = {} if module is None else {
            "module": module.__name__,
            "registry": vars(module).setdefault("__warningregistry__", {}),
        }
        warnings.warn_explicit(message, category, filename, lineno, **origin)


def _usable_cpus() -> int:
    """CPUs this process may run on; the machine's count where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The worker pool this process keeps for multi-worker calls, as (owner pid,
# worker count, executor); None until a call needs one.
_pool: tuple[int, int, ProcessPoolExecutor] | None = None

# Held by a multi-worker call for as long as it uses the pool, and by
# ``_retire_pool``, so no thread replaces or shuts down a pool another
# thread's call is using. Reentrant, because a call retires a broken pool
# while holding it.
_pool_lock = threading.RLock()


def _new_pool_lock() -> None:
    """After a fork: a fresh lock, as the child has none of the threads that
    may have held its parent's."""
    global _pool_lock
    _pool_lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool_lock)


def _retire_pool() -> None:
    """Forget the kept pool, and shut it down if this process owns it.

    Waits for a call that uses the pool to finish. A forked child inherits
    its parent's pool object but none of its workers, so there it is only
    dropped.
    """
    global _pool
    with _pool_lock:
        kept, _pool = _pool, None
        if kept is not None and kept[0] == os.getpid():
            kept[2].shutdown(wait=True, cancel_futures=True)


def _end_with_parent(parent: int) -> None:
    """Worker initializer: end this worker once the process that forked it
    is gone. A parent killed by a signal runs no exit hook, and its idle
    workers would otherwise wait on their task queue for ever."""
    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _kept_pool(workers: int) -> ProcessPoolExecutor:
    """The kept pool of ``workers`` processes; a new one replaces a pool of
    another size or of another process. Its workers fork at its first
    submission. The caller holds ``_pool_lock``."""
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _retire_pool()
        executor = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_end_with_parent, initargs=(os.getpid(),),
        )
        _pool = (os.getpid(), workers, executor)
    return _pool[2]


def _replicate(reps: int, threads: int, one_rep) -> list[dict]:
    """Records of ``one_rep(rep)`` for every replication, in replication order.

    ``threads`` is the number of worker processes, capped at ``reps`` and
    at the CPUs this process may run on; below 1 it is a
    ``DimensionMismatch``. With one, or where the platform cannot fork
    (Windows), the replications run in this process. Otherwise they run in
    the pool this process keeps: its workers are forked at the first call
    that needs them and serve every later call with the same worker count,
    so they see module state (``generate``, ``BASELINES``, patches of
    either) as it was when they were forked. Keeping the pool pays only in
    a process that makes repeated multi-worker calls, such as a loop over
    table cells or a benchmark's short chunks; a single call forks once
    either way. A call with another count, a forked child's first call,
    and the call after a pool broke (a worker died: ``BrokenProcessPool``)
    fork a new pool; shutdown is left to the interpreter's exit.
    Multi-worker calls from several threads of one process take the pool
    one at a time. Each task carries ``one_rep``, which must pickle (a
    module-level function, or a ``functools.partial`` of one), and each
    replication seeds itself, so the records do not depend on which worker
    ran it. A worker behaves like the serial loop: the warnings a
    replication raised are emitted here, in replication order, and then the
    exception that ended it, if any, is raised here with its type, chained
    to its worker traceback.
    """
    if threads < 1:
        raise DimensionMismatch(f"threads must be at least 1, got {threads}")
    if min(threads, reps) <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    else:
        workers = min(threads, reps, _usable_cpus())
    if workers <= 1:
        return [rec for rep in range(reps) for rec in one_rep(rep)]
    out = []
    with _pool_lock:
        pool = _kept_pool(workers)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", _FORK_WITH_THREADS, DeprecationWarning)
                results = pool.map(_rep_in_worker, itertools.repeat(one_rep), range(reps))
            try:
                for records, caught, error in results:
                    _warn_again(caught)
                    if error is not None:
                        exc, worker_traceback = error
                        raise exc from _WorkerTraceback(worker_traceback)
                    out.extend(records)
            finally:
                results.close()  # cancels the replications no worker has taken yet
        except BrokenProcessPool:
            _retire_pool()
            raise
    return out


def _replication(config, methods, base_seed, k_bar, spec, rep: int) -> list[dict]:
    """Records of replication ``rep`` of a ``run_replications`` call."""
    ds = generate(config, base_seed, rep)
    return _method_records(rep, methods, lambda m: _run_method(ds, m, k_bar, spec))


def run_replications(
    config: ScenarioConfig,
    methods: tuple[str, ...],
    reps: int,
    base_seed: int,
    k_bar: int = DEFAULT_K_BAR,
    sieve_spec: SieveSpec | None = None,
    threads: int = 1,
) -> list[dict]:
    """Per-replication estimation records for a grid of methods.

    A method failure inside a replication is recorded, not raised; any
    other exception propagates. ``threads`` is the number of worker
    processes the replications run in (see ``_replicate``), at least 1; it
    affects speed only: the records and their order are identical for any
    count, and warnings raised in a worker are emitted in this process.
    """
    _check_methods(methods)
    spec = sieve_spec if sieve_spec is not None else SieveSpec()
    job = functools.partial(_replication, config, methods, base_seed, k_bar, spec)
    return _replicate(reps, threads, job)


def summarize(
    records: list[dict], config: ScenarioConfig, tau0: float | None = None
) -> list[ReplicationSummary]:
    """Aggregate per-replication records into per-method summaries."""
    if tau0 is None:
        tau0 = config.coefficients.true_ate
    methods = []
    for rec in records:
        if rec["method"] not in methods:
            methods.append(rec["method"])
    out = []
    for method in methods:
        good = [r for r in records if r["method"] == method and r["error"] is None]
        if not good:
            out.append(
                ReplicationSummary(
                    scenario=config.scenario, n=config.n, method=method,
                    abs_bias=np.nan, sd=np.nan, rmse=np.nan,
                    mean_ci_length=np.nan, median_ci_length=np.nan,
                    coverage=np.nan, power=np.nan,
                    reps_converged=0, degenerate_sd=True,
                )
            )
            continue
        tau = np.array([r["tau_hat"] for r in good])
        lo = np.array([r["ci_lo"] for r in good])
        hi = np.array([r["ci_hi"] for r in good])
        reject = np.array([bool(r["reject"]) for r in good])
        abs_bias = float(abs(tau.mean() - tau0))
        degenerate = tau.size < 2
        sd = 0.0 if degenerate else float(tau.std(ddof=1))
        out.append(
            ReplicationSummary(
                scenario=config.scenario, n=config.n, method=method,
                abs_bias=abs_bias, sd=sd,
                rmse=float(np.sqrt(abs_bias**2 + sd**2)),
                mean_ci_length=float(np.mean(hi - lo)),
                median_ci_length=float(np.median(hi - lo)),
                coverage=float(np.mean((lo <= tau0) & (tau0 <= hi))),
                power=float(reject.mean()),
                reps_converged=int(tau.size),
                degenerate_sd=degenerate,
            )
        )
    return out


def k_histogram(records: list[dict]) -> dict[int, int]:
    """Counts of the selected moment count across replications."""
    counts: dict[int, int] = {}
    for rec in records:
        k = rec.get("k_star")
        if k is not None:
            counts[k] = counts.get(k, 0) + 1
    return dict(sorted(counts.items()))


def run_study(
    config: ScenarioConfig,
    methods: tuple[str, ...] = METHODS,
    reps: int = 500,
    base_seed: int = 0,
    **kwargs,
) -> list[ReplicationSummary]:
    """Full Monte Carlo table cell: replicate, estimate, summarize."""
    records = run_replications(config, methods, reps, base_seed, **kwargs)
    return summarize(records, config)


def _frozen_design_fit(
    ds_clean: Dataset,
    ds_distorted: Dataset,
    spec: SieveSpec,
    k_bar: int,
) -> dict:
    """Moment-selected fit whose tuning stage is frozen on the clean data.

    The moment count and the floored optimal weight are computed from
    ``ds_clean``; only the final bridge refit sees ``ds_distorted``. The
    instrument basis involves only columns the distortion never touches,
    so the two datasets share it row for row.
    """
    bridge = OutcomeBridge.linear(ds_clean.w.shape[1], ds_clean.x.shape[1])
    diag = select_k(ds_clean, bridge, spec, k_bar)
    basis = orthonormalize(build_basis(ds_clean, spec, diag.k_star))
    decomp = _first_step_decomposition(_Moments.build(ds_clean, basis.u, bridge))
    fit = _fixed_weight_fit(
        _Moments.build(ds_distorted, basis.u, bridge),
        decomp.floored_weight(),
        decomp.floored_weight_sqrt(),
    )
    return _fit_record(fit, diag.k_star)


def _misspec_replication(config, level, methods, base_seed, k_bar, spec, rep: int) -> list[dict]:
    """Records of replication ``rep`` of a distorted-level misspecification study."""
    ds_clean = generate(config, base_seed, rep)
    ds_distorted = transform_column(ds_clean, "w1", level)

    def run(method: str) -> dict:
        if method == "gmm-div":
            return _frozen_design_fit(ds_clean, ds_distorted, spec, k_bar)
        return _run_method(ds_distorted, method, k_bar, spec)

    return _method_records(rep, methods, run)


def run_misspec_study(
    level: str,
    n: int = 800,
    reps: int = 500,
    base_seed: int = 0,
    methods: tuple[str, ...] = ("gmm-div", "pdr"),
    k_bar: int = DEFAULT_K_BAR,
    sieve_spec: SieveSpec | None = None,
    threads: int = 1,
) -> list[ReplicationSummary]:
    """Scenario-II study with the outcome proxy distorted at the fitting stage.

    ``level`` is one of "correct", "minor", "moderate", "significant"; the
    first runs the standard pipeline on untouched data. For the distorted
    levels the moment-selected GMM freezes its tuning on the clean draw:
    the moment count and the optimal weight come from the undistorted
    replication, and only the bridge refit sees the transformed proxy
    column, so the summary isolates what proxy misspecification does to an
    otherwise well-tuned estimator rather than mixing in its effect on the
    tuning stage. Baseline methods carry no tuning stage to freeze and see
    the transformed column everywhere. ``threads`` counts worker processes,
    at least 1, as in ``run_replications``; the summaries are identical for
    any count.
    """
    if level not in MISSPEC_LEVELS:
        raise DimensionMismatch(f"unknown level {level!r}; choose from {MISSPEC_LEVELS}")
    _check_methods(methods)
    config = ScenarioConfig(scenario="II", n=n)
    if level == "correct":
        records = run_replications(
            config, methods, reps, base_seed, k_bar=k_bar,
            sieve_spec=sieve_spec, threads=threads,
        )
        return summarize(records, config)
    spec = sieve_spec if sieve_spec is not None else SieveSpec()
    job = functools.partial(
        _misspec_replication, config, level, methods, base_seed, k_bar, spec
    )
    return summarize(_replicate(reps, threads, job), config)


def _bspline_replication(config, specs, base_seed, k_bar, reps, index: int) -> list[dict]:
    """Records of replication ``index % reps`` with sieve ``specs[index // reps]``."""
    return _replication(
        config, ("gmm-div",), base_seed, k_bar, specs[index // reps], index % reps
    )


def run_bspline_study(
    n: int = 800,
    reps: int = 500,
    base_seed: int = 0,
    k_bar: int = DEFAULT_K_BAR,
    threads: int = 1,
) -> dict[str, list[ReplicationSummary]]:
    """Scenario-II comparison of the power-series and B-spline bases.

    Runs the moment-selected GMM twice per replication grid, once per
    basis family, and returns summaries keyed by family name. The spline
    basis uses cubic pieces with no interior knots so that, at the default
    moment budget, the candidate list reaches the treatment-by-covariate
    bumps that carry the efficiency gain. Both families' replications run
    in one ``_replicate`` call over ``threads`` worker processes, at least
    1, as in ``run_replications``; the summaries are identical for any
    count.
    """
    config = ScenarioConfig(scenario="II", n=n)
    specs = {
        "power": SieveSpec(family="power"),
        "bspline": SieveSpec(family="bspline", interior_knots=0),
    }
    job = functools.partial(
        _bspline_replication, config, tuple(specs.values()), base_seed, k_bar, reps
    )
    # One method, so one record per replication: family i holds the i-th
    # block of ``reps`` records.
    records = _replicate(len(specs) * reps, threads, job)
    return {
        family: summarize(records[i * reps:(i + 1) * reps], config)
        for i, family in enumerate(specs)
    }
