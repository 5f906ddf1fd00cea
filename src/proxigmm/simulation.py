"""Synthetic data generation and Monte Carlo studies.

The generative model draws a standard normal covariate and unmeasured
confounder, a logistic treatment, Gaussian proxies on each side, and a
linear outcome; the two study scenarios differ only in whether the proxy
and outcome noise scales depend on the covariate. Replications are keyed
by (base_seed, replication index, stream), with one counter-based stream
per random variable, so results are bit-identical for any worker count and
platform. Multi-worker calls run in one pool of forked worker processes
that the process keeps and reuses (see ``_replicate``).

A misspecification level is part of the cell (``ScenarioConfig.distortion``):
``generate`` distorts the outcome proxy by that level's formula
(``_DISTORTIONS``) after drawing the outcome from the true one, so the
scenario study and the misspecification study run one replication loop
(``_replication``) over one kind of cell. The methods of one replication
share its bridge fits because they share its dataset, which keeps them
(``gmm._fit_each``). A serial call runs its replications in blocks of at
most ``_BLOCK``: a block's datasets are generated together, and every fit
the requested baselines share (``naive``'s regression, the outcome-bridge
IV fit, the treatment-bridge solve and ``pipw``'s report) runs once over
all of them as one stacked call, before the methods run replication by
replication. A multi-worker call runs one replication per task, a block
of one. The records are the same either way, bit for bit.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import threading
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from . import baselines
from .bridges import DgpCoefficients, OutcomeBridge
from .data import Dataset
from .errors import DimensionMismatch, ProxiGmmError
from .gmm import _fit_each, _sieve_iv_fits, confidence_interval, wald_test
from .selection import select_and_fit
from .sieve import SieveSpec

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
# The fields of a replication record (``run_replications``), in the order
# that the CLI's estimates table and the record scripts read them.
RECORD_FIELDS = (
    "rep", "method", "tau_hat", "se_tau", "ci_lo", "ci_hi", "reject", "k_star", "error",
)
# The outcome proxy at each misspecification level, as a function of the
# true one.
_DISTORTIONS = {
    "correct": lambda w: w,
    "minor": lambda w: w + 0.1 * w**2,
    "moderate": lambda w: w + 0.5 * w**2,
    "significant": lambda w: np.sqrt(np.abs(w)) + 1.0,
}
MISSPEC_LEVELS = tuple(_DISTORTIONS)
DEFAULT_K_BAR = 12
# The most replications a serial call runs as one block: their datasets
# are generated together and every fit the requested baselines share is
# one stacked call over them (``_replication``). It bounds the datasets and
# stacked arrays held at once, whatever the call's replication count: at
# I/400 a block of 20 ran within noise of a block of 10 per replication
# and peaked about 2 MB higher.
_BLOCK = 10

# The structural coefficients of every simulation cell.
_COEFFICIENTS = DgpCoefficients()
# Stream ids within one replication, in draw order.
_STREAMS = ("x", "u", "a", "noise_z", "noise_w", "noise_y")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: noise scenario, sample size and outcome-proxy
    distortion. Every cell draws from the default :class:`DgpCoefficients`.

    Scenario "I" uses unit noise scales everywhere; scenario "II" keeps the
    treatment-proxy noise at 1 but shrinks the outcome-proxy and outcome
    noise as the covariate moves away from zero, which is what makes
    higher-order instruments informative. ``distortion`` is one of
    ``MISSPEC_LEVELS``: at a level other than "correct" every method sees
    the outcome proxy ``w1`` distorted at that level ("minor" adds a tenth
    of its square, "moderate" half of its square, "significant" replaces
    it with sqrt(|w1|) + 1) while the outcome follows the true one, as on
    data whose outcome bridge is misspecified.
    """

    scenario: str = "I"
    n: int = 400
    distortion: str = "correct"

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise DimensionMismatch(f"unknown scenario {self.scenario!r}")
        if self.n < 1:
            raise DimensionMismatch("sample size must be positive")
        if self.distortion not in MISSPEC_LEVELS:
            raise DimensionMismatch(
                f"unknown level {self.distortion!r}; choose from {MISSPEC_LEVELS}"
            )

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
    if min(entropy) < 0:
        raise DimensionMismatch(f"seed and replication index must be non-negative, got {entropy}")
    children = np.random.SeedSequence(entropy).spawn(len(_STREAMS))
    return {
        name: np.random.Generator(np.random.Philox(child))
        for name, child in zip(_STREAMS, children)
    }


# The normal quantile of Cephes ``ndtri`` (public domain), the algorithm of
# ``scipy.special.ndtri``: a rational function of (p - 1/2)² where
# exp(-2) < p <= 1 - exp(-2), and of 1/sqrt(-2 log p) in the tails, with a
# second pair of polynomials once that root reaches 8 (p below exp(-32)).
# Each denominator's leading coefficient is 1 and is left out.
_NDTRI_TAIL = 0.13533528323661269189  # exp(-2)
_NDTRI_SQRT_2PI = 2.50662827463100050242
_NDTRI_CENTRAL = (
    (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
     1.39312609387279679503e1, -1.23916583867381258016e0),
    (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
     -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
     1.59056225126211695515e1, -1.18331621121330003142e0),
)
_NDTRI_NEAR = (
    (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
     4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4),
    (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
     1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4),
)
_NDTRI_FAR = (
    (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
     1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
     3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9),
    (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
     2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
     2.89247864745380683936e-6, 6.79019408009981274425e-9),
)


def _horner(t: np.ndarray, coefs) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of ``coefs`` at ``t`` by Horner's rule, in
    Cephes' operation order (``polevl``, and ``p1evl`` for the monic
    denominator)."""
    num, den = coefs
    p = np.full_like(t, num[0])
    for c in num[1:]:
        p *= t
        p += c
    q = t + den[0]
    for c in den[1:]:
        q *= t
        q += c
    return p, q


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of every entry of ``p``.

    Cephes ``ndtri`` step for step, so the central region is bit-identical
    to ``scipy.special.ndtri``; in the tails numpy's ``log`` differs from
    the C library's in the last bit on some inputs, which moves a result by
    a few ulp. 0 maps to -inf, 1 to inf, and anything outside [0, 1] to
    NaN. The central formula is evaluated on every entry, which costs less
    than gathering the central three quarters of a normal draw; only the
    tails are gathered.
    """
    p = np.asarray(p, dtype=float)
    # Entries outside (0, 1) overflow or take logs of non-positive numbers
    # below; they are NaN by then and are set to Cephes' values at the end.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = p - 0.5
        y2 = y * y
        out, den = _horner(y2, _NDTRI_CENTRAL)
        out *= y2
        out /= den
        out *= y
        out += y
        out *= _NDTRI_SQRT_2PI
        # Index arrays gather and scatter the scattered tail entries several
        # times faster than a boolean mask.
        tail = np.flatnonzero(~((p > _NDTRI_TAIL) & (p <= 1.0 - _NDTRI_TAIL)))
        pt = p[tail]
        upper = pt > 0.5
        x = np.log(np.where(upper, 1.0 - pt, pt))
        x *= -2.0
        np.sqrt(x, out=x)
        x0 = np.log(x)
        x0 /= x
        np.subtract(x, x0, out=x0)
        z = 1.0 / x
        num, den = _horner(z, _NDTRI_NEAR)
        far = x >= 8.0
        if far.any():
            num[far], den[far] = _horner(z[far], _NDTRI_FAR)
        num *= z
        num /= den
        np.subtract(x0, num, out=x0)
    x0 = np.where(upper, x0, -x0)
    x0[pt == 0.0] = -np.inf
    x0[pt == 1.0] = np.inf
    out[tail] = x0
    return out


def _expit(t: np.ndarray) -> np.ndarray:
    """Logistic function, ``scipy.special.expit``'s formula 1 / (1 + exp(-t))."""
    # exp(-t) overflows to inf for t below about -709, where the result is 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def generate(config: ScenarioConfig, seed, rep: int | None = None) -> Dataset:
    """Draw one dataset; the confounder stays internal to the generator.

    ``seed`` plus an optional replication index key the random streams, so
    ``generate(cfg, s, r)`` is reproducible elementwise regardless of how
    many replications run or in what order; either one negative raises
    :class:`DimensionMismatch`. The outcome proxy is distorted at
    ``config.distortion`` after the outcome is drawn from the true one.
    """
    rngs = _streams(seed, rep)
    n = config.n
    coef = _COEFFICIENTS
    # Every normal draw goes through one quantile call.
    normal = ("x", "u", "noise_z", "noise_w", "noise_y")
    x, u, e_z, e_w, e_y = _ndtri(
        np.concatenate([_uniform_open(rngs[name], n) for name in normal])
    ).reshape(len(normal), n)
    a0, ax, au = coef.treatment_logit
    prob = _expit(a0 + ax * x + au * u)
    a = (_uniform_open(rngs["a"], n) < prob).astype(float)
    s1, s2, s3 = config.noise_scales(x)
    z0, za, zx, zu = coef.z_proxy
    z = z0 + za * a + zx * x + zu * u + s1 * e_z
    w0, wx, wu = coef.w_proxy
    w = w0 + wx * x + wu * u + s2 * e_w
    y0, ya, yw, yx, yu = coef.outcome
    y = y0 + ya * a + yw * w + yx * x + yu * u + s3 * e_y
    return Dataset(y=y, a=a, z=z, w=_DISTORTIONS[config.distortion](w), x=x)


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregate Monte Carlo metrics for one method in one study cell.

    ``sd`` is the sample standard deviation of the point estimates, 0 for
    a single replication, and ``rmse`` is defined as
    sqrt(abs_bias^2 + sd^2).
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


def _check_methods(methods: tuple[str, ...]) -> None:
    for m in methods:
        if m not in METHODS:
            raise DimensionMismatch(f"unknown method {m!r}; choose from {METHODS}")
    if repeated := sorted({m for m in methods if methods.count(m) > 1}):
        raise DimensionMismatch(f"methods {repeated} are named more than once")


# Python 3.12 and later warn in the parent when they fork a process that
# runs other threads. Here those are a multi-threaded BLAS's pool, which
# OpenBLAS (numpy's and scipy's wheels) shuts down and rebuilds across a
# fork, and the child runs only replications, so the warning is silenced
# around pool start. Threads of the caller's own are not covered: a caller
# that runs them should keep ``threads=1``.
_FORK_WITH_THREADS = r"This process .* is multi-threaded, use of fork\(\)"


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker process."""


def _rep_in_worker(run_block, rep: int) -> tuple[list[dict] | None, list[tuple], tuple | None]:
    """``run_block`` of replication ``rep`` alone in a worker: its records,
    the warnings it raised, and the exception that ended it with that
    exception's traceback, if any."""
    records = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records = run_block(range(rep, rep + 1))
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
    if not caught:
        return
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


def _replicate(reps: int, threads: int, run_block) -> list[dict]:
    """Records of every replication, in replication order, from
    ``run_block(block)``, which returns the records of a ``range`` of
    consecutive replications in their order.

    ``threads`` is the number of worker processes, capped at ``reps`` and
    at the CPUs this process may run on; below 1 it is a
    ``DimensionMismatch``. With one, or where the platform cannot fork
    (Windows), the replications run in this process, in blocks of at most
    ``_BLOCK``, so that a block's shared fits run as one stacked call.
    Otherwise each replication is one task, a block of one, run in
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
    one at a time. Each task carries ``run_block``, which must pickle (a
    module-level function, or a ``functools.partial`` of one), and each
    replication seeds itself, so the records do not depend on which worker
    ran it or how the replications were blocked. A worker behaves like the
    serial loop: the warnings a replication raised are emitted here, in
    replication order, and then the exception that ended it, if any, is
    raised here with its type, chained to its worker traceback. A call that
    raises first cancels the replications no worker has taken and waits for
    those under way.
    """
    if threads < 1:
        raise DimensionMismatch(f"threads must be at least 1, got {threads}")
    if min(threads, reps) <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    else:
        workers = min(threads, reps, _usable_cpus())
    if workers <= 1:
        return [
            rec
            for start in range(0, reps, _BLOCK)
            for rec in run_block(range(start, min(start + _BLOCK, reps)))
        ]
    out = []
    with _pool_lock:
        pool = _kept_pool(workers)
        futures = []
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", _FORK_WITH_THREADS, DeprecationWarning)
                for rep in range(reps):
                    futures.append(pool.submit(_rep_in_worker, run_block, rep))
            for future in futures:
                records, caught, error = future.result()
                _warn_again(caught)
                if error is not None:
                    exc, worker_traceback = error
                    raise exc from _WorkerTraceback(worker_traceback)
                out.extend(records)
        except BrokenProcessPool:
            _retire_pool()
            raise
        finally:
            # However the call ends, the replications no worker has taken
            # are cancelled and the ones under way run out here, so the
            # next call finds the pool idle.
            for future in futures:
                future.cancel()
            wait(futures)
    return out


def _method_record(ds: Dataset, method: str, k_bar: int) -> dict:
    """The estimate fields and ``error`` of ``method`` on ``ds``; a
    :class:`ProxiGmmError` is recorded as ``"<type>: <message>"`` with NaN
    estimates."""
    try:
        if method == "gmm-div":
            bridge = OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
            estimate, diag = select_and_fit(ds, bridge, SieveSpec(), k_bar)
            k_star = diag.k_star
        else:
            estimate, k_star = BASELINES[method](ds), None
        lo, hi = confidence_interval(estimate)
        _, reject = wald_test(estimate)
    except ProxiGmmError as exc:
        return {
            "tau_hat": np.nan, "se_tau": np.nan, "ci_lo": np.nan, "ci_hi": np.nan,
            "reject": None, "k_star": None, "error": f"{type(exc).__name__}: {exc}",
        }
    return {
        "tau_hat": estimate.tau_hat, "se_tau": estimate.se_tau, "ci_lo": lo, "ci_hi": hi,
        "reject": reject, "k_star": k_star, "error": None,
    }


def _replication(config, methods, base_seed, k_bar, reps: range) -> list[dict]:
    """Records of the block of replications ``reps``: every method on each
    replication's one dataset, in replication order.

    The block's datasets are generated first, and each fit that the
    requested baselines read is run for all of them as one stacked call
    (``_share_fits``). The methods then run replication by replication,
    and each reads what its dataset keeps.
    """
    datasets = [generate(config, base_seed, rep) for rep in reps]
    _share_fits(datasets, methods)
    return [
        {"rep": rep, "method": m, **_method_record(ds, m, k_bar)}
        for rep, ds in zip(reps, datasets)
        for m in methods
    ]


def _share_fits(datasets: list[Dataset], methods: tuple[str, ...]) -> None:
    """Keep on each of ``datasets`` the fits that ``methods`` read, one
    stacked call per fit (``gmm._fit_each``): ``naive``'s regression, the
    outcome-bridge IV fit of ``rgmm``, ``p2sls`` and ``pdr``, and the
    treatment-bridge solve with ``pipw``'s report. Each dataset keeps what
    its own call would make, bit for bit, and one whose fit gives an error
    keeps nothing, so its method raises that error into its record.
    ``gmm-div`` shares the IV fit only where its scan selects K* = p, which
    is not known before the scan, so nothing is filled for it alone.
    """
    if "naive" in methods:
        _fit_each(baselines._naive_reports, datasets)
    if not {"rgmm", "p2sls", "pdr"}.isdisjoint(methods):
        _fit_each(_sieve_iv_fits, datasets, *baselines._canonical_fit_args(datasets[0]))
    if not {"pipw", "pdr"}.isdisjoint(methods):
        _fit_each(baselines._reweighting_reports, datasets)


def run_replications(
    config: ScenarioConfig,
    methods: tuple[str, ...],
    reps: int,
    base_seed: int,
    k_bar: int = DEFAULT_K_BAR,
    threads: int = 1,
) -> list[dict]:
    """Per-replication estimation records for a grid of methods.

    Every study cell runs here, a misspecified one included
    (``ScenarioConfig(distortion=...)``). A method failure inside a
    replication is recorded, not raised; any other exception propagates.
    An unknown method, or one named twice, raises :class:`DimensionMismatch`.
    ``threads`` is the number of worker processes the replications run in
    (see ``_replicate``), at least 1. A serial call runs the replications
    in blocks of at most ``_BLOCK``, and each block's shared baseline fits
    as one stacked call per fit; a worker runs one replication per task.
    Neither affects anything but speed: the records and their order are
    identical for any count and any blocking, and warnings raised in a
    worker are emitted in this process.
    """
    _check_methods(methods)
    job = functools.partial(_replication, config, methods, base_seed, k_bar)
    return _replicate(reps, threads, job)


def summarize(records: list[dict], config: ScenarioConfig) -> list[ReplicationSummary]:
    """Aggregate per-replication records into per-method summaries."""
    tau0 = _COEFFICIENTS.true_ate
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
                    reps_converged=0,
                )
            )
            continue
        tau = np.array([r["tau_hat"] for r in good])
        lo = np.array([r["ci_lo"] for r in good])
        hi = np.array([r["ci_hi"] for r in good])
        reject = np.array([bool(r["reject"]) for r in good])
        abs_bias = float(abs(tau.mean() - tau0))
        sd = 0.0 if tau.size < 2 else float(tau.std(ddof=1))
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
