"""Replication loop: worker-count invariance, worker behaviour and the kept
worker pool's lifetime, study equivalences, method checks, and the
frozen-design fit of the misspecification study."""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import pickle
import select
import signal
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from proxigmm import (
    OutcomeBridge,
    ScenarioConfig,
    SieveSpec,
    build_basis,
    estimate_upsilon,
    fit_initial,
    fit_with_weight,
    generate,
    joint_score,
    orthonormalize,
    regularize_moments,
    run_bspline_study,
    run_misspec_study,
    run_replications,
    run_study,
    select_k,
    summarize,
    transform_column,
)
from proxigmm import baselines, gmm, simulation
from proxigmm.errors import DimensionMismatch, SingularSystem
from proxigmm.simulation import DEFAULT_K_BAR, METHODS


def _assert_same(a: list[dict], b: list[dict]) -> None:
    """Equal record lists, counting two NaNs (failed fits) as equal."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.keys() == rb.keys()
        for key, va in ra.items():
            vb = rb[key]
            if isinstance(va, float) and math.isnan(va):
                assert isinstance(vb, float) and math.isnan(vb), (key, ra, rb)
            else:
                assert va == vb, (key, ra, rb)


def _rows(summaries) -> list[dict]:
    return [dataclasses.asdict(s) for s in summaries]


def test_scenario_i_cell_reproduces_coverage_and_bias():
    # Fixed-seed 200-rep I/400 cell. Bands: nominal 0.95 coverage +- 3
    # binomial SDs (sqrt(0.95 * 0.05 / 200) ~ 0.015), and |bias| within 3
    # Monte Carlo SEs of the mean; the naive estimator ignores the
    # confounding and must undercover.
    reps = 200
    rows = run_study(
        ScenarioConfig("I", 400), methods=("naive", "rgmm", "gmm-div"), reps=reps, base_seed=0
    )
    cell = {row.method: row for row in rows}
    for method in ("rgmm", "gmm-div"):
        row = cell[method]
        assert row.reps_converged == reps
        assert 0.90 <= row.coverage <= 0.99, (method, row.coverage)
        assert row.abs_bias <= 3 * row.sd / math.sqrt(reps), (method, row.abs_bias, row.sd)
    assert cell["naive"].coverage <= 0.85


def test_records_identical_across_thread_counts():
    config = ScenarioConfig("II", 400)
    one = run_replications(config, METHODS, 4, 5, threads=1)
    two = run_replications(config, METHODS, 4, 5, threads=2)
    assert [(r["rep"], r["method"]) for r in one] == [
        (rep, m) for rep in range(4) for m in METHODS
    ]
    _assert_same(one, two)


def test_misspec_study_identical_across_thread_counts():
    one = run_misspec_study("moderate", n=400, reps=4, base_seed=3, threads=1)
    two = run_misspec_study("moderate", n=400, reps=4, base_seed=3, threads=2)
    _assert_same(_rows(one), _rows(two))


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that ``threads=2`` runs a two-process pool anywhere."""
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize(
    "config, methods, reps, k_bar",
    [
        (ScenarioConfig("II", 400), METHODS, 5, DEFAULT_K_BAR),
        (ScenarioConfig("II", 3200), ("gmm-div",), 3, 20),
    ],
    ids=["II-400-all-uneven-split", "II-3200-gmm-div-k20"],
)
def test_records_identical_across_worker_counts(two_cpus, config, methods, reps, k_bar):
    one = run_replications(config, methods, reps, 11, k_bar=k_bar, threads=1)
    two = run_replications(config, methods, reps, 11, k_bar=k_bar, threads=2)
    assert [(r["rep"], r["method"]) for r in two] == [
        (rep, m) for rep in range(reps) for m in methods
    ]
    _assert_same(one, two)


def test_bspline_study_identical_across_worker_counts(two_cpus):
    one = run_bspline_study(n=400, reps=3, base_seed=2, threads=1)
    two = run_bspline_study(n=400, reps=3, base_seed=2, threads=2)
    assert one.keys() == two.keys() == {"power", "bspline"}
    for family in one:
        _assert_same(_rows(one[family]), _rows(two[family]))


# Whether this platform runs the process pool; where it cannot fork, the
# replications run serially.
_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


class _PoolRequested(Exception):
    pass


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts ``_replicate`` asks pools for, on a platform that
    can fork; starts no pool."""
    sizes = []

    def record_size(max_workers, **kwargs):
        sizes.append(max_workers)
        raise _PoolRequested

    monkeypatch.setattr(simulation.multiprocessing, "get_all_start_methods", lambda: ["fork"])
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", record_size)
    return sizes


@pytest.mark.parametrize(
    "threads, reps, cpus, workers",
    [
        (1, 8, 4, None),
        (2, 1, 4, None),  # a one-replication call forks nothing
        (2, 8, 1, None),
        (3, 8, 4, 3),
        (4, 3, 8, 3),
        (10**6, 50, 3, 3),  # a huge request starts no more workers than CPUs
    ],
)
def test_worker_count_is_capped(monkeypatch, pool_sizes, threads, reps, cpus, workers):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
    _assert_pool_size(reps, threads, workers, pool_sizes)


def _one_rep(rep):
    return [{"rep": rep}]


def _assert_pool_size(reps, threads, workers, sizes):
    """``_replicate`` asks for a pool of ``workers`` (None: runs serially)."""
    if workers is None:
        assert simulation._replicate(reps, threads, _one_rep) == [
            {"rep": rep} for rep in range(reps)
        ]
        assert sizes == []
    else:
        with pytest.raises(_PoolRequested):
            simulation._replicate(reps, threads, _one_rep)
        assert sizes == [workers]


@pytest.mark.parametrize("threads, workers", [(1, None), (4, 3)])
def test_cpu_count_without_affinity(monkeypatch, pool_sizes, threads, workers):
    """Where the OS has no CPU affinity, the machine's CPU count caps the pool."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _assert_pool_size(8, threads, workers, pool_sizes)
    assert run_replications(ScenarioConfig("I", 200), ("naive",), 2, 0, threads=1)


def test_serial_where_the_platform_cannot_fork(monkeypatch, two_cpus, pool_sizes):
    monkeypatch.setattr(simulation.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    _assert_pool_size(4, 2, None, pool_sizes)


@pytest.mark.skipif(not _CAN_FORK, reason="no process pool without fork")
def test_pool_start_tolerates_the_fork_with_threads_warning(monkeypatch, two_cpus):
    """Python 3.12 and later warn in the parent when a multi-threaded process forks."""
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2,
            )
        return pid

    monkeypatch.setattr(os, "fork", fork)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        assert simulation._replicate(4, 2, _one_rep) == [{"rep": rep} for rep in range(4)]
    assert log == []


def _pid_rep(rep):
    return [{"rep": rep, "pid": os.getpid()}]


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _served_by(records) -> set[int]:
    return {r["pid"] for r in records}


pool_test = pytest.mark.skipif(not _CAN_FORK, reason="no process pool without fork")


@pool_test
def test_consecutive_calls_share_the_workers(two_cpus):
    first = simulation._replicate(6, 2, _pid_rep)
    workers = _worker_pids()
    second = simulation._replicate(6, 2, _pid_rep)
    assert len(workers) == 2 and os.getpid() not in workers
    assert _served_by(first) <= workers and _served_by(second) <= workers
    assert _worker_pids() == workers
    assert [r["rep"] for r in second] == list(range(6))


@pool_test
def test_reused_pool_runs_each_calls_own_job(two_cpus):
    calls = [
        lambda threads: run_replications(
            ScenarioConfig("I", 200), ("naive", "rgmm"), 4, 1, threads=threads),
        lambda threads: run_replications(
            ScenarioConfig("II", 400), ("gmm-div", "pdr", "pipw"), 4, 7, k_bar=8,
            threads=threads),
        lambda threads: _rows(run_misspec_study(
            "minor", n=300, reps=4, base_seed=2, k_bar=6, threads=threads)),
    ]
    serial = [call(1) for call in calls]
    assert _worker_pids() == set()
    pooled = []
    for call in calls:
        pooled.append(call(2))
        if len(pooled) == 1:
            workers = _worker_pids()
        assert _worker_pids() == workers
    for one, two in zip(serial, pooled):
        _assert_same(one, two)


@pool_test
def test_another_worker_count_forks_a_new_pool(monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 3)
    simulation._replicate(6, 2, _pid_rep)
    two = _worker_pids()
    three_records = simulation._replicate(6, 3, _pid_rep)
    three = _worker_pids()
    assert len(two) == 2 and len(three) == 3 and not two & three
    assert _served_by(three_records) <= three
    simulation._replicate(6, 2, _pid_rep)
    assert len(_worker_pids()) == 2 and not _worker_pids() & (two | three)


def _slow_pid_rep(rep):
    time.sleep(0.05)
    return _pid_rep(rep)


@pool_test
def test_calls_from_two_threads_take_the_pool_in_turn(monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 3)
    started = threading.Event()

    def first():
        started.set()
        return simulation._replicate(12, 2, _slow_pid_rep)

    def second():
        assert started.wait(timeout=60)
        deadline = time.monotonic() + 60
        while simulation._pool is None:  # until the first call holds its pool
            assert time.monotonic() < deadline
            time.sleep(0.001)
        return simulation._replicate(12, 3, _slow_pid_rep)

    with ThreadPoolExecutor(2) as callers:
        calls = [callers.submit(first), callers.submit(second)]
        two, three = (call.result(timeout=60) for call in calls)
    assert [r["rep"] for r in two] == [r["rep"] for r in three] == list(range(12))
    assert len(_served_by(two)) == 2 and len(_served_by(three)) == 3
    assert not _served_by(two) & _served_by(three)


def _kill_own_worker(rep):
    if rep == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _pid_rep(rep)


@pool_test
def test_a_broken_pool_is_replaced(two_cpus):
    simulation._replicate(4, 2, _pid_rep)
    before = _worker_pids()
    with pytest.raises(BrokenProcessPool):
        simulation._replicate(4, 2, _kill_own_worker)
    records = simulation._replicate(4, 2, _pid_rep)
    assert [r["rep"] for r in records] == list(range(4))
    assert _served_by(records) <= _worker_pids()
    assert len(_worker_pids()) == 2 and not _worker_pids() & before


@pool_test
def test_a_forked_child_keeps_off_its_parents_pool(two_cpus):
    simulation._replicate(4, 2, _pid_rep)
    pool, workers = simulation._pool, _worker_pids()
    # Another thread holds the pool's lock across the fork, as one whose
    # call is in flight would; the child must not wait for it.
    held, release = threading.Event(), threading.Event()

    def hold_the_lock():
        with simulation._pool_lock:
            held.set()
            release.wait()

    holder = threading.Thread(target=hold_the_lock)
    holder.start()
    assert held.wait(timeout=60)
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", simulation._FORK_WITH_THREADS, DeprecationWarning)
        child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child, which reports through the pipe
        code = 1
        try:
            os.close(read_end)
            records = simulation._replicate(4, 2, _pid_rep)
            # A bare fork keeps the parent's workers on the child's list.
            mine = _worker_pids() - workers
            with os.fdopen(write_end, "wb") as out:
                pickle.dump((records, mine), out)
            code = 0
        finally:
            simulation._retire_pool()
            os._exit(code)
    release.set()
    holder.join(timeout=60)
    assert not holder.is_alive()
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        if not select.select([pipe], [], [], 60)[0]:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            pytest.fail("the child's call did not finish within 60 s")
        records, child_workers = pickle.load(pipe)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert [r["rep"] for r in records] == list(range(4))
    assert len(child_workers) == 2 and _served_by(records) <= child_workers
    assert simulation._pool is pool and _worker_pids() == workers
    assert _served_by(simulation._replicate(4, 2, _pid_rep)) <= workers


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie awaiting its reaper is not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pool_test
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_workers_end_with_a_killed_parent(two_cpus):
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", simulation._FORK_WITH_THREADS, DeprecationWarning)
        child = os.fork()
    if child == 0:  # pragma: no cover - killed by the test while its pool idles
        try:
            os.close(read_end)
            simulation._replicate(4, 2, _pid_rep)
            with os.fdopen(write_end, "wb") as out:
                pickle.dump(_worker_pids(), out)
            time.sleep(60)
        finally:
            os._exit(1)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        workers = pickle.load(pipe) if select.select([pipe], [], [], 60)[0] else set()
    os.kill(child, signal.SIGKILL)
    os.waitpid(child, 0)
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert len(workers) == 2 and left == []


@pytest.mark.parametrize("threads", [0, -1])
@pytest.mark.parametrize(
    "study",
    [
        lambda threads: run_replications(
            ScenarioConfig("I", 200), ("naive",), 2, 0, threads=threads),
        lambda threads: run_misspec_study(
            "minor", n=200, reps=2, methods=("naive",), threads=threads),
        lambda threads: run_bspline_study(n=200, reps=2, threads=threads),
    ],
    ids=["run_replications", "run_misspec_study", "run_bspline_study"],
)
def test_worker_count_below_one_rejected(study, threads):
    with pytest.raises(DimensionMismatch, match=f"threads must be at least 1, got {threads}"):
        study(threads)


@pytest.mark.parametrize(
    "study",
    [
        lambda threads: run_replications(
            ScenarioConfig("II", 200), ("naive",), 4, 0, threads=threads),
        lambda threads: run_misspec_study(
            "minor", n=200, reps=4, methods=("naive",), threads=threads),
    ],
    ids=["run_replications", "run_misspec_study"],
)
@pytest.mark.parametrize("threads", [1, 2])
def test_unexpected_error_in_a_replication_propagates(monkeypatch, two_cpus, study, threads):
    real = simulation.generate

    def generate_failing_at_rep_2(config, seed, rep=None):
        if rep == 2:
            raise RuntimeError("rep 2 failed")
        return real(config, seed, rep)

    monkeypatch.setattr(simulation, "generate", generate_failing_at_rep_2)
    with pytest.raises(RuntimeError, match="rep 2 failed") as raised:
        study(threads)
    if threads > 1 and _CAN_FORK:
        assert "generate_failing_at_rep_2" in str(raised.value.__cause__)


def _patch_naive(monkeypatch, config, action):
    """Make the naive baseline call ``action(rep)`` on the given reps' datasets."""
    reps = {generate(config, 0, rep).y[0]: rep for rep in (1, 3)}
    real = simulation.BASELINES["naive"]

    def naive(ds):
        rep = reps.get(ds.y[0])
        if rep is not None:
            action(rep)
        return real(ds)

    monkeypatch.setitem(simulation.BASELINES, "naive", naive)


def test_typed_failure_in_a_worker_is_the_serial_record(monkeypatch, two_cpus):
    config = ScenarioConfig("I", 200)

    def fail(rep):
        raise SingularSystem(f"rep {rep} is singular")

    _patch_naive(monkeypatch, config, fail)
    one = run_replications(config, ("naive", "rgmm"), 4, 0, threads=1)
    two = run_replications(config, ("naive", "rgmm"), 4, 0, threads=2)
    _assert_same(one, two)
    assert [r["error"] for r in two if r["method"] == "naive"] == [
        None, "SingularSystem: rep 1 is singular", None, "SingularSystem: rep 3 is singular"
    ]


def _filter_always():
    warnings.simplefilter("always")


def _filter_default():
    warnings.simplefilter("default")


def _filter_out_this_module():
    warnings.simplefilter("always")
    warnings.filterwarnings("ignore", module=__name__)


@pytest.mark.parametrize(
    "set_filters, seen",
    [
        (_filter_always, ["rep 1 warned", "a rep warned", "generated code warned",
                          "rep 3 warned", "a rep warned", "generated code warned"]),
        (_filter_default, ["rep 1 warned", "a rep warned", "generated code warned",
                           "rep 3 warned", "generated code warned"]),
        (_filter_out_this_module, ["generated code warned"] * 2),
    ],
    ids=["always", "once-per-location", "module-filter"],
)
def test_worker_warnings_reach_the_caller(monkeypatch, two_cpus, set_filters, seen):
    config = ScenarioConfig("I", 200)

    def warn(rep):
        warnings.warn(f"rep {rep} warned", UserWarning)
        warnings.warn("a rep warned", UserWarning)
        # From a file no module owns: no registry, and the module is the file name.
        warnings.warn_explicit("generated code warned", UserWarning, "<generated>", 1)

    _patch_naive(monkeypatch, config, warn)
    caught = {}
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as log:
            set_filters()
            run_replications(config, ("naive",), 4, 0, threads=threads)
        caught[threads] = [(str(w.message), w.category, w.filename, w.lineno) for w in log]
    assert caught[2] == caught[1]
    assert [message for message, *_ in caught[2]] == seen


def test_warnings_before_a_worker_error_reach_the_caller(monkeypatch, two_cpus):
    config = ScenarioConfig("I", 200)

    def warn_then_fail(rep):
        warnings.warn(f"rep {rep} warned", UserWarning)
        if rep == 3:
            raise RuntimeError("rep 3 failed")

    _patch_naive(monkeypatch, config, warn_then_fail)
    caught = {}
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="rep 3 failed"):
                run_replications(config, ("naive",), 4, 0, threads=threads)
        caught[threads] = [(str(w.message), w.category, w.filename, w.lineno) for w in log]
    assert caught[2] == caught[1]
    assert [message for message, *_ in caught[2]] == ["rep 1 warned", "rep 3 warned"]


def test_one_treatment_solve_per_replication(monkeypatch):
    solved = []
    real = baselines._solve_treatment_bridge
    monkeypatch.setattr(
        baselines, "_solve_treatment_bridge", lambda ds: solved.append(ds.y[0]) or real(ds)
    )
    run_replications(ScenarioConfig("II", 400), ("pipw", "naive", "pdr"), 3, 0)
    run_misspec_study("minor", n=400, reps=3, base_seed=1, methods=("pdr", "pipw"))
    assert len(solved) == 6 and len(set(solved)) == 6


def test_correct_level_is_the_plain_scenario_ii_study():
    methods = ("gmm-div", "pdr")
    misspec = run_misspec_study("correct", n=400, reps=4, base_seed=3, methods=methods)
    plain = run_study(ScenarioConfig("II", 400), methods=methods, reps=4, base_seed=3)
    _assert_same(_rows(misspec), _rows(plain))


@pytest.mark.parametrize(
    "study",
    [
        lambda: run_replications(ScenarioConfig("I", 50), ("naive", "bogus"), 1, 0),
        lambda: run_misspec_study("minor", n=50, reps=1, methods=("bogus",)),
    ],
    ids=["run_replications", "run_misspec_study"],
)
def test_unknown_method_rejected(study):
    with pytest.raises(DimensionMismatch, match="bogus"):
        study()


def test_median_ci_length_resists_fallback_reps():
    # II/800 seed 0 rep 17 is a pipw minimum-norm fallback with an SE in the
    # tens of thousands; it drags the mean CI length but not the median.
    config = ScenarioConfig("II", 800)
    records = run_replications(config, ("pipw",), 18, 0)
    assert max(r["se_tau"] for r in records) > 1e4
    (row,) = summarize(records, config)
    assert math.isfinite(row.median_ci_length)
    assert row.median_ci_length < 1e-3 * row.mean_ci_length


def test_frozen_design_fit_uses_the_floored_root_directly(monkeypatch):
    # Reference: the public two-step calls on the clean draw, then a fixed
    # weight fit on the distorted draw that eigendecomposes the floored
    # weight for its root. The frozen-design fit takes that root from the
    # decomposition, so the two agree to rounding.
    config, spec, bridge = ScenarioConfig("II", 800), SieveSpec(), OutcomeBridge.linear(1, 1)
    draws, want = [], []
    for rep in range(10):
        clean = generate(config, 0, rep)
        distorted = transform_column(clean, "w1", "moderate")
        k_star = select_k(clean, bridge, spec, DEFAULT_K_BAR).k_star
        basis = orthonormalize(build_basis(clean, spec, k_star))
        init = fit_initial(clean, basis, bridge)
        scores = joint_score(clean, basis, bridge, init.gamma_hat, init.tau_hat)
        decomp = regularize_moments(estimate_upsilon(scores))
        want.append(fit_with_weight(distorted, basis, bridge, decomp.floored_weight()))
        draws.append((clean, distorted))

    def refuse(*args, **kwargs):
        raise AssertionError("the floored weight needs no second decomposition")

    monkeypatch.setattr(gmm, "fit_with_weight", refuse)
    monkeypatch.setattr(simulation, "fit_with_weight", refuse, raising=False)
    for (clean, distorted), ref in zip(draws, want):
        got = simulation._frozen_design_fit(clean, distorted, spec, DEFAULT_K_BAR)
        assert got["k_star"] == ref.k
        assert got["tau_hat"] == pytest.approx(ref.tau_hat, rel=0, abs=1e-8)
        assert got["se_tau"] == pytest.approx(ref.se_tau, rel=1e-6)
