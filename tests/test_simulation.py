"""Replication loop: worker-count invariance, worker behaviour and the kept
worker pool's lifetime, study equivalences, method checks, and the
misspecification study's runs on the distorted data."""

from __future__ import annotations

import dataclasses
import functools
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

import numpy as np
import pytest

from proxigmm import (
    OutcomeBridge,
    ScenarioConfig,
    SieveSpec,
    generate,
    run_replications,
    select_and_fit,
    summarize,
)
from proxigmm import baselines, gmm, selection, simulation
from proxigmm.errors import DimensionMismatch, RankDeficient, SingularSystem
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


def test_scenario_i_cell_reproduces_coverage_and_bias():
    # Fixed-seed 200-rep I/400 cell. Bands: nominal 0.95 coverage +- 3
    # binomial SDs (sqrt(0.95 * 0.05 / 200) ~ 0.015), and |bias| within 3
    # Monte Carlo SEs of the mean; the naive estimator ignores the
    # confounding and must undercover.
    reps = 200
    config = ScenarioConfig("I", 400)
    rows = summarize(run_replications(config, ("naive", "rgmm", "gmm-div"), reps, 0), config)
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


def _misspec(level, n, reps, base_seed=0, methods=("gmm-div", "pdr"), **kwargs):
    """The records of a scenario-II cell with ``w1`` distorted at ``level``."""
    config = ScenarioConfig("II", n, distortion=level)
    return run_replications(config, methods, reps, base_seed, **kwargs)


def test_misspec_study_identical_across_thread_counts():
    one = _misspec("moderate", n=400, reps=4, base_seed=3, threads=1)
    two = _misspec("moderate", n=400, reps=4, base_seed=3, threads=2)
    _assert_same(one, two)


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


def _one_rep(reps):
    return [{"rep": rep} for rep in reps]


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


def _pid_rep(reps):
    return [{"rep": rep, "pid": os.getpid()} for rep in reps]


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
        lambda threads: _misspec(
            "minor", n=300, reps=4, base_seed=2, k_bar=6, threads=threads),
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


def _slow_pid_rep(reps):
    time.sleep(0.05 * len(reps))
    return _pid_rep(reps)


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


def _kill_own_worker(reps):
    if 1 in reps:
        os.kill(os.getpid(), signal.SIGKILL)
    return _pid_rep(reps)


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


def _rank_deficient_rep(reps):
    if 1 in reps:
        raise RankDeficient("rep 1 is rank deficient", full_rank_prefix=3)
    return _pid_rep(reps)


@pool_test
def test_an_error_with_attributes_crosses_from_a_worker(two_cpus):
    # RankDeficient takes its prefix in __init__ beside the message; it
    # reaches the caller with both, and the pool stays usable.
    simulation._replicate(2, 2, _pid_rep)
    pool = simulation._pool
    with pytest.raises(RankDeficient, match="rep 1 is rank deficient") as raised:
        simulation._replicate(2, 2, _rank_deficient_rep)
    assert raised.value.full_rank_prefix == 3
    assert simulation._pool is pool


def _marked_rep(directory, reps):
    """One replication, as a pool task runs it. Rep 0 fails once another
    rep has marked its start in ``directory`` (or after 10 s): the pool
    does not promise that a worker takes another rep before rep 0's error
    returns. Every other rep marks its start, works for 0.2 s, then marks
    its end."""
    (rep,) = reps
    if rep == 0:
        deadline = time.monotonic() + 10.0
        while not any(directory.glob("start-*")) and time.monotonic() < deadline:
            time.sleep(0.01)
        raise RuntimeError("rep 0 failed")
    (directory / f"start-{rep}").touch()
    time.sleep(0.2)
    (directory / f"end-{rep}").touch()
    return [{"rep": rep}]


@pool_test
def test_a_failed_call_returns_after_its_started_replications(two_cpus, tmp_path):
    # The pool has already handed the replications after rep 0 to workers
    # when rep 0's error arrives. They cannot be cancelled, so the call
    # waits for them: a later call would otherwise queue behind them.
    with pytest.raises(RuntimeError, match="rep 0 failed"):
        simulation._replicate(40, 2, functools.partial(_marked_rep, tmp_path))
    started = {p.name.split("-")[1] for p in tmp_path.glob("start-*")}
    ended = {p.name.split("-")[1] for p in tmp_path.glob("end-*")}
    assert started and started == ended
    assert len(started) < 39  # the replications no worker had taken were cancelled


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
        lambda threads: _misspec(
            "minor", n=200, reps=2, methods=("naive",), threads=threads),
    ],
    ids=["run_replications", "run_misspec_study"],
)
def test_worker_count_below_one_rejected(study, threads):
    with pytest.raises(DimensionMismatch, match=f"threads must be at least 1, got {threads}"):
        study(threads)


@pytest.mark.parametrize(
    "study",
    [
        lambda threads: run_replications(
            ScenarioConfig("II", 200), ("naive",), 4, 0, threads=threads),
        lambda threads: _misspec(
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


def _stacked_items(monkeypatch, stacks, kernel, *patched):
    """Wrap the stacked kernel ``kernel``, a function that takes a list of
    datasets first, as the name it has in each of the ``patched`` objects,
    recording each call's datasets, by their first outcome, in ``stacks``."""
    def counted(datasets, *args):
        stacks.append([ds.y[0] for ds in datasets])
        return kernel(datasets, *args)

    for owner in patched:
        monkeypatch.setattr(owner, kernel.__name__, counted)


def test_one_treatment_solve_per_replication(monkeypatch):
    # pipw and pdr read one kept solve, which a serial call runs for all
    # the datasets of a block in one stacked call.
    stacks = []
    _stacked_items(monkeypatch, stacks, baselines._solve_treatment_bridges, baselines)
    run_replications(ScenarioConfig("II", 400), ("pipw", "naive", "pdr"), 3, 0)
    _misspec("minor", n=400, reps=3, base_seed=1, methods=("pdr", "pipw"))
    solved = [y for stack in stacks for y in stack]
    assert len(solved) == 6 and len(set(solved)) == 6
    assert [len(stack) for stack in stacks] == [3, 3]


def test_one_outcome_bridge_fit_per_replication(monkeypatch):
    # rgmm, p2sls and pdr read one kept sieve IV fit, which a serial call
    # runs for a block's datasets in one stacked call; gmm-div reads it too
    # wherever it selects K* = p.
    stacks = []
    _stacked_items(monkeypatch, stacks, gmm._sieve_iv_fits, baselines, selection, simulation)
    methods = ("rgmm", "naive", "p2sls", "gmm-div", "pdr")
    run_replications(ScenarioConfig("II", 400), methods, 3, 0)
    fitted = [y for stack in stacks for y in stack]
    assert len(fitted) == 3 and len(set(fitted)) == 3
    assert [len(stack) for stack in stacks] == [3]


def test_one_bridge_feature_build_per_replication(monkeypatch):
    # gmm-div's scan, its fit at K* and the rgmm/pdr outcome-bridge fit all
    # read the linear bridge's features, built once per replication, for a
    # block's datasets in one stacked call.
    stacks = []
    real = gmm._Features.build
    monkeypatch.setattr(
        gmm._Features, "build",
        classmethod(lambda cls, datasets, bridge: stacks.append([ds.y[0] for ds in datasets])
                    or real(datasets, bridge)),
    )
    run_replications(ScenarioConfig("II", 400), ("gmm-div", "rgmm", "naive", "pdr"), 3, 0)
    built = [y for stack in stacks for y in stack]
    assert len(built) == 3 and len(set(built)) == 3
    assert [len(stack) for stack in stacks] == [3]


def test_no_stack_exceeds_a_block(monkeypatch):
    # A serial call of 7 replications in blocks of 3 stacks each shared fit
    # over 3, 3 and 1 datasets, and fits each replication once.
    monkeypatch.setattr(simulation, "_BLOCK", 3)
    stacks = {name: [] for name in ("naive", "iv", "solve", "report")}
    _stacked_items(monkeypatch, stacks["naive"], baselines._naive_reports, baselines)
    _stacked_items(
        monkeypatch, stacks["iv"], gmm._sieve_iv_fits, baselines, selection, simulation
    )
    _stacked_items(monkeypatch, stacks["solve"], baselines._solve_treatment_bridges, baselines)
    _stacked_items(monkeypatch, stacks["report"], baselines._reweighting_reports, baselines)
    run_replications(ScenarioConfig("I", 400), METHODS, 7, 0)
    for name, calls in stacks.items():
        assert [len(stack) for stack in calls] == [3, 3, 1], name
        assert len({y for stack in calls for y in stack}) == 7, name


def _fallback_reps(config, reps, seed):
    """The replications whose treatment-bridge solve takes the minimum-norm search."""
    taken, search = [], baselines._levenberg_marquardt

    def spy(*args):
        taken.append(True)
        return search(*args)

    found = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "_levenberg_marquardt", spy)
        for rep in range(reps):
            taken.clear()
            baselines.pipw(generate(config, seed, rep))
            if taken:
                found.add(rep)
    return found


@pytest.mark.parametrize(
    "config",
    [ScenarioConfig("I", 400), ScenarioConfig("II", 800),
     ScenarioConfig("II", 800, distortion="significant")],
    ids=["I-400", "II-800", "II-800-significant"],
)
def test_records_do_not_depend_on_blocks_or_workers(monkeypatch, two_cpus, config):
    # Every method's records, bit for bit, whether a serial call runs its
    # replications in blocks of 1, 3 or all at once, or a pool of 2 runs
    # one per task. At misspecification "significant" reps 0, 5 and 7 of
    # seed 3 take the minimum-norm fallback.
    reps, seed = 9, 3
    if config.distortion == "significant":
        assert _fallback_reps(config, reps, seed) == {0, 5, 7}
    whole = run_replications(config, METHODS, reps, seed)
    for block in (1, 3):
        monkeypatch.setattr(simulation, "_BLOCK", block)
        _assert_same(run_replications(config, METHODS, reps, seed), whole)
    _assert_same(run_replications(config, METHODS, reps, seed, threads=2), whole)


def test_a_failing_dataset_leaves_its_block_alone(monkeypatch):
    # Rep 1's z is constant, so every method fails on it or falls back.
    # In a block with reps 0 and 2 it gets the records it gets alone, and
    # theirs are those of a call in which no dataset fails.
    config = ScenarioConfig("I", 400)
    clean = run_replications(config, METHODS, 3, 0)
    real = simulation.generate

    def generate_constant_z(config, seed, rep):
        ds = real(config, seed, rep)
        return dataclasses.replace(ds, z=np.full_like(ds.z, 2.0)) if rep == 1 else ds

    monkeypatch.setattr(simulation, "generate", generate_constant_z)
    records = run_replications(config, METHODS, 3, 0)
    alone = [
        {"rep": 1, "method": m, **simulation._method_record(generate_constant_z(config, 0, 1), m,
                                                             DEFAULT_K_BAR)}
        for m in METHODS
    ]
    n = len(METHODS)
    _assert_same(records[n : 2 * n], alone)
    _assert_same(records[:n] + records[2 * n :], clean[:n] + clean[2 * n :])
    errors = {rec["method"]: rec["error"] for rec in alone}
    assert errors["rgmm"].startswith("DegenerateColumn") and errors["naive"].startswith(
        "RankDeficientDesign"
    )


@pytest.mark.parametrize(
    "derive",
    [
        lambda ds: dataclasses.replace(ds, w=ds.w + 0.1 * ds.w**2),
        lambda ds: dataclasses.replace(ds, y=2.0 * ds.y),
    ],
    ids=["replace-w", "replace"],
)
def test_derived_dataset_starts_without_results(monkeypatch, derive):
    # A dataset keeps its fits, but one derived from it starts with none:
    # its records are those of a copy no call has fitted, and its bridge
    # features are built again.
    methods, config = ("gmm-div", "rgmm", "pipw", "pdr"), ScenarioConfig("II", 400)
    built = []
    real = gmm._Features.build
    monkeypatch.setattr(
        gmm._Features, "build",
        classmethod(lambda cls, datasets, bridge: built.extend([1] * len(datasets))
                    or real(datasets, bridge)),
    )

    def records(ds):
        return [simulation._method_record(ds, m, DEFAULT_K_BAR) for m in methods]

    ds = generate(config, 5, 0)
    records(ds)
    assert len(built) == 1
    got = records(derive(ds))
    assert len(built) == 2
    assert got == records(derive(generate(config, 5, 0)))


def test_correct_level_is_the_plain_scenario_ii_study():
    methods = ("gmm-div", "pdr")
    config = ScenarioConfig("II", 400)
    misspec = _misspec("correct", n=400, reps=4, base_seed=3, methods=methods)
    _assert_same(misspec, run_replications(config, methods, 4, 3))


# The outcome proxy at each distorted level, in closed form.
DISTORTED_W = {
    "minor": lambda w: w + 0.1 * w**2,
    "moderate": lambda w: w + 0.5 * w**2,
    "significant": lambda w: np.sqrt(np.abs(w)) + 1.0,
}


@pytest.mark.parametrize("level", DISTORTED_W)
def test_distorted_level_runs_every_method_on_the_distorted_data(level):
    # Each record is, bit for bit, the method run on the replication's
    # plain draw with w1 distorted by the closed form: gmm-div selects K
    # and fits on the distorted data.
    config, bridge = ScenarioConfig("II", 400), OutcomeBridge.linear(1, 1)
    records = _misspec(level, n=400, reps=4, base_seed=3)
    assert [(r["rep"], r["method"]) for r in records] == [
        (rep, m) for rep in range(4) for m in ("gmm-div", "pdr")
    ]

    def distorted(rep):
        plain = generate(config, 3, rep)
        return dataclasses.replace(plain, w=DISTORTED_W[level](plain.w))

    for rep in range(4):
        got = generate(dataclasses.replace(config, distortion=level), 3, rep)
        want = distorted(rep)
        for block in ("y", "a", "z", "w", "x"):
            assert (getattr(got, block) == getattr(want, block)).all(), block
    for rec in records:
        ds = distorted(rec["rep"])
        if rec["method"] == "gmm-div":
            fit, diag = select_and_fit(ds, bridge, SieveSpec(), DEFAULT_K_BAR)
            want = (fit.tau_hat, fit.se_tau, diag.k_star)
        else:
            report = baselines.pdr(ds)
            want = (report.tau_hat, report.se_tau, None)
        assert (rec["tau_hat"], rec["se_tau"], rec["k_star"]) == want


@pytest.mark.parametrize("methods", [("rgmm", "rgmm"), ("naive", "pdr", "naive")])
def test_a_method_named_twice_is_rejected(methods):
    with pytest.raises(DimensionMismatch, match="are named more than once"):
        run_replications(ScenarioConfig("I", 50), methods, 3, 0)


@pytest.mark.parametrize(
    "draw",
    [
        lambda: generate(ScenarioConfig(), -1),
        lambda: generate(ScenarioConfig(), 0, -1),
        lambda: run_replications(ScenarioConfig("I", 50), ("naive",), 2, -1),
    ],
    ids=["seed", "replication-index", "run_replications-seed"],
)
def test_negative_seed_or_index_rejected(draw):
    with pytest.raises(DimensionMismatch, match="must be non-negative"):
        draw()


def test_unknown_distortion_rejected():
    with pytest.raises(
        DimensionMismatch,
        match=r"unknown level 'extreme'; choose from \('correct', 'minor', 'moderate', ",
    ):
        ScenarioConfig("II", 400, distortion="extreme")


@pytest.mark.parametrize(
    "study",
    [
        lambda: run_replications(ScenarioConfig("I", 50), ("naive", "bogus"), 1, 0),
        lambda: _misspec("minor", n=50, reps=1, methods=("bogus",)),
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
