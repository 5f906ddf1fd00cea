"""Traced run: spans around the package's public calls, and per-layer metrics.

The traced replication does what ``run_replications`` does for one
replication, through the same public calls, with a span around each:
``generate``, each baseline, and for ``gmm-div`` the steps of
``select_and_fit`` (``select_k``, ``build_basis``, ``orthonormalize``,
``fit_optimal``). Inside ``select_k`` the calls to ``build_basis`` and
``orthonormalize`` get spans by rebinding those names in
``proxigmm.selection`` to timing wrappers while traced chunks run.
To split ``fit_optimal`` into its parts, the traced replication also
times the two-step fit (``fit_initial`` -> ``regularize_moments`` ->
``fit_with_weight`` on the same basis) and ``variance`` on the fit it got;
that extra work is part of ``trace.overhead``.

A span has a name, start, end, its parent span and the replication it
belongs to. Spans stay in memory; per-layer metrics are computed from
them when the run ends, and ``run.py`` writes them next to the result.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import proxigmm as pg
import proxigmm.selection

import bench

BASELINES = {
    "naive": pg.naive_gformula,
    "rgmm": pg.rgmm,
    "p2sls": pg.p2sls,
    "pipw": pg.pipw,
    "pdr": pg.pdr,
}
# Names that select_k looks up in its own module, and the span each gets.
SELECTION_CALLS = {
    "build_basis": "sieve.build_basis",
    "orthonormalize": "sieve.orthonormalize",
}
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    rep: object
    start: float
    end: float
    attrs: dict

    @property
    def ms(self) -> float:
        return 1000 * (self.end - self.start)


class Tracer:
    """Thread-safe in-memory span recorder with a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, rep=None):
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        if rep is not None:
            local.rep = rep
        with self._lock:
            sid = next(self._ids)
        attrs: dict = {}
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, parent, getattr(local, "rep", None), start, end, attrs)
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn):
        """``fn``, a function returning a ``BasisMatrix``, recorded as span ``name``."""
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                attrs["bytes"] = out.u.nbytes
                return out
        return traced


@contextmanager
def instrument_selection(tracer: Tracer):
    originals = {name: getattr(proxigmm.selection, name) for name in SELECTION_CALLS}
    try:
        for name, span_name in SELECTION_CALLS.items():
            setattr(proxigmm.selection, name, tracer.wrap(span_name, originals[name]))
        yield
    finally:
        for name, fn in originals.items():
            setattr(proxigmm.selection, name, fn)


def _gmm_div(tracer: Tracer, wl: bench.Workload, ds: pg.Dataset) -> dict:
    bridge = pg.OutcomeBridge.linear(ds.w.shape[1], ds.x.shape[1])
    spec = pg.SieveSpec()
    with tracer.span("selection.select_k") as attrs:
        diag = pg.select_k(ds, bridge, spec, wl.k_bar)
        attrs.update(
            candidates=len(diag.k_grid),
            singular=int(np.sum(~np.isfinite(diag.scores))),
            k_star=diag.k_star,
        )
    with tracer.span("sieve.build_basis") as attrs:
        raw = pg.build_basis(ds, spec, diag.k_star)
        attrs["bytes"] = raw.u.nbytes
    with tracer.span("sieve.orthonormalize") as attrs:
        basis = pg.orthonormalize(raw)
        attrs["bytes"] = basis.u.nbytes
    with tracer.span("gmm.fit_optimal") as attrs:
        fit = pg.fit_optimal(ds, basis, bridge)
        attrs["floored"] = fit.k1 < fit.k + 1
    with tracer.span("gmm.two_step") as attrs:
        try:
            init = pg.fit_initial(ds, basis, bridge)
            scores = pg.joint_score(ds, basis, bridge, init.gamma_hat, init.tau_hat)
            decomp = pg.regularize_moments(pg.estimate_upsilon(scores))
            two_step = pg.fit_with_weight(ds, basis, bridge, decomp.floored_weight())
            attrs["dtau"] = abs(fit.tau_hat - two_step.tau_hat)
        except pg.ProxiGmmError:
            attrs["dtau"] = math.nan
    with tracer.span("gmm.variance"):
        pg.variance(fit, ds, basis, bridge)
    lo, hi = pg.confidence_interval(fit)
    _, reject = pg.wald_test(fit)
    return {"tau_hat": fit.tau_hat, "se_tau": fit.se_tau, "ci_lo": lo, "ci_hi": hi,
            "reject": reject, "k_star": diag.k_star}


def traced_chunk(tracer: Tracer, wl: bench.Workload, base_seed: int, threads: int) -> list[dict]:
    """Records of one chunk, in ``run_replications``' order and format."""

    def one_rep(rep: int) -> list[dict]:
        out = []
        with tracer.span("simulation.rep", rep=(base_seed, rep)):
            with tracer.span("simulation.generate"):
                ds = pg.generate(wl.config, base_seed, rep)
            for method in wl.methods:
                rec = {"rep": rep, "method": method}
                try:
                    if method == "gmm-div":
                        rec.update(_gmm_div(tracer, wl, ds))
                    else:
                        with tracer.span(f"baselines.{method}"):
                            report = BASELINES[method](ds)
                        lo, hi = report.ci95()
                        rec.update(tau_hat=report.tau_hat, se_tau=report.se_tau,
                                   ci_lo=lo, ci_hi=hi, reject=report.wald_reject(),
                                   k_star=None)
                    rec["error"] = None
                except pg.ProxiGmmError as exc:
                    rec.update(tau_hat=math.nan, se_tau=math.nan, ci_lo=math.nan,
                               ci_hi=math.nan, reject=None, k_star=None,
                               error=f"{type(exc).__name__}: {exc}")
                out.append(rec)
        return out

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(one_rep, range(wl.chunk)))
    else:
        chunks = [one_rep(rep) for rep in range(wl.chunk)]
    return [rec for chunk in chunks for rec in chunk]


def tail_level(samples: int) -> float:
    """Highest standard percentile with at least ten samples beyond it."""
    for level in TAIL_LEVELS:
        if samples * (100 - level) / 100 >= 10:
            return level
    return 50.0


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _pct(values, level: float) -> float:
    return float(np.percentile(values, level)) if values else 0.0


def layer_metrics(tracer: Tracer, wl: bench.Workload, records: list[dict]) -> dict:
    """Per-layer figures from the spans and records of the traced phase."""
    by_name: dict[str, list[Span]] = {}
    per_rep: dict[str, dict] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
        totals = per_rep.setdefault(s.name, {})
        totals[s.rep] = totals.get(s.rep, 0.0) + s.ms
    reps = list(per_rep.get("simulation.rep", {}))

    def rep_ms(name: str) -> list[float]:
        return list(per_rep.get(name, {}).values())

    def attr(name: str, key: str) -> list:
        return [s.attrs[key] for s in by_name.get(name, []) if key in s.attrs]

    level = tail_level(len(reps))
    select = by_name.get("selection.select_k", [])
    gmm_reps = list(per_rep.get("gmm.fit_optimal", {}))
    polish = [
        per_rep["gmm.fit_optimal"][r] - per_rep["gmm.two_step"][r] - per_rep["gmm.variance"][r]
        for r in gmm_reps if r in per_rep.get("gmm.variance", {})
    ]
    sieve_bytes = {}
    for name in ("sieve.build_basis", "sieve.orthonormalize"):
        for s in by_name.get(name, []):
            sieve_bytes[s.rep] = sieve_bytes.get(s.rep, 0) + s.attrs.get("bytes", 0)
    k_stars = attr("selection.select_k", "k_star")
    baseline_recs = [r for r in records if r["method"] in BASELINES]
    flags = bench.record_flags(baseline_recs)

    m = {
        "gmm.fit_optimal_ms": (_median(rep_ms("gmm.fit_optimal")), "ms"),
        "gmm.two_step_ms": (_median(rep_ms("gmm.two_step")), "ms"),
        "gmm.variance_ms": (_median(rep_ms("gmm.variance")), "ms"),
        "gmm.polish_ms_derived": (_median(polish), "ms"),
        "gmm.polish_dtau_med": (_median(attr("gmm.two_step", "dtau")), "tau"),
        "gmm.k1_floored_share": (_mean(attr("gmm.fit_optimal", "floored")), "share"),
        "selection.select_k_ms": (_median(rep_ms("selection.select_k")), "ms"),
        "selection.ms_per_candidate": (
            _median([s.ms / s.attrs["candidates"] for s in select if "candidates" in s.attrs]),
            "ms",
        ),
        "selection.candidates": (_mean(attr("selection.select_k", "candidates")), "count"),
        "selection.singular_candidates": (
            _mean(attr("selection.select_k", "singular")), "count"),
        "selection.k_star_mean": (_mean(k_stars), "count"),
        "selection.k_star_at_cap_share": (_mean([k == wl.k_bar for k in k_stars]), "share"),
        "sieve.build_basis_ms": (_median(rep_ms("sieve.build_basis")), "ms"),
        "sieve.orthonormalize_ms": (_median(rep_ms("sieve.orthonormalize")), "ms"),
        "sieve.basis_mb_computed": (_mean(v / 1e6 for v in sieve_bytes.values()), "MB"),
        "baselines.wild_se_share": (
            flags.count("wild-se") / len(flags) if flags else 0.0, "share"),
        "simulation.generate_ms": (_median(rep_ms("simulation.generate")), "ms"),
        "simulation.rep_ms_p50": (_median(rep_ms("simulation.rep")), "ms"),
        "simulation.rep_ms_tail": (_pct(rep_ms("simulation.rep"), level), "ms"),
        "simulation.tail_pct": (level, "pct"),
        "simulation.traced_reps": (len(reps), "count"),
    }
    for method in BASELINES:
        m[f"baselines.{method}_ms"] = (_median(rep_ms(f"baselines.{method}")), "ms")
    # The solver fallbacks of pipw/pdr hit about 1% of II/800 replications,
    # beyond the tail percentile a traced run can resolve; the mean shows them.
    for method in ("pipw", "pdr"):
        times = rep_ms(f"baselines.{method}")
        m[f"baselines.{method}_ms_tail"] = (_pct(times, level), "ms")
        m[f"baselines.{method}_ms_mean"] = (_mean(times), "ms")
    return m


def _same_tau(a: float, b: float) -> bool:
    """Bitwise-equal estimates, counting two NaNs (failed records) as equal."""
    return a == b or (math.isnan(a) and math.isnan(b))


def _tau_map(records: list[dict]) -> dict:
    return {(r["chunk"], r["rep"], r["method"]): r["tau_hat"] for r in records}


def run_traced(wl: bench.Workload, seed: int, seconds: float) -> tuple[dict, dict, list[Span]]:
    """Per-layer metrics, checks and spans of one traced run.

    Each new chunk of the seed's inputs runs three times: untraced at 1
    thread, untraced at 2 threads, and traced at the workload's own thread
    count, in an order that rotates from chunk to chunk. Ratios between
    the three therefore compare the same inputs at nearby moments. The
    traced records must equal the untraced ones.
    """
    tracer = Tracer()
    runs: dict[str, list[bench.Chunk]] = {"t1": [], "t2": [], "traced": []}
    traced_fn = lambda base, threads: traced_chunk(tracer, wl, base, threads)  # noqa: E731
    t0 = time.perf_counter()
    index = 0
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        while index == 0 or time.perf_counter() - t0 < seconds:
            modes = ("t1", "t2", "traced")
            for mode in modes[index % 3:] + modes[: index % 3]:
                if mode == "traced":
                    with instrument_selection(tracer):
                        chunk = bench.run_chunk(wl, seed, index, wl.threads, traced_fn)
                else:
                    chunk = bench.run_chunk(wl, seed, index, int(mode[1]))
                runs[mode].append(chunk)
            index += 1

    traced_records = [r for c in runs["traced"] for r in c.records]
    m = layer_metrics(tracer, wl, traced_records)
    wall = {mode: sum(c.wall_s for c in chunks) for mode, chunks in runs.items()}
    own = runs[f"t{wl.threads}"]
    m["simulation.pool_speedup"] = (wall["t1"] / wall["t2"], "ratio")
    m["simulation.cpu_per_wall"] = (
        sum(c.cpu_s for c in own) / sum(c.wall_s for c in own), "ratio")
    m["trace.overhead"] = (wall[f"t{wl.threads}"] / wall["traced"], "ratio")

    reference = _tau_map([r for c in runs["t1"] + runs["t2"] for r in c.records])
    traced_taus = _tau_map(traced_records)
    mismatched = [
        key for key, tau in traced_taus.items() if not _same_tau(tau, reference[key])
    ]
    all_records = [r for chunks in runs.values() for c in chunks for r in c.records]
    checks = {
        "chunks": index,
        "reps_per_mode": index * wl.chunk,
        "rate_1_thread": index * wl.chunk / wall["t1"],
        "rate_2_threads": index * wl.chunk / wall["t2"],
        "rate_traced": index * wl.chunk / wall["traced"],
        "compared_records": len(traced_taus),
        "mismatched_records": [list(k) for k in mismatched[:10]],
        "records": len(all_records),
        "errors": sum(r["error"] is not None for r in all_records),
    }
    metrics = {name: bench.metric(v, unit) for name, (v, unit) in sorted(m.items())}
    return metrics, checks, tracer.spans
