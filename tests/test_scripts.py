"""The scripts under ``scripts/`` run end to end on a replication or two."""

from __future__ import annotations

import functools
import math
import importlib.util
import re
import sys
from pathlib import Path

from proxigmm import ScenarioConfig, run_replications
from proxigmm.simulation import METHODS

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name: str):
    """The script's module, loaded as ``python scripts/<name>.py`` loads it,
    with ``scripts`` first on the import path."""
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(_SCRIPTS))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_SCRIPTS))
    return module


def test_records_digest_prints_one_digest_per_cell(capsys):
    _script("records_digest").main(["--seed", "3", "--reps", "2"])
    lines = capsys.readouterr().out.splitlines()
    digests = {}
    for line in lines:
        digest, cell, method = line.split("  ")
        digests.setdefault(cell, {})[method] = digest
    assert len(lines) == sum(map(len, digests.values()))
    assert list(digests) == [
        "I/400 all", "II/800 all", "II/3200 gmm-div k_bar 20, 2 workers",
        *(f"misspec {level} II/800 all"
          for level in ("correct", "minor", "moderate", "significant")),
    ]
    for cell, by_method in digests.items():
        assert list(by_method) == (["gmm-div"] if "3200" in cell else list(METHODS))
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in by_method.values())
    # The undistorted misspecification cell is the II/800 cell, method by method.
    assert digests["misspec correct II/800 all"] == digests["II/800 all"]
    assert len({d for by_method in digests.values() for d in by_method.values()}) == 5 * len(METHODS) + 1
    # Every cell at one worker and at two gives the same digests: the
    # records do not depend on the blocks of a serial call.
    for threads in ("1", "2"):
        _script("records_digest").main(["--seed", "3", "--reps", "2", "--threads", threads])
        assert capsys.readouterr().out.splitlines() == lines


def test_records_drift_of_a_tree_against_itself_is_nil(capsys):
    _script("records_drift").main([str(_SCRIPTS.parent), "--seed", "3", "--reps", "2"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == [
        "cell", "method", "records", "errs-old", "errs-new", "identical", "error", "k*", "reject",
        "max|dtau|", "max|dSE|/SE",
    ]
    rows = [line.rsplit(None, 9) for line in lines]
    # Every cell has gmm-div, on two lines: K* = p and K* > p.
    assert len(rows) == 6 * len(METHODS) + 1 + 7
    labels = [row[0].split("  ")[-1].strip() for row in rows]
    assert labels.count("gmm-div K*=p") == labels.count("gmm-div K*>p") == 7
    assert "gmm-div" not in labels
    cells = {row[0].split("  ")[0] for row in rows}
    assert len(cells) == 7 and "II/3200 gmm-div k_bar 20, 2 workers" in cells
    for row, label in zip(rows, labels):
        if label.startswith("gmm-div"):
            assert row[2:] == ["0", "0", row[1], "0", "0", "0", "0.0e+00", "0.0e+00"]
        else:
            assert row[1:] == ["2", "0", "0", "2", "0", "0", "0", "0.0e+00", "0.0e+00"]
    split = {}
    for row, label in zip(rows, labels):
        if label.startswith("gmm-div"):
            split.setdefault(row[0].split("  ")[0], []).append(int(row[1]))
    assert all(sum(counts) == 2 for counts in split.values())


def test_records_drift_lists_the_first_changed_reps(capsys, monkeypatch):
    # A stubbed pair of trees: naive moves on all 12 reps, and its rep 11
    # carries an error in the second tree only; pipw moves on reps 3
    # and 5. naive's rep 2 and pipw's reps 5 and 8 have SEs 100 times their
    # method's median, and the moved ones' tau_hat and SE move further than
    # the others'. The table's maxima leave them out; after the table they
    # get lines of their own, pipw's split by the solver's path: the first
    # tree's solve took the fallback on rep 5, and rep 8 is a Newton root.
    # Then each method gets a line with its first 10 changed reps.
    drift = _script("records_drift")

    def tree(shift):
        moved = {"naive": range(12), "pipw": (3, 5)}
        records = {"cell": [
            {"rep": rep, "method": method,
             "tau_hat": 1.0 + shift * (rep in moved[method]) * (4.0 if wild else 1.0),
             "se_tau": 50.0 * (1.0 + 20.0 * shift * (rep in moved[method])) if wild else 0.5,
             "ci_lo": 0.0, "ci_hi": 2.0, "reject": True, "k_star": None,
             "error": "NoConvergence: stub" if shift and method == "naive" and rep == 11 else None}
            for rep in range(12) for method in moved
            for wild in [(method, rep) in {("naive", 2), ("pipw", 5), ("pipw", 8)}]
        ]}
        return records, {"cell": set() if shift else {5}}

    trees = iter([tree(0.0), tree(0.25)])
    monkeypatch.setattr(drift, "run_tree", lambda root, seed, reps: next(trees))
    drift.main(["parent"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[:2]] == [
        ["cell", "naive", "12", "0", "1", "0", "1", "0", "0", "2.5e-01", "0.0e+00"],
        ["cell", "pipw", "12", "0", "0", "10", "0", "0", "0", "2.5e-01", "0.0e+00"],
    ]
    assert lines[2:5] == [
        f"{'cell':<38}{'naive':<13}wild SE: 1 records, max|dtau| 1.0e+00, max|dSE|/SE 5.0e+00",
        f"{'cell':<38}{'pipw':<13}wild SE, fallback: 1 records, max|dtau| 1.0e+00, "
        "max|dSE|/SE 5.0e+00",
        f"{'cell':<38}{'pipw':<13}wild SE, Newton root: 1 records, max|dtau| 0.0e+00, "
        "max|dSE|/SE 0.0e+00",
    ]
    assert lines[5:] == [
        f"{'cell':<38}{'naive':<13}changed reps: 0 1 2 3 4 5 6 7 8 9",
        f"{'cell':<38}{'pipw':<13}changed reps: 3 5",
    ]


def test_records_drift_splits_gmm_div_by_the_k_star_of_the_tree_compared_against(
    capsys, monkeypatch
):
    # A stubbed pair of I/400 trees (bridge dimension 4) with six gmm-div
    # records. The first tree selects K* = 4 on reps 0, 1 and 4, 6 on reps
    # 2 and 3, and fails rep 5. The second moves the SE of reps 0 and 1 and
    # selects 4 on rep 2: that rep counts with K* > p, by the first tree's K*.
    drift = _script("records_drift")
    first_k = {0: 4, 1: 4, 2: 6, 3: 6, 4: 4, 5: None}

    def tree(second):
        recs = []
        for rep, k_star in first_k.items():
            if second and rep == 2:
                k_star = 4
            recs.append({
                "rep": rep, "method": "gmm-div", "tau_hat": 1.0,
                "se_tau": 0.5 * (1.0 + 1e-7 * (second and rep in (0, 1))),
                "ci_lo": 0.0, "ci_hi": 2.0, "reject": True, "k_star": k_star,
                "error": "RankDeficient: stub" if k_star is None else None,
            })
        return {"I/400 all": recs}, {"I/400 all": set()}

    trees = iter([tree(False), tree(True)])
    monkeypatch.setattr(drift, "run_tree", lambda root, seed, reps: next(trees))
    drift.main(["parent", "--seed", "3"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2:] for line in lines[:2]] == [
        ["gmm-div", "K*=p", "3", "0", "0", "1", "0", "0", "0", "0.0e+00", "1.0e-07"],
        ["gmm-div", "K*>p", "3", "1", "1", "2", "0", "1", "0", "0.0e+00", "0.0e+00"],
    ]
    assert lines[2:] == [
        f"{'I/400 all':<38}{'gmm-div K*=p':<13}changed reps: 0 1",
        f"{'I/400 all':<38}{'gmm-div K*>p':<13}changed reps: 2",
    ]


def test_records_drift_finds_the_wild_records_that_took_the_fallback():
    # II/800 seed 3: Newton finds the root of rep 3, and no start reaches
    # one on rep 34, whose solve takes the minimum-norm fallback. With both
    # SEs wild against ten ordinary ones, the fallback is rep 34 alone.
    drift = _script("records_drift")
    run = functools.partial(run_replications, ScenarioConfig("II", 800), ("pipw",), 1, 3)
    records = [
        {"rep": rep, "method": "pipw", "tau_hat": 1.0, "se_tau": 50.0 if rep in (3, 34) else 0.5,
         "error": None}
        for rep in (*range(11), 34)
    ]
    assert drift.wild_fallbacks(run, records) == {34}
    assert drift.fallback_reps(ScenarioConfig("II", 800), 3, [0, 3, 34]) == {34}


def test_polish_on_off_reports_both_arms(capsys):
    _script("polish_on_off").main(["--reps", "2", "--seed", "1", "--cell", "II:400:8"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["cell", "arm", "abs_bias", "sd", "rmse", "coverage"]
    assert [line.split()[:2] for line in lines[1:3]] == [["II:400:8", "on"], ["II:400:8", "off"]]
    assert all(line.endswith("(2 reps)") for line in lines[1:3])
    assert lines[3].startswith("II:400:8       max |dtau|")
    assert len(lines) == 4


def test_cell_study_prints_one_line_per_method(capsys):
    _script("cell_study").main(["I/400", "--seed", "3", "--reps", "2"])
    title, header, *lines = capsys.readouterr().out.splitlines()
    assert title == "I/400 k_bar 12, seed 3, 2 reps"
    assert header.split() == [
        "method", "records", "failed", "wild", "bias", "SD", "rootn*SD", "n*MSE", "coverage",
        "SD(t)", "band",
    ]
    rows, (histogram,) = lines[: len(METHODS)], lines[len(METHODS):]
    records = run_replications(ScenarioConfig("I", 400), METHODS, 2, 3)
    for row, method in zip(rows, METHODS):
        fields = row.split()
        assert fields[:4] == [method, "2", "0", "0"]
        taus = [r["tau_hat"] for r in records if r["method"] == method]
        assert float(fields[4]) == round(sum(taus) / 2 - 0.5, 4)
        assert float(fields[7]) == round(400 * sum((t - 0.5) ** 2 for t in taus) / 2, 2)
        ts = [(r["tau_hat"] - 0.5) / r["se_tau"] for r in records if r["method"] == method]
        assert float(fields[9]) == round(abs(ts[0] - ts[1]) / math.sqrt(2), 3)
        assert fields[10:] == ["[0.648,", "1.000]"]
    ks = [r["k_star"] for r in records if r["method"] == "gmm-div"]
    assert histogram == "gmm-div K*: " + " ".join(
        f"{k}:{ks.count(k)}" for k in sorted(set(ks))
    )
