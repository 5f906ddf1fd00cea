"""The scripts under ``scripts/`` run end to end on a replication or two."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

from proxigmm.simulation import METHODS

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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


def test_polish_on_off_reports_both_arms(capsys):
    _script("polish_on_off").main(["--reps", "2", "--seed", "1", "--cell", "II:400:8"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["cell", "arm", "abs_bias", "sd", "rmse", "coverage"]
    assert [line.split()[:2] for line in lines[1:3]] == [["II:400:8", "on"], ["II:400:8", "off"]]
    assert all(line.endswith("(2 reps)") for line in lines[1:3])
    assert lines[3].startswith("II:400:8       max |dtau|")
    assert len(lines) == 4
