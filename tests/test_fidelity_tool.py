"""The fidelity record tool (:mod:`tools.fidelity`) on one tiny scenario.

The tool's record file, grid and scenario builders are patched to a
temporary file and one ``tiny_scenario`` cell.

Pinned here: the shape of an appended record — the stamp, the cell with
every engine's accuracy overall and per region category, the ceilings and
the region-graph counts — and ``--check``, which passes on the record it
re-runs, fails on an edited value and ignores the fit's timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root, not in src/
    sys.path.insert(0, str(REPO_ROOT))

from repro.datasets import tiny_scenario  # noqa: E402
from tools import fidelity  # noqa: E402

CATEGORIES = {"InRegion", "InOutRegion", "OutRegion"}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("fidelity") / fidelity.RECORD.name
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fidelity, "RECORD", path)
        patch.setattr(fidelity, "SCENARIOS", {"tiny": lambda scale, seed: tiny_scenario(seed=seed)})
        patch.setattr(fidelity, "DEFAULT_GRID", [{"scenario": "tiny", "scale": 1.0, "seed": 3}])
        assert fidelity.main([]) == 0
        yield path


def test_a_record_holds_its_stamp_and_one_entry_per_cell(recorded):
    [record] = json.loads(recorded.read_text())["records"]
    assert {"commit", "dirty"} <= set(record["head"])
    assert record["l2r_margin_median"] is None  # the grid has no d2_like cell
    [cell] = record["cells"]
    assert (cell["scenario"], cell["scale"], cell["seed"]) == ("tiny", 1.0, 3)
    assert set(cell["categories"]) == CATEGORIES
    assert sum(cell["categories"].values()) == cell["heldout"] > 0
    assert set(cell["accuracy_pct"]) == set(fidelity.ENGINES)
    for accuracy in cell["accuracy_pct"].values():
        assert set(accuracy) == CATEGORIES | {"overall"}
        assert 0.0 <= accuracy["overall"] <= 100.0
        for category, count in cell["categories"].items():
            assert (accuracy[category] is None) == (count == 0)
    assert all(0.0 <= value <= 100.0 for value in cell["ceilings_pct"].values())
    learnt = cell["learnt_equals_true"]
    assert 0 <= learnt["queries"] <= cell["heldout"]
    assert learnt["share"] is None or 0.0 <= learnt["share"] <= 1.0
    assert cell["regions"]["count"] > 0 and cell["regions"]["median_size"] >= 1
    assert cell["t_edges"] > 0 and cell["b_edges"] >= 0 and cell["fit_s"] > 0


def test_check_passes_on_the_record_and_fails_on_an_edited_value(recorded, tmp_path, monkeypatch, capsys):
    assert fidelity.main(["--check"]) == 0
    history = json.loads(recorded.read_text())
    cell = history["records"][-1]["cells"][0]
    cell["fit_s"] += 100.0  # a timing: never compared
    edited = tmp_path / fidelity.RECORD.name
    edited.write_text(json.dumps(history))
    monkeypatch.setattr(fidelity, "RECORD", edited)
    assert fidelity.main(["--check"]) == 0
    cell["accuracy_pct"]["L2R"]["overall"] += 0.5
    edited.write_text(json.dumps(history))
    capsys.readouterr()
    assert fidelity.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert ".cells[0].accuracy_pct.L2R.overall" in out and "1 differences" in out
    assert json.loads(edited.read_text()) == history  # --check appends nothing
