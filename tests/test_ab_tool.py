"""The A/B record tool (:mod:`tools.ab`), without running the benchmark.

Pinned here: the change side of a record in a temporary git repository,
clean and with an uncommitted edit (the edit is named by the sha256 of its
``git diff HEAD``; the record file itself is never part of the edit), and
the README numbers table over synthetic records.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root, not in src/
    sys.path.insert(0, str(REPO_ROOT))

from tools import ab  # noqa: E402


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.invalid", *args],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout


@pytest.fixture
def repository(tmp_path: Path) -> Path:
    _git(tmp_path, "init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    (tmp_path / ab.RECORD.name).write_text('{"records": []}\n')
    _git(tmp_path, "add", "code.py", ab.RECORD.name)
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_a_clean_tree_names_its_commit_and_no_diff(repository):
    (repository / "scratch.txt").write_text("untracked\n")
    assert ab.head_block(repository) == {
        "commit": _git(repository, "rev-parse", "HEAD").strip(),
        "dirty": False,
    }


def test_a_dirty_tree_names_the_sha256_of_its_diff(repository):
    (repository / "code.py").write_text("x = 2\n")
    block = ab.head_block(repository)
    diff = subprocess.run(
        ["git", "diff", "HEAD"], cwd=repository, check=True, capture_output=True
    ).stdout
    assert block["dirty"] is True
    assert block["diff_sha256"] == hashlib.sha256(diff).hexdigest()

    # An appended record does not change which edit the tree holds ...
    (repository / ab.RECORD.name).write_text('{"records": [{}]}\n')
    assert ab.head_block(repository) == block
    # ... another edit does.
    (repository / "code.py").write_text("x = 3\n")
    assert ab.head_block(repository)["diff_sha256"] != block["diff_sha256"]


def test_a_tree_whose_only_change_is_the_record_file_is_clean(repository):
    (repository / ab.RECORD.name).write_text('{"records": [{}]}\n')
    assert ab.head_block(repository)["dirty"] is False


def _record(seed: int, **medians: float) -> dict:
    """A record holding each named workload, every column at one median."""
    return {
        "seed": seed,
        "workloads": {
            workload: {
                "complete_pairs": 10,
                "metrics": {
                    name: {"head": {"median": median}} for name, _, _ in ab.COLUMNS
                },
            }
            for workload, median in medians.items()
        },
    }


def test_the_table_takes_each_workload_from_the_newest_record_that_holds_it():
    records = [
        _record(7, grid_cold=1.0, sharded_tcp=2.0),
        _record(8, sharded_tcp=3.0),
        _record(9, l2r_city=4.0),
    ]
    lines = ab.table(records).splitlines()
    header, rule, *rows, blank, sources = lines
    assert header.startswith("| workload | what it stresses | routes/s |")
    assert rule.count("---") == 2 + len(ab.COLUMNS)
    assert blank == ""
    # Rows keep the README's workload order; a workload no record holds
    # (grid_hot_traffic) has no row.
    assert [row.split("|")[1].strip() for row in rows] == [
        "`l2r_city`", "`grid_cold`", "`sharded_tcp`",
    ]
    assert rows[0] == (
        f"| `l2r_city` | {ab.ROLES['l2r_city']} | 4 | 4.00 | 4.00 | 4.00 | 4 |"
    )
    assert rows[2].split("|")[3].strip() == "3"  # record 2, not record 1
    assert sources == (
        "Rows from `l2r_city`: record 3 (seed 9, 10 pairs); "
        "`grid_cold`: record 1 (seed 7, 10 pairs); "
        "`sharded_tcp`: record 2 (seed 8, 10 pairs)."
    )
