"""tests/mutants.py's verdicts on one-row tables.

The runner refuses a parent that has loaded uppertail, as this pytest process
has, so every table runs in one fresh interpreter, one main() call each.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mutants

TESTS = Path(__file__).resolve().parent
TIE = "tests/test_rng.py::TestPDrawLaw::test_every_tie_with_the_cut[0]"
_, RNG, COMPARE, LE, _ = next(row for row in mutants.MUTANTS if row[0] == "<= for < in the raw-word compare")
BLOCK = next(row for row in mutants.EQUIVALENT if row[0] == "DRAW_BLOCK 128 -> 64")[2]  # top level of rng.py

PROGRAM = f"""
import json, sys
sys.path.insert(0, {str(TESTS)!r})
from mutants import main
for name, rows in json.load(sys.stdin).items():
    print("===", name, main(rows, []), flush=True)
"""


@pytest.fixture(scope="module")
def verdicts(tmp_path_factory) -> dict[str, tuple[int, str]]:
    """{table: (main's exit code, everything printed while it ran)}."""
    failing = tmp_path_factory.mktemp("failing") / "test_failing.py"
    failing.write_text("def test_fails():\n    assert False\n", encoding="utf-8")
    tables = {
        "killed": [("<= for <", RNG, COMPARE, LE, [TIE])],
        "no-op": [("no-op", RNG, COMPARE, COMPARE, [TIE])],
        "fails unmutated": [("fails unmutated", RNG, COMPARE, LE, [f"{failing}::test_fails"])],
        "absent": [("absent", RNG, "no such line", "pass", [TIE])],
        "exits": [("exits", RNG, BLOCK, '__import__("os")._exit(3)', [TIE])],
        # test_rng.py imports DRAW_BLOCK, so it fails to collect.
        "uncollectable": [("uncollectable", RNG, BLOCK, BLOCK.replace("DRAW_BLOCK", "DRAW_BLOK"), [TIE])],
    }
    run = subprocess.run([sys.executable, "-c", PROGRAM], input=json.dumps(tables),
                         capture_output=True, text=True, timeout=120, check=True)
    # Each table's output, then its line "=== <table> <exit code>".
    parts = re.split(r"^=== (.+) (\d+)\n", run.stdout, flags=re.M)
    found = {name: (int(code), out) for out, name, code in zip(parts[::3], parts[1::3], parts[2::3])}
    assert list(found) == list(tables), run.stdout + run.stderr
    return found


def test_killed_row_exits_0(verdicts):
    code, out = verdicts["killed"]
    assert code == 0 and "killed   <= for <" in out and "1/1 mutants killed" in out, out


def test_no_op_row_survives(verdicts):
    code, out = verdicts["no-op"]
    assert code == 1 and "SURVIVED no-op" in out and "did not fail" in out, out


def test_row_whose_test_fails_unmutated(verdicts):
    code, out = verdicts["fails unmutated"]
    assert code == 1 and "named tests fail before any mutation" in out and "assert False" in out, out


def test_row_whose_old_line_is_absent(verdicts):
    code, out = verdicts["absent"]
    assert code == 1 and "absent: old line occurs 0 times in rng.py" in out, out


def test_child_that_exits_without_a_result_is_a_harness_error(verdicts):
    code, out = verdicts["exits"]
    assert code == 1 and "harness error: the child exited with code 3" in out, out
    assert not any(line.startswith("killed") for line in out.splitlines()), out


def test_failed_collection_fails_every_node_under_it(verdicts):
    code, out = verdicts["uncollectable"]
    assert code == 0 and "killed   uncollectable" in out, out


def test_refuses_a_parent_that_has_loaded_uppertail():
    import uppertail  # noqa: F401
    with pytest.raises(RuntimeError, match="uppertail is already loaded"):
        mutants.main([], [])
