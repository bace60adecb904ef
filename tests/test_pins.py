"""Every pinned output: one table row per file under tests/data/.

A row names its commands and the file that holds their concatenated stdout.
A command is a CLI argv (run as `uppertail.cli`) or a demo path, relative to
the repository root.  pytest checks each row in-process; run as a script,

    python tests/test_pins.py

checks each row in fresh processes, with the repository's src/ first on
PYTHONPATH so that no installed copy answers.  Each command must exit 0 and
the row's bytes must equal its file.  For each failing row the script prints
the name and the first differing line, then exits 1.

A change that moves a pin re-records only the moved rows' files and names
them in CHANGES.md.
"""

from __future__ import annotations

import io
import os
import runpy
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


class Pin(NamedTuple):
    name: str
    commands: list[list[str] | str]  # CLI argvs or demo paths
    file: str  # relative to tests/data/


DECOMPOSE = ["decompose", "--family", "ap", "--p", "0.3", "--r", "2", "--beta", "0.5",
             "--gamma", "0.1", "--t", "9"]

PINS = [
    # Every detail line, not only the counts: the fast paths behind the
    # checks must reproduce each printed figure, and the last line reads
    # "passed 45/45 checks", so a dropped check shows too.
    Pin("verify", [["verify"]], "verify_stdout.txt"),
    # decompose rows read X_r and M_r from one induced-edge set per sample.
    Pin("decompose_ap30", [[*DECOMPOSE, "--n", "30", "--samples", "5", "--seed", "3"]],
        "decompose_ap30_stdout.txt"),
    # AP(60,3) at seed 1 holds 16 pruned X_r rows and one M_r search past its
    # node budget.
    Pin("decompose_ap60", [[*DECOMPOSE, "--n", "60", "--samples", "40", "--seed", "1"]],
        "decompose_ap60_stdout.txt"),
    # Builders hand over canonical rows and codegrees count sorted 1-D keys:
    # delta_1 and delta_2 of three families with 666k-999k edges.
    Pin("family_n2000", [["family", "--family", "ap", "--n", "2000"],
                         ["family", "--family", "schur", "--n", "2000"],
                         ["family", "--family", "ell_sum", "--ell", "3", "--n", "2000"]],
        "family_n2000_stdout.txt"),
    # The variance reads codegree_sums of AP(2000,3), 999,000 edges.
    Pin("bounds_ap2000", [["bounds", "--family", "ap", "--n", "2000", "--p", "0.01,0.05",
                           "--t", "1,4"]],
        "bounds_ap2000_stdout.txt"),
    # Every row tag; mu = 0 at p = 0, log(1/p) = 0 at p = 1, the t^2 overflow
    # branch at t = 1e155, skipped lb_cluster rows, and a capacity and d
    # other than 1.
    Pin("bounds_branches", [["bounds", "--family", "ap", "--n", "40", "--p", "0,0.001,0.3,1",
                             "--t", "0.5,4,1e155"],
                            ["bounds", "--family", "schur", "--n", "30", "--p", "0.2",
                             "--t", "1,8", "--capacity", "3", "--d", "2"]],
        "bounds_branches_stdout.txt"),
    # t / mu overflows a float in both commands; each bound is read with logs
    # there, so no row is NaN.
    Pin("bounds_overflow", [["bounds", "--family", "ap", "--n", "20", "--p", "1e-37",
                             "--t", "1e200"],
                            ["bounds", "--family", "ap", "--n", "20", "--p", "3e-104",
                             "--t", "1"]],
        "bounds_overflow_stdout.txt"),
    # The demos call degree_event, greedy_star_matching, cascade_prune and
    # z_disjoint: each demo's whole stdout at its default arguments.
    Pin("demo_bound_sandwich", ["demos/bound_sandwich.py"], "demos/bound_sandwich.txt"),
    Pin("demo_disjoint_occurrence", ["demos/disjoint_occurrence.py"],
        "demos/disjoint_occurrence.txt"),
    Pin("demo_families_and_moments", ["demos/families_and_moments.py"],
        "demos/families_and_moments.txt"),
    Pin("demo_sparsification_cascade", ["demos/sparsification_cascade.py"],
        "demos/sparsification_cascade.txt"),
    Pin("demo_tail_estimation", ["demos/tail_estimation.py"], "demos/tail_estimation.txt"),
]


def run_in_process(command) -> tuple[int, str]:
    """A command's exit code and stdout, run in this process."""
    out = io.StringIO()
    with redirect_stdout(out):
        if isinstance(command, str):
            argv, sys.argv = sys.argv, [str(ROOT / command)]
            try:
                runpy.run_path(sys.argv[0], run_name="__main__")
            finally:
                sys.argv = argv
            code = 0
        else:
            from uppertail import cli

            code = cli.main(command)
    return code, out.getvalue()


def run_fresh(command) -> subprocess.CompletedProcess:
    """A command run in a fresh interpreter on the repository's src/."""
    head = [str(ROOT / command)] if isinstance(command, str) else ["-m", "uppertail.cli", *command]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *head], cwd=ROOT, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path))


def first_difference(got: bytes, want: bytes) -> str:
    """The first line at which unequal got and want differ, both shown."""
    pairs = enumerate(zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True)), 1)
    number, (line, pinned) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
    return f"line {number}: got {line!r}, pinned {pinned!r}"


def fresh_problem(pin: Pin) -> str | None:
    """Why pin fails in fresh processes, or None when it holds."""
    got = b""
    for command in pin.commands:
        run = run_fresh(command)
        if run.returncode != 0:
            return f"{command} exited {run.returncode}: {run.stderr.decode(errors='replace').strip()}"
        got += run.stdout
    want = (DATA / pin.file).read_bytes()
    return None if got == want else first_difference(got, want)


def main(pins: list[Pin] = PINS) -> int:
    failed = 0
    for pin in pins:
        if (problem := fresh_problem(pin)) is not None:
            failed += 1
            print(f"{pin.name}: {problem}")
    print(f"{len(pins) - failed}/{len(pins)} pinned outputs match")
    return 1 if failed else 0


@pytest.mark.parametrize("pin", PINS, ids=[pin.name for pin in PINS])
def test_pinned_stdout(pin):
    runs = [run_in_process(command) for command in pin.commands]
    assert [code for code, _ in runs] == [0] * len(runs)
    assert "".join(out for _, out in runs) == (DATA / pin.file).read_text(encoding="utf-8")


def test_every_data_file_has_one_row_and_every_demo_is_pinned():
    files = sorted(path.relative_to(DATA).as_posix() for path in DATA.rglob("*") if path.is_file())
    assert sorted(pin.file for pin in PINS) == files
    demos = [command for pin in PINS for command in pin.commands if isinstance(command, str)]
    assert demos == [f"demos/{path.name}" for path in sorted((ROOT / "demos").glob("*.py"))]


def test_checker_fails_a_one_byte_edit(tmp_path, capsys):
    pin = next(pin for pin in PINS if pin.name == "decompose_ap30")
    edited = bytearray((DATA / pin.file).read_bytes())
    edited[-2] ^= 1  # the byte before the final newline
    (tmp_path / "edited.txt").write_bytes(edited)
    assert main([pin._replace(file=str(tmp_path / "edited.txt"))]) == 1
    line = len(edited.splitlines())
    assert capsys.readouterr().out.startswith(f"decompose_ap30: line {line}: got ")


def test_checker_fails_a_nonzero_exit(tmp_path, capsys):
    # verify granite prints nothing on stdout, so only its exit code 2 fails it.
    (tmp_path / "empty.txt").write_bytes(b"")
    assert main([Pin("granite", [["verify", "granite"]], str(tmp_path / "empty.txt"))]) == 1
    assert capsys.readouterr().out.startswith("granite: ['verify', 'granite'] exited 2: ")


if __name__ == "__main__":
    sys.exit(main())
