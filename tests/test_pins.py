"""Every pinned output and every output identity, one table each.

A PINS row names its commands and the file under tests/data/ that holds
their concatenated stdout.  A command is a CLI argv (run as `uppertail.cli`)
or a demo path, relative to the repository root.  A SAME row names two or
more groups of CLI argvs; each group's concatenated stdout must equal the
first group's byte for byte.  Most rows run one command at 1 and at 2
workers, since one seed must print the same bytes at any worker count.

pytest checks each row in-process; run as a script,

    python tests/test_pins.py

checks every PINS row and then every SAME row in fresh processes, with the
repository's src/ first on PYTHONPATH so that no installed copy answers.
Each command must exit 0.  For each failing row the script prints the name
and the first differing line, then exits 1.

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


class Same(NamedTuple):
    name: str
    groups: list[list[list[str]]]  # each group's CLI argvs, run in order


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


def at_1_and_2_workers(*argvs: list[str]) -> list[list[list[str]]]:
    """Two groups: the argvs at --workers 1, then at --workers 2."""
    return [[[*argv, "--workers", w] for argv in argvs] for w in ("1", "2")]


EXACT = ["--p", "0.1,0.3", "--t", "1,4", "--method", "exact"]
MC_GRID = ["tail", "--family", "ap", "--n", "300", "--method", "mc", "--seed", "1",
           "--samples", "10000"]
CERTIFIED = ["tail", "--n", "300", "--p", "0.05", "--seed", "1", "--samples", "10000"]

SAME = [
    # Schur(22) spans 4 full blocks of 2^20 codes and AP(26,3), the vertex
    # budget, 64; each block is bincounted in slices of 2^16 keys, and
    # --workers 2 counts the blocks in a forked worker as well as the
    # calling process.
    Same("exact_schur22_workers", at_1_and_2_workers(["tail", "--family", "schur", "--n", "22", *EXACT])),
    Same("exact_ap26_workers", at_1_and_2_workers(["tail", "--family", "ap", "--n", "26", *EXACT])),
    # verify spreads its checks, one item each, over forked workers and
    # returns their results in suite and check order; Pin("verify") holds
    # the default worker count to the pinned file.
    Same("verify_workers", at_1_and_2_workers(["verify"])),
    # The t values at one p read one held sampling pass: the grid's rows must
    # not depend on the worker count and must equal six single-(p, t)
    # commands'.  JSON lines carry no header, so those concatenate as they
    # are, and JSON prints each float exactly, as CSV does.
    Same("mc_grid_workers", at_1_and_2_workers([*MC_GRID, "--p", "0.03,0.05", "--t", "1,2,4"])),
    Same("mc_grid_single_rows",
         [[[*MC_GRID, "--p", "0.03,0.05", "--t", "1,2,4", "--out", "json", "--workers", "2"]],
          [[*MC_GRID, "--p", p, "--t", t, "--out", "json", "--workers", "1"]
           for p in ("0.03", "0.05") for t in ("1", "2", "4")]]),
    # 1.2M samples are 293 chunks of 4096, more than the workers.RUNS = 256
    # runs a pass is cut into: runs of two chunks and of one must merge to
    # the same counts as one process.
    Same("mc_past_256_runs_workers",
         at_1_and_2_workers(["tail", "--family", "ap", "--n", "20", "--method", "mc", "--seed", "1",
                             "--samples", "1200000", "--p", "0.3", "--t", "2"])),
    # No pinned file holds the planted or conditioned rows' bytes, so hold
    # each to one worker's.
    Same("planted_workers",
         at_1_and_2_workers([*CERTIFIED, "--family", "schur", "--t", "3,6", "--method", "planted"])),
    Same("conditioned_workers",
         at_1_and_2_workers([*CERTIFIED, "--family", "ap", "--t", "2,4", "--method", "conditioned",
                             "--eps", "0.25"])),
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


def first_difference(got: bytes, want: bytes, wanted: str = "pinned") -> str:
    """The first line at which unequal got and want differ, both shown."""
    pairs = enumerate(zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True)), 1)
    number, (line, other) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
    return f"line {number}: got {line!r}, {wanted} {other!r}"


def fresh_stdout(commands) -> tuple[bytes, str | None]:
    """The commands' concatenated stdout in fresh processes, and why they
    fail (the first nonzero exit), or None."""
    got = b""
    for command in commands:
        run = run_fresh(command)
        if run.returncode != 0:
            return got, f"{command} exited {run.returncode}: {run.stderr.decode(errors='replace').strip()}"
        got += run.stdout
    return got, None


def fresh_problem(pin: Pin) -> str | None:
    """Why pin fails in fresh processes, or None when it holds."""
    got, problem = fresh_stdout(pin.commands)
    if problem is not None:
        return problem
    want = (DATA / pin.file).read_bytes()
    return None if got == want else first_difference(got, want)


def same_problem(row: Same) -> str | None:
    """Why row fails in fresh processes, or None when it holds."""
    outputs = []
    for group in row.groups:
        got, problem = fresh_stdout(group)
        if problem is not None:
            return problem
        outputs.append(got)
    first = outputs[0]
    return next((f"group {number}, {first_difference(got, first, 'group 1')}"
                 for number, got in enumerate(outputs[1:], 2) if got != first), None)


def main(pins: list[Pin] = PINS, rows: list[Same] = SAME) -> int:
    failed = 0
    for table, check, what in ((pins, fresh_problem, "pinned outputs match"),
                               (rows, same_problem, "identities hold")):
        held = 0
        for entry in table:
            if (problem := check(entry)) is None:
                held += 1
            else:
                print(f"{entry.name}: {problem}")
        print(f"{held}/{len(table)} {what}")
        failed += len(table) - held
    return 1 if failed else 0


def in_process_stdout(commands) -> str:
    """The commands' concatenated stdout in this process; each must exit 0."""
    runs = [run_in_process(command) for command in commands]
    assert [code for code, _ in runs] == [0] * len(runs)
    return "".join(out for _, out in runs)


@pytest.mark.parametrize("pin", PINS, ids=[pin.name for pin in PINS])
def test_pinned_stdout(pin):
    assert in_process_stdout(pin.commands) == (DATA / pin.file).read_text(encoding="utf-8")


@pytest.mark.parametrize("row", SAME, ids=[row.name for row in SAME])
def test_identical_stdout(row):
    first, *rest = [in_process_stdout(group) for group in row.groups]
    assert rest == [first] * len(rest)


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
    assert main([pin._replace(file=str(tmp_path / "edited.txt"))], []) == 1
    line = len(edited.splitlines())
    assert capsys.readouterr().out.startswith(f"decompose_ap30: line {line}: got ")


def test_checker_fails_a_nonzero_exit(tmp_path, capsys):
    # verify granite prints nothing on stdout, so only its exit code 2 fails it.
    (tmp_path / "empty.txt").write_bytes(b"")
    assert main([Pin("granite", [["verify", "granite"]], str(tmp_path / "empty.txt"))], []) == 1
    assert capsys.readouterr().out.startswith("granite: ['verify', 'granite'] exited 2: ")


def test_identity_checker_fails_a_differing_pair(capsys):
    mc = ["tail", "--family", "ap", "--n", "20", "--method", "mc", "--samples", "2000",
          "--p", "0.3", "--t", "2", "--seed"]
    assert main([], [Same("seeds", [[[*mc, "1"]], [[*mc, "2"]]])]) == 1
    # Line 1 is the CSV header; line 2, the row, ends with its seed.
    out = capsys.readouterr().out
    assert "\nseeds: group 2, line 2: got b'ap,20,3,0.29999999999999999," in out
    assert ",2\\n', group 1 b'ap,20,3," in out and out.endswith(",1\\n'\n0/1 identities hold\n")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="on one core --workers 2 runs in the caller")
def test_a_2_worker_group_forks(monkeypatch):
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    one, two = next(row for row in SAME if row.name == "planted_workers").groups
    in_process_stdout(one)
    assert forked == []
    in_process_stdout(two)
    assert forked


if __name__ == "__main__":
    sys.exit(main())
