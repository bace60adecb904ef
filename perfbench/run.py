#!/usr/bin/env python3
"""Benchmark for uppertail: three workloads driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload exact-enum --seed 1 --seconds 18 --trace 0

Workloads (every input is drawn from --seed; see plan()):

  exact-enum  `tail --method exact` on AP(20,3), Schur(22), ell_sum(24, l=3)
              and AP(24,4): the 2^n enumerator, working sets of 1M to 16M
              subset codes; bypasses Monte Carlo and bounds.
  large-n     on AP(300,3): an mc `sweep` of two grid points into a file,
              resumed with one more point, and the same grid in one shot;
              then `tail --method planted` on Schur(300), `tail --method
              conditioned` on AP(300,3) and `bounds` on AP(200,3).  Drives the
              Monte Carlo gather kernel, the pair scan behind the variance,
              family builds and sweep resume; no 2^n enumeration.
  structure   `verify` (all six suites) plus a stream of decompose ops
              (X, X_r, greedy and exact M_r, cascade verdict) on p = 0.3
              subsets of AP(40,3) and AP(60,3), each under a deadline.

Each CLI command runs through ``uppertail.cli.main(argv)`` with stdout
captured, in a child forked from the benchmark process.  That process imports
the library and builds families but runs no op, so every op starts with cold
library caches, as in a fresh CLI process.  The commands of a workload form a
round; rounds repeat, one after another, until --seconds are used (at least
MIN_ROUNDS), and a command's time is its median over the rounds, so a burst of
load from elsewhere on a shared host moves one sample, not the result.  The
decompose stream of `structure` runs once per run, before the rounds, in one
forked child; only `verify` repeats.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
measured untraced; with --trace 1 they are the per-layer ones from one traced
round run in-process (see tracing.py), after one untraced round whose time
gives the tracing overhead.  The line before it is a JSON object
of run metadata and the workload's own figures, which no gate reads.

At the default seed, outputs must match the references in perfbench/ref/;
``--record`` rewrites them from the current code.  At every seed, outputs
must satisfy the invariants checked below.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import pickle
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from tracing import Tracer, layer_metrics, sampler_calls

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REF_DIR = BENCH / "ref"
OUT_DIR = BENCH / "out"

WORKLOADS = ("exact-enum", "large-n", "structure")
DEFAULT_SEED = 1
WORKERS = 2
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
MIN_ROUNDS = 3
MAX_ROUNDS = 15
MC_SAMPLES = 8192
# (family, ops): AP(40,3) ops are cheap and set the latency median; AP(60,3)
# ops carry the known M_r blow-up, which the deadline turns into counted misses.
DECOMPOSE_STREAM = ((("ap", 40, 3, 1), 200), (("ap", 60, 3, 1), 12))
DECOMPOSE_P = 0.3
DEADLINE_S = 2.0
BOUNDS_REL_TOL = 1e-9
PROBE_MC_SAMPLES = 32768


class Deadline(BaseException):
    """Raised by the interval timer when a decompose op runs past its deadline.

    A BaseException, so that no ``except Exception`` in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


# ---------------------------------------------------------------- forked ops


def forked(fn, *args, timeout: float = CHILD_TIMEOUT_S) -> tuple:
    """Call ``fn(*args)`` in a child forked from this process and wait for it.

    Returns (value, error, peak RSS of the child in KiB).  value is None and
    error says why when fn raised, the child died, or it ran past timeout (it
    is then killed).  The child leaves through os._exit, so it runs no
    handler of this process.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((fn(*args), None))
            except BaseException as exc:
                payload = pickle.dumps((None, f"raised {type(exc).__name__}: {exc}"))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks, timed_out = [], False
    deadline = time.monotonic() + timeout
    try:
        while True:
            ready, _, _ = select.select([read_fd], [], [], max(deadline - time.monotonic(), 0.0))
            if not ready:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    if timed_out:
        return None, f"child ran past {timeout} s and was killed", usage.ru_maxrss
    if not chunks:
        return None, f"child ended with wait status {status} and no result", usage.ru_maxrss
    value, error = pickle.loads(b"".join(chunks))
    return value, error, usage.ru_maxrss


def assert_cold() -> None:
    """Fail unless the library caches that the issue names are empty here.

    Forked children start from this process's memory, so an op run here
    would make every later op a cache hit.  A cache renamed by a later change
    is skipped, not failed on.
    """
    from uppertail import bounds, estimate

    filled = []
    if getattr(estimate, "_HIST_CACHE", None):
        filled.append("estimate._HIST_CACHE")
    pair_counts = getattr(bounds, "_pair_union_counts", None)
    if pair_counts is not None and hasattr(pair_counts, "cache_info") and pair_counts.cache_info().currsize:
        filled.append("bounds._pair_union_counts")
    if filled:
        raise SystemExit(f"library caches filled before the timed ops: {', '.join(filled)}")


# ---------------------------------------------------------------- inputs


def _family_argv(spec: tuple) -> list[str]:
    kind, n, k, ell = spec
    argv = ["--family", kind, "--n", str(n)]
    if kind == "ap":
        argv += ["--k", str(k)]
    if kind == "ell_sum":
        argv += ["--ell", str(ell)]
    return argv


def _label(spec: tuple) -> str:
    kind, n, k, ell = spec
    return {"ap": f"ap({n},{k})", "schur": f"schur({n})", "ell_sum": f"ell_sum({n},{ell})"}[kind]


def plan(workload: str, seed: int) -> dict:
    """Every input of a run, drawn from the workload seed."""
    rnd = random.Random(f"{workload}/{seed}")
    if workload == "exact-enum":
        instances = [
            ("ap", 20, 3, 1),
            ("schur", 22, 3, 1),
            ("ell_sum", 24, 3, 3),
            ("ap", 24, 4, 1),
        ]
        rnd.shuffle(instances)
        ps = sorted(rnd.sample(range(1, 11), 5))
        return {
            "instances": instances,
            "p": ",".join(f"{5 * i / 100:g}" for i in ps),
            "t": "1,2,4,8,16",
            "cached": instances,
        }
    if workload == "large-n":
        ts = sorted(rnd.sample([2, 3, 4, 5, 6, 8], 3))
        return {
            "mc": ("ap", 300, 3, 1),
            "mc_p": rnd.choice(["0.04", "0.05", "0.06"]),
            "mc_t": [str(t) for t in ts],
            "planted": ("schur", 300, 3, 1),
            "planted_p": rnd.choice(["0.04", "0.05", "0.06"]),
            "planted_t": str(rnd.choice([3, 4, 5, 6])),
            "conditioned": ("ap", 300, 3, 1),
            "conditioned_p": rnd.choice(["0.05", "0.08", "0.1"]),
            "conditioned_t": str(rnd.choice([2, 4, 6])),
            "conditioned_eps": rnd.choice(["0", "0.25"]),
            "bounds": ("ap", 200, 3, 1),
            "bounds_p": ",".join(sorted(rnd.sample(["0.02", "0.05", "0.1", "0.15", "0.2"], 3), key=float)),
            "bounds_t": ",".join(sorted(rnd.sample(["1", "2", "4", "8", "16"], 3), key=float)),
            "cached": [("ap", 200, 3, 1)],
        }
    # Interleave the graphs so every part of the run sees both kinds of op.
    order = [spec for spec, count in DECOMPOSE_STREAM for _ in range(count)]
    rnd.shuffle(order)
    return {"decompose": DECOMPOSE_STREAM, "order": order, "cached": []}


def _families_of(p: dict) -> list[tuple]:
    specs = list(p.get("instances", []))
    specs += [p[key] for key in ("mc", "planted", "conditioned", "bounds") if key in p]
    specs += [spec for spec, _count in p.get("decompose", [])]
    return list(dict.fromkeys(specs))


class Shape(NamedTuple):
    n: int
    k: int
    num_edges: int


def setup(workload: str, p: dict) -> dict:
    """Family builds and witnesses a run needs.

    Returns the shape of every family and the hypergraphs the decompose ops
    take.  Other hypergraphs are dropped, so that, as in a CLI process, the
    garbage collector does not walk them during the timed ops.
    """
    from uppertail import bounds, families

    built = {}
    for spec in _families_of(p):
        kind, n, k, ell = spec
        built[spec] = families.build(families.FamilySpec(kind, n, k=k, ell=ell))
    cached = [built[spec] for spec in p["cached"]]
    for i, a in enumerate(cached):
        for b in cached[i + 1:]:
            if a == b:
                raise SystemExit(f"workload {workload} repeats a cache-keyed hypergraph")
    if "planted" in p:
        spec = p["planted"]
        h = built[spec]
        x = bounds.exact_mean(h, float(p["planted_p"])) + float(p["planted_t"])
        witness = families.interval_witness(families.FamilySpec(spec[0], spec[1]), x)
        if witness is None:
            raise SystemExit(f"{_label(spec)} cannot seat a witness for {x} edges")
    return {
        "built": {spec: Shape(h.n, h.k, h.num_edges) for spec, h in built.items()},
        "graphs": {spec: built[spec] for spec, _count in p.get("decompose", [])},
    }


# ---------------------------------------------------------------- running ops


class Runner:
    """Runs and times ops, checks their outputs, and compares with references."""

    def __init__(self, seed: int, tracer: Tracer | None, refs: dict | None, recording: bool):
        self.seed = seed
        self.tracer = tracer
        self.refs = refs
        self.recording = recording
        self.recorded: dict = {}
        self.ops: list[dict] = []
        self.failures: list[str] = []
        self.figures: dict = {}
        self.peak_rss_kb = 0

    def op(self, name: str, kind: str) -> dict:
        op = {"name": name, "kind": kind, "latency_s": 0.0, "failed": False, "deadline": False}
        self.ops.append(op)
        return op

    def fail(self, op: dict, message: str) -> None:
        op["failed"] = True
        self.failures.append(f"{op['name']}: {message}")

    def check(self, op: dict, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def cli(self, name: str, argv: list[str]) -> tuple[dict, str]:
        """One `uppertail` invocation; returns (op, stdout).

        Untraced, it runs in a forked child (cold caches); traced, in-process.
        """
        op = self.op(name, "cli")
        if self.tracer:
            result = _invoke(argv, self.tracer, name)
        else:
            result, error, rss_kb = forked(_invoke, argv, None, name)
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            if result is None:
                self.fail(op, error)
                return op, ""
        op["latency_s"], rc, out, err, error = result
        if error:
            self.fail(op, error)
            return op, ""
        op["bytes_out"] = len(out.encode())
        self.check(op, rc == 0, f"exit code {rc}: {err.strip()[:200]}")
        return op, out

    def expect(self, op: dict, key: str, value, compare=None) -> None:
        """Compare an output with its reference (default seed only)."""
        if self.recording:
            self.recorded[key] = value
            return
        if self.refs is None:
            return
        if key not in self.refs:
            if op["kind"] == "cli":
                self.fail(op, f"no reference recorded for {key}")
            return
        problem = (compare or _same_bytes)(self.refs[key], value)
        if problem:
            self.fail(op, f"differs from reference: {problem}")


def _invoke(argv: list[str], tracer: Tracer | None, name: str) -> tuple:
    """cli.main(argv) with output captured: (seconds, exit code, stdout, stderr, error)."""
    from uppertail import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.main", {"op": name}) if tracer else contextlib.nullcontext()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        error = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue(), error


def _same_bytes(ref: str, value: str) -> str | None:
    if ref == value:
        return None
    for i, (a, b) in enumerate(zip(ref.splitlines(), value.splitlines())):
        if a != b:
            return f"line {i + 1}: {a!r} != {b!r}"
    return f"{len(ref)} vs {len(value)} characters"


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_interval(run: Runner, op: dict, row: dict) -> None:
    lo, mid, hi = float(row["ci_low"]), float(row["p_hat"]), float(row["ci_high"])
    # The scaled Wilson ends are rounded products: at hits == samples the upper
    # end can sit a few ulps below p_hat, so the order is checked to 1e-12.
    ordered = lo <= mid * (1 + 1e-12) and mid <= hi * (1 + 1e-12)
    run.check(op, ordered and 0.0 <= lo and hi <= 1.0, f"interval {lo} <= {mid} <= {hi} violated")


def _check_tail_rows(run: Runner, op: dict, rows: list[dict], h, method: str, samples: int) -> None:
    for row in rows:
        _check_interval(run, op, row)
        run.check(op, row["method"] == method, f"method {row['method']} != {method}")
        run.check(op, int(row["samples"]) == samples, f"samples {row['samples']} != {samples}")
        p = float(row["p"])
        t = float(row["t"]) if "t" in row and row["t"] else None
        if t is not None:
            mu = h.num_edges * p**h.k
            run.check(op, _close(float(row["threshold"]), mu + t, 1e-12), "threshold != mu + t")
        if method == "mc":
            hits = float(row["p_hat"]) * samples
            run.check(op, abs(hits - round(hits)) < 1e-6, "mc p_hat is not hits / samples")


# ---------------------------------------------------------------- workloads


def run_exact_enum(run: Runner, p: dict, ctx: dict) -> None:
    ts = [float(t) for t in p["t"].split(",")]
    for spec in p["instances"]:
        h = ctx["built"][spec]
        name = f"exact:{_label(spec)}"
        argv = ["tail", *_family_argv(spec), "--p", p["p"], "--t", p["t"],
                "--method", "exact", "--workers", str(WORKERS)]
        op, out = run.cli(name, argv)
        if op["failed"]:
            continue
        rows = _rows(out)
        run.check(op, len(rows) == len(p["p"].split(",")) * len(ts), f"{len(rows)} rows")
        for i, row in enumerate(rows):
            row["t"] = str(ts[i % len(ts)])
        _check_tail_rows(run, op, rows, h, "exact", 1 << h.n)
        for row in rows:
            run.check(op, row["p_hat"] == row["ci_low"] == row["ci_high"], "exact interval not a point")
        for i in range(0, len(rows), len(ts)):
            tails = [float(r["p_hat"]) for r in rows[i:i + len(ts)]]
            run.check(op, all(b <= a for a, b in zip(tails, tails[1:])), f"tail not monotone in t: {tails}")
        op["subsets"] = 1 << h.n
        run.expect(op, name, out)
    exact = [o for o in run.ops if o["name"].startswith("exact:")]
    run.figures["exact_subsets_per_s"] = (
        sum(o.get("subsets", 0) for o in exact) / sum(o["latency_s"] for o in exact), "1/s")


def _compare_bounds(ref: str, value: str) -> str | None:
    """Same rows and tags; values and numeric inputs within BOUNDS_REL_TOL."""
    a, b = _rows(ref), _rows(value)
    if len(a) != len(b):
        return f"{len(a)} vs {len(b)} rows"
    for i, (ra, rb) in enumerate(zip(a, b)):
        for col in ("family", "n", "k", "p", "t", "tag"):
            if ra[col] != rb[col]:
                return f"row {i}: {col} {ra[col]} != {rb[col]}"
        pairs = [(float(ra["value"]), float(rb["value"]))]
        ia, ib = json.loads(ra["inputs"]), json.loads(rb["inputs"])
        if sorted(ia) != sorted(ib):
            return f"row {i}: inputs keys differ"
        pairs += [(float(ia[key]), float(ib[key])) for key in ia]
        for x, y in pairs:
            if not (x == y or _close(x, y, BOUNDS_REL_TOL)):
                return f"row {i} ({ra['tag']}): {x!r} vs {y!r}"
    return None


def run_large_n(run: Runner, p: dict, ctx: dict) -> None:
    samples = str(MC_SAMPLES)
    stochastic = ["--samples", samples, "--seed", str(run.seed), "--workers", str(WORKERS)]
    h_mc = ctx["built"][p["mc"]]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        resumed, oneshot = os.path.join(tmp, "resumed.csv"), os.path.join(tmp, "oneshot.csv")
        sweep = ["sweep", *_family_argv(p["mc"]), "--p", p["mc_p"], "--method", "mc", *stochastic]
        grids = [
            ("sweep:first", p["mc_t"][:2], resumed, 2),
            ("sweep:resume", p["mc_t"], resumed, 1),
            ("sweep:oneshot", p["mc_t"], oneshot, 3),
        ]
        sweep_ops = []
        for name, ts, path, expect_written in grids:
            op, out = run.cli(name, sweep + ["--t", ",".join(ts), "--out-file", path])
            sweep_ops.append(op)
            if op["failed"]:
                continue
            written = int(out.split()[1]) if out.startswith("wrote ") else -1
            op["rows_written"], op["rows_skipped"] = written, len(ts) - written
            op["samples_computed"] = written * MC_SAMPLES
            run.check(op, written == expect_written, f"wrote {written} rows, expected {expect_written}")
        if not any(o["failed"] for o in sweep_ops):
            op = sweep_ops[-1]
            text_resumed = Path(resumed).read_text()
            text_oneshot = Path(oneshot).read_text()
            op["bytes_out"] += len(text_oneshot.encode())
            sweep_ops[1]["bytes_out"] += len(text_resumed.encode())
            run.check(op, text_resumed == text_oneshot, "resumed sweep file differs from one-shot run")
            rows = _rows(text_oneshot)
            run.check(op, [r["t"] for r in rows] == [f"{float(t):.17g}" for t in p["mc_t"]], "sweep grid")
            run.check(op, all(r["status"] == "ok" for r in rows), "sweep row status")
            _check_tail_rows(run, op, rows, h_mc, "mc", MC_SAMPLES)
            run.expect(op, "sweep", text_oneshot)

    for method in ("planted", "conditioned"):
        spec = p[method]
        argv = ["tail", *_family_argv(spec), "--p", p[f"{method}_p"], "--t", p[f"{method}_t"],
                "--method", method, *stochastic]
        if method == "conditioned":
            argv += ["--eps", p["conditioned_eps"]]
        op, out = run.cli(method, argv)
        if op["failed"]:
            continue
        rows = _rows(out)
        run.check(op, len(rows) == 1, f"{len(rows)} rows")
        for row in rows:
            row["t"] = p[f"{method}_t"]
        _check_tail_rows(run, op, rows, ctx["built"][spec], method, MC_SAMPLES)
        op["samples_computed"] = MC_SAMPLES
        run.expect(op, method, out)

    spec = p["bounds"]
    op, out = run.cli("bounds", ["bounds", *_family_argv(spec), "--p", p["bounds_p"], "--t", p["bounds_t"]])
    if not op["failed"]:
        rows = _rows(out)
        grid = {(float(a), float(b)) for a in p["bounds_p"].split(",") for b in p["bounds_t"].split(",")}
        run.check(op, {(float(r["p"]), float(r["t"])) for r in rows} == grid, "bounds grid")
        h = ctx["built"][spec]
        for row in rows:
            value = float(row["value"])
            run.check(op, not math.isnan(value), f"{row['tag']} is NaN")
            mu = json.loads(row["inputs"]).get("mu")
            if mu is not None:
                run.check(op, _close(mu, h.num_edges * float(row["p"]) ** h.k, 1e-12), "mu != e p^k")
        run.expect(op, "bounds", out, _compare_bounds)

    mc_ops = [o for o in run.ops if "samples_computed" in o]
    if mc_ops:
        run.figures["mc_samples_per_s"] = (
            sum(o["samples_computed"] for o in mc_ops) / sum(o["latency_s"] for o in mc_ops), "1/s")
    run.figures["bounds_s"] = (op["latency_s"], "s")


def run_verify(run: Runner, p: dict, ctx: dict) -> None:
    op, out = run.cli("verify", ["verify"])
    lines = out.splitlines()
    if out:
        total = len(lines) - 1
        run.check(op, lines[-1] == f"passed {total}/{total} checks", lines[-1])
        run.check(op, not any("  FAIL" in line for line in lines), "a verify check failed")
    run.figures["verify_s"] = (op["latency_s"], "s")


def run_decompose(run: Runner, p: dict, ctx: dict) -> None:
    """The decompose stream, once per run: in a forked child unless traced."""
    if run.tracer:
        _decompose_stream(run, p, ctx)
        return

    def stream():
        _decompose_stream(run, p, ctx)
        return run.ops, run.failures, run.figures, run.recorded

    result, error, rss_kb = forked(stream)
    run.peak_rss_kb = max(run.peak_rss_kb, rss_kb)
    if result is None:
        run.fail(run.op("decompose:stream", "decompose"), error)
        return
    run.ops, run.failures, run.figures, run.recorded = result


def _decompose_stream(run: Runner, p: dict, ctx: dict) -> None:
    import numpy as np
    from uppertail import decompose

    params = decompose.CascadeParams(beta=0.5, gamma=0.1, r=2.0, t=9.0, p=DECOMPOSE_P)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        streams = {}
        for spec, _count in p["decompose"]:
            h = ctx["graphs"][spec]
            rng = np.random.default_rng([run.seed, spec[1]])
            streams[spec] = (h, np.asarray(h.edges, dtype=np.int64), rng)
        drawn = dict.fromkeys(streams, 0)
        for spec in p["order"]:
            _decompose_op(run, f"decompose:{_label(spec)}:{drawn[spec]}", *streams[spec], params)
            drawn[spec] += 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    lat = sorted(o["latency_s"] * 1e3 for o in run.ops if o["kind"] == "decompose")
    q = statistics.quantiles(lat, n=20, method="inclusive")
    run.figures["decompose_p50_ms"] = (statistics.median(lat), "ms")
    run.figures["decompose_p95_ms"] = (q[18], "ms")
    run.figures["decompose_ops"] = (len(lat), "count")


def _decompose_op(run: Runner, name: str, h, edges, rng, params) -> None:
    """One decompose op on a fresh p-subset of h; the deadline covers the searches."""
    from uppertail import decompose, hypergraph

    op = run.op(name, "decompose")
    tracer = run.tracer
    depth = tracer.depth() if tracer else 0
    span = tracer.span("op.decompose", {"op": name}) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    row = None
    try:
        with span:
            s = hypergraph.sample_vp(h, DECOMPOSE_P, rng)
            member = s.to_bool_array()
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                x = hypergraph.induced_edge_count(h, s)
                xr, xr_exact = decompose.xr_or_lower(h, s, params.r)
                greedy = decompose.greedy_star_matching(h, s, params.r).size
                try:
                    mr = decompose.mr_exact(h, s, params.r)
                except hypergraph.CapacityError:
                    mr = None
                verdict = decompose.check_cascade_event(h, s, params).verdict
                signal.setitimer(signal.ITIMER_REAL, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            cascade = "indeterminate" if verdict is None else str(verdict).lower()
            row = (f"{len(s)},{x},{xr},{str(xr_exact).lower()},{greedy},"
                   f"{'budget' if mr is None else mr},{cascade}")
    except Deadline:
        op["deadline"] = True
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        run.fail(op, f"raised {type(exc).__name__}: {exc}")
    finally:
        op["latency_s"] = time.perf_counter() - start
        if tracer:
            tracer.reset_depth(depth)
    if row is None:
        return
    run.check(op, x == int(member[edges].all(axis=1).sum()), "x differs from a direct count")
    run.check(op, xr <= x, f"xr {xr} > x {x}")
    if mr is not None:
        run.check(op, greedy <= mr, f"greedy {greedy} > mr {mr}")
        run.check(op, mr * math.ceil(params.r) <= x, f"mr {mr} stars need more than x {x} edges")
    run.expect(op, name, row)


# workload -> (the ops of one round, ops run once per run before the rounds)
WORKLOAD_FNS = {
    "exact-enum": (run_exact_enum, None),
    "large-n": (run_large_n, None),
    "structure": (run_verify, run_decompose),
}


# ---------------------------------------------------------------- traced run extras


def replay_draws(calls: list[dict]) -> float:
    """Seconds to draw, on one thread, the random numbers the samplers consumed."""
    from uppertail.rng import chunk_layout, stream_generator

    if not calls:
        return 0.0
    start = time.perf_counter()
    for c in calls:
        for stream, count in chunk_layout(c["samples"]):
            gen = stream_generator(c["seed"], stream)
            if c["kind"] == "conditioned":
                for i in range(c["m"]):
                    gen.integers(i, c["n"], size=count)
            else:
                gen.random((count, c["free"]))
    return time.perf_counter() - start


def scaling_probes(run: Runner) -> dict:
    """The enumerator and the Monte Carlo kernel at 1 and 2 workers."""
    import numpy as np
    from uppertail import bounds, estimate, families, hypergraph

    out = {}
    base = families.build_ap(24, 3)
    rnd = random.Random(f"probe/{run.seed}")
    graphs = []
    while len(graphs) < 2:
        perm = list(range(base.n))
        rnd.shuffle(perm)
        g = hypergraph.Hypergraph(3, base.n, [tuple(perm[v] for v in e) for e in base.edges])
        if g != base and g not in graphs:
            graphs.append(g)
    op = run.op("probe:histogram", "probe")
    hists = []
    for workers, g in zip((1, 2), graphs):
        start = time.perf_counter()
        hists.append(estimate.edge_count_histogram(g, workers=workers))
        out[f"estimate.histogram_probe_{workers}w_s"] = time.perf_counter() - start
    run.check(op, np.array_equal(*hists), "relabelled AP(24,3) histograms differ across workers")
    out["estimate.histogram_speedup_2w"] = out["estimate.histogram_probe_1w_s"] / out["estimate.histogram_probe_2w_s"]

    op = run.op("probe:mc", "probe")
    h = families.build_ap(200, 3)
    threshold = bounds.exact_mean(h, 0.05) + 2.0
    results = []
    for workers in (1, 2):
        start = time.perf_counter()
        results.append(estimate.mc_tail(h, 0.05, threshold, PROBE_MC_SAMPLES, seed=run.seed, workers=workers))
        out[f"estimate.mc_probe_{workers}w_samples_per_s"] = PROBE_MC_SAMPLES / (time.perf_counter() - start)
    run.check(op, results[0] == results[1], "mc_tail differs across worker counts")
    out["estimate.mc_speedup_2w"] = (
        out["estimate.mc_probe_2w_samples_per_s"] / out["estimate.mc_probe_1w_samples_per_s"])
    return out


# ---------------------------------------------------------------- set-up timing


def setup_child(workload: str, seed: int) -> None:
    """Fresh-process set-up: import, family builds, witnesses; prints its timing."""
    start = time.perf_counter()
    import uppertail.cli  # noqa: F401
    imported = time.perf_counter()
    setup(workload, plan(workload, seed))
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": done - imported}))


def timed_setups(args, count: int) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"set-up child failed: {proc.stderr[-500:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


# ---------------------------------------------------------------- metadata


def _git_head() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def host_calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: shows host speed drift between runs."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py")))


def metadata(args, load_1m: float) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_head": _git_head(),
        "load_1m_at_start": load_1m,
        "src_lines": _src_lines(),
        "workers": WORKERS,
        "deadline_s": DEADLINE_S,
    }


# ---------------------------------------------------------------- main


# Per-layer metric names and units, as listed under per_layer in BENCHMARK.json.
_LAYER_UNITS = {
    "estimate.histogram_s": "s",
    "estimate.histogram_subsets_per_s": "1/s",
    "estimate.histogram_speedup_2w": "x",
    "estimate.histogram_probe_1w_s": "s",
    "estimate.histogram_probe_2w_s": "s",
    "estimate.exact_tail_self_s": "s",
    "estimate.mc_samples_per_s": "1/s",
    "estimate.planted_samples_per_s": "1/s",
    "estimate.conditioned_samples_per_s": "1/s",
    "estimate.mc_speedup_2w": "x",
    "estimate.mc_probe_1w_samples_per_s": "1/s",
    "estimate.mc_probe_2w_samples_per_s": "1/s",
    "estimate.gather_bytes_computed": "B",
    "rng.draw_s": "s",
    "bounds.moment_report_s": "s",
    "bounds.closed_form_s": "s",
    "families.build_s": "s",
    "families.edges": "count",
    "families.witness_s": "s",
    "hypergraph.induced_s": "s",
    "hypergraph.induced_calls": "count",
    "hypergraph.sample_s": "s",
    "decompose.xr_s": "s",
    "decompose.greedy_s": "s",
    "decompose.mr_s": "s",
    "decompose.cascade_s": "s",
    "decompose.xr_inexact": "count",
    "decompose.mr_capped": "count",
    "decompose.cascade_indeterminate": "count",
    "decompose.deadline_hits": "count",
    "disjointness.box_s": "s",
    "disjointness.degree_event_s": "s",
    "disjointness.z_disjoint_s": "s",
    "disjointness.box_calls": "count",
    "verify.phi_s": "s",
    "verify.variance_s": "s",
    "verify.sandwich_s": "s",
    "verify.bk_s": "s",
    "verify.cascade_s": "s",
    "verify.lowerbounds_s": "s",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "cli.sweep_rows_written": "count",
    "cli.sweep_rows_skipped": "count",
    "trace.overhead_frac": "ratio",
}


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=18,
                        help="measuring time: rounds of the workload's ops repeat until it is used "
                             f"(at least {MIN_ROUNDS}); the ops of a round are fixed by the seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference outputs (default seed only)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--record needs --seed {DEFAULT_SEED} and --trace 0")
    if not (SRC / "uppertail" / "__init__.py").is_file():
        print(f"error: no uppertail sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_child(args.workload, args.seed)
        return 0

    load_1m = os.getloadavg()[0]
    calib_start_ms = host_calibration_ms()
    # This process's own set-up, timed as setup_child times it, is one sample.
    setups = [] if args.trace else timed_setups(args, SETUP_REPEATS - 1)
    start = time.perf_counter()
    import uppertail.cli  # noqa: F401

    imported = time.perf_counter()
    if not uppertail.cli.__file__.startswith(str(SRC)):
        print(f"error: imported uppertail from {uppertail.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    p = plan(args.workload, args.seed)
    ctx = setup(args.workload, p)
    if not args.trace:
        setups.append({"import_s": imported - start, "build_s": time.perf_counter() - imported})

    ref_path = REF_DIR / f"{args.workload}.json"
    refs = None
    if args.seed == DEFAULT_SEED and not args.record:
        refs = json.loads(ref_path.read_text())["outputs"] if ref_path.is_file() else {}
    # Forked children share what exists now; frozen, the collector leaves it alone.
    assert_cold()
    gc.collect()
    gc.freeze()

    round_fn, once_fn = WORKLOAD_FNS[args.workload]

    def one_round(tracer: Tracer | None, with_once: bool) -> Runner:
        run = Runner(args.seed, tracer, refs, args.record)
        if with_once and once_fn:
            once_fn(run, p, ctx)
        round_fn(run, p, ctx)
        return run

    untraced_s = None
    if args.trace:
        # One untraced round (forked, cold) gives the tracing overhead; then the
        # traced round runs in-process, after it, so its caches start cold too.
        untraced = one_round(None, True)
        untraced_s = sum(o["latency_s"] for o in untraced.ops)
        tracer = Tracer()
        tracer.install()
        try:
            run = one_round(tracer, True)
        finally:
            tracer.uninstall()
        runs, rounds, round_s = [untraced, run], [run], []
    else:
        tracer = None
        start = time.perf_counter()
        runs = []
        if once_fn:
            runs.append(Runner(args.seed, None, refs, args.record))
            once_fn(runs[0], p, ctx)
        rounds, round_s = [], []
        # New rounds start while the last one still fits in --seconds.
        while len(rounds) < MIN_ROUNDS or (
                len(rounds) < MAX_ROUNDS and time.perf_counter() - start + round_s[-1] <= args.seconds):
            round_start = time.perf_counter()
            rounds.append(one_round(None, False))
            round_s.append(time.perf_counter() - round_start)
        runs += rounds

    all_ops = [o for run in runs for o in run.ops]
    work_ops = [o for o in all_ops if o["kind"] in ("cli", "decompose")]
    deadline_hits = sum(o["deadline"] for o in work_ops)
    cli_times: dict[str, list[float]] = {}
    for run in rounds:
        for o in run.ops:
            if o["kind"] == "cli":
                cli_times.setdefault(o["name"], []).append(o["latency_s"])
    figures = {}
    for run in runs:
        if run not in rounds:
            figures.update(run.figures)
    for key, (_, unit) in rounds[0].figures.items():
        figures[key] = (statistics.median(run.figures[key][0] for run in rounds), unit)

    if tracer:
        spans = tracer.spans
        from uppertail.rng import CHUNK

        traced = rounds[0]
        traced_ops = [o for o in traced.ops if o["kind"] in ("cli", "decompose")]
        cli_ops = [o for o in traced_ops if o["kind"] == "cli"]
        metrics = {k: _metric(v, _LAYER_UNITS[k]) for k, v in layer_metrics(spans, CHUNK).items()}
        extra = scaling_probes(traced)
        extra["rng.draw_s"] = replay_draws(sampler_calls(spans))
        extra["decompose.deadline_hits"] = float(sum(o["deadline"] for o in traced_ops))
        extra["cli.bytes_out"] = float(sum(o.get("bytes_out", 0) for o in cli_ops))
        extra["cli.sweep_rows_written"] = float(sum(o.get("rows_written", 0) for o in cli_ops))
        extra["cli.sweep_rows_skipped"] = float(sum(o.get("rows_skipped", 0) for o in cli_ops))
        traced_s = sum(o["latency_s"] for o in traced_ops)
        extra["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        metrics.update({k: _metric(v, _LAYER_UNITS[k]) for k, v in extra.items()})
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
    else:
        totals = [s["import_s"] + s["build_s"] for s in setups]
        metrics = {
            "setup_s": _metric(statistics.median(totals), "s"),
            "wall_s": _metric(sum(statistics.median(times) for times in cli_times.values()), "s"),
            "peak_rss_mb": _metric(max(run.peak_rss_kb for run in runs) / 1024, "MB"),
            "ops_ok_frac": _metric(
                sum(not (o["failed"] or o["deadline"]) for o in work_ops) / len(work_ops), "ratio"),
        }

    all_ops = [o for run in runs for o in run.ops]  # now with the traced run's probes
    attempted = len(all_ops)
    failed = sum(o["failed"] for o in all_ops)
    recorded = {k: v for run in runs for k, v in run.recorded.items()}
    if args.record:
        REF_DIR.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps({"seed": args.seed, "outputs": recorded}, indent=1, sort_keys=True) + "\n")

    meta = metadata(args, load_1m)
    meta.update(
        rounds=len(rounds),
        round_s=round_s,
        ops_total_s=sum(o["latency_s"] for o in work_ops),
        cli_ops_s=cli_times,
        setup_samples=setups,
        deadline_hits=deadline_hits,
        ops_failed_frac=(failed + deadline_hits) / attempted,
        host_calibration_ms={"start": calib_start_ms, "end": host_calibration_ms()},
        failures=[f for run in runs for f in run.failures][:20],
        workload_metrics={k: _metric(v, u) for k, (v, u) in figures.items()},
    )
    if tracer:
        meta["untraced_ops_total_s"] = untraced_s
        meta["computed_not_measured"] = ["estimate.gather_bytes_computed = CHUNK * e(H) * k per worker"]
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
