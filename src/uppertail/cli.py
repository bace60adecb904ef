"""Command-line front end: family stats, bound reports, tail estimation,
decomposition traces, verification suites, and resumable parameter sweeps.

CSV writes floats with %.17g and JSON lines with Python's shortest round-trip
repr (0.1 prints as 0.10000000000000001 in CSV, as 0.1 in JSON); both are
exact, so identical runs produce byte-identical artifacts.  Exit codes: 0
success, 1 verification or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from .bounds import (
    et_bound,
    exact_mean,
    exponent_ap,
    exponent_appp,
    exponent_apt,
    exponent_hg,
    lb_cluster_bound,
    moment_report,
    theorem_c_bound,
)
from .decompose import (
    CascadeParams, check_cascade_event, greedy_star_matching, mr_exact_on, xr_or_lower_on,
)
from .estimate import (
    METHODS,
    conditioned_histogram,
    conditioned_size,
    edge_count_histogram,
    histogram_tail,
    mc_histogram,
    planted_histogram,
    planting_target,
)
from .families import KINDS, FamilySpec, build, interval_witness
from .hypergraph import CapacityError, delta_j, induced_edges, sample_vp
from .rng import KEY_LIMIT, stream_generator
from .verify import SUITES, run_suites

__all__ = ["RunConfig", "main", "run"]

FAMILY_COLUMNS = ("family", "n", "k", "ell", "vertices", "edges", "delta_1", "delta_2")
BOUNDS_COLUMNS = ("family", "n", "k", "p", "t", "tag", "value", "inputs")
DECOMPOSE_COLUMNS = ("sample", "vertices", "x", "xr", "xr_exact", "greedy_mr", "mr", "cascade")
TAIL_COLUMNS = (
    "family", "n", "k", "p", "threshold", "method",
    "p_hat", "ci_low", "ci_high", "samples", "seed",
)
FORMATS = ("csv", "json")


class UsageError(ValueError):
    pass


class NoWitnessError(UsageError):
    """The family cannot seat a planting witness for the requested edge count."""


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if value is None:
        return ""
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Normalized arguments for one CLI invocation.  The fields after ``family``
    are the flags' dests and config-file keys; their defaults are the CLI's
    unless a subcommand sets its own."""

    subcommand: str
    family: FamilySpec | None = None
    p: tuple[float, ...] = ()
    t: tuple[float, ...] = ()
    method: str = "exact"
    samples: int = 10_000
    seed: int | None = None
    workers: int = 1
    eps: float = 0.0
    alpha: float | None = None
    capacity: float = 1.0
    d: float = 1.0
    r: float | None = None
    beta: float | None = None
    gamma: float | None = None
    cascade_t: float | None = None
    suites: tuple[str, ...] = ()
    out: str = "csv"
    out_file: str = "-"

    def __post_init__(self):  # argparse and JSON give suites as a list
        object.__setattr__(self, "suites", tuple(self.suites))

    def validate(self) -> None:
        needs_family = self.subcommand in ("family", "bounds", "tail", "decompose", "sweep")
        if needs_family and self.family is None:
            raise UsageError(f"{self.subcommand} requires --family and --n")
        if any(not 0.0 <= p <= 1.0 for p in self.p):
            raise UsageError("every p must lie in [0, 1]")
        if any(not math.isfinite(t) for t in self.t):
            raise UsageError("every t must be finite")
        if self.subcommand == "bounds" and any(t <= 0 for t in self.t):
            raise UsageError("bounds needs every t > 0")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise UsageError("--eps must be finite and nonnegative")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise UsageError("--alpha must lie in (0, 1]")
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise UsageError("--capacity must be finite and positive")
        if not (math.isfinite(self.d) and self.d >= 0):
            raise UsageError("--d must be finite and nonnegative")
        if self.subcommand in ("bounds", "tail", "sweep"):
            if not self.p:
                raise UsageError("a nonempty --p grid is required")
            if not self.t:
                raise UsageError("a nonempty --t grid is required")
        if self.subcommand in ("tail", "sweep"):
            if self.method not in METHODS:
                raise UsageError(f"unknown method {self.method!r}")
            if self.method != "exact" and self.seed is None:
                raise UsageError(f"method {self.method!r} requires --seed")
            if self.method == "conditioned":
                n = self.family.n
                m = max(conditioned_size(n, p, self.eps) for p in self.p)
                if m > n:
                    raise UsageError(
                        f"--method conditioned: m = {m} exceeds the {n} available vertices"
                    )
        if self.subcommand == "decompose":
            if len(self.p) != 1:
                raise UsageError("decompose takes exactly one --p")
            if self.r is None or not (math.isfinite(self.r) and self.r > 0):
                raise UsageError("decompose requires a finite --r > 0")
            if self.seed is None:
                raise UsageError("decompose requires --seed")
            cascade_flags = (self.beta, self.gamma, self.cascade_t)
            if any(f is not None for f in cascade_flags) and None in cascade_flags:
                raise UsageError("--beta, --gamma, and --t must be given together")
            if self.beta is not None:
                try:
                    self.cascade_params()
                except ValueError as exc:
                    raise UsageError(f"cascade check: {exc}") from exc
        if self.seed is not None and not 0 <= self.seed < KEY_LIMIT:
            raise UsageError(f"--seed {self.seed} must lie in [0, 2**64)")
        if self.samples < 1:
            raise UsageError("--samples must be positive")
        if self.workers < 1:
            raise UsageError("--workers must be positive")
        if self.out not in FORMATS:
            raise UsageError("--out must be csv or json")
        if self.subcommand == "verify":
            unknown = set(self.suites) - set(SUITES)
            if unknown:
                raise UsageError(f"unknown suites: {sorted(unknown)}")

    def cascade_params(self) -> CascadeParams:
        """decompose's cascade parameters; CascadeParams owns their ranges."""
        return CascadeParams(beta=self.beta, gamma=self.gamma, r=self.r, t=self.cascade_t, p=self.p[0])


def _row_writer(columns: tuple[str, ...], cfg: RunConfig, stream, header: bool = True):
    """write(row) emitting row's columns as one CSV row or JSON line; a CSV header first if asked."""
    if cfg.out == "json":
        return lambda row: stream.write(
            json.dumps({c: row.get(c) for c in columns}, sort_keys=True, separators=(",", ":")) + "\n"
        )
    writer = csv.writer(stream, lineterminator="\n")
    if header:
        writer.writerow(columns)
    return lambda row: writer.writerow([_fmt(row.get(c)) for c in columns])


def _open(path: str, mode: str):
    text = "b" not in mode
    try:
        return open(path, mode, newline="" if text else None, encoding="utf-8" if text else None)
    except OSError as exc:
        raise UsageError(f"--out-file {path}: {exc.strerror or exc}") from exc


def _sink(cfg: RunConfig, stream, mode: str):
    """Context manager for the output: --out-file opened with mode, or stream for -."""
    if cfg.out_file == "-":
        return nullcontext(stream)
    return _open(cfg.out_file, mode)


def _emit(columns: tuple[str, ...], rows: list[dict], cfg: RunConfig, stream) -> None:
    with _sink(cfg, stream, "w") as out:
        write = _row_writer(columns, cfg, out)
        for row in rows:
            write(row)


def _run_family(cfg: RunConfig, stream) -> int:
    spec = cfg.family
    h = build(spec)
    ell = spec.ell if spec.kind == "ell_sum" else None
    values = (spec.kind, spec.n, h.k, ell, h.n, h.num_edges, delta_j(h, 1), delta_j(h, 2))
    _emit(FAMILY_COLUMNS, [dict(zip(FAMILY_COLUMNS, values))], cfg, stream)
    return 0


def _bounds_rows(cfg: RunConfig) -> list[dict]:
    spec = cfg.family
    h = build(spec)
    rows = []

    def add(p: float, t: float, tag: str, value: float, inputs: dict) -> None:
        inputs_json = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
        rows.append(dict(zip(BOUNDS_COLUMNS, (spec.kind, spec.n, h.k, p, t, tag, value, inputs_json))))

    for p in cfg.p:
        report = moment_report(h, p)
        mu, var, lam = report.mu, report.var, report.lam
        for t in cfg.t:
            reports = theorem_c_bound(mu, cfg.capacity, t)
            if (x := math.ceil(mu + t)) >= 1:
                reports += et_bound(mu, cfg.capacity, x)
            for rep in reports:
                add(p, t, rep.tag, rep.log_value, dict(rep.inputs))
            if p > 0:
                add(p, t, "exponent_appp", exponent_appp(mu, p), {"mu": mu, "p": p})
                if var > 0 and mu > 0 and (eps := t / mu) < math.inf:
                    add(p, t, "exponent_ap", exponent_ap(mu, var, p, eps),
                        {"mu": mu, "var": var, "p": p, "eps": eps})
                if var > 0:
                    add(p, t, "exponent_apt", exponent_apt(var, p, t),
                        {"var": var, "p": p, "t": t})
                if lam > 0:
                    for tag, value in zip(("exponent_hg", "exponent_hg_remark"), exponent_hg(mu, lam, p, t)):
                        add(p, t, tag, value, {"mu": mu, "lam": lam, "p": p, "t": t})
                if mu + t >= 1.0:
                    rep = lb_cluster_bound(cfg.d, mu, t, p)
                    add(p, t, rep.tag, rep.log_value, dict(rep.inputs))
    return rows


def _run_bounds(cfg: RunConfig, stream) -> int:
    _emit(BOUNDS_COLUMNS, _bounds_rows(cfg), cfg, stream)
    return 0


def _passes_once(cfg: RunConfig, h):
    """held(p, forced) -> the pass a tail row of cfg.method reads, run on the
    first call that succeeds for its key and held for the command.  The key
    is what fixes the pass: nothing for exact (the p-free edge_count_histogram),
    p for mc and conditioned (samples, seed and eps are fixed per command),
    and p with the forced vertex set for planted (a SampleHistogram each).
    Every t at one key reads the same pass; a command that computes no row
    runs none, so a fully resumed sweep enumerates and draws nothing."""
    passes = {}

    def pass_for(p: float, forced=None):
        key = None
        if cfg.method != "exact":
            # repr(p) keeps -0.0 apart from 0.0: their planted factors print differently.
            key = (repr(p), None if forced is None else forced.bits)
        if key not in passes:
            common = {"samples": cfg.samples, "seed": cfg.seed, "workers": cfg.workers}
            if key is None:
                passes[key] = edge_count_histogram(h, cfg.workers)
            elif cfg.method == "mc":
                passes[key] = mc_histogram(h, p, **common)
            elif cfg.method == "planted":
                passes[key] = planted_histogram(h, p, forced=forced, **common)
            else:
                passes[key] = conditioned_histogram(h, p, eps=cfg.eps, **common)
        return passes[key]

    return pass_for


def _tail_estimate(cfg: RunConfig, h, held, p: float, t: float) -> dict:
    """The estimate columns of the row at (p, t), read from the command's held passes."""
    mu = exact_mean(h, p)
    threshold = mu + t
    if cfg.method == "exact":
        p_hat = histogram_tail(held(p), p, threshold)
        return {"threshold": threshold, "p_hat": p_hat, "ci_low": p_hat, "ci_high": p_hat}
    forced = None
    if cfg.method == "planted":
        target = planting_target(mu, t, h.k, cfg.alpha)
        witness = interval_witness(cfg.family, float(target), h)
        if witness is None:
            raise NoWitnessError(
                f"family {cfg.family.kind}({cfg.family.n}) cannot seat a witness for {target} edges"
            )
        forced = witness.subset
    est = held(p, forced).tail(threshold)
    return {"threshold": est.threshold, "p_hat": est.p_hat, "ci_low": est.ci_low, "ci_high": est.ci_high}


def _grid_rows(cfg: RunConfig, h, skip=frozenset()):
    """The parameter columns of each (p, t) row, in grid order, leaving out the
    rows whose sweep key is in skip.  samples is 2^n for an exact row."""
    samples = 1 << h.n if cfg.method == "exact" else cfg.samples
    for p in cfg.p:
        for t in cfg.t:
            row = {"family": cfg.family.kind, "n": cfg.family.n, "k": h.k, "p": p, "t": t,
                   "method": cfg.method, "samples": samples, "seed": cfg.seed}
            if _sweep_key(row) not in skip:
                yield row


def _run_tail(cfg: RunConfig, stream) -> int:
    h = build(cfg.family)
    held = _passes_once(cfg, h)
    rows = [{**row, **_tail_estimate(cfg, h, held, row["p"], row["t"])} for row in _grid_rows(cfg, h)]
    _emit(TAIL_COLUMNS, rows, cfg, stream)
    return 0


def _run_decompose(cfg: RunConfig, stream) -> int:
    h = build(cfg.family)
    (p,) = cfg.p
    rng = stream_generator(cfg.seed, 0)
    params = cfg.cascade_params() if cfg.beta is not None else None
    rows = []
    for i in range(cfg.samples):
        s = sample_vp(h, p, rng)
        ids = induced_edges(h, s)
        x = len(ids)
        xr, xr_exact_flag = xr_or_lower_on(h, ids, cfg.r)
        greedy = greedy_star_matching(h, s, cfg.r).size
        try:
            mr: Any = mr_exact_on(h, ids, cfg.r)
        except CapacityError:
            mr = "budget"
        if params is not None:
            verdict = check_cascade_event(h, s, params).verdict
            cascade = "indeterminate" if verdict is None else _fmt(verdict)
        else:
            cascade = "na"
        rows.append(dict(zip(DECOMPOSE_COLUMNS, (i, len(s), x, xr, xr_exact_flag, greedy, mr, cascade))))
    _emit(DECOMPOSE_COLUMNS, rows, cfg, stream)
    return 0


def _run_verify(cfg: RunConfig, stream) -> int:
    results = run_suites(cfg.suites or None, cfg.workers)
    for res in results:
        line = f"{res.suite}:{res.name}  {'PASS' if res.ok else 'FAIL'}"
        if res.detail:
            line += f"  ({res.detail})"
        stream.write(line + "\n")
    passed = sum(r.ok for r in results)
    stream.write(f"passed {passed}/{len(results)} checks\n")
    return 0 if passed == len(results) else 1


SWEEP_COLUMNS = TAIL_COLUMNS[:4] + ("t",) + TAIL_COLUMNS[4:] + ("status",)
SWEEP_KEY = ("family", "n", "k", "p", "t", "method", "samples", "seed")


def _sweep_key(row: dict) -> tuple[str, ...]:
    """The parameters that fix a sweep row; an exact row depends on neither samples nor seed."""
    columns = SWEEP_KEY[:-2] if row.get("method") == "exact" else SWEEP_KEY
    return tuple(_fmt(row.get(c)) for c in columns)


def _existing_sweep_keys(cfg: RunConfig) -> set[tuple[str, ...]] | None:
    """Keys of the rows already in --out-file, or None when there is no file
    to append to (stdout, missing or empty) and a CSV header is due.  A file
    not in the requested format is a usage error, never appended to.

    Rows are flushed one at a time, so a run killed mid-write leaves at most
    its last line partial.  Once the complete lines check out, that partial
    line is cut off (with a note on stderr) and its row recomputed.
    """
    path = cfg.out_file
    if path == "-" or not os.path.exists(path) or os.path.getsize(path) == 0:
        return None
    with _open(path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    header = ",".join(SWEEP_COLUMNS)
    # With no complete line, the partial one must begin what a sweep writes first.
    lead = header.encode() if cfg.out == "csv" else b"{"
    valid = end > 0 or lead.startswith(data) or data.startswith(lead)
    try:
        lines = data[:end].decode("utf-8").splitlines()
        if cfg.out == "json":
            rows = [json.loads(line) for line in lines if line.strip()]
            valid = valid and all(isinstance(row, dict) for row in rows)
        else:
            fields = [r for r in csv.reader(lines[1:]) if r]
            valid = valid and lines[:1] in ([], [header])
            valid = valid and all(len(r) == len(SWEEP_COLUMNS) for r in fields)
            rows = [dict(zip(SWEEP_COLUMNS, r)) for r in fields]
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        valid = False
    if not valid:
        raise UsageError(f"--out-file {path}: not a {cfg.out} sweep file")
    if end < len(data):
        os.truncate(path, end)
        print(
            f"note: --out-file {path}: dropped a partial last line "
            f"({len(data) - end} bytes) left by an interrupted run",
            file=sys.stderr,
        )
    return {_sweep_key(row) for row in rows} if end else None


def _run_sweep(cfg: RunConfig, stream) -> int:
    """Write each missing grid row as soon as it is computed, flushed, so a
    failure part way keeps every row before it."""
    h = build(cfg.family)
    held = _passes_once(cfg, h)
    existing = _existing_sweep_keys(cfg)
    written = 0
    with _sink(cfg, stream, "a") as out:
        write = _row_writer(SWEEP_COLUMNS, cfg, out, header=existing is None)
        for row in _grid_rows(cfg, h, existing or frozenset()):
            try:
                row.update(_tail_estimate(cfg, h, held, row["p"], row["t"]), status="ok")
            except CapacityError:
                row["status"] = "budget"
            except NoWitnessError:
                row["status"] = "no_witness"
            write(row)
            out.flush()
            written += 1
    if cfg.out_file != "-":
        stream.write(f"wrote {written} rows to {cfg.out_file}\n")
    return 0


def _grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from exc


def _add_row_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=KINDS, help="integer family kind")
    sub.add_argument("--n", type=int, help="ground-set size")
    sub.add_argument("--k", type=int, help="progression length (ap only)")
    sub.add_argument("--ell", type=int, help="multiplier for x + y = l*z")
    sub.add_argument("--out", choices=FORMATS, help="output format")
    sub.add_argument("--out-file", help="output path; - for stdout")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=_grid, help="comma-separated p grid")
    sub.add_argument("--t", type=_grid, help="comma-separated t grid")


def _add_estimate_flags(sub: argparse.ArgumentParser) -> None:
    _add_grid_flags(sub)
    sub.add_argument("--method", choices=METHODS)
    sub.add_argument("--samples", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--eps", type=float, help="conditioned-vertex surplus")
    sub.add_argument("--alpha", type=float, help="planting overlap parameter")
    _add_workers_flag(sub)


def _add_workers_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--workers", type=int, help="0 = cpu count")
    sub.set_defaults(workers=0)


def _config_parser() -> argparse.ArgumentParser:
    """The --config flag alone: main() takes it out of argv before the full parse."""
    parser = argparse.ArgumentParser(
        add_help=False, allow_abbrev=False, exit_on_error=False, argument_default=argparse.SUPPRESS
    )
    parser.add_argument("--config", help="JSON file of flag defaults; explicit flags win")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The uppertail parser.  Its namespaces hold only the flags argv or a
    config file gave, plus subcommand defaults; ``parser.subparsers`` maps each
    subcommand to its parser."""
    parser = argparse.ArgumentParser(
        prog="uppertail",
        description="Upper-tail experiments for induced edge counts of random vertex subsets.",
        argument_default=argparse.SUPPRESS,
        parents=[_config_parser()],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subparsers = sub.choices

    def add(name: str, summary: str, rows: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        if rows:
            _add_row_flags(cmd)
        return cmd

    add("family", "one stats row for a family instance")

    bounds = add("bounds", "bound reports over a (p, t) grid")
    _add_grid_flags(bounds)
    bounds.add_argument("--capacity", type=float, help="capacity C")
    bounds.add_argument("--d", type=float, help="witness density D")

    _add_estimate_flags(add("tail", "tail estimates at threshold mu + t"))

    dec = add("decompose", "per-sample decomposition rows")
    dec.add_argument("--p", type=_grid, help="sampling probability")
    dec.add_argument("--r", type=float, help="degree threshold r")
    dec.add_argument("--samples", type=int)
    dec.add_argument("--seed", type=int)
    dec.add_argument("--beta", type=float, help="cascade beta")
    dec.add_argument("--gamma", type=float, help="cascade gamma")
    dec.add_argument("--t", dest="cascade_t", type=float, help="cascade t")
    dec.set_defaults(p=(0.5,), samples=10)

    ver = add("verify", "run named verification suites", rows=False)
    ver.add_argument("suites", nargs="*", help=f"subset of {sorted(SUITES)}; default all")
    _add_workers_flag(ver)

    _add_estimate_flags(add("sweep", "tail estimates over a (p, t) cross product"))
    return parser


def _config_value(action: argparse.Action, value: Any) -> Any:
    """A JSON value as its flag would parse it: through the flag's type, from
    its text.  A list is a comma grid (--p, --t) or the positional suites."""
    if action.nargs == "*":
        return [str(v) for v in (value if isinstance(value, list) else [value])]
    if isinstance(value, list) and action.type is _grid:
        value = ",".join(map(str, value))
    if value is None or isinstance(value, (list, dict)):
        raise UsageError(f"{action.dest} takes one value, not {json.dumps(value)}")
    return (action.type or str)(str(value))


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the JSON object at path the defaults of each subparser with its keys as dests."""
    # Subparsers re-parse into a fresh namespace, so plain namespace seeding
    # gets clobbered; rewriting defaults survives that and keeps flag priority.
    actions = {cmd: {a.dest: a for a in cmd._actions if a.dest != "help"}
               for cmd in parser.subparsers.values()}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise UsageError("must hold a JSON object")
        unknown = set(data).difference(*actions.values())
        if unknown:
            raise UsageError(f"unknown keys: {sorted(unknown)}")
        for cmd, known in actions.items():
            cmd.set_defaults(**{k: _config_value(known[k], v) for k, v in data.items() if k in known})
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"--config {path}: {exc}") from exc


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    fields = vars(ns)
    kind = fields.pop("family", None)
    shape = {key: fields.pop(key) for key in ("n", "k", "ell") if key in fields}
    spec = None
    if kind is not None:
        if "n" not in shape:
            raise UsageError("--family requires --n")
        try:
            spec = FamilySpec(kind, **shape)
        except (TypeError, ValueError) as exc:
            raise UsageError(str(exc)) from exc
    if fields.get("workers") == 0:
        fields["workers"] = os.cpu_count() or 1
    return RunConfig(family=spec, **fields)


_RUNNERS = {
    "family": _run_family,
    "bounds": _run_bounds,
    "tail": _run_tail,
    "decompose": _run_decompose,
    "verify": _run_verify,
    "sweep": _run_sweep,
}


def run(config: RunConfig, stream=None) -> int:
    """Execute one validated CLI invocation; returns the exit status."""
    config.validate()
    out = stream if stream is not None else sys.stdout
    return _RUNNERS[config.subcommand](config, out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        opts, args = _config_parser().parse_known_args(sys.argv[1:] if argv is None else argv)
        if "config" in opts:
            _apply_config(parser, opts.config)
        return run(_config_from_namespace(parser.parse_args(args)))
    except (UsageError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
