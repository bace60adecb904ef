"""Span tracer for the uppertail benchmark.

Spans are recorded from outside the library: ``Tracer.install`` replaces
every module-global reference to a traced public function of ``uppertail``
(both the names a module imports from another module and the defining
module's own global, so intra-module calls such as ``exact_tail`` ->
``edge_count_histogram`` are seen too) with a wrapper that records
``(id, parent, name, start, end, info)``.  ``uninstall`` restores the
originals.  Library source is never edited.

A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import inspect
import math
import sys
import threading
import time
from contextlib import contextmanager

# Traced public functions, by defining module.  Each maps to the per-layer
# bucket its time is charged to.
TRACED = {
    "hypergraph": {
        "induced_edge_count": "hypergraph.induced",
        "induced_edges": "hypergraph.induced",
        "sample_vp": "hypergraph.sample",
        "sample_vm": "hypergraph.sample",
    },
    "families": {
        "build": "families.build",
        "build_ap": "families.build",
        "build_schur": "families.build",
        "build_ell_sum": "families.build",
        "interval_witness": "families.witness",
        "greedy_witness": "families.witness",
    },
    "estimate": {
        "edge_count_histogram": "estimate.histogram",
        "exact_tail": "estimate.exact_tail",
        "exact_point_mass": "estimate.exact_tail",
        "mc_tail": "estimate.mc",
        "planted_tail": "estimate.planted",
        "conditioned_tail": "estimate.conditioned",
    },
    "bounds": {
        "moment_report": "bounds.moments",
        "exact_mean": "bounds.moments",
        "exact_variance": "bounds.moments",
        "hypergeom_conditional_mean": "bounds.moments",
        "theorem_c_bound": "bounds.closed_form",
        "et_bound": "bounds.closed_form",
        "exponent_appp": "bounds.closed_form",
        "exponent_ap": "bounds.closed_form",
        "exponent_apt": "bounds.closed_form",
        "exponent_hg": "bounds.closed_form",
        "lb_cluster_bound": "bounds.closed_form",
        "binomial_point_lower": "bounds.closed_form",
        "binomial_point_lower_refined": "bounds.closed_form",
        "paley_zygmund_lower": "bounds.closed_form",
    },
    "decompose": {
        "xr_or_lower": "decompose.xr",
        "xr_exact": "decompose.xr",
        "greedy_star_matching": "decompose.greedy",
        "mr_exact": "decompose.mr",
        "check_cascade_event": "decompose.cascade",
    },
    "disjointness": {
        "box": "disjointness.box",
        "degree_event": "disjointness.degree_event",
        "z_disjoint": "disjointness.z_disjoint",
    },
    "verify": {
        "run_suites": "verify.run_suites",
    },
}


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """In-memory span recorder; each span names its parent, so the spans of one
    benchmark op form a tree under that op's root span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._next_id = 1
        self._id_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.hist_seen: list = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            sid = self._next_id
            self._next_id += 1
        return sid

    def depth(self) -> int:
        return len(self._stack())

    def reset_depth(self, depth: int) -> None:
        """Drop frames left open by an exception raised between push and try."""
        del self._stack()[depth:]

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        stack = self._stack()
        depth = len(stack)
        sid = self._new_id()
        parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            del stack[depth:]
            self.spans.append((sid, parent, name, start, end, info))

    def _wrap(self, qualname: str, fn):
        hook = _HOOKS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            depth = len(stack)
            sid = tracer._new_id()
            parent = stack[-1]
            stack.append(sid)
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = {"raised": type(exc).__name__}
                raise
            else:
                if hook is not None:
                    info = hook(tracer, _bound_args(fn, args, kwargs), result)
                return result
            finally:
                end = time.perf_counter()
                del stack[depth:]
                tracer.spans.append((sid, parent, qualname, start, end, info))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Route every module-global reference to a traced function through a span."""
        import uppertail.verify as verify

        originals = {}  # id(function) -> (qualified name, function); keeps the ids valid
        for mod_name, names in TRACED.items():
            module = sys.modules[f"uppertail.{mod_name}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (f"{mod_name}.{name}", fn)
        wrappers = {key: self._wrap(q, fn) for key, (q, fn) in originals.items()}
        modules = [m for n, m in list(sys.modules.items()) if n == "uppertail" or n.startswith("uppertail.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        # run_suites looks suites up in this dict, so the suites are wrapped there.
        for name, fn in list(verify.SUITES.items()):
            self._patches.append((verify.SUITES, name, fn))
            verify.SUITES[name] = self._wrap(f"verify.{name}", fn)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._patches.clear()


# ---------------------------------------------------------------- span info hooks


def _hist_info(tracer: Tracer, args: dict, result) -> dict:
    h = args["h"]
    computed = h not in tracer.hist_seen
    if computed:
        tracer.hist_seen.append(h)
    return {"subsets": (1 << h.n) if computed else 0}


def _sampler_info(kind: str):
    def hook(tracer: Tracer, args: dict, result) -> dict:
        h = args["h"]
        info = {
            "kind": kind,
            "samples": args["samples"],
            "seed": args["seed"],
            "n": h.n,
            "free": h.n,
            "m": 0,
            "gather_bytes": h.num_edges * h.k,
        }
        extra = result.extra or {}
        if kind == "planted":
            info["free"] = h.n - extra.get("witness_size", 0)
        if kind == "conditioned":
            info["m"] = extra.get("m", 0)
        return info

    return hook


def _build_info(tracer: Tracer, args: dict, result) -> dict:
    return {"edges": result.num_edges}


def _xr_info(tracer: Tracer, args: dict, result) -> dict:
    return {"inexact": not result[1]}


def _cascade_info(tracer: Tracer, args: dict, result) -> dict:
    return {"indeterminate": result.verdict is None}


def _suites_info(tracer: Tracer, args: dict, result) -> dict:
    return {"checks": len(result), "failed": sum(not r.ok for r in result)}


_HOOKS = {
    "estimate.edge_count_histogram": _hist_info,
    "estimate.mc_tail": _sampler_info("mc"),
    "estimate.planted_tail": _sampler_info("planted"),
    "estimate.conditioned_tail": _sampler_info("conditioned"),
    "families.build": _build_info,
    "families.build_ap": _build_info,
    "families.build_schur": _build_info,
    "families.build_ell_sum": _build_info,
    "decompose.xr_or_lower": _xr_info,
    "decompose.check_cascade_event": _cascade_info,
    "verify.run_suites": _suites_info,
}


# ---------------------------------------------------------------- aggregation


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for sid, parent, _name, start, end, _info in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_time.get(sid, 0.0) for sid, _p, _n, start, end, _i in spans}


def _bucket(name: str) -> str:
    mod, _, fn = name.partition(".")
    if mod == "verify" and fn != "run_suites":
        return f"verify.{fn}"
    return TRACED.get(mod, {}).get(fn, name)


def layer_metrics(spans: list[tuple], chunk: int) -> dict[str, float]:
    """Per-layer figures from the spans of one traced workload run."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sid, _parent, name, start, end, _info in spans:
        bucket = _bucket(name)
        self_s[bucket] = self_s.get(bucket, 0.0) + own[sid]
        total_s[bucket] = total_s.get(bucket, 0.0) + (end - start)
        calls[bucket] = calls.get(bucket, 0) + 1

    def infos(qualname: str):
        return [s[5] for s in spans if s[2] == qualname and s[5] and "raised" not in s[5]]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    subsets = sum(i["subsets"] for i in infos("estimate.edge_count_histogram"))
    samplers = {k: infos(f"estimate.{k}_tail") for k in ("mc", "planted", "conditioned")}
    gather = [i["gather_bytes"] for rows in samplers.values() for i in rows]
    mr_capped = sum(
        1 for s in spans if s[2] == "decompose.mr_exact" and s[5] and s[5].get("raised") == "CapacityError"
    )
    build_ids = {s[0] for s in spans if _bucket(s[2]) == "families.build"}
    outer_builds = [
        s[5] for s in spans
        if s[0] in build_ids and s[1] not in build_ids and s[5] and "edges" in s[5]
    ]
    suite_names = ("phi", "variance", "sandwich", "bk", "cascade", "lowerbounds")
    suites = infos("verify.run_suites")
    out = {
        "estimate.histogram_s": total_s.get("estimate.histogram", 0.0),
        "estimate.histogram_subsets_per_s": rate(subsets, total_s.get("estimate.histogram", 0.0)),
        "estimate.exact_tail_self_s": self_s.get("estimate.exact_tail", 0.0),
        "estimate.mc_samples_per_s": rate(
            sum(i["samples"] for i in samplers["mc"]), total_s.get("estimate.mc", 0.0)
        ),
        "estimate.planted_samples_per_s": rate(
            sum(i["samples"] for i in samplers["planted"]), total_s.get("estimate.planted", 0.0)
        ),
        "estimate.conditioned_samples_per_s": rate(
            sum(i["samples"] for i in samplers["conditioned"]),
            total_s.get("estimate.conditioned", 0.0),
        ),
        "estimate.gather_bytes_computed": float(chunk * max(gather, default=0)),
        "bounds.moment_report_s": self_s.get("bounds.moments", 0.0),
        "bounds.closed_form_s": self_s.get("bounds.closed_form", 0.0),
        "families.build_s": self_s.get("families.build", 0.0),
        "families.edges": float(sum(info["edges"] for info in outer_builds)),
        "families.witness_s": self_s.get("families.witness", 0.0),
        "hypergraph.induced_s": self_s.get("hypergraph.induced", 0.0),
        "hypergraph.induced_calls": float(calls.get("hypergraph.induced", 0)),
        "hypergraph.sample_s": self_s.get("hypergraph.sample", 0.0),
        "decompose.xr_s": self_s.get("decompose.xr", 0.0),
        "decompose.greedy_s": self_s.get("decompose.greedy", 0.0),
        "decompose.mr_s": self_s.get("decompose.mr", 0.0),
        "decompose.cascade_s": self_s.get("decompose.cascade", 0.0),
        "decompose.xr_inexact": float(sum(i["inexact"] for i in infos("decompose.xr_or_lower"))),
        "decompose.mr_capped": float(mr_capped),
        "decompose.cascade_indeterminate": float(
            sum(i["indeterminate"] for i in infos("decompose.check_cascade_event"))
        ),
        "disjointness.box_s": self_s.get("disjointness.box", 0.0),
        "disjointness.degree_event_s": self_s.get("disjointness.degree_event", 0.0),
        "disjointness.z_disjoint_s": self_s.get("disjointness.z_disjoint", 0.0),
        "disjointness.box_calls": float(calls.get("disjointness.box", 0)),
        "verify.self_s": sum(self_s.get(f"verify.{n}", 0.0) for n in suite_names)
        + self_s.get("verify.run_suites", 0.0),
        "verify.checks": float(sum(i["checks"] for i in suites)),
        "verify.checks_failed": float(sum(i["failed"] for i in suites)),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
    for name in suite_names:
        out[f"verify.{name}_s"] = total_s.get(f"verify.{name}", 0.0)
    return {k: (v if math.isfinite(v) else 0.0) for k, v in out.items()}


def sampler_calls(spans: list[tuple]) -> list[dict]:
    """Arguments of every completed sampler call, for replaying their draws."""
    return [
        s[5]
        for s in spans
        if s[2] in ("estimate.mc_tail", "estimate.planted_tail", "estimate.conditioned_tail")
        and s[5]
        and "raised" not in s[5]
    ]
