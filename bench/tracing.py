"""Spans around the library's module-level functions, recorded from outside.

``install`` replaces every binding of a traced function in every
``tvpriv`` module with one wrapper, so a call is recorded whichever module
makes it (``regions`` calls ``lp.feasible`` through the ``lp`` module,
``tradeoff`` calls its own imported ``enumerate_spoints``, ``suites``
dispatches through its ``SUITES`` table).  Each call records a span:
name, start, end and parent.  A span's self time is its duration minus
the time its child spans cover.

A ``Profile`` holds the sums that the per-layer metrics need; profiles
from several processes add up, so traced CLI processes each write one
and the benchmark merges them.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter

MODULES = ("probability", "leakage", "lp", "regions", "tradeoff", "threats",
           "suites", "cli")

TRACED = {
    "probability": ("compose",),
    "leakage": ("avg_tv_leakage", "leakage_report", "is_postprocessing_consistent",
                "is_linkage_consistent", "lp_linkage_slack"),
    "lp": ("solve", "feasible"),
    "regions": ("build_linear_forms", "enumerate_regions", "region_extreme_points",
                "enumerate_spoints"),
    "tradeoff": ("t_xy", "solve_tradeoff", "sweep_curve", "mechanism_from_weights"),
    "threats": ("inference_gain",),
    "cli": ("main", "load_source"),
}


class Profile:
    """Per-span-name sums: calls, total duration and self time, plus counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def add(self, other: "Profile") -> None:
        self.calls.update(other.calls)
        self.total.update(other.total)
        self.self_time.update(other.self_time)
        self.counts.update(other.counts)
        for k, v in other.maxima.items():
            self.maxima[k] = max(v, self.maxima.get(k, v))

    def to_json(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self_time": dict(self.self_time), "counts": dict(self.counts),
                "maxima": self.maxima}

    @classmethod
    def from_json(cls, doc: dict) -> "Profile":
        p = cls()
        p.calls.update(doc["calls"])
        p.total.update(doc["total"])
        p.self_time.update(doc["self_time"])
        p.counts.update(doc["counts"])
        p.maxima.update(doc["maxima"])
        return p


class Tracer:
    """Records spans in memory; ``profile()`` reduces them at the end."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(value, self.maxima.get(key, value))

    def profile(self) -> Profile:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        prof = Profile()
        for (name, start, end, _), child in zip(self.spans, covered):
            prof.calls[name] += 1
            prof.total[name] += end - start
            prof.self_time[name] += end - start - child
        prof.counts.update(self.counts)
        prof.maxima.update(self.maxima)
        return prof


# counters recorded where the work happens --------------------------------

def _region_extreme_points(tr: Tracer, args, kwargs, result) -> None:
    region = args[0] if args else kwargs["region"]
    m, n = region.a_tilde.shape
    # the basis sweep tests every (m+1)-column subset of the n+m columns
    tr.counts["bases_tested"] += math.comb(n + m, m + 1)
    if tr.parent_name() == "regions.enumerate_spoints":
        tr.counts["vertices_raw"] += len(result)


def _enumerate_regions(tr: Tracer, args, kwargs, result) -> None:
    forms = args[0] if args else kwargs["forms"]
    tr.counts["forms_kept"] += len(forms)
    tr.counts["regions"] += len(result)


def _enumerate_spoints(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["spoints"] += len(result)


def _lp_solve(tr: Tracer, args, kwargs, result) -> None:
    problem = args[0] if args else kwargs["p"]
    tr.counts["lp_columns"] += problem.n_vars


def _mechanism_from_weights(tr: Tracer, args, kwargs, result) -> None:
    tr.note_max("support_size", result.channel_u_given_y.n_outputs)


HOOKS = {
    "regions.region_extreme_points": _region_extreme_points,
    "regions.enumerate_regions": _enumerate_regions,
    "regions.enumerate_spoints": _enumerate_spoints,
    "lp.solve": _lp_solve,
    "tradeoff.mechanism_from_weights": _mechanism_from_weights,
}


def install(tracer: Tracer):
    """Wrap every traced function at each module attribute that binds it.

    Returns a function that restores the original bindings.
    """
    package = importlib.import_module("tvpriv")
    mods = {name: importlib.import_module(f"tvpriv.{name}") for name in MODULES}
    namespaces = [package, *mods.values()]
    undo = []
    for layer, names in TRACED.items():
        for fname in names:
            fn = getattr(mods[layer], fname)
            span = f"{layer}.{fname}"
            wrapper = tracer.wrap(span, fn, HOOKS.get(span))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        undo.append((ns, attr, fn))
    table = mods["suites"].SUITES
    for key, fn in list(table.items()):
        table[key] = tracer.wrap(f"suites.{key}", fn)
        undo.append((table, key, fn))

    def restore():
        for target, key, fn in reversed(undo):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)

    return restore


# per-layer metrics ------------------------------------------------------

def layer_metrics(prof: Profile, rounds: int, round_s: float,
                  cli_import_s: float = 0.0, cli_output_bytes: float = 0.0) -> dict:
    """Per-layer metrics per workload round, as (value, unit) pairs.

    Sums are divided by the number of rounds; ratios, maxima and the CLI
    import time (a median per process) are not.
    """
    r = float(rounds)
    tot, slf, calls, cnt = prof.total, prof.self_time, prof.calls, prof.counts

    def per_round(x):
        return x / r

    def ratio(a, b):
        return a / b if b else 0.0

    rep_calls = calls["regions.region_extreme_points"]
    out = {
        "regions.region_extreme_points_s": (per_round(tot["regions.region_extreme_points"]), "s"),
        "regions.region_extreme_points_calls": (per_round(rep_calls), "count"),
        "regions.bases_tested": (per_round(cnt["bases_tested"]), "count"),
        "regions.enumerate_spoints_self_s": (per_round(slf["regions.enumerate_spoints"]), "s"),
        "regions.vertices_raw": (per_round(cnt["vertices_raw"]), "count"),
        "regions.spoints": (per_round(cnt["spoints"]), "count"),
        "regions.dedup_ratio": (ratio(cnt["spoints"], cnt["vertices_raw"]), "ratio"),
        "regions.enumerate_regions_self_s": (per_round(slf["regions.enumerate_regions"]), "s"),
        "regions.regions": (per_round(cnt["regions"]), "count"),
        "regions.forms_kept": (per_round(cnt["forms_kept"]), "count"),
        "regions.extreme_points_per_region": (ratio(rep_calls, cnt["regions"]), "ratio"),
        "lp.feasible_s": (per_round(tot["lp.feasible"]), "s"),
        "lp.feasible_calls": (per_round(calls["lp.feasible"]), "count"),
        "lp.solve_s": (per_round(tot["lp.solve"]), "s"),
        "lp.solve_calls": (per_round(calls["lp.solve"]), "count"),
        "lp.columns_mean": (ratio(cnt["lp_columns"], calls["lp.solve"]), "count"),
        "tradeoff.solve_tradeoff_self_s": (per_round(slf["tradeoff.solve_tradeoff"]), "s"),
        "tradeoff.solve_tradeoff_calls": (per_round(calls["tradeoff.solve_tradeoff"]), "count"),
        "tradeoff.sweep_curve_self_s": (per_round(slf["tradeoff.sweep_curve"]), "s"),
        "tradeoff.mechanism_from_weights_s": (per_round(tot["tradeoff.mechanism_from_weights"]), "s"),
        "tradeoff.t_xy_s": (per_round(tot["tradeoff.t_xy"]), "s"),
        "tradeoff.t_xy_calls": (per_round(calls["tradeoff.t_xy"]), "count"),
        "tradeoff.support_size_max": (prof.maxima.get("support_size", 0), "count"),
        "probability.compose_s": (per_round(tot["probability.compose"]), "s"),
        "probability.compose_calls": (per_round(calls["probability.compose"]), "count"),
        "leakage.leakage_report_s": (per_round(tot["leakage.leakage_report"]), "s"),
        "leakage.avg_tv_leakage_s": (per_round(tot["leakage.avg_tv_leakage"]), "s"),
        "leakage.avg_tv_leakage_calls": (per_round(calls["leakage.avg_tv_leakage"]), "count"),
        "leakage.chain_checks_s": (per_round(tot["leakage.is_postprocessing_consistent"]
                                             + tot["leakage.is_linkage_consistent"]
                                             + tot["leakage.lp_linkage_slack"]), "s"),
        "threats.inference_gain_s": (per_round(tot["threats.inference_gain"]), "s"),
        "threats.inference_gain_calls": (per_round(calls["threats.inference_gain"]), "count"),
        "suites.bounds_s": (per_round(tot["suites.bounds"]), "s"),
        "suites.markov_s": (per_round(tot["suites.markov"]), "s"),
        "suites.threats_s": (per_round(tot["suites.threats"]), "s"),
        "suites.lp_s": (per_round(tot["suites.lp"]), "s"),
        "cli.main_self_s": (per_round(slf["cli.main"]), "s"),
        "cli.load_source_s": (per_round(tot["cli.load_source"]), "s"),
        "cli.output_bytes": (cli_output_bytes, "bytes"),
        "cli.import_s": (cli_import_s, "s"),
        "trace.round_s": (round_s, "s"),
        "trace.spans": (per_round(sum(calls.values())), "count"),
    }
    return out
