"""Out-of-tree tracing of the tfkeyrate layers.

A Tracer replaces each traced public function with a wrapper at every
module attribute that refers to it (the defining module and every
`from .x import f` site), records one span per call, and restores the
originals on exit.  Wrappers return the wrapped function's value and
re-raise its exceptions untouched, so traced and untraced runs produce
identical outputs.

Spans are (id, name, start, end, parent, attrs) records held in memory; a span's
parent is the innermost open span of the same thread.  Self time is a span's
duration minus the durations of its children, which never overlap because a
thread runs one call at a time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict

from .setup_probe import MODULES

PACKAGE = "tfkeyrate"

# (module, function) -> span name.  Functions absent from a module are
# skipped, so the tracer survives refactors that remove one of them.
SPANNED = {
    ("finite_stats", "integrate_adaptive_simpson"): "finite_stats.quadrature",
    ("channel_model", "observed_statistics"): "channel_model.observed_statistics",
    ("channel_model", "expected_pair_counts"): "channel_model.expected_pair_counts",
    ("channel_model", "x_basis_counts"): "channel_model.x_basis_counts",
    ("keyrate_engine", "evaluate_link"): "keyrate_engine.evaluate_link",
    ("keyrate_engine", "estimate_singles_yields"): "keyrate_engine.estimate_singles_yields",
    ("keyrate_engine", "estimate_s11_z"): "keyrate_engine.estimate_s11_z",
    ("keyrate_engine", "estimate_s0mub_z"): "keyrate_engine.estimate_s0mub_z",
    ("keyrate_engine", "estimate_s11_x"): "keyrate_engine.estimate_s11_x",
    ("event_simulator", "simulate_rounds"): "event_simulator.simulate_rounds",
    ("event_simulator", "post_match_z"): "event_simulator.post_match_z",
    ("event_simulator", "post_match_x"): "event_simulator.post_match_x",
    ("event_simulator", "compare_with_analytics"): "event_simulator.compare_with_analytics",
    ("planner", "polish_delta"): "planner.polish_delta",
    ("cli", "load_scenario"): "cli.load_scenario",
}

# Tiny, hot functions: counted, no span.
COUNTED = {
    ("finite_stats", "chernoff_expected_bounds"): "finite_stats.chernoff",
    ("finite_stats", "chernoff_observed_bounds"): "finite_stats.chernoff",
}

REQUEST = "cli.request"


def _evaluate_link_attrs(args, kwargs, result, error):
    if error is not None:
        return {"outcome": "infeasible" if type(error).__name__ == "InfeasibleDecoyError" else "error"}
    return {"outcome": "positive" if result.result.rate > 0.0 else "zero"}


def _simulate_rounds_attrs(args, kwargs, result, error):
    if error is not None:
        return None
    from tfkeyrate import event_simulator

    threads = kwargs.get("threads", args[6] if len(args) > 6 else None)
    shard = getattr(event_simulator, "SHARD_ROUNDS", 0)
    return {
        "rounds": result.n_rounds,
        "shards": math.ceil(result.n_rounds / shard) if shard else 0,
        "z_pool_events": len(getattr(result, "z_o_bob_mu", ()))
        + len(getattr(result, "z_mu_bob_mu", ())),
        "x_slice_events": len(getattr(result, "x_u", ())),
        "threads": event_simulator.resolve_threads(threads),
    }


def _polish_delta_attrs(args, kwargs, result, error):
    return None if error is not None else {"evaluations": result[3]}


ATTRS = {
    "keyrate_engine.evaluate_link": _evaluate_link_attrs,
    "event_simulator.simulate_rounds": _simulate_rounds_attrs,
    "planner.polish_delta": _polish_delta_attrs,
}


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        error = None
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = None
            if attrs is not None:
                try:
                    extra = attrs(args, kwargs, result, error)
                except (AttributeError, TypeError, IndexError):
                    pass  # a changed return shape loses the attributes, never the call
            self.spans.append((span_id, name, start, end, parent, extra))

    def _span_wrapper(self, name: str, fn):
        attrs = ATTRS.get(name)
        tracer = self

        if name == "finite_stats.quadrature":

            @functools.wraps(fn)
            def quadrature(f, *args, **kwargs):
                def counted(x):
                    tracer.counts["finite_stats.integrand_evals"] += 1
                    return f(x)

                return tracer.call(name, fn, (counted, *args), kwargs)

            return quadrature

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, attrs)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        by_module = dict(zip(MODULES, modules))
        replacements = {}
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for (module, func), name in table.items():
                original = getattr(by_module[module], func, None)
                if original is not None:
                    replacements[id(original)] = (original, make(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write spans (in end order, columnar) and counts as gzip-compressed JSON."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["id", "name", "start", "end", "parent", "attrs"],
            "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]] for s in self.spans],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]

    def parent_name(span) -> str:
        parent = by_id.get(span[4])
        return parent[1] if parent is not None else ""

    links = [s for s in spans if s[1] == "keyrate_engine.evaluate_link"]
    outcome = {s[0]: (s[5] or {}).get("outcome") for s in links}
    infeasible = sum(1 for s in links if outcome[s[0]] == "infeasible")
    planner_links = [s for s in links if parent_name(s).startswith("planner.")]
    planner_zero = sum(1 for s in planner_links if outcome[s[0]] != "positive")
    decoy_chain = sum(
        s[3] - s[2]
        for s in spans
        if s[1].startswith("keyrate_engine.estimate_") and parent_name(s) == REQUEST
    )
    sims = [s[5] for s in spans if s[1] == "event_simulator.simulate_rounds" and s[5]]
    rounds = sum(a["rounds"] for a in sims)
    z_pool = sum(a["z_pool_events"] for a in sims)
    x_slice = sum(a["x_slice_events"] for a in sims)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    quad = "finite_stats.quadrature"
    link = "keyrate_engine.evaluate_link"
    return {
        f"{quad}.calls": calls[quad],
        f"{quad}.s": total[quad],
        "finite_stats.integrand_evals": tracer.counts["finite_stats.integrand_evals"],
        "finite_stats.integrand_evals_per_link": ratio(
            tracer.counts["finite_stats.integrand_evals"], calls[link]
        ),
        "finite_stats.chernoff.calls": tracer.counts["finite_stats.chernoff"],
        "channel_model.observed_statistics.calls": calls["channel_model.observed_statistics"],
        "channel_model.observed_statistics.s": total["channel_model.observed_statistics"],
        "channel_model.expected_pair_counts.s": total["channel_model.expected_pair_counts"],
        "channel_model.x_basis_counts.s": total["channel_model.x_basis_counts"],
        f"{link}.calls": calls[link],
        f"{link}.s": total[link],
        f"{link}.self_s": self_time[link],
        "keyrate_engine.infeasible_share": ratio(infeasible, len(links)),
        "keyrate_engine.decoy_chain.s": decoy_chain,
        "planner.zero_rate_share": ratio(planner_zero, len(planner_links)),
        "planner.self_s": sum(v for k, v in self_time.items() if k.startswith("planner.")),
        "planner.polish_delta.calls": calls["planner.polish_delta"],
        "planner.polish_delta.s": total["planner.polish_delta"],
        "planner.polish_delta.evals": sum(
            s[5]["evaluations"] for s in spans if s[1] == "planner.polish_delta" and s[5]
        ),
        "event_simulator.simulate_rounds.s": total["event_simulator.simulate_rounds"],
        "event_simulator.post_match_z.s": total["event_simulator.post_match_z"],
        "event_simulator.post_match_x.s": total["event_simulator.post_match_x"],
        "event_simulator.compare_with_analytics.s": total["event_simulator.compare_with_analytics"],
        "event_simulator.rounds": rounds,
        "event_simulator.shards": sum(a["shards"] for a in sims),
        "event_simulator.z_pool_events": z_pool,
        "event_simulator.x_slice_events": x_slice,
        "event_simulator.event_share": ratio(z_pool + x_slice, rounds),
        "event_simulator.threads": max((a["threads"] for a in sims), default=0),
        "cli.load_scenario.s": total["cli.load_scenario"],
        "cli.request_self_s": self_time[REQUEST],
    }
