"""Spans around calls into stiffkit's public functions, and layer metrics.

The benchmark never edits the program.  It rebinds public functions to
wrappers in every ``stiffkit.*`` module namespace that binds them (under
any name), because ``cli`` and ``suite`` import those functions by name.
Spans stay in memory; the per-layer metrics are derived from them when the
run ends.  A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

# layer -> public functions whose calls are spans.  _linalg and config are
# too small to time alone; their cost shows inside stiffness.
TRACED = {
    "cli": ("main",),
    "suite": ("run_suite",),
    "codes": ("cross_polytope", "cube", "demicube", "e8_roots",
              "polytope_2_41", "ngon", "load_code"),
    "design": ("index_set", "pair_sum", "spectrum"),
    "stiffness": ("certify_stiff", "dual_search", "brute_force_dual",
                  "circle_dual_scan"),
    "potential": ("verify_universal_minimum", "minimize_potential",
                  "potential_eval", "skip_one_add_two_check"),
    "gegenbauer": ("gegenbauer_poly", "nodes", "inner", "moment", "a0"),
    "transforms": ("symmetrize", "facet_derive", "glue", "rotated_cubes"),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str          # "<layer>.<function>"
    start: float
    end: float
    parent: Optional[int]
    run: str


class Tracer:
    """Records one span per wrapped call, plus named counts."""

    def __init__(self, run: str, clock: Callable[[], float] = time.perf_counter):
        self.run = run
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None):
        """A wrapper that records a span and returns fn's value unchanged.

        on_return(counts, args, kwargs, result) may add counts from a call.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.run))
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result
        return traced

    def count_calls(self, name: str, fn: Callable):
        """A wrapper that only counts calls; used for hot constructors."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def tap(fn: Callable, sink: list):
    """A wrapper that appends each return value of fn to sink."""
    @functools.wraps(fn)
    def tapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result
    return tapped


def install(replacements: Iterable[tuple[Callable, Callable]]) -> list:
    """Rebind each original to its replacement in every stiffkit module.

    Matching is by identity, so aliases such as ``gegenbauer_nodes`` in
    ``stiffkit.stiffness`` are rebound too.  Returns an undo list for
    ``uninstall``.
    """
    by_id = {id(orig): (orig, new) for orig, new in replacements}
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "stiffkit"
                               or mod_name.startswith("stiffkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))
    return undo


def uninstall(undo: list) -> None:
    for obj, attr, value in reversed(undo):
        setattr(obj, attr, value)


def _dual_search_counts(counts: Counter, args, kwargs, result) -> None:
    code = args[0] if args else kwargs["code"]
    if result.mode != "subspace":
        counts["stiffness.dual_assignments"] += \
            len(result.node_values) ** code.ambient_dim
    counts["stiffness.dual_points"] += result.count


def trace_stiffkit(tracer: Tracer) -> list:
    """Wrap every TRACED function and count Surd constructions.

    Returns the undo list.
    """
    import stiffkit.cli  # noqa: F401  (loads every stiffkit module)
    from stiffkit.exact import Surd

    pairs = []
    for layer, names in TRACED.items():
        mod = sys.modules[f"stiffkit.{layer}"]
        for fn_name in names:
            fn = getattr(mod, fn_name)
            hook = _dual_search_counts if fn_name == "dual_search" else None
            pairs.append((fn, tracer.wrap(f"{layer}.{fn_name}", fn, hook)))
    undo = install(pairs)
    undo.append((Surd, "__init__", Surd.__init__))
    Surd.__init__ = tracer.count_calls("exact.surd_new", Surd.__init__)
    return undo


# ---------------------------------------------------------------- analysis


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(spans: list[Span], name: str) -> float:
    """Summed duration of the spans called name, minus their children's."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        total += (s.end - s.start) - _union_length(
            [(lo, hi) for lo, hi in kids if hi > lo])
    return total


def outer_time(spans: list[Span], names: set) -> float:
    """Summed duration of spans named in names that no such span encloses."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            total += s.end - s.start
    return total


def span_table(spans: list[Span]) -> dict:
    """Per function: calls, time in outermost calls, and self time."""
    return {name: {"calls": sum(1 for s in spans if s.name == name),
                   "total_s": outer_time(spans, {name}),
                   "self_s": self_time(spans, name)}
            for name in sorted({s.name for s in spans})}


def layer_metrics(spans: list[Span], counts: Counter) -> dict:
    """The per-layer metrics that spans and counts alone determine."""
    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def t(*names):
        return outer_time(spans, set(names))

    def layer(name):
        return {f"{name}.{fn}" for fn in TRACED[name]}

    assignments = counts["stiffness.dual_assignments"]
    points = counts["stiffness.dual_points"]
    return {
        "stiffness.certify_stiff_self_s": self_time(spans, "stiffness.certify_stiff"),
        "stiffness.certify_stiff_calls": calls("stiffness.certify_stiff"),
        "exact.surd_new": counts["exact.surd_new"],
        "stiffness.dual_search_s": t("stiffness.dual_search"),
        "stiffness.dual_search_calls": calls("stiffness.dual_search"),
        "stiffness.dual_assignments": assignments,
        "stiffness.dual_points": points,
        "stiffness.dual_yield": points / assignments if assignments else 0.0,
        "design.index_set_s": t("design.index_set"),
        "design.index_set_calls": calls("design.index_set"),
        "design.pair_sum_s": t("design.pair_sum"),
        "design.spectrum_s": t("design.spectrum"),
        "design.spectrum_calls": calls("design.spectrum"),
        "potential.minimize_potential_s": t("potential.minimize_potential"),
        "potential.minimize_potential_calls": calls("potential.minimize_potential"),
        "potential.potential_eval_s": t("potential.potential_eval"),
        "potential.skip_one_add_two_check_s": t("potential.skip_one_add_two_check"),
        "stiffness.brute_force_dual_s": t("stiffness.brute_force_dual"),
        "stiffness.circle_dual_scan_s": t("stiffness.circle_dual_scan"),
        "gegenbauer.s": outer_time(spans, layer("gegenbauer")),
        "transforms.s": outer_time(spans, layer("transforms")),
        "codes.construct_s": outer_time(spans, layer("codes") - {"codes.load_code"}),
        "codes.load_code_s": t("codes.load_code"),
        "cli.self_s": self_time(spans, "cli.main"),
    }
