"""Span tracing of the uvartest layers from outside the package.

The tracer replaces the public names that each layer looks up (module
globals such as ``uvartest.simlab.u_test`` and class attributes such as
``uvartest.core.Dataset.from_values``) with wrappers that record one span
per call: name, start, end, parent span and an optional work count.  Spans
stay in memory until the run ends.  Nothing under ``src/`` is edited; the
original objects are put back when the tracer is closed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    count: float = 0.0  # work units reported by the target's count function


@dataclass(frozen=True)
class Target:
    """One traced name: ``owner`` is a module path (``uvartest.core``) or a
    module path plus class (``uvartest.core:Dataset``)."""

    span: str
    owner: str
    attr: str
    count: Callable | None = None  # (args, kwargs, result) -> work units


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = sys.modules.get(module_name)
    if obj is not None and class_name:
        obj = getattr(obj, class_name, None)
    return obj


class Tracer:
    """Records spans for the calls of a fixed set of targets.

    Targets whose owner or attribute no longer exists are skipped, so a
    layer that stops being called simply reports zero calls.
    """

    def __init__(self, targets: Sequence[Target]):
        self.targets = tuple(targets)
        self.spans: list[Span | None] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans = self.spans
        count = target.count
        name = target.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                units = count(args, kwargs, result) if count and result is not None else 0.0
                spans[index] = Span(name, start, end, parent, units)

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "uvartest" or n.startswith("uvartest.")]
        for target in self.targets:
            owner = _resolve_owner(target.owner)
            if owner is None or target.attr not in vars(owner):
                continue
            raw = vars(owner)[target.attr]
            if isinstance(raw, classmethod):
                self._patch(owner, target.attr, raw, classmethod(self.wrap(target, raw.__func__)))
                continue
            wrapped = self.wrap(target, raw)
            if isinstance(owner, type):
                self._patch(owner, target.attr, raw, wrapped)
                continue
            # A module-level function: replace it in every uvartest module
            # namespace that imported it, since each layer calls its own copy.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, attr, raw, wrapped)
        return self

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def finished_spans(self) -> list[Span]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        return list(self.spans)  # type: ignore[arg-type]

    def write(self, path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        spans = self.finished_spans()
        names = sorted({s.name for s in spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s.name], s.parent, s.start, s.end, s.count] for s in spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "count"],
                       "names": names, "spans": rows}, fh)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    result = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((s.end - s.start) - covered)
    return result


def root_time(spans: Iterable[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent < 0)


@dataclass(frozen=True)
class LayerStats:
    calls: int
    self_s: float
    count: float


def layer_stats(spans: Sequence[Span], names: Iterable[str]) -> dict[str, LayerStats]:
    """Calls, summed self time and summed work count per span name.

    Every requested name appears, with zeros when it was never called.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    units: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s.name] += 1
        busy[s.name] += t
        units[s.name] += s.count
    return {n: LayerStats(calls[n], busy[n], units[n]) for n in names}


# --------------------------------------------------------------------------
# The uvartest layers and their per-layer metrics
# --------------------------------------------------------------------------


def _observations(args, kwargs, result) -> float:
    dataset = args[0] if args else kwargs["dataset"]
    return dataset.design.n


def _permutations(args, kwargs, result) -> float:
    return result.extras.get("n_perm", 0)


def _csv_bytes(args, kwargs, result) -> float:
    argv = args[0] if args else kwargs["argv"]
    return os.path.getsize(argv[1])


TARGETS = (
    Target("randgen.SeedSpec.generator", "uvartest.randgen:SeedSpec", "generator"),
    Target("randgen.sample_noise", "uvartest.randgen", "sample_noise"),
    Target("randgen.gen_design", "uvartest.randgen", "gen_design"),
    Target("core.Dataset", "uvartest.core:Dataset", "__init__"),
    Target("core.Dataset.from_values", "uvartest.core:Dataset", "from_values"),
    Target("core.u_test", "uvartest.core", "u_test", _observations),
    Target("core.f_test", "uvartest.core", "f_test", _observations),
    Target("simlab.permutation_pvalue", "uvartest.simlab", "permutation_pvalue", _permutations),
    Target("simlab.run_scenario", "uvartest.simlab", "run_scenario"),
    Target("cli.main", "uvartest.cli", "main", _csv_bytes),
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = tuple(
    entry
    for t in TARGETS
    for entry in (
        (f"{t.span}.calls", "count", "lower"),
        (f"{t.span}.self_s", "s", "lower"),
        (f"{t.span}.self_us_per_call", "us", "lower"),
    )
) + (
    ("simlab.permutation_pvalue.perms", "count", "lower"),
    ("simlab.permutation_pvalue.us_per_perm", "us", "lower"),
    ("core.obs_per_s", "1/s", "higher"),
    ("cli.csv_bytes_per_s", "B/s", "higher"),
    ("simlab.useful_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(
    spans: Sequence[Span], useful: int, attempts: int, traced_s: float, untraced_s: float
) -> dict[str, float]:
    """Per-layer metric values; a layer that was never called reads 0."""
    stats = layer_stats(spans, (t.span for t in TARGETS))
    values: dict[str, float] = {}
    for name, st in stats.items():
        values[f"{name}.calls"] = st.calls
        values[f"{name}.self_s"] = st.self_s
        values[f"{name}.self_us_per_call"] = _ratio(st.self_s * 1e6, st.calls)
    perm = stats["simlab.permutation_pvalue"]
    u, f = stats["core.u_test"], stats["core.f_test"]
    values["simlab.permutation_pvalue.perms"] = perm.count
    values["simlab.permutation_pvalue.us_per_perm"] = _ratio(perm.self_s * 1e6, perm.count)
    values["core.obs_per_s"] = _ratio(u.count + f.count, u.self_s + f.self_s)
    values["cli.csv_bytes_per_s"] = _ratio(stats["cli.main"].count, stats["cli.main"].self_s)
    values["simlab.useful_ratio"] = _ratio(useful, attempts)
    values["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    return values
