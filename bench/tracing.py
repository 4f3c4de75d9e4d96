"""In-memory span tracer that wraps semcache's public callables.

Nothing inside the program is changed: ``Tracer.installed()`` swaps module
attributes and class methods for timing wrappers, in this process only, and
puts the originals back on exit.  Span ``i`` has a name, a start and an end
time, the index of the enclosing span as its parent (-1 at top level) and,
where the call concerns one request, that request's id: the descriptor
``describe`` built for a trace entry, or the one ``infer_next`` was asked
about.  Spans are held in columns of machine numbers, so that a finished
span leaves no object behind for the garbage collector to scan.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import math
import statistics
import time
from array import array
from typing import NamedTuple

import semcache.experiments as experiments
import semcache.kb as kb_mod
import semcache.reference as reference
import semcache.sim as sim_mod
import semcache.workload as workload
from semcache.cache import Cache
from semcache.codec import MetadataDescriptor
from semcache.kb import KnowledgeBase


def records_sha256(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.request_id},{r.user_id},{r.cell_id},{r.descriptor.entity_iri},"
            f"{r.descriptor.entity_kind.value},{r.issued_at!r},{r.completed_at!r},"
            f"{r.served_from.value if r.served_from else None}\n".encode("utf-8")
        )
    return h.hexdigest()


class CallCost(NamedTuple):
    """Host time the wrapper adds to one call, beyond the call itself."""

    outside_s: float  # before the span starts and after it ends: the caller's
    inside_s: float  # within the span, around the call: the callee's own

    @property
    def total_s(self) -> float:
        return self.outside_s + self.inside_s


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span names, indexed by ``kind``
        self.kind = array("B")  # per span: index into ``names``
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.requests: dict[int, object] = {}  # span index -> request
        self._stack: list[int] = []
        self.caches: list[Cache] = []  # caches built by semcache.sim
        self.sims: list[tuple] = []  # (report, records sha256, latencies)
        self._pending: list[tuple] = []
        self._resolved = 0

    def __len__(self) -> int:
        return len(self.start)

    def reset(self) -> None:
        # In place: the wrappers hold on to the columns.
        for column in (self.kind, self.start, self.end, self.parent):
            del column[:]
        self.requests.clear()
        self.caches, self.sims, self._pending = [], [], []
        self._resolved = 0

    def wrap(self, name: str, fn, request=None):
        """Timing wrapper; ``request(args, result)`` picks the object that
        identifies the request the call concerns, if any."""
        if name not in self.names:
            self.names.append(name)
        kind = self.names.index(name)
        kinds, starts, ends, parents = self.kind, self.start, self.end, self.parent
        requests, stack = self.requests, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            starts.append(clock())
            ends.append(0.0)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if request is not None:
                requests[i] = request(args, result)
            return result

        return traced

    def _traced_run_simulation(self, fn):
        inner = self.wrap("run_simulation", fn)

        def run_simulation(*args, **kwargs):
            report, records = inner(*args, **kwargs)
            # Kept as is; ``resolve`` does the bookkeeping after the round,
            # so that it adds no time to the enclosing spans.
            self._pending.append((report, records))
            return report, records

        return run_simulation

    def resolve(self) -> None:
        """Turn the descriptors held for spans into request ids, and reduce
        each simulation's records to what the metrics need."""
        # Every descriptor involved is still alive, so ids are unambiguous.
        ids = {id(r.descriptor): r.request_id for _, records in self._pending for r in records}
        for i, obj in self.requests.items():
            if i >= self._resolved:
                self.requests[i] = ids.get(id(obj))
        self._resolved = len(self)
        for report, records in self._pending:
            self.sims.append((report, records_sha256(records), [r.latency_ms for r in records]))
        self._pending = []

    @contextlib.contextmanager
    def installed(self):
        tracer = self

        class TracedCache(Cache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.caches.append(self)

        TracedCache.lookup = self.wrap("cache.lookup", Cache.lookup)
        TracedCache.insert = self.wrap("cache.insert", Cache.insert)
        TracedCache.credit_prefetch_hit = self.wrap("cache.credit", Cache.credit_prefetch_hit)
        TracedCache.__contains__ = self.wrap("cache.contains", Cache.__contains__)

        run_simulation = self._traced_run_simulation(sim_mod.run_simulation)
        patches = [
            (kb_mod, "load_knowledge_base", self.wrap("load_knowledge_base", kb_mod.load_knowledge_base)),
            (reference, "load_knowledge_base", self.wrap("load_knowledge_base", kb_mod.load_knowledge_base)),
            (workload, "load_trace", self.wrap("load_trace", workload.load_trace)),
            (experiments, "run_sweep", self.wrap("run_sweep", experiments.run_sweep)),
            (experiments, "run_simulation", run_simulation),
            (sim_mod, "run_simulation", run_simulation),
            (experiments, "generate_trace", self.wrap("generate_trace", experiments.generate_trace)),
            (KnowledgeBase, "describe", self.wrap("describe", KnowledgeBase.describe, lambda a, r: r)),
            (sim_mod, "infer_next", self.wrap("infer_next", sim_mod.infer_next, lambda a, r: a[1])),
            (sim_mod, "Cache", TracedCache),
            (MetadataDescriptor, "__init__", self.wrap("descriptor", MetadataDescriptor.__init__)),
            (MetadataDescriptor, "to_bytes", self.wrap("to_bytes", MetadataDescriptor.to_bytes)),
            (sim_mod, "wire_size", self.wrap("wire_size", sim_mod.wire_size)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, value in patches:
                setattr(owner, attr, value)
            yield self
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def summary(self, cost: CallCost = CallCost(0.0, 0.0)) -> "Summary":
        return Summary(self, cost)

    def durations_us(self, name: str) -> list[float]:
        if name not in self.names:
            return []
        kind = self.names.index(name)
        return [(e - s) * 1e6 for k, s, e in zip(self.kind, self.start, self.end) if k == kind]

    def write(self, path) -> None:
        """Spans as gzip'd tab-separated text, times in ns from the first."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i, (kind, start, end, parent) in enumerate(
                zip(self.kind, self.start, self.end, self.parent)
            ):
                request = self.requests.get(i)
                fh.write(
                    f"{i}\t{self.names[kind]}\t{round((start - t0) * 1e9)}"
                    f"\t{round((end - t0) * 1e9)}\t{parent}"
                    f"\t{'' if request is None else request}\n"
                )


class Summary:
    """Per span name: call count, total time and self time.

    The total counts only spans not directly nested in a span of the same
    name (the loaders call themselves once to open a path).  The self time
    is a span's duration minus that of its direct children.  Both are net
    of the tracer's own ``cost``: the wrapper's inside cost is taken off
    every span once, and the outside cost, which lands in the caller's
    span, once per direct child from the self time and once per
    descendant from the total.
    """

    def __init__(self, tracer: Tracer, cost: CallCost = CallCost(0.0, 0.0)):
        self.calls: dict[str, int] = {}
        self._total: dict[str, float] = {}
        self._self: dict[str, float] = {}
        n = len(tracer)
        kinds, parents = tracer.kind, tracer.parent
        durations = [e - s for s, e in zip(tracer.start, tracer.end)]
        inner = [0.0] * n  # summed duration of direct children
        children = [0] * n
        descendants = [0] * n
        # A child comes after its parent, so one backward pass sees every
        # span's descendants before the span itself.
        for i in range(n - 1, -1, -1):
            parent = parents[i]
            if parent >= 0:
                inner[parent] += durations[i]
                children[parent] += 1
                descendants[parent] += descendants[i] + 1
        for i in range(n):
            name, parent = tracer.names[kinds[i]], parents[i]
            duration = durations[i] - cost.inside_s
            self.calls[name] = self.calls.get(name, 0) + 1
            if parent < 0 or kinds[parent] != kinds[i]:
                total = duration - descendants[i] * cost.total_s
                self._total[name] = self._total.get(name, 0.0) + total
            own = duration - inner[i] - children[i] * cost.outside_s
            self._self[name] = self._self.get(name, 0.0) + own

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def total_s(self, name: str) -> float:
        return self._total.get(name, 0.0)

    def self_s(self, name: str) -> float:
        return self._self.get(name, 0.0)


def _noop(a, b):
    return None


def call_cost(calls: int = 20_000, repeats: int = 3) -> CallCost:
    """Measure ``CallCost`` on loops of wrapped no-op calls, against loops
    of the same calls unwrapped and empty loops; medians over ``repeats``."""
    clock = time.perf_counter

    def loop(fn) -> float:
        start = clock()
        for _ in range(calls):
            fn(None, None)
        return clock() - start

    outside, inside = [], []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped_s = loop(tracer.wrap("noop", _noop))
        bare_s = loop(_noop)
        start = clock()
        for _ in range(calls):
            pass
        empty_s = clock() - start
        spans_s = sum(tracer.end) - sum(tracer.start)
        outside.append((wrapped_s - empty_s - spans_s) / calls)
        inside.append((spans_s - (bare_s - empty_s)) / calls)
    return CallCost(statistics.median(outside), statistics.median(inside))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0
