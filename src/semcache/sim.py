"""Deterministic discrete-event simulation of the mobile caching path.

Topology: per cell a UE group and an eNodeB with its own access and
backhaul links, then a shared S-GW, P-GW and origin ("Internet").  The
content cache sits at the eNodeB (one per cell), the S-GW or the P-GW.
Each cell's path is split at the cache node once per run, into the links
between the UE and the cache and those between the cache and the origin.

Each link direction is a FIFO channel: a transfer occupies the channel for
``bytes / bandwidth`` ms and arrives ``propagation_delay`` ms after its
transmission ends, so concurrent transfers queue behind each other but the
two directions never interfere.  A message claims the first channel of
its path when it is sent and each later one when the heap event of its
arrival at that hop pops.  Event order is fixed by two rules: a request
issued at t claims its first link before any message that arrives at t,
and other equal-time events run in the order their hop was claimed.  The
trace's requests are merged into the heap as the clock reaches them, so
the heap holds only messages in flight.  A delivery claims all its links
when it leaves the cache node, with no heap event (see ``_deliver``).

A trace is checked and described once per (trace, KB, cell count): its
order, each entry's descriptor, its cell range and each request's size are
worked out before the first run, and ``run_sweep`` reuses them across its
points.  A metadata header's size depends only on its IRI's UTF-8 byte
length, so a Semantic run's overhead is counted from the request sizes
already worked out, with no header built.

A request carries its metadata to the cache node; there the cache is
consulted and, in Semantic mode, ``infer_next`` fires (on hits and misses
alike) so predicted contents are prefetched from the origin concurrently
with the demand path.  Metadata bytes are accounted separately in the
metrics and do not occupy link capacity, which keeps Semantic mode with
``max_prefetch=0`` schedule-identical to Traditional mode.
"""

from __future__ import annotations

import enum
import functools
import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from semcache.cache import Cache, ContentOrigin
# Not called here: ``sim.wire_size`` stays importable because the
# benchmark's tracer wraps it there to time the codec.
from semcache.codec import MetadataDescriptor, _header_size, wire_size  # noqa: F401
from semcache.kb import KnowledgeBase, UnknownEntity, infer_next
from semcache.metrics import MetricsReport
from semcache.workload import TraceEntry


class SimulationError(Exception):
    pass


class UnsortedTrace(SimulationError):
    def __init__(self, index: int):
        super().__init__(f"trace entry {index} is earlier than its predecessor")
        self.index = index


class Mode(enum.Enum):
    SEMANTIC = "semantic"
    TRADITIONAL = "traditional"


class CacheLocation(enum.Enum):
    ENODEB = "enodeb"
    SGW = "sgw"
    PGW = "pgw"


class ServedFrom(enum.Enum):
    CACHE = "cache"
    ORIGIN = "origin"


@dataclass(frozen=True)
class LinkSpec:
    propagation_delay_ms: float
    bandwidth_bytes_per_ms: float

    def __post_init__(self) -> None:
        if not 0 <= self.propagation_delay_ms < math.inf:
            raise ValueError("propagation delay must be finite and >= 0")
        if not self.bandwidth_bytes_per_ms > 0:
            raise ValueError("bandwidth must be > 0")


DEFAULT_BANDWIDTH = 1250.0  # bytes/ms (10 Mbit/s)

# The Topology fields of the links, from the UE outwards.
LINKS = ("ue_enb", "enb_sgw", "sgw_pgw", "pgw_inet")


@dataclass(frozen=True)
class Topology:
    cells: int = 1
    ue_enb: LinkSpec = LinkSpec(10.0, DEFAULT_BANDWIDTH)
    enb_sgw: LinkSpec = LinkSpec(5.0, DEFAULT_BANDWIDTH)
    sgw_pgw: LinkSpec = LinkSpec(5.0, DEFAULT_BANDWIDTH)
    pgw_inet: LinkSpec = LinkSpec(20.0, DEFAULT_BANDWIDTH)
    cache_location: CacheLocation = CacheLocation.ENODEB
    cache_capacity: int = 20_000_000

    def __post_init__(self) -> None:
        if self.cells <= 0:
            raise ValueError("cells must be positive")
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")

    def scenario_dict(self) -> dict:
        links = {name: getattr(self, name) for name in LINKS}
        return {
            "cells": self.cells,
            "cache_location": self.cache_location.value,
            "cache_capacity": self.cache_capacity,
            **{f"{name}_delay_ms": link.propagation_delay_ms for name, link in links.items()},
            **{f"{name}_bw": link.bandwidth_bytes_per_ms for name, link in links.items()},
        }


@dataclass
class RequestRecord:
    request_id: int
    user_id: int
    cell_id: int
    descriptor: MetadataDescriptor
    issued_at: float
    completed_at: float = 0.0
    served_from: Optional[ServedFrom] = None

    @property
    def latency_ms(self) -> float:
        return self.completed_at - self.issued_at


class _PreparedTrace(list):
    """The entries of a trace, checked against one KB and cell count.

    ``rows`` holds each entry's (time, user, cell, descriptor, request
    bytes).  Each entry is checked for time order, then described, then
    checked for its cell range, so the first bad entry's first fault is the
    one raised.  Not to be changed once built."""

    def __init__(self, trace: Iterable[TraceEntry], kb: KnowledgeBase, cells: int):
        super().__init__(trace)
        self.kb = kb
        self.cells = cells
        self.rows: list[tuple[float, int, int, MetadataDescriptor, int]] = []
        prev_time = 0.0
        for idx, entry in enumerate(self):
            if entry.time_ms < prev_time:
                raise UnsortedTrace(idx)
            prev_time = entry.time_ms
            descriptor = kb.describe(entry.entity_iri)
            if not 0 <= entry.cell_id < cells:
                raise SimulationError(f"trace entry {idx}: cell {entry.cell_id} outside topology")
            nbytes = len(entry.entity_iri.encode("utf-8"))
            self.rows.append((entry.time_ms, entry.user_id, entry.cell_id, descriptor, nbytes))

    @functools.cached_property
    def overhead(self) -> dict:
        """``metadata_overhead`` of the trace, counted on first use."""
        rows, sizes = self.rows, self.kb.sizes
        return _count_overhead(
            map(itemgetter(1), rows),
            map(itemgetter(4), rows),
            (sizes[descriptor.entity_iri] for _, _, _, descriptor, _ in rows),
        )


class _Channel:
    """One direction of a link; FIFO store-and-forward."""

    __slots__ = ("delay", "bandwidth", "busy_until")

    def __init__(self, spec: LinkSpec):
        self.delay = spec.propagation_delay_ms
        self.bandwidth = spec.bandwidth_bytes_per_ms
        self.busy_until = 0.0

    def transfer(self, at: float, nbytes: float) -> float:
        """Claim the channel at ``at``; return the arrival time."""
        busy = self.busy_until  # ``max(at, busy)`` is written out below: a call costs more
        busy = self.busy_until = (busy if busy > at else at) + nbytes / self.bandwidth
        return busy + self.delay


# Links between the UE and the cache node, by cache location.
_CACHE_DEPTH = {CacheLocation.ENODEB: 1, CacheLocation.SGW: 2, CacheLocation.PGW: 3}


_Path = tuple[_Channel, ...]
_Then = Callable[[float, Any], None]  # called as then(arrival time, arg)
_Waiters = list[RequestRecord]
# (t, channels, nbytes, then, arg): a message sent at ``t`` from outside the loop.
_Arrival = tuple[float, _Path, float, _Then, Any]


@dataclass(frozen=True)
class _CellRoutes:
    """One cell's cache node and its channels, in travel order.  ``pending``
    maps each key whose prefetch is in flight to the requests waiting for it."""

    cache: Cache
    pending: dict[str, _Waiters]
    access_up: _Path
    access_down: _Path
    origin_up: _Path
    origin_down: _Path


# (route, key, origin, waiters): a demand miss waits alone, and a prefetch's
# waiters are its ``pending`` list.
_Fetch = tuple[_CellRoutes, str, ContentOrigin, _Waiters]


class _EventLoop:
    """One heap of message hops.  An event ``(t, seq, channels, index, nbytes,
    then, arg)`` has crossed ``channels[:index]`` by ``t``; popping it claims
    the next channel, or after the last one calls ``then(t, arg)``."""

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = itertools.count()  # shared by ``send`` and ``run``

    def send(
        self,
        channels: _Path,
        t: float,
        nbytes: float,
        then: _Then,
        arg: Any,
        index: int = 0,
    ) -> None:
        """Claim ``channels[index]`` at ``t``.  A new message claims its first
        channel at once, so that equal-time sends keep their order."""
        arrive = channels[index].transfer(t, nbytes)
        event = (arrive, next(self._seq), channels, index + 1, nbytes, then, arg)
        heapq.heappush(self._heap, event)

    def run(self, arrivals: Iterable[_Arrival] = ()) -> None:
        """Run until the heap is empty, merging in the time-ordered ``arrivals``:
        each is sent when its time is at most that of the heap's next event.
        The loop claims each hop itself, as ``send`` would."""
        heap, seq = self._heap, self._seq
        pop, push = heapq.heappop, heapq.heappush
        pending = iter(arrivals)
        arrival = next(pending, None)
        while heap or arrival is not None:
            if arrival is not None and (not heap or arrival[0] <= heap[0][0]):
                time, channels, nbytes, then, arg = arrival
                index = 0
                arrival = next(pending, None)
            else:
                time, _, channels, index, nbytes, then, arg = pop(heap)
                if index == len(channels):
                    then(time, arg)
                    continue
            arrive = channels[index].transfer(time, nbytes)
            push(heap, (arrive, next(seq), channels, index + 1, nbytes, then, arg))


class _Simulation:
    def __init__(
        self,
        topology: Topology,
        kb: KnowledgeBase,
        trace: Sequence[TraceEntry],
        mode: Mode,
        *,
        max_prefetch: Optional[int],
        eviction: str,
    ):
        self.topology = topology
        self.kb = kb
        self.mode = mode
        self.max_prefetch = max_prefetch
        self.loop = _EventLoop()

        t = topology
        per_cell = t.cache_location is CacheLocation.ENODEB
        depth = _CACHE_DEPTH[t.cache_location]
        shared_up = (_Channel(t.sgw_pgw), _Channel(t.pgw_inet))
        shared_down = (_Channel(t.sgw_pgw), _Channel(t.pgw_inet))
        n_caches = t.cells if per_cell else 1
        self.caches = [Cache(t.cache_capacity, eviction) for _ in range(n_caches)]
        pending: list[dict[str, _Waiters]] = [{} for _ in range(n_caches)]
        self.routes: list[_CellRoutes] = []
        for cell in range(t.cells):
            node = cell if per_cell else 0
            # Both chains run from the UE outwards.
            up = (_Channel(t.ue_enb), _Channel(t.enb_sgw), *shared_up)
            down = (_Channel(t.ue_enb), _Channel(t.enb_sgw), *shared_down)
            self.routes.append(
                _CellRoutes(
                    cache=self.caches[node],
                    pending=pending[node],
                    access_up=up[:depth],
                    access_down=down[:depth][::-1],
                    origin_up=up[depth:],
                    origin_down=down[depth:][::-1],
                )
            )

        # Prepared after the caches, so a bad eviction policy is reported
        # before a bad trace.  A prepared trace is reused only for the same
        # KB object and cell count.
        if not (isinstance(trace, _PreparedTrace) and trace.kb is kb and trace.cells == t.cells):
            trace = _PreparedTrace(trace, kb, t.cells)
        self.trace = trace
        self.records: list[RequestRecord] = []
        self.origin_bytes = 0  # content bytes fetched from the origin

    # -- request lifecycle --------------------------------------------------

    def schedule_trace(self) -> Iterator[_Arrival]:
        """Record each request and return an iterator of its arrivals in order."""
        rows = self.trace.rows
        self.records = [
            RequestRecord(idx, user, cell, descriptor, t)
            for idx, (t, user, cell, descriptor, _) in enumerate(rows)
        ]
        ups = [route.access_up for route in self.routes]
        at_cache = self._at_cache
        return (
            (t, ups[cell], nbytes, at_cache, record)
            for (t, _, cell, _, nbytes), record in zip(rows, self.records)
        )

    def _at_cache(self, t: float, record: RequestRecord) -> None:
        route = self.routes[record.cell_id]
        key = record.descriptor.entity_iri
        if route.cache.lookup(key, t) is not None:
            self._deliver(record, t, self.kb.sizes[key], ServedFrom.CACHE)
        elif key in route.pending:
            # An in-flight prefetch will bring this content; wait for it
            # instead of fetching again.
            route.pending[key].append(record)
        else:
            self._fetch(route, key, t, ContentOrigin.DEMAND, [record])

        if self.mode is Mode.SEMANTIC:
            self._launch_prefetches(record, route, t)

    def _fetch(
        self, route: _CellRoutes, key: str, t: float, origin: ContentOrigin, waiters: _Waiters
    ) -> None:
        """Fetch ``key`` from the origin to the route's cache node for ``waiters``."""
        fetch = (route, key, origin, waiters)
        self.loop.send(route.origin_up, t, len(key.encode("utf-8")), self._at_origin, fetch)

    def _at_origin(self, t: float, fetch: _Fetch) -> None:
        route, key, _, _ = fetch
        size = self.kb.sizes[key]
        self.origin_bytes += size
        self.loop.send(route.origin_down, t, size, self._fetched, fetch)

    def _fetched(self, t: float, fetch: _Fetch) -> None:
        """A fetch reached the cache node: cache it and deliver it to its waiters."""
        route, key, origin, waiters = fetch
        if origin is ContentOrigin.PREFETCH:
            del route.pending[key]
        size = self.kb.sizes[key]
        # An object larger than the cache is rejected; its waiters are
        # still served, but there is no cached entry to credit.  Crediting
        # an entry just inserted on demand changes nothing.
        cached = route.cache.insert(key, size, origin, t)
        for waiter in waiters:
            if cached:
                route.cache.credit_prefetch_hit(key, t)
            self._deliver(waiter, t, size, ServedFrom.ORIGIN)

    def _deliver(
        self, record: RequestRecord, t: float, size: int, served_from: ServedFrom
    ) -> None:
        """Send ``size`` bytes from the cache node at ``t`` and stamp ``record``
        with their arrival at the UE.

        All the links are claimed now, with no heap event.  That gives the
        hop-by-hop times: cells share only the links above the S-GW, which
        can only be first on an ``access_down`` path, so each link after the
        first is fed only by the link before it and sees the same claims in
        the same order at the same times."""
        record.served_from = served_from
        for channel in self.routes[record.cell_id].access_down:
            t = channel.transfer(t, size)
        record.completed_at = t

    # -- prefetch path ------------------------------------------------------

    def _launch_prefetches(self, record: RequestRecord, route: _CellRoutes, t: float) -> None:
        # A slice up to None keeps every prediction.
        for predicted in infer_next(self.kb, record.descriptor)[: self.max_prefetch]:
            key = predicted.entity_iri
            if key in route.cache or key in route.pending:
                continue
            waiters = route.pending[key] = []
            self._fetch(route, key, t, ContentOrigin.PREFETCH, waiters)

    # -- reporting ----------------------------------------------------------

    def report(self, seed: int) -> MetricsReport:
        stats = [c.stats() for c in self.caches]
        lookups = sum(s.lookups for s in stats)
        hits = sum(s.hits for s in stats)
        prefetched = sum(s.prefetched_bytes for s in stats)
        prefetched_hit = sum(s.prefetched_bytes_hit for s in stats)
        useless = prefetched - prefetched_hit

        latencies = [r.latency_ms for r in self.records]
        mean_latency = sum(latencies) / len(latencies) if latencies else 0.0

        if self.mode is Mode.SEMANTIC:
            overhead = self.trace.overhead
        else:
            overhead = {"total_bytes": 0, "per_user_bytes": 0.0, "ratio_of_total_traffic": 0.0}

        scenario = self.topology.scenario_dict()
        scenario["seed"] = seed
        scenario["requests"] = len(self.trace)

        return MetricsReport(
            mode=self.mode.value,
            requests_total=len(self.records),
            hits=hits,
            lookups=lookups,
            hit_ratio=hits / lookups if lookups else 0.0,
            mean_latency_ms=mean_latency,
            prefetched_bytes=prefetched,
            prefetched_bytes_hit=prefetched_hit,
            useless_prefetch_ratio=useless / prefetched if prefetched else 0.0,
            origin_bytes=self.origin_bytes,
            useless_prefetch_origin_ratio=(
                useless / self.origin_bytes if self.origin_bytes else 0.0
            ),
            metadata_overhead_bytes=overhead["total_bytes"],
            per_user_metadata_bytes=overhead["per_user_bytes"],
            metadata_traffic_ratio=overhead["ratio_of_total_traffic"],
            scenario=scenario,
        )


def run_simulation(
    topology: Topology,
    kb: KnowledgeBase,
    trace: Sequence[TraceEntry],
    mode: Mode,
    seed: int = 0,
    *,
    max_prefetch: Optional[int] = None,
    eviction: str = "lru",
) -> tuple[MetricsReport, list[RequestRecord]]:
    """Run one deterministic simulation and return its metrics and records.

    The seed is echoed into the report for bookkeeping; the event schedule
    itself contains no randomness.  The trace is checked and described once
    per (trace, KB, cell count): a trace that ``run_sweep`` prepared for
    this ``kb`` and ``topology.cells`` is run as it is, so its points share
    that work.
    """
    if max_prefetch is not None and max_prefetch < 0:
        raise ValueError(f"max_prefetch must be >= 0, got {max_prefetch}")
    sim = _Simulation(
        topology,
        kb,
        trace,
        mode,
        max_prefetch=max_prefetch,
        eviction=eviction,
    )
    # The arrivals hold bound methods of ``sim``; kept on it, they would tie
    # it and its records into a reference cycle that outlives the run.
    sim.loop.run(sim.schedule_trace())
    unserved = next((r for r in sim.records if r.served_from is None), None)
    if unserved is not None:
        raise SimulationError(f"request {unserved.request_id} was never served")
    return sim.report(seed), sim.records


def metadata_overhead(trace: Sequence[TraceEntry], kb: KnowledgeBase) -> dict:
    """Bytes added by carrying metadata headers, versus delivered content.

    Per request the overhead is the full wire size of its hop-by-hop header
    (a request without the framework carries no such header at all).  A
    header's size depends only on its IRI's UTF-8 byte length, so each
    distinct length is sized once and counted once per request of that length.
    """
    iris = [entry.entity_iri for entry in trace]
    unknown = next((iri for iri in iris if iri not in kb), None)
    if unknown is not None:
        raise UnknownEntity(unknown)
    return _count_overhead(
        (entry.user_id for entry in trace),
        (len(iri.encode("utf-8")) for iri in iris),
        map(kb.sizes.__getitem__, iris),
    )


def _count_overhead(
    users: Iterable[int], iri_lengths: Iterable[int], content_sizes: Iterable[int]
) -> dict:
    """``metadata_overhead`` from each request's user, IRI byte length and
    content size, with no header built."""
    total = sum(_header_size(nbytes) * n for nbytes, n in Counter(iri_lengths).items())
    content = sum(content_sizes)
    n_users = len(set(users))
    return {
        "total_bytes": total,
        "per_user_bytes": total / n_users if n_users else 0.0,
        "ratio_of_total_traffic": total / content if content else 0.0,
    }
