"""Deterministic discrete-event simulation of the mobile caching path.

Topology: per cell a UE group and an eNodeB with its own access and
backhaul links, then a shared S-GW, P-GW and origin ("Internet").  The
content cache sits at the eNodeB (one per cell), the S-GW or the P-GW.
Each cell's path is split at the cache node once per run, into the links
between the UE and the cache and those between the cache and the origin.

Each link direction is a FIFO channel: a transfer occupies the channel for
``bytes / bandwidth`` ms and arrives ``propagation_delay`` ms after its
transmission ends, so concurrent transfers queue behind each other but the
two directions never interfere.  ``_claim`` defines that law.

A message claims a run of links at once wherever each link is fed only by
the link before it, whose FIFO order it sees, so it gets the claims and
times it would get hop by hop.  Events are left only where flows merge and
where fetches land.  The S-GW uplink merges the cells' fetches from eNodeB
caches, so such a fetch claims its link to the S-GW when it is launched
and the rest of its round trip in a heap event at the S-GW, and lands at
its eNodeB in a heap event.  A fetch from an S-GW or P-GW cache claims its
round trip when launched; only that node's fetches cross its links to the
origin, so they land in the order they were launched, and a FIFO queue of
landings replaces the heap there.  A delivery claims its links when it
leaves the cache node.  Only requests cross the links up to it, so their
arrivals there are worked out before the run.  Equal-time events run in
the order they were scheduled, after the requests that reach a cache node
at that time.

A trace is held as columns, not as a list of entries: a generated or
loaded trace hands its columns on, and no run builds a ``TraceEntry``.  It
is checked and described once per (trace, KB, cell count): its order, each
entry's descriptor, its cell range and each request's size are worked out
entry by entry before its first run.  So are the requests' arrivals at
the end of each run of access links, worked out from those one link
shorter: both modes and all three cache locations share them.  A
generated or loaded trace keeps all this for its next run, whoever makes
it, and a run with the same KB object and cell count reuses it; so the
trace keeps the KB of its last run alive.  A trace given as a plain list
is prepared for its one run and stores no arrivals.  A metadata header's
size depends only on its IRI's UTF-8 byte length, so a Semantic run's
overhead is counted from the request sizes already worked out, with no
header built.
A run keeps its results in columns indexed by request id, and its records
are built from them the first time they are read: a sweep, which reads
none, builds none.

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
from array import array
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from semcache.cache import EVICTION_POLICIES, Cache, ContentOrigin
# Not called here: ``sim.wire_size`` stays importable because the
# benchmark's tracer wraps it there to time the codec.
from semcache.codec import MetadataDescriptor, _header_size, wire_size  # noqa: F401
from semcache.kb import KnowledgeBase, infer_next
from semcache.metrics import MetricsReport
from semcache.workload import TraceEntry, _columns, _count, _Trace


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

# Links between the UE and the cache node, by cache location.
_CACHE_DEPTH = {CacheLocation.ENODEB: 1, CacheLocation.SGW: 2, CacheLocation.PGW: 3}
# The links up to the S-GW are each cell's own; the cells' paths merge there.
_SGW = _CACHE_DEPTH[CacheLocation.SGW]


@dataclass(frozen=True)
class Topology:
    cells: int = 1
    ue_enb: LinkSpec = LinkSpec(10.0, DEFAULT_BANDWIDTH)
    enb_sgw: LinkSpec = LinkSpec(5.0, DEFAULT_BANDWIDTH)
    sgw_pgw: LinkSpec = LinkSpec(5.0, DEFAULT_BANDWIDTH)
    pgw_inet: LinkSpec = LinkSpec(20.0, DEFAULT_BANDWIDTH)
    cache_location: CacheLocation = CacheLocation.ENODEB
    cache_capacity: int = 20_000_000
    eviction: str = "lru"
    # Prefetch from the first N predictions per request, in IRI order, cached
    # or pending ones included; None: all.
    max_prefetch: Optional[int] = None

    def __post_init__(self) -> None:
        _count("cells", self.cells, 1)
        if not isinstance(self.cache_location, CacheLocation):
            raise TypeError(f"cache_location must be a CacheLocation, got {self.cache_location!r}")
        _count("cache_capacity", self.cache_capacity, 1)
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(f"eviction must be lru or fifo, got {self.eviction!r}")
        if self.max_prefetch is not None:
            _count("max_prefetch", self.max_prefetch, 0)

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


class _Records(Sequence):
    """A run's records, built from its result columns the first time they
    are read, then kept; a caller that never reads them builds none.  Holds
    the columns only, never the run.  A slice is a list, and ``==`` compares
    the records with a list's or another run's."""

    def __init__(self, *columns: Sequence):
        self._columns = columns  # user_ids, cell_ids, descriptors, times, completed, served

    @functools.cached_property
    def _records(self) -> list[RequestRecord]:
        columns = self._columns
        del self._columns
        return list(map(RequestRecord, range(len(columns[0])), *columns))

    def __getitem__(self, i):
        return self._records[i]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RequestRecord]:
        return iter(self._records)

    def __eq__(self, other: object) -> bool:
        return self._records == (other._records if isinstance(other, _Records) else other)

    def __repr__(self) -> str:
        return repr(self._records)


class _PreparedTrace(_Trace):
    """A column trace checked against one KB and cell count.

    Built from a column trace it shares that trace's columns, and from any
    other trace it reads them from the entries.  ``descriptors`` and
    ``nbytes`` hold what the entries lack: each one's descriptor and its
    IRI's UTF-8 byte length.  Each entry is checked for time order, then
    described, then its ``user_id`` and ``cell_id`` are checked to be ints
    (not bools), then its cell range, and last its IRI is encoded, all entry
    by entry, so the first bad entry's first fault is the one raised.
    ``arrivals`` works out the requests' way up to a cache node; a
    ``shared`` trace, one that ``_prepare`` keeps for later runs, stores
    what it works out, and a trace private to one run stores nothing.  Not
    to be changed once built."""

    def __init__(
        self, trace: Iterable[TraceEntry], kb: KnowledgeBase, cells: int, shared: bool = True
    ):
        super().__init__(*_columns(trace))
        self.kb = kb
        self.cells = cells
        self.shared = shared
        self._arrivals: dict[tuple[LinkSpec, ...], tuple[array, array]] = {}
        describe = kb.describe
        self.descriptors = descriptors = []
        self.nbytes = nbytes = []
        prev_time = 0.0
        for idx, (time_ms, user, cell, iri) in enumerate(
            zip(self.times, self.user_ids, self.cell_ids, self.iris)
        ):
            if time_ms < prev_time:
                raise UnsortedTrace(idx)
            prev_time = time_ms
            descriptors.append(describe(iri))
            if type(user) is not int or type(cell) is not int:
                name, value = ("user_id", user) if type(user) is not int else ("cell_id", cell)
                raise SimulationError(f"trace entry {idx}: {name} must be an int, got {value!r}")
            if not 0 <= cell < cells:
                raise SimulationError(f"trace entry {idx}: cell {cell} outside topology")
            nbytes.append(len(iri.encode()))  # UTF-8, taken last

    def arrivals(self, links: tuple[LinkSpec, ...]) -> tuple[list[float], Sequence[int]]:
        """Each request's arrival time at the end of ``links``, the access
        links from the UE up to a cache node, and the request ids in the
        order they arrive there.

        Only requests cross these links, so their claims depend on nothing
        but the trace and the links.  The last link is claimed in the order
        of ``arrivals(links[:-1])``, or for a single link in trace order from
        the trace's times, and a stable sort keeps that order on ties, as
        hop-by-hop claims would.  Below the S-GW each cell has its own
        channel on a link, and above it one channel serves every cell.
        ``_claim``'s law is written out, each channel held as its
        ``busy_until``: a call per request and level costs more.

        A shared trace stores each run of links it works out, as two arrays
        of 8 bytes a number, so both modes and every cache location share
        it; a private trace stores nothing.  The times come back as a list
        the caller may write: a stored run's are copied."""
        found = self._arrivals.get(links)
        if found is not None:
            times, order = found
            return list(times), order
        # Lists of floats and ints, not a tuple per request and level: tuples
        # that live across levels set off the garbage collector.
        if len(links) > 1:
            times, order = self.arrivals(links[:-1])
        else:
            times, order = list(self.times), range(len(self))
        delay, bandwidth = links[-1].propagation_delay_ms, links[-1].bandwidth_bytes_per_ms
        channel = self.cell_ids if len(links) <= _SGW else [0] * len(self)  # each request's channel
        busy_until = [0.0] * self.cells
        sizes = self.nbytes
        for i in order:
            c = channel[i]
            t = times[i]
            busy = busy_until[c]
            busy = busy_until[c] = (busy if busy > t else t) + sizes[i] / bandwidth
            times[i] = busy + delay
        order = sorted(order, key=times.__getitem__)
        if self.shared:
            self._arrivals[links] = array("d", times), array("l", order)
        return times, order

    @functools.cached_property
    def overhead(self) -> dict:
        """Bytes added by carrying metadata headers, versus delivered content,
        counted on first use.  Per request that is the full wire size of its
        hop-by-hop header, which depends only on its IRI's UTF-8 byte length:
        each distinct length is sized once, with no header built."""
        sizes = self.kb.sizes
        total = sum(_header_size(nbytes) * n for nbytes, n in Counter(self.nbytes).items())
        content = sum(map(sizes.__getitem__, self.iris))
        n_users = len(set(self.user_ids))
        return {
            "total_bytes": total,
            "per_user_bytes": total / n_users if n_users else 0.0,
            "ratio_of_total_traffic": total / content if content else 0.0,
        }


def _prepare(trace: Sequence[TraceEntry], kb: KnowledgeBase, cells: int) -> _PreparedTrace:
    """``trace`` prepared for ``kb`` and ``cells``.  A column trace keeps
    its shared preparation in its ``_prepared`` attribute, which only this
    function reads and writes, and a run with the same KB object and cell
    count reuses it, or else replaces it; a preparation that raises
    replaces nothing.  Any other trace is prepared for one run."""
    if not isinstance(trace, _Trace):
        return _PreparedTrace(trace, kb, cells, shared=False)
    prepared = getattr(trace, "_prepared", None)
    if prepared is not None and prepared.kb is kb and prepared.cells == cells:
        return prepared
    trace._prepared = prepared = _PreparedTrace(trace, kb, cells)
    return prepared


_NO_OVERHEAD = {"total_bytes": 0, "per_user_bytes": 0.0, "ratio_of_total_traffic": 0.0}


class _Channel:
    """One direction of a link; FIFO store-and-forward."""

    __slots__ = ("delay", "bandwidth", "busy_until")

    def __init__(self, spec: LinkSpec):
        self.delay = spec.propagation_delay_ms
        self.bandwidth = spec.bandwidth_bytes_per_ms
        self.busy_until = 0.0


_Path = tuple[_Channel, ...]


def _claim(path: _Path, t: float, nbytes: float) -> float:
    """Send ``nbytes`` over ``path`` from ``t``, claiming each channel in turn
    when the message reaches it; return its arrival at the end of ``path``."""
    for channel in path:
        busy = channel.busy_until  # ``max(t, busy)`` is written out: a call costs more
        busy = channel.busy_until = (busy if busy > t else t) + nbytes / channel.bandwidth
        t = busy + channel.delay
    return t


_Then = Callable[[float, Any], None]  # called as then(arrival time, arg)
_Waiters = list[int]  # request ids


@dataclass(frozen=True)
class _CellRoutes:
    """One cell's cache node and its channels, in travel order.  ``pending``
    maps each key whose prefetch is in flight to the requests waiting for it."""

    cache: Cache
    pending: dict[str, _Waiters]
    access_down: _Path
    to_sgw: _Path  # a fetch's links below the S-GW: none unless the cache is at the eNodeB
    origin_up: _Path
    origin_down: _Path


# (route, key, origin, waiters): a demand miss waits alone, and a prefetch's
# waiters are its ``pending`` list.
_Fetch = tuple[_CellRoutes, str, ContentOrigin, _Waiters]


class _EventLoop:
    """One heap of events ``(t, seq, then, arg)``: popping one calls
    ``then(t, arg)``, and equal-time events pop in the order they were put.
    And one FIFO queue of ``(t, arg)`` landings, for a cache node whose
    fetches land in the order they were launched: each is queued no earlier
    than the one before it, so the queue stays in time order.  A run uses
    the heap or the queue, not both."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, _Then, Any]] = []
        self._seq = itertools.count()
        self.landings: deque[tuple[float, Any]] = deque()

    def at(self, t: float, then: _Then, arg: Any) -> None:
        heapq.heappush(self._heap, (t, next(self._seq), then, arg))

    def run(
        self,
        arrivals: Iterable[tuple[float, Any]] = (),
        arrive: Optional[_Then] = None,
        land: Optional[_Then] = None,
    ) -> None:
        """Run the time-ordered ``(t, arg)`` ``arrivals`` through their one
        handler ``arrive(t, arg)``, and the queued landings through theirs,
        ``land(t, arg)``, then drain the queue and the heap.  Each arrival
        runs after the events before ``t`` and before those at ``t``, and
        claims no channel."""
        heap, pop = self._heap, heapq.heappop
        landings, popleft = self.landings, self.landings.popleft
        for time, arg in arrivals:
            while landings and landings[0][0] < time:
                t, event = popleft()
                land(t, event)
            while heap and heap[0][0] < time:
                t, _, then, event = pop(heap)
                then(t, event)
            arrive(time, arg)
        while landings:
            t, event = popleft()
            land(t, event)
        while heap:
            t, _, then, event = pop(heap)
            then(t, event)


class _Simulation:
    def __init__(
        self, topology: Topology, kb: KnowledgeBase, trace: Sequence[TraceEntry], mode: Mode
    ):
        self.topology = topology
        self.kb = kb
        self.sizes = kb.sizes
        self.mode = mode
        self.semantic = mode is Mode.SEMANTIC
        self.max_prefetch = topology.max_prefetch
        self.loop = _EventLoop()

        t = topology
        per_cell = t.cache_location is CacheLocation.ENODEB
        depth = _CACHE_DEPTH[t.cache_location]
        self.access_links = tuple(getattr(t, name) for name in LINKS[:depth])
        shared_up = (_Channel(t.sgw_pgw), _Channel(t.pgw_inet))
        shared_down = (_Channel(t.sgw_pgw), _Channel(t.pgw_inet))
        n_caches = t.cells if per_cell else 1
        self.caches = [Cache(t.cache_capacity, t.eviction) for _ in range(n_caches)]
        pending: list[dict[str, _Waiters]] = [{} for _ in range(n_caches)]
        self.routes: list[_CellRoutes] = []
        for cell in range(t.cells):
            node = cell if per_cell else 0
            # ``down`` runs from the UE outwards.  The uplinks from the UE to
            # the cache node carry only requests: the prepared trace claims them.
            to_sgw = tuple(_Channel(getattr(t, name)) for name in LINKS[depth:_SGW])
            down = (_Channel(t.ue_enb), _Channel(t.enb_sgw), *shared_down)
            self.routes.append(
                _CellRoutes(
                    cache=self.caches[node],
                    pending=pending[node],
                    access_down=down[:depth][::-1],
                    to_sgw=to_sgw,
                    origin_up=shared_up[max(depth - _SGW, 0) :],
                    origin_down=down[depth:][::-1],
                )
            )

        self.trace = trace = _prepare(trace, kb, t.cells)
        # Headers are sized before the run, so an IRI too long for one fails first.
        self.overhead = trace.overhead if self.semantic else _NO_OVERHEAD
        self.cell_ids = trace.cell_ids
        self.descriptors = trace.descriptors
        # Each request's result, by request id.
        self.completed = [0.0] * len(trace)
        self.served: list[Optional[ServedFrom]] = [None] * len(trace)
        self.origin_bytes = 0  # content bytes fetched from the origin

    # -- request lifecycle --------------------------------------------------

    def schedule_trace(self) -> Iterator[tuple[float, int]]:
        """Return each request's ``(t, request id)`` arrival at the cache node
        in the order they run, for ``_at_cache`` to handle.  The prepared
        trace works them out once for the links up to the node."""
        times, order = self.trace.arrivals(self.access_links)
        return zip(map(times.__getitem__, order), order)

    def _at_cache(self, t: float, i: int) -> None:
        route = self.routes[self.cell_ids[i]]
        descriptor = self.descriptors[i]
        key = descriptor.entity_iri
        if route.cache.lookup(key, t) is not None:
            self._deliver(i, t, self.sizes[key], ServedFrom.CACHE)
        elif key in route.pending:
            # An in-flight prefetch will bring this content; wait for it
            # instead of fetching again.
            route.pending[key].append(i)
        else:
            self._fetch(route, key, t, ContentOrigin.DEMAND, [i])

        if self.semantic:
            self._launch_prefetches(descriptor, route, t)

    def _fetch(
        self, route: _CellRoutes, key: str, t: float, origin: ContentOrigin, waiters: _Waiters
    ) -> None:
        """Fetch ``key`` from the origin to the route's cache node for ``waiters``."""
        fetch = (route, key, origin, waiters)
        if route.to_sgw:  # the S-GW uplink merges the cells: claim it in heap order
            self.loop.at(_claim(route.to_sgw, t, len(key.encode("utf-8"))), self._at_sgw, fetch)
        else:  # only this node's fetches cross its origin links: they land in launch order
            self.loop.landings.append((self._round_trip(t, fetch), fetch))

    def _at_sgw(self, t: float, fetch: _Fetch) -> None:
        """An eNodeB cache's ``fetch`` is at the S-GW: land it in heap order."""
        self.loop.at(self._round_trip(t, fetch), self._fetched, fetch)

    def _round_trip(self, t: float, fetch: _Fetch) -> float:
        """``fetch`` is at the S-GW or a cache node above it: claim its way to
        the origin and back, where no flows merge, and return its landing time."""
        route, key, _, _ = fetch
        size = self.sizes[key]
        self.origin_bytes += size
        t = _claim(route.origin_up, t, len(key.encode("utf-8")))
        return _claim(route.origin_down, t, size)

    def _fetched(self, t: float, fetch: _Fetch) -> None:
        """A fetch reached the cache node: cache it and deliver it to its waiters."""
        route, key, origin, waiters = fetch
        if origin is ContentOrigin.PREFETCH:
            del route.pending[key]
        size = self.sizes[key]
        # An object larger than the cache is rejected; its waiters are
        # still served, but there is no cached entry to credit.  A landing
        # prefetch is credited once if anyone waits for it: a second credit
        # at the same time, like the credit of an entry just inserted on
        # demand, would change nothing.
        cached = route.cache.insert(key, size, origin, t)
        if cached and waiters and origin is ContentOrigin.PREFETCH:
            route.cache.credit_prefetch_hit(key, t)
        for waiter in waiters:
            self._deliver(waiter, t, size, ServedFrom.ORIGIN)

    def _deliver(self, i: int, t: float, size: int, served_from: ServedFrom) -> None:
        """Send ``size`` bytes from the cache node at ``t`` and note their
        arrival at the UE as request ``i``'s completion.

        All the links are claimed now: cells share only the links above the
        S-GW, which can only be first on an ``access_down`` path, so each
        link after the first is fed only by the link before it."""
        self.served[i] = served_from
        self.completed[i] = _claim(self.routes[self.cell_ids[i]].access_down, t, size)

    # -- prefetch path ------------------------------------------------------

    def _launch_prefetches(
        self, descriptor: MetadataDescriptor, route: _CellRoutes, t: float
    ) -> None:
        for predicted in infer_next(self.kb, descriptor)[: self.max_prefetch]:
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

        n = len(self.trace)
        total = 0.0  # left to right, as ``sum`` compensates from Python 3.12 on
        for completed, issued in zip(self.completed, self.trace.times):
            total += completed - issued
        mean_latency = total / n if n else 0.0

        scenario = self.topology.scenario_dict()
        scenario["seed"] = seed
        scenario["requests"] = n

        return MetricsReport(
            mode=self.mode.value,
            requests_total=n,
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
            metadata_overhead_bytes=self.overhead["total_bytes"],
            per_user_metadata_bytes=self.overhead["per_user_bytes"],
            metadata_traffic_ratio=self.overhead["ratio_of_total_traffic"],
            scenario=scenario,
        )


def run_simulation(
    topology: Topology,
    kb: KnowledgeBase,
    trace: Sequence[TraceEntry],
    mode: Mode,
    seed: int = 0,
) -> tuple[MetricsReport, Sequence[RequestRecord]]:
    """Run one deterministic simulation and return its metrics and records.

    The records, one per trace entry in trace order, are built the first
    time they are read (indexed, iterated, measured or compared), so a
    caller that ignores them builds none.  A slice of them is a list.

    ``topology`` also sets the caches' eviction policy and the prefetch cap.
    The seed is echoed into the report for bookkeeping; the event schedule
    itself contains no randomness.  The trace is checked and described once
    per (trace, KB object, cell count): a trace from ``generate_trace`` or
    ``load_trace`` keeps that work, and the access links' arrivals, for its
    next run with the same ``kb`` and ``topology.cells``, which keeps that
    ``kb`` alive with the trace.  A plain list of entries is prepared anew
    on each run.
    """
    sim = _Simulation(topology, kb, trace, mode)
    sim.loop.run(sim.schedule_trace(), sim._at_cache, sim._fetched)
    if None in sim.served:
        raise SimulationError(f"request {sim.served.index(None)} was never served")
    trace = sim.trace
    columns = trace.user_ids, trace.cell_ids, trace.descriptors, trace.times
    return sim.report(seed), _Records(*columns, sim.completed, sim.served)
