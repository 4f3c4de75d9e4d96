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

A trace is checked and described once per (trace, KB, cell count): its
order, each entry's descriptor, its cell range and each request's size are
worked out in one bulk pass before the first run, and ``run_sweep`` reuses
them across its points.  So are the requests' arrivals at the end of each
run of access links, worked out from those one link shorter: both modes
and all three cache locations share them.  A trace that a single run
prepares for itself stores none of them.  A metadata header's size
depends only on its IRI's UTF-8 byte length, so a Semantic run's overhead
is counted from the request sizes already worked out, with no header built.

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
import operator
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from semcache.cache import EVICTION_POLICIES, Cache, ContentOrigin
# Not called here: ``sim.wire_size`` stays importable because the
# benchmark's tracer wraps it there to time the codec.
from semcache.codec import MetadataDescriptor, _header_size, wire_size  # noqa: F401
from semcache.kb import KnowledgeBase, infer_next
from semcache.metrics import MetricsReport
from semcache.workload import TraceEntry, _count


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


class _PreparedTrace(list):
    """The entries of a trace, checked against one KB and cell count.

    ``times``, ``user_ids`` and ``cell_ids`` hold the entries' fields as
    columns, and ``descriptors`` and ``nbytes`` what the entries lack: each
    one's descriptor and its IRI's UTF-8 byte length.  Each entry is checked
    for time order, then described, then its ``user_id`` and ``cell_id`` are
    checked to be ints (not bools), then its cell range, so the first bad
    entry's first fault is the one raised.  One bulk pass makes each check
    over the whole trace; only if it finds a fault does ``_check_each`` go
    entry by entry, to name that fault.  ``arrivals`` works out the
    requests' way up to a cache node; a ``shared`` trace, prepared for
    several runs, stores what it works out, and a trace private to one run
    stores nothing.  Not to be changed once built."""

    def __init__(
        self, trace: Iterable[TraceEntry], kb: KnowledgeBase, cells: int, shared: bool = True
    ):
        super().__init__(trace)
        self.kb = kb
        self.cells = cells
        self.shared = shared
        self._arrivals: dict[tuple[LinkSpec, ...], tuple[array, array]] = {}
        try:
            checked = self._check_all()
        except Exception:  # ``_check_each`` raises it, or an earlier entry's fault
            checked = False
        if not checked:
            self._check_each()
            raise AssertionError("the bulk pass and the per-entry checks disagree")

    def _check_all(self) -> bool:
        """The bulk pass: the per-entry checks, each over the whole trace at
        once, with ``kb.describe`` called once per entry.  False if an entry
        fails one."""
        self.times = times = [entry.time_ms for entry in self]
        # ``<`` against the predecessor, the first entry against 0.0, as
        # ``_check_each`` compares.
        if any(map(operator.lt, times, itertools.chain((0.0,), times))):
            return False
        iris = [entry.entity_iri for entry in self]
        self.descriptors = list(map(self.kb.describe, iris))
        self.user_ids = users = [entry.user_id for entry in self]
        self.cell_ids = cells = [entry.cell_id for entry in self]
        if [*map(type, users), *map(type, cells)].count(int) < 2 * len(self):  # a bool is no int
            return False
        if cells and not (min(cells) >= 0 and max(cells) < self.cells):
            return False
        self.nbytes = [len(iri.encode()) for iri in iris]  # UTF-8
        return True

    def _check_each(self) -> None:
        """The documented checks, entry by entry: raise the first bad entry's
        first fault."""
        prev_time = 0.0
        for idx, entry in enumerate(self):
            if entry.time_ms < prev_time:
                raise UnsortedTrace(idx)
            prev_time = entry.time_ms
            self.kb.describe(entry.entity_iri)
            if type(entry.user_id) is not int or type(entry.cell_id) is not int:
                name = "user_id" if type(entry.user_id) is not int else "cell_id"
                value = getattr(entry, name)
                raise SimulationError(f"trace entry {idx}: {name} must be an int, got {value!r}")
            if not 0 <= entry.cell_id < self.cells:
                raise SimulationError(f"trace entry {idx}: cell {entry.cell_id} outside topology")
            entry.entity_iri.encode("utf-8")  # its byte length is taken last

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
        content = sum(sizes[entry.entity_iri] for entry in self)
        n_users = len(set(self.user_ids))
        return {
            "total_bytes": total,
            "per_user_bytes": total / n_users if n_users else 0.0,
            "ratio_of_total_traffic": total / content if content else 0.0,
        }


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
_Waiters = list[RequestRecord]


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

        # A prepared trace is reused only for the same KB object and cell count.
        if not (isinstance(trace, _PreparedTrace) and trace.kb is kb and trace.cells == t.cells):
            trace = _PreparedTrace(trace, kb, t.cells, shared=False)
        self.trace = trace
        # Headers are sized before the run, so an IRI too long for one fails first.
        self.overhead = trace.overhead if self.semantic else _NO_OVERHEAD
        self.records: list[RequestRecord] = []
        self.origin_bytes = 0  # content bytes fetched from the origin

    # -- request lifecycle --------------------------------------------------

    def schedule_trace(self) -> Iterator[tuple[float, RequestRecord]]:
        """Record each request and return its ``(t, record)`` arrivals at the
        cache node in the order they run, for ``_at_cache`` to handle.  The
        prepared trace works them out once for the links up to the node."""
        trace = self.trace
        columns = trace.user_ids, trace.cell_ids, trace.descriptors, trace.times
        self.records = list(map(RequestRecord, range(len(trace)), *columns))
        times, order = trace.arrivals(self.access_links)
        return zip(map(times.__getitem__, order), map(self.records.__getitem__, order))

    def _at_cache(self, t: float, record: RequestRecord) -> None:
        route = self.routes[record.cell_id]
        key = record.descriptor.entity_iri
        if route.cache.lookup(key, t) is not None:
            self._deliver(record, t, self.sizes[key], ServedFrom.CACHE)
        elif key in route.pending:
            # An in-flight prefetch will bring this content; wait for it
            # instead of fetching again.
            route.pending[key].append(record)
        else:
            self._fetch(route, key, t, ContentOrigin.DEMAND, [record])

        if self.semantic:
            self._launch_prefetches(record, route, t)

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

    def _deliver(
        self, record: RequestRecord, t: float, size: int, served_from: ServedFrom
    ) -> None:
        """Send ``size`` bytes from the cache node at ``t`` and stamp ``record``
        with their arrival at the UE.

        All the links are claimed now: cells share only the links above the
        S-GW, which can only be first on an ``access_down`` path, so each
        link after the first is fed only by the link before it."""
        record.served_from = served_from
        record.completed_at = _claim(self.routes[record.cell_id].access_down, t, size)

    # -- prefetch path ------------------------------------------------------

    def _launch_prefetches(self, record: RequestRecord, route: _CellRoutes, t: float) -> None:
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

        total = 0.0  # left to right, as ``sum`` compensates from Python 3.12 on
        for r in self.records:
            total += r.completed_at - r.issued_at
        mean_latency = total / len(self.records) if self.records else 0.0

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
) -> tuple[MetricsReport, list[RequestRecord]]:
    """Run one deterministic simulation and return its metrics and records.

    ``topology`` also sets the caches' eviction policy and the prefetch cap.
    The seed is echoed into the report for bookkeeping; the event schedule
    itself contains no randomness.  The trace is checked and described once
    per (trace, KB, cell count): a trace that ``run_sweep`` prepared for
    this ``kb`` and ``topology.cells`` is run as it is, so its points share
    that work.
    """
    sim = _Simulation(topology, kb, trace, mode)
    sim.loop.run(sim.schedule_trace(), sim._at_cache, sim._fetched)
    unserved = next((r for r in sim.records if r.served_from is None), None)
    if unserved is not None:
        raise SimulationError(f"request {unserved.request_id} was never served")
    return sim.report(seed), sim.records
