"""A naive reference simulator, transcribed from the README's rules rather
than from ``semcache.sim``, which ``tests/test_sim.py`` checks against it
bit for bit.

* The topology: per cell a UE and an eNodeB, then one S-GW, P-GW and
  origin.  The UE-eNodeB and eNodeB-S-GW links are each cell's own, and
  the S-GW-P-GW and P-GW-Internet links are shared by every cell.  The
  cache sits at every eNodeB (one per cell), or at the S-GW or the P-GW
  (one for all cells).
* Each direction of a link is a FIFO channel.  A message claims it when it
  reaches the link's sending end at ``t``: it is sent from ``t`` or from the
  end of the channel's last transmission, whichever is later, for
  ``bytes / bandwidth`` ms, and arrives ``propagation_delay`` ms after that.
* Every message crosses one link per step: a request from its UE up to the
  cache node, a fetch from the cache node up to the origin and its content
  back down, a delivery from the cache node down to the UE.  A message
  claims its first link when it is sent, and each later one when the step
  of its arrival at that link runs.
* The steps pending are a plain list, and each step takes the least
  ``(t, tie, ticket)``.  A request that reaches its cache node at ``t``
  runs before any other step at ``t`` (tie 0).  Otherwise equal-time steps
  run in the order their previous link was claimed: the ticket is the
  claim's number.  Requests are issued at their times, in trace order,
  each holding its place in the trace as its ticket, before any claim's.
* At the cache node, the README's "Concurrent requests" rules: a hit is
  delivered from the cache; a miss waits for an in-flight prefetch of its
  content, or else fetches it again (``_demand_miss``).  In Semantic mode
  each request's predictions follow, in IRI order and capped by
  ``max_prefetch``: one whose content is cached or being prefetched is
  skipped, and any other is prefetched.
* A landing fetch is inserted into the cache (``ReferenceCache``) and
  delivered to the requests waiting for it.  A landing prefetch stops being
  in flight, and is credited once if the cache stored it and anyone waits.
* Inference follows one relation per kind: a Person to the objects of its
  ``spouse`` triples, a TVSeries to those of its ``starring`` triples,
  deduplicated and sorted by IRI.
* A metadata header carries a record of a kind byte, a 2-byte length and
  the IRI in UTF-8, in options of at most 255 bytes, each with a 2-byte
  type and length, after the header's own 2 bytes, padded to a multiple of
  8 bytes.
"""

import itertools

from semcache.metrics import MetricsReport
from semcache.sim import CacheLocation, Mode, ServedFrom

from reference_cache import ReferenceCache

LINKS = ("ue_enb", "enb_sgw", "sgw_pgw", "pgw_inet")  # link i joins node i and i + 1
UE, ORIGIN = 0, len(LINKS)
CACHE_NODE = {CacheLocation.ENODEB: 1, CacheLocation.SGW: 2, CacheLocation.PGW: 3}
FOLLOWED = {"Person": "spouse", "TVSeries": "starring"}


class Channel:
    def __init__(self, spec):
        self.delay = spec.propagation_delay_ms
        self.bandwidth = spec.bandwidth_bytes_per_ms
        self.free_at = 0.0

    def claim(self, t, nbytes):
        """Send ``nbytes`` from ``t``; return their arrival at the far end."""
        self.free_at = max(t, self.free_at) + nbytes / self.bandwidth
        return self.free_at + self.delay


def header_size(iri):
    record = 3 + len(iri.encode("utf-8"))
    size = 2 + 2 * -(-record // 255) + record
    return size + -size % 8


class ReferenceSim:
    """One run of ``trace`` over ``topology`` in ``mode``, on the KB given by
    its ``(subject, predicate, object)`` triples, with ``"type"`` and
    ``"size"`` triples among them."""

    def __init__(self, topology, triples, trace, mode):
        self.topology = topology
        self.mode = mode
        self.trace = list(trace)
        kinds, self.sizes, relations = {}, {}, []
        for subject, predicate, obj in triples:
            if predicate == "type":
                kinds[subject] = obj
            elif predicate == "size":
                self.sizes[subject] = obj
            else:
                relations.append((subject, predicate, obj))
        self.successors = {
            iri: sorted({o for s, p, o in relations if s == iri and p == FOLLOWED[kind]})
            for iri, kind in kinds.items()
        }

        specs = [getattr(topology, name) for name in LINKS]
        shared_up = [Channel(spec) for spec in specs[2:]]
        shared_down = [Channel(spec) for spec in specs[2:]]
        cells = range(topology.cells)
        self.up = [[Channel(specs[0]), Channel(specs[1]), *shared_up] for _ in cells]
        self.down = [[Channel(specs[0]), Channel(specs[1]), *shared_down] for _ in cells]
        self.cache_node = CACHE_NODE[topology.cache_location]
        per_cell = topology.cache_location is CacheLocation.ENODEB
        self.caches = [
            ReferenceCache(topology.cache_capacity, topology.eviction)
            for _ in (cells if per_cell else [0])
        ]
        self.in_flight = [{} for _ in self.caches]  # key -> waiting request ids, per cache
        self.node_of = (lambda cell: cell) if per_cell else (lambda cell: 0)

        self.steps = []  # [t, tie, ticket, message]
        self.tickets = itertools.count()
        self.origin_bytes = 0
        self.completed_at = [None] * len(self.trace)
        self.served_from = [None] * len(self.trace)
        self.reached = []  # (t, request id), in the order requests reach the cache node

    # -- messages -----------------------------------------------------------

    def send(self, t, cell, node, target, nbytes, then, arg):
        """Send a message from ``node`` towards ``target`` at ``t``: claim its
        first link now, and call ``then(t, arg)`` when it gets there."""
        self.hop(t, [cell, node, target, nbytes, then, arg])

    def hop(self, t, message):
        """``message`` is at its node at ``t``: claim the next link, or hand it
        over if it has arrived."""
        cell, node, target, nbytes, then, arg = message
        if node == target:
            then(t, arg)
            return
        if target > node:
            t, message[1] = self.up[cell][node].claim(t, nbytes), node + 1
        else:
            t, message[1] = self.down[cell][node - 1].claim(t, nbytes), node - 1
        tie = 0 if then == self.at_cache and message[1] == target else 1
        self.steps.append([t, tie, next(self.tickets), message])

    def run(self):
        for i, entry in enumerate(self.trace):
            nbytes = len(entry.entity_iri.encode("utf-8"))
            message = [entry.cell_id, UE, self.cache_node, nbytes, self.at_cache, i]
            self.steps.append([entry.time_ms, 1, next(self.tickets), message])
        while self.steps:
            step = min(self.steps, key=lambda step: step[:3])
            self.steps.remove(step)
            self.hop(step[0], step[3])
        return self

    # -- the cache node -----------------------------------------------------

    def at_cache(self, t, i):
        self.reached.append((t, i))
        cell = self.trace[i].cell_id
        node = self.node_of(cell)
        cache, in_flight = self.caches[node], self.in_flight[node]
        key = self.trace[i].entity_iri
        if cache.lookup(key, t):
            self.deliver(t, i, ServedFrom.CACHE)
        elif key in in_flight:
            in_flight[key].append(i)
        else:
            self._demand_miss(t, cell, key, i)
        if self.mode is Mode.SEMANTIC:
            for predicted in self.successors[key][: self.topology.max_prefetch]:
                if predicted in cache or predicted in in_flight:
                    continue
                in_flight[predicted] = []
                self.fetch(t, cell, predicted, "prefetch", in_flight[predicted])

    def _demand_miss(self, t, cell, key, i):
        """A miss whose content no prefetch brings: fetch it for request ``i``
        alone, even if a demand fetch of it is in flight."""
        self.fetch(t, cell, key, "demand", [i])

    def fetch(self, t, cell, key, origin, waiters):
        fetch = (cell, key, origin, waiters)
        nbytes = len(key.encode("utf-8"))
        self.send(t, cell, self.cache_node, ORIGIN, nbytes, self.at_origin, fetch)

    def at_origin(self, t, fetch):
        cell, key, _, _ = fetch
        self.origin_bytes += self.sizes[key]
        self.send(t, cell, ORIGIN, self.cache_node, self.sizes[key], self.landed, fetch)

    def landed(self, t, fetch):
        cell, key, origin, waiters = fetch
        node = self.node_of(cell)
        cache = self.caches[node]
        if origin == "prefetch":
            del self.in_flight[node][key]
        stored = cache.insert(key, self.sizes[key], origin, t)
        if stored and waiters and origin == "prefetch":
            cache.credit_prefetch_hit(key, t)
        for i in waiters:
            self.deliver(t, i, ServedFrom.ORIGIN)

    def deliver(self, t, i, served_from):
        self.served_from[i] = served_from
        cell, key = self.trace[i].cell_id, self.trace[i].entity_iri
        self.send(t, cell, self.cache_node, UE, self.sizes[key], self.completed, i)

    def completed(self, t, i):
        self.completed_at[i] = t

    # -- the report ---------------------------------------------------------

    def report(self, seed):
        lookups = sum(c.lookups for c in self.caches)
        hits = sum(c.hits for c in self.caches)
        prefetched = sum(c.prefetched_bytes for c in self.caches)
        prefetched_hit = sum(c.prefetched_bytes_hit for c in self.caches)
        useless = prefetched - prefetched_hit
        total_latency = 0.0
        for entry, completed_at in zip(self.trace, self.completed_at):
            total_latency += completed_at - entry.time_ms
        n = len(self.trace)
        headers = users = content = 0
        if self.mode is Mode.SEMANTIC:
            headers = sum(header_size(entry.entity_iri) for entry in self.trace)
            users = len({entry.user_id for entry in self.trace})
            content = sum(self.sizes[entry.entity_iri] for entry in self.trace)
        scenario = self.topology.scenario_dict()
        scenario["seed"] = seed
        scenario["requests"] = n
        return MetricsReport(
            mode=self.mode.value,
            requests_total=n,
            hits=hits,
            lookups=lookups,
            hit_ratio=hits / lookups if lookups else 0.0,
            mean_latency_ms=total_latency / n if n else 0.0,
            prefetched_bytes=prefetched,
            prefetched_bytes_hit=prefetched_hit,
            useless_prefetch_ratio=useless / prefetched if prefetched else 0.0,
            origin_bytes=self.origin_bytes,
            useless_prefetch_origin_ratio=(
                useless / self.origin_bytes if self.origin_bytes else 0.0
            ),
            metadata_overhead_bytes=headers,
            per_user_metadata_bytes=headers / users if users else 0.0,
            metadata_traffic_ratio=headers / content if content else 0.0,
            scenario=scenario,
        )


def run_reference(topology, triples, trace, mode, seed=0):
    """The reference's report and its ``(completed_at, served_from)`` per request."""
    sim = ReferenceSim(topology, triples, trace, mode).run()
    return sim.report(seed), list(zip(sim.completed_at, sim.served_from))
