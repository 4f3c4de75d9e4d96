"""Semantic in-network caching and prefetching simulator for mobile networks.

The package models an LTE-style path (UE - eNodeB - S-GW - P-GW - Internet)
with a byte-capacity content cache attachable at any of the three mobile
network elements.  Request metadata travels in an IPv6 hop-by-hop options
header; a knowledge base infers likely follow-up requests and the cache
prefetches them from the origin concurrently with the demand fetch.
"""

from semcache.codec import (
    EntityKind,
    HopByHopHeader,
    HopByHopOption,
    MetadataDescriptor,
    decode_metadata,
    encode_metadata,
    wire_size,
)
from semcache.kb import KnowledgeBase, Predicate, load_knowledge_base
from semcache.cache import Cache, CacheEntry, ContentOrigin
from semcache.sim import (
    CacheLocation,
    LinkSpec,
    Mode,
    RequestRecord,
    Topology,
    metadata_overhead,
    run_simulation,
    transfer_time,
)
from semcache.metrics import MetricsReport
from semcache.workload import SyntheticSpec, TraceEntry, generate_trace, load_trace
from semcache.experiments import Scenario, SweepSpec, SweepVariable, improvement, run_sweep

__all__ = [
    "Cache",
    "CacheEntry",
    "CacheLocation",
    "ContentOrigin",
    "EntityKind",
    "HopByHopHeader",
    "HopByHopOption",
    "KnowledgeBase",
    "LinkSpec",
    "MetadataDescriptor",
    "MetricsReport",
    "Mode",
    "Predicate",
    "RequestRecord",
    "Scenario",
    "SweepSpec",
    "SweepVariable",
    "SyntheticSpec",
    "Topology",
    "TraceEntry",
    "decode_metadata",
    "encode_metadata",
    "generate_trace",
    "improvement",
    "load_knowledge_base",
    "load_trace",
    "metadata_overhead",
    "run_simulation",
    "run_sweep",
    "transfer_time",
    "wire_size",
]

__version__ = "0.1.0"
