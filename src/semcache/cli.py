"""Command-line entry point.

Subcommands:

    simulate     run one simulation, write a metrics CSV and print a summary
    sweep        run a user-count / cache-size / cache-location sweep
    gen-trace    synthesize a workload trace CSV
    validate-kb  parse a knowledge base file and report its contents
    codec        encode a descriptor to header hex, or decode header hex

Scenario files are flat YAML key-value mappings; command-line flags
override scenario values and unknown keys are rejected.  ``SEMCACHE_SEED``
is used when no seed is given anywhere else.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile

import yaml

from semcache import codec as codec_mod
from semcache.codec import EntityKind, HopByHopHeader, MetadataDescriptor
from semcache.experiments import (
    Scenario,
    SweepPoint,
    SweepSpec,
    SweepVariable,
    summary_table,
    write_csv,
)
from semcache.kb import KnowledgeBaseError, load_knowledge_base
from semcache.metrics import MetricsReport
from semcache.sim import CacheLocation, LinkSpec, Mode, Topology, run_simulation
from semcache.workload import SyntheticSpec, WorkloadError, generate_trace, load_trace, save_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"config error in {field!r}: {message}")
        self.field = field


_LINKS = ("ue_enb", "enb_sgw", "sgw_pgw", "pgw_inet")

_SCENARIO_KEYS = frozenset(
    {
        "kb", "trace", "mode", "cache_location", "cache_size", "cells", "eviction",
        "seed", "max_prefetch", "n_users", "p_follow", "gap_ms", "requests_per_user",
    }
    | {f"{link}_{param}" for link in _LINKS for param in ("delay_ms", "bandwidth")}
)


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the target directory; rename on success."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_scenario_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError("scenario", f"file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ConfigError("scenario", "scenario file must be a key-value mapping")
    unknown = sorted(str(key) for key in data if key not in _SCENARIO_KEYS)
    if unknown:
        raise ConfigError("scenario", f"unknown key(s): {', '.join(unknown)}")
    return data


def _resolve(args: argparse.Namespace, key: str, scenario: dict, default=None):
    """Command-line value if given, else scenario-file value, else default."""
    attr = key.replace("-", "_")
    value = getattr(args, attr, None)
    if value is not None:
        return value
    if attr in scenario:
        return scenario[attr]
    return default


def _int(field: str, raw) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(field, f"must be an integer, got {raw!r}") from None


def _resolve_seed(args, scenario) -> int:
    seed = _resolve(args, "seed", scenario)
    if seed is not None:
        return _int("seed", seed)
    env = os.environ.get("SEMCACHE_SEED")
    return _int("SEMCACHE_SEED", env) if env else 0


def _resolve_max_prefetch(args, scenario) -> int | None:
    raw = _resolve(args, "max-prefetch", scenario)
    if raw is None:
        return None
    value = _int("max_prefetch", raw)
    if value < 0:
        raise ConfigError("max_prefetch", f"must be >= 0, got {value}")
    return value


def _resolve_path(args, scenario, key: str) -> str:
    path = _resolve(args, key, scenario)
    if path is None:
        raise ConfigError(key, "no value given on the command line or in the scenario file")
    if not os.path.exists(path):
        raise ConfigError(key, f"file not found: {path}")
    return str(path)


def _link(scenario: dict, name: str, default: LinkSpec) -> LinkSpec:
    delay = scenario.get(f"{name}_delay_ms", default.propagation_delay_ms)
    bw = scenario.get(f"{name}_bandwidth", default.bandwidth_bytes_per_ms)
    try:
        return LinkSpec(float(delay), float(bw))
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from None


def _cache_location(field: str, raw) -> CacheLocation:
    try:
        return CacheLocation(str(raw).lower())
    except ValueError:
        raise ConfigError(field, f"must be one of enodeb/sgw/pgw, got {raw!r}") from None


def _build_topology(args, scenario: dict) -> Topology:
    defaults = Topology()
    location = _resolve(args, "cache-location", scenario, defaults.cache_location.value)
    loc = _cache_location("cache_location", location)
    capacity = _resolve(args, "cache-size", scenario, defaults.cache_capacity)
    cells = _resolve(args, "cells", scenario, defaults.cells)
    try:
        return Topology(
            cells=int(cells),
            **{link: _link(scenario, link, getattr(defaults, link)) for link in _LINKS},
            cache_location=loc,
            cache_capacity=int(capacity),
        )
    except ValueError as exc:
        raise ConfigError("topology", str(exc)) from None


def _resolve_mode(args, scenario) -> Mode:
    raw = _resolve(args, "mode", scenario, Mode.SEMANTIC.value)
    try:
        return Mode(str(raw).lower())
    except ValueError:
        raise ConfigError(
            "mode", f"must be semantic or traditional, got {raw!r}"
        ) from None


def _report_lines(report: MetricsReport) -> str:
    out = io.StringIO()
    out.write(f"mode:                    {report.mode}\n")
    out.write(f"requests:                {report.requests_total}\n")
    out.write(f"hit ratio:               {report.hit_ratio:.4f}\n")
    out.write(f"mean latency (ms):       {report.mean_latency_ms:.3f}\n")
    out.write(f"useless prefetch ratio:  {report.useless_prefetch_ratio:.4f}\n")
    out.write(f"prefetched bytes:        {report.prefetched_bytes}\n")
    out.write(f"origin bytes:            {report.origin_bytes}\n")
    out.write(f"metadata overhead (B):   {report.metadata_overhead_bytes}\n")
    out.write(f"metadata per user (B):   {report.per_user_metadata_bytes:.1f}\n")
    return out.getvalue()


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario_file(args.scenario)
    kb_path = _resolve_path(args, scenario, "kb")
    trace_path = _resolve_path(args, scenario, "trace")
    topology = _build_topology(args, scenario)
    mode = _resolve_mode(args, scenario)
    seed = _resolve_seed(args, scenario)
    eviction = str(_resolve(args, "eviction", scenario, "lru"))
    max_prefetch = _resolve_max_prefetch(args, scenario)

    kb = load_knowledge_base(kb_path)
    trace = load_trace(trace_path)
    report, records = run_simulation(
        topology, kb, trace, mode, seed, eviction=eviction, max_prefetch=max_prefetch
    )

    if args.out:
        sink = io.StringIO()
        write_csv([SweepPoint(None, mode, report)], sink)
        _atomic_write(args.out, sink.getvalue())
    if args.records:
        lines = [json.dumps(_record_dict(r)) for r in records]
        _atomic_write(args.records, "\n".join(lines) + "\n")
    sys.stdout.write(_report_lines(report))
    return EXIT_OK


def _record_dict(r) -> dict:
    return {
        "request_id": r.request_id,
        "user_id": r.user_id,
        "cell_id": r.cell_id,
        "entity_iri": r.descriptor.entity_iri,
        "issued_at": r.issued_at,
        "completed_at": r.completed_at,
        "latency_ms": r.latency_ms,
        "served_from": r.served_from.value,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    from semcache.experiments import run_sweep

    scenario = _load_scenario_file(args.scenario)
    kb_path = _resolve_path(args, scenario, "kb")
    topology = _build_topology(args, scenario)
    seed = _resolve_seed(args, scenario)
    kb = load_knowledge_base(kb_path)

    try:
        variable = SweepVariable(args.variable.replace("-", "_"))
    except ValueError:
        raise ConfigError("variable", f"unknown sweep variable {args.variable!r}") from None

    values: tuple
    if variable is SweepVariable.CACHE_LOCATION:
        values = tuple(_cache_location("values", v) for v in args.values)
    else:
        values = tuple(_int("values", v) for v in args.values)

    workload = _workload_from(args, scenario)
    spec = SweepSpec(
        variable=variable,
        values=values,
        scenario=Scenario(topology=topology, workload=workload),
        seed=seed,
    )
    points = run_sweep(spec, kb)
    if args.out:
        sink = io.StringIO()
        write_csv(points, sink)
        _atomic_write(args.out, sink.getvalue())
    sys.stdout.write(summary_table(points) + "\n")
    return EXIT_OK


def _workload_from(args, scenario: dict) -> SyntheticSpec:
    try:
        gap = scenario.get("gap_ms", (2000.0, 8000.0))
        if isinstance(gap, list):
            gap = tuple(float(g) for g in gap)
        rpu = scenario.get("requests_per_user", (20, 30))
        if isinstance(rpu, list):
            rpu = tuple(int(r) for r in rpu)
        return SyntheticSpec(
            n_users=int(_resolve(args, "n-users", scenario, scenario.get("n_users", 20))),
            requests_per_user=rpu,
            p_follow=float(_resolve(args, "p-follow", scenario, scenario.get("p_follow", 0.6))),
            gap_ms=gap,
            seed=_resolve_seed(args, scenario),
            n_cells=int(_resolve(args, "cells", scenario, 1)),
        )
    except ValueError as exc:
        raise ConfigError("workload", str(exc)) from None


def cmd_gen_trace(args: argparse.Namespace) -> int:
    scenario = _load_scenario_file(args.scenario)
    kb_path = _resolve_path(args, scenario, "kb")
    kb = load_knowledge_base(kb_path)
    spec = _workload_from(args, scenario)
    trace = generate_trace(kb, spec)
    sink = io.StringIO()
    save_trace(trace, sink)
    if args.out:
        _atomic_write(args.out, sink.getvalue())
        sys.stdout.write(f"wrote {len(trace)} requests to {args.out}\n")
    else:
        sys.stdout.write(sink.getvalue())
    return EXIT_OK


def cmd_validate_kb(args: argparse.Namespace) -> int:
    if not os.path.exists(args.kb):
        raise ConfigError("kb", f"file not found: {args.kb}")
    kb = load_knowledge_base(args.kb)
    persons = sum(1 for e in kb.entities() if kb.kind_of(e).name == "PERSON")
    sys.stdout.write(
        f"ok: {len(kb)} entities ({persons} persons, {len(kb) - persons} TV series), "
        f"{len(kb.triples)} triples\n"
    )
    return EXIT_OK


_KIND_FLAGS = {
    "person": EntityKind.PERSON,
    "tvseries": EntityKind.TV_SERIES,
    "other": EntityKind.OTHER,
}


def cmd_codec(args: argparse.Namespace) -> int:
    if args.action == "encode":
        if not args.iri:
            raise ConfigError("iri", "encode requires --iri")
        descriptor = MetadataDescriptor(args.iri, _KIND_FLAGS[args.kind])
        header = codec_mod.encode_metadata(descriptor)
        sys.stdout.write(header.to_bytes().hex() + "\n")
    else:
        if not args.hex:
            raise ConfigError("hex", "decode requires --hex")
        try:
            wire = bytes.fromhex(args.hex.strip())
        except ValueError:
            raise ConfigError("hex", "not a valid hex string") from None
        header = HopByHopHeader.from_bytes(wire)
        descriptor = codec_mod.decode_metadata(header)
        sys.stdout.write(
            f"entity_iri: {descriptor.entity_iri}\n"
            f"entity_kind: {descriptor.entity_kind.name}\n"
            f"wire_size: {header.wire_size()}\n"
            f"options: {len(header.options)}\n"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcache",
        description="Semantic in-network caching and prefetching simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", help="flat YAML scenario file (default: none)")
        p.add_argument("--kb", help="knowledge base triples file")
        p.add_argument("--seed", type=int, help="RNG seed (default: SEMCACHE_SEED or 0)")
        p.add_argument("--cells", type=int, help="number of eNodeB cells (default: 1)")
        p.add_argument(
            "--cache-location",
            choices=["enodeb", "sgw", "pgw"],
            help="where the cache sits (default: enodeb)",
        )
        p.add_argument(
            "--cache-size", type=int, help="cache capacity in bytes (default: 20000000)"
        )

    p_sim = sub.add_parser("simulate", help="run one simulation")
    add_common(p_sim)
    p_sim.add_argument("--trace", help="request trace CSV")
    p_sim.add_argument(
        "--mode", choices=["semantic", "traditional"], help="caching mode (default: semantic)"
    )
    p_sim.add_argument("--eviction", choices=["lru", "fifo"], help="eviction policy (default: lru)")
    p_sim.add_argument("--max-prefetch", type=int, help="cap prefetches per request (default: unlimited)")
    p_sim.add_argument("--out", help="metrics CSV output path")
    p_sim.add_argument("--records", help="per-request JSON-lines output path")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep in both modes")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--variable",
        required=True,
        choices=["user-count", "cache-size", "cache-location"],
        help="swept parameter",
    )
    p_sweep.add_argument("--values", nargs="+", required=True, help="sweep values")
    p_sweep.add_argument("--n-users", type=int, help="users in the synthetic workload (default: 20)")
    p_sweep.add_argument("--p-follow", type=float, help="follow probability (default: 0.6)")
    p_sweep.add_argument("--out", help="results CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen-trace", help="generate a synthetic trace CSV")
    add_common(p_gen)
    p_gen.add_argument("--n-users", type=int, help="number of users (default: 20)")
    p_gen.add_argument("--p-follow", type=float, help="follow probability (default: 0.6)")
    p_gen.add_argument("--out", help="trace CSV output path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen_trace)

    p_val = sub.add_parser("validate-kb", help="parse and validate a knowledge base file")
    p_val.add_argument("--kb", required=True, help="knowledge base triples file")
    p_val.set_defaults(func=cmd_validate_kb)

    p_codec = sub.add_parser("codec", help="hop-by-hop header debugging")
    p_codec.add_argument("action", choices=["encode", "decode"])
    p_codec.add_argument("--iri", help="entity IRI (encode)")
    p_codec.add_argument(
        "--kind", choices=sorted(_KIND_FLAGS), default="person", help="entity kind (encode)"
    )
    p_codec.add_argument("--hex", help="header bytes as hex (decode)")
    p_codec.set_defaults(func=cmd_codec)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (KnowledgeBaseError, WorkloadError, codec_mod.CodecError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
