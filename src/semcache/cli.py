"""Command-line entry point.

Subcommands:

    simulate     run one simulation, write a metrics CSV and print a summary
    sweep        run a user-count / cache-size / cache-location sweep
    gen-trace    synthesize a workload trace CSV
    validate-kb  parse a knowledge base file and report its contents
    codec        encode a descriptor to header hex, or decode header hex

Scenario files are flat YAML key-value mappings; unknown keys are rejected.
Flags override file values; both are read by one reader per key (``SETTINGS``),
which only parses.  The ranges are those of the types the values go into
(``Topology``, ``LinkSpec``, ``SyntheticSpec`` and, for ``sweep --values``,
``SweepSpec``), all built before any work; a bad value exits 2 naming its key.
``SEMCACHE_SEED`` is used when no seed is given.
"""

from __future__ import annotations

import argparse
import enum
import io
import json
import os
import stat
import sys
import tempfile
from dataclasses import replace
from typing import Callable, NamedTuple, Optional

import yaml

from semcache import codec as codec_mod
from semcache.codec import EntityKind, HopByHopHeader, MetadataDescriptor
from semcache.experiments import (
    Scenario,
    SweepPoint,
    SweepSpec,
    SweepVariable,
    run_sweep,
    summary_table,
    write_csv,
)
from semcache.kb import load_knowledge_base
from semcache.metrics import MetricsReport
from semcache.sim import LINKS, CacheLocation, Mode, Topology, run_simulation
from semcache.workload import SyntheticSpec, generate_trace, load_trace, save_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"config error in {field!r}: {message}")


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the target directory; rename on success.
    The file gets the mode ``open(path, "w")`` would leave: an existing
    file's, or ``0o666`` less the umask (``mkstemp`` creates 0600)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # read by setting it back
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _int(raw) -> int:
    # Through str, so that 1.5 and true are refused instead of truncated.
    return int(str(raw))


def _float(raw) -> float:
    return float(str(raw))


def _text(raw) -> str:
    if not isinstance(raw, str):
        raise TypeError("must be a string")
    return raw


def _pair(read: Callable):
    def pair(raw) -> tuple:
        if not isinstance(raw, list) or len(raw) != 2:
            raise ValueError("must be a [lo, hi] pair")
        return read(raw[0]), read(raw[1])

    return pair


def _gap(raw):
    return _pair(_float)(raw) if isinstance(raw, list) else _float(raw)


def _member(kind: type[enum.Enum]):
    return lambda raw: kind(str(raw).lower())


def _lower(raw) -> str:
    return str(raw).lower()


class _Key(NamedTuple):
    read: Callable
    help: Optional[str] = None  # the flag's help; None: scenario file only


# Every scenario key.  A flag ``--a-b`` sets key ``a_b``.
SETTINGS: dict[str, _Key] = {
    "kb": _Key(_text, "knowledge base triples file"),
    "trace": _Key(_text, "request trace CSV"),
    "mode": _Key(_member(Mode), "caching mode (default: semantic)"),
    "cache_location": _Key(
        _member(CacheLocation),
        f"where the cache sits (default: {Topology.cache_location.value})",
    ),
    "cache_size": _Key(_int, f"cache capacity in bytes (default: {Topology.cache_capacity})"),
    "cells": _Key(_int, f"number of eNodeB cells (default: {Topology.cells})"),
    "eviction": _Key(_lower, f"eviction policy (default: {Topology.eviction})"),
    "seed": _Key(_int, "RNG seed (default: SEMCACHE_SEED or 0)"),
    "max_prefetch": _Key(
        _int,
        "prefetch from the first N predictions per request, in IRI order, cached or "
        "pending ones included (default: unlimited)",
    ),
    "n_users": _Key(_int, "users in the synthetic workload (default: 20)"),
    "p_follow": _Key(_float, f"follow probability (default: {SyntheticSpec.p_follow})"),
    "gap_ms": _Key(_gap),
    "requests_per_user": _Key(_pair(_int)),
    **{f"{link}_delay_ms": _Key(_float) for link in LINKS},
    **{f"{link}_bandwidth": _Key(_float) for link in LINKS},
}


def _read(key: str, raw, field: Optional[str] = None):
    try:
        return SETTINGS[key].read(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field or key, f"cannot read {raw!r}: {exc}") from None


def _settings(args: argparse.Namespace) -> tuple[dict, Topology, SyntheticSpec]:
    """The scenario file's values overlaid by the flags given, each read once,
    and the ``Topology`` and ``SyntheticSpec`` they make, so that every key
    present is range-checked, whatever the subcommand uses."""
    raw: dict = {}
    if args.scenario is not None:
        try:
            with open(_path(vars(args), "scenario"), encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ConfigError("scenario", f"cannot read {args.scenario}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("scenario", "scenario file must be a key-value mapping")
        unknown = sorted(str(key) for key in raw if key not in SETTINGS)
        if unknown:
            raise ConfigError("scenario", f"unknown key(s): {', '.join(unknown)}")
    raw.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    settings = {key: _read(key, value) for key, value in raw.items() if value is not None}
    env_seed = os.environ.get("SEMCACHE_SEED")
    if "seed" not in settings and env_seed:
        settings["seed"] = _read("seed", env_seed, "SEMCACHE_SEED")
    return settings, _topology(settings), _workload(settings)


def _replace(base, settings: dict, fields: dict[str, str]):
    """``base`` with the given settings among ``fields`` (key: attribute), set
    one at a time, so that a value the type refuses is named by its key."""
    for key, attr in fields.items():
        if key in settings:
            try:
                base = replace(base, **{attr: settings[key]})
            except ValueError as exc:
                raise ConfigError(key, f"cannot use {settings[key]!r}: {exc}") from None
    return base


def _topology(settings: dict) -> Topology:
    base = Topology()
    links = {}
    for link in LINKS:
        delay, bandwidth = f"{link}_delay_ms", f"{link}_bandwidth"
        fields = {delay: "propagation_delay_ms", bandwidth: "bandwidth_bytes_per_ms"}
        links[link] = _replace(getattr(base, link), settings, fields)
    keys = ("cells", "cache_location", "eviction", "max_prefetch")
    fields = {key: key for key in keys} | {"cache_size": "cache_capacity"}
    return replace(_replace(base, settings, fields), **links)


def _workload(settings: dict) -> SyntheticSpec:
    keys = ("n_users", "requests_per_user", "p_follow", "gap_ms", "seed")
    fields = {key: key for key in keys} | {"cells": "n_cells"}
    # SyntheticSpec has no default user count; the CLI's is 20.
    return _replace(SyntheticSpec(n_users=20), settings, fields)


def _path(settings: dict, key: str) -> str:
    path = settings.get(key)
    if path is None:
        raise ConfigError(key, "no value given on the command line or in the scenario file")
    if not os.path.exists(path):
        raise ConfigError(key, f"file not found: {path}")
    if os.path.isdir(path):
        raise ConfigError(key, f"{path} is a directory")
    return path


def _check_out_dirs(args: argparse.Namespace, *flags: str) -> None:
    """Refuse an output path that names a directory, or lies in a missing
    one, before any work is done."""
    for flag in flags:
        path = getattr(args, flag)
        if path and os.path.isdir(path):
            raise ConfigError(flag, f"{path} is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(flag, f"the directory of {path} does not exist")


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
    _check_out_dirs(args, "out", "records")
    settings, topology, _ = _settings(args)
    kb_path = _path(settings, "kb")
    trace_path = _path(settings, "trace")
    mode = settings.get("mode", Mode.SEMANTIC)

    kb = load_knowledge_base(kb_path)
    trace = load_trace(trace_path)
    report, records = run_simulation(topology, kb, trace, mode, settings.get("seed", 0))

    if args.out:
        sink = io.StringIO()
        write_csv([SweepPoint(None, mode, report)], sink)
        _atomic_write(args.out, sink.getvalue())
    if args.records:
        _atomic_write(args.records, "".join(json.dumps(_record_dict(r)) + "\n" for r in records))
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
    _check_out_dirs(args, "out")
    settings, topology, workload = _settings(args)
    kb_path = _path(settings, "kb")
    variable = SweepVariable(args.variable.replace("-", "_"))
    # A user-count sweep varies n_users; the others are named after their key.
    key = "n_users" if variable is SweepVariable.USER_COUNT else variable.value
    values = tuple(_read(key, v, "values") for v in args.values)
    try:
        spec = SweepSpec(variable, values, Scenario(topology, workload), settings.get("seed", 0))
    except ValueError as exc:
        raise ConfigError("values", str(exc)) from None
    points = run_sweep(spec, load_knowledge_base(kb_path))
    if args.out:
        sink = io.StringIO()
        write_csv(points, sink)
        _atomic_write(args.out, sink.getvalue())
    sys.stdout.write(summary_table(points) + "\n")
    return EXIT_OK


def cmd_gen_trace(args: argparse.Namespace) -> int:
    _check_out_dirs(args, "out")
    settings, _, workload = _settings(args)
    trace = generate_trace(load_knowledge_base(_path(settings, "kb")), workload)
    sink = io.StringIO()
    save_trace(trace, sink)
    if args.out:
        _atomic_write(args.out, sink.getvalue())
        sys.stdout.write(f"wrote {len(trace)} requests to {args.out}\n")
    else:
        sys.stdout.write(sink.getvalue())
    return EXIT_OK


def cmd_validate_kb(args: argparse.Namespace) -> int:
    kb = load_knowledge_base(_path(vars(args), "kb"))
    persons = sum(1 for e in kb.entities() if kb.kind_of(e) is EntityKind.PERSON)
    sys.stdout.write(
        f"ok: {len(kb)} entities ({persons} persons, {len(kb) - persons} TV series), "
        f"{kb.triples} triples\n"
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
        try:
            descriptor = MetadataDescriptor(args.iri, _KIND_FLAGS[args.kind])
            header = codec_mod.encode_metadata(descriptor)
        except (ValueError, codec_mod.CodecError) as exc:
            raise ConfigError("iri", str(exc)) from None
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

    def add_settings(p, *keys):
        p.add_argument("--scenario", help="flat YAML scenario file (default: none)")
        for key in ("kb", "seed", "cells", *keys):
            p.add_argument("--" + key.replace("_", "-"), help=SETTINGS[key].help)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    add_settings(p_sim, "trace", "mode", "cache_location", "cache_size", "eviction", "max_prefetch")
    p_sim.add_argument("--out", help="metrics CSV output path")
    p_sim.add_argument("--records", help="per-request JSON-lines output path")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep in both modes")
    add_settings(p_sweep, "cache_location", "cache_size", "n_users", "p_follow")
    p_sweep.add_argument(
        "--variable",
        required=True,
        choices=[v.value.replace("_", "-") for v in SweepVariable],
        help="swept parameter",
    )
    p_sweep.add_argument("--values", nargs="+", required=True, help="sweep values")
    p_sweep.add_argument("--out", help="results CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen-trace", help="generate a synthetic trace CSV")
    add_settings(p_gen, "n_users", "p_follow")
    p_gen.add_argument("--out", help="trace CSV output path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen_trace)

    p_val = sub.add_parser("validate-kb", help="parse and validate a knowledge base file")
    p_val.add_argument("--kb", required=True, help=SETTINGS["kb"].help)
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
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
