"""Wire codec for request metadata carried in IPv6 hop-by-hop options.

A request is described by a :class:`MetadataDescriptor` (entity identifier
plus a coarse kind).  Its canonical serialization is a small binary record:

    kind byte | iri length (u16, big endian) | iri bytes (UTF-8)

The record is split into TLV options of at most 255 data bytes each and
wrapped in a hop-by-hop extension header whose total size is a multiple of
8 octets and never exceeds 2048 bytes, leaving room for at most 2030 bytes
of metadata (7 full options of 255 bytes plus one of 245).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

# Header size limits.
MAX_HEADER_BYTES = 2048
MAX_METADATA_BYTES = 2030
MAX_OPTION_DATA = 255

# Option type codes.  0x1E is an experimental option whose high-order bits
# tell non-participating routers to skip it.
OPT_METADATA = 0x1E
OPT_PAD1 = 0x00
OPT_PADN = 0x01

# Default value for the next-header field (TCP).
DEFAULT_NEXT_HEADER = 6

_FIXED_BYTES = 2  # next_header + hdr_ext_len
_TLV_OVERHEAD = 2  # option type + option length


class CodecError(Exception):
    """Base class for codec failures."""


class MetadataTooLarge(CodecError):
    """Canonical serialization exceeds the 2030-byte metadata capacity."""


class MalformedHeader(CodecError):
    """Header bytes are inconsistent with the TLV framing rules."""


class NoMetadataOptions(CodecError):
    """Header contains only padding options."""


class UnparseableMetadata(CodecError):
    """Concatenated option data is not a canonical metadata record."""


class EntityKind(enum.Enum):
    PERSON = 0x01
    TV_SERIES = 0x02
    OTHER = 0x03


_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


def _check_iri(iri: str) -> None:
    if not iri:
        raise ValueError("entity_iri must be non-empty")
    if _CONTROL.search(iri):
        raise ValueError("entity_iri must not contain control characters")


def _record_len(iri_len: int) -> int:
    """Length of the canonical record for an IRI of ``iri_len`` UTF-8 bytes."""
    if 3 + iri_len > MAX_METADATA_BYTES:
        raise MetadataTooLarge(
            f"serialized descriptor is {3 + iri_len} bytes, limit is {MAX_METADATA_BYTES}"
        )
    return 3 + iri_len


@dataclass(frozen=True, slots=True)
class MetadataDescriptor:
    """Canonical semantic description of a request."""

    entity_iri: str
    entity_kind: EntityKind

    def __post_init__(self) -> None:
        _check_iri(self.entity_iri)

    def to_bytes(self) -> bytes:
        iri = self.entity_iri.encode("utf-8")
        _record_len(len(iri))
        return bytes([self.entity_kind.value]) + len(iri).to_bytes(2, "big") + iri

    @classmethod
    def from_bytes(cls, data: bytes) -> "MetadataDescriptor":
        if len(data) < 4:
            raise UnparseableMetadata(f"record too short: {len(data)} bytes")
        if len(data) > MAX_METADATA_BYTES:
            raise UnparseableMetadata(f"record too long: {len(data)} bytes")
        try:
            kind = EntityKind(data[0])
        except ValueError:
            raise UnparseableMetadata(f"unknown kind byte 0x{data[0]:02x}") from None
        declared = int.from_bytes(data[1:3], "big")
        iri_bytes = data[3:]
        if declared != len(iri_bytes):
            raise UnparseableMetadata(
                f"length field says {declared} IRI bytes, got {len(iri_bytes)}"
            )
        try:
            iri = iri_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnparseableMetadata(f"IRI is not valid UTF-8: {exc}") from None
        try:
            return cls(iri, kind)
        except ValueError as exc:
            raise UnparseableMetadata(str(exc)) from None


@dataclass(frozen=True)
class HopByHopOption:
    type: int
    data: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.type <= 0xFF:
            raise ValueError(f"option type out of range: {self.type}")
        if len(self.data) > MAX_OPTION_DATA:
            raise ValueError(f"option data exceeds {MAX_OPTION_DATA} bytes")


@dataclass(frozen=True)
class HopByHopHeader:
    """IPv6 hop-by-hop options extension header (RFC 8200 framing)."""

    next_header: int
    options: tuple[HopByHopOption, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        size = self.wire_size()
        if size % 8 != 0:
            raise ValueError(f"header size {size} is not a multiple of 8")
        if size > MAX_HEADER_BYTES:
            raise ValueError(f"header size {size} exceeds {MAX_HEADER_BYTES}")

    @property
    def hdr_ext_len(self) -> int:
        return self.wire_size() // 8 - 1

    def wire_size(self) -> int:
        size = _FIXED_BYTES
        for opt in self.options:
            if opt.type == OPT_PAD1:
                size += 1  # Pad1 is a single type byte, no length field
            else:
                size += _TLV_OVERHEAD + len(opt.data)
        return size

    def to_bytes(self) -> bytes:
        out = bytearray([self.next_header, self.hdr_ext_len])
        for opt in self.options:
            if opt.type == OPT_PAD1:
                out.append(OPT_PAD1)
            else:
                out.append(opt.type)
                out.append(len(opt.data))
                out.extend(opt.data)
        return bytes(out)

    @classmethod
    def from_bytes(cls, wire: bytes) -> "HopByHopHeader":
        if len(wire) < 8:
            raise MalformedHeader(f"header must be at least 8 bytes, got {len(wire)}")
        declared = 8 * (wire[1] + 1)
        if declared != len(wire):
            raise MalformedHeader(
                f"hdr_ext_len implies {declared} bytes, buffer has {len(wire)}"
            )
        options = []
        pos = 2
        while pos < len(wire):
            opt_type = wire[pos]
            if opt_type == OPT_PAD1:
                options.append(HopByHopOption(OPT_PAD1, b""))
                pos += 1
                continue
            if pos + 1 >= len(wire):
                raise MalformedHeader("truncated option: missing length byte")
            opt_len = wire[pos + 1]
            data = wire[pos + 2 : pos + 2 + opt_len]
            if len(data) != opt_len:
                raise MalformedHeader(
                    f"option at offset {pos} declares {opt_len} data bytes, "
                    f"only {len(data)} remain"
                )
            options.append(HopByHopOption(opt_type, data))
            pos += 2 + opt_len
        return cls(wire[0], tuple(options))


def _unpadded_size(payload_len: int) -> int:
    """Header bytes before padding when a record of ``payload_len`` bytes is
    split into options of at most 255 data bytes."""
    n_options = -(-payload_len // MAX_OPTION_DATA)
    return _FIXED_BYTES + n_options * _TLV_OVERHEAD + payload_len


def encode_metadata(descriptor: MetadataDescriptor) -> HopByHopHeader:
    """Build a hop-by-hop header carrying the descriptor's canonical record.

    The record is split greedily into 255-byte options; a Pad1 or PadN option
    brings the header to an 8-octet boundary.
    """
    payload = descriptor.to_bytes()
    options = [
        HopByHopOption(OPT_METADATA, payload[i : i + MAX_OPTION_DATA])
        for i in range(0, len(payload), MAX_OPTION_DATA)
    ]
    pad = -_unpadded_size(len(payload)) % 8
    if pad == 1:
        options.append(HopByHopOption(OPT_PAD1, b""))
    elif pad:
        options.append(HopByHopOption(OPT_PADN, bytes(pad - 2)))
    return HopByHopHeader(DEFAULT_NEXT_HEADER, tuple(options))


def decode_metadata(header: HopByHopHeader) -> MetadataDescriptor:
    """Recover the descriptor from a header, skipping padding options."""
    chunks = [opt.data for opt in header.options if opt.type == OPT_METADATA]
    if not chunks:
        raise NoMetadataOptions("header carries no metadata options")
    return MetadataDescriptor.from_bytes(b"".join(chunks))


def _header_size(iri_len: int) -> int:
    """Wire size of the header carrying a descriptor whose IRI is ``iri_len``
    UTF-8 bytes long: the size depends on that length alone."""
    raw = _unpadded_size(_record_len(iri_len))
    return raw + (-raw % 8)


def wire_size(descriptor: MetadataDescriptor) -> int:
    """Exact wire size of ``encode_metadata(descriptor)`` without building it."""
    return _header_size(len(descriptor.entity_iri.encode("utf-8")))
