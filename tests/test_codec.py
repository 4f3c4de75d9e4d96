import random

import pytest
from hypothesis import given, settings, strategies as st

from semcache.codec import (
    EntityKind,
    HopByHopHeader,
    HopByHopOption,
    MalformedHeader,
    MetadataDescriptor,
    MetadataTooLarge,
    NoMetadataOptions,
    OPT_METADATA,
    OPT_PAD1,
    OPT_PADN,
    UnparseableMetadata,
    _header_size,
    decode_metadata,
    encode_metadata,
    wire_size,
)


def descriptor_with_payload_len(n: int) -> MetadataDescriptor:
    """Descriptor whose canonical serialization is exactly n bytes (n >= 4)."""
    return MetadataDescriptor("x" * (n - 3), EntityKind.OTHER)


# Hand-computed TLV layouts: payload length -> (wire size, metadata options).
# Arithmetic: 2 fixed bytes + 2 TLV bytes per option + data, rounded up to 8.
LAYOUT_TABLE = [
    (4, 8, 1),
    (6, 16, 1),
    (245, 256, 1),
    (253, 264, 1),
    (255, 264, 1),
    (256, 264, 2),
    (510, 520, 2),
    (511, 520, 3),
    (2029, 2048, 8),
    (2030, 2048, 8),
]


class TestEncode:
    @pytest.mark.parametrize("payload_len,expected_wire,expected_opts", LAYOUT_TABLE)
    def test_layout_oracle(self, payload_len, expected_wire, expected_opts):
        d = descriptor_with_payload_len(payload_len)
        header = encode_metadata(d)
        metadata_opts = [o for o in header.options if o.type == OPT_METADATA]
        assert header.wire_size() == expected_wire
        assert len(header.to_bytes()) == expected_wire
        assert len(metadata_opts) == expected_opts
        assert wire_size(d) == expected_wire

    def test_max_payload_fills_header_exactly(self):
        d = descriptor_with_payload_len(2030)
        header = encode_metadata(d)
        assert header.wire_size() == 2048
        opts = [o for o in header.options if o.type == OPT_METADATA]
        assert [len(o.data) for o in opts] == [255] * 7 + [245]
        # No room left, so no padding either.
        assert len(header.options) == 8

    def test_payload_over_capacity_rejected(self):
        d = descriptor_with_payload_len(2031)
        with pytest.raises(MetadataTooLarge):
            encode_metadata(d)
        with pytest.raises(MetadataTooLarge):
            wire_size(d)

    @pytest.mark.parametrize("char", ["x", "é", "€", "😀"])
    def test_header_size_is_a_law_of_the_iri_byte_length(self, char):
        # Filled up with ASCII, an IRI of ``char``s takes every byte length.
        width = len(char.encode("utf-8"))
        for n in range(1, 2028):
            iri = char * (n // width) + "x" * (n % width)
            assert len(iri.encode("utf-8")) == n
            header = encode_metadata(MetadataDescriptor(iri, EntityKind.PERSON))
            assert _header_size(n) == len(header.to_bytes()), n

    def test_header_size_refuses_what_encode_refuses(self):
        message = "serialized descriptor is 2031 bytes, limit is 2030"
        with pytest.raises(MetadataTooLarge, match=f"^{message}$"):
            _header_size(2028)
        with pytest.raises(MetadataTooLarge, match=f"^{message}$"):
            encode_metadata(MetadataDescriptor("é" * 1014, EntityKind.PERSON))

    def test_four_byte_payload_single_unpadded_option(self):
        d = descriptor_with_payload_len(4)
        header = encode_metadata(d)
        assert header.wire_size() == 8
        assert len(header.options) == 1

    def test_empty_iri_rejected(self):
        with pytest.raises(ValueError):
            MetadataDescriptor("", EntityKind.PERSON)

    @pytest.mark.parametrize("char", ["\x00", "\x1f", "\x7f"], ids=["x00", "x1f", "x7f"])
    def test_control_characters_rejected(self, char):
        with pytest.raises(ValueError, match="control characters"):
            MetadataDescriptor(f"wiki/a{char}b", EntityKind.PERSON)

    @pytest.mark.parametrize("char", [" ", "\x80", "ş"], ids=["x20", "x80", "letter"])
    def test_boundary_characters_accepted(self, char):
        iri = f"wiki/a{char}b"
        assert MetadataDescriptor(iri, EntityKind.PERSON).entity_iri == iri

    @pytest.mark.parametrize(
        "iri", [" wiki/A", "wiki/A ", "wiki/A\xa0", "\u3000wiki/A", " "],
        ids=["leading-space", "trailing-space", "trailing-nbsp", "ideographic-space", "space"],
    )
    def test_edge_whitespace_rejected(self, iri):
        # A trace strips its fields, so such an IRI could never be requested.
        with pytest.raises(ValueError, match="begin or end with whitespace"):
            MetadataDescriptor(iri, EntityKind.PERSON)


class TestDecode:
    def test_round_trip_simple(self):
        d = MetadataDescriptor("wiki/Example", EntityKind.PERSON)
        assert decode_metadata(encode_metadata(d)) == d

    def test_padding_only_header(self):
        header = HopByHopHeader(6, (HopByHopOption(OPT_PADN, bytes(4)),))
        with pytest.raises(NoMetadataOptions):
            decode_metadata(header)

    def test_two_option_concatenation(self):
        # 355-byte record split 255 + 100; oracle is plain byte concatenation.
        d = descriptor_with_payload_len(355)
        payload = d.to_bytes()
        header = HopByHopHeader(
            6,
            (
                HopByHopOption(OPT_METADATA, payload[:255]),
                HopByHopOption(OPT_METADATA, payload[255:]),
                # raw size 361, so a 7-byte PadN reaches the 8-byte boundary
                HopByHopOption(OPT_PADN, bytes(5)),
            ),
        )
        assert b"".join(
            o.data for o in header.options if o.type == OPT_METADATA
        ) == payload
        assert decode_metadata(header) == d

    def test_length_field_mismatch(self):
        d = MetadataDescriptor("wiki/Example", EntityKind.PERSON)
        payload = bytearray(d.to_bytes())
        payload[2] += 1  # declared IRI length no longer matches
        # 15 payload bytes -> raw 19, padded to 24 with a 5-byte PadN.
        header = HopByHopHeader(
            6,
            (
                HopByHopOption(OPT_METADATA, bytes(payload)),
                HopByHopOption(OPT_PADN, bytes(3)),
            ),
        )
        with pytest.raises(UnparseableMetadata):
            decode_metadata(header)

    @pytest.mark.parametrize("n", [3, 2031])
    def test_record_length_out_of_range(self, n):
        raw = bytes([EntityKind.OTHER.value]) + (n - 3).to_bytes(2, "big") + b"x" * (n - 3)
        with pytest.raises(UnparseableMetadata, match="too (short|long)"):
            MetadataDescriptor.from_bytes(raw)

    def test_longest_record_parses(self):
        d = descriptor_with_payload_len(2030)
        assert MetadataDescriptor.from_bytes(d.to_bytes()) == d

    @pytest.mark.parametrize(
        "iri, match",
        [(b"\xff\xfe", "not valid UTF-8"), (b"a\x01", "control characters")],
        ids=["non-utf8", "control-char"],
    )
    def test_unacceptable_iri_bytes(self, iri, match):
        raw = bytes([EntityKind.OTHER.value]) + len(iri).to_bytes(2, "big") + iri
        with pytest.raises(UnparseableMetadata, match=match):
            MetadataDescriptor.from_bytes(raw)

    def test_unknown_kind_byte(self):
        raw = bytes([0x7F]) + (5).to_bytes(2, "big") + b"abcde"
        with pytest.raises(UnparseableMetadata):
            MetadataDescriptor.from_bytes(raw)


class TestWireFormat:
    def test_bytes_round_trip(self):
        d = descriptor_with_payload_len(300)
        header = encode_metadata(d)
        assert HopByHopHeader.from_bytes(header.to_bytes()) == header

    def test_hdr_ext_len_units(self):
        header = encode_metadata(descriptor_with_payload_len(2030))
        assert 8 * (header.hdr_ext_len + 1) == 2048

    def test_truncated_buffer(self):
        wire = encode_metadata(descriptor_with_payload_len(300)).to_bytes()
        with pytest.raises(MalformedHeader):
            HopByHopHeader.from_bytes(wire[:-4])

    def test_inconsistent_tlv_length(self):
        wire = bytearray(encode_metadata(descriptor_with_payload_len(20)).to_bytes())
        wire[3] = 200  # option claims more data than the buffer holds
        with pytest.raises(MalformedHeader):
            HopByHopHeader.from_bytes(bytes(wire))

    @pytest.mark.parametrize(
        "opt_type, data, match",
        [(256, b"", "option type out of range"), (OPT_PADN, bytes(256), "exceeds 255")],
    )
    def test_invalid_option(self, opt_type, data, match):
        with pytest.raises(ValueError, match=match):
            HopByHopOption(opt_type, data)

    def test_largest_option_type_accepted(self):
        assert HopByHopOption(0xFF, b"").type == 0xFF

    def test_header_size_not_multiple_of_8(self):
        # 2 fixed + 2 TLV + 5 data = 9 bytes.
        with pytest.raises(ValueError, match="not a multiple of 8"):
            HopByHopHeader(6, (HopByHopOption(OPT_METADATA, bytes(5)),))

    def test_header_over_2048_bytes(self):
        # 2 fixed + 8 x (2 + 255) + a 6-byte PadN = 2,064 bytes.
        options = (HopByHopOption(OPT_METADATA, bytes(255)),) * 8
        with pytest.raises(ValueError, match="2064 exceeds 2048"):
            HopByHopHeader(6, options + (HopByHopOption(OPT_PADN, bytes(4)),))

    def test_truncated_option(self):
        # Five Pad1 bytes, then a type byte in the last octet with no length byte.
        wire = bytes([6, 0]) + bytes([OPT_PAD1]) * 5 + bytes([OPT_METADATA])
        with pytest.raises(MalformedHeader, match="missing length byte"):
            HopByHopHeader.from_bytes(wire)

    def test_pad1_parsing(self):
        # 2 fixed + 1 TLV option of 3 data bytes = 7, plus one Pad1 byte = 8.
        payload = bytes([EntityKind.OTHER.value]) + (0).to_bytes(2, "big")
        wire = bytes([6, 0, OPT_METADATA, 3]) + payload + bytes([OPT_PAD1])
        header = HopByHopHeader.from_bytes(wire)
        assert header.wire_size() == 8
        assert header.options[-1].type == OPT_PAD1


iris = st.text(min_size=1, max_size=400).filter(
    lambda s: all(ord(c) >= 0x20 and ord(c) != 0x7F for c in s)
    and not (s[0].isspace() or s[-1].isspace())
    and len(s.encode("utf-8")) <= 2027
)


class TestProperties:
    @given(iri=iris, kind=st.sampled_from(list(EntityKind)))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, iri, kind):
        d = MetadataDescriptor(iri, kind)
        assert decode_metadata(encode_metadata(d)) == d

    @given(iri=iris, kind=st.sampled_from(list(EntityKind)))
    @settings(max_examples=300, deadline=None)
    def test_size_law(self, iri, kind):
        d = MetadataDescriptor(iri, kind)
        header = encode_metadata(d)
        size = header.wire_size()
        assert size % 8 == 0
        assert size <= 2048
        assert size == wire_size(d)
        assert size == len(header.to_bytes())

    @given(iri=iris, kind=st.sampled_from(list(EntityKind)))
    @settings(max_examples=200, deadline=None)
    def test_option_bound(self, iri, kind):
        header = encode_metadata(MetadataDescriptor(iri, kind))
        assert all(len(o.data) <= 255 for o in header.options)

    def test_injective_serialization(self):
        rng = random.Random(13)
        seen = {}
        for _ in range(2000):
            iri = "wiki/" + "".join(rng.choice("abcdef/") for _ in range(rng.randint(1, 60)))
            kind = rng.choice(list(EntityKind))
            d = MetadataDescriptor(iri, kind)
            raw = d.to_bytes()
            assert seen.setdefault(raw, d) == d
