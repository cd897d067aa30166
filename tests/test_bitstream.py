"""Wire-format tests: lossless round-trips and total, garbage-free parsing.

Two properties lock the bitstream down:

* **round-trip** -- ``parse(serialize(x)) == x`` for every compressed
  waveform/library, and ``serialize(parse(b)) == b`` for every stream
  the serializer produced (canonical encoding);
* **totality** -- malformed bytes (truncation, bad magic, unknown tags,
  runs overflowing the window, trailing garbage, random fuzz) raise
  :class:`~repro.errors.CompressionError`; the parser never emits
  garbage samples or any other exception type.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.compression import (
    compress_waveform,
    decompress_waveform,
    parse_library,
    parse_waveform,
    serialize_library,
    serialize_waveform,
)
from repro.compression.bitstream import (
    LIBRARY_MAGIC,
    WAVEFORM_MAGIC,
    LibraryBitstream,
    LibraryEntry,
)
from repro.compression.pipeline import CompressedChannel, CompressedWaveform
from repro.core import CompaqtCompiler, CompressedPulseLibrary
from repro.devices import ibm_device
from repro.microarch import DecompressionPipeline
from repro.pulses import Waveform
from repro.transforms.rle import EncodedWindow


def _make_waveform(n=40, name="wf", gate="x", qubits=(0,)):
    t = np.linspace(0, 1, n)
    samples = 0.6 * np.exp(-(((t - 0.5) / 0.2) ** 2)) * (1 + 0.4j)
    return Waveform(name, samples, dt=1e-9, gate=gate, qubits=qubits)


def _compressed(n=40, variant="int-DCT-W", window_size=16, **kwargs):
    return compress_waveform(
        _make_waveform(n, **kwargs), window_size=window_size, codec=variant
    ).compressed


def _single_window_waveform(coeffs, zero_run, window_size=16):
    """Build a CompressedWaveform around one hand-made window pair."""
    window = EncodedWindow(coeffs=tuple(coeffs), zero_run=zero_run)
    channel = CompressedChannel(
        windows=(window,),
        variant="int-DCT-W",
        window_size=window_size,
        original_length=window_size,
    )
    return CompressedWaveform(
        name="w", gate="x", qubits=(0,), dt=1e-9, i_channel=channel,
        q_channel=channel,
    )


#: Every registered codec name.
ALL_VARIANTS = ("DCT-N", "DCT-W", "int-DCT-W", "delta", "dictionary")


class TestWaveformRoundTrip:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("window_size", (8, 16, 32))
    def test_lossless_and_canonical(self, variant, window_size):
        compressed = _compressed(variant=variant, window_size=window_size)
        blob = serialize_waveform(compressed)
        assert blob.startswith(WAVEFORM_MAGIC)
        parsed = parse_waveform(blob)
        assert parsed == compressed
        assert serialize_waveform(parsed) == blob

    def test_decode_after_round_trip_bit_identical(self):
        compressed = _compressed()
        parsed = parse_waveform(serialize_waveform(compressed))
        np.testing.assert_array_equal(
            decompress_waveform(parsed).samples,
            decompress_waveform(compressed).samples,
        )

    def test_binding_preserved(self):
        compressed = _compressed(
            name="cx_q3_q7", gate="cx", qubits=(3, 7)
        )
        parsed = parse_waveform(serialize_waveform(compressed))
        assert parsed.name == "cx_q3_q7"
        assert parsed.gate == "cx"
        assert parsed.qubits == (3, 7)
        assert parsed.dt == compressed.dt

    @given(
        n=st.integers(min_value=1, max_value=120),
        threshold=st.integers(min_value=0, max_value=2000),
        variant=st.sampled_from(ALL_VARIANTS),
        window_size=st.sampled_from((8, 16, 32)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fuzz_round_trip(self, n, threshold, variant, window_size, seed):
        rng = np.random.default_rng(seed)
        samples = 0.65 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        waveform = Waveform("fuzz", samples / max(1.0, np.max(np.abs(samples))),
                            dt=1e-9, gate="x", qubits=(0,))
        compressed = compress_waveform(
            waveform, window_size=window_size, codec=variant,
            threshold=threshold,
        ).compressed
        blob = serialize_waveform(compressed)
        parsed = parse_waveform(blob)
        assert parsed == compressed
        assert serialize_waveform(parsed) == blob
        np.testing.assert_array_equal(
            decompress_waveform(parsed).samples,
            decompress_waveform(compressed).samples,
        )


class TestLibraryRoundTrip:
    @pytest.fixture(scope="class")
    def compiled(self):
        return CompaqtCompiler(window_size=16).compile_library(
            ibm_device("bogota").pulse_library()
        )

    def test_library_lossless_and_canonical(self, compiled):
        blob = compiled.to_bytes()
        assert blob.startswith(LIBRARY_MAGIC)
        assert serialize_library(parse_library(blob)) == blob
        loaded = CompressedPulseLibrary.from_bytes(blob)
        assert loaded.device_name == compiled.device_name
        assert loaded.window_size == compiled.window_size
        assert loaded.variant == compiled.variant
        assert set(loaded.keys()) == set(compiled.keys())
        for key in compiled.keys():
            original = compiled.result(*key)
            twin = loaded.result(*key)
            assert twin.compressed == original.compressed
            assert twin.mse == original.mse
            assert twin.threshold == original.threshold
            np.testing.assert_array_equal(
                twin.reconstructed.samples, original.reconstructed.samples
            )

    def test_save_load_file(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "bogota.cqt")
        loaded = CompaqtCompiler.load_library(path)
        assert loaded.to_bytes() == compiled.to_bytes()
        assert loaded.overall_ratio == compiled.overall_ratio

    def test_empty_library_round_trips(self):
        stream = LibraryBitstream(
            device_name="empty", window_size=16, variant="int-DCT-W", entries=()
        )
        blob = serialize_library(stream)
        assert parse_library(blob) == stream
        assert serialize_library(parse_library(blob)) == blob

    def test_entry_metrics_are_exact_float64(self):
        compressed = _compressed()
        entry = LibraryEntry(
            gate="x", qubits=(0,), mse=1.2345678912345e-7,
            threshold=128.5, compressed=compressed,
        )
        stream = LibraryBitstream(
            device_name="d", window_size=16, variant="int-DCT-W",
            entries=(entry,),
        )
        parsed = parse_library(serialize_library(stream))
        assert parsed.entries[0].mse == entry.mse
        assert parsed.entries[0].threshold == entry.threshold


class TestMicroarchConsumesBitstreams:
    def test_stream_bitstream_bit_identical(self):
        compressed = _compressed()
        report = DecompressionPipeline(16).stream_bitstream(
            serialize_waveform(compressed)
        )
        reference = decompress_waveform(compressed)
        i_codes, q_codes = reference.to_fixed_point()
        np.testing.assert_array_equal(report.i_samples, i_codes.astype(np.int64))
        np.testing.assert_array_equal(report.q_samples, q_codes.astype(np.int64))

    def test_stream_bitstream_rejects_garbage(self):
        with pytest.raises(CompressionError):
            DecompressionPipeline(16).stream_bitstream(b"not a bitstream")


class TestMalformedInputs:
    """Every corruption raises CompressionError -- never garbage samples."""

    def test_truncated_stream_every_prefix(self):
        blob = serialize_waveform(_compressed(n=24))
        for cut in range(len(blob)):
            with pytest.raises(CompressionError):
                parse_waveform(blob[:cut])

    def test_truncated_library(self):
        blob = CompaqtCompiler().compile_library(
            ibm_device("bogota").pulse_library()
        ).to_bytes()
        for cut in (0, 3, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CompressionError):
                parse_library(blob[:cut])

    def test_trailing_garbage_rejected(self):
        blob = serialize_waveform(_compressed())
        with pytest.raises(CompressionError, match="trailing"):
            parse_waveform(blob + b"\x00")
        lib_blob = serialize_library(
            LibraryBitstream("d", 16, "int-DCT-W", ())
        )
        with pytest.raises(CompressionError, match="trailing"):
            parse_library(lib_blob + b"junk")

    def test_bad_magic(self):
        blob = serialize_waveform(_compressed())
        with pytest.raises(CompressionError, match="magic"):
            parse_waveform(b"XXXX" + blob[4:])
        with pytest.raises(CompressionError, match="magic"):
            parse_library(b"XXXX" + blob[4:])

    def test_magic_confusion_rejected(self):
        """A waveform record is not a library container and vice versa."""
        waveform_blob = serialize_waveform(_compressed())
        with pytest.raises(CompressionError):
            parse_library(waveform_blob)
        library_blob = serialize_library(
            LibraryBitstream("d", 16, "int-DCT-W", ())
        )
        with pytest.raises(CompressionError):
            parse_waveform(library_blob)

    def test_bad_variant_id(self):
        blob = bytearray(serialize_waveform(_compressed()))
        blob[4] = 0x7F
        with pytest.raises(CompressionError, match="variant"):
            parse_waveform(bytes(blob))

    def test_reserved_flags_rejected(self):
        blob = bytearray(serialize_waveform(_compressed()))
        blob[5] = 0x01
        with pytest.raises(CompressionError, match="flags"):
            parse_waveform(bytes(blob))

    # -- word-level corruptions ------------------------------------------

    @staticmethod
    def _patch_word(blob: bytes, old_word: int, new_word: int) -> bytes:
        needle = struct.pack("<I", old_word)
        index = blob.index(needle)
        return blob[:index] + struct.pack("<I", new_word) + blob[index + 4 :]

    def test_unknown_tag_rejected(self):
        # One window: coefficient 9999, then a 15-zero run codeword.
        blob = serialize_waveform(_single_window_waveform((9999,), 15))
        for bad_tag in (2, 3):  # repeat / undefined
            patched = self._patch_word(blob, 9999, (bad_tag << 16) | 9999)
            with pytest.raises(CompressionError, match="tag"):
                parse_waveform(patched)

    def test_reserved_word_bits_rejected(self):
        blob = serialize_waveform(_single_window_waveform((9999,), 15))
        patched = self._patch_word(blob, 9999, (1 << 20) | 9999)
        with pytest.raises(CompressionError, match="reserved"):
            parse_waveform(patched)

    def test_run_overflowing_window_rejected(self):
        blob = serialize_waveform(_single_window_waveform((9999,), 15))
        run_word = (1 << 16) | 15
        patched = self._patch_word(blob, run_word, (1 << 16) | 0xFFFF)
        with pytest.raises(CompressionError, match="decodes to"):
            parse_waveform(patched)

    def test_run_underfilling_window_rejected(self):
        blob = serialize_waveform(_single_window_waveform((9999,), 15))
        run_word = (1 << 16) | 15
        patched = self._patch_word(blob, run_word, (1 << 16) | 3)
        with pytest.raises(CompressionError, match="decodes to"):
            parse_waveform(patched)

    def test_empty_zero_run_rejected(self):
        blob = serialize_waveform(_single_window_waveform((9999,), 15))
        run_word = (1 << 16) | 15
        patched = self._patch_word(blob, run_word, 1 << 16)
        with pytest.raises(CompressionError):
            parse_waveform(patched)

    def test_word_after_codeword_rejected(self):
        # Stream [coeff 9999, coeff 7777, run 14]; turning the first
        # coefficient into a 14-run leaves payload after the codeword.
        blob = serialize_waveform(_single_window_waveform((9999, 7777), 14))
        patched = self._patch_word(blob, 9999, (1 << 16) | 14)
        with pytest.raises(CompressionError, match="codeword"):
            parse_waveform(patched)

    def test_serializer_validations(self):
        oversized = _single_window_waveform((70000,), 15)
        with pytest.raises(CompressionError, match="16-bit"):
            serialize_waveform(oversized)

    def test_mixed_channel_variants_rejected_at_serialize(self):
        """A record stores one variant id; channels that disagree would
        silently decode the Q channel through the wrong inverse."""
        base = _single_window_waveform((9999,), 15)
        mixed = CompressedWaveform(
            name="w", gate="x", qubits=(0,), dt=1e-9,
            i_channel=base.i_channel,
            q_channel=CompressedChannel(
                windows=base.q_channel.windows,
                variant="DCT-W",
                window_size=base.q_channel.window_size,
                original_length=base.q_channel.original_length,
            ),
        )
        with pytest.raises(CompressionError, match="variant"):
            serialize_waveform(mixed)

    def test_entry_variant_mismatch_fails_at_save(self):
        """A container is single-variant; saving a stray entry must fail
        immediately, not produce bytes that can never load."""
        compressed = _compressed(variant="DCT-W")
        stream = LibraryBitstream(
            device_name="d", window_size=16, variant="int-DCT-W",
            entries=(
                LibraryEntry(
                    gate="x", qubits=(0,), mse=0.0, threshold=128.0,
                    compressed=compressed,
                ),
            ),
        )
        with pytest.raises(CompressionError, match="container variant"):
            serialize_library(stream)

    def test_entry_binding_mismatch_rejected_both_ways(self):
        compressed = _compressed(gate="x", qubits=(0,))
        stream = LibraryBitstream(
            device_name="d", window_size=16, variant="int-DCT-W",
            entries=(
                LibraryEntry(
                    gate="sx", qubits=(0,), mse=0.0, threshold=128.0,
                    compressed=compressed,
                ),
            ),
        )
        with pytest.raises(CompressionError, match="binding"):
            serialize_library(stream)
        # A foreign stream where the duplicated binding disagrees with
        # the embedded record must not parse into inconsistent metadata.
        good = serialize_library(
            LibraryBitstream(
                device_name="d", window_size=16, variant="int-DCT-W",
                entries=(
                    LibraryEntry(
                        gate="x", qubits=(0,), mse=0.0, threshold=128.0,
                        compressed=compressed,
                    ),
                ),
            )
        )
        # Entry gate "x" appears (length-prefixed) after the u32 entry
        # count; patch that first occurrence to "y".
        header_end = good.index(b"\x01\x00x") + 2
        patched = good[:header_end] + b"y" + good[header_end + 1 :]
        with pytest.raises(CompressionError, match="binding"):
            parse_library(patched)

#: Golden blobs produced by the pre-registry (v1, DCT-only) serializer.
#: The codec-id allocation must keep these parsing byte-for-byte: ids
#: 0..2 are frozen, and re-serializing must reproduce the exact bytes.
_GOLDEN_V1_WAVEFORM = bytes.fromhex(
    "435157310200100000000600676f6c64656e01007801000095d626e80b2e113e"
    "1c000000020000000400b0040000f9ff0000030000000d000100030000800000"
    "ff7f00000e0001001c000000020000000400b0040000f9ff0000030000000d00"
    "0100030000800000ff7f00000e000100"
)
_GOLDEN_V1_LIBRARY = bytes.fromhex(
    "43514c310200100000000900676f6c64656e64657601000000010078010000"
    "8dedb5a0f7c6803e00000000000060407000000043515731020010000000"
    "0600676f6c64656e01007801000095d626e80b2e113e1c0000000200000004"
    "00b0040000f9ff0000030000000d000100030000800000ff7f00000e000100"
    "1c000000020000000400b0040000f9ff0000030000000d000100030000"
    "800000ff7f00000e000100"
)
_GOLDEN_V1_DCT_N = bytes.fromhex(
    "435157310000100000000200673202007378020100020095d626e80b2ef13d"
    "10000000010000000400b0040000f9ff0000030000000d0001001000000001"
    "0000000400b0040000f9ff0000030000000d000100"
)
_GOLDEN_V1_DCT_W = bytes.fromhex(
    "435157310100100000000200673202007378020100020095d626e80b2ef13d"
    "10000000010000000400b0040000f9ff0000030000000d0001001000000001"
    "0000000400b0040000f9ff0000030000000d000100"
)


class TestGoldenV1Compatibility:
    """Pre-registry bitstreams must survive the codec-id reallocation."""

    def test_waveform_fields_decode_identically(self):
        parsed = parse_waveform(_GOLDEN_V1_WAVEFORM)
        assert parsed.variant == "int-DCT-W"
        assert parsed.window_size == 16
        assert parsed.name == "golden"
        assert parsed.gate == "x"
        assert parsed.qubits == (0,)
        assert parsed.dt == 1e-9
        assert parsed.i_channel.original_length == 28
        assert parsed.i_channel.windows == (
            EncodedWindow(coeffs=(1200, -7, 3), zero_run=13),
            EncodedWindow(coeffs=(-32768, 32767), zero_run=14),
        )
        assert parsed.q_channel == parsed.i_channel

    @pytest.mark.parametrize(
        "blob, variant",
        [
            (_GOLDEN_V1_WAVEFORM, "int-DCT-W"),
            (_GOLDEN_V1_DCT_N, "DCT-N"),
            (_GOLDEN_V1_DCT_W, "DCT-W"),
        ],
    )
    def test_waveform_reserializes_byte_for_byte(self, blob, variant):
        parsed = parse_waveform(blob)
        assert parsed.variant == variant
        assert serialize_waveform(parsed) == blob

    def test_library_reserializes_byte_for_byte(self):
        parsed = parse_library(_GOLDEN_V1_LIBRARY)
        assert parsed.device_name == "goldendev"
        assert parsed.variant == "int-DCT-W"
        assert parsed.window_size == 16
        assert len(parsed.entries) == 1
        assert parsed.entries[0].mse == 1.25e-07
        assert parsed.entries[0].threshold == 128.0
        assert serialize_library(parsed) == _GOLDEN_V1_LIBRARY

    def test_golden_decode_matches_functional_codec(self):
        from repro.compression.pipeline import decompress_channel

        parsed = parse_waveform(_GOLDEN_V1_WAVEFORM)
        report = DecompressionPipeline(16).stream_bitstream(_GOLDEN_V1_WAVEFORM)
        np.testing.assert_array_equal(
            report.i_samples, decompress_channel(parsed.i_channel)
        )
        np.testing.assert_array_equal(
            report.q_samples, decompress_channel(parsed.q_channel)
        )

    @given(
        index=st.integers(min_value=0, max_value=10**6),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=120, deadline=None)
    def test_golden_bytes_corruption_fuzz(self, index, flip):
        """Any single-byte corruption of a v1 stream either still parses
        (a flipped payload bit is a legal stream) or raises
        CompressionError -- never garbage or another exception type."""
        blob = bytearray(_GOLDEN_V1_WAVEFORM)
        blob[index % len(blob)] ^= flip
        try:
            parse_waveform(bytes(blob))
        except CompressionError:
            pass


class TestNewCodecStreams:
    """The reallocated codec ids round-trip the promoted codecs."""

    @pytest.mark.parametrize(
        "variant, wire_id", [("delta", 3), ("dictionary", 4)]
    )
    def test_codec_id_on_the_wire(self, variant, wire_id):
        blob = serialize_waveform(_compressed(variant=variant))
        assert blob[:4] == WAVEFORM_MAGIC
        assert blob[4] == wire_id
        assert blob[5] == 0  # flags stay reserved

    def test_dictionary_windows_carry_entry_slot(self):
        """A dictionary window decodes to window_size + 1 slots."""
        compressed = _compressed(n=32, variant="dictionary", window_size=16)
        parsed = parse_waveform(serialize_waveform(compressed))
        for window in parsed.i_channel.windows:
            assert len(window.coeffs) + window.zero_run == 17

    def test_unknown_codec_id_rejected(self):
        blob = bytearray(serialize_waveform(_compressed(variant="delta")))
        blob[4] = 0x7E
        with pytest.raises(CompressionError, match="variant id"):
            parse_waveform(bytes(blob))


class TestMalformedFuzz:
    @given(data=st.binary(max_size=300))
    @settings(max_examples=120, deadline=None)
    def test_random_bytes_never_crash(self, data):
        """Fuzz totality: arbitrary bytes either parse (practically
        impossible) or raise CompressionError -- nothing else."""
        for parser in (parse_waveform, parse_library):
            try:
                parser(data)
            except CompressionError:
                pass

    @given(cut=st.integers(min_value=0, max_value=10**6), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bitflip_fuzz(self, cut, seed):
        """Single corrupted byte in a valid stream: parse must either
        reject it or decode without crashing (a flipped coefficient bit
        can still be a valid stream -- but never an undefined error)."""
        blob = bytearray(serialize_waveform(_compressed(n=24)))
        rng = np.random.default_rng(seed)
        index = cut % len(blob)
        blob[index] ^= int(rng.integers(1, 256))
        try:
            parse_waveform(bytes(blob))
        except CompressionError:
            pass
