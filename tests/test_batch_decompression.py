"""Cross-layer decode conformance: scalar, batched, and cycle-level.

COMPAQT's guarantees only hold if every decode path plays back exactly
what the compiler stored.  These tests hold the three implementations --
the scalar reference (`decompress_channel` / `decompress_waveform`), the
vectorized decoder's in-memory front door (`decompress_batch`, the same
engine `fastpath.decode_records` runs on record bytes), and the
cycle-level microarchitecture (`DecompressionPipeline`) -- bit-identical
across random waveforms, thresholds, window sizes and all pipeline
variants, and hold the front door to rejecting exactly the malformed
channels the scalar reference rejects.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.compression import (
    compress_batch,
    compress_waveform,
    decompress_batch,
)
from repro.compression import batch as batch_module
from repro.compression.batch import finish_samples
from repro.compression.pipeline import (
    CompressedChannel,
    CompressedWaveform,
    decompress_channel,
    decompress_waveform,
)
from repro.transforms.rle import EncodedWindow
from repro.core import CompaqtCompiler
from repro.devices import google_device, ibm_device
from repro.microarch import DecompressionPipeline
from repro.pulses import Waveform

WINDOW_SIZES = (8, 16, 32)
#: Every registered codec: the Table II DCT family plus the promoted
#: delta and dictionary baselines.
CODECS = ("DCT-N", "DCT-W", "int-DCT-W", "delta", "dictionary")
#: Windowed codecs (everything but the full-frame DCT-N).
WINDOWED_VARIANTS = ("DCT-W", "int-DCT-W", "delta", "dictionary")
#: Variants the cycle-level hardware model supports (its RLE decoder
#: and IDCT engine are fixed-size DCT units; DCT-N has no fixed-size
#: engine and delta/dictionary have no IDCT at all).
MICROARCH_VARIANTS = ("DCT-W", "int-DCT-W")


@st.composite
def waveforms(draw, min_size=1, max_size=96):
    """Random I/Q envelopes with |samples| <= ~0.99."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    channel = st.lists(
        st.floats(
            min_value=-0.70, max_value=0.70, allow_nan=False, allow_infinity=False
        ),
        min_size=n,
        max_size=n,
    )
    i = np.asarray(draw(channel))
    q = np.asarray(draw(channel))
    return Waveform("fuzz", i + 1j * q, dt=1e-9, gate="x", qubits=(0,))


thresholds = st.integers(min_value=0, max_value=2000)


def _assert_three_way_identical(compressed, check_microarch: bool) -> None:
    """Scalar, batched, and (optionally) cycle-level decode all agree."""
    scalar_i = decompress_channel(compressed.i_channel)
    scalar_q = decompress_channel(compressed.q_channel)
    reference = decompress_waveform(compressed)
    (batched_wf,) = decompress_batch([compressed])
    assert batched_wf.name == reference.name
    np.testing.assert_array_equal(batched_wf.samples, reference.samples)

    if check_microarch:
        report = DecompressionPipeline(16).stream(compressed)
        np.testing.assert_array_equal(report.i_samples, scalar_i)
        np.testing.assert_array_equal(report.q_samples, scalar_q)


class TestRandomWaveformConformance:
    @pytest.mark.parametrize("variant", WINDOWED_VARIANTS)
    @pytest.mark.parametrize("window_size", WINDOW_SIZES)
    @given(waveform=waveforms(), threshold=thresholds)
    @settings(max_examples=25, deadline=None)
    def test_windowed_variants_all_paths(self, variant, window_size, waveform, threshold):
        compressed = compress_waveform(
            waveform, window_size=window_size, codec=variant, threshold=threshold
        ).compressed
        _assert_three_way_identical(
            compressed, check_microarch=variant in MICROARCH_VARIANTS
        )

    @pytest.mark.parametrize("variant", ("delta", "dictionary"))
    @given(waveform=waveforms())
    @settings(max_examples=25, deadline=None)
    def test_promoted_codecs_lossless_at_zero_threshold(self, variant, waveform):
        """delta and dictionary are exact at threshold 0: the decoded
        sample codes equal the quantized input codes bit for bit."""
        result = compress_waveform(
            waveform, window_size=16, codec=variant, threshold=0
        )
        i_codes, q_codes = waveform.to_fixed_point()
        out_i, out_q = result.reconstructed.to_fixed_point()
        np.testing.assert_array_equal(out_i, i_codes)
        np.testing.assert_array_equal(out_q, q_codes)

    @given(waveform=waveforms(), threshold=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_dct_n_scalar_vs_batched(self, waveform, threshold):
        compressed = compress_waveform(
            waveform, codec="DCT-N", threshold=threshold
        ).compressed
        _assert_three_way_identical(compressed, check_microarch=False)

    @given(waveform=waveforms(min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_single_window_pulses(self, waveform):
        """Pulses shorter than one window exercise the padded tail alone."""
        compressed = compress_waveform(
            waveform, window_size=8, codec="int-DCT-W"
        ).compressed
        assert compressed.n_windows == 1
        _assert_three_way_identical(compressed, check_microarch=True)


class TestLibraryConformance:
    @pytest.fixture(scope="class")
    def libraries(self):
        library = ibm_device("lima").pulse_library()
        return {
            variant: CompaqtCompiler(codec=variant).compile_library(library)
            for variant in CODECS
        }

    @pytest.mark.parametrize("variant", CODECS)
    def test_batch_decode_matches_scalar_per_pulse(self, libraries, variant):
        compiled = libraries[variant]
        entries = [result.compressed for _key, result in compiled]
        batched = decompress_batch(entries)
        for entry, waveform in zip(entries, batched):
            reference = decompress_waveform(entry)
            np.testing.assert_array_equal(waveform.samples, reference.samples)
            i_codes, q_codes = waveform.to_fixed_point()
            np.testing.assert_array_equal(
                i_codes, reference.to_fixed_point()[0]
            )
            np.testing.assert_array_equal(decompress_channel(entry.i_channel),
                                          i_codes.astype(np.int64))

    @pytest.mark.parametrize("variant", MICROARCH_VARIANTS)
    def test_microarch_stream_matches_batch_decode(self, libraries, variant):
        compiled = libraries[variant]
        pipeline = DecompressionPipeline(16)
        entries = [result.compressed for _key, result in compiled]
        batched = decompress_batch(entries)
        for entry, waveform in zip(entries, batched):
            report = pipeline.stream(entry)
            i_codes, q_codes = waveform.to_fixed_point()
            np.testing.assert_array_equal(report.i_samples, i_codes.astype(np.int64))
            np.testing.assert_array_equal(report.q_samples, q_codes.astype(np.int64))

    def test_batch_result_input_roundtrip(self):
        """decompress_batch(compress_batch(...)) reproduces per-pulse
        reconstructions across a heterogeneous library."""
        library = google_device(2, 3).pulse_library()
        pulses = [library.waveform(*key) for key in library.keys()]
        batch = compress_batch(pulses, window_size=8)
        decoded = decompress_batch(batch)
        for result, waveform in zip(batch, decoded):
            np.testing.assert_array_equal(
                waveform.samples, result.reconstructed.samples
            )

    def test_mixed_variants_in_one_batch(self):
        """One decode call may mix variants and window sizes; grouping
        must route every channel through the right inverse."""
        wf = Waveform(
            "mix", 0.5 * np.hanning(50) * (1 + 0.3j), dt=1e-9, gate="x", qubits=(1,)
        )
        entries = [
            compress_waveform(wf, window_size=8, codec="int-DCT-W").compressed,
            compress_waveform(wf, window_size=32, codec="DCT-W").compressed,
            compress_waveform(wf, codec="DCT-N").compressed,
            compress_waveform(wf, window_size=16, codec="int-DCT-W").compressed,
            compress_waveform(wf, window_size=16, codec="delta").compressed,
            compress_waveform(wf, window_size=8, codec="dictionary").compressed,
        ]
        decoded = decompress_batch(entries)
        for entry, waveform in zip(entries, decoded):
            reference = decompress_waveform(entry)
            np.testing.assert_array_equal(waveform.samples, reference.samples)


class TestValidation:
    def test_empty_inputs_rejected(self):
        with pytest.raises(CompressionError):
            decompress_batch([])

    def test_wrong_entry_type_rejected(self):
        with pytest.raises(CompressionError):
            decompress_batch(["not-a-compressed-waveform"])


def _pulse(n, seed, name="p"):
    """A smooth random pulse of ``n`` samples, |z| < 1."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    envelope = np.sin(np.pi * t) ** 2 * rng.uniform(0.2, 0.7)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    noise = rng.normal(0.0, 0.02, n) + 1j * rng.normal(0.0, 0.02, n)
    return Waveform(
        name, envelope * phase + noise, dt=1e-9, gate=f"g{seed % 7}", qubits=(seed % 5,)
    )


def _scalar_outcome(entry):
    """The scalar decoder's verdict: samples, or None if it rejects."""
    try:
        return decompress_waveform(entry)
    except CompressionError:
        return None


pulse_specs = st.lists(
    st.tuples(
        st.sampled_from(CODECS),
        st.sampled_from(WINDOW_SIZES),
        st.integers(min_value=1, max_value=90),
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=0, max_value=2**31 - 1),
    ),
    min_size=1,
    max_size=8,
)


class TestFrontDoorConformance:
    """`decompress_batch` drives the fused engine; the scalar path is the oracle."""

    @given(specs=pulse_specs)
    @settings(max_examples=60, deadline=None)
    def test_mixed_codecs_sizes_and_lengths_in_one_call(self, specs):
        entries = [
            compress_waveform(
                _pulse(n, seed, name=f"p{k}"),
                window_size=ws,
                codec=codec,
                threshold=threshold,
            ).compressed
            for k, (codec, ws, n, threshold, seed) in enumerate(specs)
        ]
        decoded = decompress_batch(entries)
        assert len(decoded) == len(entries)
        for entry, waveform in zip(entries, decoded):
            reference = decompress_waveform(entry)
            assert waveform.name == reference.name
            np.testing.assert_array_equal(waveform.samples, reference.samples)

    @given(
        specs=pulse_specs,
        faults=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.sampled_from(("width", "length", "empty", "shorter")),
                st.sampled_from(("i", "q", "both")),
                st.integers(min_value=1, max_value=40),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_malformed_channels_rejected_exactly_where_the_oracle_rejects(
        self, specs, faults
    ):
        entries = [
            compress_waveform(
                _pulse(n, seed), window_size=ws, codec=codec, threshold=threshold
            ).compressed
            for codec, ws, n, threshold, seed in specs
        ]
        for index, fault, side, amount in faults:
            index %= len(entries)
            entry = entries[index]

            def broken(channel):
                if fault == "width":
                    if not channel.windows:
                        return channel
                    # One window that decodes to the wrong coefficient count.
                    width = len(channel.windows[0].coeffs) + channel.windows[0].zero_run
                    bad = EncodedWindow(coeffs=(1,), zero_run=width + amount - 1)
                    return dataclasses.replace(
                        channel, windows=(bad,) + channel.windows[1:]
                    )
                # Past the decoded samples: the trim must not read the
                # next channel's windows.
                decoded = channel.n_windows * channel.window_size
                return dataclasses.replace(
                    channel, original_length=decoded + amount
                )

            if fault == "empty":
                i, q = (
                    dataclasses.replace(channel, windows=())
                    for channel in (entry.i_channel, entry.q_channel)
                )
            elif fault == "shorter":
                # Fewer samples than the windows hold (both channels, so
                # I and Q stay equal): a valid truncation.
                length = max(1, entry.i_channel.original_length - amount)
                i, q = (
                    dataclasses.replace(channel, original_length=length)
                    for channel in (entry.i_channel, entry.q_channel)
                )
            else:
                i = broken(entry.i_channel) if side != "q" else entry.i_channel
                q = broken(entry.q_channel) if side != "i" else entry.q_channel
            entries[index] = dataclasses.replace(entry, i_channel=i, q_channel=q)

        oracle = [_scalar_outcome(entry) for entry in entries]
        try:
            decoded = decompress_batch(entries)
        except CompressionError:
            decoded = None
        assert (decoded is None) == any(ref is None for ref in oracle)
        if decoded is not None:
            for reference, waveform in zip(oracle, decoded):
                assert waveform.name == reference.name
                np.testing.assert_array_equal(waveform.samples, reference.samples)

    def test_all_zero_full_and_single_coefficient_windows(self):
        channel = CompressedChannel(
            windows=(
                EncodedWindow(coeffs=(), zero_run=8),
                EncodedWindow(coeffs=tuple(range(1, 9)), zero_run=0),
                EncodedWindow(coeffs=(9,), zero_run=7),
            ),
            variant="delta",
            window_size=8,
            original_length=24,
        )
        entry = CompressedWaveform(
            name="edge", gate="x", qubits=(0,), dt=1e-9,
            i_channel=channel, q_channel=channel,
        )
        (waveform,) = decompress_batch([entry])
        np.testing.assert_array_equal(
            waveform.samples, decompress_waveform(entry).samples
        )
        i_codes, _q = waveform.to_fixed_point()
        np.testing.assert_array_equal(
            i_codes, [0] * 8 + [1, 3, 6, 10, 15, 21, 28, 36] + [9] * 8
        )


def _entry(windows, original_length=16, window_size=8, variant="int-DCT-W"):
    channel = CompressedChannel(
        windows=tuple(windows),
        variant=variant,
        window_size=window_size,
        original_length=original_length,
    )
    return CompressedWaveform(
        name="hand", gate="x", qubits=(0,), dt=1e-9,
        i_channel=channel, q_channel=channel,
    )


class TestFrontDoorErrors:
    """The checks the batched decoder made before it shared the fused engine."""

    def test_wrong_window_width_rejected(self):
        windows = [EncodedWindow(coeffs=(1,), zero_run=7),
                   EncodedWindow(coeffs=(1,), zero_run=3)]
        with pytest.raises(
            CompressionError, match="window decodes to 4 samples, expected 8"
        ):
            decompress_batch([_entry(windows)])

    def test_zero_window_size_rejected(self):
        windows = [EncodedWindow(coeffs=(1,), zero_run=7)]
        with pytest.raises(CompressionError, match="window size must be >= 1"):
            decompress_batch([_entry(windows, original_length=8, window_size=0)])

    def test_group_without_windows_rejected(self):
        with pytest.raises(
            CompressionError, match="cannot expand an empty window sequence"
        ):
            decompress_batch([_entry([], original_length=1)])

    def test_original_length_past_the_windows_rejected(self):
        """The trim must not read the next channel's samples."""
        pulses = [_pulse(144, 1, name="a"), _pulse(144, 2, name="b")]
        first, second = (
            compress_waveform(p, window_size=16).compressed for p in pulses
        )
        stretched = dataclasses.replace(
            first.i_channel, original_length=first.i_channel.original_length + 40
        )
        bad = dataclasses.replace(first, i_channel=stretched)
        with pytest.raises(
            CompressionError, match="original length 184 exceeds decoded 144"
        ):
            decompress_waveform(bad)
        with pytest.raises(
            CompressionError, match="original length 184 exceeds decoded 144"
        ):
            decompress_batch([bad, second])


def _from_fixed_point_oracle(i_codes, q_codes):
    return Waveform.from_fixed_point(
        np.clip(i_codes, -32768, 32767).astype(np.int16),
        np.clip(q_codes, -32768, 32767).astype(np.int16),
        dt=1e-9,
    ).samples


class TestFinishSamples:
    """The batched finish is bit-identical to ``from_fixed_point``."""

    @given(
        codes=st.lists(
            st.tuples(
                st.integers(-40000, 40000), st.integers(-40000, 40000)
            ),
            min_size=1,
            max_size=64,
        ),
        cuts=st.lists(st.integers(0, 64), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_codes_match_oracle(self, codes, cuts):
        i_all = np.array([c[0] for c in codes], dtype=np.int64)
        q_all = np.array([c[1] for c in codes], dtype=np.int64)
        bounds = sorted({0, len(codes), *(c % (len(codes) + 1) for c in cuts)})
        spans = list(zip(bounds, bounds[1:]))
        got = finish_samples(
            [i_all[a:b] for a, b in spans], [q_all[a:b] for a, b in spans]
        )
        assert [part.size for part in got] == [b - a for a, b in spans]
        for part in got:
            assert part.dtype == np.complex128
            assert part.base is None or len(got) == 1  # owns its samples
        np.testing.assert_array_equal(
            np.concatenate(got), _from_fixed_point_oracle(i_all, q_all)
        )

    def test_unit_circle_edge_matches_oracle(self):
        """Codes on and around |z| = 1, where the clamp decides."""
        edge = np.arange(-400, 401)
        rail = np.full(edge.size, 32767)
        diagonal = np.arange(23100, 23250)
        i_codes = np.concatenate([rail, edge, -rail - 1, diagonal, -diagonal])
        q_codes = np.concatenate([edge, rail, edge, diagonal, diagonal + 1])
        (got,) = finish_samples([i_codes], [q_codes])
        want = _from_fixed_point_oracle(i_codes, q_codes)
        np.testing.assert_array_equal(got, want)
        # Some samples were clamped, and some sat just inside the circle.
        raw = np.hypot(np.clip(i_codes, -32768, 32767), q_codes) / 32767
        assert (raw > 1.0).any() and ((raw > 1 - 1e-4) & (raw <= 1.0)).any()

    def test_chunked_batches_match_oracle(self, monkeypatch):
        """Many pulses finish in several chunks; each pulse stays whole."""
        monkeypatch.setattr(batch_module, "_FINISH_CHUNK", 7)
        rng = np.random.default_rng(3)
        sizes = [1, 3, 7, 12, 2, 2, 2, 9, 1]
        i_parts = [rng.integers(-40000, 40000, size) for size in sizes]
        q_parts = [rng.integers(-40000, 40000, size) for size in sizes]
        got = finish_samples(i_parts, q_parts)
        assert [part.size for part in got] == sizes
        for part, i_codes, q_codes in zip(got, i_parts, q_parts):
            assert part.base is None
            np.testing.assert_array_equal(
                part, _from_fixed_point_oracle(i_codes, q_codes)
            )

    def test_mismatched_channel_lengths_rejected(self):
        with pytest.raises(CompressionError, match="I channel decodes 3"):
            finish_samples([np.zeros(3, np.int64)], [np.zeros(4, np.int64)])
