"""Fast-path conformance: vectorized parse/decode vs the scalar oracle.

The zero-copy engine (:mod:`repro.compression.fastpath`) and the
vectorized serializer must be indistinguishable from the scalar
word-at-a-time reference on *every* input:

* well-formed bytes parse to equal objects, decode to bit-identical
  samples, and re-serialize byte-for-byte;
* malformed bytes raise :class:`~repro.errors.CompressionError` exactly
  when the oracle raises -- never another exception, never garbage
  samples (one documented tightening: the fused decoder rejects a
  corrupt record whose I and Q channels decode to different sample
  counts, which the scalar reference mishandles via numpy
  broadcasting);
* the mmap-backed store paths (span reads, fused ``decode_many`` /
  ``decode_shard``, prewarm) serve the same bytes and samples as the
  pre-pool implementation, with deterministic handle release.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError, StoreError
from repro.compression.batch import decompress_batch
from repro.compression.bitstream import (
    RecordSpan,
    _Writer,
    _channel_block_bytes,
    _write_channel_scalar,
    parse_library,
    parse_library_scalar,
    parse_waveform,
    parse_waveform_scalar,
    serialize_library,
    serialize_waveform,
)
from repro.compression import fastpath
from repro.compression.fastpath import (
    decode_library_bytes,
    decode_record_bytes,
    decode_records,
    parse_library_fast,
    parse_waveform_fast,
)
from repro.compression.pipeline import (
    CompressedChannel,
    compress_waveform,
    decompress_waveform,
)
from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.pulses import Waveform
from repro.store import (
    PulseCache,
    PulseServer,
    StoreWriter,
    open_store,
    save_store,
)
from repro.store.cache import CacheStats
from repro.store.server import ServerStats
from repro.store.sharded import StoreRecord
from repro.transforms.rle import EncodedWindow

ALL_VARIANTS = ("DCT-N", "DCT-W", "int-DCT-W", "delta", "dictionary")


def _waveform(n, seed=0, gate="x", qubits=(0,)):
    rng = np.random.default_rng(seed)
    samples = 0.65 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    peak = max(1.0, float(np.max(np.abs(samples))))
    return Waveform(
        f"wf{n}_{seed}", samples / peak, dt=1e-9, gate=gate, qubits=qubits
    )


def _record_blob(n=40, variant="int-DCT-W", window_size=16, threshold=128,
                 seed=0):
    compressed = compress_waveform(
        _waveform(n, seed), window_size=window_size, codec=variant,
        threshold=threshold,
    ).compressed
    return serialize_waveform(compressed), compressed


#: Golden v1 blob (pre-registry serializer) -- duplicated from
#: tests/test_bitstream.py so this suite stands alone.
GOLDEN_V1_WAVEFORM = bytes.fromhex(
    "435157310200100000000600676f6c64656e01007801000095d626e80b2e113e"
    "1c000000020000000400b0040000f9ff0000030000000d000100030000800000"
    "ff7f00000e0001001c000000020000000400b0040000f9ff0000030000000d00"
    "0100030000800000ff7f00000e000100"
)


class TestParseConformance:
    """Fast object parse == scalar oracle on well-formed streams."""

    @given(
        n=st.integers(min_value=1, max_value=120),
        threshold=st.integers(min_value=0, max_value=2000),
        variant=st.sampled_from(ALL_VARIANTS),
        window_size=st.sampled_from((8, 16, 32)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzz_parse_and_fused_decode_match_oracle(
        self, n, threshold, variant, window_size, seed
    ):
        blob, compressed = _record_blob(n, variant, window_size, threshold, seed)
        scalar = parse_waveform_scalar(blob)
        fast = parse_waveform_fast(blob)
        assert fast == scalar == compressed
        assert serialize_waveform(fast) == blob
        reference = decompress_waveform(scalar)
        fused = decode_record_bytes(blob)
        assert fused.name == reference.name
        assert fused.gate == reference.gate
        assert fused.qubits == reference.qubits
        np.testing.assert_array_equal(fused.samples, reference.samples)

    def test_dispatch_is_the_fast_path(self):
        blob, compressed = _record_blob()
        assert parse_waveform(blob) == compressed
        assert parse_waveform(memoryview(blob)) == compressed

    def test_golden_v1_parses_identically(self):
        scalar = parse_waveform_scalar(GOLDEN_V1_WAVEFORM)
        fast = parse_waveform_fast(GOLDEN_V1_WAVEFORM)
        assert fast == scalar
        assert serialize_waveform(fast) == GOLDEN_V1_WAVEFORM
        np.testing.assert_array_equal(
            decode_record_bytes(GOLDEN_V1_WAVEFORM).samples,
            decompress_waveform(scalar).samples,
        )

    def test_library_parse_and_fused_decode(self):
        compiled = CompaqtCompiler(window_size=16).compile_library(
            ibm_device("bogota").pulse_library()
        )
        blob = compiled.to_bytes()
        scalar = parse_library_scalar(blob)
        fast = parse_library_fast(blob)
        assert fast == scalar
        assert serialize_library(fast) == blob
        decoded = decode_library_bytes(blob)
        assert [(g, q) for g, q, _w in decoded] == [
            (e.gate, e.qubits) for e in scalar.entries
        ]
        for (_g, _q, waveform), entry in zip(decoded, scalar.entries):
            np.testing.assert_array_equal(
                waveform.samples,
                decompress_waveform(entry.compressed).samples,
            )

    def test_decode_records_mixed_batch(self):
        blobs, references = [], []
        for i, variant in enumerate(ALL_VARIANTS):
            for n in (5, 17, 40):
                blob, compressed = _record_blob(
                    n, variant, window_size=8, seed=100 + i
                )
                blobs.append(blob)
                references.append(decompress_waveform(compressed))
        out = decode_records(blobs)
        assert len(out) == len(references)
        for got, want in zip(out, references):
            assert got.name == want.name
            np.testing.assert_array_equal(got.samples, want.samples)

    def test_batch_decoded_waveforms_own_their_samples(self):
        """Cached entries must not pin the whole decode batch's memory."""
        blobs = [_record_blob(40, seed=s)[0] for s in range(5)]
        for waveform in decode_records(blobs):
            assert waveform.samples.base is None
            assert not waveform.samples.flags.writeable

    def test_fused_matches_batched_engine(self):
        blobs, entries = zip(
            *(_record_blob(n, "delta", seed=n) for n in (3, 16, 33, 64))
        )
        fused = decode_records(list(blobs))
        batched = decompress_batch(list(entries))
        for got, want in zip(fused, batched):
            np.testing.assert_array_equal(got.samples, want.samples)


class TestSerializerParity:
    """The vectorized channel writer is byte-identical to the scalar."""

    @given(
        n=st.integers(min_value=1, max_value=80),
        threshold=st.integers(min_value=0, max_value=1500),
        variant=st.sampled_from(ALL_VARIANTS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_channel_bytes_match_scalar_writer(
        self, n, threshold, variant, seed
    ):
        _blob, compressed = _record_blob(
            n, variant, threshold=threshold, seed=seed
        )
        for channel in (compressed.i_channel, compressed.q_channel):
            writer = _Writer()
            _write_channel_scalar(writer, channel)
            scalar_bytes = writer.getvalue()
            assert scalar_bytes[8:] == _channel_block_bytes(channel)

    def test_serializer_validation_matches_scalar(self):
        window = EncodedWindow(coeffs=(70000,), zero_run=15)
        channel = CompressedChannel(
            windows=(window,), variant="int-DCT-W", window_size=16,
            original_length=16,
        )
        with pytest.raises(CompressionError, match="16-bit"):
            _channel_block_bytes(channel)
        with pytest.raises(CompressionError, match="16-bit"):
            _write_channel_scalar(_Writer(), channel)


class TestMalformedEquivalence:
    """Corrupt bytes: the fast paths fail exactly like the oracle."""

    @given(
        variant=st.sampled_from(ALL_VARIANTS),
        index=st.integers(min_value=0, max_value=10**6),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_byte_corruption_equivalence(self, variant, index, flip):
        blob, _ = _record_blob(24, variant, seed=7)
        corrupt = bytearray(blob)
        corrupt[index % len(corrupt)] ^= flip
        corrupt = bytes(corrupt)
        try:
            scalar = parse_waveform_scalar(corrupt)
        except CompressionError:
            scalar = None
        try:
            fast = parse_waveform_fast(corrupt)
        except CompressionError:
            fast = None
        # Same accept/reject verdict, and equal objects on accept.
        assert (scalar is None) == (fast is None)
        if scalar is not None:
            assert fast == scalar
            # Fused decode must agree with the scalar decode -- except
            # when the corruption produced mismatched channel lengths,
            # which the scalar reference mishandles (numpy broadcast or
            # ValueError) and the fused path rejects outright.
            if (
                scalar.i_channel.original_length
                == scalar.q_channel.original_length
            ):
                np.testing.assert_array_equal(
                    decode_record_bytes(corrupt).samples,
                    decompress_waveform(scalar).samples,
                )
            else:
                with pytest.raises(CompressionError):
                    decode_record_bytes(corrupt)

    @given(data=st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_random_bytes_totality(self, data):
        for fn in (
            parse_waveform_fast,
            parse_library_fast,
            decode_record_bytes,
            decode_library_bytes,
            lambda b: decode_records([b, b]),
        ):
            try:
                fn(data)
            except CompressionError:
                pass

    def test_every_truncation_rejected(self):
        blob, _ = _record_blob(24)
        for cut in range(len(blob)):
            with pytest.raises(CompressionError):
                parse_waveform_fast(blob[:cut])
            with pytest.raises(CompressionError):
                decode_record_bytes(blob[:cut])

    def test_empty_record_batch_rejected(self):
        with pytest.raises(CompressionError):
            decode_records([])


def _outcome(decode):
    """A decode's result as comparable data: samples, or the error text."""
    try:
        waveforms = decode()
    except CompressionError as exc:
        return f"CompressionError: {exc}"
    return [(w.name, w.gate, w.qubits, w.dt, w.samples) for w in waveforms]


def _assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got) == len(want)
    for (*meta_got, samples_got), (*meta_want, samples_want) in zip(got, want):
        assert meta_got == meta_want
        np.testing.assert_array_equal(samples_got, samples_want)


@functools.lru_cache(maxsize=1)
def _same_length_pairs():
    """Distinct records sharing one name and byte length.

    Equal prefixes up to the I windows and equal span lengths, so a
    layout filled from one passes every cheap check against the other;
    only the window-header gather can tell them apart when their word
    counts differ (and when they do not, the layout is valid for both).
    """
    by_length = {}
    for seed in range(40):
        for threshold in (200, 800, 2000):
            rng = np.random.default_rng(seed)
            samples = 0.65 * (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40))
            waveform = Waveform(
                "swap", samples / max(1.0, float(np.max(np.abs(samples)))),
                dt=1e-9, gate="x", qubits=(0,),
            )
            blob = serialize_waveform(
                compress_waveform(
                    waveform, window_size=8, codec="int-DCT-W",
                    threshold=threshold,
                ).compressed
            )
            by_length.setdefault(len(blob), set()).add(blob)
    pairs = []
    for blobs in by_length.values():
        blobs = sorted(blobs)
        pairs.extend(zip(blobs, blobs[1:]))
    return tuple(pairs)


class TestVerifiedLayouts:
    """Layouts only ever stand in for a walk that would agree with them.

    A layout is filled by one decode and offered to the next; whatever
    happened to the bytes in between (a flipped byte, a truncation,
    another record of the same length), the verdict, the error text and
    every sample must equal a fresh walk's and the scalar oracle's.
    """

    @given(
        pair=st.integers(min_value=0),
        mutation=st.sampled_from(("flip", "truncate", "swap")),
        index=st.integers(min_value=0, max_value=10**6),
        flip=st.integers(min_value=1, max_value=255),
        position=st.sampled_from((0, 1)),
    )
    @settings(max_examples=300, deadline=None)
    def test_stale_layout_matches_fresh_walk_and_oracle(
        self, pair, mutation, index, flip, position
    ):
        pairs = _same_length_pairs()
        target, other = pairs[pair % len(pairs)]
        neighbour, _ = _record_blob(33, seed=5)
        batch = [neighbour, target] if position else [target, neighbour]
        layouts = [None, None]
        decode_records(batch, layouts)
        assert all(layout is not None for layout in layouts)

        if mutation == "flip":
            mutated = bytearray(target)
            mutated[index % len(mutated)] ^= flip
            mutated = bytes(mutated)
        elif mutation == "truncate":
            mutated = target[: index % len(target)]
        else:
            mutated = other
        batch[position] = mutated

        stale = list(layouts)
        got = _outcome(lambda: decode_records(batch, stale))
        _assert_same_outcome(got, _outcome(lambda: decode_records(batch)))
        # Per record against the scalar oracle.
        try:
            scalar = parse_waveform_scalar(mutated)
        except CompressionError:
            scalar = None
        if scalar is None or (
            scalar.i_channel.original_length != scalar.q_channel.original_length
        ):
            assert isinstance(got, str)
        else:
            np.testing.assert_array_equal(
                got[position][-1], decompress_waveform(scalar).samples
            )
            # The refreshed layouts serve the mutated bytes from now on.
            _assert_same_outcome(_outcome(lambda: decode_records(batch, stale)), got)

    def test_matching_layout_replaces_the_walk(self, monkeypatch):
        blobs = [_record_blob(40, seed=s)[0] for s in range(3)]
        layouts = [None] * 3
        want = _outcome(lambda: decode_records(blobs, layouts))

        def no_walk(*_args):
            raise AssertionError("walked a record with a valid layout")

        monkeypatch.setattr(fastpath._ScanBatch, "scan_channel", no_walk)
        _assert_same_outcome(_outcome(lambda: decode_records(blobs, layouts)), want)

    @staticmethod
    def _pair_with_different_counts():
        for target, other in _same_length_pairs():
            fill, swapped = [None], [None]
            decode_records([target], fill)
            decode_records([other], swapped)
            if not np.array_equal(fill[0].counts, swapped[0].counts):
                assert fill[0].prefix == swapped[0].prefix
                assert fill[0].q_header == swapped[0].q_header
                return target, other, fill[0], swapped[0]
        pytest.fail("no same-length pair with different window counts")

    def test_header_gather_catches_same_length_record(self):
        """Equal prefix, Q header and length; different window counts."""
        _target, other, layout, walked = self._pair_with_different_counts()
        batch = fastpath._ScanBatch(fastpath._as_u8(other))
        batch.replay(layout, 0)
        with pytest.raises(fastpath._StaleLayout):
            batch.finalize()
        stale = [layout]
        _assert_same_outcome(
            _outcome(lambda: decode_records([other], stale)),
            _outcome(lambda: decode_records([other])),
        )
        np.testing.assert_array_equal(stale[0].counts, walked.counts)

    def test_every_prefix_and_q_header_byte_is_checked(self):
        blob, _ = _record_blob(40, window_size=8, seed=11)
        fill = [None]
        decode_records([blob], fill)
        layout = fill[0]
        q_header = layout.scan.q_ref.offset - 8
        checked = [
            (i, 1 << bit) for i in range(len(layout.prefix)) for bit in range(8)
        ]
        checked += [
            (i, flip)
            for i in range(q_header, q_header + 8)
            for flip in range(1, 256)
        ]
        for index, flip in checked:
            corrupt = bytearray(blob)
            corrupt[index] ^= flip
            corrupt = bytes(corrupt)
            stale = [layout]
            _assert_same_outcome(
                _outcome(lambda: decode_records([corrupt], stale)),
                _outcome(lambda: decode_records([corrupt])),
            )

    def test_errors_follow_walk_order_despite_stale_layout(self):
        """A stale layout must not let a later record's error win."""
        target, _other, layout, _walked = self._pair_with_different_counts()
        first_header = layout.scan.i_ref.offset
        broken = bytearray(target)
        broken[first_header : first_header + 2] = b"\x00\x00"  # zero words
        bad_magic = b"XXXX" + target[4:]
        batch = [bytes(broken), bad_magic]
        want = _outcome(lambda: decode_records(batch))
        assert "zero words" in want
        assert _outcome(lambda: decode_records(batch, [layout, None])) == want

    def test_layout_list_must_match_blobs(self):
        blob, _ = _record_blob(16)
        with pytest.raises(ValueError):
            decode_records([blob, blob], [None])

    def test_store_fills_layouts_once_per_record(self, tmp_path):
        compiled = CompaqtCompiler(window_size=16).compile_library(
            ibm_device("bogota").pulse_library()
        )
        sharded = save_store(compiled, tmp_path / "s.cqs", n_shards=2)
        keys = sharded.keys()[:6]
        first = sharded.decode_many(keys)
        layouts = {key: sharded._layouts[key] for key in keys}
        again = sharded.decode_many(keys)
        for key in keys:
            assert sharded._layouts[key] is layouts[key]  # reused, not rebuilt
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.samples, b.samples)
        sharded.close()

    def test_refreshed_snapshot_starts_without_layouts(self, tmp_path):
        compiled = CompaqtCompiler(window_size=16).compile_library(
            ibm_device("bogota").pulse_library()
        )
        root = tmp_path / "bogota.cqs"
        save_store(compiled, root, n_shards=3).close()
        with PulseServer(open_store(root), cache_capacity=2) as server:
            old_store = server.store
            key = old_store.keys()[0]
            server.fetch(*key)
            old_layout = old_store._layouts[key]
            with StoreWriter(root) as writer:
                waveform = writer.store.decode_many([key])[0]
                result = CompaqtCompiler().compile_waveform(
                    waveform.with_samples(np.roll(waveform.samples, 3) * 0.8)
                )
                writer.put(key[0], key[1], result)
                writer.commit()
            assert server.refresh() is True
            fresh = server.store
            assert fresh is not old_store
            assert not fresh._layouts
            fetched = server.fetch(*key)
            np.testing.assert_array_equal(
                fetched.samples, result.reconstructed.samples
            )
            new_layout = fresh._layouts[key]
            assert new_layout is not old_layout
            walked = [None]
            decode_records([fresh.read_record_bytes(*key)], walked)
            assert new_layout.prefix == walked[0].prefix
            np.testing.assert_array_equal(new_layout.counts, walked[0].counts)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    compiled = CompaqtCompiler(window_size=16).compile_library(
        ibm_device("bogota").pulse_library()
    )
    path = tmp_path_factory.mktemp("fastpath-store") / "bogota.cqs"
    return save_store(compiled, path, n_shards=3), compiled


class TestStoreFastPath:
    def test_decode_many_matches_scalar_reference(self, store):
        sharded, compiled = store
        keys = sharded.keys()
        decoded = sharded.decode_many(keys)
        for key, waveform in zip(keys, decoded):
            reference = decompress_waveform(compiled.result(*key).compressed)
            assert waveform.name == reference.name
            np.testing.assert_array_equal(waveform.samples, reference.samples)

    def test_decode_record_and_duplicate_requests(self, store):
        sharded, compiled = store
        key = sharded.keys()[0]
        one = sharded.decode_record(*key)
        np.testing.assert_array_equal(
            one.samples,
            decompress_waveform(compiled.result(*key).compressed).samples,
        )
        twice = sharded.decode_many([key, key])
        np.testing.assert_array_equal(twice[0].samples, twice[1].samples)

    def test_decode_shard_covers_every_record(self, store):
        sharded, compiled = store
        seen = {}
        for shard in range(sharded.n_shards):
            for key, waveform in sharded.decode_shard(shard):
                seen[key] = waveform
        assert set(seen) == set(sharded.keys())
        for key, waveform in seen.items():
            np.testing.assert_array_equal(
                waveform.samples,
                decompress_waveform(compiled.result(*key).compressed).samples,
            )
        with pytest.raises(StoreError):
            sharded.decode_shard(sharded.n_shards)

    def test_read_record_bytes_is_span_copy(self, store):
        sharded, _ = store
        key = sharded.keys()[0]
        raw = sharded.read_record_bytes(*key)
        assert isinstance(raw, bytes)
        assert parse_waveform(raw).gate == key[0]

    def test_handle_pool_is_bounded_and_reopens_after_close(self, store):
        sharded, _ = store
        sharded.close()
        assert sharded.open_shard_handles == 0
        sharded.read_many(sharded.keys())  # touches every shard
        assert 1 <= sharded.open_shard_handles <= sharded.n_shards
        sharded.close()
        assert sharded.open_shard_handles == 0
        # Reads after close transparently remap.
        assert len(sharded.read_many(sharded.keys())) == len(sharded)

    def test_store_context_manager(self, store):
        sharded, _ = store
        with sharded as handle:
            handle.read_record(*sharded.keys()[0])
            assert handle.open_shard_handles >= 1
        assert sharded.open_shard_handles == 0

    def test_cache_prewarm_and_context_manager(self, store):
        sharded, compiled = store
        with PulseCache(sharded, capacity=len(sharded)) as cache:
            inserted = cache.prewarm()
            assert inserted == len(sharded)
            assert len(cache) == len(sharded)
            stats = cache.stats()
            assert stats.hits == 0 and stats.misses == 0  # not traffic
            key = sharded.keys()[0]
            np.testing.assert_array_equal(
                cache.get(*key).samples,
                decompress_waveform(compiled.result(*key).compressed).samples,
            )
            assert cache.stats().hits == 1
        assert sharded.open_shard_handles == 0

    def test_prewarm_stops_at_capacity_without_churn(self, store):
        sharded, _ = store
        cache = PulseCache(sharded, capacity=4)
        inserted = cache.prewarm()
        stats = cache.stats()
        assert inserted == 4 == len(cache)
        assert stats.evictions == 0  # no decode-then-evict churn

    def test_server_close_releases_pool_and_keeps_serving(self, store):
        sharded, compiled = store
        server = PulseServer(sharded, cache_capacity=4)
        key = sharded.keys()[0]
        server.fetch(*key)
        server.close()
        assert sharded.open_shard_handles == 0
        other = sharded.keys()[-1]
        waveform = server.fetch(*other)  # inline fill, pool remaps
        np.testing.assert_array_equal(
            waveform.samples,
            decompress_waveform(compiled.result(*other).compressed).samples,
        )
        server.close()


class TestSlots:
    """High-volume record types carry no per-instance __dict__."""

    @pytest.mark.parametrize(
        "instance",
        [
            EncodedWindow(coeffs=(1, 2), zero_run=3),
            RecordSpan(gate="x", qubits=(0,), offset=0, length=4),
            StoreRecord(
                gate="x", qubits=(0,), shard=0, offset=0, length=4,
                mse=0.0, threshold=0.0,
            ),
            CacheStats(
                capacity=1, size=0, hits=0, misses=0, insertions=0,
                evictions=0,
            ),
        ],
    )
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")
        assert dataclasses.fields(instance)

    def test_compressed_types_are_slotted(self):
        _blob, compressed = _record_blob(8)
        assert not hasattr(compressed, "__dict__")
        assert not hasattr(compressed.i_channel, "__dict__")
        assert not hasattr(compressed.i_channel.windows[0], "__dict__")
        assert "__dict__" not in ServerStats.__dict__.get("__slots__", ())

    def test_window_invariants_still_enforced(self):
        with pytest.raises(CompressionError):
            EncodedWindow(coeffs=(1, 0), zero_run=2)
        with pytest.raises(CompressionError):
            EncodedWindow(coeffs=(), zero_run=-1)
