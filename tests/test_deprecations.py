"""Tests for retired spellings and the stats dict surface.

The ``variant=`` keyword, the ``--variant``/``--variants`` CLI flags,
the ``repro.transforms.delta``/``dictionary`` shim modules and the
``to_dict`` stats aliases finished their deprecation window and are
gone: ``codec=``/``--codec``/``--codecs``, the
``repro.compression.codecs`` modules and ``as_dict()`` are the only
spellings.  These tests keep the retired ones from quietly coming back.
"""

import importlib

import pytest

from repro.cli import main
from repro.compression.batch import compress_batch
from repro.compression.pipeline import compress_waveform
from repro.core import CompaqtCompiler, adaptive_compress, fidelity_aware_compress
from repro.devices import ibm_device
from repro.store.cache import CacheStats
from repro.store.server import ServerStats


@pytest.fixture(scope="module")
def waveform():
    return ibm_device("bogota").pulse_library().waveform("sx", (0,))


class TestRetiredSpellings:
    def test_variant_keyword_is_a_type_error(self, waveform):
        calls = (
            lambda **kw: compress_waveform(waveform, **kw),
            lambda **kw: compress_batch([waveform], **kw),
            lambda **kw: CompaqtCompiler(**kw),
            lambda **kw: adaptive_compress(waveform, **kw),
            lambda **kw: fidelity_aware_compress(waveform, **kw),
        )
        for call in calls:
            with pytest.raises(TypeError, match="variant"):
                call(variant="delta")

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--variant", "delta"],
            ["pack", "bogota", "--variant", "delta"],
            ["bench", "--variants", "delta"],
        ],
        ids=["report", "pack", "bench"],
    )
    def test_cli_variant_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["delta", "dictionary"])
    def test_transforms_baseline_shims_are_gone(self, name):
        import repro.transforms as transforms

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.transforms.{name}")
        assert not hasattr(transforms, f"{name}_compress")
        home = importlib.import_module(f"repro.compression.codecs.{name}")
        assert callable(getattr(home, f"{name}_compress"))


class TestStatsDictSurface:
    """`as_dict()` is the one stats surface (the `to_dict` aliases are gone)."""

    def test_cache_stats_aliases(self):
        stats = CacheStats(
            capacity=4, size=2, hits=10, misses=5, insertions=5, evictions=3
        )
        assert not hasattr(stats, "to_dict")
        assert stats.as_dict()["hit_rate"] == stats.hit_rate

    def test_server_stats_aliases(self):
        cache = CacheStats(
            capacity=4, size=2, hits=10, misses=5, insertions=5, evictions=3
        )
        stats = ServerStats(
            requests=7, batches=2, shard_fills=3, coalesced_fills=1, cache=cache
        )
        assert not hasattr(stats, "to_dict")
        assert stats.as_dict()["cache"] == cache.as_dict()

    def test_net_server_stats_has_as_dict(self):
        from repro.serve_net.server import NetServerStats

        net = NetServerStats(
            connections_accepted=1,
            connections_open=1,
            requests=2,
            fetches=1,
            fetches_ok=1,
            pulses_served=4,
            overloads=0,
            coalesced_keys=0,
            request_errors=0,
            protocol_errors=0,
            draining=False,
            serving=ServerStats(
                requests=1,
                batches=1,
                shard_fills=1,
                coalesced_fills=0,
                cache=CacheStats(
                    capacity=4, size=1, hits=0, misses=1, insertions=1, evictions=0
                ),
            ),
        )
        blob = net.as_dict()
        assert blob["serving"]["cache"]["insertions"] == 1


class TestStatsKeySetPins:
    """The stats dataclasses are frozen views over the metrics registry.

    Migrating their counters onto ``repro.obs`` must not change the
    dict surface: these pins freeze the exact key sets so a registry
    rename can never silently leak into ``as_dict()`` consumers
    (JSON-over-CQN1 STATS replies, the chaos harness, dashboards).
    """

    CACHE_KEYS = {
        "capacity",
        "size",
        "hits",
        "misses",
        "insertions",
        "evictions",
        "hit_rate",
    }
    SERVER_KEYS = {"requests", "batches", "shard_fills", "coalesced_fills", "cache"}
    POOL_KEYS = {
        "workers",
        "start_method",
        "shm_limit",
        "jobs_ok",
        "jobs_failed",
        "shm_jobs",
        "fallback_jobs",
        "worker_deaths",
        "respawns",
    }
    NET_KEYS = {
        "connections_accepted",
        "connections_open",
        "requests",
        "fetches",
        "fetches_ok",
        "pulses_served",
        "overloads",
        "coalesced_keys",
        "request_errors",
        "protocol_errors",
        "draining",
        "serving",
    }

    def _cache_stats(self):
        return CacheStats(
            capacity=4, size=2, hits=10, misses=5, insertions=5, evictions=3
        )

    def test_cache_stats_key_set(self):
        assert set(self._cache_stats().as_dict()) == self.CACHE_KEYS

    def test_server_stats_key_set(self):
        stats = ServerStats(
            requests=7,
            batches=2,
            shard_fills=3,
            coalesced_fills=1,
            cache=self._cache_stats(),
        )
        assert set(stats.as_dict()) == self.SERVER_KEYS

    def test_server_stats_with_pool_key_set(self):
        pool = {key: 0 for key in self.POOL_KEYS}
        pool.update(start_method="forkserver", workers=2, shm_limit=1 << 20)
        stats = ServerStats(
            requests=7,
            batches=2,
            shard_fills=3,
            coalesced_fills=1,
            cache=self._cache_stats(),
            pool=pool,
        )
        blob = stats.as_dict()
        assert set(blob) == self.SERVER_KEYS | {"pool"}
        assert set(blob["pool"]) == self.POOL_KEYS

    def test_net_server_stats_key_set(self):
        from repro.serve_net.server import NetServerStats

        net = NetServerStats(
            connections_accepted=0,
            connections_open=0,
            requests=0,
            fetches=0,
            fetches_ok=0,
            pulses_served=0,
            overloads=0,
            coalesced_keys=0,
            request_errors=0,
            protocol_errors=0,
            draining=False,
            serving=ServerStats(
                requests=0,
                batches=0,
                shard_fills=0,
                coalesced_fills=0,
                cache=CacheStats(
                    capacity=1, size=0, hits=0, misses=0, insertions=0, evictions=0
                ),
            ),
        )
        assert set(net.as_dict()) == self.NET_KEYS

    def test_live_registry_backed_stats_keep_the_pinned_keys(self, tmp_path):
        """A real PulseServer's stats (registry-backed) match the pins."""
        from repro.core import CompaqtCompiler
        from repro.store import PulseServer, save_store

        library = ibm_device("bogota").pulse_library()
        compiled = CompaqtCompiler(window_size=16).compile_library(library)
        store = save_store(compiled, tmp_path / "pin.cqs", n_shards=2)
        try:
            with PulseServer(store, cache_capacity=8) as server:
                server.fetch(*store.keys()[0])
                blob = server.stats().as_dict()
            assert set(blob) == self.SERVER_KEYS
            assert set(blob["cache"]) == self.CACHE_KEYS
        finally:
            store.close()
