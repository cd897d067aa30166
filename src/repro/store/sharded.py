"""The CQS1 sharded pulse store: on-disk layout, writer, and reader.

A compiled :class:`~repro.core.compiler.CompressedPulseLibrary` so far
persisted as one monolithic ``CQL1`` container that every consumer had
to parse -- and decode -- in full.  A serving system wants the opposite
read path (the paper's whole premise is that decompression happens at
gate-issue time, not at load time): keep the *compressed* image on
disk, fetch single pulse records on demand, and decode only what is
actually played.

A **CQS1 store** is a directory::

    mystore.cqs/
      manifest.json     the CQS1 manifest (see below)
      shard-0000.cql    a plain CQL1 library container
      shard-0001.cql
      ...

Each shard file is a complete, standalone ``CQL1`` container (parseable
by :func:`repro.compression.bitstream.parse_library`), holding the
entries whose channel key hashes to that shard:
``shard = crc32("gate|q0,q1") % n_shards``.  The hash is stable across
processes and platforms, so any client can route a request to its shard
without the manifest.

The manifest is JSON with a ``"magic": "CQS1"`` tag carrying the
library metadata (device, codec, window size), the shard file table,
and a **byte-offset index**: for every pulse, the shard it lives in and
the ``(offset, length)`` span of its embedded ``CQW1`` waveform record
(:class:`~repro.compression.bitstream.RecordSpan`).  Reading one pulse
is therefore a single seek-and-read plus
:func:`~repro.compression.bitstream.parse_waveform` -- no shard parse,
no decode of neighbours.

Everything that can be validated cheaply at open time is (magic,
version, shard files present with the recorded sizes, spans in range);
record reads re-validate through the total ``CQW1`` parser, so a
corrupt shard raises :class:`~repro.errors.StoreError` or
:class:`~repro.errors.CompressionError` instead of yielding garbage
samples.

**Read path.**  All shard reads go through a bounded mmap pool
(:class:`_MmapPool`): a shard file is opened and mapped once, record
spans are served as zero-copy memoryview slices of the mapping, and
the vectorized parse/decode engine (:mod:`repro.compression.fastpath`)
consumes those views directly -- no per-call ``open``/``seek``/``read``
and no intermediate byte copies on the cold-miss path.  ``close()`` (or
the context manager) releases every cached mapping deterministically;
a store remains usable after ``close`` -- the pool simply reopens on
the next read, which keeps shared-store setups (several servers over
one store) safe.
"""

from __future__ import annotations

import json
import mmap
import pathlib
import re
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import CompressionError, StoreError
from repro.obs import DEFAULT_SIZE_BOUNDS, default_registry
from repro.compression.bitstream import (
    LibraryBitstream,
    LibraryEntry,
    parse_library,
    parse_waveform,
    serialize_library_indexed,
)
from repro.compression.fastpath import (
    RecordLayout,
    decode_library_bytes,
    decode_records,
)
from repro.compression.pipeline import CompressedWaveform
from repro.pulses.waveform import Waveform
from repro.store.atomic import atomic_write

__all__ = [
    "STORE_MAGIC",
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC_V2",
    "STORE_FORMAT_VERSION_V2",
    "MANIFEST_NAME",
    "generation_manifest_name",
    "list_generation_manifests",
    "StoreRecord",
    "StoreHandle",
    "normalize_key",
    "ShardedStore",
    "shard_index",
    "save_store",
    "open_store",
]

STORE_MAGIC = "CQS1"
STORE_FORMAT_VERSION = 1
#: The writable, versioned store layer (see :mod:`repro.store.writable`):
#: a ``CQS2`` manifest adds a generation counter, per-record versions,
#: and tombstones on top of the ``CQS1`` layout.  Shard files are
#: unchanged ``CQL1`` containers either way.
STORE_MAGIC_V2 = "CQS2"
STORE_FORMAT_VERSION_V2 = 2
MANIFEST_NAME = "manifest.json"

_GEN_MANIFEST_RE = re.compile(r"^manifest-(\d{10})\.json$")


def generation_manifest_name(generation: int) -> str:
    """The manifest file name for one committed CQS2 generation."""
    if generation < 1:
        raise StoreError(f"generation must be >= 1, got {generation}")
    return f"manifest-{generation:010d}.json"


def list_generation_manifests(root: pathlib.Path) -> List[Tuple[int, pathlib.Path]]:
    """All CQS2 generation manifests under ``root``, newest first."""
    found = []
    for path in root.glob("manifest-*.json"):
        match = _GEN_MANIFEST_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    found.sort(key=lambda pair: pair[0], reverse=True)
    return found

_Key = Tuple[str, Tuple[int, ...]]


def normalize_key(gate: str, qubits: Sequence[int]) -> _Key:
    """Canonical channel key: every layer of the store agrees on this."""
    return (gate, tuple(int(q) for q in qubits))


def shard_index(gate: str, qubits: Sequence[int], n_shards: int) -> int:
    """Stable shard assignment for one channel key.

    Uses CRC-32 over the canonical ``"gate|q0,q1"`` spelling so the
    mapping is identical across Python processes, platforms, and hash
    randomization -- a request router does not need the manifest to
    know where a pulse lives.
    """
    if n_shards < 1:
        raise StoreError(f"n_shards must be >= 1, got {n_shards}")
    gate, qubits = normalize_key(gate, qubits)
    key = f"{gate}|{','.join(str(q) for q in qubits)}".encode("utf-8")
    return zlib.crc32(key) % n_shards


@dataclass(frozen=True, slots=True)
class StoreRecord:
    """One manifest index row: where a pulse lives and its metadata.

    ``version`` is the record's logical version under the CQS2
    writable layer: 1 for every record of a freshly saved (CQS1)
    store, bumped on each re-put by :class:`repro.store.writable.StoreWriter`.
    Caches invalidate on ``(key, version)`` change at generation
    adoption.
    """

    gate: str
    qubits: Tuple[int, ...]
    shard: int
    offset: int
    length: int
    mse: float
    threshold: float
    version: int = 1


@dataclass(frozen=True)
class StoreHandle:
    """A picklable recipe for reopening a store in another process.

    A :class:`ShardedStore` itself cannot cross a process boundary (it
    owns mmap handles and locks), but opening one is cheap -- the
    manifest is the only eager read.  The handle carries just the store
    directory and the pool budget, so a decode worker
    (:class:`repro.serve_net.workers.DecodePool`) can be handed one
    through ``multiprocessing`` and open its *own* read-only view with
    its own :class:`_MmapPool`.
    """

    path: str
    max_open_shards: int = 8

    def open(self) -> "ShardedStore":
        """Open an independent read handle on the store directory."""
        return ShardedStore.open(self.path, self.max_open_shards)


def _shard_file_name(shard: int) -> str:
    return f"shard-{shard:04d}.cql"


def save_store(
    compiled,
    path: Union[str, pathlib.Path],
    n_shards: int = 4,
) -> "ShardedStore":
    """Write a compiled library as a CQS1 sharded store directory.

    Args:
        compiled: A :class:`~repro.core.compiler.CompressedPulseLibrary`.
        path: Store directory to create (conventionally ``*.cqs``).
            Created if missing; an existing manifest is overwritten.
        n_shards: Shard file count.  More shards mean smaller fetch
            units and more single-flight parallelism; empty shards are
            legal (they serialize as zero-entry containers).

    Returns:
        The opened :class:`ShardedStore` (reads go through the same
        code path every other client uses, so a just-written store is
        verified openable).
    """
    if n_shards < 1:
        raise StoreError(f"n_shards must be >= 1, got {n_shards}")
    if len(compiled) == 0:
        raise StoreError("cannot store an empty compressed library")
    out = pathlib.Path(path)
    out.mkdir(parents=True, exist_ok=True)

    by_shard: Dict[int, List[Tuple[_Key, object]]] = {
        shard: [] for shard in range(n_shards)
    }
    for (gate, qubits), result in compiled:
        key = normalize_key(gate, qubits)
        by_shard[shard_index(*key, n_shards)].append((key, result))

    shard_table: List[Dict] = []
    index: List[Dict] = []
    for shard in range(n_shards):
        entries = tuple(
            LibraryEntry(
                gate=key[0],
                qubits=key[1],
                mse=result.mse,
                threshold=result.threshold,
                compressed=result.compressed,
            )
            for key, result in by_shard[shard]
        )
        blob, spans = serialize_library_indexed(
            LibraryBitstream(
                device_name=compiled.device_name,
                window_size=compiled.window_size,
                variant=compiled.variant,
                entries=entries,
            )
        )
        file_name = _shard_file_name(shard)
        atomic_write(out / file_name, blob)
        shard_table.append(
            {"file": file_name, "n_entries": len(entries), "n_bytes": len(blob)}
        )
        for (key, result), span in zip(by_shard[shard], spans):
            index.append(
                {
                    "gate": key[0],
                    "qubits": list(key[1]),
                    "shard": shard,
                    "offset": span.offset,
                    "length": span.length,
                    "mse": result.mse,
                    "threshold": result.threshold,
                }
            )

    # Overwriting an existing store must not leave stale state behind
    # that would outrank or corrupt the fresh save: extra base shard
    # files from a wider layout, staged CQS2 shard files, *newer*
    # generation manifests (which open() would prefer over this save),
    # and orphaned publish temp files all go.
    live = {row["file"] for row in shard_table}
    for stale in out.glob("shard-[0-9][0-9][0-9][0-9].cql"):
        if stale.name not in live:
            stale.unlink()
    for stale in out.glob("shard-g*.cql"):
        stale.unlink()
    for _gen, stale in list_generation_manifests(out):
        stale.unlink()
    for orphan in out.glob("*.tmp-*"):
        orphan.unlink(missing_ok=True)

    manifest = {
        "magic": STORE_MAGIC,
        "format_version": STORE_FORMAT_VERSION,
        "device_name": compiled.device_name,
        "variant": compiled.variant,
        "window_size": compiled.window_size,
        "n_shards": n_shards,
        "n_entries": len(compiled),
        "shards": shard_table,
        "entries": index,
    }
    atomic_write(out / MANIFEST_NAME, json.dumps(manifest, indent=1) + "\n")
    return ShardedStore.open(out)


class _MmapPool:
    """Bounded, thread-safe pool of open shard mmaps.

    Replaces the old one-``open``-per-read pattern: each shard file is
    opened and memory-mapped at most once while resident, and record
    reads become zero-copy memoryview slices of the mapping.  At most
    ``max_open`` mappings stay resident (least-recently used shards are
    released first), so a thousand-shard store never holds a thousand
    file descriptors.

    ``close()`` drops every cached mapping.  A mapping whose buffer is
    still exported to a live view cannot be unmapped (Python raises
    ``BufferError``); the pool then simply drops its reference and the
    OS reclaims the mapping when the last view dies -- release is
    deterministic in the common case and never blocks or corrupts a
    concurrent reader.

    ``fault_hook`` is the chaos harness's low-level injection point
    (see :mod:`repro.chaos`): when set, it is called as
    ``hook("view", shard)`` on every read (outside the pool lock, so a
    slow-I/O hook delays only its own reader) and ``hook("map", shard)``
    right before a shard file is mapped -- an ``OSError`` raised there
    takes the exact same translation path as a real failed ``mmap`` and
    surfaces as a typed :class:`~repro.errors.StoreError`.  ``None``
    (the default) costs one attribute read per view.
    """

    def __init__(
        self,
        paths: Tuple[pathlib.Path, ...],
        max_open: int,
        fault_hook: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if max_open < 1:
            raise StoreError(f"max_open_shards must be >= 1, got {max_open}")
        self._paths = paths
        self._max_open = max_open
        self._lock = threading.Lock()
        self._maps: "OrderedDict[int, mmap.mmap]" = OrderedDict()
        self._ever_mapped: set = set()
        self.fault_hook = fault_hook

    @staticmethod
    def _release(mapping: mmap.mmap) -> None:
        try:
            mapping.close()
        except BufferError:
            # A live view still borrows the buffer; dropping our
            # reference lets the OS reclaim it when the view dies.
            pass

    def view(self, shard: int) -> memoryview:
        """Zero-copy view over one whole shard file (mapped on demand)."""
        hook = self.fault_hook
        if hook is not None:
            hook("view", shard)
        with self._lock:
            mapping = self._maps.get(shard)
            if mapping is None:
                path = self._paths[shard]
                try:
                    if hook is not None:
                        hook("map", shard)
                    with path.open("rb") as handle:
                        # mmap dups the descriptor, so the handle can
                        # close immediately; the pool caps mappings,
                        # not transient opens.
                        mapping = mmap.mmap(
                            handle.fileno(), 0, access=mmap.ACCESS_READ
                        )
                except (OSError, ValueError) as exc:
                    raise StoreError(
                        f"cannot map shard file {path}: {exc}"
                    ) from None
                # Resolved at event time so a swapped default registry
                # (the overhead bench's disabled leg) takes effect;
                # mapping is rare, the lookup cost is noise.
                registry = default_registry()
                if shard in self._ever_mapped:
                    registry.counter("store.mmap_reopens").inc()
                else:
                    registry.counter("store.mmap_opens").inc()
                    self._ever_mapped.add(shard)
                self._maps[shard] = mapping
                while len(self._maps) > self._max_open:
                    _stale, old = self._maps.popitem(last=False)
                    self._release(old)
            else:
                self._maps.move_to_end(shard)
            return memoryview(mapping)

    @property
    def open_count(self) -> int:
        with self._lock:
            return len(self._maps)

    def close(self) -> None:
        with self._lock:
            maps, self._maps = list(self._maps.values()), OrderedDict()
        for mapping in maps:
            self._release(mapping)


class ShardedStore:
    """Read-side handle on a CQS1 store: lazy, offset-indexed access.

    Opening a store reads and validates only the manifest; pulse bytes
    stay on disk until :meth:`read_record` (one zero-copy mmap view per
    pulse) or :meth:`read_shard` / :meth:`load_library` (eager paths)
    ask for them.  The object is safe to share across threads; call
    :meth:`close` (or use the store as a context manager) to release
    the mmap pool deterministically -- reads after ``close`` reopen on
    demand.  See :class:`repro.store.PulseCache` and
    :class:`repro.store.PulseServer` for the decoded-cache and
    concurrent front ends.
    """

    def __init__(
        self,
        path: pathlib.Path,
        device_name: str,
        variant: str,
        window_size: int,
        n_shards: int,
        shard_files: Tuple[str, ...],
        index: Dict[_Key, StoreRecord],
        max_open_shards: int = 8,
        generation: int = 0,
        tombstones: Optional[Dict[_Key, int]] = None,
    ) -> None:
        self.path = path
        self.device_name = device_name
        self.variant = variant
        self.window_size = window_size
        # Hash-routing width (shard_index modulus).  A CQS2 store's
        # shard *table* can be wider: staged commit files append beyond
        # the base layout, so use ``shard_count`` to iterate files.
        self.n_shards = n_shards
        #: Committed CQS2 generation this handle is pinned to (0 for a
        #: plain CQS1 store).  The mmap pool below maps exactly this
        #: generation's files, so reads stay snapshot-consistent while
        #: a writer publishes newer generations into the directory.
        self.generation = generation
        #: Deleted keys -> the version at which they were deleted.
        self.tombstones: Dict[_Key, int] = dict(tombstones or {})
        self._shard_files = shard_files
        self._index = index
        #: Window layouts of this snapshot's records, filled by their
        #: first fused decode and verified on every later one (see
        #: :class:`repro.compression.fastpath.RecordLayout`).  They die
        #: with the snapshot: a refreshed store is a new object.
        #: Concurrent fills may race on an entry; both write a layout
        #: the walk produced, and every use re-verifies it.
        self._layouts: Dict[_Key, RecordLayout] = {}
        self._pool = _MmapPool(
            tuple(path / name for name in shard_files),
            max_open=min(max_open_shards, max(1, len(shard_files))),
        )

    def handle(self) -> StoreHandle:
        """A picklable :class:`StoreHandle` for this store directory."""
        return StoreHandle(
            path=str(self.path), max_open_shards=self._pool._max_open
        )

    @property
    def io_fault_hook(self) -> Optional[Callable[[str, int], None]]:
        """The mmap pool's chaos injection hook (see :class:`_MmapPool`).

        Settable; :class:`repro.chaos.FaultyStore` installs its fault
        plan here to reach the map/read path without subclassing.
        """
        return self._pool.fault_hook

    @io_fault_hook.setter
    def io_fault_hook(self, hook: Optional[Callable[[str, int], None]]) -> None:
        self._pool.fault_hook = hook

    # -- opening -------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, pathlib.Path],
        max_open_shards: int = 8,
    ) -> "ShardedStore":
        """Open a store directory, validating its manifest and layout.

        Recovery-on-open: CQS2 generation manifests are tried newest
        first, falling back to the legacy ``manifest.json`` (generation
        0).  The first candidate that fully validates -- parse, magic,
        shard files present at the recorded sizes, spans in range --
        wins, so a crash that left a torn temp manifest or an orphaned
        staged shard reopens as the newest *committed* generation,
        never a hybrid.

        Args:
            path: The ``*.cqs`` store directory.
            max_open_shards: Upper bound on concurrently resident shard
                mmaps (the handle-pool budget).
        """
        root = pathlib.Path(path)
        candidates: List[Tuple[int, pathlib.Path]] = list_generation_manifests(root)
        legacy = root / MANIFEST_NAME
        if legacy.is_file() or not candidates:
            candidates.append((0, legacy))
        if not candidates[0][1].is_file() and len(candidates) == 1:
            raise StoreError(f"no CQS1 manifest at {legacy}")
        failures: List[str] = []
        for _generation, manifest_path in candidates:
            try:
                return cls._open_manifest(root, manifest_path, max_open_shards)
            except StoreError as exc:
                failures.append(f"{manifest_path.name}: {exc}")
        if len(failures) == 1:
            raise StoreError(failures[0].split(": ", 1)[1])
        raise StoreError(
            "no openable manifest generation in "
            f"{root}: " + "; ".join(failures)
        )

    @classmethod
    def _open_manifest(
        cls,
        root: pathlib.Path,
        manifest_path: pathlib.Path,
        max_open_shards: int,
    ) -> "ShardedStore":
        """Parse and fully validate one manifest candidate (CQS1 or CQS2)."""
        if not manifest_path.is_file():
            raise StoreError(f"no CQS1 manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreError(f"corrupt CQS1 manifest: {exc}") from None
        if not isinstance(manifest, dict):
            raise StoreError(f"{manifest_path} is not a CQS1 manifest (bad magic)")
        magic = manifest.get("magic")
        if magic == STORE_MAGIC_V2:
            return cls._open_v2(root, manifest_path, manifest, max_open_shards)
        if magic != STORE_MAGIC:
            raise StoreError(f"{manifest_path} is not a CQS1 manifest (bad magic)")
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise StoreError(
                f"unsupported CQS1 format version {version!r} "
                f"(this build reads version {STORE_FORMAT_VERSION})"
            )
        try:
            n_shards = int(manifest["n_shards"])
            shard_table = manifest["shards"]
            device_name = manifest["device_name"]
            variant = manifest["variant"]
            window_size = int(manifest["window_size"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed CQS1 manifest: {exc!r}") from None
        if n_shards < 1 or len(shard_table) != n_shards:
            raise StoreError(
                f"manifest declares {n_shards} shards but lists "
                f"{len(shard_table)} shard files"
            )
        shard_files, shard_sizes = cls._validate_shard_table(root, shard_table)
        index = cls._validate_entries(
            manifest, shard_sizes, versioned=False
        )
        return cls(
            path=root,
            device_name=device_name,
            variant=variant,
            window_size=window_size,
            n_shards=n_shards,
            shard_files=tuple(shard_files),
            index=index,
            max_open_shards=max_open_shards,
            generation=0,
        )

    @classmethod
    def _open_v2(
        cls,
        root: pathlib.Path,
        manifest_path: pathlib.Path,
        manifest: Dict,
        max_open_shards: int,
    ) -> "ShardedStore":
        """Validate one CQS2 (writable-layer) generation manifest.

        Unknown top-level fields are tolerated (forward compatibility);
        structural damage -- duplicate entry keys, a tombstone colliding
        with a live entry, bad versions or generations -- is a typed
        :class:`StoreError`.
        """
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION_V2:
            raise StoreError(
                f"unsupported CQS2 format version {version!r} "
                f"(this build reads version {STORE_FORMAT_VERSION_V2})"
            )
        try:
            generation = int(manifest["generation"])
            n_shards = int(manifest["n_shards"])
            shard_table = manifest["shards"]
            device_name = manifest["device_name"]
            variant = manifest["variant"]
            window_size = int(manifest["window_size"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed CQS2 manifest: {exc!r}") from None
        if generation < 1:
            raise StoreError(f"CQS2 generation must be >= 1, got {generation}")
        if n_shards < 1:
            raise StoreError(f"n_shards must be >= 1, got {n_shards}")
        if not isinstance(shard_table, list) or len(shard_table) < 1:
            raise StoreError("CQS2 manifest lists no shard files")
        shard_files, shard_sizes = cls._validate_shard_table(root, shard_table)
        index = cls._validate_entries(manifest, shard_sizes, versioned=True)
        tombstones: Dict[_Key, int] = {}
        for row in manifest.get("tombstones", []):
            try:
                key = (str(row["gate"]), tuple(int(q) for q in row["qubits"]))
                dead_version = int(row["version"])
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"malformed tombstone row: {exc!r}") from None
            if dead_version < 1:
                raise StoreError(
                    f"tombstone for {key} has version {dead_version} (< 1)"
                )
            if key in index:
                raise StoreError(
                    f"tombstone for {key[0]!r} {key[1]} collides with a "
                    "live manifest entry"
                )
            if key in tombstones:
                raise StoreError(f"duplicate tombstone for {key[0]!r} {key[1]}")
            tombstones[key] = dead_version
        return cls(
            path=root,
            device_name=device_name,
            variant=variant,
            window_size=window_size,
            n_shards=n_shards,
            shard_files=tuple(shard_files),
            index=index,
            max_open_shards=max_open_shards,
            generation=generation,
            tombstones=tombstones,
        )

    @staticmethod
    def _validate_shard_table(
        root: pathlib.Path, shard_table: List
    ) -> Tuple[List[str], List[int]]:
        """Check every listed shard file exists at its recorded size."""
        shard_sizes: List[int] = []
        shard_files: List[str] = []
        seen: set = set()
        for shard, row in enumerate(shard_table):
            try:
                file_name = str(row["file"])
                recorded_bytes = int(row["n_bytes"])
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(
                    f"malformed shard table row {shard}: {exc!r}"
                ) from None
            if file_name in seen:
                raise StoreError(f"duplicate shard file {file_name!r} in manifest")
            seen.add(file_name)
            shard_path = root / file_name
            if not shard_path.is_file():
                raise StoreError(f"missing shard file {shard_path}")
            actual = shard_path.stat().st_size
            if actual != recorded_bytes:
                raise StoreError(
                    f"shard {shard} is {actual} bytes on disk, manifest "
                    f"records {recorded_bytes}"
                )
            shard_sizes.append(actual)
            shard_files.append(file_name)
        return shard_files, shard_sizes

    @staticmethod
    def _validate_entries(
        manifest: Dict, shard_sizes: List[int], versioned: bool
    ) -> Dict[_Key, StoreRecord]:
        """Range-check and index the manifest's entry rows."""
        try:
            entry_rows = manifest["entries"]
        except KeyError as exc:
            raise StoreError(f"malformed CQS1 manifest: {exc!r}") from None
        index: Dict[_Key, StoreRecord] = {}
        n_files = len(shard_sizes)
        for row in entry_rows:
            try:
                record = StoreRecord(
                    gate=row["gate"],
                    qubits=tuple(int(q) for q in row["qubits"]),
                    shard=int(row["shard"]),
                    offset=int(row["offset"]),
                    length=int(row["length"]),
                    mse=float(row["mse"]),
                    threshold=float(row["threshold"]),
                    version=int(row["version"]) if versioned else 1,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"malformed manifest entry: {exc!r}") from None
            if record.version < 1:
                raise StoreError(
                    f"entry {record.gate!r} {record.qubits} has version "
                    f"{record.version} (< 1)"
                )
            if not 0 <= record.shard < n_files:
                raise StoreError(
                    f"entry {record.gate!r} {record.qubits} names shard "
                    f"{record.shard} of {n_files}"
                )
            if record.offset < 0 or record.length < 1 or (
                record.offset + record.length > shard_sizes[record.shard]
            ):
                raise StoreError(
                    f"entry {record.gate!r} {record.qubits} span "
                    f"[{record.offset}, {record.offset + record.length}) "
                    f"overruns shard {record.shard} "
                    f"({shard_sizes[record.shard]} bytes)"
                )
            key = (record.gate, record.qubits)
            if key in index:
                raise StoreError(
                    f"duplicate manifest entry for {record.gate!r} "
                    f"{record.qubits}"
                )
            index[key] = record
        try:
            declared_entries = int(manifest.get("n_entries", len(index)))
        except (TypeError, ValueError) as exc:
            raise StoreError(f"malformed CQS1 manifest: {exc!r}") from None
        if len(index) != declared_entries:
            raise StoreError(
                f"manifest declares {declared_entries} entries, "
                f"index holds {len(index)}"
            )
        return index

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release every pooled shard mapping (idempotent).

        The store stays usable: a later read simply remaps its shard.
        This keeps ``close`` safe for shared-store setups while still
        releasing descriptors deterministically.
        """
        self._pool.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def open_shard_handles(self) -> int:
        """Currently resident shard mmaps (bounded by the pool)."""
        return self._pool.open_count

    @property
    def shard_count(self) -> int:
        """Shard *files* in this generation's table.

        Equal to ``n_shards`` for a plain CQS1 store; a CQS2 generation
        appends staged commit files beyond the hash-routing width, so
        iterate files with this, route keys with ``n_shards``.
        """
        return len(self._shard_files)

    # -- inventory -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: _Key) -> bool:
        return normalize_key(*key) in self._index

    def keys(self) -> List[_Key]:
        return list(self._index.keys())

    def shard_of(self, gate: str, qubits: Sequence[int]) -> int:
        """The shard holding one pulse (hash-routed, manifest-checked)."""
        return self.record_info(gate, qubits).shard

    def record_info(self, gate: str, qubits: Sequence[int]) -> StoreRecord:
        """The manifest index row for one pulse."""
        key = normalize_key(gate, qubits)
        try:
            return self._index[key]
        except KeyError:
            raise StoreError(
                f"store {self.device_name!r} holds no pulse for gate "
                f"{key[0]!r} on qubits {key[1]}"
            ) from None

    def shard_path(self, shard: int) -> pathlib.Path:
        if not 0 <= shard < self.shard_count:
            raise StoreError(f"shard {shard} out of range [0, {self.shard_count})")
        return self.path / self._shard_files[shard]

    # -- demand reads --------------------------------------------------------

    def _read_span(self, info: StoreRecord) -> memoryview:
        """Zero-copy view of one record span out of the mmap pool.

        Span bounds were validated against the recorded shard sizes at
        open time; a shard file that shrank since raises StoreError.
        """
        view = self._pool.view(info.shard)
        if info.offset + info.length > len(view):
            raise StoreError(
                f"short read from shard {info.shard}: wanted {info.length} "
                f"bytes at {info.offset}, had {len(view)}"
            )
        return view[info.offset : info.offset + info.length]

    @staticmethod
    def _check_binding(key: _Key, gate: str, qubits: Tuple[int, ...]) -> None:
        if (gate, qubits) != key:
            raise StoreError(
                f"record at shard offset for {key} is bound to "
                f"({gate!r}, {qubits})"
            )

    def _spans_in_read_order(
        self, requests: Iterable[Tuple[str, Sequence[int]]]
    ) -> Tuple[List[_Key], List[_Key]]:
        """Resolve requests to (request-order keys, shard/offset-order keys)."""
        keys = [normalize_key(*request) for request in requests]
        unique = list(dict.fromkeys(keys))
        infos = {key: self.record_info(*key) for key in unique}
        unique.sort(key=lambda k: (infos[k].shard, infos[k].offset))
        return keys, unique

    def read_record_bytes(self, gate: str, qubits: Sequence[int]) -> bytes:
        """Raw ``CQW1`` bytes of one pulse (copied out of the mmap pool)."""
        return bytes(self._read_span(self.record_info(gate, qubits)))

    def read_record(self, gate: str, qubits: Sequence[int]) -> CompressedWaveform:
        """Parse one pulse's compressed record without touching its shard.

        The returned waveform is still compressed; decode it through
        :meth:`decode_record` / :meth:`decode_many` (the fused fast
        path) or :func:`repro.compression.pipeline.decompress_waveform`.
        """
        return self.read_many([(gate, qubits)])[0]

    def read_many(
        self, requests: Iterable[Tuple[str, Sequence[int]]]
    ) -> List[CompressedWaveform]:
        """Read several records, grouping and ordering reads per shard.

        Reads are zero-copy span views served by the mmap pool in
        (shard, ascending offset) order -- sequential page touches --
        then parsed through the vectorized engine and returned in
        request order.
        """
        keys, unique = self._spans_in_read_order(requests)
        parsed: Dict[_Key, CompressedWaveform] = {}
        for key in unique:
            compressed = parse_waveform(self._read_span(self._index[key]))
            self._check_binding(key, compressed.gate, compressed.qubits)
            parsed[key] = compressed
        return [parsed[key] for key in keys]

    def decode_record(self, gate: str, qubits: Sequence[int]) -> Waveform:
        """Fused cold read: record bytes straight to a decoded waveform."""
        return self.decode_many([(gate, qubits)])[0]

    def decode_many(
        self, requests: Iterable[Tuple[str, Sequence[int]]]
    ) -> List[Waveform]:
        """Fused batch decode: mmap span views -> decoded waveforms.

        The serving cold-miss fast path: spans are read in (shard,
        offset) order as zero-copy views and pushed through
        :func:`repro.compression.fastpath.decode_records` -- one
        grouped inverse kernel per (codec, window size), no per-window
        Python objects.  Output is bit-identical to
        ``decompress_waveform(self.read_record(...))`` per request.
        """
        keys, unique = self._spans_in_read_order(requests)
        views = [self._read_span(self._index[key]) for key in unique]
        started = time.perf_counter()
        waveforms = self.decode_spans(unique, views) if views else []
        if views:
            registry = default_registry()
            registry.counter("store.decode_batches").inc()
            registry.counter("store.decode_pulses").inc(len(views))
            registry.histogram("store.decode_batch_pulses", DEFAULT_SIZE_BOUNDS).observe(
                len(views)
            )
            registry.histogram("store.decode_seconds").observe(
                time.perf_counter() - started
            )
        decoded: Dict[_Key, Waveform] = {}
        for key, waveform in zip(unique, waveforms):
            self._check_binding(key, waveform.gate, waveform.qubits)
            decoded[key] = waveform
        return [decoded[key] for key in keys]

    def decode_spans(self, keys: Sequence[_Key], spans: Sequence) -> List[Waveform]:
        """Fused decode of record bytes read for ``keys``, via the layouts.

        ``spans[i]`` holds the ``CQW1`` bytes of ``keys[i]`` (normally
        this store's own mmap views; the chaos harness passes damaged
        copies).  Each record's cached layout, if any, is offered to
        :func:`repro.compression.fastpath.decode_records`, which checks
        it against the bytes and walks the batch instead on any
        mismatch; the layouts it walked are kept for the next decode.
        """
        memo = self._layouts
        layouts = [memo.get(key) for key in keys]
        waveforms = decode_records(spans, layouts)
        for key, layout in zip(keys, layouts):
            memo[key] = layout
        return waveforms

    # -- eager paths ---------------------------------------------------------

    def _shard_view(self, shard: int) -> memoryview:
        """Whole-shard zero-copy view (range-checked, pool-served)."""
        if not 0 <= shard < self.shard_count:
            raise StoreError(f"shard {shard} out of range [0, {self.shard_count})")
        return self._pool.view(shard)

    def read_shard(self, shard: int) -> LibraryBitstream:
        """Parse one whole shard as its ``CQL1`` container."""
        try:
            return parse_library(self._shard_view(shard))
        except CompressionError as exc:
            raise StoreError(f"corrupt shard {shard}: {exc}") from None

    def decode_shard(self, shard: int) -> List[Tuple[_Key, Waveform]]:
        """Fused decode of one whole shard, in container order.

        Goes bytes -> tag/payload arrays -> grouped inverse kernels
        without building per-window objects; used by
        :meth:`repro.store.cache.PulseCache.prewarm` and anything else
        that wants a shard's full decoded contents at cold-miss speed.
        """
        try:
            rows = decode_library_bytes(self._shard_view(shard))
        except CompressionError as exc:
            raise StoreError(f"corrupt shard {shard}: {exc}") from None
        return [
            (normalize_key(gate, qubits), waveform)
            for gate, qubits, waveform in rows
        ]

    def load_library(self):
        """Eagerly load and decode the whole store.

        Returns a :class:`~repro.core.compiler.CompressedPulseLibrary`
        interchangeable with one loaded from the monolithic ``CQL1``
        file -- the compatibility bridge for consumers that still want
        everything decoded up front.
        """
        from repro.compression.batch import decompress_batch
        from repro.compression.pipeline import CompressionResult
        from repro.core.compiler import CompressedPulseLibrary

        library = CompressedPulseLibrary(
            device_name=self.device_name,
            window_size=self.window_size,
            variant=self.variant,
        )
        if self.generation > 0:
            # A CQS2 generation's shard files still hold superseded and
            # tombstoned record bytes; only the manifest index is truth.
            keys = self.keys()
            compressed = self.read_many(keys)
            if keys:
                reconstructed = decompress_batch(compressed)
                for key, parsed, waveform in zip(keys, compressed, reconstructed):
                    info = self._index[key]
                    library.add(
                        key,
                        CompressionResult(
                            compressed=parsed,
                            reconstructed=waveform,
                            mse=info.mse,
                            threshold=info.threshold,
                        ),
                    )
            return library
        entries: List[LibraryEntry] = []
        for shard in range(self.shard_count):
            entries.extend(self.read_shard(shard).entries)
        if self.generation == 0 and len(entries) != len(self._index):
            raise StoreError(
                f"shards hold {len(entries)} entries, manifest indexes "
                f"{len(self._index)}"
            )
        if entries:
            reconstructed = decompress_batch([e.compressed for e in entries])
            for entry, waveform in zip(entries, reconstructed):
                library.add(
                    (entry.gate, entry.qubits),
                    CompressionResult(
                        compressed=entry.compressed,
                        reconstructed=waveform,
                        mse=entry.mse,
                        threshold=entry.threshold,
                    ),
                )
        return library

    @property
    def total_shard_bytes(self) -> int:
        """Compressed on-disk footprint across all shard files."""
        return sum(
            self.shard_path(s).stat().st_size for s in range(self.shard_count)
        )

    def __repr__(self) -> str:
        return (
            f"ShardedStore({self.device_name!r}, variant={self.variant!r}, "
            f"n_shards={self.n_shards}, generation={self.generation}, "
            f"n_entries={len(self)})"
        )


def open_store(path: Union[str, pathlib.Path]) -> ShardedStore:
    """Open a CQS1 store directory (alias of :meth:`ShardedStore.open`)."""
    return ShardedStore.open(path)
