"""Caches for the evaluation service, and the one canonical JSON codec.

Both caches key on the *content* of an evaluation request — the
:class:`~repro.memsim.config.MachineConfig`, the stream tuple, and the
(normalized) :class:`~repro.memsim.config.DirectoryState`. The memo
cache uses the values' own hashes; the disk cache serializes the request
to canonical JSON and keys by its SHA-256. Results round-trip the disk
format bit-identically: Python's JSON encoder emits ``repr(float)``
(shortest round-tripping form), so every ``float`` survives exactly.

**One encoding.** :func:`encode` / :func:`decode` are the only
serialization of configs, streams, directories and column blocks: the
request digest hashes it, the disk cache stores it, and the cluster wire
(:mod:`repro.sweep.cluster.protocol`) and the serving layer's stream
objects speak it. Decoding walks the dataclass type hints and fails with
:class:`~repro.errors.SchemaError` only, so no input can execute code.

**Schema v2 — content-addressed column blocks.** A whole batch of
results is stored as one :class:`~repro.memsim.kernels.ResultColumns`
block file, content-addressed by the SHA-256 of its member request
digests, plus small per-prefix index shards mapping each request digest
to ``(block, row)``. A grid of hundreds of points becomes one block
write instead of hundreds of entry writes — the access-granularity
lesson of the source paper applied to the cache's own I/O. Both caches
store *references* into shared column batches wherever a batch exists;
per-point :class:`BandwidthResult` objects are materialized lazily as
views on delivery. Legacy v1 per-point entries are never read (a miss).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import os
import threading
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

try:  # pragma: no cover - always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import ConfigurationError, ReproError, SchemaError
from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.evaluation import BandwidthResult
from repro.memsim.kernels import COUNTER_COLUMNS, ResultColumns
from repro.memsim.spec import StreamSpec

#: One evaluation request: (config, streams, normalized directory).
CacheKey = tuple[MachineConfig, tuple[StreamSpec, ...], DirectoryState]

@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`~repro.sweep.EvaluationService`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total evaluation requests seen (count, not bytes)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from a cache, 0..1."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def describe(self) -> str:
        line = (
            f"evaluation cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate * 100.0:.1f}% hit rate)"
        )
        if self.disk_hits:
            line += f", {self.disk_hits} served from disk"
        return line


class Slot(list):
    """A memo place a grid reserved for a key no entry answered yet.

    :meth:`MemoCache.reserve_many` leaves one in the memo for each such
    key, and the grid fills it in place with the key's ``[columns, row]``
    reference (:meth:`MemoCache.fill_many`) once the row is computed, so
    the key is hashed once per grid. A filled slot *is* the memo entry;
    an empty one reads as a miss. A grid that stops early leaves its
    later slots empty, and whoever computes those keys next fills them.
    """

    __slots__ = ()


#: A cached result: either a standalone object or a row reference into a
#: shared column batch (materialized lazily via ``columns.view(row)``) —
#: a ``(columns, row)`` pair or a filled :class:`Slot`.
CacheValue = BandwidthResult | tuple[ResultColumns, int] | Slot


class MemoCache:
    """Thread-safe in-memory result store keyed by request content.

    Values are :data:`CacheValue`: a grid evaluation memoizes
    ``[columns, row]`` references into its shared batch so that priming
    a thousand-point sweep costs zero per-point object construction; the
    per-point path still stores plain results. The service materializes
    a reference to a view only when the entry is actually delivered.
    A key a grid has reserved and not yet filled holds an empty
    :class:`Slot`, which every read treats as a miss.
    """

    def __init__(self) -> None:
        self._results: dict[CacheKey, CacheValue] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """The number of keys an entry answers (empty slots excluded)."""
        with self._lock:
            return sum(map(bool, self._results.values()))

    def get(self, key: CacheKey) -> CacheValue | None:
        with self._lock:
            return self._results.get(key) or None

    def put(self, key: CacheKey, result: CacheValue) -> None:
        with self._lock:
            self._results[key] = result

    def setdefault(self, key: CacheKey, result: CacheValue) -> CacheValue:
        """Store ``result`` unless ``key`` is held; return what ``key`` holds.

        One hash per key: a disk hit fills the memo with it, learning
        from the returned value whether an earlier point already put the
        key there. An empty slot holds nothing, so ``result`` replaces it.
        """
        with self._lock:
            held = self._results.setdefault(key, result)
            if not held:
                self._results[key] = held = result
            return held

    def reserve_many(self, keys: Sequence[CacheKey]) -> list[CacheValue]:
        """What each of ``keys`` holds, under one lock, one hash per key.

        A key no entry answers holds an empty :class:`Slot` afterwards (a
        new one, or the one it already held), returned in its place: the
        same slot object for every copy of the key, so the caller can
        tell a repeat from its first copy by identity. A grid looks up
        all its points at once with this, and fills the slots of the keys
        it computes with :meth:`fill_many`.
        """
        with self._lock:
            reserve = self._results.setdefault
            return [reserve(key, Slot()) for key in keys]

    def fill_many(
        self, items: Iterable[tuple[Slot, tuple[ResultColumns, int]]]
    ) -> None:
        """Fill each still-empty slot with its ``(columns, row)``, under one lock.

        A slot filled meanwhile (another thread's grid computed the key
        first) keeps its reference, as :meth:`setdefault` would. Hashes
        nothing: a grid stores its computed rows with this.
        """
        with self._lock:
            for slot, ref in items:
                if not slot:
                    slot.extend(ref)

    def clear(self) -> None:
        with self._lock:
            self._results.clear()


# ----------------------------------------------------------------------
# canonical JSON codec (cache keys, disk blocks, cluster wire)
# ----------------------------------------------------------------------

#: JSON types each scalar hint accepts. ``bool`` is an ``int`` subclass
#: but never a count or a measure, so the numeric hints refuse it; a
#: ``float`` hint keeps a JSON integer as-is so it re-encodes unchanged.
_SCALARS: dict[type, tuple[type, ...]] = {
    bool: (bool,),
    int: (int,),
    float: (int, float),
    str: (str,),
}


#: Scalar types :func:`encode` passes through untouched.
_PLAIN = frozenset({bool, int, float, str, type(None)})


@functools.cache
def _fields(kind: type) -> tuple[str, ...] | None:
    """Field names of a dataclass type in declaration order, else ``None``."""
    if not dataclasses.is_dataclass(kind):
        return None
    return tuple(f.name for f in dataclasses.fields(kind))


@functools.cache
def _hints(kind: type) -> dict[str, object]:
    """Resolved type hints of a dataclass type's fields."""
    hints = typing.get_type_hints(kind)
    return {name: hints[name] for name in _fields(kind)}


def encode(value: object) -> object:
    """The canonical JSON value of a config, stream or directory tree.

    Dataclasses become objects of their fields, enums their ``.value``,
    tuples lists and frozensets sorted lists; scalars pass through, so
    every ``float`` keeps its exact ``repr``.
    """
    if type(value) in _PLAIN:
        return value
    names = _fields(type(value))
    if names is not None:
        return {name: encode(getattr(value, name)) for name in names}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, frozenset):
        return [encode(item) for item in sorted(value)]
    return value


def decode(hint: object, value: object) -> object:
    """Inverse of :func:`encode`: ``value`` as an instance of ``hint``.

    Walks the dataclass field hints, so a decoded config or stream is
    ``==`` to the encoded one and re-encodes byte-identically. ``hint``
    may also be a scalar, an enum, ``tuple[X, ...]``, a fixed tuple,
    ``frozenset[X]``, ``X | None``, or :class:`ResultColumns` (via
    :func:`columns_from_payload`). Any mismatch — an unknown or missing
    field, a wrong JSON type, a bad enum value, a value the type's own
    validation rejects — raises :class:`~repro.errors.SchemaError`.
    """
    return _decoder(hint)(value)


@functools.cache
def _decoder(hint: object) -> Callable[[object], object]:
    """The decoding function for ``hint``, built once per hint."""
    accepted = _SCALARS.get(hint)
    if accepted is not None:
        def scalar(value: object) -> object:
            if isinstance(value, accepted) and (hint is bool or type(value) is not bool):
                return value
            raise SchemaError(f"expected {hint.__name__}, got {value!r:.60}")

        return scalar
    if hint is ResultColumns:
        return columns_from_payload
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members = {member.value: member for member in hint}

        def member(value: object) -> object:
            try:
                return members[value]
            except (KeyError, TypeError):
                raise SchemaError(
                    f"bad {hint.__name__} value {value!r:.60}; expected one of "
                    f"{list(members)}"
                ) from None

        return member
    if isinstance(hint, type) and _fields(hint) is not None:
        fields = {name: _decoder(field) for name, field in _hints(hint).items()}

        def record(value: object) -> object:
            if not isinstance(value, dict):
                raise SchemaError(f"{hint.__name__} must be an object")
            kwargs = {}
            for name, item in value.items():
                field = fields.get(name)
                if field is None:
                    raise SchemaError(f"unknown {hint.__name__} field {name!r:.60}")
                kwargs[name] = field(item)
            try:
                return hint(**kwargs)
            except (ReproError, TypeError, ValueError) as exc:
                raise SchemaError(f"invalid {hint.__name__}: {exc}") from exc

        return record
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union or origin is types.UnionType:
        (inner,) = [_decoder(arg) for arg in args if arg is not type(None)]
        return lambda value: None if value is None else inner(value)
    if origin is tuple or origin is frozenset:
        homogeneous = origin is frozenset or (len(args) == 2 and args[1] is Ellipsis)
        items = [_decoder(arg) for arg in args[:1 if homogeneous else None]]

        def sequence(value: object) -> object:
            if not isinstance(value, list):
                raise SchemaError(f"expected a list, got {type(value).__name__}")
            if homogeneous:
                return origin(map(items[0], value))
            if len(value) != len(items):
                raise SchemaError(f"expected {len(items)} items, got {len(value)}")
            return tuple(item(entry) for item, entry in zip(items, value))

        return sequence
    raise SchemaError(f"no canonical decoding for {hint!r}")


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


@functools.lru_cache(maxsize=64)
def _config_hash(config: MachineConfig) -> "hashlib._Hash":
    """SHA-256 primed with ``{"config": <canonical config>, ``, once per config.

    ``sort_keys`` puts ``"config"`` first in every request's canonical
    text, so each digest copies this state instead of re-encoding and
    re-hashing the whole topology.
    """
    text = f'{{"config": {_canonical(encode(config))}, '
    return hashlib.sha256(text.encode("utf-8"))


def request_digest(
    config: MachineConfig,
    streams: tuple[StreamSpec, ...],
    directory: DirectoryState,
) -> str:
    """SHA-256 hex digest of the canonical JSON form of a request.

    The hashed text is ``_canonical({"config": ..., "directory": ...,
    "streams": ...})``; the config part comes from the per-config
    :func:`_config_hash` state.
    """
    digest = _config_hash(config).copy()
    digest.update(
        f'"directory": {json.dumps(sorted(directory.warm_pairs))}, '
        f'"streams": {_canonical([encode(s) for s in streams])}}}'.encode("utf-8")
    )
    return digest.hexdigest()


#: Disk schema identifier; bumping it orphans every existing entry.
CACHE_SCHEMA = "repro.sweep.cache/2"

_FLOATS = tuple[float, ...]
_NOTES = tuple[tuple[str, ...], ...]
_PAIRS = tuple[frozenset[tuple[int, int]] | None, ...]


def columns_to_payload(
    columns: ResultColumns,
    digests: Sequence[str] | None = None,
    *,
    specs: bool = True,
) -> dict[str, object]:
    """JSON-ready structure-of-arrays form of a column batch.

    Floats stay exact (``repr`` round-trip); ``digests``, when given,
    records which request digest each row answers — the load path
    cross-checks it so an index shard pointing at the wrong block (or a
    stale block) reads as a miss, never as a wrong result.

    ``specs=False`` leaves out the ``streams.specs`` column: the rows
    payload of a cluster ``result`` frame, whose receiver already holds
    the specs it shipped (:func:`columns_from_payload` with ``streams``).
    """
    streams: dict[str, object] = {
        "gbps": list(columns.gbps),
        "solo_gbps": list(columns.solo_gbps),
        "notes": [list(notes) for notes in columns.stream_notes],
    }
    if specs:
        streams["specs"] = [encode(spec) for spec in columns.specs]
    payload: dict[str, object] = {
        "schema": CACHE_SCHEMA,
        "offsets": list(columns.offsets),
        "streams": streams,
        "counters": {
            name: list(getattr(columns, name)) for name in COUNTER_COLUMNS
        },
        "counter_notes": [list(notes) for notes in columns.counter_notes],
        "directory_after": [
            None if state is None else sorted(state.warm_pairs)
            for state in columns.directory_after
        ],
    }
    if digests is not None:
        payload["digests"] = list(digests)
    return payload


def _member(obj: object, key: str, hint: object) -> object:
    """``obj[key]`` decoded as ``hint``; :class:`SchemaError` if absent."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing {key!r}")
    return decode(hint, obj[key])


def columns_from_payload(
    payload: object,
    streams: Sequence[tuple[StreamSpec, ...]] | None = None,
) -> ResultColumns:
    """Inverse of :func:`columns_to_payload`, validating the shape.

    With ``streams`` — each row's stream specs, which the receiver
    already holds — the payload is a rows payload
    (``columns_to_payload(..., specs=False)``): it must not carry
    ``streams.specs``, its offsets must give row ``k`` exactly
    ``len(streams[k])`` streams, and the spec column is built from
    ``streams``. Every other member is checked the same either way.

    Raises only :class:`~repro.errors.SchemaError`: for a wrong schema,
    a missing, extra or mistyped member, ragged columns, non-monotonic
    offsets, or offsets that disagree with ``streams``. The disk cache
    reads it as a miss; the cluster wire drops the worker that sent it.
    """
    if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA:
        raise SchemaError("not a repro.sweep.cache/2 column block")
    offsets = list(_member(payload, "offsets", tuple[int, ...]))
    if not offsets or offsets[0] != 0:
        raise SchemaError("offsets must start at 0")
    if any(b < a for a, b in zip(offsets, offsets[1:])):
        raise SchemaError("offsets must be non-decreasing")
    stream_columns = payload.get("streams")
    counters = payload.get("counters")
    columns = ResultColumns()
    columns.offsets = offsets
    if streams is None:
        columns.specs = list(_member(stream_columns, "specs", tuple[StreamSpec, ...]))
    else:
        if isinstance(stream_columns, dict) and "specs" in stream_columns:
            raise SchemaError("a rows payload carries no 'specs'")
        if offsets != [0, *itertools.accumulate(map(len, streams))]:
            raise SchemaError("offsets do not match the rows' stream counts")
        columns.specs = [spec for row in streams for spec in row]
    n = len(offsets) - 1
    total = offsets[-1]
    columns.gbps = list(_member(stream_columns, "gbps", _FLOATS))
    columns.solo_gbps = list(_member(stream_columns, "solo_gbps", _FLOATS))
    columns.stream_notes = list(_member(stream_columns, "notes", _NOTES))
    for name in ("specs", "gbps", "solo_gbps", "stream_notes"):
        if len(getattr(columns, name)) != total:
            raise SchemaError(f"stream column {name!r} does not match offsets")
    for name in COUNTER_COLUMNS:
        column = list(_member(counters, name, _FLOATS))
        if len(column) != n:
            raise SchemaError(f"counter column {name!r} does not match offsets")
        setattr(columns, name, column)
    columns.counter_notes = list(_member(payload, "counter_notes", _NOTES))
    columns.directory_after = [
        None if pairs is None else DirectoryState(pairs)
        for pairs in _member(payload, "directory_after", _PAIRS)
    ]
    if len(columns.counter_notes) != n or len(columns.directory_after) != n:
        raise SchemaError("per-point columns do not match offsets")
    columns._views = [None] * n
    return columns


def block_digest(digests: Iterable[str]) -> str:
    """Content address of a block: SHA-256 over its member digests.

    Deterministic in the digests alone, so re-computing the same batch
    rewrites the same block file (which is how a corrupted block heals).
    """
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def _read_shard(path: Path) -> dict[str, object]:
    """An index shard's entries; empty if missing, corrupt or foreign."""
    try:
        shard = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(shard, dict) or shard.get("schema") != CACHE_SCHEMA:
        return {}
    entries = shard.get("entries")
    return entries if isinstance(entries, dict) else {}


class DiskCache:
    """On-disk columnar result store (schema v2).

    Layout::

        <root>/blocks/<bd[:2]>/<bd>.json   one ResultColumns batch,
                                           content-addressed by
                                           :func:`block_digest`
        <root>/index/<digest[:2]>.json     shard mapping request digest
                                           -> [block digest, row]

    Entries written by a previous process are picked up transparently,
    which is what makes ``repro run --cache-dir`` useful across
    invocations. Corrupt, truncated, or legacy (v1 per-point, stored at
    ``<root>/<digest[:2]>/<digest>.json`` — never read) entries are
    treated as misses; recomputing writes the result as a column block.

    Loaded blocks are kept in memory so a sweep resolving hundreds of
    digests against one block parses it once.
    """

    SCHEMA = CACHE_SCHEMA

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cache directory {self.root} is not usable: {exc}"
            ) from exc
        #: block digest -> (columns, member request digests)
        self._blocks: dict[str, tuple[ResultColumns, list[str]]] = {}
        self._lock = threading.Lock()

    def _block_path(self, digest: str) -> Path:
        return self.root / "blocks" / digest[:2] / f"{digest}.json"

    def _index_path(self, digest: str) -> Path:
        return self.root / "index" / f"{digest[:2]}.json"

    @contextlib.contextmanager
    def _shard_lock(self, prefix: str) -> Iterator[None]:
        """Exclusive advisory lock for one index shard's read-merge-write.

        Shards are shared files: without the lock, two writers (processes
        sharing one cache directory, or threads) merging the same shard
        concurrently would each read the old shard and the last writer
        would silently drop the other's new entries (a lost update,
        surfacing as warm-run cache misses). ``flock`` is per-open-file,
        so threads and processes both serialize here; on platforms without ``fcntl`` the merge runs
        unlocked, degrading to the racy-but-atomic behavior.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        path = self.root / "index" / f".{prefix}.lock"
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            handle = open(path, "w", encoding="utf-8")
        except OSError as exc:  # pragma: no cover - permissions only
            raise ConfigurationError(
                f"could not lock cache index shard {path}: {exc}"
            ) from exc
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            handle.close()  # closing releases the flock

    def _load_block(self, digest: str) -> tuple[ResultColumns, list[str]] | None:
        with self._lock:
            cached = self._blocks.get(digest)
        if cached is not None:
            return cached
        try:
            payload = json.loads(self._block_path(digest).read_text(encoding="utf-8"))
            columns = columns_from_payload(payload)
            members = list(_member(payload, "digests", tuple[str, ...]))
        except (OSError, ValueError, SchemaError):
            return None
        if len(members) != len(columns):
            return None
        loaded = (columns, members)
        with self._lock:
            self._blocks[digest] = loaded
        return loaded

    def get_ref(self, digest: str) -> tuple[ResultColumns, int] | None:
        """Resolve a request digest to ``(columns, row)``, or a miss.

        The row's recorded digest must match the request's: an index
        shard pointing into the wrong or stale block is a miss.
        """
        entry = _read_shard(self._index_path(digest)).get(digest)
        if entry is None:
            return None
        try:
            block, row = decode(tuple[str, int], entry)
        except SchemaError:
            return None
        loaded = self._load_block(block)
        if loaded is None:
            return None
        columns, members = loaded
        if not 0 <= row < len(columns) or members[row] != digest:
            return None
        return columns, row

    def put(self, digest: str, result: BandwidthResult) -> None:
        """Store one result (a single-row block)."""
        self.put_columns([digest], ResultColumns.from_results([result]))

    def put_columns(self, digests: Sequence[str], columns: ResultColumns) -> None:
        """Store a whole batch as one content-addressed block.

        One block write plus one index-shard rewrite per distinct digest
        prefix — for a dense sweep axis that is two or three files
        instead of hundreds. Writes are tmp-then-replace atomic, so
        concurrent readers (other worker processes) never see a torn
        entry; index shards merge read-modify-write under a per-shard
        advisory lock (:meth:`_shard_lock`), so concurrent writers
        union their entries instead of losing the race.
        """
        if not digests:
            return
        if len(digests) != len(columns):
            raise ConfigurationError(
                f"{len(digests)} digests for {len(columns)} column rows"
            )
        block = block_digest(digests)
        block_path = self._block_path(block)
        block_path.parent.mkdir(parents=True, exist_ok=True)
        # pid-unique tmp name: concurrent writers of the same block must
        # not interleave writes into one shared tmp file.
        tmp = block_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(
            _canonical(columns_to_payload(columns, digests)), encoding="utf-8"
        )
        tmp.replace(block_path)
        with self._lock:
            self._blocks[block] = (columns, list(digests))
        by_shard: dict[str, dict[str, list[object]]] = {}
        for row, digest in enumerate(digests):
            by_shard.setdefault(digest[:2], {})[digest] = [block, row]
        for prefix, entries in by_shard.items():
            path = self._index_path(prefix)
            with self._shard_lock(prefix):
                merged = _read_shard(path)
                merged.update(entries)
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(
                    _canonical({"schema": CACHE_SCHEMA, "entries": merged}),
                    encoding="utf-8",
                )
                tmp.replace(path)
