"""Dash-like PMEM-optimized hash index (Lu et al., VLDB 2020).

The paper's handcrafted SSB uses Dash, a segmented extendible hash table
designed around Optane's 256 B access granularity: every probe touches
one (rarely two) 256 B buckets, fingerprints avoid key comparisons, and
a small per-segment stash absorbs overflow without chains.

This implementation keeps Dash's structure — a directory of segments,
each segment an array of 256 B buckets plus stash buckets, fingerprint-
filtered probing of a target bucket and its neighbour, balanced
insertion, and segment splits with directory doubling — and instruments
every operation with the PMEM line traffic it would cause, which the SSB
cost model prices via :mod:`repro.memsim`.

Single-key ``insert``/``get`` follow the structure literally and are the
oracle the bulk paths are tested against. The bulk paths used by the
query engine produce the same layout, results and traffic statistics
without looping them: ``bulk_insert`` hashes every key in one vectorised
call and replays the insertion sequence (target bucket, neighbour, stash,
split) over plain-int fill lists before writing the segments back once.

``bulk_probe`` relies on a probe's outcome being a fixed function of the
built index: a stored key is found in its target bucket (one line read),
its neighbour (two) or the stash (two plus a stash read), and a miss
always costs two plus a stash read. The first ``bulk_probe`` after a
build resolves the stored keys once into a :class:`LookupTable` of value
and cost class per key; every probe is then a gather, and its traffic a
count of keys per class. Any insert drops the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.memsim.constants import OPTANE_LINE

#: Slots per 256 B bucket: 14 records of (fingerprint + key/value refs),
#: matching Dash's bucket layout.
BUCKET_SLOTS: int = 14

#: Regular buckets per segment.
BUCKETS_PER_SEGMENT: int = 64

#: Stash buckets per segment.
STASH_BUCKETS: int = 4

_STASH_SLOTS: int = STASH_BUCKETS * BUCKET_SLOTS

_LINE_SLOTS: int = BUCKETS_PER_SEGMENT * BUCKET_SLOTS

#: Cells of one segment in a bulk build's write-back: its bucket slots,
#: then its stash.
_SEGMENT_CELLS: int = _LINE_SLOTS + _STASH_SLOTS

#: Keys per ``bulk_probe`` gather round; bounds the probe's scratch memory.
_PROBE_CHUNK: int = 32_768

#: A lookup table addresses keys directly when their span is at most this
#: many times the key count, and by binary search otherwise.
_DENSE_SPAN: int = 64

#: Cost classes of a Dash probe: the key is found in its target bucket,
#: in the neighbour bucket or in the stash, or it is missing.
_TARGET, _NEIGHBOUR, _STASH, _MISS = range(4)

_EMPTY: int = -(2**62)

_MASK64: int = 0xFFFFFFFFFFFFFFFF
_GOLDEN: int = 0x9E3779B97F4A7C15
_MUL1: int = 0xBF58476D1CE4E5B9
_MUL2: int = 0x94D049BB133111EB


def _mix(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser over int64 keys (vectorised)."""
    mask = np.uint64(_MASK64)
    h = keys.astype(np.uint64, copy=True)
    h = (h + np.uint64(_GOLDEN)) & mask
    h ^= h >> np.uint64(30)
    h = (h * np.uint64(_MUL1)) & mask
    h ^= h >> np.uint64(27)
    h = (h * np.uint64(_MUL2)) & mask
    h ^= h >> np.uint64(31)
    return h


def _mix_int(key: int) -> int:
    """splitmix64 finaliser over one int64 key; equals ``_mix`` elementwise."""
    h = (key + _GOLDEN) & _MASK64
    h ^= h >> 30
    h = (h * _MUL1) & _MASK64
    h ^= h >> 27
    h = (h * _MUL2) & _MASK64
    h ^= h >> 31
    return h


@dataclass
class ProbeStats:
    """Accumulated PMEM traffic caused by index operations.

    Build-phase traffic (``build_reads``/``bucket_writes``) is kept
    separate from probe-phase traffic so the cost model can price index
    construction and join probing independently.
    """

    probes: int = 0
    bucket_reads: int = 0
    stash_reads: int = 0
    build_reads: int = 0
    bucket_writes: int = 0

    @property
    def read_bytes(self) -> int:
        """Bytes read while probing (one 256-byte XPLine per bucket)."""
        return (self.bucket_reads + self.stash_reads) * OPTANE_LINE

    @property
    def build_read_bytes(self) -> int:
        """Bytes read while building, in 256-byte XPLines."""
        return self.build_reads * OPTANE_LINE

    @property
    def write_bytes(self) -> int:
        """Bytes written, in 256-byte XPLines."""
        return self.bucket_writes * OPTANE_LINE

    @property
    def reads_per_probe(self) -> float:
        if self.probes == 0:
            return 0.0
        return (self.bucket_reads + self.stash_reads) / self.probes

    @property
    def access_size(self) -> int:
        """Granularity of one index access — a 256 B bucket."""
        return OPTANE_LINE


class _Segment:
    """One Dash segment: 64 regular buckets + 4 stash buckets."""

    __slots__ = ("local_depth", "keys", "values", "fps", "stash_keys", "stash_values")

    def __init__(self, local_depth: int) -> None:
        self.local_depth = local_depth
        shape = (BUCKETS_PER_SEGMENT, BUCKET_SLOTS)
        self.keys = np.full(shape, _EMPTY, dtype=np.int64)
        self.values = np.zeros(shape, dtype=np.int64)
        self.fps = np.zeros(shape, dtype=np.uint8)
        self.stash_keys = np.full(_STASH_SLOTS, _EMPTY, dtype=np.int64)
        self.stash_values = np.zeros(_STASH_SLOTS, dtype=np.int64)

    def records(self) -> list[tuple[int, int]]:
        """All (key, value) pairs stored in the segment."""
        out: list[tuple[int, int]] = []
        mask = self.keys != _EMPTY
        for k, v in zip(self.keys[mask], self.values[mask]):
            out.append((int(k), int(v)))
        mask = self.stash_keys != _EMPTY
        for k, v in zip(self.stash_keys[mask], self.stash_values[mask]):
            out.append((int(k), int(v)))
        return out

    @property
    def load(self) -> int:
        return int(np.count_nonzero(self.keys != _EMPTY)) + int(
            np.count_nonzero(self.stash_keys != _EMPTY)
        )


def _distinct(directory: list) -> tuple[list, list[int]]:
    """Distinct segments in directory order, and each slot's index into them."""
    rows: dict[int, int] = {}
    distinct: list = []
    slot_rows: list[int] = []
    for segment in directory:
        row = rows.setdefault(id(segment), len(distinct))
        if row == len(distinct):
            distinct.append(segment)
        slot_rows.append(row)
    return distinct, slot_rows


class _ReplaySegment:
    """A segment during a bulk build: record ids per bucket and in the stash.

    Slots fill in order because nothing is ever deleted, so a bucket's
    list position is its slot number and ``len`` is its fill count.
    """

    __slots__ = ("local_depth", "buckets", "stash")

    def __init__(self, local_depth: int) -> None:
        self.local_depth = local_depth
        self.buckets: list[list[int]] = [[] for _ in range(BUCKETS_PER_SEGMENT)]
        self.stash: list[int] = []


class _BulkBuild:
    """Replays :meth:`DashIndex.insert` over precomputed hashes.

    Records are ids into the ``keys``/``hashes`` lists; the replay moves
    ids between plain-int fill lists exactly as the single-key path moves
    records between segment slots, and tallies the same
    ``build_reads``/``bucket_writes``. An overwrite does not move a value:
    it points the held record's ``sources`` entry at the overwriting
    record, whose value the held slot then takes.
    """

    def __init__(
        self,
        global_depth: int,
        directory: list[_ReplaySegment],
        keys: list[int],
        hashes: np.ndarray,
    ) -> None:
        self.global_depth = global_depth
        self.directory = directory
        self.keys = keys
        self.sources: list[int] = list(range(len(keys)))
        self.hashes: list[int] = hashes.tolist()
        self.buckets: list[int] = (
            (hashes >> np.uint64(8)) % np.uint64(BUCKETS_PER_SEGMENT)
        ).tolist()
        self.build_reads = 0
        self.bucket_writes = 0

    def slot_of(self, record: int) -> int:
        """Directory slot of a record (``_segment_index`` of its hash)."""
        return self.hashes[record] >> (64 - self.global_depth)

    def insert(self, record: int, assume_new: bool) -> None:
        """One ``DashIndex.insert``: attempts with bounded splits."""
        for _ in range(64):
            if not assume_new and self._overwrite(record):
                return
            if self._place(record):
                return
            self._split(self.slot_of(record))
        raise SimulationError("DashIndex: unbounded split loop")

    def _overwrite(self, record: int) -> bool:
        """The lookup half of ``_try_insert`` when keys may repeat."""
        segment = self.directory[self.slot_of(record)]
        b = self.buckets[record]
        key = self.keys[record]
        keys = self.keys
        for bucket in (b, (b + 1) % BUCKETS_PER_SEGMENT):
            self.build_reads += 1
            for held in segment.buckets[bucket]:
                if keys[held] == key:
                    self.sources[held] = record
                    self.bucket_writes += 1
                    return True
        for held in segment.stash:
            if keys[held] == key:
                self.build_reads += 1
                self.sources[held] = record
                self.bucket_writes += 1
                return True
        return False

    def _place(self, record: int) -> bool:
        """Balanced insertion of ``_try_insert``: target, neighbour, stash."""
        segment = self.directory[self.slot_of(record)]
        b = self.buckets[record]
        target = segment.buckets[b]
        neighbour = segment.buckets[(b + 1) % BUCKETS_PER_SEGMENT]
        self.build_reads += 1
        if len(target) < BUCKET_SLOTS or len(neighbour) < BUCKET_SLOTS:
            # Ties go to the target bucket (more free slots or equal).
            (target if len(target) <= len(neighbour) else neighbour).append(record)
            self.bucket_writes += 1
            return True
        if len(segment.stash) < _STASH_SLOTS:
            segment.stash.append(record)
            self.build_reads += 1
            self.bucket_writes += 1
            return True
        return False

    def _split(self, directory_slot: int) -> None:
        """``DashIndex._split``, reinserting in ``_Segment.records`` order."""
        old = self.directory[directory_slot]
        if old.local_depth == self.global_depth:
            self.directory = [s for s in self.directory for _ in range(2)]
            self.global_depth += 1
        depth = old.local_depth + 1
        left = _ReplaySegment(depth)
        right = _ReplaySegment(depth)
        shift = self.global_depth - depth
        for i, seg in enumerate(self.directory):
            if seg is old:
                self.directory[i] = right if (i >> shift) & 1 else left
        for bucket in old.buckets:
            for record in bucket:
                self._reinsert(record)
        for record in old.stash:
            self._reinsert(record)

    def _reinsert(self, record: int) -> None:
        while not self._place(record):
            self._split(self.slot_of(record))


class LookupTable:
    """A built index's key domain, resolved once: value and cost code per key.

    :meth:`rows` maps probe keys to rows of ``values`` and ``codes``. A
    dense domain (span at most ``_DENSE_SPAN`` times the key count) has
    one row per key of its span, addressed by offset; a sparse one has a
    row per stored key, found by binary search. Keys that are not stored
    land on rows holding the miss code; the last row takes every key
    outside the domain.
    """

    __slots__ = ("base", "domain", "values", "codes")

    def __init__(
        self, keys: np.ndarray, values: np.ndarray, codes: np.ndarray, miss: int
    ) -> None:
        """Records in lookup order: the first record of a repeated key wins."""
        domain, first = np.unique(keys, return_index=True)
        n = len(domain)
        lo, hi = (int(domain[0]), int(domain[-1])) if n else (0, -1)
        if hi - lo < _DENSE_SPAN * n:
            self.base, self.domain = lo, None
            rows, size = domain - lo, hi - lo + 1
        else:
            self.base, self.domain = 0, domain
            rows, size = np.arange(n), n
        self.values = np.zeros(size + 1, dtype=np.int64)
        self.values[rows] = values[first]
        self.codes = np.full(size + 1, miss, dtype=codes.dtype)
        self.codes[rows] = codes[first]

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """Row of each of the contiguous int64 ``keys``."""
        outside = len(self.codes) - 1
        if self.domain is None:
            # Unsigned wrap-around puts keys below the span past its end too.
            offset = keys.view(np.uint64) - np.uint64(self.base & _MASK64)
            return np.minimum(offset, np.uint64(outside), out=offset).view(np.intp)
        rows = np.searchsorted(self.domain, keys)
        rows[self.domain.take(rows, mode="clip") != keys] = outside
        return rows

    def gather(
        self, rows: np.ndarray, found: np.ndarray, missing: int, out: np.ndarray
    ) -> None:
        """Write the value of each row into ``out``, ``missing`` where not found."""
        self.values.take(rows, out=out)
        if not found.all():
            out[~found] = missing


class DashIndex:
    """Segmented extendible hash with 256 B buckets and stash overflow."""

    def __init__(self, initial_depth: int = 1) -> None:
        if initial_depth < 0:
            raise ConfigurationError("initial depth must be >= 0")
        self.global_depth = initial_depth
        segments = [_Segment(initial_depth) for _ in range(2**initial_depth)]
        self._directory: list[_Segment] = segments
        self.stats = ProbeStats()
        self._size = 0
        #: Built by the first ``bulk_probe``, dropped by any insert.
        self._table: LookupTable | None = None

    # -- hashing -------------------------------------------------------

    def _hash(self, key: int) -> int:
        return _mix_int(int(key))

    def _segment_index(self, h: int) -> int:
        if self.global_depth == 0:
            return 0
        return h >> (64 - self.global_depth)

    @staticmethod
    def _bucket_index(h: int) -> int:
        return (h >> 8) % BUCKETS_PER_SEGMENT

    @staticmethod
    def _fingerprint(h: int) -> int:
        return (h & 0xFF) or 1  # fingerprint 0 is reserved for "empty"

    # -- public size/metadata ------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def segment_count(self) -> int:
        return len(set(id(s) for s in self._directory))

    @property
    def memory_bytes(self) -> int:
        """Approximate PMEM footprint in bytes: buckets are 256-byte lines."""
        return self.segment_count * (BUCKETS_PER_SEGMENT + STASH_BUCKETS) * OPTANE_LINE

    # -- single-key operations ------------------------------------------

    def insert(self, key: int, value: int, assume_new: bool = False) -> None:
        """Insert or overwrite ``key``.

        Probe order mirrors Dash: target bucket, neighbour bucket
        (balanced insertion into the less-loaded of the two), then the
        stash; a full stash splits the segment. ``assume_new`` skips the
        overwrite lookup (safe when keys are known unique, e.g. building
        a join table over dimension primary keys).
        """
        if key == _EMPTY:
            raise ConfigurationError(f"key {_EMPTY} marks empty slots")
        self._table = None
        for _ in range(64):  # split attempts are bounded
            if self._try_insert(key, value, assume_new):
                return
            self._split(self._segment_index(self._hash(key)))
        raise SimulationError("DashIndex: unbounded split loop")

    def _try_insert(self, key: int, value: int, assume_new: bool = False) -> bool:
        h = self._hash(key)
        segment = self._directory[self._segment_index(h)]
        b = self._bucket_index(h)
        nb = (b + 1) % BUCKETS_PER_SEGMENT
        fp = self._fingerprint(h)
        # Overwrite if present; Dash filters by fingerprint before the
        # key comparison, still costing one bucket read per hop.
        if not assume_new:
            for bucket in (b, nb):
                self.stats.build_reads += 1
                slot = np.nonzero(segment.keys[bucket] == key)[0]
                if slot.size:
                    segment.values[bucket, slot[0]] = value
                    self.stats.bucket_writes += 1
                    return True
            stash_hit = np.nonzero(segment.stash_keys == key)[0]
            if stash_hit.size:
                self.stats.build_reads += 1
                segment.stash_values[stash_hit[0]] = value
                self.stats.bucket_writes += 1
                return True
        # Balanced insertion: less-loaded of target/neighbour bucket.
        free_b = np.nonzero(segment.keys[b] == _EMPTY)[0]
        free_nb = np.nonzero(segment.keys[nb] == _EMPTY)[0]
        self.stats.build_reads += 1
        if free_b.size or free_nb.size:
            if free_b.size >= free_nb.size:
                bucket, slot = b, free_b[0]
            else:
                bucket, slot = nb, free_nb[0]
            segment.keys[bucket, slot] = key
            segment.values[bucket, slot] = value
            segment.fps[bucket, slot] = fp
            self.stats.bucket_writes += 1
            self._size += 1
            return True
        stash_free = np.nonzero(segment.stash_keys == _EMPTY)[0]
        if stash_free.size:
            segment.stash_keys[stash_free[0]] = key
            segment.stash_values[stash_free[0]] = value
            self.stats.build_reads += 1
            self.stats.bucket_writes += 1
            self._size += 1
            return True
        return False

    def _split(self, directory_slot: int) -> None:
        """Split the segment behind ``directory_slot`` (Dash-style)."""
        old = self._directory[directory_slot]
        if old.local_depth == self.global_depth:
            self._directory = [s for s in self._directory for _ in range(2)]
            self.global_depth += 1
        depth = old.local_depth + 1
        left = _Segment(depth)
        right = _Segment(depth)
        # Rewire every directory slot that pointed at the old segment.
        for i, seg in enumerate(self._directory):
            if seg is old:
                prefix_bit = (i >> (self.global_depth - depth)) & 1
                self._directory[i] = right if prefix_bit else left
        self._size -= old.load
        for key, value in old.records():
            self._reinsert(key, value)

    def _reinsert(self, key: int, value: int) -> None:
        if not self._try_insert(key, value, assume_new=True):
            # Exceedingly unlikely right after a split; recurse safely.
            self._split(self._segment_index(self._hash(key)))
            self._reinsert(key, value)

    def _find(self, key: int) -> tuple[bool, int]:
        """One charged probe: target bucket, neighbour, then the stash."""
        h = self._hash(key)
        segment = self._directory[self._segment_index(h)]
        b = self._bucket_index(h)
        fp = self._fingerprint(h)
        self.stats.probes += 1
        for bucket in (b, (b + 1) % BUCKETS_PER_SEGMENT):
            self.stats.bucket_reads += 1
            candidates = np.nonzero(
                (segment.fps[bucket] == fp) & (segment.keys[bucket] == key)
            )[0]
            if candidates.size:
                return True, int(segment.values[bucket, candidates[0]])
        self.stats.stash_reads += 1
        hit = np.nonzero(segment.stash_keys == key)[0]
        # Free stash slots hold the empty marker, which is never stored.
        if hit.size and key != _EMPTY:
            return True, int(segment.stash_values[hit[0]])
        return False, 0

    def get(self, key: int, default: int | None = None) -> int:
        """Look up ``key``; raise ``KeyError`` when absent and no default."""
        found, value = self._find(key)
        if found:
            return value
        if default is not None:
            return default
        raise KeyError(key)

    def __contains__(self, key: int) -> bool:
        return self._find(key)[0]

    # -- bulk operations (used by the query engine) ----------------------

    def bulk_insert(
        self, keys: np.ndarray, values: np.ndarray, assume_unique: bool = True
    ) -> None:
        """Insert many records; same layout and stats as looping ``insert``.

        ``assume_unique`` (the default) skips per-key overwrite lookups —
        correct for join builds over dimension primary keys — exactly as
        ``insert(..., assume_new=True)`` does.

        The existing records and the new keys are hashed in one
        vectorised call. The insertion sequence (target bucket, then
        neighbour, then stash, then a split that may double the
        directory and reinserts the old segment's records in
        ``_Segment.records`` order) is replayed over plain-int fill
        lists, and the final segments are written back once.
        """
        if len(keys) != len(values):
            raise ConfigurationError("keys and values must align")
        keys = np.asarray(keys).astype(np.int64)
        values = np.asarray(values).astype(np.int64)
        if len(keys) == 0:
            return
        if np.any(keys == _EMPTY):
            raise ConfigurationError(f"key {_EMPTY} marks empty slots")
        self._table = None

        segments, slot_rows = _distinct(self._directory)
        old_keys, old_values, replays = self._unpack(segments)
        all_keys = np.concatenate((old_keys, keys))
        hashes = _mix(all_keys)
        build = _BulkBuild(
            self.global_depth,
            [replays[row] for row in slot_rows],
            all_keys.tolist(),
            hashes,
        )
        for record in range(len(old_keys), len(all_keys)):
            build.insert(record, assume_unique)

        self._adopt(build, all_keys, hashes, np.concatenate((old_values, values)))
        self.stats.build_reads += build.build_reads
        self.stats.bucket_writes += build.bucket_writes

    @staticmethod
    def _unpack(
        segments: list[_Segment],
    ) -> tuple[np.ndarray, np.ndarray, list[_ReplaySegment]]:
        """Existing records as replay segments (record ids ``0..m-1``)."""
        keys = np.stack([s.keys for s in segments])
        stash = np.stack([s.stash_keys for s in segments])
        held = keys != _EMPTY
        stash_held = stash != _EMPTY
        fills = held.sum(axis=2).tolist()
        stash_fills = stash_held.sum(axis=1).tolist()
        out_keys: list[np.ndarray] = []
        out_values: list[np.ndarray] = []
        replays: list[_ReplaySegment] = []
        record = 0
        for i, segment in enumerate(segments):
            replay = _ReplaySegment(segment.local_depth)
            for bucket, fill in zip(replay.buckets, fills[i]):
                bucket.extend(range(record, record + fill))
                record += fill
            replay.stash.extend(range(record, record + stash_fills[i]))
            record += stash_fills[i]
            replays.append(replay)
            out_keys += [keys[i][held[i]], stash[i][stash_held[i]]]
            out_values += [
                segment.values[held[i]],
                segment.stash_values[stash_held[i]],
            ]
        return np.concatenate(out_keys), np.concatenate(out_values), replays

    def _adopt(
        self,
        build: _BulkBuild,
        keys: np.ndarray,
        hashes: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Become the replay's segments: each record's key, fingerprint and
        value written into the cell the replay put it in.

        Cells are flat positions in a ``(segments, _SEGMENT_CELLS)`` grid
        (a segment's bucket slots, then its stash slots). A repeated key
        that overwrote an earlier one points that key's cell at the
        overwriting record, so each value lands exactly where the replay
        put it, however keys repeat.
        """
        replays, slot_rows = _distinct(build.directory)
        cells: list[int] = []
        held: list[int] = []
        for row, replay in enumerate(replays):
            base = row * _SEGMENT_CELLS
            for b, bucket in enumerate(replay.buckets):
                if bucket:
                    first = base + b * BUCKET_SLOTS
                    cells.extend(range(first, first + len(bucket)))
                    held += bucket
            if replay.stash:
                first = base + _LINE_SLOTS
                cells.extend(range(first, first + len(replay.stash)))
                held += replay.stash
        at = np.asarray(cells, dtype=np.intp)
        records = np.asarray(build.sources, dtype=np.intp)[held]
        fps = (hashes[records] & np.uint64(0xFF)).astype(np.uint8)
        fps[fps == 0] = 1

        n_seg = len(replays)
        flat_keys = np.full(n_seg * _SEGMENT_CELLS, _EMPTY, dtype=np.int64)
        flat_vals = np.zeros(n_seg * _SEGMENT_CELLS, dtype=np.int64)
        flat_fps = np.zeros(n_seg * _SEGMENT_CELLS, dtype=np.uint8)
        flat_keys[at] = keys[records]
        flat_vals[at] = values[records]
        flat_fps[at] = fps
        seg_keys, seg_vals, seg_fps = (
            a.reshape(n_seg, _SEGMENT_CELLS) for a in (flat_keys, flat_vals, flat_fps)
        )

        shape = (BUCKETS_PER_SEGMENT, BUCKET_SLOTS)
        segments: list[_Segment] = []
        for row, replay in enumerate(replays):
            segment = _Segment(replay.local_depth)
            segment.keys = seg_keys[row, :_LINE_SLOTS].reshape(shape)
            segment.values = seg_vals[row, :_LINE_SLOTS].reshape(shape)
            segment.fps = seg_fps[row, :_LINE_SLOTS].reshape(shape)
            segment.stash_keys = seg_keys[row, _LINE_SLOTS:]
            segment.stash_values = seg_vals[row, _LINE_SLOTS:]
            segments.append(segment)
        self._directory = [segments[row] for row in slot_rows]
        self.global_depth = build.global_depth
        self._size = len(cells)

    def _resolve(self) -> LookupTable:
        """Every stored record with the cost class ``get`` charges for it."""
        segments, _ = _distinct(self._directory)
        # The stash is appended to each segment as buckets 64..67.
        lines = (-1, BUCKET_SLOTS)
        keys = np.stack(
            [np.concatenate((s.keys, s.stash_keys.reshape(lines))) for s in segments]
        )
        values = np.stack(
            [
                np.concatenate((s.values, s.stash_values.reshape(lines)))
                for s in segments
            ]
        )
        held = keys != _EMPTY
        keys, values, bucket = keys[held], values[held], np.nonzero(held)[1]
        target = (_mix(keys) >> np.uint64(8)) % np.uint64(BUCKETS_PER_SEGMENT)
        codes = np.where(
            bucket >= BUCKETS_PER_SEGMENT,
            _STASH,
            np.where(bucket == target.astype(np.intp), _TARGET, _NEIGHBOUR),
        ).astype(np.uint8)
        # Records are in (segment, bucket, slot) order; a stable sort by
        # class puts each key's copies in the order ``get`` meets them.
        order = np.argsort(codes, kind="stable")
        return LookupTable(keys[order], values[order], codes[order], _MISS)

    def bulk_probe(self, keys: np.ndarray, missing: int = -1) -> np.ndarray:
        """Vectorised probe of many keys; traffic charged like singles.

        Returns the value per key, ``missing`` where absent. Each key is
        looked up in the resolved :class:`LookupTable`, and the line reads
        charged are the per-class costs times the keys in each class.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        n = len(keys)
        out = np.empty(n, dtype=np.int64)
        if self._table is None:
            self._table = self._resolve()
        table = self._table
        in_target = stashed = 0
        for start in range(0, n, _PROBE_CHUNK):
            chunk = keys[start : start + _PROBE_CHUNK]
            rows = table.rows(chunk)
            codes = table.codes[rows]
            in_target += int(np.count_nonzero(codes == _TARGET))
            stashed += int(np.count_nonzero(codes >= _STASH))
            table.gather(rows, codes != _MISS, missing, out[start : start + len(chunk)])
        self.stats.probes += n
        self.stats.bucket_reads += 2 * n - in_target
        self.stats.stash_reads += stashed
        return out
