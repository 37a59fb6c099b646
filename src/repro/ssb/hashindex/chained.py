"""PMEM-unaware chained hash index (the Hyrise stand-in baseline).

A textbook separate-chaining hash table: an array of bucket heads and a
node pool, every node one 64 B cache line holding (key, value, next).
Probes walk a pointer chain of *dependent* 64 B random reads — exactly
the access pattern the paper identifies as the reason Hyrise loses 5.3x
on PMEM ("hash-operations take over 90% of the execution time ...
Hyrise's PMEM-unaware hash index implementation performs worse in PMEM
than in DRAM", §6.1).

Like :class:`~repro.ssb.hashindex.dash.DashIndex`, every operation is
instrumented with the traffic it would cause; the cost model prices the
two indexes with the same memsim random-access curves, so the Dash
advantage on PMEM *emerges* from access sizes and dependent-read counts.

``get`` walks the chain and is the oracle. ``bulk_probe`` uses that a
walk's outcome is fixed once the index is built: a stored key costs its
1-based position in its chain, a missing key the length of its bucket's
chain. The first ``bulk_probe`` after a build resolves every stored key
into a :class:`~repro.ssb.hashindex.dash.LookupTable` of value and cost
code; probing is then a gather plus a count of keys per code. Any insert
drops the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.memsim.constants import CACHE_LINE
from repro.ssb.hashindex.dash import _PROBE_CHUNK, LookupTable

_EMPTY: int = -1

#: Lookup codes are ``2 * node reads + found``. A found key costs at least
#: one read, so code 1 is free to mark a key whose miss cost (its bucket's
#: chain length) is not resolved yet.
_UNRESOLVED: int = 1


@dataclass
class ChainStats:
    """Accumulated traffic caused by chained-hash operations."""

    probes: int = 0
    node_reads: int = 0
    node_writes: int = 0

    @property
    def read_bytes(self) -> int:
        """Bytes read while probing (one 64-byte line per node visit)."""
        return self.node_reads * CACHE_LINE

    @property
    def write_bytes(self) -> int:
        """Bytes written while building (one 64-byte line per node)."""
        return self.node_writes * CACHE_LINE

    @property
    def reads_per_probe(self) -> float:
        if self.probes == 0:
            return 0.0
        return self.node_reads / self.probes

    @property
    def access_size(self) -> int:
        """Granularity of one index access — a 64 B node."""
        return CACHE_LINE


class ChainedIndex:
    """Separate-chaining hash table over a contiguous node pool."""

    def __init__(self, expected_size: int = 16) -> None:
        if expected_size < 1:
            raise ConfigurationError("expected size must be >= 1")
        self._n_buckets = max(8, 1 << (expected_size - 1).bit_length())
        self._heads = np.full(self._n_buckets, _EMPTY, dtype=np.int64)
        capacity = max(expected_size, 8)
        self._keys = np.empty(capacity, dtype=np.int64)
        self._values = np.empty(capacity, dtype=np.int64)
        self._next = np.empty(capacity, dtype=np.int64)
        self._size = 0
        self.stats = ChainStats()
        #: Built by the first ``bulk_probe``, dropped by any insert, with
        #: the miss code of each bucket.
        self._table: LookupTable | None = None
        self._miss_codes = np.empty(0, dtype=np.uint8)

    def __len__(self) -> int:
        return self._size

    @property
    def bucket_count(self) -> int:
        return self._n_buckets

    @property
    def memory_bytes(self) -> int:
        """Footprint in bytes: head array plus one 64-byte line per node."""
        return self._n_buckets * 8 + self._size * CACHE_LINE

    def _bucket_of(self, keys: np.ndarray) -> np.ndarray:
        h = keys.astype(np.uint64, copy=True)
        h = (h * np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        h ^= h >> np.uint64(29)
        return (h % np.uint64(self._n_buckets)).astype(np.int64)

    def _grow_pool(self, needed: int) -> None:
        capacity = len(self._keys)
        if self._size + needed <= capacity:
            return
        new_capacity = max(capacity * 2, self._size + needed)
        for name in ("_keys", "_values", "_next"):
            old = getattr(self, name)
            grown = np.empty(new_capacity, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    # -- operations ------------------------------------------------------

    def insert(self, key: int, value: int) -> None:
        """Prepend a node to the key's chain (no dedup, like a join build)."""
        self._table = None
        self._grow_pool(1)
        bucket = int(self._bucket_of(np.asarray([key], dtype=np.int64))[0])
        idx = self._size
        self._keys[idx] = key
        self._values[idx] = value
        self._next[idx] = self._heads[bucket]
        self._heads[bucket] = idx
        self._size += 1
        self.stats.node_writes += 1

    def bulk_insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Vectorised chain prepend of many records."""
        if len(keys) != len(values):
            raise ConfigurationError("keys and values must align")
        n = len(keys)
        if n == 0:
            return
        self._table = None
        self._grow_pool(n)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        buckets = self._bucket_of(keys)
        start = self._size
        idx = np.arange(start, start + n, dtype=np.int64)
        self._keys[start : start + n] = keys
        self._values[start : start + n] = values
        # Prepend preserving per-bucket order: later records become heads.
        # Within each bucket group every node links to its predecessor in
        # the group, the group's first node to the bucket's old head.
        order = np.argsort(buckets, kind="stable")
        sorted_buckets = buckets[order]
        sorted_idx = idx[order]
        first = np.ones(n, dtype=bool)
        first[1:] = sorted_buckets[1:] != sorted_buckets[:-1]
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = sorted_idx[:-1]
        prev[first] = self._heads[sorted_buckets[first]]
        self._next[sorted_idx] = prev
        last = np.ones(n, dtype=bool)
        last[:-1] = first[1:]
        self._heads[sorted_buckets[last]] = sorted_idx[last]
        self._size += n
        self.stats.node_writes += n

    def _find(self, key: int) -> tuple[bool, int]:
        """Walk the chain; each hop is one dependent 64 B read."""
        self.stats.probes += 1
        bucket = int(self._bucket_of(np.asarray([key], dtype=np.int64))[0])
        node = int(self._heads[bucket])
        while node != _EMPTY:
            self.stats.node_reads += 1
            if self._keys[node] == key:
                return True, int(self._values[node])
            node = int(self._next[node])
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

    def _resolve(self) -> LookupTable:
        """Every stored node with its chain position; each bucket's miss code."""
        size = self._size
        buckets = self._bucket_of(self._keys[:size])
        lengths = np.bincount(buckets, minlength=self._n_buckets)
        # Chains are built by prepending, so a walk meets a bucket's nodes
        # newest first; a repeated key resolves to its newest node.
        newest_first = np.arange(size - 1, -1, -1)
        order = newest_first[np.argsort(buckets[newest_first], kind="stable")]
        grouped = buckets[order]
        position = np.arange(1, size + 1) - np.searchsorted(grouped, grouped)
        dtype = np.min_scalar_type(2 * int(lengths.max()) + 1)
        self._miss_codes = (2 * lengths).astype(dtype)
        codes = (2 * position + 1).astype(dtype)
        return LookupTable(
            self._keys[order], self._values[order], codes, _UNRESOLVED
        )

    def bulk_probe(self, keys: np.ndarray, missing: int = -1) -> np.ndarray:
        """Vectorised probe of many keys; traffic charged like ``get``.

        Each key is looked up in the resolved table; only keys it does not
        hold are hashed, to charge their bucket's chain length.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        n = len(keys)
        out = np.empty(n, dtype=np.int64)
        if self._table is None:
            self._table = self._resolve()
        table = self._table
        reads = 0
        for start in range(0, n, _PROBE_CHUNK):
            chunk = keys[start : start + _PROBE_CHUNK]
            rows = table.rows(chunk)
            codes = table.codes[rows]
            unresolved = codes == _UNRESOLVED
            if unresolved.any():
                buckets = self._bucket_of(chunk[unresolved])
                codes[unresolved] = self._miss_codes[buckets]
            tally = np.bincount(codes)
            reads += int(tally @ (np.arange(len(tally)) >> 1))
            found = (codes & 1).astype(bool)
            table.gather(rows, found, missing, out[start : start + len(chunk)])
        self.stats.probes += n
        self.stats.node_reads += reads
        return out

    @property
    def average_chain_length(self) -> float:
        """Mean nodes per non-empty bucket (diagnostics for tests)."""
        occupied = int(np.count_nonzero(self._heads != _EMPTY))
        if occupied == 0:
            return 0.0
        return self._size / occupied
