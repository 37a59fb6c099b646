"""Database persistence and data-import estimation.

§4 motivates the write benchmarks with OLAP's write-heavy operations:
"an important feature of data warehouses is an efficient data import".
This module provides both halves:

* real persistence — save/load a generated :class:`SsbDatabase` as a
  compressed ``.npz`` archive (deterministic round trip);
* import-time estimation — how long ingesting the database onto PMEM or
  DRAM would take under a given write configuration, priced with the
  same §4 write model as everything else. The best-practice
  configuration (4-6 threads, 4 KB blocks) is compared against a naive
  one (all threads, large blocks) to quantify what insight #7 is worth.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, SchemaError
from repro.memsim import MachineConfig, MediaKind, paper_config, write_stream
from repro.ssb import schema
from repro.ssb.dbgen import SsbDatabase, Table
from repro.sweep import stream_gbps
from repro.units import GB, MIB


def save_database(db: SsbDatabase, path: str | Path) -> Path:
    """Persist all five tables into one compressed ``.npz`` archive."""
    path = Path(path)
    arrays: dict[str, np.ndarray] = {
        "__scale_factor__": np.asarray([db.scale_factor], dtype=np.float64)
    }
    for spec in schema.ALL_TABLES:
        table = db.table(spec.name)
        for column, values in table.columns.items():
            arrays[f"{spec.name}/{column}"] = values
    np.savez_compressed(path, **arrays)
    # ``savez`` appends .npz if missing; normalise the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


#: What ``np.load`` raises on a file that is not a readable ``.npz`` archive.
_UNREADABLE = (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error)


def load_database(path: str | Path) -> SsbDatabase:
    """Load a database saved by :func:`save_database`.

    A missing path raises :class:`ConfigurationError`, and any file that is
    not such an archive a :class:`SchemaError` naming it.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no database archive at {path}")
    try:
        return _load(path)
    except _UNREADABLE as exc:
        raise SchemaError(f"{path} is not a readable SSB archive: {exc}") from None


def _load(path: Path) -> SsbDatabase:
    archive = np.load(path)
    if isinstance(archive, np.ndarray):
        raise SchemaError(f"{path} is a single array, not an SSB archive")
    with archive:
        if "__scale_factor__" not in archive:
            raise SchemaError(f"{path} is not an SSB archive")
        scale_factor = archive["__scale_factor__"]
        if scale_factor.shape != (1,) or scale_factor.dtype.kind not in "fiu":
            raise SchemaError(f"{path} has a malformed scale factor")
        tables: dict[str, Table] = {}
        for spec in schema.ALL_TABLES:
            columns = {}
            for column in spec.column_names():
                key = f"{spec.name}/{column}"
                if key not in archive:
                    raise SchemaError(f"{path} is missing column {key}")
                columns[column] = archive[key]
            tables[spec.name] = Table(spec=spec, columns=columns)
    return SsbDatabase(scale_factor=float(scale_factor[0]), **tables)


@dataclass(frozen=True)
class ImportEstimate:
    """Predicted ingest time of one data volume under one configuration."""

    bytes: int
    media: MediaKind
    threads: int
    access_size: int
    gbps: float

    @property
    def seconds(self) -> float:
        """Predicted transfer time in seconds for ``bytes`` at ``gbps``."""
        return self.bytes / (self.gbps * GB)

    def describe(self) -> str:
        return (
            f"ingest {self.bytes / GB:.1f} GB to {self.media.value} with "
            f"{self.threads} threads x {self.access_size} B: "
            f"{self.gbps:.1f} GB/s -> {self.seconds:.2f}s"
        )


def estimate_import(
    volume_bytes: int,
    *,
    media: MediaKind = MediaKind.PMEM,
    threads: int = 6,
    access_size: int = 4096,
    config: MachineConfig | None = None,
    sockets: int = 2,
) -> ImportEstimate:
    """Predict the ingest time of ``volume_bytes`` (sequential writes).

    Defaults follow the paper's best practices: 4-6 write threads per
    socket, 4 KB blocks, data striped across both sockets' near PMEM.
    """
    if volume_bytes <= 0:
        raise ConfigurationError("volume must be positive")
    if sockets not in (1, 2):
        raise ConfigurationError("model supports 1 or 2 sockets")
    config = config if config is not None else paper_config()
    per_socket = stream_gbps(
        config, (write_stream(threads, access_size=access_size, media=media),)
    )
    return ImportEstimate(
        bytes=volume_bytes,
        media=media,
        threads=threads,
        access_size=access_size,
        gbps=per_socket * sockets,
    )


def import_advice(volume_bytes: int, config: MachineConfig | None = None) -> str:
    """Contrast best-practice ingest with the naive configuration.

    The naive choice — every core writing in large blocks — is what a
    DRAM-tuned system does, and it is precisely the §4.2 collapse.
    """
    tuned = estimate_import(volume_bytes, threads=6, access_size=4096, config=config)
    naive = estimate_import(volume_bytes, threads=36, access_size=MIB, config=config)
    saving = naive.seconds - tuned.seconds
    return "\n".join(
        [
            "data-import advice (paper insights #6/#7):",
            f"  best practice : {tuned.describe()}",
            f"  naive         : {naive.describe()}",
            f"  following the best practices saves {saving:.2f}s "
            f"({naive.seconds / tuned.seconds:.1f}x faster)",
        ]
    )
