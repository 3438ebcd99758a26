"""Sweep-result caching: in-memory LRU plus an on-disk content-addressed store.

Two layers, both keyed by the spec's content hash and the engine version:

* :class:`LRUCache` — a bounded in-memory map for whole assembled sweeps, so
  repeated ``sweep()`` calls inside one session are near-free.
* :class:`SweepStore` — a directory of per-chunk ``.npz`` files under
  ``<root>/<spec_hash>-v<ENGINE_VERSION>/``. Chunks are written atomically
  (temp file + ``os.replace``), so concurrent writers cannot corrupt an
  entry — the last complete write wins, and since evaluation is
  deterministic every writer produces identical bytes anyway. Unreadable or
  truncated chunk files are treated as misses and deleted.

Because the key covers every spec field *and* the engine version, a cache
hit is guaranteed to return exactly the arrays a fresh evaluation would
produce; bumping :data:`~repro.engine.plan.ENGINE_VERSION` orphans every
existing entry.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import ConfigurationError
from .plan import ENGINE_VERSION, SweepSpec

__all__ = ["LRUCache", "SweepStore"]


class LRUCache:
    """A bounded least-recently-used map from string keys to cached values."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str):
        """The cached value for ``key`` (None on miss); refreshes recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def put(self, key: str, value) -> None:
        """Insert/refresh an entry, evicting the least recently used."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        self._entries.clear()


class SweepStore:
    """On-disk content-addressed store of per-chunk sweep results."""

    def __init__(self, root: str | Path, engine_version: str = ENGINE_VERSION) -> None:
        self.root = Path(root)
        self.engine_version = engine_version
        self.hits = 0
        self.misses = 0
        #: Writes skipped because an identical chunk was already published
        #: (concurrent writers deduplicating against each other).
        self.skipped_writes = 0
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def entry_dir(self, spec_hash: str) -> Path:
        """Directory holding one spec's chunks (version-qualified)."""
        return self.root / f"{spec_hash}-v{self.engine_version}"

    def chunk_path(self, spec_hash: str, lo: int, hi: int) -> Path:
        """File path of the chunk covering scenario rows ``[lo, hi)``."""
        return self.entry_dir(spec_hash) / f"rows-{lo:09d}-{hi:09d}.npz"

    # -- chunk I/O -----------------------------------------------------------

    def put_chunk(
        self,
        spec: SweepSpec,
        lo: int,
        hi: int,
        columns: Mapping[str, np.ndarray],
    ) -> Path:
        """Atomically persist one chunk's column arrays (ignore-if-exists).

        The write goes to a unique temp file in the entry directory and is
        published with ``os.replace``, so readers never observe a partial
        file. The store is content-addressed and evaluation deterministic,
        so an already-published chunk is already *this* chunk: a racing
        second writer skips the publish (and, if it loses the existence race
        inside the syscall window, the replace is still byte-equivalent).
        """
        entry = self.entry_dir(spec.spec_hash)
        entry.mkdir(parents=True, exist_ok=True)
        meta = entry / "spec.json"
        if not meta.exists():
            self._atomic_write_bytes(meta, spec.canonical_json().encode())
        target = self.chunk_path(spec.spec_hash, lo, hi)
        if target.is_file():
            self.skipped_writes += 1
            return target
        fd, tmp_name = tempfile.mkstemp(
            dir=entry, prefix=target.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **dict(columns))
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return target

    def get_chunk(
        self, spec_hash: str, lo: int, hi: int, expected_columns: tuple[str, ...]
    ) -> dict[str, np.ndarray] | None:
        """Load one chunk, or None on miss/corruption (corrupt files are removed)."""
        path = self.chunk_path(spec_hash, lo, hi)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            with np.load(path) as data:
                if set(data.files) != set(expected_columns):
                    raise ValueError("column set mismatch")
                columns = {name: data[name] for name in expected_columns}
            for arr in columns.values():
                if len(arr) != hi - lo:
                    raise ValueError("row count mismatch")
        except (OSError, ValueError, KeyError, zipfile.BadZipFile, EOFError):
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return columns

    # -- management ----------------------------------------------------------

    def cached_chunks(self, spec_hash: str) -> list[tuple[int, int]]:
        """Row ranges already on disk for a spec, sorted."""
        entry = self.entry_dir(spec_hash)
        ranges: list[tuple[int, int]] = []
        if entry.is_dir():
            for path in entry.glob("rows-*-*.npz"):
                parts = path.stem.split("-")
                try:
                    ranges.append((int(parts[1]), int(parts[2])))
                except (IndexError, ValueError):
                    continue
        return sorted(ranges)

    def invalidate(self, spec_hash: str) -> int:
        """Remove one spec's entry; returns the number of files deleted."""
        entry = self.entry_dir(spec_hash)
        removed = 0
        if entry.is_dir():
            for path in sorted(entry.iterdir()):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                entry.rmdir()
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Remove every entry under the store root; returns files deleted."""
        removed = 0
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir():
                removed += self.invalidate(entry.name.split("-v")[0])
        return removed

    def stats(self) -> dict[str, int]:
        """Hit/miss/skip counters plus the number of entries on disk."""
        n_entries = sum(1 for p in self.root.iterdir() if p.is_dir())
        return {
            "hits": self.hits,
            "misses": self.misses,
            "skipped_writes": self.skipped_writes,
            "entries": n_entries,
        }

    @staticmethod
    def _atomic_write_bytes(path: Path, payload: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
