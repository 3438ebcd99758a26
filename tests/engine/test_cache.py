"""Cache correctness: LRU behaviour, disk store integrity, invalidation."""

import concurrent.futures
import threading

import numpy as np
import pytest

from repro.engine.cache import LRUCache, SweepStore
from repro.engine.plan import CIScenario, SweepSpec
from repro.engine.runner import COLUMNS, run_sweep
from repro.errors import ConfigurationError
from repro.node.determinism import DeterminismMode
from repro.node.pstates import FrequencySetting


def small_spec(**overrides):
    fields = dict(
        frequencies=(FrequencySetting.GHZ_2_0,),
        bios_modes=(DeterminismMode.POWER, DeterminismMode.PERFORMANCE),
        ci_scenarios=(CIScenario.flat(25.0), CIScenario.flat(190.0)),
        utilisations=(0.5, 0.9),
        node_counts=(1000,),
        lifetimes_years=(6.0,),
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestLRUCache:
    def test_get_put_and_counters(self):
        lru = LRUCache(max_entries=2)
        assert lru.get("a") is None
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert (lru.hits, lru.misses) == (1, 1)

    def test_evicts_least_recently_used(self):
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh a; b becomes LRU
        lru.put("c", 3)
        assert "b" not in lru
        assert "a" in lru and "c" in lru

    def test_invalidate_and_clear(self):
        lru = LRUCache()
        lru.put("a", 1)
        assert lru.invalidate("a")
        assert not lru.invalidate("a")
        lru.put("b", 2)
        lru.clear()
        assert len(lru) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            LRUCache(max_entries=0)

    def test_put_existing_at_capacity_evicts_nothing(self):
        """Overwriting a resident key at max_entries must not evict: the
        size does not grow, so no spurious eviction may fire."""
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # overwrite while full
        assert len(lru) == 2
        assert "a" in lru and "b" in lru
        assert lru.get("a") == 10

    def test_put_existing_refreshes_recency(self):
        """An overwritten key becomes most-recently-used, so the *other*
        key is the one evicted by the next insertion."""
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # a is now MRU; b is LRU
        lru.put("c", 3)
        assert "b" not in lru
        assert "a" in lru and "c" in lru
        assert lru.get("a") == 10


class TestSweepStoreChunks:
    def test_round_trip_is_byte_identical(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        fresh = run_sweep(spec, chunk_size=3, store=store)
        replay = run_sweep(spec, chunk_size=3, store=SweepStore(tmp_path))
        assert replay.meta.computed_chunks == 0
        for name in COLUMNS:
            assert fresh.columns[name].tobytes() == replay.columns[name].tobytes()
            assert fresh.columns[name].dtype == replay.columns[name].dtype

    def test_corrupt_chunk_is_treated_as_miss_and_removed(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=4, store=store)
        chunk = store.chunk_path(spec.spec_hash, 0, 4)
        chunk.write_bytes(b"not a zip file")
        assert store.get_chunk(spec.spec_hash, 0, 4, COLUMNS) is None
        assert not chunk.exists()
        # A re-run recomputes the damaged chunk and still matches.
        again = run_sweep(spec, chunk_size=4, store=store)
        clean = run_sweep(spec, chunk_size=4)
        for name in COLUMNS:
            assert again.columns[name].tobytes() == clean.columns[name].tobytes()

    def test_wrong_row_count_is_rejected(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=4, store=store)
        # Claim rows [0, 5) with a 4-row payload.
        good = store.chunk_path(spec.spec_hash, 0, 4)
        bad = store.chunk_path(spec.spec_hash, 0, 5)
        bad.write_bytes(good.read_bytes())
        assert store.get_chunk(spec.spec_hash, 0, 5, COLUMNS) is None

    def test_cached_chunks_lists_ranges(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=3, store=store)
        assert store.cached_chunks(spec.spec_hash) == [(0, 3), (3, 6), (6, 8)]


class TestInvalidation:
    def test_any_spec_field_change_misses(self, tmp_path):
        store = SweepStore(tmp_path)
        run_sweep(small_spec(), chunk_size=8, store=store)
        changed = small_spec(utilisations=(0.5, 0.91))
        result = run_sweep(changed, chunk_size=8, store=store)
        assert result.meta.disk_hits == 0
        assert result.meta.computed_chunks > 0

    def test_engine_version_bump_orphans_entries(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, chunk_size=8, store=SweepStore(tmp_path))
        future = SweepStore(tmp_path, engine_version="999")
        assert future.get_chunk(spec.spec_hash, 0, 8, COLUMNS) is None

    def test_explicit_invalidate_forces_recompute(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=8, store=store)
        assert store.invalidate(spec.spec_hash) > 0
        result = run_sweep(spec, chunk_size=8, store=store)
        assert result.meta.disk_hits == 0

    def test_memory_cache_is_version_keyed_and_clearable(self):
        spec = small_spec()
        lru = LRUCache()
        run_sweep(spec, memory_cache=lru)
        assert run_sweep(spec, memory_cache=lru).meta.memory_hit
        lru.clear()
        assert not run_sweep(spec, memory_cache=lru).meta.memory_hit


class TestConcurrentWriters:
    def test_put_chunk_ignores_existing_chunk(self, tmp_path):
        """Regression: a second writer must not republish an existing chunk."""
        spec = small_spec()
        store = SweepStore(tmp_path)
        result = run_sweep(spec, chunk_size=8, store=store)
        columns = {name: result.columns[name][:8] for name in COLUMNS}
        target = store.chunk_path(spec.spec_hash, 0, 8)
        before = target.stat().st_mtime_ns
        path = store.put_chunk(spec, 0, 8, columns)
        assert path == target
        assert store.skipped_writes == 1
        assert target.stat().st_mtime_ns == before  # untouched, not rewritten
        assert store.stats()["skipped_writes"] == 1

    def test_two_writers_racing_one_chunk(self, tmp_path):
        """Regression: two threads publishing the same chunk concurrently
        leave exactly one valid, readable copy behind."""
        spec = small_spec()
        reference = run_sweep(spec, chunk_size=8)
        columns = {name: reference.columns[name][:8] for name in COLUMNS}
        store = SweepStore(tmp_path)
        barrier = threading.Barrier(2)

        def racer(_):
            barrier.wait()
            return store.put_chunk(spec, 0, 8, columns)

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            paths = list(pool.map(racer, range(2)))
        assert paths[0] == paths[1]
        loaded = store.get_chunk(spec.spec_hash, 0, 8, COLUMNS)
        assert loaded is not None
        for name in COLUMNS:
            assert np.array_equal(loaded[name], columns[name], equal_nan=True)
        # No stray temp files left behind by either racer.
        leftovers = list(store.entry_dir(spec.spec_hash).glob("*.tmp"))
        assert leftovers == []

    def test_parallel_writers_do_not_corrupt(self, tmp_path):
        spec = small_spec()
        reference = run_sweep(spec, chunk_size=2)

        def writer(_):
            store = SweepStore(tmp_path)
            return run_sweep(spec, chunk_size=2, store=store)

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(writer, range(8)))
        for result in results:
            for name in COLUMNS:
                assert np.array_equal(
                    result.columns[name], reference.columns[name], equal_nan=True
                )
        replay = run_sweep(spec, chunk_size=2, store=SweepStore(tmp_path))
        assert replay.meta.computed_chunks == 0
        for name in COLUMNS:
            assert replay.columns[name].tobytes() == reference.columns[name].tobytes()
