"""Concurrent-access regression tests for the shared query store.

The cluster points every worker process at one shared store directory.
Steady-state routing makes each program single-writer, but worker
restarts and mid-flight resharding open multi-writer windows — these
tests hammer exactly that window and assert the atomic write-rename
discipline holds: readers never observe a torn entry, no entry is
rejected, and no temp files leak.
"""

import json
import multiprocessing

from repro.util.store import SUFFIX, BlobStore

#: Same-fingerprint writers race toward identical content (the
#: fingerprint pins the inputs), so each fingerprint has one truth.
FINGERPRINTS = [f"fp{i:02d}" for i in range(8)]


def _expected(fingerprint: str) -> dict:
    return {"fingerprint": fingerprint, "blob": "x" * 4096}


def _hammer(directory: str, iterations: int) -> int:
    """Interleave stores and loads; count every torn or rejected read."""
    cache = BlobStore(directory)
    torn = 0
    for i in range(iterations):
        fingerprint = FINGERPRINTS[i % len(FINGERPRINTS)]
        cache.put("points_to", fingerprint, json.dumps(_expected(fingerprint)))
        loaded = cache.load(
            "points_to", FINGERPRINTS[(i * 3 + 1) % len(FINGERPRINTS)], json.loads
        )
        if loaded is not None and loaded != _expected(loaded["fingerprint"]):
            torn += 1
    return torn + cache.rejected


def test_many_processes_share_one_cache_directory(tmp_path):
    directory = str(tmp_path / "cache")
    method = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    ctx = multiprocessing.get_context(method)
    with ctx.Pool(4) as pool:
        torn_counts = pool.starmap(_hammer, [(directory, 200)] * 4)
    assert torn_counts == [0, 0, 0, 0]
    cache = BlobStore(directory)
    # Every entry on disk is complete, parseable, and correct.
    entries = sorted(cache.directory.glob(f"*{SUFFIX}"))
    assert len(entries) == len(FINGERPRINTS)
    for fingerprint in FINGERPRINTS:
        payload = cache.load("points_to", fingerprint, json.loads)
        assert payload == _expected(fingerprint)
    assert cache.rejected == 0
    # No abandoned write-side temp files survived the stampede.
    assert not list(cache.directory.glob("*.tmp"))
    assert not list(cache.directory.glob(".*"))


def test_store_failure_leaves_no_temp_file(tmp_path):
    cache = BlobStore(tmp_path)
    target = cache.path("q", "fp")
    # Make the rename target unreachable: the name is now a directory.
    target.mkdir()
    cache.put("q", "fp", json.dumps({"v": 1}))  # swallowed, by contract
    assert cache.load("q", "fp", json.loads) is None
    assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob(".*"))


def test_concurrent_same_fingerprint_store_threads(tmp_path):
    import threading

    cache = BlobStore(tmp_path)
    barrier = threading.Barrier(8)

    def writer():
        barrier.wait(timeout=10)
        for _ in range(50):
            cache.put("acquires", "fp", json.dumps(_expected("fp")))
            loaded = cache.load("acquires", "fp", json.loads)
            assert loaded is None or loaded == _expected("fp")

    threads = [threading.Thread(target=writer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert cache.load("acquires", "fp", json.loads) == _expected("fp")
    assert cache.rejected == 0
    assert not list(tmp_path.glob(".*"))
