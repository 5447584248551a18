"""Multi-process contention stress for the shared ResultCache.

Four worker processes hammer one cache directory with a mixed
read / write / evict / corrupt workload (``docs/robustness.md``'s
concurrency contract).  The assertions:

* **no crash** -- every worker runs its full schedule and returns;
* **no wrong hit** -- a ``get`` returns ``None`` or exactly the payload
  stored under that key, never another key's record or a torn read;
* **stale accounting** -- deliberately corrupted records surface as
  counted stale heals somewhere, and every worker's ``stale`` tally is
  within its ``misses`` tally (a stale lookup is always also a miss).

The schedule is deterministic per worker (index arithmetic, no RNG), so
a failure reproduces.  Each corruption is read back by its own worker
straight away, so stale heals are counted even when the workers happen
not to overlap in time.
"""

import os
from concurrent.futures import ProcessPoolExecutor

from repro.perf import ResultCache

WORKERS = 4
ITERATIONS = 150
KEYS = [ResultCache.key("contention", n) for n in range(6)]


def _hammer(root, worker_id):
    """One worker's deterministic schedule; returns its counter snapshot."""
    cache = ResultCache(root, max_bytes=None)
    wrong_hits = 0
    for i in range(ITERATIONS):
        key = KEYS[(i + worker_id) % len(KEYS)]
        op = (i * 7 + worker_id) % 10
        if op < 3:
            cache.put("module", key, ("payload", key))
        elif op < 7:
            value = cache.get("module", key)
            if value is not None and value != ("payload", key):
                wrong_hits += 1
        elif op < 8:
            # Corrupt the record in place: truncate-then-write races
            # with concurrent readers, exactly the torn/garbage shapes
            # the stale self-heal must absorb.
            path = cache._path("module", key)
            try:
                with open(path, "wb") as handle:
                    handle.write(b"garbage" * (worker_id + 1))
            except OSError:
                pass
            # Read the corruption back at once.  The worker's own next
            # two visits to this key (six iterations apart) are an
            # evict and a put, so without this a worker that ran alone
            # never met its own garbage and counted no stale heal.
            value = cache.get("module", key)
            if value is not None and value != ("payload", key):
                wrong_hits += 1
        else:
            cache.evict(max_bytes=256)
    stats = cache.stats()
    stats["wrong_hits"] = wrong_hits
    return stats


def test_concurrent_processes_share_one_cache(tmp_path):
    root = str(tmp_path)
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        futures = [
            pool.submit(_hammer, root, worker_id)
            for worker_id in range(WORKERS)
        ]
        results = [future.result(timeout=120) for future in futures]

    assert len(results) == WORKERS  # no worker crashed
    assert sum(r["wrong_hits"] for r in results) == 0
    # Corruption definitely happened; someone must have healed and
    # counted it, and nobody can count a stale without a miss.
    assert sum(r["stale"] for r in results) > 0
    for stats in results:
        assert stats["stale"] <= stats["misses"]
    # The store is still consistent after the storm: a fresh reader
    # sees only valid records.
    fresh = ResultCache(root)
    for key in KEYS:
        value = fresh.get("module", key)
        assert value is None or value == ("payload", key)
    # No temp-file litter survived the crashes and races.
    leftovers = [
        name
        for _, _, files in os.walk(root)
        for name in files
        if name.endswith(".tmp")
    ]
    assert leftovers == []
