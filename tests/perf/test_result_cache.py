"""The persistent result cache: store semantics and synthesis wiring.

Two layers under test.  The store itself (:class:`repro.perf.ResultCache`)
must be atomic, self-healing on stale or corrupt records, and honest in
its counters.  The synthesis wiring must make a warm run reproduce the
cold run exactly -- including the recorded wall-clock seconds, which is
what makes warm CLI output byte-identical -- and must refuse to serve or
store results across a change of result-relevant options or code salt.
"""

import os
import pickle

import pytest

from repro.bench import load_benchmark
from repro.csc import modular_synthesis
from repro.perf import (
    CACHE_SALT,
    ResultCache,
    graph_fingerprint,
    options_fingerprint,
)
from repro.runtime.budget import Budget
from repro.runtime.options import SynthesisOptions
from repro.stategraph import build_state_graph
from repro.stg import parse_g

from tests.example_stgs import ALL, CSC_CONFLICT


@pytest.fixture(autouse=True)
def _isolate_from_env_faults():
    # This suite asserts exact hit/miss/stale sequences; a CI-armed
    # cache fault (REPRO_FAULTS, the fault-matrix job) firing inside an
    # assertion would falsify them.  The env-armed points keep their
    # coverage in test_faults.py and the matrix's integration suites.
    from repro.runtime import faults

    faults.clear(env=True)
    yield
    faults.clear()


# -- the store itself -------------------------------------------------------

def test_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    key = ResultCache.key("a", "b")
    assert cache.get("module", key) is None
    assert cache.put("module", key, {"answer": 42})
    assert cache.get("module", key) == {"answer": 42}
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


def test_kinds_are_separate_namespaces(tmp_path):
    cache = ResultCache(tmp_path)
    key = ResultCache.key("shared")
    cache.put("module", key, "m")
    assert cache.get("artifact", key) is None
    assert cache.get("module", key) == "m"


def test_key_is_order_sensitive():
    assert ResultCache.key("a", "b") != ResultCache.key("b", "a")
    assert ResultCache.key("ab") != ResultCache.key("a", "b")


def test_corrupt_record_is_stale_then_healed(tmp_path):
    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    cache.put("module", key, "payload")
    path = cache._path("module", key)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    assert cache.get("module", key) is None
    assert cache.stale == 1
    assert not os.path.exists(path)  # self-healed
    # ... and the next lookup is a clean miss, not another stale.
    assert cache.get("module", key) is None
    assert cache.stale == 1
    assert cache.misses == 2


def test_salt_mismatch_is_stale(tmp_path):
    old = ResultCache(tmp_path, salt="repro-result-cache/0")
    key = ResultCache.key("x")
    old.put("module", key, "obsolete")
    fresh = ResultCache(tmp_path)
    assert fresh.get("module", key) is None
    assert fresh.stale == 1
    assert CACHE_SALT != "repro-result-cache/0"


def test_envelope_without_payload_is_stale(tmp_path):
    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    path = cache._path("module", key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump({"salt": CACHE_SALT}, handle)
    assert cache.get("module", key) is None
    assert cache.stale == 1


def test_unpicklable_payload_is_swallowed(tmp_path):
    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    assert not cache.put("module", key, lambda: None)
    assert cache.stores == 0
    # No half-written record (the temp file was cleaned up too).
    assert cache.get("module", key) is None
    leftovers = [
        name
        for _, _, files in os.walk(tmp_path)
        for name in files
        if name.endswith(".tmp")
    ]
    assert leftovers == []


def test_sharded_record_layout(tmp_path):
    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    cache.put("module", key, "payload")
    path = cache._path("module", key)
    # Two-level layout: <root>/<kind>/<first-two-hex>/<key>.rec
    assert path == os.path.join(
        str(tmp_path), "module", key[:2], key + ".rec"
    )
    assert os.path.exists(path)


def test_stale_removal_tolerates_concurrent_deleter(tmp_path, monkeypatch):
    # Another process healing the same stale record first must count as
    # stale here too -- the record is gone either way.
    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    cache.put("module", key, "payload")
    path = cache._path("module", key)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")

    real_remove = os.remove

    def racing_remove(target, *args, **kwargs):
        real_remove(target)  # the concurrent deleter wins ...
        return real_remove(target)  # ... and ours sees FileNotFoundError

    monkeypatch.setattr(os, "remove", racing_remove)
    assert cache.get("module", key) is None
    assert cache.stale == 1
    assert not os.path.exists(path)


def test_stale_removal_spares_concurrently_rewritten_record(tmp_path):
    # The self-heal compares inodes before deleting: if a writer already
    # replaced the corrupt record with a good one, the good record stays.
    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    cache.put("module", key, "good")
    path = cache._path("module", key)
    good_inode = os.stat(path).st_ino
    corrupt = path + ".corrupt"
    with open(corrupt, "wb") as handle:
        handle.write(b"not a pickle")
    corrupt_inode = os.stat(corrupt).st_ino
    assert corrupt_inode != good_inode
    # Simulate "read the corrupt record, then a writer replaced it":
    cache._discard_stale(path, corrupt_inode)
    assert os.path.exists(path)
    assert cache.get("module", key) == "good"


def test_eviction_drops_lru_records(tmp_path):
    cache = ResultCache(tmp_path, max_bytes=0)
    keys = [ResultCache.key(str(n)) for n in range(3)]
    # max_bytes=0: every put immediately evicts everything, oldest first.
    for key in keys:
        cache.put("module", key, "x" * 64)
    assert cache.evictions == 3
    assert all(cache.get("module", key) is None for key in keys)


def test_eviction_keeps_recently_used_records(tmp_path):
    cache = ResultCache(tmp_path)
    old_key, new_key = ResultCache.key("old"), ResultCache.key("new")
    cache.put("module", old_key, "x" * 256)
    path = cache._path("module", old_key)
    os.utime(path, (1, 1))  # age the first record far into the past
    cache.put("module", new_key, "x" * 256)
    size = os.path.getsize(cache._path("module", new_key))
    assert cache.evict(max_bytes=size) == 1
    assert cache.get("module", old_key) is None
    assert cache.get("module", new_key) is not None


def test_hit_touches_record_for_lru(tmp_path):
    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    cache.put("module", key, "payload")
    path = cache._path("module", key)
    os.utime(path, (1, 1))
    cache.get("module", key)
    info = os.stat(path)
    assert max(info.st_atime, info.st_mtime) > 1


def test_unbounded_evict_is_noop(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("module", ResultCache.key("x"), "payload")
    assert cache.evict() == 0
    assert cache.evictions == 0


def test_max_bytes_validation(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(tmp_path, max_bytes=-1)


def test_io_error_fault_on_get_is_counted_miss(tmp_path):
    from repro.runtime import faults

    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    cache.put("module", key, "payload")
    with faults.injected("cache-io-error", match=lambda d: d == "get"):
        assert cache.get("module", key) is None
    assert cache.io_errors == 1
    assert cache.misses == 1
    assert cache.stale == 0  # an I/O failure is not a stale record
    assert cache.get("module", key) == "payload"  # transient, not healed


def test_io_error_fault_on_put_skips_store(tmp_path):
    from repro.runtime import faults

    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    with faults.injected("cache-io-error", match=lambda d: d == "put"):
        assert not cache.put("module", key, "payload")
    assert cache.io_errors == 1
    assert cache.stores == 0
    assert cache.get("module", key) is None


def test_corrupt_record_fault_drives_self_heal(tmp_path):
    from repro.runtime import faults

    cache = ResultCache(tmp_path)
    key = ResultCache.key("x")
    cache.put("module", key, "payload")
    path = cache._path("module", key)
    with faults.injected("cache-corrupt-record"):
        assert cache.get("module", key) is None
    assert cache.stale == 1
    assert not os.path.exists(path)  # healed a byte-good record


def test_stats_snapshot(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.stats()["hit_rate"] is None
    key = ResultCache.key("x")
    cache.get("module", key)
    cache.put("module", key, "payload")
    cache.get("module", key)
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["stores"] == 1
    assert stats["hit_rate"] == 0.5


# -- fingerprints -----------------------------------------------------------

def test_options_fingerprint_ignores_scheduling_fields(tmp_path):
    base = options_fingerprint(SynthesisOptions(minimize=True))
    assert base == options_fingerprint(SynthesisOptions(
        minimize=True, cache_dir=str(tmp_path), cache_max_bytes=1 << 20,
        budget=Budget(max_seconds=100), verify_level="hazards",
    ))


def test_cache_keys_are_pinned():
    # Existing result caches stay warm only while these texts hold:
    # a changed fingerprint or key silently turns every lookup into a
    # miss.  Change them together with CACHE_SALT, never alone.
    from repro.stg.canonical import g_fingerprint

    fingerprint = options_fingerprint(SynthesisOptions(), "modular")
    assert fingerprint == (
        "method=modular;limits=None;minimize=True;max_signals=None;"
        "output_order=None;signal_prefix=None;engine='hybrid';"
        "polish=True;fallback=False;degrade=False;sat_mode='incremental'"
    )
    stg_fp = g_fingerprint(load_benchmark("nak-pa"))
    assert ResultCache.key(stg_fp, fingerprint, "artifact", "modular") == (
        "1f4fa339bcd460e19cffaf34bc7bf4d955279fcf929e1a178436086e9e91f78d"
    )


def test_options_fingerprint_tracks_result_fields():
    base = options_fingerprint(SynthesisOptions(minimize=True))
    assert base != options_fingerprint(SynthesisOptions(minimize=False))
    assert base != options_fingerprint(SynthesisOptions(
        minimize=True, engine="bdd"
    ))
    assert base != options_fingerprint(
        SynthesisOptions(minimize=True), method="direct"
    )
    assert base != options_fingerprint(SynthesisOptions(
        minimize=True, sat_mode="oneshot"
    ))


def test_salt_bumped_for_incremental_sat():
    # Entries written before the incremental SAT core may decode
    # differently (different but equally valid models), so the salt had
    # to move past every pre-incremental version.
    old = int("repro-result-cache/1".rsplit("/", 1)[1])
    assert int(CACHE_SALT.rsplit("/", 1)[1]) > old


def test_graph_fingerprint_is_structural():
    stg = parse_g(CSC_CONFLICT)
    one = graph_fingerprint(build_state_graph(stg))
    two = graph_fingerprint(build_state_graph(parse_g(CSC_CONFLICT)))
    assert one == two
    other = graph_fingerprint(build_state_graph(parse_g(ALL["handshake"])))
    assert one != other


# -- synthesis wiring -------------------------------------------------------

def _observable(result):
    return {
        "names": result.assignment.names,
        "values": result.assignment.values,
        "covers": {s: str(c) for s, c in sorted(result.covers.items())},
        "final_states": result.final_states,
        "final_signals": result.final_signals,
        "literals": result.literals,
        "modules": [
            (m.output, m.status, m.detail) for m in result.report.modules
        ],
        "seconds": result.seconds,
    }


@pytest.mark.parametrize("sat_mode", ["incremental", "oneshot"])
def test_warm_run_reproduces_cold_run(tmp_path, sat_mode):
    graph = build_state_graph(load_benchmark("alloc-outbound"))
    options = SynthesisOptions(
        minimize=True, cache_dir=str(tmp_path), sat_mode=sat_mode
    )
    cold = modular_synthesis(graph, options=options)
    warm = modular_synthesis(graph, options=options)
    # Identical to the ``seconds`` field: the artifact stores the cold
    # run's timing, which is what keeps warm CLI stdout byte-identical.
    assert _observable(cold) == _observable(warm)


def test_warm_run_from_stg_input(tmp_path):
    stg = parse_g(CSC_CONFLICT)
    options = SynthesisOptions(minimize=True, cache_dir=str(tmp_path))
    cold = modular_synthesis(stg, options=options)
    warm = modular_synthesis(stg, options=options)
    assert _observable(cold) == _observable(warm)


def test_cache_matches_uncached_run(tmp_path):
    graph = build_state_graph(load_benchmark("sbuf-read-ctl"))
    plain = modular_synthesis(graph, options=SynthesisOptions(minimize=True))
    options = SynthesisOptions(minimize=True, cache_dir=str(tmp_path))
    modular_synthesis(graph, options=options)
    warm = modular_synthesis(graph, options=options)
    observed = _observable(warm)
    observed.pop("seconds")
    expected = _observable(plain)
    expected.pop("seconds")
    assert observed == expected


def test_different_options_do_not_share_entries(tmp_path):
    stg = parse_g(CSC_CONFLICT)
    hybrid = SynthesisOptions(
        minimize=True, cache_dir=str(tmp_path), engine="hybrid"
    )
    bdd = SynthesisOptions(
        minimize=True, cache_dir=str(tmp_path), engine="bdd"
    )
    modular_synthesis(stg, options=hybrid)
    result = modular_synthesis(stg, options=bdd)
    # A fresh engine=bdd run against the hybrid-primed cache must not
    # have adopted the hybrid artifact: its seconds are its own.
    rerun = modular_synthesis(stg, options=bdd)
    assert _observable(result) == _observable(rerun)


def test_timed_budget_runs_are_not_stored(tmp_path):
    stg = parse_g(CSC_CONFLICT)

    def run(budget):
        return modular_synthesis(stg, options=SynthesisOptions(
            minimize=True, cache_dir=str(tmp_path), budget=budget,
        ))

    run(Budget(max_seconds=3600))
    stored = sum(len(files) for _, _, files in os.walk(tmp_path))
    assert stored == 0  # a timed run may have clipped sub-limits
    # A state-cap-only budget is safe to cache (the CLI default).
    run(Budget(max_states=10_000))
    stored = sum(len(files) for _, _, files in os.walk(tmp_path))
    assert stored > 0
