"""Persistent, content-addressed cache of synthesis results.

A :class:`ResultCache` is an on-disk store keyed by content, not by file
path or mtime: the key of every record is a SHA-256 over

* the **canonical** ``.g`` text of the input STG
  (:func:`repro.stg.canonical.g_fingerprint`), or a structural
  fingerprint of the state graph when synthesis was handed a prebuilt
  :class:`~repro.stategraph.graph.StateGraph`;
* an **options fingerprint** -- every
  :class:`~repro.runtime.options.SynthesisOptions` field that can change
  the result (``budget``, ``cache_dir``, ``cache_max_bytes`` and
  ``verify_level`` are deliberately excluded: they change how a result
  is produced or checked, never *what* is produced -- the determinism
  contract of ``docs/parallelism.md``);
* a **code version salt** (:data:`CACHE_SALT`), bumped whenever solver
  or propagation logic changes meaning, so stale caches self-invalidate
  instead of replaying results of old code.

Two record kinds share one store:

``artifact``
    A whole :class:`~repro.csc.synthesis.ModularResult`, keyed by
    method name.  A warm hit skips the entire run and reproduces
    byte-identical CLI output, including the recorded wall-clock time
    of the original run.
``response``
    A complete serialized service response, keyed by the request
    fingerprint (:mod:`repro.service`).

Concurrency contract
--------------------
The store is safe for **concurrent multi-process** use -- service
workers, bench shards and overlapping CLI runs may share one cache
directory (``docs/robustness.md``):

* Records live in a sharded two-level layout
  (``<root>/<kind>/ab/abcdef....rec``) so no single directory grows
  unboundedly and concurrent writers rarely touch the same directory
  entry.
* **Reads are lock-free.**  Records are pickled ``{"salt": ...,
  "payload": ...}`` envelopes written atomically (temp file +
  :func:`os.replace` under the write lock), so a reader sees either the
  old complete record or the new complete record, never a torn one.
* **Writes take an advisory lock** on ``<root>/.lock``
  (:func:`fcntl.flock`, with an ``msvcrt`` fallback and a no-op shim on
  platforms with neither) around the publish rename and around
  eviction, so two writers cannot interleave a rename with a removal.
* A record that fails to unpickle or carries a different salt is
  *stale*: it is deleted -- under the lock, and only after re-checking
  that the inode on disk is still the one that was read, so a record a
  concurrent writer just replaced with a good one is never deleted --
  and the lookup proceeds as a miss.  A concurrent deleter winning the
  race (the file is already gone) still counts as stale: the heal
  happened, just not by this process.
* The store is **size-bounded**: with ``max_bytes`` set, every put
  triggers :meth:`ResultCache.evict`, which removes
  least-recently-used records (by access time; hits touch their
  record) until the store fits.  Eviction is safe under concurrent
  readers -- a reader that already opened the record keeps its handle;
  a reader that lost the race takes a plain miss.
* A filesystem error on the read or write path (``EIO``, quota, a
  vanished directory) is a counted, non-fatal event: the lookup becomes
  a miss, the store is skipped.  Caching is an optimisation, never a
  correctness dependency.

Fault injection: ``cache-corrupt-record`` makes :meth:`ResultCache.get`
treat the record it just read as corrupt (driving the self-heal path on
a byte-good record); ``cache-io-error`` fails one ``get`` or ``put`` as
an :class:`OSError` would (see :mod:`repro.runtime.faults`).

Counters mirrored into :mod:`repro.obs`: ``result_cache_hits``,
``result_cache_misses``, ``result_cache_stale``,
``result_cache_stores``, ``result_cache_evictions``,
``result_cache_io_errors``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from contextlib import contextmanager

from repro import obs
from repro.runtime import faults

#: Version salt baked into every record.  Bump when a change to solver,
#: propagation, repair or minimisation logic makes previously cached
#: results meaningless.
CACHE_SALT = "repro-result-cache/2"

#: Record filename suffix.
RECORD_SUFFIX = ".rec"

#: SynthesisOptions fields that parameterise *what* is computed.  The
#: excluded fields (``budget``, ``cache_dir``, ``cache_max_bytes``,
#: ``verify_level``) only change how the computation is run or checked.
_FINGERPRINT_FIELDS = (
    "minimize", "max_signals", "output_order", "signal_prefix",
    "engine", "polish", "fallback", "degrade", "sat_mode",
)


def options_fingerprint(opts, method="modular"):
    """A deterministic text form of the result-relevant options.

    Limits are spelled out field by field (``Limits`` has no stable
    ``repr``); every other relevant field reprs deterministically.
    """
    parts = [f"method={method}"]
    limits = opts.limits
    if limits is None:
        parts.append("limits=None")
    else:
        parts.append(
            f"limits=({limits.max_backtracks!r},{limits.max_seconds!r})"
        )
    for name in _FINGERPRINT_FIELDS:
        parts.append(f"{name}={getattr(opts, name)!r}")
    return ";".join(parts)


def graph_fingerprint(graph):
    """Structural SHA-256 of a prebuilt state graph.

    Hashes behaviour, not representation: state ids are replaced by
    their codes, edges are sorted, so two constructions of the same
    graph fingerprint equal.
    """
    digest = hashlib.sha256()
    digest.update(repr(tuple(graph.signals)).encode())
    digest.update(repr(tuple(sorted(graph.non_inputs))).encode())
    digest.update(repr(tuple(sorted(graph.codes))).encode())
    digest.update(repr(graph.codes[graph.initial]).encode())
    digest.update(
        repr(
            tuple(
                sorted(
                    (graph.codes[s], label, graph.codes[t])
                    for s, label, t in graph.edges
                )
            )
        ).encode()
    )
    return digest.hexdigest()


# -- advisory file locking, per platform -----------------------------------

try:
    import fcntl as _fcntl

    def _lock_handle(handle):
        _fcntl.flock(handle.fileno(), _fcntl.LOCK_EX)

    def _unlock_handle(handle):
        _fcntl.flock(handle.fileno(), _fcntl.LOCK_UN)

except ImportError:  # pragma: no cover - Windows
    try:
        import msvcrt as _msvcrt

        def _lock_handle(handle):
            handle.seek(0)
            _msvcrt.locking(handle.fileno(), _msvcrt.LK_LOCK, 1)

        def _unlock_handle(handle):
            handle.seek(0)
            _msvcrt.locking(handle.fileno(), _msvcrt.LK_UNLCK, 1)

    except ImportError:  # pragma: no cover - no locking primitive at all

        def _lock_handle(handle):
            pass

        def _unlock_handle(handle):
            pass


class ResultCache:
    """On-disk content-addressed store of synthesis results.

    Parameters
    ----------
    root:
        Cache directory; created (with parents) when missing.
    salt:
        Code version salt; records carrying any other salt are stale.
    max_bytes:
        Size bound.  After every store, least-recently-used records are
        evicted until total record bytes fit.  ``None`` never evicts.
    """

    def __init__(self, root, salt=CACHE_SALT, max_bytes=None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(
                f"max_bytes must be >= 0 or None, not {max_bytes!r}"
            )
        self.root = os.fspath(root)
        self.salt = salt
        self.max_bytes = max_bytes
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.stores = 0
        self.evictions = 0
        self.io_errors = 0

    @staticmethod
    def key(*parts):
        """SHA-256 over the joined key components."""
        joined = "\x1f".join(str(part) for part in parts)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    def _path(self, kind, key):
        return os.path.join(self.root, kind, key[:2], key + RECORD_SUFFIX)

    @property
    def _lock_path(self):
        return os.path.join(self.root, ".lock")

    @contextmanager
    def _locked(self):
        """Hold the store's advisory write lock for the body.

        Readers never take it (reads are rename-atomic); writers and
        evictors serialise on it.  A filesystem that cannot even open
        the lock file degrades to best-effort unlocked operation --
        the rename is still atomic, only write/evict interleavings
        lose their ordering guarantee.
        """
        try:
            handle = open(self._lock_path, "ab")
        except OSError:
            yield
            return
        try:
            try:
                _lock_handle(handle)
            except OSError:
                yield
                return
            try:
                yield
            finally:
                try:
                    _unlock_handle(handle)
                except OSError:
                    pass
        finally:
            handle.close()

    # -- lookup ------------------------------------------------------------

    def get(self, kind, key):
        """The cached payload, or ``None`` on miss, stale or I/O error.

        Lock-free: the record file is either a complete envelope or
        absent (writers publish with an atomic rename).  A hit touches
        the record's timestamps so LRU eviction sees the use.  With a
        tracer installed, the lookup's latency lands in the
        ``cache_lookup_seconds`` histogram (hit, miss and stale alike).
        """
        if obs.enabled():
            from repro.obs import Stopwatch

            watch = Stopwatch()
            try:
                return self._get(kind, key)
            finally:
                obs.observe("cache_lookup_seconds", watch.elapsed())
        return self._get(kind, key)

    def _get(self, kind, key):
        path = self._path(kind, key)
        if faults.should_fire("cache-io-error", detail="get"):
            return self._io_miss("injected fault: cache read failed")
        inode = None
        try:
            with open(path, "rb") as handle:
                try:
                    inode = os.fstat(handle.fileno()).st_ino
                except OSError:
                    inode = None
                record = pickle.load(handle)
            if not isinstance(record, dict) or "payload" not in record:
                raise ValueError("malformed cache record")
            if record.get("salt") != self.salt:
                raise ValueError("cache salt mismatch")
            if faults.should_fire("cache-corrupt-record", detail=kind):
                raise ValueError("injected fault: corrupt cache record")
        except FileNotFoundError:
            self.misses += 1
            obs.add("result_cache_misses")
            return None
        except OSError:
            # The file exists but could not be read (EIO, permissions,
            # a directory vanishing mid-walk): transient, not stale --
            # deleting on it would turn a flaky disk into cache churn.
            return self._io_miss("cache read failed")
        except Exception:
            # Unreadable, truncated, unpicklable, or written by another
            # code version: self-heal by dropping the record.
            self.stale += 1
            obs.add("result_cache_stale")
            self.misses += 1
            obs.add("result_cache_misses")
            self._discard_stale(path, inode)
            return None
        self.hits += 1
        obs.add("result_cache_hits")
        try:
            os.utime(path)
        except OSError:
            pass  # the record may already be evicted; the hit stands
        return record["payload"]

    def _io_miss(self, _reason):
        """Count a filesystem failure and fall through as a miss."""
        self.io_errors += 1
        obs.add("result_cache_io_errors")
        self.misses += 1
        obs.add("result_cache_misses")
        return None

    def _discard_stale(self, path, inode):
        """Remove a record that read as stale, tolerating every race.

        Under the write lock, the record is re-checked by inode: if a
        concurrent writer already replaced it with a fresh record (new
        inode), the fresh record is left alone.  A concurrent deleter
        winning the race (``FileNotFoundError``) is equally fine -- the
        stale record is gone either way, which is all this method
        promises.
        """
        with self._locked():
            try:
                current = os.stat(path)
            except OSError:
                return  # already healed by someone else
            if inode is not None and current.st_ino != inode:
                return  # concurrently rewritten; presume the new one good
            try:
                os.remove(path)
            except FileNotFoundError:
                pass  # a concurrent deleter won; same outcome
            except OSError:
                pass

    # -- store -------------------------------------------------------------

    def put(self, kind, key, payload):
        """Store ``payload`` atomically under ``(kind, key)``.

        A failed pickle (payload holds an unpicklable object) or a
        filesystem failure is swallowed: caching is an optimisation,
        never a correctness dependency.  With ``max_bytes`` set, a
        successful store then evicts LRU records until the bound holds.
        """
        if faults.should_fire("cache-io-error", detail="put"):
            self.io_errors += 1
            obs.add("result_cache_io_errors")
            return False
        path = self._path(kind, key)
        record = {"salt": self.salt, "payload": payload}
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
            with self._locked():
                os.replace(tmp, path)
            tmp = None
        except OSError:
            self.io_errors += 1
            obs.add("result_cache_io_errors")
            self._remove_tmp(tmp)
            return False
        except Exception:
            self._remove_tmp(tmp)
            return False
        self.stores += 1
        obs.add("result_cache_stores")
        if self.max_bytes is not None:
            self.evict()
        return True

    @staticmethod
    def _remove_tmp(tmp):
        if tmp is not None:
            try:
                os.remove(tmp)
            except OSError:
                pass

    # -- size bound --------------------------------------------------------

    def evict(self, max_bytes=None):
        """Drop least-recently-used records until the store fits.

        ``max_bytes`` defaults to the constructor's bound; ``None`` with
        no bound set is a no-op.  Use recency is ``max(atime, mtime)``
        (hits touch their record; ``noatime`` mounts still advance
        mtime through the touch).  Safe under concurrent readers and
        writers: removal runs under the write lock, and a record that
        vanishes mid-scan -- a concurrent evictor or self-heal won the
        race -- is simply skipped.  Returns the number of records
        evicted.
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None:
            return 0
        entries = []
        total = 0
        for path in self._records():
            try:
                info = os.stat(path)
            except OSError:
                continue  # vanished mid-scan
            entries.append(
                (max(info.st_atime, info.st_mtime), info.st_size, path)
            )
            total += info.st_size
        if total <= bound:
            return 0
        evicted = 0
        entries.sort()
        with self._locked():
            for _used, size, path in entries:
                if total <= bound:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue  # already gone; its bytes are reclaimed too
                total -= size
                evicted += 1
                self.evictions += 1
                obs.add("result_cache_evictions")
        return evicted

    def _records(self):
        """Every record path currently in the store (best-effort walk)."""
        try:
            kinds = sorted(os.listdir(self.root))
        except OSError:
            return
        for kind in kinds:
            kind_dir = os.path.join(self.root, kind)
            if not os.path.isdir(kind_dir):
                continue
            try:
                shards = sorted(os.listdir(kind_dir))
            except OSError:
                continue
            for shard in shards:
                shard_dir = os.path.join(kind_dir, shard)
                try:
                    names = sorted(os.listdir(shard_dir))
                except OSError:
                    continue
                for name in names:
                    if name.endswith(RECORD_SUFFIX):
                        yield os.path.join(shard_dir, name)

    # -- inspection --------------------------------------------------------

    def stats(self):
        """Counter snapshot with the derived hit rate.

        ``hit_rate`` is hits over lookups (hits + misses), ``None``
        before the first lookup.
        """
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "stores": self.stores,
            "evictions": self.evictions,
            "io_errors": self.io_errors,
            "hit_rate": (self.hits / lookups) if lookups else None,
        }

    def __repr__(self):
        return (
            f"ResultCache({self.root!r}, hits={self.hits}, "
            f"misses={self.misses}, stale={self.stale}, "
            f"evictions={self.evictions})"
        )
