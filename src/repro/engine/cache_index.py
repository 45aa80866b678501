"""Sqlite index over the :class:`~repro.engine.cache.RunCache` directory.

The file-per-record layout is what makes the cache crash-safe (a record
appears atomically or not at all), but every *aggregate* operation on it —
``cache stats``, ``__len__``, LRU eviction under a size bound — was a
directory walk: ``glob`` + ``stat`` over every record, O(n) per call and
O(n²) across a bounded sweep.  :class:`CacheIndex` keeps a WAL-mode sqlite
database (``index.db`` beside the records) mapping

    key -> (payload file name, size, mtime, engine fingerprint)

so those aggregates become single indexed queries: entry/byte totals are
one ``SELECT count(*), sum(size)``, the LRU victim scan is an indexed
``ORDER BY mtime`` walk that stops at the bound, and a hit's recency bump
is one ``UPDATE``.  **Payloads stay content-addressed JSON files** — the
index is an accelerator, never the source of truth:

* WAL mode + a generous busy timeout make one database safe for 8+
  concurrent reader/writer processes (each process opens its own
  connection; a connection inherited across ``fork`` is discarded, not
  shared);
* every operation funnels through one executor that **degrades on any
  sqlite error**: the index marks itself unavailable, warns once per
  process, and every caller falls back to the original directory-walk
  path — a broken or unwritable index can cost speed, never correctness;
* records written by older versions (or with the index disabled via
  ``$REPRO_CACHE_INDEX=0``) are picked up by :meth:`RunCache.migrate`,
  which is idempotent and safe to run against a live server because
  single-record reads/writes never touch the advisory lock it runs under.
"""

from __future__ import annotations

import os
import sqlite3
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.options import INDEX_ENV

__all__ = ["CacheIndex", "INDEX_FILENAME", "INDEX_ENV", "index_enabled"]

#: the index database, stored beside the record files it indexes
INDEX_FILENAME = "index.db"

#: how long one statement waits on a locked database before the index
#: degrades (WAL keeps writers brief, so contention this long is a hang)
_BUSY_TIMEOUT_S = 10.0

#: one unavailable-index warning per process, not one per operation
_warned_unavailable = False

# lookup latency through the index (the file-scan comparison lives in
# BENCH_serve.json; this is the live number --metrics reports)
_M_LOOKUP = obs_metrics.histogram("cache.index_lookup_s")
_M_FALLBACKS = obs_metrics.counter("cache.index_fallbacks")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key    TEXT PRIMARY KEY,
    path   TEXT NOT NULL,
    size   INTEGER NOT NULL,
    mtime  REAL NOT NULL,
    engine TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS records_by_mtime ON records (mtime, key);
"""


def index_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether new :class:`~repro.engine.cache.RunCache` instances index."""
    env = environ if environ is not None else os.environ
    return env.get(INDEX_ENV, "1") != "0"


class CacheIndex:
    """Process-local handle on the shared ``index.db`` of one cache root.

    All methods are **total**: on any sqlite failure they disable the
    index for this instance (one warning per process) and return the
    neutral value (``None`` / ``0`` / ``[]``), so callers can always fall
    back to the directory-walk path without exception handling.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.path = self.root / INDEX_FILENAME
        self.available = True
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None

    # ------------------------------------------------------------------ #
    # connection management
    # ------------------------------------------------------------------ #
    def _connect(self, create: bool) -> Optional[sqlite3.Connection]:
        """This process's connection (``None`` when degraded/absent).

        ``create=False`` read paths never materialise the database (or the
        cache directory) just to report emptiness.  A connection inherited
        across ``fork`` is dropped without closing — the parent owns those
        file descriptors — and reopened under the child's pid.
        """
        if not self.available:
            return None
        if self._conn is not None:
            if self._pid == os.getpid():
                return self._conn
            self._conn = None  # forked copy: abandon, never close
        if not create and not self.path.is_file():
            return None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.path), timeout=_BUSY_TIMEOUT_S,
                                   isolation_level=None)
            conn.execute(f"PRAGMA busy_timeout = {int(_BUSY_TIMEOUT_S * 1000)}")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.executescript(_SCHEMA)
        except sqlite3.Error as error:
            self._disable(error)
            return None
        self._conn = conn
        self._pid = os.getpid()
        return conn

    def _disable(self, error: BaseException) -> None:
        """Mark the index unusable; callers fall back to directory walks."""
        global _warned_unavailable
        self.available = False
        self._conn = None
        _M_FALLBACKS.inc()
        if not _warned_unavailable:
            _warned_unavailable = True
            warnings.warn(
                f"cache index {self.path} unavailable "
                f"({type(error).__name__}: {error}); falling back to "
                "directory scans (records stay intact; 'repro cache migrate' "
                "rebuilds the index)",
                RuntimeWarning,
                stacklevel=4,
            )

    def _run(self, sql: str, params: Tuple[Any, ...] = (),
             create: bool = False) -> Optional[sqlite3.Cursor]:
        conn = self._connect(create)
        if conn is None:
            return None
        try:
            return conn.execute(sql, params)
        except sqlite3.Error as error:
            self._disable(error)
            return None

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - already torn down
                pass
        self._conn = None

    # ------------------------------------------------------------------ #
    # record maintenance (called from RunCache's write paths)
    # ------------------------------------------------------------------ #
    def add(self, key: str, name: str, size: int, mtime: float,
            engine: str = "") -> None:
        """Insert or refresh one record row (upsert; engine sticks)."""
        self._run(
            "INSERT INTO records (key, path, size, mtime, engine) "
            "VALUES (?, ?, ?, ?, ?) ON CONFLICT(key) DO UPDATE SET "
            "path = excluded.path, size = excluded.size, "
            "mtime = excluded.mtime, engine = CASE "
            "WHEN excluded.engine = '' THEN records.engine "
            "ELSE excluded.engine END",
            (key, name, int(size), float(mtime), engine),
            create=True,
        )

    def touch(self, key: str, mtime: float) -> bool:
        """Bump a row's recency; ``False`` when the key is not indexed."""
        cursor = self._run("UPDATE records SET mtime = ? WHERE key = ?",
                           (float(mtime), key))
        return cursor is not None and cursor.rowcount > 0

    def remove(self, key: str) -> None:
        self._run("DELETE FROM records WHERE key = ?", (key,))

    def clear(self) -> None:
        self._run("DELETE FROM records")

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """Indexed row for ``key`` (``None`` on miss or degraded index)."""
        started = time.perf_counter()
        cursor = self._run(
            "SELECT path, size, mtime, engine FROM records WHERE key = ?",
            (key,))
        row = cursor.fetchone() if cursor is not None else None
        _M_LOOKUP.observe(time.perf_counter() - started)
        if row is None:
            return None
        return {"path": row[0], "size": row[1], "mtime": row[2],
                "engine": row[3]}

    def totals(self) -> Optional[Tuple[int, int]]:
        """``(entries, bytes)`` in one indexed query (``None`` = degraded)."""
        cursor = self._run(
            "SELECT count(*), coalesce(sum(size), 0) FROM records")
        if cursor is None:
            return None
        row = cursor.fetchone()
        return int(row[0]), int(row[1])

    def keys(self) -> Optional[List[str]]:
        cursor = self._run("SELECT key FROM records")
        if cursor is None:
            return None
        return [row[0] for row in cursor.fetchall()]

    def lru(self) -> Iterator[Tuple[str, str, int, float]]:
        """``(key, file name, size, mtime)`` oldest-first (eviction order).

        Fetched eagerly so eviction's deletes never interleave with an open
        read cursor on the same connection.
        """
        cursor = self._run(
            "SELECT key, path, size, mtime FROM records ORDER BY mtime, key")
        if cursor is None:
            return iter(())
        return iter(cursor.fetchall())
