"""The on-disk, content-addressed cache tier beneath the serving stack.

:class:`DiskCache` persists the two things the in-memory tiers lose on
every restart:

* **compiled-engine artifacts** — the derived view DTD (as canonical
  per-symbol automata), the minimal-size table, the hidden/visible
  visibility tables, plus the serialized source schema so a manifest
  warm-up can reconstruct the whole engine without the caller supplying
  anything;
* **propagation memo entries** — translated edit scripts, keyed by the
  exact content of ``(source, update)`` under one compiled
  ``(schema, factory, chooser, optimal)``.

Keys are pure content addresses (:func:`~repro.registry.schema_fingerprint`,
factory ``cache_key()``, ``Tree.content_key()``, chooser ``cache_key()``),
so a hit can never be wrong — only stale entries for schemas nobody
asks about anymore, which size-aware LRU eviction with per-tenant
quotas reclaims. Records live in CRC-framed segment files
(:mod:`.segments`); every failure mode degrades to a *miss*:

* torn tail → the interrupted put never happened;
* interior corruption or a failed point-read CRC → the segment is
  quarantined (renamed aside) and its entries forgotten;
* a payload that fails its put-time round-trip guard is never written.

Several processes share one tier: appends serialize through an
exclusive ``flock`` on ``cache.lock``, and a miss re-scans segment
tails so one process observes another's puts. A small
``manifest.json`` records each tenant's use count so
:meth:`DiskCache.warm` can preload a fresh process's hot schemas.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..framing import TailCursor, TailState
from ..obs import child_span as _child_span
from .segments import (
    CacheRecord,
    QUARANTINE_SUFFIX,
    append_records,
    create_segment,
    list_segments,
    read_payload,
    segment_cursor,
    segment_path,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import ViewEngine
    from ..registry import EngineRegistry

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "DiskCache",
    "DiskCacheStats",
    "artifact_parts",
    "build_artifact_payload",
    "hydrate_engine",
    "lazy_artifact_supplier",
    "memo_script_key",
]

DEFAULT_QUOTA_BYTES = 256 * 1024 * 1024
DEFAULT_TENANT_QUOTA_BYTES = 64 * 1024 * 1024
DEFAULT_SEGMENT_ROLL_BYTES = 8 * 1024 * 1024
DECODED_CACHE_BYTES = 8 * 1024 * 1024
MANIFEST_NAME = "manifest.json"
LOCK_NAME = "cache.lock"
MANIFEST_TENANT_LIMIT = 64

ARTIFACT = "artifact"
MEMO = "memo"


# ---------------------------------------------------------------------------
# Content addresses
# ---------------------------------------------------------------------------


def _artifact_key(schema_hash: str, factory: str) -> str:
    return f"a|{schema_hash}|{factory}"


def memo_script_key(chooser_key: tuple, optimal: bool) -> str:
    """The script-level key component — chooser keys are small tuples of
    strings and ints whose ``repr`` is canonical."""
    return f"{chooser_key!r}|{int(optimal)}"


def _memo_key(
    schema_hash: str,
    factory: str,
    source_key: str,
    update_key: str,
    script_key: str,
) -> str:
    return f"m|{schema_hash}|{factory}|{source_key}|{update_key}|{script_key}"


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiskCacheStats:
    """A snapshot of one tier's counters (per-process, like all stats)."""

    hits: int
    misses: int
    artifact_hits: int
    memo_hits: int
    puts: int
    put_rejects: int
    evictions: int
    quarantines: int
    bytes: int
    """Live payload bytes (what the quotas bound), not file bytes."""
    entries: int
    tenants: int

    def as_dict(self) -> "dict[str, int]":
        import dataclasses

        return dataclasses.asdict(self)


class _Raw:
    """An undecoded record body held in the decoded-payload stash.

    The scan indexes records from their header line alone; the body
    rides along undecoded until the entry is first served, so restart
    cost does not scale with payload size."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class _Entry:
    __slots__ = ("segment", "seq", "offset", "length", "crc", "size", "tenant", "factory", "kind")

    def __init__(self, record: CacheRecord, tenant: str, factory: str, kind: str) -> None:
        self.segment = record.segment
        self.seq = record.seq
        self.offset = record.offset
        self.length = record.length
        self.crc = record.crc
        self.size = record.length
        self.tenant = tenant
        self.factory = factory
        self.kind = kind


# ---------------------------------------------------------------------------
# The tier
# ---------------------------------------------------------------------------


class DiskCache:
    """One shared on-disk cache rooted at a directory.

    Thread-safe; multi-process-safe on POSIX (appends under ``flock``,
    misses re-scan tails). All read paths verify CRCs and degrade to a
    miss — a :class:`DiskCache` never raises into the serving tier and
    never returns a damaged payload.
    """

    def __init__(
        self,
        root: "Path | str",
        *,
        quota_bytes: int = DEFAULT_QUOTA_BYTES,
        tenant_quota_bytes: int = DEFAULT_TENANT_QUOTA_BYTES,
        segment_roll_bytes: int = DEFAULT_SEGMENT_ROLL_BYTES,
        fsync: bool = False,
    ) -> None:
        if quota_bytes < 1 or tenant_quota_bytes < 1:
            raise ValueError("cache quotas must be positive")
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._quota = quota_bytes
        self._tenant_quota = min(tenant_quota_bytes, quota_bytes)
        self._roll = segment_roll_bytes
        self._fsync = fsync
        self._lock = threading.RLock()
        self._index: "OrderedDict[str, _Entry]" = OrderedDict()
        self._tenant_bytes: "dict[str, int]" = {}
        self._bytes = 0
        self._scanned: "dict[int, TailCursor]" = {}  # segment -> its tail cursor
        self._quarantined: "set[int]" = set()
        self._noted: "set[str]" = set()  # manifest tokens already recorded
        # Payload bodies already CRC-verified at scan or put time: a hit
        # here skips the point re-read. Scan stashes the *raw* body
        # (:class:`_Raw`, decode deferred to first use); serving a hit
        # upgrades it in place to the decoded object. Bounded LRU
        # (record bytes as the size proxy); callers must not mutate the
        # returned objects.
        self._decoded: "OrderedDict[str, dict]" = OrderedDict()
        self._decoded_bytes = 0
        self._counters = {
            "hits": 0,
            "misses": 0,
            "artifact_hits": 0,
            "memo_hits": 0,
            "puts": 0,
            "put_rejects": 0,
            "evictions": 0,
            "quarantines": 0,
        }
        with self._lock:
            self._refresh()
            if not self._scanned:
                with self._flock():
                    if not list_segments(self._root):
                        end = create_segment(segment_path(self._root, 1), 1)
                        self._track(1, end, 0)
                    else:  # another process won the race
                        self._refresh()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    @property
    def stats(self) -> DiskCacheStats:
        with self._lock:
            return DiskCacheStats(
                **self._counters,
                bytes=self._bytes,
                entries=len(self._index),
                tenants=len(self._tenant_bytes),
            )

    def stats_payload(self) -> dict:
        """One JSON-serializable report (``repro-xml cache stats``)."""
        with self._lock:
            payload = self.stats.as_dict()
            payload["root"] = str(self._root)
            payload["quota_bytes"] = self._quota
            payload["tenant_quota_bytes"] = self._tenant_quota
            payload["segments"] = len(self._scanned)
            payload["tenant_bytes"] = dict(sorted(self._tenant_bytes.items()))
            return payload

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    # ------------------------------------------------------------------
    # Public API: artifacts
    # ------------------------------------------------------------------

    def get_artifact(self, schema_hash: str, factory: str) -> "dict | None":
        data = self._get(_artifact_key(schema_hash, factory), ARTIFACT)
        if data is not None:
            self._note_tenant(schema_hash, factory, presence_only=True)
        return data

    def put_artifact(self, schema_hash: str, factory: str, payload: dict) -> bool:
        ok = self._put(
            _artifact_key(schema_hash, factory), ARTIFACT, schema_hash, factory, payload
        )
        if ok:
            self._note_tenant(schema_hash, factory)
        return ok

    # ------------------------------------------------------------------
    # Public API: memo entries
    # ------------------------------------------------------------------

    def get_memo(
        self,
        schema_hash: str,
        factory: str,
        source_key: str,
        update_key: str,
        script_key: str,
    ) -> "dict | None":
        return self._get(
            _memo_key(schema_hash, factory, source_key, update_key, script_key), MEMO
        )

    def put_memo(
        self,
        schema_hash: str,
        factory: str,
        source_key: str,
        update_key: str,
        script_key: str,
        term: str,
        *,
        validated: bool,
    ) -> bool:
        return self._put(
            _memo_key(schema_hash, factory, source_key, update_key, script_key),
            MEMO,
            schema_hash,
            factory,
            {"script": term, "validated": bool(validated)},
        )

    # ------------------------------------------------------------------
    # Public API: invalidation
    # ------------------------------------------------------------------

    def drop_memos(self, schema_hash: str, factory: "str | None" = None) -> int:
        """Tombstone every memo entry of a tenant (engine
        ``invalidate_memo`` mirrors into the disk tier through this)."""
        return self._purge(schema_hash, factory, scope=MEMO)

    def drop_tenant(self, schema_hash: str, factory: "str | None" = None) -> int:
        """Tombstone a tenant's artifact *and* memo entries (registry
        eviction mirrors into the disk tier through this)."""
        return self._purge(schema_hash, factory, scope="all")

    # ------------------------------------------------------------------
    # Core get/put
    # ------------------------------------------------------------------

    def _get(self, key: str, kind: str) -> "dict | None":
        with _child_span("cache.get", kind=kind) as sp:
            with self._lock:
                entry = self._index.get(key)
                if entry is None:
                    # another process may have put it since our last scan
                    self._refresh()
                    entry = self._index.get(key)
                if entry is None:
                    self._counters["misses"] += 1
                    sp.set(outcome="miss")
                    return None
                body = None
                cached = self._decoded.get(key)
                if cached is not None:
                    if isinstance(cached[1], _Raw):
                        body = cached[1].text  # CRC-verified, decode deferred
                    else:
                        # verified and decoded already; skip everything
                        self._decoded.move_to_end(key)
                        self._index.move_to_end(key)
                        self._counters["hits"] += 1
                        self._counters[f"{kind}_hits"] += 1
                        sp.set(outcome="hit")
                        return cached[1]
                if body is None:
                    path = segment_path(self._root, entry.segment)
                    text = read_payload(path, entry.offset, entry.length, entry.crc)
                    if text is not None:
                        head, _, tail = text.partition("\n")
                        try:
                            head_obj = json.loads(head)
                        except ValueError:
                            head_obj = None
                        if head_obj is not None and head_obj.get("k") == key and tail:
                            body = tail
                data = None
                if body is not None:
                    try:
                        data = json.loads(body)
                    except ValueError:
                        data = None
                if not isinstance(data, dict):
                    self._quarantine(entry.segment)
                    self._counters["misses"] += 1
                    sp.set(outcome="quarantined")
                    return None
                self._index.move_to_end(key)
                self._stash_decoded(key, entry.length, data)
                self._counters["hits"] += 1
                self._counters[f"{kind}_hits"] += 1
                sp.set(outcome="hit")
                return data

    def _put(self, key: str, kind: str, tenant: str, factory: str, data: dict) -> bool:
        # Header and data body on separate lines of one CRC-framed
        # record: a restart scan indexes from the (tiny) header alone and
        # defers the body decode until the entry is actually served —
        # boot cost stops scaling with payload size.
        try:
            head = json.dumps(
                {"op": "put", "k": key, "kind": kind, "t": tenant, "f": factory},
                separators=(",", ":"),
                sort_keys=True,
            )
            body = json.dumps(data, separators=(",", ":"), sort_keys=True)
            text = head + "\n" + body
        except (TypeError, ValueError):
            with self._lock:
                self._counters["put_rejects"] += 1
            return False
        size = len(text.encode("utf-8"))
        with _child_span("cache.put", kind=kind, bytes=size) as sp:
            with self._lock:
                if size > self._tenant_quota or size > self._quota:
                    self._counters["put_rejects"] += 1
                    sp.set(outcome="too_large")
                    return False
                evict = self._plan_eviction(key, tenant, size)
                texts = [
                    json.dumps(
                        {"op": "del", "k": victim},
                        separators=(",", ":"),
                        sort_keys=True,
                    )
                    for victim in evict
                ]
                texts.append(text)
                try:
                    records = self._append(texts)
                except OSError:
                    self._counters["put_rejects"] += 1
                    sp.set(outcome="io_error")
                    return False
                for victim in evict:
                    self._forget(victim)
                    self._counters["evictions"] += 1
                self._remember(key, records[-1], tenant, factory, kind)
                self._stash_decoded(key, records[-1].length, data)
                self._counters["puts"] += 1
                sp.set(outcome="stored", evicted=len(evict))
                return True

    def _purge(self, tenant: str, factory: "str | None", *, scope: str) -> int:
        with self._lock:
            victims = [
                key
                for key, entry in self._index.items()
                if entry.tenant == tenant
                and (factory is None or entry.factory == factory)
                and (scope == "all" or entry.kind == MEMO)
            ]
            record = {"op": "purge", "t": tenant, "scope": scope}
            if factory is not None:
                record["f"] = factory
            try:
                self._append([json.dumps(record, separators=(",", ":"), sort_keys=True)])
            except OSError:
                pass  # in-memory drop still happens; a rescan may resurrect
            for key in victims:
                self._forget(key)
            if scope == "all":
                self._drop_manifest_tenant(tenant, factory)
            return len(victims)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------

    def _remember(self, key: str, record: CacheRecord, tenant: str, factory: str, kind: str) -> None:
        self._forget(key)
        entry = _Entry(record, tenant, factory, kind)
        self._index[key] = entry
        self._index.move_to_end(key)
        self._bytes += entry.size
        self._tenant_bytes[tenant] = self._tenant_bytes.get(tenant, 0) + entry.size

    def _stash_decoded(self, key: str, size: int, data: dict) -> None:
        if size > DECODED_CACHE_BYTES // 4:
            return  # one huge payload must not wipe the whole stash
        old = self._decoded.pop(key, None)
        if old is not None:
            self._decoded_bytes -= old[0]
        self._decoded[key] = (size, data)
        self._decoded.move_to_end(key)
        self._decoded_bytes += size
        while self._decoded_bytes > DECODED_CACHE_BYTES and self._decoded:
            dropped_size, _ = self._decoded.popitem(last=False)[1]
            self._decoded_bytes -= dropped_size

    def _drop_decoded(self, key: str) -> None:
        old = self._decoded.pop(key, None)
        if old is not None:
            self._decoded_bytes -= old[0]

    def _forget(self, key: str) -> None:
        self._drop_decoded(key)
        entry = self._index.pop(key, None)
        if entry is None:
            return
        self._bytes -= entry.size
        remaining = self._tenant_bytes.get(entry.tenant, 0) - entry.size
        if remaining > 0:
            self._tenant_bytes[entry.tenant] = remaining
        else:
            self._tenant_bytes.pop(entry.tenant, None)

    def _plan_eviction(self, key: str, tenant: str, incoming: int) -> "list[str]":
        """Least-recently-used victims making room for one incoming put."""
        victims: "list[str]" = []
        planned = set()
        freed_tenant = 0
        freed_total = 0
        current = self._index.get(key)
        if current is not None:  # overwrite releases the old copy's bytes
            freed_total += current.size
            if current.tenant == tenant:
                freed_tenant += current.size
        tenant_used = self._tenant_bytes.get(tenant, 0)
        for candidate, entry in self._index.items():
            if tenant_used - freed_tenant + incoming <= self._tenant_quota:
                break
            if candidate == key or entry.tenant != tenant:
                continue
            victims.append(candidate)
            planned.add(candidate)
            freed_tenant += entry.size
            freed_total += entry.size
        for candidate, entry in self._index.items():
            if self._bytes - freed_total + incoming <= self._quota:
                break
            if candidate == key or candidate in planned:
                continue
            victims.append(candidate)
            planned.add(candidate)
            freed_total += entry.size
        return victims

    # ------------------------------------------------------------------
    # Scanning / refresh
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Fold unseen segment bytes (ours or another process's) into the
        index. Corrupt segments quarantine; torn tails are left in place
        (the next locked append truncates them)."""
        for number, path in list_segments(self._root):
            if number in self._quarantined:
                continue
            cursor = self._scanned.get(number) or segment_cursor(path)
            try:
                if not cursor.changed():
                    continue
                scan = cursor.read()
            except OSError:
                scan = None
            if scan is None or scan.corrupt or scan.number != number:
                self._quarantine(number)
                continue
            for record in scan.records:
                self._apply(record)
            self._scanned[number] = cursor

    def _track(self, number: int, end: int, last_seq: int) -> None:
        """Move segment *number*'s cursor past records this process
        appended itself: they end at *end*, the last one is *last_seq*."""
        path = segment_path(self._root, number)
        cursor = self._scanned.get(number)
        if cursor is None:
            cursor = self._scanned[number] = segment_cursor(path)
        info = path.stat()
        cursor.state = TailState((info.st_dev, info.st_ino), end, number, last_seq)

    def _apply(self, record: CacheRecord) -> None:
        head, _, body = record.text.partition("\n")
        try:
            obj = json.loads(head)
        except ValueError:
            return  # CRC-valid but unparsable: a foreign writer; skip
        op = obj.get("op")
        if op == "put":
            key = obj.get("k")
            kind = obj.get("kind")
            tenant = obj.get("t")
            factory = obj.get("f")
            if not (isinstance(key, str) and kind in (ARTIFACT, MEMO)
                    and isinstance(tenant, str) and isinstance(factory, str)):
                return
            self._remember(key, record, tenant, factory, kind)
            if body:
                self._stash_decoded(key, record.length, _Raw(body))
        elif op == "del":
            key = obj.get("k")
            if isinstance(key, str):
                self._forget(key)
        elif op == "purge":
            tenant = obj.get("t")
            factory = obj.get("f")
            scope = obj.get("scope", "all")
            if not isinstance(tenant, str):
                return
            for key in [
                k
                for k, e in self._index.items()
                if e.tenant == tenant
                and (factory is None or e.factory == factory)
                and (scope == "all" or e.kind == MEMO)
            ]:
                self._forget(key)

    def _quarantine(self, number: int) -> None:
        for key in [k for k, e in self._index.items() if e.segment == number]:
            self._forget(key)
        self._scanned.pop(number, None)
        self._quarantined.add(number)
        self._counters["quarantines"] += 1
        path = segment_path(self._root, number)
        try:
            path.rename(path.with_suffix(QUARANTINE_SUFFIX))
        except OSError:
            pass  # another process already moved (or removed) it

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @contextmanager
    def _flock(self) -> Iterator[None]:
        """Exclusive cross-process lock (no-op where flock is missing)."""
        lock_path = self._root / LOCK_NAME
        handle = open(lock_path, "a+b")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    def _append(self, texts: "list[str]") -> "list[CacheRecord]":
        with self._flock():
            self._refresh()  # fold concurrent appends before extending
            number = max(self._scanned, default=0)
            if number == 0:
                end = create_segment(segment_path(self._root, 1), 1)
                number = 1
                self._track(1, end, 0)
            state = self._scanned[number].state
            end, next_seq = state.offset, state.seq + 1
            path = segment_path(self._root, number)
            try:
                size = path.stat().st_size
            except OSError:
                size = end
            if size > end:
                # torn tail from an interrupted put: we hold the lock, so
                # nobody is mid-append — repair by truncating to the last
                # intact record.
                with open(path, "r+b") as handle:
                    handle.truncate(end)
            if end >= self._roll:
                number += 1
                end = create_segment(segment_path(self._root, number), number)
                next_seq = 1
                self._track(number, end, 0)
                path = segment_path(self._root, number)
            records, new_end = append_records(
                path, texts, next_seq, number=number, fsync=self._fsync
            )
            self._track(number, new_end, next_seq + len(texts) - 1)
            return records

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(self) -> dict:
        """Rewrite live entries into a fresh segment and delete the rest.

        Crash-safe by ordering: the replacement segment (a higher number,
        so later-wins scanning prefers its records) is written and
        fsynced *before* any old file is unlinked — a crash mid-gc leaves
        duplicates, never losses. Quarantined files are removed too.
        """
        with self._lock:
            with self._flock():
                self._refresh()
                old_numbers = sorted(self._scanned)
                file_bytes_before = self._file_bytes()
                live: "list[tuple[str, _Entry, str]]" = []
                for key, entry in self._index.items():  # LRU -> MRU order
                    text = read_payload(
                        segment_path(self._root, entry.segment),
                        entry.offset,
                        entry.length,
                        entry.crc,
                    )
                    if text is not None:
                        live.append((key, entry, text))
                number = (max(old_numbers, default=0)) + 1
                path = segment_path(self._root, number)
                end = create_segment(path, number)
                records: "list[CacheRecord]" = []
                if live:
                    records, end = append_records(
                        path, [text for _, _, text in live], 1, number=number, fsync=True
                    )
                decoded = dict(self._decoded)  # survives the rewrite
                self._index.clear()
                self._tenant_bytes.clear()
                self._bytes = 0
                self._scanned = {}
                self._track(number, end, len(live))
                for (key, old_entry, _), record in zip(live, records):
                    self._remember(key, record, old_entry.tenant, old_entry.factory, old_entry.kind)
                    kept = decoded.get(key)
                    if kept is not None:
                        self._stash_decoded(key, kept[0], kept[1])
                removed = 0
                for old in old_numbers:
                    if old == number:
                        continue
                    try:
                        segment_path(self._root, old).unlink()
                        removed += 1
                    except OSError:
                        pass
                for quarantined in list(self._quarantined):
                    bad = segment_path(self._root, quarantined).with_suffix(
                        QUARANTINE_SUFFIX
                    )
                    try:
                        bad.unlink()
                    except OSError:
                        pass
                self._quarantined.clear()
                return {
                    "live_entries": len(live),
                    "segments_removed": removed,
                    "file_bytes_before": file_bytes_before,
                    "file_bytes_after": self._file_bytes(),
                }

    def _file_bytes(self) -> int:
        total = 0
        for _, path in list_segments(self._root):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    # ------------------------------------------------------------------
    # Warm-up manifest
    # ------------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self._root / MANIFEST_NAME

    def manifest_payload(self) -> dict:
        try:
            with open(self._manifest_path(), encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return {"version": 1, "tenants": {}}
        if not isinstance(payload, dict) or not isinstance(payload.get("tenants"), dict):
            return {"version": 1, "tenants": {}}
        return payload

    def _write_manifest(self, payload: dict) -> None:
        path = self._manifest_path()
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            pass

    def _note_tenant(
        self, schema_hash: str, factory: str, *, presence_only: bool = False
    ) -> None:
        """Record one tenant use in the warm-up manifest.

        ``presence_only`` keeps the hot read path cheap: a hydration hit
        only needs the tenant *listed* (so a future boot warms it), not
        an exact use count — if it is already there, skip the locked
        read-modify-write entirely. Noted tokens are remembered
        per-instance so repeat hits cost nothing at all.
        """
        token = f"{schema_hash}|{factory}"
        if token in self._noted:
            return
        if presence_only:
            # atomic-rename writes make an unlocked read safe
            if token in self.manifest_payload()["tenants"]:
                self._noted.add(token)
                return
        with self._flock():
            payload = self.manifest_payload()
            tenants = payload["tenants"]
            entry = tenants.get(token)
            if not isinstance(entry, dict):
                entry = tenants[token] = {"uses": 0}
            entry["uses"] = int(entry.get("uses", 0)) + 1
            if len(tenants) > MANIFEST_TENANT_LIMIT:
                keep = sorted(
                    tenants.items(), key=lambda kv: -int(kv[1].get("uses", 0))
                )[:MANIFEST_TENANT_LIMIT]
                payload["tenants"] = dict(keep)
            self._write_manifest(payload)
        self._noted.add(token)

    def _drop_manifest_tenant(self, schema_hash: str, factory: "str | None") -> None:
        with self._flock():
            payload = self.manifest_payload()
            tenants = payload["tenants"]
            for token in list(tenants):
                head, _, tail = token.partition("|")
                if head == schema_hash and (factory is None or tail == factory):
                    tenants.pop(token)
            self._write_manifest(payload)

    def warm(self, registry: "EngineRegistry", *, limit: "int | None" = None) -> int:
        """Preload the manifest's hot tenants into *registry*.

        Each tenant's artifact carries its own serialized schema, so
        warming needs nothing from the caller; a registry with this tier
        attached hydrates each engine straight from the artifact instead
        of compiling. Returns the number of engines installed; tenants
        whose artifact is missing or damaged are skipped (a safe miss).
        """
        from ..dtd import InsertletPackage, parse_dtd
        from ..views import Annotation

        tenants = sorted(
            self.manifest_payload()["tenants"].items(),
            key=lambda kv: -int(kv[1].get("uses", 0)),
        )
        if limit is not None:
            tenants = tenants[:limit]
        warmed = 0
        for token, _ in tenants:
            schema_hash, _, factory_token = token.partition("|")
            payload = self.get_artifact(schema_hash, factory_token)
            if payload is None:
                continue
            try:
                dtd = parse_dtd(payload["dtd"], check=False)
                annotation = Annotation.parse(payload["annotation"])
                factory = None
                if payload.get("insertlets") is not None:
                    factory = InsertletPackage.from_terms(
                        dtd, payload["insertlets"], strict=False
                    )
                engine = registry.get_or_compile(dtd, annotation, factory=factory)
                if engine.schema_hash == schema_hash:
                    warmed += 1
            except Exception:
                continue  # damaged artifact: skip, never fail the boot
        return warmed


# ---------------------------------------------------------------------------
# Artifact codec: engine -> JSON payload -> engine
# ---------------------------------------------------------------------------


def _nfa_from_description(desc, alphabet):
    from ..automata import NFA

    n_states, finals, transitions = desc
    return NFA(
        range(int(n_states)),
        alphabet,
        0,
        [(int(src), sym, int(dst)) for src, sym, dst in transitions],
        [int(state) for state in finals],
    )


def _jsonify(value):
    return json.loads(json.dumps(value))


def build_artifact_payload(engine: "ViewEngine", factory_token: str) -> "dict | None":
    """Serialize *engine*'s compiled artifacts, or ``None`` when any
    round-trip guard fails (a safe miss — never a wrong share).

    Guards: the source schema must re-fingerprint identically after a
    serialize/parse round trip, and every view-DTD automaton must be a
    fixed point of its canonical description (re-described after
    rebuilding, it must match byte for byte).
    """
    from ..dtd import InsertletPackage, MinimalTreeFactory, parse_dtd, serialize_dtd
    from ..registry import _canonical_automaton, schema_fingerprint
    from ..views import Annotation

    try:
        dtd = engine.dtd
        dtd_text = serialize_dtd(dtd)
        annotation_text = engine.annotation.serialize()
        reparsed = parse_dtd(dtd_text, check=False)
        if (
            schema_fingerprint(reparsed, Annotation.parse(annotation_text))
            != engine.schema_hash
        ):
            return None
        insertlets: "dict[str, str] | None" = None
        factory = engine._factory
        if factory is not None and factory is not engine._minimal_factory:
            if isinstance(factory, InsertletPackage):
                insertlets = {
                    label: factory._trees[label].to_term(with_ids=False)
                    for label in factory._trees
                }
            elif not isinstance(factory, MinimalTreeFactory):
                return None  # unknown factory: not reconstructible
        view = engine.view_dtd
        view_rules: "dict[str, list]" = {}
        for symbol in view.sorted_alphabet:
            desc = _jsonify(_canonical_automaton(view.automaton(symbol)))
            rebuilt = _nfa_from_description(desc, view.alphabet)
            if _jsonify(_canonical_automaton(rebuilt)) != desc:
                return None
            view_rules[symbol] = desc
        return {
            "version": 1,
            "schema_hash": engine.schema_hash,
            "factory": factory_token,
            "dtd": dtd_text,
            "annotation": annotation_text,
            "insertlets": insertlets,
            "view_rules": view_rules,
            "minimal_sizes": dict(engine.minimal_sizes),
            "hidden": {k: list(v) for k, v in engine.hidden_table.items()},
            "visible": {k: sorted(v) for k, v in engine.visible_table.items()},
        }
    except Exception:
        return None


def artifact_parts(payload: dict, *, dtd, schema_hash: str) -> "dict | None":
    """Validate a cached artifact payload against the live schema and
    return the ``ViewEngine._install_artifacts`` keyword bundle, or
    ``None`` on any mismatch or damage (the engine falls back to a
    normal compile).

    The view DTD comes back as a thunk, not a value: a validated disk
    memo hit never consults it, so the automata rebuild (the bulk of
    hydration cost) only runs when something actually asks for it.
    """
    from ..dtd import DTD

    try:
        if payload.get("schema_hash") != schema_hash:
            return None
        view_rules = payload["view_rules"]
        if set(view_rules) != set(dtd.alphabet):
            return None
        sizes = {str(k): int(v) for k, v in payload["minimal_sizes"].items()}
        hidden = {str(k): tuple(v) for k, v in payload["hidden"].items()}
        visible = {str(k): frozenset(v) for k, v in payload["visible"].items()}
        if set(sizes) != set(dtd.alphabet) or set(hidden) != set(dtd.alphabet):
            return None

        def materialize_view_dtd() -> "DTD | None":
            try:
                rules = {
                    symbol: _nfa_from_description(desc, dtd.alphabet)
                    for symbol, desc in view_rules.items()
                }
                return DTD(rules, alphabet=dtd.alphabet, check=False)
            except Exception:
                return None  # engine falls back to normal derivation

        return {
            "view_supplier": materialize_view_dtd,
            "sizes": sizes,
            "hidden": hidden,
            "visible": visible,
            "schema_hash": schema_hash,
        }
    except Exception:
        return None


def lazy_artifact_supplier(cache: "DiskCache", schema_hash: str, factory_token: str, dtd):
    """A thunk fetching + validating the tenant's artifact on demand.

    The registry installs this on every freshly built engine instead of
    consulting the tier eagerly: a fresh process whose first request is
    a validated memo hit then never reads (or decodes) the artifact at
    all — only a request that actually needs the compiled tables pays
    for them. Returns the :func:`artifact_parts` bundle or ``None`` (a
    miss — the engine derives its artifacts normally).
    """

    def supplier() -> "dict | None":
        payload = cache.get_artifact(schema_hash, factory_token)
        if payload is None:
            return None
        return artifact_parts(payload, dtd=dtd, schema_hash=schema_hash)

    return supplier


def hydrate_engine(
    payload: dict,
    *,
    dtd,
    annotation,
    factory,
    schema_hash: str,
    engine_kwargs: "dict | None" = None,
) -> "ViewEngine | None":
    """Rebuild a :class:`ViewEngine` from a cached artifact payload.

    The caller supplies the live ``(dtd, annotation, factory)`` objects;
    the payload supplies every *derived* artifact, so nothing
    schema-level is recompiled. Returns ``None`` on any mismatch or
    damage — the caller falls back to a normal compile.
    """
    from ..engine import ViewEngine

    parts = artifact_parts(payload, dtd=dtd, schema_hash=schema_hash)
    if parts is None:
        return None
    try:
        engine = ViewEngine(dtd, annotation, factory=factory, **(engine_kwargs or {}))
        engine._install_artifacts(**parts)
        return engine
    except Exception:
        return None
