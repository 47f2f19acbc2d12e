"""`ShardedDocument`: one huge document served as spine + shards.

The facade that ties the pieces together: :func:`~repro.sharding.partition`
cuts the document, a :class:`~repro.sharding.LocalShardPool` owns one
:class:`~repro.session.DocumentSession` per shard, and a
:class:`~repro.sharding.ShardRouter` splits each incoming view update at
the boundary, dispatches, and splices.

Three ways to stand one up::

    doc = ShardedDocument(engine, source, depth=1)            # in-memory
    doc = ShardedDocument.create(root, source, dtd, ann, ...) # durable
    doc = ShardedDocument.open(root)                          # reopen

Durable mode stores **each shard as its own document** in a
:class:`~repro.store.DocumentStore` under the given root — so every
shard has its own write-ahead log, snapshots, and write lease — plus a
``sharding.json`` layout file carrying the spine (as term notation), the
shard order, and the shard→store-document mapping. Interior updates
advance only the touched shards' logs; boundary updates rewrite the
layout file as well.

Crash consistency matches the store's per-document guarantees for
interior updates (each touched shard's WAL records the renumbered
script before its session advances). A boundary update touches several
logs and the layout file non-atomically; a crash in that window can
need the layout rebuilt from the shard documents.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..core.choosers import PathChooser
from ..editing import EditScript
from ..errors import ShardingError
from ..xmltree import NodeId, Tree, parse_term
from .partition import ShardPlan, partition
from .router import ShardedPropagation, ShardRouter
from .worker import LocalShardPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dtd import DTD
    from ..engine import ViewEngine
    from ..registry import EngineRegistry
    from ..store import DocumentStore
    from ..views import Annotation

__all__ = ["ShardedDocument", "SHARDING_FILE"]

SHARDING_FILE = "sharding.json"
_SHARDING_FORMAT = 1


def _write_layout(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


class ShardedDocument:
    """One document, partitioned at a spine depth, served per shard.

    Like the sessions underneath, a sharded document is not
    thread-safe: one update stream per document.
    """

    def __init__(
        self,
        engine: "ViewEngine",
        source: Tree,
        *,
        depth: int = 1,
        chooser: "PathChooser | None" = None,
        optimal: bool = True,
        validate_source: bool = True,
    ) -> None:
        if validate_source:
            engine.dtd.assert_valid(source)
        plan = partition(source, engine.annotation, depth)
        pool = LocalShardPool(engine)
        self._wire(engine, plan, pool, chooser, optimal, store=None)
        for sid in plan.shard_roots:
            self._router.note_suffix(sid, pool.adopt(sid, plan.shards[sid]))

    def _wire(
        self,
        engine: "ViewEngine",
        plan: ShardPlan,
        pool,
        chooser: "PathChooser | None",
        optimal: bool,
        *,
        store: "DocumentStore | None",
    ) -> None:
        self._engine = engine
        self._pool = pool
        self._store = store
        self._wrappers: dict = {}  # shard id -> DurableSession (durable mode)
        self._doc_ids: "dict[NodeId, str]" = {}
        self._next_doc = 0
        self._closed = False
        self._router = ShardRouter(
            engine,
            plan,
            pool,
            chooser=chooser,
            optimal=optimal,
            on_reshard=self._reshard if store is not None else None,
        )

    # ------------------------------------------------------------------
    # Durable constructors
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: "Path | str",
        source: Tree,
        dtd: "DTD",
        annotation: "Annotation",
        *,
        depth: int = 1,
        registry: "EngineRegistry | None" = None,
        fsync: str = "always",
        chooser: "PathChooser | None" = None,
        optimal: bool = True,
        validate_source: bool = True,
    ) -> "ShardedDocument":
        """Initialise a durable sharded document under *root*."""
        from ..store import DocumentStore

        store = DocumentStore.init(root, fsync=fsync, registry=registry)
        engine = store.registry.get_or_compile(dtd, annotation)
        if validate_source:
            dtd.assert_valid(source)
        plan = partition(source, annotation, depth)
        self = cls.__new__(cls)
        pool = LocalShardPool(engine, session_factory=self._durable_factory)
        self._wire(engine, plan, pool, chooser, optimal, store=store)
        for sid in plan.shard_roots:
            session = self._durable_factory(sid, plan.shards[sid])
            self._router.note_suffix(sid, pool.attach(sid, session))
        self._write_layout()
        return self

    @classmethod
    def open(
        cls,
        root: "Path | str",
        *,
        registry: "EngineRegistry | None" = None,
        fsync: "str | None" = None,
        chooser: "PathChooser | None" = None,
        optimal: bool = True,
    ) -> "ShardedDocument":
        """Reopen a durable sharded document: recover every shard from
        its own log, reacquire the per-shard write leases, and rebuild
        the router around the stored spine."""
        from ..store import DocumentStore

        store = DocumentStore(root, fsync=fsync or "always", registry=registry)
        layout_path = store.root / SHARDING_FILE
        try:
            layout = json.loads(layout_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ShardingError(
                f"{root} holds no sharded document (missing {SHARDING_FILE})"
            ) from None
        if layout.get("format") != _SHARDING_FORMAT:
            raise ShardingError(
                f"unsupported sharding layout format {layout.get('format')!r}"
            )
        spine = parse_term(layout["spine"])
        shard_entries = layout["shards"]
        self = cls.__new__(cls)
        engine = None
        wrappers = {}
        roots: "list[NodeId]" = []
        for entry in shard_entries:
            durable = store.open_session(entry["doc"], engine=engine)
            engine = durable.engine
            sid = durable.source.root
            if sid != entry["id"] or sid not in spine:
                raise ShardingError(
                    f"store document {entry['doc']!r} is rooted at {sid!r}, "
                    f"but the layout expects shard {entry['id']!r} on the spine"
                )
            wrappers[sid] = durable
            roots.append(sid)
        if engine is None:
            raise ShardingError("sharded layout lists no shards")
        plan = ShardPlan(int(layout["depth"]), spine, tuple(roots), {})
        pool = LocalShardPool(engine, session_factory=self._durable_factory)
        self._wire(engine, plan, pool, chooser, optimal, store=store)
        self._wrappers = wrappers
        self._doc_ids = {
            entry["id"]: entry["doc"] for entry in shard_entries
        }
        self._next_doc = int(layout.get("next_doc", len(shard_entries)))
        for sid, durable in wrappers.items():
            self._router.note_suffix(sid, pool.attach(sid, durable.session))
        return self

    def _durable_factory(self, shard_id: NodeId, tree: Tree):
        """Session factory for durable shards: put a fresh store
        document, open its durable session, keep the wrapper."""
        doc_id = f"shard-{self._next_doc:06d}"
        self._next_doc += 1
        self._store.put(
            doc_id, tree, self._engine.dtd, self._engine.annotation, validate=False
        )
        durable = self._store.open_session(doc_id, engine=self._engine)
        self._wrappers[shard_id] = durable
        self._doc_ids[shard_id] = doc_id
        return durable.session

    def _reshard(self, plan: ShardPlan, added: tuple, removed: tuple) -> None:
        """After a boundary update: retire removed shards' sessions
        (their store documents keep their history) and persist the new
        layout. Added shards already went through the factory."""
        for sid in removed:
            wrapper = self._wrappers.pop(sid, None)
            self._doc_ids.pop(sid, None)
            if wrapper is not None:
                wrapper.close()
        self._write_layout()

    def _write_layout(self) -> None:
        router = self._router
        payload = {
            "format": _SHARDING_FORMAT,
            "depth": router.depth,
            "spine": router.spine.to_term(),
            "next_doc": self._next_doc,
            "shards": [
                {"id": sid, "doc": self._doc_ids[sid]}
                for sid in router.shard_roots
            ],
        }
        _write_layout(self._store.root / SHARDING_FILE, payload)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def engine(self) -> "ViewEngine":
        return self._engine

    @property
    def depth(self) -> int:
        return self._router.depth

    @property
    def durable(self) -> bool:
        return self._store is not None

    @property
    def shard_roots(self) -> tuple:
        """Shard root identifiers in document order."""
        return self._router.shard_roots

    @property
    def source(self) -> Tree:
        """The whole current document, reassembled (``O(|t|)``, cached)."""
        return self._router.assembled_source()

    @property
    def view(self) -> Tree:
        """``A(source)`` — extracted on demand (``O(|t|)``)."""
        return self._engine.annotation.view(self.source)

    def stats_payload(self) -> dict:
        """Router counters, per-shard session stats, and (durable mode)
        per-shard WAL/lease state."""
        payload = self._router.stats_payload()
        payload["durable"] = self.durable
        if self._store is not None:
            payload["store_root"] = str(self._store.root)
            payload["per_shard"] = {
                str(sid): self._wrappers[sid].stats
                for sid in self._router.shard_roots
                if sid in self._wrappers
            }
            payload["docs"] = {
                str(sid): self._doc_ids[sid]
                for sid in self._router.shard_roots
                if sid in self._doc_ids
            }
        return payload

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def propagate(
        self,
        update: "EditScript | str",
        *,
        dirty: "Iterable[NodeId] | None" = None,
        splice: bool = True,
        validate: bool = True,
    ) -> "EditScript | ShardedPropagation":
        """Serve one view update.

        With ``splice=True`` (default) returns the whole-document source
        script, byte-identical to unsharded propagation. With
        ``splice=False`` the shards still advance, but only a
        :class:`~repro.sharding.ShardedPropagation` summary is returned.
        *dirty* is the optional hint naming the roots of the update's
        edited regions (skips the whole-update scan; edits outside them
        are ignored).

        *update* may also be the update's term text, as a server
        receives it: the router then parses only the shards the text
        changes, and the :class:`~repro.sharding.ShardedPropagation` is
        returned either way, its ``script`` the spliced script's term
        text (``None`` without *splice*). Term text and ``splice=False``
        are the two modes whose per-edit latency does not grow with the
        document.
        """
        result = self._router.propagate(
            update, dirty=dirty, splice=splice, validate=validate
        )
        if isinstance(update, str) or not splice:
            return result
        return result.script

    def serve(
        self,
        updates: "Iterable[EditScript]",
        *,
        dirty_hints: "Iterable[Iterable[NodeId] | None] | None" = None,
        splice: bool = False,
        validate: bool = True,
    ) -> list:
        """Serve a stream of sequential updates; returns per-update
        results (scripts when *splice*, summaries otherwise)."""
        results = []
        if dirty_hints is None:
            for update in updates:
                results.append(
                    self.propagate(update, splice=splice, validate=validate)
                )
        else:
            for update, hint in zip(updates, dirty_hints):
                results.append(
                    self.propagate(
                        update, dirty=hint, splice=splice, validate=validate
                    )
                )
        return results

    def close(self) -> None:
        """Flush and close every shard (durable shards release their
        leases), the shard pool, and the store."""
        if self._closed:
            return
        self._closed = True
        for wrapper in self._wrappers.values():
            wrapper.close()
        self._wrappers.clear()
        self._pool.close()
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "ShardedDocument":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedDocument(shards={len(self.shard_roots)}, "
            f"depth={self.depth}, durable={self.durable})"
        )
