"""The shard router: split a view update at the boundary, dispatch,
splice.

Serving a sharded document is a two-phase protocol built on node-id
stability (update nodes carry the view's identifiers, and a visible
node's view depth equals its source depth):

1. **Classify.** Every edited (non-``Nop``) node of the update is
   mapped to its depth-``d`` ancestor inside the update tree — its
   shard. If every edit lands strictly inside shard interiors, the
   update is *interior* and takes the fast path; an edit at or above
   the boundary (rename/delete of a shard root, an insertion creating
   or removing whole shards, anything touching the spine) is a
   *boundary* update and takes the slow path.
2. **Fast path.** The router reserves a document-global fresh floor
   ``g`` — one past the largest ``f``-suffix anywhere in the document
   or among inserted update nodes — and dispatches each touched
   shard's subscript as a preview (``advance=False``) with
   ``fresh_floor=g``. Each shard reports how many fresh identifiers it
   consumed; the router assigns disjoint consecutive ranges in
   *document order* (prefix sums), and each shard renumbers and
   commits. Because each per-shard propagation graph equals the
   corresponding subgraph of the whole-document propagation (graphs
   are node-local, and subtree sizes below the boundary coincide), and
   because the untouched remainder of the document is pristine — the
   whole-document optimal propagation is ``Nop`` everywhere outside
   the touched shards — splicing the shard scripts over a ``Nop``
   spine reproduces the unsharded script **byte for byte**, fresh
   identifiers included.
3. **Slow path.** The router reassembles the full document from the
   live shards, runs one ordinary local propagation (same chooser,
   same fresh numbering as an unsharded session — trivially
   byte-identical), re-partitions the output, and redistributes: kept
   shards advance along their subscripts (their WALs journal exactly
   what replay needs), deleted shards are dropped, new depth-``d``
   subtrees are adopted as fresh shards.

**Term text in, term text out.** A served request arrives as term
text. The router keeps the *shard text* of every shard — the term
notation of its current view and of its current source with every node
``Nop``, exactly as :meth:`EditScript.to_term` renders them — and the
spine's two renderings split at the shard roots. Term notation is
compositional, so a request that leaves a shard unchanged carries that
shard's view text verbatim. The router matches the request against the
cache from the front and from the back and parses only the one shard
in between; the spliced response joins the source spine pieces, the
touched shards' committed script text and the cached source text of
every other shard, which equals the rendered :meth:`_splice`. The
shard-local parse is used only when it provably equals a full parse:
every parsed node carries an explicit ``#id`` (auto ids depend on the
whole text), no parsed id belongs to another shard or to the spine
(the full parse would raise a duplicate-id error, or the update reuses
a hidden id), the parsed shard's root is its ``Nop`` shard root, and
the shard parse raised nothing. Anything else — boundary edits, edits
in two shards, text rendered other than canonically — is parsed whole
and takes the same classifier and paths as an :class:`EditScript`.

Per-edit cost on the fast path is proportional to the touched shards,
not the document, for a spliced term-text request as for
``splice=False`` (which skips the whole-document script; the shards
have advanced either way).

The router trusts updates to be well-formed view updates against the
current view (the product of an :class:`~repro.editing.UpdateBuilder`);
validation runs per touched shard on the fast path and in full on the
slow path. One check spans shards: an inserted identifier that any
shard or the spine already holds — hidden from the view, since visible
ones are in the update itself — is refused with the error unsharded
serving raises. A caller-supplied ``dirty`` hint (the roots of the
edited regions, which every update builder knows) skips the only
remaining whole-update scan; edits outside the hinted regions are
ignored, on both parse paths alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

from ..core.choosers import PathChooser
from ..core.propagate import hidden_reuse_error
from ..editing import EditScript, Op
from ..editing.ops import EditLabel
from ..errors import ReproError, ShardingError
from ..obs import span as _span
from ..xmltree import NodeId, NodeIds, Tree
from ..xmltree.nodeid import numeric_suffix
from .partition import ShardPlan, partition, reassemble

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import ViewEngine

__all__ = ["ShardRouter", "ShardedPropagation"]

_FRESH = "f"
_SPINE = object()  # the owner of spine nodes in the owner index


@dataclass(frozen=True)
class ShardedPropagation:
    """One served update, as the router saw it."""

    script: "EditScript | str | None"
    """The full spliced source script (``None`` when ``splice=False``);
    its term text when the update came in as term text."""

    cost: int
    """Cost of the (possibly unmaterialised) whole-document script."""

    touched: tuple
    """Shard roots whose sessions propagated, in document order."""

    boundary: bool
    """Whether the slow (boundary/re-partition) path ran."""

    fresh_used: int
    """Fresh identifiers consumed document-wide by this update."""


class ShardRouter:
    """Split updates at the shard boundary; dispatch; splice.

    Owns the spine and the boundary bookkeeping; shard state lives in
    the *pool*. Not thread-safe — one document stream per router, like
    the sessions underneath.
    """

    def __init__(
        self,
        engine: "ViewEngine",
        plan: ShardPlan,
        pool,
        *,
        chooser: "PathChooser | None" = None,
        optimal: bool = True,
        on_reshard=None,
    ) -> None:
        self._engine = engine
        self._pool = pool
        self._chooser = chooser
        self._optimal = optimal
        self._on_reshard = on_reshard
        self._depth = plan.depth
        # shard text caches, filled lazily; the router is the only writer
        # of shard state, so it drops a shard's entries whenever it moves
        self._view_text: "dict[NodeId, str]" = {}
        self._source_text: "dict[NodeId, str]" = {}
        self._install(plan)
        self._assembled: "Tree | None" = None
        self._fast = 0
        self._boundary_count = 0
        self._identity = 0
        self._dispatched = 0
        self._remapped = 0
        self._parsed = {"local": 0, "full": 0}

    def _install(self, plan: ShardPlan) -> None:
        self._spine = plan.spine
        self._shard_roots: "list[NodeId]" = list(plan.shard_roots)
        self._order = {sid: i for i, sid in enumerate(plan.shard_roots)}
        self._spine_suffix = plan.spine.max_suffix(_FRESH)
        self._shard_suffix: "dict[NodeId, int]" = {}
        self._high: "int | None" = None
        # source node id -> its shard root, or _SPINE; built on first use
        self._owner: "dict[NodeId, object] | None" = None
        cut = self._order.keys()
        self._spine_source = EditScript.phantom_pieces(plan.spine, cut)
        self._spine_view = EditScript.phantom_pieces(
            self._engine.annotation.view(plan.spine), cut
        )

    # ------------------------------------------------------------------
    # Fresh-floor bookkeeping
    # ------------------------------------------------------------------

    def note_suffix(self, shard_id: NodeId, value: int) -> None:
        """Record a shard's current max ``f``-suffix (pool adoption and
        every commit report one)."""
        old = self._shard_suffix.get(shard_id, -1)
        self._shard_suffix[shard_id] = value
        if self._high is not None:
            if value > self._high:
                self._high = value
            elif old == self._high and value < old:
                self._high = None  # the max's witness shrank; rescan lazily

    def _forget_suffix(self, shard_id: NodeId) -> None:
        old = self._shard_suffix.pop(shard_id, -1)
        if self._high is not None and old == self._high:
            self._high = None

    def _floor(self, ins_max: int) -> int:
        high = self._high
        if high is None:
            high = self._spine_suffix
            for value in self._shard_suffix.values():
                if value > high:
                    high = value
            self._high = high
        return 1 + max(high, ins_max)

    # ------------------------------------------------------------------
    # Shard text and owner bookkeeping
    # ------------------------------------------------------------------

    def _shard_text(self, shard_id: NodeId, *, view: bool) -> str:
        cache = self._view_text if view else self._source_text
        text = cache.get(shard_id)
        if text is None:
            text = cache[shard_id] = self._pool.text(shard_id, view=view)
        return text

    def _forget_texts(self, shard_ids: "Iterable[NodeId]") -> None:
        for sid in shard_ids:
            self._view_text.pop(sid, None)
            self._source_text.pop(sid, None)

    def _owners(self) -> "dict[NodeId, object]":
        """The owner index: every source node id to its shard root, or
        to the spine. Built once per layout, then advanced by each
        commit's inserted and deleted identifiers."""
        if self._owner is None:
            owner: "dict[NodeId, object]" = dict.fromkeys(self._spine._labels, _SPINE)
            for sid in self._shard_roots:
                owner.update(dict.fromkeys(self._pool.fetch(sid)._labels, sid))
            self._owner = owner
        return self._owner

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def shard_roots(self) -> tuple:
        return tuple(self._shard_roots)

    @property
    def spine(self) -> Tree:
        return self._spine

    def assembled_source(self) -> Tree:
        """The whole current document, reassembled from live shards.

        ``O(|t|)``; cached until the next advancing propagation. The
        slow path starts here, and it is also how ``.source`` on the
        facade answers.
        """
        if self._assembled is None:
            shards = {sid: self._pool.fetch(sid) for sid in self._shard_roots}
            self._assembled = reassemble(self._spine, shards)
        return self._assembled

    def stats_payload(self) -> dict:
        """JSON-serializable router counters plus per-shard session stats."""
        return {
            "depth": self._depth,
            "shards": len(self._shard_roots),
            "spine_size": self._spine.size,
            "edits": {
                "fast": self._fast,
                "boundary": self._boundary_count,
                "identity": self._identity,
            },
            "parse": dict(self._parsed),
            "shards_dispatched": self._dispatched,
            "fresh_remapped": self._remapped,
            "per_shard": {
                str(sid): self._pool.stats(sid) for sid in self._shard_roots
            },
        }

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
    ) -> ShardedPropagation:
        """Serve one view update against the sharded document.

        *update* is an :class:`EditScript` or its term text; with text,
        the spliced script comes back as text too. *dirty*, when given,
        must cover the roots of every edited (non-``Nop``) region of the
        update — the router then skips its own whole-update scan, and
        ignores edits outside those regions. *splice* materialises the
        full source script (``O(|t|)`` for an :class:`EditScript`; a
        join of cached text for term text); pass ``False`` when the
        advanced shards are the product.
        """
        as_text = isinstance(update, str)
        parts = None
        attrs = {}
        if as_text:
            parts = self._parse_local(update)
            attrs["parse"] = parse = "full" if parts is None else "local"
            self._parsed[parse] += 1
            if parts is None:
                update = EditScript.parse(update)
        if parts is None:
            if update.is_empty:
                raise ShardingError(
                    "cannot serve an empty update against a sharded document"
                )
            classified = self._classify(update.tree, 0, dirty)
        elif parts:
            (part,) = parts.values()
            classified = self._classify(part.tree, self._depth, dirty)
        else:  # the current view, unchanged
            classified = False, set(), -1, []
        boundary, touched, ins_max, inserted = classified

        if boundary:
            with _span("shard.route", path="boundary", **attrs):
                result = self._propagate_boundary(
                    update, splice=splice, validate=validate
                )
            if as_text and splice:
                result = replace(result, script=result.script.to_term())
            return result
        if not touched:
            with _span("shard.route", path="identity", **attrs):
                return self._propagate_identity(splice=splice, as_text=as_text)
        owner = self._owners()
        reused = [node for node in inserted if node in owner]
        if reused:
            raise hidden_reuse_error(reused, validate=validate)
        touched = sorted(touched, key=self._order.__getitem__)
        subscripts = {
            sid: parts[sid] if parts is not None else update.subscript(sid)
            for sid in touched
        }
        with _span("shard.route", path="fast", shards=len(touched), **attrs):
            return self._propagate_fast(
                subscripts, ins_max, splice=splice, validate=validate, as_text=as_text
            )

    # -- request side --------------------------------------------------

    def _parse_local(self, text: str) -> "dict[NodeId, EditScript] | None":
        """The request's differing shards, parsed alone — or ``None``
        when only a full parse is known to read *text* the same way.

        Shards whose text equals their view shard text are matched from
        the front and from the back, spine pieces literally; at most one
        shard may differ, and it must pass the checks in the module
        docstring. An empty result means the text is the current view,
        unchanged.
        """
        pieces = self._spine_view
        roots = self._shard_roots
        if not text.startswith(pieces[0]):
            return None
        pos = len(pieces[0])
        lo, hi = 0, len(roots)
        while lo < hi:
            shard = self._shard_text(roots[lo], view=True)
            after = pos + len(shard)
            if not (
                text.startswith(shard, pos) and text.startswith(pieces[lo + 1], after)
            ):
                break
            pos = after + len(pieces[lo + 1])
            lo += 1
        if lo == hi:
            return {} if pos == len(text) else None
        end = len(text)
        while hi - 1 > lo:
            shard = self._shard_text(roots[hi - 1], view=True)
            start = end - len(pieces[hi]) - len(shard)
            if not (
                start >= pos
                and text.startswith(pieces[hi], start + len(shard))
                and text.startswith(shard, start)
            ):
                return None  # a second shard differs
            end = start
            hi -= 1
        end -= len(pieces[hi])
        if end < pos or not text.startswith(pieces[hi], end):
            return None
        sid = roots[lo]
        middle = text[pos:end]
        try:
            part = EditScript.parse(middle)
        except ReproError:
            return None  # the full parse raises its own error for the whole text
        labels = part.tree._labels
        if middle.count("#") != len(labels):
            return None  # an auto id: it depends on every explicit id in the text
        if part.root != sid or labels[sid].op is not Op.NOP:
            return None  # an edit at or above the boundary
        owner = self._owners()
        for node in labels:
            if owner.get(node, sid) != sid:
                return None  # a duplicate id, or a reused hidden one
        return {sid: part}

    def _classify(
        self, tree: Tree, root_depth: int, dirty: "Iterable[NodeId] | None"
    ) -> "tuple[bool, set[NodeId], int, list[NodeId]]":
        """Map the edits of update *tree*, whose root sits at *root_depth*
        in the whole update, to shards.

        Returns ``(boundary, touched shards, largest inserted f-suffix,
        inserted ids)``. A boundary answer stops at the first edit at or
        above the boundary.
        """
        labels = tree._labels
        parents = tree._parents
        hinted = dirty is not None
        if hinted:
            dirty_nodes = [
                n for n in dirty if n in labels and labels[n].op is not Op.NOP
            ]
        else:
            dirty_nodes = [n for n, lab in labels.items() if lab.op is not Op.NOP]

        touched: "set[NodeId]" = set()
        ins_max = -1
        inserted: "list[NodeId]" = []
        for node in dirty_nodes:
            # climb to the root inside the update tree to find the
            # node's depth and its depth-d ancestor (its shard)
            path = [node]
            current = node
            while True:
                parent = parents.get(current)
                if parent is None:
                    break
                path.append(parent)
                current = parent
            depth = root_depth + len(path) - 1
            if depth <= self._depth:
                # spine edit, or a shard root renamed/deleted/inserted
                return True, touched, ins_max, inserted
            shard_root = path[depth - self._depth]
            if shard_root not in self._order or labels[shard_root].op is not Op.NOP:
                # an edit inside a freshly inserted depth-d subtree (a
                # shard being born), or an unknown boundary node
                return True, touched, ins_max, inserted
            touched.add(shard_root)
            if labels[node].op is Op.INS:
                # a hint names region roots only; the whole inserted
                # fragment participates in the fresh numbering
                fragment = [node, *tree.descendants(node)] if hinted else [node]
                for inner in fragment:
                    inserted.append(inner)
                    suffix = numeric_suffix(inner, _FRESH)
                    if suffix is not None and suffix > ins_max:
                        ins_max = suffix
        return False, touched, ins_max, inserted

    # -- fast path -----------------------------------------------------

    def _propagate_fast(
        self,
        subscripts: "dict[NodeId, EditScript]",
        ins_max: int,
        *,
        splice: bool,
        validate: bool,
        as_text: bool,
    ) -> ShardedPropagation:
        touched = list(subscripts)
        floor = self._floor(ins_max)
        requests = [(sid, subscripts[sid], floor) for sid in touched]
        with _span("shard.fanout", shards=len(requests)):
            previews = self._pool.preview(
                requests,
                chooser=self._chooser,
                optimal=self._optimal,
                validate=validate,
            )
        offsets: "dict[NodeId, int]" = {}
        running = 0
        for sid in touched:
            offsets[sid] = running
            running += previews[sid][1]
        # a commit that fails part-way has still advanced the shards
        # before the failing one: drop what they invalidate up front
        self._forget_texts(touched)
        owner = self._owners()
        self._owner = self._assembled = None
        with _span("shard.commit", shards=len(offsets)):
            try:
                committed = self._pool.commit(offsets, want_script=splice)
            except BaseException:
                # the shards committed before the failure minted fresh
                # identifiers: raise the floor past them
                for sid in touched:
                    self.note_suffix(sid, self._pool.suffix_max(sid))
                raise
        self._owner = owner
        total_cost = 0
        shard_scripts: "dict[NodeId, EditScript]" = {}
        for sid in touched:
            total_cost += previews[sid][0]
            new_suffix, script_part, inserted, deleted = committed[sid]
            self.note_suffix(sid, new_suffix)
            for node in deleted:
                del owner[node]
            owner.update(dict.fromkeys(inserted, sid))
            if splice:
                shard_scripts[sid] = script_part
            if offsets[sid]:
                self._remapped += previews[sid][1]
        self._fast += 1
        self._dispatched += len(touched)
        script = None
        if splice:
            script = self._join(shard_scripts) if as_text else self._splice(shard_scripts)
        return ShardedPropagation(script, total_cost, tuple(touched), False, running)

    def _propagate_identity(self, *, splice: bool, as_text: bool) -> ShardedPropagation:
        # an all-Nop update: nothing to dispatch, nothing advances
        self._identity += 1
        script = None
        if splice:
            script = self._join({}) if as_text else self._splice({})
        return ShardedPropagation(script, 0, (), False, 0)

    def _join(self, shard_scripts: "dict[NodeId, EditScript]") -> str:
        """The term text of :meth:`_splice`: the source spine pieces
        joined with the touched shards' committed script text and every
        other shard's cached source text."""
        pieces = self._spine_source
        out = [pieces[0]]
        for i, sid in enumerate(self._shard_roots):
            part = shard_scripts.get(sid)
            out.append(
                part.to_term() if part is not None else self._shard_text(sid, view=False)
            )
            out.append(pieces[i + 1])
        return "".join(out)

    def _splice(self, shard_scripts: "dict[NodeId, EditScript]") -> EditScript:
        """The whole-document script: ``Nop`` everywhere except the
        touched shards' committed scripts, grafted at their roots."""
        spine = self._spine
        labels: "dict[NodeId, EditLabel]" = {}
        children = dict(spine._children)
        parents = dict(spine._parents)
        nop_cache: "dict[str, EditLabel]" = {}

        def nop(symbol: str) -> EditLabel:
            label = nop_cache.get(symbol)
            if label is None:
                label = nop_cache[symbol] = EditLabel(Op.NOP, symbol)
            return label

        for node, symbol in spine._labels.items():
            labels[node] = nop(symbol)
        for sid in self._shard_roots:
            part = shard_scripts.get(sid)
            if part is None:
                shard_tree = self._pool.fetch(sid)
                for node, symbol in shard_tree._labels.items():
                    labels[node] = nop(symbol)
                children.update(shard_tree._children)
                parents.update(shard_tree._parents)
            else:
                part_tree = part.tree
                labels.update(part_tree._labels)
                children.update(part_tree._children)
                parents.update(part_tree._parents)
        return EditScript._trusted(
            Tree._from_parts(spine.root, labels, children, parents)
        )

    # -- slow path -----------------------------------------------------

    def _propagate_boundary(
        self, update: EditScript, *, splice: bool, validate: bool
    ) -> ShardedPropagation:
        source = self.assembled_source()
        start = 1 + max(source.max_suffix(_FRESH), update.tree.max_suffix(_FRESH))
        script = self._engine._propagate(
            source, update, self._chooser, self._optimal, validate,
            fresh=NodeIds(_FRESH, start).fresh,
        )
        new_source = script.output_tree
        if new_source.is_empty:
            raise ShardingError(
                "the propagation deletes the whole document; a sharded "
                "document cannot become empty"
            )
        plan = partition(new_source, self._engine.annotation, self._depth)
        old_roots = set(self._order)
        new_roots = set(plan.shard_roots)
        added: "list[NodeId]" = []
        applied: "list[NodeId]" = []
        removed = [sid for sid in self._shard_roots if sid not in new_roots]

        suffixes: "dict[NodeId, int]" = {}
        for sid in plan.shard_roots:
            if sid not in old_roots:
                continue
            sub_script = script.subscript(sid)
            if sub_script.is_identity():
                # untouched by this update: the shard's session (and a
                # durable shard's WAL) need not move at all
                suffixes[sid] = self._shard_suffix.get(
                    sid, self._pool.suffix_max(sid)
                )
                continue
            suffixes[sid] = self._pool.apply(sid, update.subscript(sid), sub_script)
            applied.append(sid)
        for sid in removed:
            self._pool.drop(sid)
        for sid in plan.shard_roots:
            if sid not in old_roots:
                suffixes[sid] = self._pool.adopt(sid, plan.shards[sid])
                added.append(sid)

        self._install(plan)
        self._forget_texts([*applied, *removed, *added])
        self._shard_suffix = suffixes
        self._assembled = new_source
        self._boundary_count += 1
        self._dispatched += len(applied)
        if self._on_reshard is not None:
            self._on_reshard(plan, tuple(added), tuple(removed))
        fresh_used = 0
        for node in script.tree._labels:
            suffix = numeric_suffix(node, _FRESH)
            if suffix is not None and suffix >= start:
                fresh_used += 1
        return ShardedPropagation(
            script if splice else None,
            script.cost,
            tuple(applied),
            True,
            fresh_used,
        )

