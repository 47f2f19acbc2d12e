"""Long-stream drift check for a session's word indexes.

A :class:`~repro.session.DocumentSession` keeps one word index per wide
children word and advances it at every update, so a stream of thousands
of one-edit updates inserts, deletes and rebalances each index
thousands of times. The served benchmark's byte comparison cannot see
an index that drifts from its document: its reference session runs the
same index code. This check compares against engines that hold none.

Two streams, each served through one session, every update parsed
against the session's view as the server parses it:

* ``hospital(240)``: discharge one patient, admit one at a random ward
  position (the first and the last included);
* a 600-child word with hidden children, ``(v, x, y, z)*`` with
  ``x, y, z`` hidden: insert a ``v`` (its hidden ``x, y, z`` come from
  (i)-moves) or delete one (and its hidden followers with it).

At every ``--check-every``-th update the session's script, cost and
fresh identifiers must equal a fresh engine's
``propagate(..., memo=False)`` on the same source, the session's source
the cold script's output, its view the projection of that source, and
every index one built afresh from the session's document (and still
balanced).

Run from the repo root with ``PYTHONPATH=src``:

    python .github/scripts/word_index_drift.py --updates 2000
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro import DTD, Annotation, UpdateBuilder, ViewEngine, parse_term
from repro.automata.wordindex import CostLeaves, MemberLeaves, WordIndex
from repro.editing import EditScript
from repro.generators.workloads import hospital

CHAINS = DTD({"r": "(v, x, y, z)*", "v": "", "x": "", "y": "", "z": ""})
CHAINS_HIDDEN = Annotation.hiding(("r", "x"), ("r", "y"), ("r", "z"))


def _ward_edit(rng, session, step):
    view = session.view
    (ward,) = view.children(view.root)
    patients = view.children(ward)[1:]
    builder = UpdateBuilder(view, forbidden_ids=session.source.nodes())
    builder.delete(rng.choice([patients[0], patients[-1], rng.choice(patients)]))
    builder.insert(
        ward,
        parse_term(f"patient#q{step}(name#q{step}n, admission#q{step}a)"),
        index=rng.choice([1, len(patients), rng.randint(1, len(patients))]),
    )
    return builder.script()


def _chain_edit(rng, session, step):
    view = session.view
    kids = view.children(view.root)
    builder = UpdateBuilder(view, forbidden_ids=session.source.nodes())
    if kids and rng.random() < 0.5:
        builder.delete(kids[rng.choice([0, len(kids) - 1, rng.randrange(len(kids))])])
    else:
        at = rng.choice([0, len(kids), rng.randint(0, len(kids))])
        builder.insert(view.root, parse_term(f"v#u{step}"), index=at)
    return builder.script()


def _summary(index):
    values = index.cover(0, len(index))
    if not values:
        return None
    value = values[0]
    for more in values[1:]:
        value = index.algebra.combine(value, more)
    if isinstance(index.algebra, CostLeaves):
        matrix, visible, diagonal = value
        return tuple(dict(row) for row in matrix), visible, diagonal
    return value


def _check_indices(session) -> int:
    """Every index against one built afresh; returns how many."""
    checked = 0
    sides = ((session._indices, session.source), (session._view_indices, session.view))
    for indices, tree in sides:
        for node, index in indices.items():
            kids = tree.children(node)
            algebra = index.algebra
            if isinstance(algebra, MemberLeaves):
                leaves = [algebra.leaf(tree._labels[kid]) for kid in kids]
            else:
                table = session.engine.insert_moves(index.label)
                leaves = [
                    algebra.leaf(
                        tree._labels[kid],
                        session._sizes[kid] if tree._labels[kid] in table.hidden else None,
                    )
                    for kid in kids
                ]
            fresh = WordIndex(leaves, algebra, index.label)
            if (
                index.label != tree._labels[node]
                or index.leaves(0, len(index)) != fresh.leaves(0, len(fresh))
                or _summary(index) != _summary(fresh)
            ):
                raise AssertionError(f"the index of {node!r} drifted from its document")
            if kids and index._root.height > 2 * len(kids).bit_length():
                raise AssertionError(f"the index of {node!r} is out of balance")
            checked += 1
    return checked


def run(name, dtd, annotation, source, edit, updates, check_every, seed) -> None:
    rng = random.Random(seed)
    session = ViewEngine(dtd, annotation).session(source)
    started = time.perf_counter()
    checks = indices = 0
    for step in range(updates):
        view = session.view
        term = edit(rng, session, step).to_term()
        update = EditScript.parse(term, base=view)
        before = session.source
        script = session.propagate(update)
        if (step + 1) % check_every and step + 1 != updates:
            continue
        cold = ViewEngine(dtd, annotation).propagate(before, EditScript.parse(term), memo=False)
        if (script.to_term(), script.cost) != (cold.to_term(), cold.cost):
            raise AssertionError(f"{name}: update {step} differs from the cold propagation")
        if session.source != cold.output_tree:
            raise AssertionError(f"{name}: the session's source differs after update {step}")
        if session.view != annotation.view(session.source):
            raise AssertionError(f"{name}: the session's view differs after update {step}")
        indices = _check_indices(session)
        checks += 1
    if not session._indices or not session._view_indices:
        raise AssertionError(f"{name}: the stream built no word index")
    print(
        f"{name}: {updates} updates in {time.perf_counter() - started:.1f} s, "
        f"{checks} checks against a cold engine, {indices} indexes rebuilt and equal"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--updates", type=int, default=2000)
    parser.add_argument("--check-every", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ward = hospital(240)
    run("hospital(240)", ward.dtd, ward.annotation, ward.source, _ward_edit,
        args.updates, args.check_every, args.seed)
    groups = ", ".join(f"v#v{i}, x#x{i}, y#y{i}, z#z{i}" for i in range(150))
    run("(v, x, y, z)*", CHAINS, CHAINS_HIDDEN, parse_term(f"r#r({groups})"), _chain_edit,
        args.updates, args.check_every, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
