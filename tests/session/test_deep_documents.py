"""Deep documents: a 5,000-deep chain end to end.

Schema ``a → a?, b?`` with ``b`` hidden: the document is one chain of
``a`` nodes, every other one also holding a hidden ``b`` leaf. Every
layer an edit crosses walks the chain iteratively: the view extraction,
:class:`UpdateBuilder`, the sparse parse, :meth:`DocumentSession.propagate`,
the journal, replay at ``open_session`` and a served view read. The
all-``Nop`` text a session keeps is one text and one length per node,
never a copy of each subtree's text.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import DTD, Annotation
from repro.editing import EditScript, UpdateBuilder
from repro.editing.script import phantom_text
from repro.engine import ViewEngine
from repro.store import DocumentStore
from repro.xmltree import Tree, parse_term, tree_to_xml

DEPTH = 5000

DTD_CHAIN = DTD({"a": "a?, b?", "b": ""})
HIDDEN_B = Annotation.hiding(("a", "b"))


def _chain(depth: int) -> Tree:
    labels, children = {}, {}
    for index in range(depth):
        node = f"c{index}"
        labels[node] = "a"
        kids = []
        if index + 1 < depth:
            kids.append(f"c{index + 1}")
        if index % 2 == 0:
            labels[f"h{index}"] = "b"
            kids.append(f"h{index}")
        if kids:
            children[node] = kids
    return Tree("c0", labels, children)


def _insert_at_bottom(
    view: Tree, forbidden, node_id: str, parent: str = f"c{DEPTH - 1}"
) -> EditScript:
    builder = UpdateBuilder(view, forbidden_ids=forbidden)
    builder.insert(parent, parse_term(f"a#{node_id}"))
    return builder.script()


@pytest.mark.parametrize("depth", [600, DEPTH])
def test_view_builder_and_session_walk_the_chain(depth):
    engine = ViewEngine(DTD_CHAIN, HIDDEN_B)
    source = _chain(depth)
    view = engine.view(source)
    assert view.size == depth and view.height() == depth - 1
    builder = UpdateBuilder(view, forbidden_ids=source.nodes())
    builder.delete(f"c{depth - 1}")
    update = builder.script()
    assert update.cost == 1
    session = engine.session(source)
    script = session.propagate(EditScript.parse(update.to_term(), base=session.view))
    # c{depth - 1} holds a hidden b when its index is even
    assert script.base is not None and script.cost == 2 - (depth - 1) % 2
    assert session.view == engine.view(session.source)
    assert script.to_term() == EditScript._trusted(script.tree).to_term()


def test_durable_chain_journals_replays_and_serves(tmp_path):
    from repro.server import ReproServer, ServeClient

    from ..server.conftest import run_with_server

    store = DocumentStore.init(tmp_path / "store", fsync="off")
    store.put("chain", _chain(DEPTH), DTD_CHAIN, HIDDEN_B)
    with store.open_session("chain") as session:
        update = _insert_at_bottom(session.view, session.source.nodes(), "z0")
        script = session.propagate(EditScript.parse(update.to_term(), base=session.view))
        assert script.base is not None and script.cost >= 1
        journalled = session.source
    with store.open_session("chain") as session:
        assert session.recovered.replayed == 1
        assert session.source == journalled
        expected = tree_to_xml(session.view)
    store.close()

    server = ReproServer(store_root=tmp_path / "store", fsync="off")
    update = _insert_at_bottom(
        HIDDEN_B.view(journalled), journalled.nodes(), "z1", parent="z0"
    )

    def client_work(host, port):
        with ServeClient(host, port) as client:
            before = client.view("chain")["view"]
            result = client.propagate("chain", update.to_term())
            return before, result

    before, result = run_with_server(server, client_work)
    assert before == expected
    assert result["seq"] == 2
    assert server.stats_payload()["server"]["propagate_parse"] == {"sparse": 1, "full": 0}


def test_phantom_text_stays_linear_on_the_chain():
    engine = ViewEngine(DTD_CHAIN, HIDDEN_B)
    source = _chain(DEPTH)
    session = engine.session(source)
    view = session.view
    # a per-node copy of each subtree's text would be quadratic on a chain
    term = _insert_at_bottom(view, source.nodes(), "z0").to_term()
    tracemalloc.start()
    try:
        text = phantom_text(view)
        built = tracemalloc.get_traced_memory()[0]
        update = EditScript.parse(term, base=view)
        update.output_tree  # the next view, its all-Nop text carried
        carried = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    session.propagate(update)
    assert text == EditScript.phantom(view).to_term()
    assert len(view._nop.lengths) == view.size
    # linear: the text and a few words per node of each new version's
    # maps (one subtree text per node would be ~160 MB here)
    for allocated in (built, carried):
        assert allocated < 4 * len(text) + 1000 * source.size, (allocated, len(text))
    new_view = session.view
    assert phantom_text(new_view) == EditScript.phantom(new_view).to_term()


def _inserted_chain(depth: int, prefix: str) -> Tree:
    labels = {f"{prefix}{index}": "a" for index in range(depth)}
    children = {f"{prefix}{index}": (f"{prefix}{index + 1}",) for index in range(depth - 1)}
    return Tree(f"{prefix}0", labels, children)


def test_deep_inserted_chain_propagates_journals_replays_and_inverts(tmp_path):
    """An update inserting a 5,000-deep ``a`` chain: its inversion graphs
    are built and its inverse assembled without recursion, then the
    propagated script is journalled, replayed at ``open_session`` and
    the resulting view inverted."""
    store = DocumentStore.init(tmp_path / "store", fsync="off")
    store.put("chain", _chain(8), DTD_CHAIN, HIDDEN_B)
    with store.open_session("chain") as session:
        builder = UpdateBuilder(session.view, forbidden_ids=session.source.nodes())
        builder.insert("c7", _inserted_chain(DEPTH, "z"))
        term = builder.script().to_term()
        script = session.propagate(EditScript.parse(term, base=session.view))
        # a minimal inverse of the fragment adds no hidden b
        assert script.cost == DEPTH
        journalled = session.source
    assert journalled.size == _chain(8).size + DEPTH
    assert journalled.height() == 7 + DEPTH
    with store.open_session("chain") as session:
        assert session.recovered.replayed == 1
        assert session.source == journalled
    store.close()

    engine = ViewEngine(DTD_CHAIN, HIDDEN_B)
    view = engine.view(journalled)
    inverse = engine.invert(view)
    assert engine.verify_inverse(view, inverse)
    assert inverse.size == view.size
