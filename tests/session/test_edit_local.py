"""Edit-local session propagation: a steady-state update walks no large
tree, and the view-validity bit falls back to a full check whenever the
current view's validity is not known."""

import random

import pytest

from repro import DTD, Annotation, EditScript, UpdateBuilder, ViewEngine, parse_term
from repro.errors import InvalidViewUpdateError
from repro.generators.workloads import hospital
from repro.xmltree import Tree


def _one_patient_edit(session, rng, new_id):
    """Discharge one patient and admit one at a random ward position."""
    view = session.view
    (ward,) = view.children(view.root)
    patients = [p for p in view.children(ward) if view.label(p) == "patient"]
    builder = UpdateBuilder(view, forbidden_ids=session.source.nodes())
    builder.delete(rng.choice(patients))
    admitted = parse_term(
        f"patient#{new_id}(name#{new_id}_n, admission#{new_id}_a, symptom#{new_id}_s)"
    )
    slots = len(builder.output_children(ward))
    builder.insert(ward, admitted, index=rng.randint(1, slots))
    return builder.script()


def test_steady_state_edit_walks_no_large_tree(monkeypatch):
    """After the first update, serving a one-patient edit on
    hospital(240) never walks a tree of more than 20 nodes: validation,
    graphs, script emission, fresh identifiers and the cache advance all
    stay local to the edit."""
    workload = hospital(240)
    session = ViewEngine(workload.dtd, workload.annotation).session(workload.source)
    rng = random.Random(5)
    session.propagate(_one_patient_edit(session, rng, "q0"))

    walked: list[int] = []
    recording = [False]

    def spy(real):
        def walk(self):
            if recording[0]:
                walked.append(len(self))
            return real(self)

        return walk

    monkeypatch.setattr(Tree, "nodes", spy(Tree.nodes))
    monkeypatch.setattr(Tree, "postorder", spy(Tree.postorder))
    for step in range(1, 6):
        update = _one_patient_edit(session, rng, f"q{step}")
        recording[0] = True
        session.propagate(update)
        recording[0] = False
    assert session.source.size > 1000
    assert [size for size in walked if size > 20] == []


# ---------------------------------------------------------------------------
# The view-validity bit
# ---------------------------------------------------------------------------

# sections of a, (b|c), d groups; the view keeps a and d under s, c under d
_DTD = DTD({"r": "s*", "s": "(a,(b|c),d)*", "d": "((a|b),c)*"})
_ANNOTATION = Annotation.hiding(("s", "b"), ("s", "c"), ("d", "a"), ("d", "b"))
_VALID = "r#r(s#s1(a#a1, b#b1, d#d1(a#x1, c#c1)), s#s2(a#a2, c#c2, d#d2(b#x2, c#c3)))"
# s2 ends in a stray a: its view (a, d, a) breaks the view DTD's s -> (a,d)*
_BROKEN = "r#r(s#s1(a#a1, b#b1, d#d1(a#x1, c#c1)), s#s2(a#a2, c#c2, d#d2(b#x2, c#c3), a#a3))"
# a source script and a view update that append the stray a to s2
_BREAK_SCRIPT = (
    "Nop.r#r(Nop.s#s1(Nop.a#a1, Nop.b#b1, Nop.d#d1(Nop.a#x1, Nop.c#c1)), "
    "Nop.s#s2(Nop.a#a2, Nop.c#c2, Nop.d#d2(Nop.b#x2, Nop.c#c3), Ins.a#a3))"
)
_BREAK_UPDATE = (
    "Nop.r#r(Nop.s#s1(Nop.a#a1, Nop.d#d1(Nop.c#c1)), "
    "Nop.s#s2(Nop.a#a2, Nop.d#d2(Nop.c#c3), Ins.a#a3))"
)


@pytest.fixture
def engine():
    return ViewEngine(_DTD, _ANNOTATION)


def _edit_s1(session):
    """A valid edit of section s1 only: drop its (a, d) pair."""
    builder = UpdateBuilder(session.view, forbidden_ids=session.source.nodes())
    builder.delete("a1")
    builder.delete("d1")
    return builder.script()


def _spy_validates(monkeypatch):
    """Record the *nodes* argument of every view-DTD check."""
    calls: list = []
    real = DTD.validates

    def validates(self, tree, nodes=None):
        calls.append(None if nodes is None else set(nodes))
        return real(self, tree, nodes)

    monkeypatch.setattr(DTD, "validates", validates)
    return calls


def test_unvalidated_pin_checks_the_whole_view(engine):
    session = engine.session(parse_term(_BROKEN), validate_source=False)
    update = _edit_s1(session)
    # the broken region is untouched: an edit-local check alone passes
    engine.validate(session.source, update, view_known_valid=True)
    with pytest.raises(InvalidViewUpdateError, match="view language"):
        session.propagate(update)


def test_replayed_script_clears_the_bit(engine):
    session = engine.session(parse_term(_VALID))
    session.apply_source_script(EditScript.parse(_BREAK_SCRIPT))
    with pytest.raises(InvalidViewUpdateError, match="view language"):
        session.propagate(_edit_s1(session))


def test_committed_script_clears_the_bit(engine):
    session = engine.session(parse_term(_VALID))
    session.advance_script(
        EditScript.parse(_BREAK_UPDATE), EditScript.parse(_BREAK_SCRIPT)
    )
    with pytest.raises(InvalidViewUpdateError, match="view language"):
        session.propagate(_edit_s1(session))


def test_unvalidated_advance_clears_the_bit(engine, monkeypatch):
    calls = _spy_validates(monkeypatch)
    session = engine.session(parse_term(_VALID))
    session.propagate(_edit_s1(session), validate=False)
    builder = UpdateBuilder(session.view, forbidden_ids=session.source.nodes())
    builder.insert("d2", parse_term("c#n1"))
    session.propagate(builder.script())
    assert calls == [None]


def test_validated_update_sets_the_bit(engine, monkeypatch):
    calls = _spy_validates(monkeypatch)
    session = engine.session(parse_term(_VALID), validate_source=False)
    session.propagate(_edit_s1(session))
    assert calls == [None]  # the first update is checked in full

    builder = UpdateBuilder(session.view, forbidden_ids=session.source.nodes())
    builder.insert("d2", parse_term("c#n1"))
    session.propagate(builder.script())
    # then edit-locally: the inserted c and its parent d2 only
    assert calls[1:] == [{"n1", "d2"}]


def test_preview_keeps_the_bit(engine, monkeypatch):
    calls = _spy_validates(monkeypatch)
    session = engine.session(parse_term(_VALID), validate_source=False)
    session.propagate(_edit_s1(session), advance=False)
    session.propagate(_edit_s1(session))
    assert calls == [None, None]


def test_validated_pin_and_rebase_set_the_bit(engine, monkeypatch):
    calls = _spy_validates(monkeypatch)
    session = engine.session(parse_term(_BROKEN), validate_source=False)
    session.rebase(parse_term(_VALID))
    session.propagate(_edit_s1(session))
    assert calls == [{"s1"}]


def test_recovered_durable_session_validates_its_first_update_in_full(
    tmp_path, monkeypatch
):
    from repro.store import DocumentStore

    store = DocumentStore.init(tmp_path / "store")
    store.put("doc", parse_term(_VALID), _DTD, _ANNOTATION)
    with store.open_session("doc") as durable:
        calls = _spy_validates(monkeypatch)
        view = durable.session.view
        builder = UpdateBuilder(view, forbidden_ids=durable.session.source.nodes())
        builder.delete("a1")
        builder.delete("d1")
        durable.propagate(builder.script())
        builder = UpdateBuilder(
            durable.session.view, forbidden_ids=durable.session.source.nodes()
        )
        builder.insert("d2", parse_term("c#n1"))
        durable.propagate(builder.script())
    assert calls == [None, {"n1", "d2"}]
