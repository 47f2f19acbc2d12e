"""The compiled ViewEngine layer: compile-once semantics, batch
equivalence, and wrapper/engine result identity on the paper's running
example."""

import random

import pytest

import repro.engine as engine_module
from repro import (
    Annotation,
    DTD,
    InsertletPackage,
    UpdateBuilder,
    ViewEngine,
    invert,
    parse_term,
    propagate,
    parse_dtd,
    validate_view_update,
    verify_propagation,
)
from repro.editing import Op
from repro.errors import InvalidViewUpdateError
from repro.generators import workloads
from repro.generators.updates import random_view_update
from repro.generators.workloads import wide_schema


@pytest.fixture
def running_example():
    """The paper's D0 / A0 / t0 / S0."""
    dtd = DTD({"r": "(a,(b|c),d)*", "d": "((a|b),c)*"})
    annotation = Annotation.hiding(("r", "b"), ("r", "c"), ("d", "a"), ("d", "b"))
    source = parse_term(
        "r#n0(a#n1, b#n2, d#n3(a#n7, c#n8), a#n4, c#n5, d#n6(b#n9, c#n10))"
    )
    view = annotation.view(source)
    edit = UpdateBuilder(view, forbidden_ids=source.nodes())
    edit.delete("n1")
    edit.delete("n3")
    edit.insert_after("n4", parse_term("d#n11(c#n13, c#n14)"))
    edit.insert_after("n11", parse_term("a#n12"))
    edit.insert("n6", parse_term("c#n15"))
    return dtd, annotation, source, view, edit.script()


def more_updates(annotation, source):
    """A few distinct valid view updates of the running example."""
    view = annotation.view(source)
    updates = []

    edit = UpdateBuilder(view, forbidden_ids=source.nodes())
    edit.insert("n3", parse_term("c#u0"))
    updates.append(edit.script())

    edit = UpdateBuilder(view, forbidden_ids=source.nodes())
    edit.delete("n4")
    edit.delete("n6")
    updates.append(edit.script())

    edit = UpdateBuilder(view, forbidden_ids=source.nodes())
    edit.insert_after("n6", parse_term("a#u1"))
    edit.insert_after("u1", parse_term("d#u2(c#u3)"))
    updates.append(edit.script())

    return updates


class TestCompileOnce:
    def test_artifacts_are_identity_stable(self, running_example):
        dtd, annotation, *_ = running_example
        engine = ViewEngine(dtd, annotation)
        assert engine.view_dtd is engine.view_dtd
        assert engine.factory is engine.factory
        assert engine.minimal_sizes is engine.minimal_sizes
        assert engine.hidden_table is engine.hidden_table
        assert engine.visible_table is engine.visible_table

    def test_artifacts_survive_requests(self, running_example):
        dtd, annotation, source, view, update = running_example
        engine = ViewEngine(dtd, annotation)
        vdtd = engine.view_dtd
        factory = engine.factory
        engine.propagate(source, update)
        engine.invert(view)
        engine.validate(source, update)
        assert engine.view_dtd is vdtd
        assert engine.factory is factory

    def test_view_dtd_derived_exactly_once(self, running_example, monkeypatch):
        dtd, annotation, source, _, update = running_example
        calls = []
        real = engine_module.view_dtd

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "view_dtd", counting)
        engine = ViewEngine(dtd, annotation)
        assert calls == []  # lazy: nothing derived before first use
        for _ in range(3):
            engine.propagate(source, update)
        assert len(calls) == 1

    def test_warm_up_compiles_everything_and_chains(self, running_example):
        dtd, annotation, *_ = running_example
        engine = ViewEngine(dtd, annotation)
        assert "nothing yet" in repr(engine)
        assert engine.warm_up() is engine
        for name in ("sizes", "factory", "view_dtd", "visibility"):
            assert name in repr(engine)

    def test_explicit_factory_is_used_verbatim(self, running_example):
        dtd, annotation, *_ = running_example
        package = InsertletPackage.minimal(dtd)
        engine = ViewEngine(dtd, annotation, factory=package)
        assert engine.factory is package

    def test_default_factory_is_the_compiled_minimal_factory(self, running_example):
        dtd, annotation, *_ = running_example
        engine = ViewEngine(dtd, annotation)
        assert engine.factory is engine.minimal_factory

    def test_insertlet_package_shares_compiled_fallback(self, running_example):
        dtd, annotation, source, _, update = running_example
        engine = ViewEngine(dtd, annotation)
        package = engine.insertlet_package({"b": parse_term("b#w0")})
        # explicit fragment and compiled-fallback labels both served
        assert package.weight("b") == 1
        assert package.weight("c") == engine.minimal_factory.weight("c")
        assert package._fallback is engine.minimal_factory
        # a second engine over the package needs no schema recompilation
        fast = ViewEngine(dtd, annotation, factory=package)
        assert (
            fast.propagate(source, update).to_term()
            == propagate(dtd, annotation, source, update, factory=package).to_term()
        )

    def test_compiled_tables_match_schema(self, running_example):
        dtd, annotation, *_ = running_example
        engine = ViewEngine(dtd, annotation)
        assert engine.hidden_table["r"] == ("b", "c")
        assert engine.hidden_table["d"] == ("a", "b")
        assert engine.visible_table["r"] == frozenset({"a", "d", "r"})
        assert engine.minimal_sizes == {"a": 1, "b": 1, "c": 1, "d": 1, "r": 1}
        assert engine.insert_weight("b") == 1
        # the derived view DTD is the paper's r → (a·d)*, d → c*
        assert engine.view_dtd.allows("r", ("a", "d", "a", "d"))
        assert not engine.view_dtd.allows("r", ("a", "b", "d"))
        assert engine.view_dtd.allows("d", ("c", "c", "c"))


def _held(rows) -> frozenset:
    """The labels *rows* holds an entry for: the rows a
    :class:`~repro.dtd.LabelTable` has derived so far, every key of a
    plain mapping."""
    return frozenset(getattr(rows, "held", rows))


_FAMILIES = {
    "running_example": lambda: workloads.running_example(2),
    "wide_schema(24, sections=8)": lambda: wide_schema(24, sections=8),
    "wide_schema(40)": lambda: wide_schema(40),
    "hospital": lambda: workloads.hospital(4),
    "catalog": lambda: workloads.catalog(4),
    "positional": lambda: workloads.positional(4),
    "huge_document": lambda: workloads.huge_document(200),
    "deep_document": lambda: workloads.deep_document(4),
}

# one request of each kind, served against the workload's source
_REQUESTS = {
    "session": lambda engine, w: engine.session(w.source).propagate(w.update),
    "propagate": lambda engine, w: engine.propagate(w.source, w.update),
    "validate": lambda engine, w: engine.validate(w.source, w.update),
}


class TestPerLabelCompile:
    """The visibility tables and the view DTD's rules are derived per
    label, on the first request that reads the label."""

    def test_the_first_request_compiles_only_the_labels_it_touches(self):
        workload = wide_schema(40)
        engine = ViewEngine(workload.dtd, workload.annotation)
        update = workload.update
        engine.session(workload.source).propagate(update)
        # the root's children word changed; the inserted section was
        # checked against the view DTD and inverted
        touched = {update.symbol(update.root)} | {
            update.output_symbol(node)
            for node in update.nodes()
            if update.op(node) is Op.INS
        }
        assert len(touched) == 4 and len(workload.dtd.alphabet) == 161
        tables = (engine.visible_table, engine.hidden_table, engine.view_dtd._models)
        for rows in tables:
            assert _held(rows) <= touched
        engine.warm_up()
        for rows in tables:
            assert _held(rows) == workload.dtd.alphabet

    @pytest.mark.parametrize("kind", _REQUESTS)
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_a_request_holds_rows_only_for_labels_it_reads(self, family, kind):
        workload = _FAMILIES[family]()
        engine = ViewEngine(workload.dtd, workload.annotation)
        _REQUESTS[kind](engine, workload)
        update = workload.update
        edited = {update.symbol(node) for node in update.nodes()} | {
            update.output_symbol(node) for node in update.nodes()
        }
        read = edited | {workload.source.label(node) for node in workload.source.nodes()}
        # the view DTD checks children words of Out(update) only
        assert _held(engine.view_dtd._models) <= edited
        assert _held(engine.visible_table) <= read
        assert _held(engine.hidden_table) <= read
        if kind == "validate":
            assert _held(engine.hidden_table) == frozenset()

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_a_lazy_engine_serves_what_a_warmed_engine_serves(self, family):
        workload = _FAMILIES[family]()
        lazy = ViewEngine(workload.dtd, workload.annotation)
        warm = ViewEngine(workload.dtd, workload.annotation).warm_up()
        served = [
            [
                _REQUESTS["session"](engine, workload).to_term(),
                _REQUESTS["propagate"](engine, workload).to_term(),
                _REQUESTS["validate"](engine, workload),
            ]
            for engine in (lazy, warm)
        ]
        assert served[0] == served[1]


class TestBatchEquivalence:
    def test_propagate_many_equals_independent_calls(self, running_example):
        dtd, annotation, source, _, update = running_example
        updates = [update, *more_updates(annotation, source)]
        engine = ViewEngine(dtd, annotation)
        batch = engine.propagate_many(source, updates)
        singles = [
            propagate(dtd, annotation, source, u) for u in updates
        ]
        assert len(batch) == len(singles)
        for got, expected in zip(batch, singles):
            assert got == expected
            assert got.to_term() == expected.to_term()

    def test_propagate_many_pairs_form(self, running_example):
        dtd, annotation, source, _, update = running_example
        engine = ViewEngine(dtd, annotation)
        pairs = [(source, u) for u in more_updates(annotation, source)]
        batch = engine.propagate_many(pairs)
        for (doc, u), script in zip(pairs, batch):
            assert verify_propagation(dtd, annotation, doc, u, script)

    def test_batch_results_verify(self, running_example):
        dtd, annotation, source, _, update = running_example
        engine = ViewEngine(dtd, annotation)
        for script, u in zip(
            engine.propagate_many(source, more_updates(annotation, source)),
            more_updates(annotation, source),
        ):
            assert engine.verify(source, u, script)

    def test_empty_batch_returns_empty(self, running_example):
        dtd, annotation, source, _, _ = running_example
        engine = ViewEngine(dtd, annotation)
        assert engine.propagate_many([]) == []
        assert engine.propagate_many(source, []) == []

    def test_batch_validates_each_update(self, running_example):
        dtd, annotation, source, view, update = running_example
        engine = ViewEngine(dtd, annotation)
        bad_edit = UpdateBuilder(view, forbidden_ids=source.nodes())
        bad_edit.delete("n1")  # a alone cannot be removed: (a,(b|c),d)*
        with pytest.raises(InvalidViewUpdateError):
            engine.propagate_many(source, [update, bad_edit.script()])


class TestOnePipeline:
    """Every propagation runs the engine's one pipeline, whichever entry
    point serves it, and is counted there once."""

    def test_every_session_propagation_counts_previews_included(self):
        workload = workloads.running_example(3)
        engine = ViewEngine(workload.dtd, workload.annotation)
        session = engine.session(workload.source)
        rng = random.Random(3)
        for _ in range(4):
            update = random_view_update(
                rng, workload.dtd, workload.annotation, session.source, n_ops=2
            )
            session.propagate(update, advance=False)  # a preview
            session.propagate(update)
        stats = engine.stats
        assert stats.propagations == session.stats.updates_served == 8
        assert stats.validations == 8

    def test_no_memo_knob_is_left(self, running_example):
        dtd, annotation, source, _, update = running_example
        with pytest.raises(TypeError):
            ViewEngine(dtd, annotation, memo_capacity=0)
        engine = ViewEngine(dtd, annotation)
        with pytest.raises(TypeError):
            engine.propagate(source, update, memo=False)
        with pytest.raises(TypeError):
            engine.propagate_many(source, [update], memo=False)

    def test_each_batch_entry_counts_once(self, running_example):
        dtd, annotation, source, _, update = running_example
        updates = [update, *more_updates(annotation, source)]
        engine = ViewEngine(dtd, annotation)
        engine.propagate_many(source, updates + updates[:1])
        stats = engine.stats
        assert stats.propagations == stats.validations == len(updates) + 1


class TestWrapperEquivalence:
    def test_propagate_wrapper_is_byte_identical(self, running_example):
        dtd, annotation, source, _, update = running_example
        engine = ViewEngine(dtd, annotation).warm_up()
        assert (
            propagate(dtd, annotation, source, update).to_term()
            == engine.propagate(source, update).to_term()
        )

    def test_invert_wrapper_is_identical(self, running_example):
        dtd, annotation, _, view, _ = running_example
        engine = ViewEngine(dtd, annotation)
        assert invert(dtd, annotation, view) == engine.invert(view)
        assert engine.verify_inverse(view, engine.invert(view))

    def test_validate_parity(self, running_example):
        dtd, annotation, source, view, update = running_example
        engine = ViewEngine(dtd, annotation)
        engine.validate(source, update)  # must not raise
        validate_view_update(dtd, annotation, source, update)
        bad = UpdateBuilder(view, forbidden_ids=source.nodes())
        bad.delete("n1")
        bad_update = bad.script()
        with pytest.raises(InvalidViewUpdateError):
            engine.validate(source, bad_update)
        with pytest.raises(InvalidViewUpdateError):
            validate_view_update(dtd, annotation, source, bad_update)

    def test_view_matches_annotation(self, running_example):
        dtd, annotation, source, view, _ = running_example
        engine = ViewEngine(dtd, annotation)
        assert engine.view(source) == view

    def test_insertlet_engine_matches_wrapper(self):
        dtd = parse_dtd(
            """
            <!ELEMENT catalog  (product*)>
            <!ELEMENT product  (title, margin)>
            <!ELEMENT title    (#PCDATA)>
            <!ELEMENT margin   (#PCDATA)>
            """
        )
        annotation = Annotation.hiding(("product", "margin"))
        source = parse_term(
            "catalog#c(product#p1(title#t1, margin#m1))"
        )
        view = annotation.view(source)
        edit = UpdateBuilder(view, forbidden_ids=source.nodes())
        edit.insert("c", parse_term("product#p2(title#t2)"))
        update = edit.script()
        package = InsertletPackage.from_terms(dtd, {"margin": "margin"})
        engine = ViewEngine(dtd, annotation, factory=package)
        assert (
            engine.propagate(source, update).to_term()
            == propagate(dtd, annotation, source, update, factory=package).to_term()
        )
