"""Many-document ``propagate_many``: order, per-document validation,
what a batch may carry, and that it is served on the calling thread.

The property suite pins byte-identical results against the cold
baseline on random workloads; these tests pin the mechanics — results
in request order, each entry validated against its own document's view
even when documents interleave, custom choosers and factories served
like any other, and no thread or process started on the way.
"""

import random

import pytest

from repro.core import CheapestPathChooser, InsertletPackage
from repro.editing import EditScript
from repro.engine import ViewEngine
from repro.errors import InvalidViewUpdateError
from repro.generators.updates import random_view_update
from repro.generators.workloads import running_example
from repro.paperdata.figures import a0, d0
from repro.xmltree import parse_term


@pytest.fixture(scope="module")
def schema():
    return d0(), a0()


@pytest.fixture(scope="module")
def batch():
    source = parse_term(
        "r#n0(a#n1, b#n2, d#n3(a#n7, c#n8), a#n4, c#n5, d#n6(b#n9, c#n10))"
    )
    updates = [
        EditScript.parse(
            "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Nop.a#n4, "
            "Ins.d#u0(Ins.c#u1), Ins.a#u2, Nop.d#n6(Nop.c#n10))"
        ),
        EditScript.parse(
            "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Del.a#n4, "
            "Del.d#n6(Del.c#n10))"
        ),
        EditScript.parse(
            "Nop.r#n0(Nop.a#n1, Nop.d#n3(Ins.c#u5, Nop.c#n8), Nop.a#n4, "
            "Nop.d#n6(Nop.c#n10))"
        ),
    ]
    return [(source, update) for update in updates]


def _cold(schema, pairs, **kwargs):
    """One fresh engine per request: the baseline a batch must equal."""
    return [
        ViewEngine(*schema).propagate(doc, update, **kwargs).to_term()
        for doc, update in pairs
    ]


def _two_documents():
    """Two different documents of one schema, two updates each."""
    small, large = running_example(2), running_example(3)
    rng = random.Random(17)

    def updates(workload):
        return [
            random_view_update(
                rng, workload.dtd, workload.annotation, workload.source, n_ops=2
            )
            for _ in range(2)
        ]

    return small, large, updates(small), updates(large)


class TestManyDocumentBatch:
    def test_matches_single_requests_in_order(self, schema, batch):
        scripts = ViewEngine(*schema).propagate_many(list(batch))
        assert [s.to_term() for s in scripts] == _cold(schema, batch)

    def test_large_batch_with_repeats_keeps_order(self, schema, batch):
        large = list(batch) * 7
        scripts = ViewEngine(*schema).propagate_many(large)
        assert [s.to_term() for s in scripts] == _cold(schema, batch) * 7

    def test_single_request_batch(self, schema, batch):
        scripts = ViewEngine(*schema).propagate_many(batch[:1])
        assert [s.to_term() for s in scripts] == _cold(schema, batch[:1])

    def test_a_batch_served_twice_gives_the_same_scripts(self, schema, batch):
        # the second pass replays the inversion memo the first one filled
        engine = ViewEngine(*schema)
        first = engine.propagate_many(list(batch))
        again = engine.propagate_many(list(batch))
        assert [s.to_term() for s in again] == [s.to_term() for s in first]
        assert all(a is not f for a, f in zip(again, first))
        assert engine.stats.propagations == 2 * len(batch)

    @pytest.mark.parametrize("first", ["small", "large"])
    def test_interleaved_documents_validate_against_their_own_view(self, first):
        small, large, small_updates, large_updates = _two_documents()
        documents = [(small.source, small_updates), (large.source, large_updates)]
        if first == "large":
            documents.reverse()
        (one, one_updates), (other, other_updates) = documents
        pairs = [
            (one, one_updates[0]),
            (other, other_updates[0]),
            (one, one_updates[1]),
            (other, other_updates[1]),
        ]
        schema = (small.dtd, small.annotation)
        scripts = ViewEngine(*schema).propagate_many(pairs)
        assert [s.to_term() for s in scripts] == _cold(schema, pairs)

    def test_an_entry_is_checked_against_its_own_document(self):
        small, large, small_updates, _ = _two_documents()
        engine = ViewEngine(small.dtd, small.annotation)
        with pytest.raises(InvalidViewUpdateError):
            engine.propagate_many(
                [(small.source, small_updates[0]), (large.source, small_updates[0])]
            )


class TestWhatABatchCarries:
    def test_insertlet_package_is_served(self, schema, batch):
        dtd, annotation = schema
        package = InsertletPackage.minimal(dtd)
        engine = ViewEngine(dtd, annotation, factory=package)
        scripts = engine.propagate_many(list(batch))
        expected = [
            ViewEngine(dtd, annotation, factory=package)
            .propagate(doc, update)
            .to_term()
            for doc, update in batch
        ]
        assert [s.to_term() for s in scripts] == expected

    def test_chooser_without_a_cache_key_is_served(self, schema, batch):
        class OddChooser(CheapestPathChooser):
            cache_key = None

        engine = ViewEngine(*schema)
        scripts = engine.propagate_many(list(batch), chooser=OddChooser())
        assert [s.to_term() for s in scripts] == _cold(
            schema, batch, chooser=CheapestPathChooser()
        )

    def test_factory_without_a_spec_is_served(self, schema, batch):
        dtd, annotation = schema

        class OpaqueFactory:
            def weight(self, label):
                return 1

            def build(self, label, fresh):  # pragma: no cover - never called
                raise NotImplementedError

        engine = ViewEngine(dtd, annotation, factory=OpaqueFactory())
        deletions = [batch[1]]  # inserts nothing, so never builds
        scripts = engine.propagate_many(deletions)
        assert [s.to_term() for s in scripts] == _cold(schema, deletions)


class TestServedInline:
    def test_batch_starts_no_thread_or_process(self, schema, batch, monkeypatch):
        import multiprocessing.process
        import threading

        def refuse(*args, **kwargs):
            raise AssertionError("propagate_many started a thread or process")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        scripts = ViewEngine(*schema).propagate_many(list(batch) * 3)
        assert [s.to_term() for s in scripts] == _cold(schema, batch) * 3

    @pytest.mark.parametrize(
        "knob", [{"parallel": "process"}, {"parallel": True}, {"workers": 2}]
    )
    def test_pool_keywords_are_refused(self, schema, batch, knob):
        with pytest.raises(TypeError):
            ViewEngine(*schema).propagate_many(list(batch), **knob)
