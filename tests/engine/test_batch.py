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
        ViewEngine(*schema).propagate(doc, update, memo=False, **kwargs).to_term()
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

    def test_large_batch_keeps_order_and_serves_repeats_from_the_memo(
        self, schema, batch
    ):
        engine = ViewEngine(*schema)
        large = list(batch) * 7
        scripts = engine.propagate_many(large)
        assert [s.to_term() for s in scripts] == _cold(schema, batch) * 7
        assert engine.stats.memo_misses == len(batch)
        assert engine.stats.memo_hits == len(large) - len(batch)
        # a repeated request is answered with the first answer's object
        assert all(
            scripts[i] is scripts[i % len(batch)] for i in range(len(large))
        )

    def test_memo_off_gives_the_same_scripts(self, schema, batch):
        engine = ViewEngine(*schema)
        memoized = engine.propagate_many(list(batch))
        bypassed = engine.propagate_many(list(batch), memo=False)
        assert [s.to_term() for s in bypassed] == [s.to_term() for s in memoized]
        assert engine.stats.memo_bypass == len(batch)

    def test_single_request_batch(self, schema, batch):
        scripts = ViewEngine(*schema).propagate_many(batch[:1])
        assert [s.to_term() for s in scripts] == _cold(schema, batch[:1])

    @pytest.mark.parametrize("memo", [True, False])
    def test_interleaved_documents_validate_against_their_own_view(self, memo):
        small, large, small_updates, large_updates = _two_documents()
        pairs = [
            (small.source, small_updates[0]),
            (large.source, large_updates[0]),
            (small.source, small_updates[1]),
            (large.source, large_updates[1]),
        ]
        schema = (small.dtd, small.annotation)
        scripts = ViewEngine(*schema).propagate_many(pairs, memo=memo)
        assert [s.to_term() for s in scripts] == _cold(schema, pairs)

    def test_an_entry_is_checked_against_its_own_document(self):
        small, large, small_updates, _ = _two_documents()
        engine = ViewEngine(small.dtd, small.annotation)
        with pytest.raises(InvalidViewUpdateError):
            engine.propagate_many(
                [(small.source, small_updates[0]), (large.source, small_updates[0])],
                memo=False,
            )


class TestWhatABatchCarries:
    def test_insertlet_package_is_served(self, schema, batch):
        dtd, annotation = schema
        package = InsertletPackage.minimal(dtd)
        engine = ViewEngine(dtd, annotation, factory=package)
        scripts = engine.propagate_many(list(batch))
        expected = [
            ViewEngine(dtd, annotation, factory=package)
            .propagate(doc, update, memo=False)
            .to_term()
            for doc, update in batch
        ]
        assert [s.to_term() for s in scripts] == expected

    def test_chooser_without_a_cache_key_is_served_past_the_memo(
        self, schema, batch
    ):
        class OddChooser(CheapestPathChooser):
            cache_key = None

        engine = ViewEngine(*schema)
        scripts = engine.propagate_many(list(batch), chooser=OddChooser())
        assert [s.to_term() for s in scripts] == _cold(
            schema, batch, chooser=CheapestPathChooser()
        )
        assert engine.stats.memo_bypass == len(batch)
        assert engine.stats.memo_misses == 0

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
