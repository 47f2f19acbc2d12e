"""The tracing core: span nesting, sampling policy, ring buffers, and
the instrumentation hooks threaded through engine, store, and pool."""

import random

import pytest

from repro import NodeIds, obs
from repro.core import CheapestPathChooser
from repro.engine import ViewEngine
from repro.generators.updates import random_view_update
from repro.generators.workloads import running_example
from repro.obs.trace import NOOP_SPAN, Tracer


def span_names(span_dict, depth=0):
    yield depth, span_dict["name"]
    for child in span_dict.get("children", []):
        yield from span_names(child, depth + 1)


def flat_names(span_dict):
    return [name for _, name in span_names(span_dict)]


class TestDisabledFastPath:
    def test_disabled_helpers_return_the_shared_noop(self):
        assert not obs.tracing_enabled()
        assert obs.span("x") is NOOP_SPAN
        assert obs.trace("x") is NOOP_SPAN
        assert obs.child_span("x") is NOOP_SPAN

    def test_noop_span_swallows_the_whole_api(self):
        with obs.span("x") as span:
            span.set(a=1).mark_error("boom")
            assert span.trace_id is None
            assert not span.recording

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("x"):
            pass
        assert t.stats_payload()["started"] == 0
        assert t.recent() == []


class TestSpanTrees:
    def test_nested_spans_build_one_trace(self, tracer):
        with obs.trace("request") as root:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            with obs.span("sibling"):
                pass
        record = tracer.find(root.trace_id)
        assert record is not None
        assert flat_names(record["root"]) == [
            "request", "outer", "inner", "sibling",
        ]

    def test_child_intervals_nest_inside_the_parent(self, tracer):
        with obs.trace("r") as root:
            with obs.span("a"):
                with obs.span("b"):
                    sum(range(1000))
        rec = tracer.find(root.trace_id)["root"]

        def check(parent):
            p0 = parent["offset_ms"]
            p1 = p0 + parent["duration_ms"]
            for child in parent.get("children", []):
                c0 = child["offset_ms"]
                c1 = c0 + child["duration_ms"]
                assert p0 <= c0 and c1 <= p1
                check(child)

        check(rec)

    def test_current_span_follows_the_context(self, tracer):
        assert obs.current_span() is None
        with obs.trace("r") as root:
            assert obs.current_span() is root
            with obs.span("child") as child:
                assert obs.current_span() is child
            assert obs.current_span() is root
        assert obs.current_span() is None

    def test_child_span_needs_an_ambient_parent(self, tracer):
        assert obs.child_span("orphan") is NOOP_SPAN
        assert tracer.stats_payload()["started"] == 0
        with obs.trace("r"):
            with obs.child_span("ok") as span:
                assert span.recording

    def test_explicit_parent_attaches_across_threads(self, tracer):
        import threading

        with obs.trace("fanout") as root:
            def work():
                # a plain thread has no ambient context — the explicit
                # parent is what keeps the span in the trace
                with obs.span("worker", parent=root):
                    pass
            t = threading.Thread(target=work)
            t.start()
            t.join()
        rec = tracer.find(root.trace_id)
        assert flat_names(rec["root"]) == ["fanout", "worker"]

    def test_client_supplied_trace_id_is_adopted(self, tracer):
        with obs.trace("r", trace_id="feedface01") as root:
            assert root.trace_id == "feedface01"
        assert tracer.find("feedface01") is not None

    def test_attrs_serialize(self, tracer):
        with obs.trace("r", op="propagate") as root:
            with obs.span("stage") as stage:
                stage.set(memo="hit")
        rec = tracer.find(root.trace_id)["root"]
        assert rec["attrs"] == {"op": "propagate"}
        (stage_dict,) = rec["children"]
        assert stage_dict["attrs"] == {"memo": "hit"}


class TestSamplingPolicy:
    def test_head_sampling_drops_but_counts(self, tracer):
        tracer.configure(sample_rate=0.0)
        for _ in range(5):
            with obs.trace("r"):
                pass
        stats = tracer.stats_payload()
        assert stats["started"] == 5
        assert stats["dropped"] == 5 and stats["kept"] == 0
        assert tracer.recent() == []

    def test_errors_escape_the_sampler(self, tracer):
        tracer.configure(sample_rate=0.0)
        with pytest.raises(ValueError):
            with obs.trace("r") as root:
                raise ValueError("boom")
        stats = tracer.stats_payload()
        assert stats["kept"] == 1 and stats["errors"] == 1
        record = tracer.find(root.trace_id)
        assert record["error"] == "ValueError"

    def test_a_failed_child_flags_the_whole_trace(self, tracer):
        tracer.configure(sample_rate=0.0)
        with obs.trace("r") as root:
            try:
                with obs.span("stage"):
                    raise KeyError("inner")
            except KeyError:
                pass
        record = tracer.find(root.trace_id)
        assert record is not None and record["error"] == "KeyError"

    def test_slow_traces_escape_the_sampler_and_land_in_the_slow_log(
        self, tracer
    ):
        tracer.configure(sample_rate=0.0, slow_threshold=0.0)
        with obs.trace("r") as root:
            pass
        stats = tracer.stats_payload()
        assert stats["kept"] == 1 and stats["slow"] == 1
        assert tracer.slow()[0]["trace_id"] == root.trace_id

    def test_mark_error_keeps_a_handled_failure(self, tracer):
        tracer.configure(sample_rate=0.0)
        with obs.trace("r") as root:
            root.mark_error("bad_request")
        assert tracer.find(root.trace_id)["error"] == "bad_request"

    def test_ring_buffer_is_bounded(self, tracer):
        tracer.configure(keep=4)
        ids = []
        for _ in range(10):
            with obs.trace("r") as root:
                ids.append(root.trace_id)
        recent = tracer.recent()
        assert len(recent) == 4
        # newest first, oldest evicted
        assert [r["trace_id"] for r in recent] == list(reversed(ids[-4:]))
        assert tracer.find(ids[0]) is None

    def test_stage_totals_aggregate_across_traces(self, tracer):
        for _ in range(3):
            with obs.trace("r"):
                with obs.span("stage.a"):
                    pass
        stages = {stage: (h.count, h.sum) for (stage,), h in tracer.stages.samples()}
        assert stages["stage.a"][0] == 3
        assert stages["r"][0] == 3
        assert stages["stage.a"][1] >= 0.0

    def test_random_sampling_is_seed_stable_per_rate(self, tracer):
        tracer.configure(sample_rate=0.5)
        random.seed(7)
        for _ in range(40):
            with obs.trace("r"):
                pass
        stats = tracer.stats_payload()
        assert stats["kept"] + stats["dropped"] == 40
        assert 0 < stats["kept"] < 40  # both outcomes occur at 0.5


class TestEngineInstrumentation:
    @pytest.fixture
    def workload(self):
        return running_example(3)

    @pytest.fixture
    def request_pair(self, workload):
        rng = random.Random(11)
        update = random_view_update(
            rng, workload.dtd, workload.annotation, workload.source, n_ops=2
        )
        return workload.source, update

    def test_engine_propagate_traces_its_stages(
        self, tracer, workload, request_pair
    ):
        engine = ViewEngine(workload.dtd, workload.annotation)
        source, update = request_pair
        with obs.trace("call") as root:
            engine.propagate(source, update)
        names = flat_names(tracer.find(root.trace_id)["root"])
        assert "engine.propagate" in names
        assert "validate" in names and "graphs" in names and "script" in names

    @pytest.mark.parametrize("how", ["plain", "fresh", "keyless chooser"])
    def test_every_propagation_validates_under_its_own_span(
        self, tracer, workload, request_pair, how
    ):
        """A caller's fresh generator or a chooser without a key once
        took a path that validated inside ``graphs``, uncounted; every
        propagation now runs the same three stages."""

        class Keyless(CheapestPathChooser):
            cache_key = None

        kwargs = {
            "plain": {},
            "fresh": {"fresh": NodeIds("f", 100).fresh},
            "keyless chooser": {"chooser": Keyless()},
        }[how]
        engine = ViewEngine(workload.dtd, workload.annotation)
        source, update = request_pair
        with obs.trace("call") as root:
            engine.propagate(source, update, **kwargs)
        (call,) = tracer.find(root.trace_id)["root"]["children"]
        assert call["name"] == "engine.propagate"
        assert [child["name"] for child in call["children"]] == [
            "validate", "graphs", "script",
        ]
        assert (engine.stats.validations, engine.stats.propagations) == (1, 1)

    def test_batch_spans_nest_under_the_request_root(self, tracer, workload):
        rng = random.Random(23)
        engine = ViewEngine(workload.dtd, workload.annotation)
        pairs = [
            (
                workload.source,
                random_view_update(
                    rng, workload.dtd, workload.annotation, workload.source,
                    n_ops=2,
                ),
            )
            for _ in range(3)
        ]
        with obs.trace("batch-request") as root:
            scripts = engine.propagate_many(pairs + pairs[:1])
        assert len(scripts) == len(pairs) + 1
        children = tracer.find(root.trace_id)["root"]["children"]
        # one engine span per entry, in batch order, right under the
        # request root: the batch runs on the calling thread
        assert [child["name"] for child in children] == ["engine.propagate"] * 4
        # a repeated entry runs every stage again
        assert all(
            [grandchild["name"] for grandchild in child["children"]]
            == ["validate", "graphs", "script"]
            for child in children
        )


class TestDurableInstrumentation:
    def test_journal_traces_wal_append_and_fsync(self, tracer, tmp_path):
        from repro.store import DocumentStore

        workload = running_example(3)
        store = DocumentStore.init(tmp_path / "store", fsync="always")
        store.put("doc0", workload.source, workload.dtd, workload.annotation)
        rng = random.Random(5)
        session = store.open_session("doc0")
        update = random_view_update(
            rng, workload.dtd, workload.annotation, session.session.source,
            n_ops=2,
        )
        with obs.trace("write") as root:
            session.propagate(update)
        store.close()
        names = flat_names(tracer.find(root.trace_id)["root"])
        assert "session.journal" in names
        assert "wal.append" in names and "fsync" in names
