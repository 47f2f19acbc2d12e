"""EngineRegistry: schema hashing, LRU policy, stats, thread safety, and
the default-registry routing of the free functions."""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    DTD,
    Annotation,
    EngineRegistry,
    InsertletPackage,
    MinimalTreeFactory,
    ViewEngine,
    default_registry,
    invert,
    propagate,
    schema_fingerprint,
    set_default_registry,
)
from repro.generators.workloads import running_example
from repro.xmltree import parse_term


def _schema(extra: str = ""):
    dtd = DTD({"r": f"(a,(b|c),d)*{extra}", "d": "((a|b),c)*"})
    annotation = Annotation.hiding(("r", "b"), ("r", "c"), ("d", "a"), ("d", "b"))
    return dtd, annotation


def _distinct_schemas(count: int):
    """*count* schemas with pairwise distinct fingerprints."""
    schemas = []
    for index in range(count):
        rules = {"r": "a*" + ",b?" * index}
        schemas.append((DTD(rules, alphabet=["a", "b"]), Annotation.identity()))
    return schemas


class TestSchemaFingerprint:
    def test_rule_order_irrelevant(self):
        forward = DTD({"r": "(a,(b|c),d)*", "d": "((a|b),c)*"})
        backward = DTD({"d": "((a|b),c)*", "r": "(a,(b|c),d)*"})
        annotation = Annotation.hiding(("r", "b"))
        assert schema_fingerprint(forward, annotation) == schema_fingerprint(
            backward, annotation
        )

    def test_alphabet_listing_order_irrelevant(self):
        one = DTD({"r": "a?"}, alphabet=["x", "y"])
        two = DTD({"r": "a?"}, alphabet=["y", "x"])
        assert schema_fingerprint(one, Annotation.identity()) == schema_fingerprint(
            two, Annotation.identity()
        )

    def test_annotation_entry_order_and_redundancy_irrelevant(self):
        dtd, _ = _schema()
        base = Annotation.hiding(("r", "b"), ("r", "c"))
        reordered = Annotation.hiding(("r", "c"), ("r", "b"))
        # restating the default and naming symbols outside the alphabet
        # cannot change the view of any tree in L(D)
        redundant = Annotation(
            {("r", "b"): 0, ("r", "c"): 0, ("r", "a"): 1, ("zz", "b"): 0}
        )
        assert schema_fingerprint(dtd, base) == schema_fingerprint(dtd, reordered)
        assert schema_fingerprint(dtd, base) == schema_fingerprint(dtd, redundant)

    def test_different_rules_differ(self):
        dtd_one, annotation = _schema()
        dtd_two = DTD({"r": "(a,(b|c),d)*", "d": "((a|b),c)?"})
        assert schema_fingerprint(dtd_one, annotation) != schema_fingerprint(
            dtd_two, annotation
        )

    def test_different_annotations_differ(self):
        dtd, annotation = _schema()
        other = Annotation.hiding(("r", "b"))
        assert schema_fingerprint(dtd, annotation) != schema_fingerprint(dtd, other)

    def test_default_visibility_distinguished(self):
        dtd, _ = _schema()
        assert schema_fingerprint(dtd, Annotation(default=1)) != schema_fingerprint(
            dtd, Annotation(default=0)
        )

    def test_engine_schema_hash_matches_and_is_stable(self):
        dtd, annotation = _schema()
        engine = ViewEngine(dtd, annotation)
        assert engine.schema_hash == schema_fingerprint(dtd, annotation)
        assert engine.schema_hash is engine.schema_hash  # memoized

    def test_random_dtds_rule_order_stable(self):
        rng = random.Random(5)
        from repro.generators.dtds import random_annotation, random_dtd

        for _ in range(10):
            dtd = random_dtd(rng, n_labels=5)
            annotation = random_annotation(rng, dtd)
            rebuilt = DTD(
                dict(reversed([(s, dtd.rule_regex(s)) for s, _ in dtd.rules()
                               if dtd.has_explicit_rule(s)])),
                alphabet=sorted(dtd.alphabet, reverse=True),
            )
            assert schema_fingerprint(dtd, annotation) == schema_fingerprint(
                rebuilt, annotation
            )


class TestRegistryCache:
    def test_hit_returns_same_instance(self):
        registry = EngineRegistry()
        dtd, annotation = _schema()
        first = registry.get_or_compile(dtd, annotation)
        second = registry.get_or_compile(dtd, annotation)
        assert first is second
        stats = registry.stats
        assert (stats.hits, stats.misses, stats.currsize) == (1, 1, 1)

    def test_equal_schemas_built_differently_share_an_engine(self):
        registry = EngineRegistry()
        dtd, annotation = _schema()
        clone = DTD({"d": "((a|b),c)*", "r": "(a,(b|c),d)*"})
        assert registry.get_or_compile(dtd, annotation) is registry.get_or_compile(
            clone, annotation
        )

    def test_lru_eviction_order(self):
        registry = EngineRegistry(capacity=2)
        (d1, a1), (d2, a2), (d3, a3) = _distinct_schemas(3)
        e1 = registry.get_or_compile(d1, a1)
        registry.get_or_compile(d2, a2)
        # touch the first so the second becomes least-recently used
        assert registry.get_or_compile(d1, a1) is e1
        registry.get_or_compile(d3, a3)
        assert len(registry) == 2
        assert registry.stats.evictions == 1
        # the first survived the eviction, the second did not
        assert registry.get_or_compile(d1, a1) is e1
        misses_before = registry.stats.misses
        registry.get_or_compile(d2, a2)
        assert registry.stats.misses == misses_before + 1

    def test_stats_counters_and_hit_rate(self):
        registry = EngineRegistry(capacity=8)
        dtd, annotation = _schema()
        for _ in range(4):
            registry.get_or_compile(dtd, annotation)
        stats = registry.stats
        assert (stats.hits, stats.misses, stats.evictions) == (3, 1, 0)
        assert stats.hit_rate == pytest.approx(0.75)

    def test_clear_resets(self):
        registry = EngineRegistry()
        dtd, annotation = _schema()
        registry.get_or_compile(dtd, annotation)
        registry.clear()
        assert len(registry) == 0
        assert registry.stats.misses == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EngineRegistry(capacity=0)

    def test_warm_engine_precompiled(self):
        registry = EngineRegistry()
        dtd, annotation = _schema()
        engine = registry.get_or_compile(dtd, annotation).warm_up()
        assert "view_dtd" in repr(engine)


class TestFactoryKeys:
    def test_minimal_factory_shares_default_engine(self):
        registry = EngineRegistry()
        dtd, annotation = _schema()
        default = registry.get_or_compile(dtd, annotation)
        explicit = registry.get_or_compile(
            dtd, annotation, factory=MinimalTreeFactory(dtd)
        )
        assert default is explicit

    def test_isomorphic_insertlet_packages_share(self):
        registry = EngineRegistry()
        dtd, annotation = _schema()
        one = InsertletPackage.from_terms(dtd, {"d": "d(a, c)"}, strict=False)
        two = InsertletPackage.from_terms(dtd, {"d": "d(a, c)"}, strict=False)
        assert registry.get_or_compile(
            dtd, annotation, factory=one
        ) is registry.get_or_compile(dtd, annotation, factory=two)

    def test_different_insertlet_packages_do_not_share(self):
        registry = EngineRegistry()
        dtd, annotation = _schema()
        one = InsertletPackage.from_terms(dtd, {"d": "d(a, c)"}, strict=False)
        two = InsertletPackage.from_terms(dtd, {"d": "d(b, c)"}, strict=False)
        assert registry.get_or_compile(
            dtd, annotation, factory=one
        ) is not registry.get_or_compile(dtd, annotation, factory=two)

    def test_unknown_factory_served_transient(self):
        registry = EngineRegistry()
        dtd, annotation = _schema()

        class OpaqueFactory:
            def __init__(self):
                self._inner = MinimalTreeFactory(dtd)

            def weight(self, label):
                return self._inner.weight(label)

            def build(self, label, fresh):
                return self._inner.build(label, fresh)

        first = registry.get_or_compile(dtd, annotation, factory=OpaqueFactory())
        second = registry.get_or_compile(dtd, annotation, factory=OpaqueFactory())
        assert first is not second
        stats = registry.stats
        assert stats.uncacheable == 2
        assert stats.currsize == 0


class TestThreadSafety:
    def test_concurrent_get_or_compile_single_compile(self):
        registry = EngineRegistry()
        dtd, annotation = _schema()
        with ThreadPoolExecutor(max_workers=8) as pool:
            engines = list(
                pool.map(
                    lambda _: registry.get_or_compile(dtd, annotation), range(32)
                )
            )
        assert all(engine is engines[0] for engine in engines)
        stats = registry.stats
        assert stats.misses == 1
        assert stats.hits == 31

    def test_concurrent_mixed_schemas_consistent(self):
        registry = EngineRegistry(capacity=16)
        schemas = _distinct_schemas(4)

        def fetch(index):
            dtd, annotation = schemas[index % len(schemas)]
            return index % len(schemas), registry.get_or_compile(dtd, annotation)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fetch, range(64)))
        by_schema = {}
        for index, engine in results:
            by_schema.setdefault(index, set()).add(id(engine))
        assert all(len(ids) == 1 for ids in by_schema.values())
        assert registry.stats.misses == len(schemas)


class TestSingleFlight:
    """Concurrent misses on one key coalesce into one build: N threads
    racing on a cold schema compile it once, not N times."""

    def test_racing_threads_share_one_slow_build(self, monkeypatch):
        import threading

        registry = EngineRegistry()
        dtd, annotation = _schema()
        builds = []
        release = threading.Event()
        entered = threading.Barrier(9)  # 8 racers + the main thread
        original = EngineRegistry._build_engine

        def slow_build(self, *args, **kwargs):
            builds.append(threading.get_ident())
            # hold the build until every racer has been released into
            # get_or_compile — the single-flight window is guaranteed
            # open, so the assertion below is deterministic-ish
            release.wait(timeout=10)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(EngineRegistry, "_build_engine", slow_build)
        results = [None] * 8
        errors = []

        def fetch(index):
            try:
                entered.wait(timeout=10)
                results[index] = registry.get_or_compile(dtd, annotation)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [
            threading.Thread(target=fetch, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        entered.wait(timeout=10)
        # give the racers a moment to pile onto the in-flight build,
        # then let the leader finish
        import time

        deadline = time.monotonic() + 5
        while not builds and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(builds) == 1  # exactly one compile, 7 racers coalesced
        assert all(engine is results[0] for engine in results)
        stats = registry.stats
        assert stats.misses == 1
        assert stats.hits == 7
        assert stats.coalesced >= 1

    def test_failed_build_propagates_to_every_racer(self, monkeypatch):
        import threading

        registry = EngineRegistry()
        dtd, annotation = _schema()

        class Boom(RuntimeError):
            pass

        def failing_build(self, *args, **kwargs):
            raise Boom("compile failed")

        monkeypatch.setattr(EngineRegistry, "_build_engine", failing_build)
        errors = []

        def fetch():
            try:
                registry.get_or_compile(dtd, annotation)
            except Boom as error:
                errors.append(error)

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(errors) == 4  # everyone saw the failure, nobody hung
        assert len(registry) == 0  # nothing poisonous was cached
        # and the failure is not sticky: a working build succeeds after
        monkeypatch.undo()
        assert registry.get_or_compile(dtd, annotation) is not None


class TestDefaultRegistryRouting:
    """The free-wrapper footgun fix: repeat calls stop recompiling."""

    @pytest.fixture
    def fresh_default(self):
        replacement = EngineRegistry(capacity=16)
        previous = set_default_registry(replacement)
        try:
            yield replacement
        finally:
            set_default_registry(previous)

    def test_propagate_second_call_hits_cache(self, fresh_default):
        workload = running_example(2)
        first = propagate(
            workload.dtd, workload.annotation, workload.source, workload.update
        )
        assert fresh_default.stats.misses == 1
        second = propagate(
            workload.dtd, workload.annotation, workload.source, workload.update
        )
        assert fresh_default.stats.hits == 1
        assert first.to_term() == second.to_term()

    def test_invert_routes_through_default_registry(self, fresh_default):
        dtd, annotation = _schema()
        view = parse_term("r#v0(a#v1, d#v2)")
        one = invert(dtd, annotation, view)
        two = invert(dtd, annotation, view)
        assert one == two
        stats = fresh_default.stats
        assert (stats.hits, stats.misses) == (1, 1)

    def test_propagate_and_invert_share_one_engine(self, fresh_default):
        dtd, annotation = _schema()
        view = parse_term("r#v0(a#v1, d#v2)")
        invert(dtd, annotation, view)
        workload_source = invert(dtd, annotation, view)
        assert workload_source is not None
        assert fresh_default.stats.currsize == 1

    def test_set_default_registry_rejects_non_registry(self):
        with pytest.raises(TypeError):
            set_default_registry(object())

    def test_default_registry_is_a_registry(self):
        assert isinstance(default_registry(), EngineRegistry)
