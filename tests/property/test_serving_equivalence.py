"""Differential property tests for the serving tier.

The serving layers — registry-shared engines, :class:`DocumentSession`
streams, many-document ``propagate_many`` — are *pure plumbing*: they change
where cached artifacts come from, never the algorithm. For randomly
generated (DTD, annotation, document, update-stream) workloads, every
serving path must therefore return scripts **byte-identical** (same term
rendering, identifiers included) to the cold baseline: a fresh transient
:class:`ViewEngine` per request, compiled from scratch.

This is the regime where amortisation bugs hide (stale caches, shared
mutable state, identifier drift after deletions), as argued for
side-effect-free translation in *Update XML Views* (Liu et al.) and for
well-behaved update strategies in *Programmable View Update Strategies
on Relations* (Tran et al.).
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import EngineRegistry, ViewEngine
from repro.generators.dtds import random_annotation, random_dtd
from repro.generators.trees import random_tree
from repro.generators.updates import random_view_update


def _workload(seed: int, steps: int):
    """A coherent random serving workload: schema + a sequential stream.

    Returns ``(dtd, annotation, source, stream)`` where ``stream`` is a
    list of ``(document, update, cold_script)`` triples: each update is a
    valid view update of its document's view, each document is the
    previous cold propagation's output. The cold scripts come from a
    fresh transient engine per step — the baseline every serving path
    must reproduce byte for byte.
    """
    rng = random.Random(seed)
    dtd = random_dtd(rng, n_labels=rng.randint(3, 5))
    annotation = random_annotation(rng, dtd)
    source = random_tree(dtd, rng, root_label="l0", size_hint=rng.randint(4, 14))
    stream = []
    current = source
    for _ in range(steps):
        update = random_view_update(rng, dtd, annotation, current, n_ops=3)
        cold = ViewEngine(dtd, annotation).propagate(current, update)
        stream.append((current, update, cold))
        current = cold.output_tree
    return dtd, annotation, source, stream


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 4))
def test_session_stream_matches_cold_baseline(seed, steps):
    """A DocumentSession serving N sequential updates returns exactly the
    cold per-step scripts, and its advanced caches exactly describe the
    evolved document."""
    dtd, annotation, source, stream = _workload(seed, steps)
    session = ViewEngine(dtd, annotation).session(source)
    for document, update, cold in stream:
        script = session.propagate(update)
        assert script.to_term() == cold.to_term()
        assert session.source == cold.output_tree
        assert session.view == annotation.view(session.source)
        assert session._sizes == dict(session.source.subtree_sizes())


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 3))
def test_registry_served_engines_match_cold_baseline(seed, steps):
    """Engines fetched from a registry — including repeat fetches that hit
    the LRU cache — propagate byte-identically to transient engines."""
    dtd, annotation, _, stream = _workload(seed, steps)
    registry = EngineRegistry(capacity=4)
    for document, update, cold in stream:
        engine = registry.get_or_compile(dtd, annotation)
        script = engine.propagate(document, update)
        assert script.to_term() == cold.to_term()
    stats = registry.stats
    assert stats.misses == 1
    assert stats.hits == len(stream) - 1


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(2, 4))
def test_many_document_propagate_many_matches_cold_baseline(seed, steps):
    """propagate_many([(t, s), ...]) over a many-document batch preserves
    order and bytes relative to the cold per-request baseline."""
    dtd, annotation, _, stream = _workload(seed, steps)
    pairs = [(document, update) for document, update, _ in stream]
    scripts = ViewEngine(dtd, annotation).propagate_many(pairs)
    assert len(scripts) == len(stream)
    for (_, _, cold), script in zip(stream, scripts):
        assert script.to_term() == cold.to_term()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 3))
def test_memoized_engine_matches_cold_baseline(seed, steps):
    """One long-lived engine serving every request *twice*, its
    inversion memo shared across all of them, returns byte-identical
    scripts to the cold per-request baseline throughout, and counts
    every propagation."""
    dtd, annotation, _, stream = _workload(seed, steps)
    engine = ViewEngine(dtd, annotation)
    for document, update, cold in stream:
        first = engine.propagate(document, update)
        again = engine.propagate(document, update)
        assert first.to_term() == cold.to_term()
        assert again.to_term() == cold.to_term()
    assert engine.stats.propagations == 2 * len(stream)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32 - 1))
def test_free_function_matches_explicit_engine(seed):
    """The registry-backed free function and an explicitly compiled
    engine agree bytewise (the footgun fix must be invisible)."""
    from repro import propagate

    dtd, annotation, _, stream = _workload(seed, 1)
    document, update, cold = stream[0]
    free = propagate(dtd, annotation, document, update)
    assert free.to_term() == cold.to_term()
    # and a second call (a guaranteed registry hit) still agrees
    again = propagate(dtd, annotation, document, update)
    assert again.to_term() == cold.to_term()
