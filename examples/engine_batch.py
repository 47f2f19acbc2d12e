#!/usr/bin/env python3
"""The serving tier, bottom to top: engine, registry, session.

Three layers amortise the work of answering view updates:

1. a :class:`repro.ViewEngine` compiles the schema artifacts (view DTD,
   minimal-tree tables, visibility tables) once per ``(DTD, Annotation)``;
2. an :class:`repro.EngineRegistry` shares those engines across callers
   and tenants, keyed by a canonical schema hash with LRU eviction —
   the free functions serve from a process-wide default registry;
3. a :class:`repro.DocumentSession` pins one hot document and carries
   its view, subtree sizes, and fresh-identifier map across a stream of
   sequential updates.

Every layer returns byte-identical scripts to the cold path — the demo
asserts it at each step.

Run:  python examples/engine_batch.py
"""

import time

from repro import EngineRegistry, ViewEngine, propagate
from repro.generators.workloads import wide_schema

BATCH = 8


def main() -> None:
    workload = wide_schema(40)
    dtd, annotation = workload.dtd, workload.annotation
    print(f"schema: {len(dtd.alphabet)} element types, "
          f"document: {workload.source.size} nodes, "
          f"update cost: {workload.update.cost}")

    updates = [workload.update] * BATCH

    # -- cold: a transient engine per request re-derives the view DTD
    # and visibility tables every time (only DTD-memoized tables carry) --
    start = time.perf_counter()
    cold_scripts = [
        ViewEngine(dtd, annotation).propagate(workload.source, update)
        for update in updates
    ]
    cold = time.perf_counter() - start

    # -- warm: one compiled engine serves the whole batch -----------------
    engine = ViewEngine(dtd, annotation).warm_up()
    start = time.perf_counter()
    warm_scripts = engine.propagate_many(workload.source, updates)
    warm = time.perf_counter() - start

    assert all(
        got.to_term() == expected.to_term()
        for got, expected in zip(warm_scripts, cold_scripts)
    ), "engine and cold scripts must be byte-identical"

    print(f"\ncold (transient engine): {cold / BATCH * 1000:7.2f} ms/update")
    print(f"warm (ViewEngine):       {warm / BATCH * 1000:7.2f} ms/update")
    print(f"speedup: {cold / warm:.1f}x — same scripts, byte for byte")

    # -- multi-tenant: a registry hands every caller the same engine ------
    registry = EngineRegistry(capacity=64)
    first = registry.get_or_compile(dtd, annotation).warm_up()
    second = registry.get_or_compile(dtd, annotation)
    assert first is second, "one compiled engine per schema"
    print(f"\nregistry: {registry.stats}")
    print(f"schema hash: {first.schema_hash[:16]}…")
    # the free function serves from the process default registry, so even
    # one-shot callers stop recompiling after their first request:
    free_script = propagate(dtd, annotation, workload.source, workload.update)
    assert free_script.to_term() == cold_scripts[0].to_term()

    # -- hot document: a session carries per-document caches forward ------
    session = first.session(workload.source)
    script = session.propagate(workload.update, verify=True)
    assert script.to_term() == cold_scripts[0].to_term()
    print(f"\nsession after one update: {session.stats}")
    print(f"document evolved to {session.source.size} nodes; "
          f"view cached, {session.stats.size_entries_carried} size entries carried")

    print("\nEvery propagation is schema-compliant and side-effect free:")
    ok = all(
        engine.verify(workload.source, update, script)
        for update, script in zip(updates, warm_scripts)
    )
    print(f"verified: {ok}")
    assert ok


if __name__ == "__main__":
    main()
