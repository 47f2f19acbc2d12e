"""The persistent compiled-artifact and memo cache tier.

These tests pin the tier's contract end to end: raw put/get mechanics,
restart warm-starts (a fresh process's first propagation skips both
compilation and graph construction), cross-instance sharing, size-aware
LRU eviction under global and per-tenant quotas, invalidation
mirroring, segment garbage collection, torn-tail (kill-mid-put) repair,
the warm-up manifest, and the stats/metrics surfaces. Throughout, the
tier must be invisible in *results* — every produced script is
byte-identical to the cache-free baseline — and visible only in time
and counters.
"""

import json

import pytest

from repro import Annotation, DTD, EngineRegistry, ViewEngine
from repro.cache import DiskCache, build_artifact_payload, hydrate_engine
from repro.editing import EditScript
from repro.paperdata.figures import a0, d0
from repro.server.metrics import render_metrics
from repro.xmltree import parse_term

pytestmark = pytest.mark.cache

SOURCE_TERM = "r#n0(a#n1, b#n2, d#n3(a#n7, c#n8), a#n4, c#n5, d#n6(b#n9, c#n10))"
UPDATE_TERM = (
    "Nop.r#n0(Nop.a#n1, Nop.d#n3(Nop.c#n8), Nop.a#n4, "
    "Ins.d#u0(Ins.c#u1), Ins.a#u2, Nop.d#n6(Nop.c#n10))"
)


@pytest.fixture
def schema():
    return d0(), a0()


@pytest.fixture
def source():
    return parse_term(SOURCE_TERM)


@pytest.fixture
def update():
    return EditScript.parse(UPDATE_TERM)


def _stack(root):
    """A fresh (disk tier, registry) pair over *root* — simulates one
    process booting against a shared cache directory."""
    disk = DiskCache(root)
    registry = EngineRegistry()
    registry.attach_disk_tier(disk)
    return disk, registry


def _baseline_script(schema, source, update):
    """The cache-free answer every cached serve must reproduce."""
    return ViewEngine(*schema).propagate(source, update)


class TestRawStore:
    def test_artifact_roundtrip(self, tmp_path):
        disk = DiskCache(tmp_path)
        payload = {"version": 1, "anything": ["json", 42]}
        assert disk.put_artifact("h1", "minimal", payload)
        assert disk.get_artifact("h1", "minimal") == payload
        assert disk.get_artifact("h1", "other") is None
        assert disk.get_artifact("h2", "minimal") is None
        stats = disk.stats
        assert (stats.puts, stats.artifact_hits, stats.misses) == (1, 1, 2)

    def test_memo_roundtrip(self, tmp_path):
        disk = DiskCache(tmp_path)
        assert disk.put_memo(
            "h1", "minimal", "src", "upd", "chooser|1", "Nop.r#n0", validated=True
        )
        hit = disk.get_memo("h1", "minimal", "src", "upd", "chooser|1")
        assert hit == {"script": "Nop.r#n0", "validated": True}
        assert disk.get_memo("h1", "minimal", "src", "upd", "chooser|0") is None
        assert disk.stats.memo_hits == 1

    def test_unserializable_payload_rejected(self, tmp_path):
        disk = DiskCache(tmp_path)
        assert not disk.put_artifact("h1", "minimal", {"bad": object()})
        assert disk.stats.put_rejects == 1
        assert len(disk) == 0

    def test_cross_instance_visibility(self, tmp_path):
        """A put in one process is a hit in another (tail re-scan on
        miss) — the pool-sharing contract."""
        writer = DiskCache(tmp_path)
        reader = DiskCache(tmp_path)  # opened before the put
        assert reader.get_artifact("h1", "minimal") is None
        writer.put_artifact("h1", "minimal", {"v": 1})
        assert reader.get_artifact("h1", "minimal") == {"v": 1}

    def test_reopen_reads_everything_back(self, tmp_path):
        disk = DiskCache(tmp_path)
        for index in range(10):
            disk.put_memo(
                "h1", "minimal", f"s{index}", "u", "c|1", f"Nop.r#n{index}",
                validated=False,
            )
        reopened = DiskCache(tmp_path)
        assert len(reopened) == 10
        for index in range(10):
            payload = reopened.get_memo("h1", "minimal", f"s{index}", "u", "c|1")
            assert payload["script"] == f"Nop.r#n{index}"


class TestRestartWarmStart:
    """The tentpole acceptance: with a populated tier, a fresh process's
    first propagation of a known request skips compilation *and* graph
    construction, and the script is byte-identical."""

    def test_artifact_hydration_skips_compile(self, tmp_path, schema, source, update):
        baseline = _baseline_script(schema, source, update)
        _, first_registry = _stack(tmp_path)
        engine = first_registry.get_or_compile(*schema)
        engine.propagate(source, update)  # persists artifact + memo

        disk, registry = _stack(tmp_path)
        warmed = registry.get_or_compile(*schema)
        # Building the engine reads nothing: the artifact arrives as a
        # lazy supplier, consumed on first compiled-table access.
        assert warmed._artifact_supplier is not None
        assert disk.stats.artifact_hits == 0
        assert warmed.schema_hash == engine.schema_hash
        # First table touch installs the whole precompiled bundle —
        # minimal sizes ride along although only visibility was asked.
        assert warmed.visible_table == engine.visible_table
        assert disk.stats.artifact_hits == 1
        assert warmed._sizes is not None
        assert warmed._view_supplier is not None  # automata still deferred
        assert warmed.view_dtd is not None
        script = warmed.propagate(source, update)
        assert script.to_term() == baseline.to_term()
        assert script == baseline

    def test_disk_memo_hit_skips_graph_construction(
        self, tmp_path, schema, source, update
    ):
        baseline = _baseline_script(schema, source, update)
        _, first_registry = _stack(tmp_path)
        first_registry.get_or_compile(*schema).propagate(source, update)

        disk, registry = _stack(tmp_path)
        engine = registry.get_or_compile(*schema)
        script = engine.propagate(source, update)
        stats = engine.stats
        assert stats.memo_hits == 1
        assert stats.disk_memo_hits == 1
        assert stats.memo_misses == 0
        entry = engine._memo.get((source.content_key(), update.content_key()))
        assert entry is not None and entry.graphs is None  # never built
        assert disk.stats.artifact_hits == 0  # never even read the artifact
        assert script.to_term() == baseline.to_term()

    def test_session_serving_persists_artifact(
        self, tmp_path, schema, source, update
    ):
        """Sessions bypass the engine memo (their caches advance with the
        document), but a served workload must still seed the artifact
        tier so a restarted process skips compilation."""
        disk, registry = _stack(tmp_path)
        engine = registry.get_or_compile(*schema)
        engine.session(source).propagate(update)
        assert disk.stats.puts >= 1

        fresh_disk, fresh_registry = _stack(tmp_path)
        warmed = fresh_registry.get_or_compile(*schema)
        assert warmed._artifact_supplier is not None  # disk-backed, no compile
        assert warmed.visible_table == engine.visible_table
        assert fresh_disk.stats.artifact_hits == 1

    def test_validated_flag_rides_along(self, tmp_path, schema, source, update):
        _, first_registry = _stack(tmp_path)
        first_registry.get_or_compile(*schema).propagate(source, update)

        _, registry = _stack(tmp_path)
        engine = registry.get_or_compile(*schema)
        engine.propagate(source, update)
        # the first serve validated; the disk entry carries the flag, so
        # the warm process never re-validates this pair
        assert engine.stats.validations == 0

    def test_damaged_tier_still_serves(self, tmp_path, schema, source, update):
        """A tier whose files vanish mid-flight degrades to compile —
        never an exception, never a wrong script."""
        baseline = _baseline_script(schema, source, update)
        disk, registry = _stack(tmp_path)
        for path in disk.root.glob("seg-*.log"):
            path.write_bytes(b"\x00garbage\x00")
        engine = registry.get_or_compile(*schema)
        script = engine.propagate(source, update)
        assert script.to_term() == baseline.to_term()


class TestEvictionAndQuotas:
    def _memo_put(self, disk, tenant, index, pad=2048):
        return disk.put_memo(
            tenant,
            "minimal",
            f"s{index}",
            "u" * pad,  # bulk the record up so quotas bite quickly
            "c|1",
            f"Nop.r#n{index}",
            validated=False,
        )

    def test_global_quota_evicts_lru(self, tmp_path):
        disk = DiskCache(tmp_path, quota_bytes=16_000, tenant_quota_bytes=16_000)
        for index in range(12):
            assert self._memo_put(disk, "h1", index)
        stats = disk.stats
        assert stats.evictions > 0
        assert stats.bytes <= 16_000
        # the most recent put always survives; the oldest is gone
        assert disk.get_memo("h1", "minimal", "s11", "u" * 2048, "c|1") is not None
        assert disk.get_memo("h1", "minimal", "s0", "u" * 2048, "c|1") is None

    def test_tenant_quota_spares_other_tenants(self, tmp_path):
        disk = DiskCache(tmp_path, quota_bytes=1_000_000, tenant_quota_bytes=8_000)
        assert self._memo_put(disk, "quiet", 0)
        for index in range(12):
            assert self._memo_put(disk, "noisy", index)
        # the noisy tenant evicted only itself
        assert disk.get_memo("quiet", "minimal", "s0", "u" * 2048, "c|1") is not None
        assert disk.stats_payload()["tenant_bytes"]["noisy"] <= 8_000

    def test_oversized_payload_rejected_not_stored(self, tmp_path):
        disk = DiskCache(tmp_path, quota_bytes=4_096, tenant_quota_bytes=4_096)
        assert not self._memo_put(disk, "h1", 0, pad=10_000)
        assert disk.stats.put_rejects == 1
        assert len(disk) == 0

    def test_eviction_survives_restart(self, tmp_path):
        """Tombstones are durable: a reopened tier does not resurrect
        evicted entries."""
        disk = DiskCache(tmp_path, quota_bytes=16_000, tenant_quota_bytes=16_000)
        for index in range(12):
            self._memo_put(disk, "h1", index)
        live = {key for key in disk._index}
        reopened = DiskCache(tmp_path)
        assert {key for key in reopened._index} == live


class TestInvalidation:
    def test_engine_invalidate_memo_drops_disk_entries(
        self, tmp_path, schema, source, update
    ):
        disk, registry = _stack(tmp_path)
        engine = registry.get_or_compile(*schema)
        engine.propagate(source, update)
        assert any(e.kind == "memo" for e in disk._index.values())
        engine.invalidate_memo()
        assert not any(e.kind == "memo" for e in disk._index.values())
        # the artifact survives: schema compilation is still valid
        assert any(e.kind == "artifact" for e in disk._index.values())
        # a fresh process sees the drop too (tombstones are durable)
        fresh = DiskCache(tmp_path)
        assert not any(e.kind == "memo" for e in fresh._index.values())

    def test_registry_eviction_drops_tenant(self, tmp_path, schema, source, update):
        disk, _ = _stack(tmp_path)
        registry = EngineRegistry(capacity=1)
        registry.attach_disk_tier(disk)
        engine = registry.get_or_compile(*schema)
        engine.propagate(source, update)
        evicted_hash = engine.schema_hash
        # a second schema evicts the first from the 1-slot registry
        other = DTD({"r": "a*"}, alphabet=["a"]), Annotation.identity()
        registry.get_or_compile(*other)
        assert not any(
            entry.tenant == evicted_hash for entry in disk._index.values()
        )
        token = f"{evicted_hash}|minimal"
        assert token not in disk.manifest_payload()["tenants"]


class TestGarbageCollection:
    def test_gc_compacts_and_preserves_live_entries(self, tmp_path):
        disk = DiskCache(tmp_path, quota_bytes=16_000, tenant_quota_bytes=16_000)
        for index in range(12):  # evictions leave dead records + tombstones
            disk.put_memo(
                "h1", "minimal", f"s{index}", "u" * 2048, "c|1",
                f"Nop.r#n{index}", validated=False,
            )
        before = disk.stats_payload()
        report = disk.gc()
        assert report["live_entries"] == len(disk)
        assert report["file_bytes_after"] <= report["file_bytes_before"]
        assert disk.stats.bytes == before["bytes"]  # live payloads intact
        # everything live is still readable, in a fresh instance too
        reopened = DiskCache(tmp_path)
        assert len(reopened) == report["live_entries"]

    def test_gc_removes_quarantined_segments(self, tmp_path):
        from repro.cache.segments import scan_segment

        disk = DiskCache(tmp_path)
        disk.put_artifact("h1", "minimal", {"v": 1})
        disk.put_artifact("h2", "minimal", {"v": 2})
        seg = next(disk.root.glob("seg-*.log"))
        first = scan_segment(seg).records[0]
        data = bytearray(seg.read_bytes())
        # interior corruption: the first record is damaged but an intact
        # record follows, so this cannot be a torn tail
        data[first.offset + first.length // 2] ^= 0xFF
        seg.write_bytes(bytes(data))
        fresh = DiskCache(tmp_path)
        assert fresh.get_artifact("h1", "minimal") is None  # quarantined
        assert fresh.stats.quarantines == 1
        assert list(fresh.root.glob("*.bad"))
        fresh.gc()
        assert not list(fresh.root.glob("*.bad"))


    def test_length_damage_with_an_intact_successor_quarantines(self, tmp_path):
        from repro.cache.segments import scan_segment

        disk = DiskCache(tmp_path)
        for n in range(5):
            disk.put_artifact(f"h{n}", "minimal", {"v": n})
        seg = next(disk.root.glob("seg-*.log"))
        data = seg.read_bytes()
        at = data.index(b"\nR 4 ") + len(b"\nR 4 ")
        seg.write_bytes(data[:at] + b"9" + data[at:])  # record 4 runs past EOF
        scan = scan_segment(seg)
        assert (scan.torn, scan.corrupt) == (False, True)
        fresh = DiskCache(tmp_path)
        assert fresh.stats.quarantines == 1
        assert fresh.get_artifact("h4", "minimal") is None


class TestKillMidPut:
    def test_torn_tail_is_a_safe_miss_then_repaired(self, tmp_path, schema):
        """Kill-mid-put: a half-written record never surfaces, earlier
        records stay readable, and the next locked append repairs the
        tail in place."""
        disk = DiskCache(tmp_path)
        disk.put_artifact("h1", "minimal", {"v": 1})
        disk.put_memo("h1", "minimal", "s", "u", "c|1", "Nop.r#n0", validated=True)
        seg = max(tmp_path.glob("seg-*.log"))
        intact = seg.read_bytes()
        with open(seg, "ab") as handle:  # the interrupted put's torn tail
            handle.write(b"R 3 999 123456\n{\"op\":\"put\",\"k\":\"trunc")
        survivor = DiskCache(tmp_path)
        assert survivor.get_artifact("h1", "minimal") == {"v": 1}
        assert survivor.get_memo("h1", "minimal", "s", "u", "c|1") is not None
        assert len(survivor) == 2  # the torn record never happened
        # the next put truncates the tail and lands cleanly after it
        assert survivor.put_artifact("h2", "minimal", {"v": 2})
        assert seg.read_bytes()[: len(intact)] == intact
        assert DiskCache(tmp_path).get_artifact("h2", "minimal") == {"v": 2}

    def test_torn_header_segment_recovers(self, tmp_path):
        disk = DiskCache(tmp_path)
        seg = next(tmp_path.glob("seg-*.log"))
        seg.write_bytes(b"CSE")  # header itself torn mid-write
        fresh = DiskCache(tmp_path)
        assert fresh.put_artifact("h1", "minimal", {"v": 1})
        assert DiskCache(tmp_path).get_artifact("h1", "minimal") == {"v": 1}


class TestWarmupManifest:
    def test_manifest_records_tenants(self, tmp_path, schema, source, update):
        disk, registry = _stack(tmp_path)
        engine = registry.get_or_compile(*schema)
        engine.propagate(source, update)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        token = f"{engine.schema_hash}|minimal"
        assert manifest["tenants"][token]["uses"] >= 1

    def test_warm_preloads_registry(self, tmp_path, schema, source, update):
        baseline = _baseline_script(schema, source, update)
        _, first_registry = _stack(tmp_path)
        first_registry.get_or_compile(*schema).propagate(source, update)

        disk, registry = _stack(tmp_path)
        assert disk.warm(registry) == 1
        assert len(registry) == 1
        # the warmed engine serves without compiling or building graphs
        engine = registry.get_or_compile(*schema)
        assert registry.stats.hits == 1
        script = engine.propagate(source, update)
        assert engine.stats.disk_memo_hits == 1
        assert script.to_term() == baseline.to_term()

    def test_warm_limit_and_damage_tolerance(self, tmp_path, schema, source, update):
        _, first_registry = _stack(tmp_path)
        first_registry.get_or_compile(*schema).propagate(source, update)
        disk, registry = _stack(tmp_path)
        assert disk.warm(registry, limit=0) == 0
        (tmp_path / "manifest.json").write_text("{not json")
        assert disk.warm(registry) == 0  # damaged manifest: a safe no-op


class TestArtifactCodec:
    def test_payload_round_trips_through_hydration(self, tmp_path, schema):
        engine = ViewEngine(*schema).warm_up()
        payload = build_artifact_payload(engine, "minimal")
        assert payload is not None
        payload = json.loads(json.dumps(payload))  # storage round trip
        dtd, annotation = schema
        rebuilt = hydrate_engine(
            payload,
            dtd=dtd,
            annotation=annotation,
            factory=None,
            schema_hash=engine.schema_hash,
        )
        assert rebuilt is not None
        assert rebuilt.minimal_sizes == dict(engine.minimal_sizes)
        assert rebuilt.hidden_table == dict(engine.hidden_table)
        assert rebuilt.visible_table == dict(engine.visible_table)
        for symbol in engine.view_dtd.sorted_alphabet:
            ours = rebuilt.view_dtd.automaton(symbol)
            theirs = engine.view_dtd.automaton(symbol)
            assert ours.equivalent(theirs)

    def test_hydration_rejects_wrong_schema(self, tmp_path, schema):
        engine = ViewEngine(*schema).warm_up()
        payload = build_artifact_payload(engine, "minimal")
        dtd, annotation = schema
        assert (
            hydrate_engine(
                payload,
                dtd=dtd,
                annotation=annotation,
                factory=None,
                schema_hash="0" * 64,
            )
            is None
        )


class TestObservability:
    def test_stats_payload_gains_disk_cache_section(
        self, tmp_path, schema, source, update
    ):
        disk, registry = _stack(tmp_path)
        registry.get_or_compile(*schema).propagate(source, update)
        payload = registry.stats_payload()
        assert payload["disk_cache"]["puts"] >= 2  # artifact + memo
        assert payload["disk_cache"]["root"] == str(tmp_path)
        json.dumps(payload)  # the whole report must stay serializable

    def test_metrics_exposition_lines(self, tmp_path, schema, source, update):
        disk, registry = _stack(tmp_path)
        registry.get_or_compile(*schema).propagate(source, update)
        disk.get_artifact("missing", "minimal")
        text = render_metrics(
            registry=registry.stats_payload(), disk_cache=disk.stats_payload()
        )
        for name in (
            "repro_disk_cache_hits_total",
            "repro_disk_cache_misses_total",
            "repro_disk_cache_evictions_total",
            "repro_disk_cache_bytes",
            "repro_disk_cache_quarantines_total",
            "repro_disk_cache_entries",
        ):
            assert name in text
        assert f"repro_disk_cache_misses_total {disk.stats.misses}" in text
        assert f"repro_disk_cache_entries {len(disk)}" in text
