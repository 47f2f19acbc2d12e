"""Multi-tenant engine registry: one compiled engine per schema, shared.

A server rarely serves one ``(DTD, Annotation)`` pair — it serves many
tenants, each with their own schema and view definition, and the same
tenant keeps coming back. :class:`ViewEngine` already amortises schema
compilation across the requests of one caller; this module amortises it
across *all* callers:

* :func:`schema_fingerprint` — a canonical content hash of a
  ``(DTD, Annotation)`` pair. Equal schemas hash equal no matter how
  they were assembled (rule dictionaries in any order, alphabets in any
  order, annotations listing redundant entries), so the hash is a safe
  cache key and a stable identifier for logs and dashboards. A miss is
  always safe — it costs one duplicate compile, never a wrong share.
* :class:`EngineRegistry` — a thread-safe LRU cache of compiled engines
  keyed by ``(schema_fingerprint, factory key)``, with hit/miss/eviction
  counters (:class:`RegistryStats`).
* :func:`default_registry` — the process-wide registry the free
  functions (:func:`repro.propagate`, :func:`repro.invert`,
  :func:`repro.multiview.propagate_min_disturbance`, the CLI) serve
  from, so repeat one-shot calls against one schema stop recompiling.

Engines handed out by a registry are shared and immutable; per-request
state (documents, updates, sessions) never lives on them, so concurrent
use from many threads is safe.

    registry = EngineRegistry(capacity=256)
    engine = registry.get_or_compile(dtd, annotation)     # compiles
    engine = registry.get_or_compile(dtd, annotation)     # cache hit
    registry.stats                                        # hits=1, misses=1
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from .dtd import DTD
from .dtd.insertlets import TreeFactory
from .engine import ViewEngine
from .views import Annotation

__all__ = [
    "schema_fingerprint",
    "RegistryStats",
    "EngineRegistry",
    "default_registry",
    "set_default_registry",
]


# ---------------------------------------------------------------------------
# Canonical schema hashing
# ---------------------------------------------------------------------------


def _canonical_automaton(nfa) -> list:
    """A deterministic description of an NFA's language machine.

    States are renumbered by a breadth-first traversal from the initial
    state that explores symbols in sorted order (targets in the
    automaton's deterministic ``sorted_successors`` order), so the
    serialization is independent of dictionary/set iteration order and
    of unreachable states — every automaton the library itself derives
    (Glushkov from a parsed regex, view-DTD projections) serializes
    identically however the schema was assembled. Hand-built NFAs that
    differ *only* by a renaming of their states may still serialize
    differently (the successor tie-break uses state reprs; true
    renaming-invariant canonisation would need DFA minimisation, whose
    subset construction costs more than compiling the engine being
    cached). That is a safe cache miss, never a wrong share.
    """
    index: dict = {nfa.initial: 0}
    queue = [nfa.initial]
    transitions: list[tuple[int, str, int]] = []
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        symbols = sorted({symbol for symbol, _ in nfa.moves_from(state)})
        for symbol in symbols:
            for target in nfa.sorted_successors(state, symbol):
                if target not in index:
                    index[target] = len(index)
                    queue.append(target)
                transitions.append((index[state], symbol, index[target]))
    finals = sorted(index[state] for state in index if nfa.is_final(state))
    return [len(index), finals, transitions]


def schema_fingerprint(dtd: DTD, annotation: Annotation) -> str:
    """A canonical SHA-256 hex digest of a ``(DTD, Annotation)`` pair.

    Invariances (each one a way two "different" objects denote the same
    schema): rule-dictionary insertion order, alphabet listing order,
    iteration order of the underlying automata structures, and
    annotation entries that merely restate the default or mention
    symbols outside the alphabet. Automata are compared structurally
    (see :func:`_canonical_automaton` for the one caveat on hand-built,
    state-renamed NFAs — at worst a safe duplicate compile). Distinct
    view definitions — a different rule, a different visible pair —
    produce distinct digests (up to SHA-256 collisions).

    The DTD-side digest is memoized on the (immutable) DTD, so free
    functions hashing per call pay the traversal once per DTD object.
    """
    hasher = hashlib.sha256()
    rules_digest = dtd._canonical_digest
    if rules_digest is None:
        rules_hasher = hashlib.sha256()
        alphabet = dtd.sorted_alphabet
        rules_hasher.update(repr(alphabet).encode())
        for symbol in alphabet:
            description = _canonical_automaton(dtd.automaton(symbol))
            rules_hasher.update(f"{symbol}={description!r};".encode())
        rules_digest = rules_hasher.hexdigest()
        dtd._canonical_digest = rules_digest
    hasher.update(rules_digest.encode())
    hasher.update(f"default={annotation.default};".encode())
    relevant = sorted(
        (pair, value)
        for pair, value in annotation.entries()
        if value != annotation.default
        and pair[0] in dtd.alphabet
        and pair[1] in dtd.alphabet
    )
    hasher.update(repr(relevant).encode())
    return hasher.hexdigest()


def _factory_key(factory: "TreeFactory | None") -> "str | None":
    """The cache-key component of a factory, or ``None`` if uncacheable.

    ``None`` (the engine's own minimal factory) and factories exposing a
    ``cache_key()`` are cacheable; an arbitrary :class:`TreeFactory`
    implementation has unknowable state, so engines built around one are
    served uncached rather than risking a wrong share.
    """
    if factory is None:
        return "minimal"
    cache_key = getattr(factory, "cache_key", None)
    if cache_key is None:
        return None
    return cache_key()


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegistryStats:
    """A snapshot of one registry's counters."""

    hits: int
    """Lookups served from cache."""

    misses: int
    """Lookups that compiled a new engine."""

    evictions: int
    """Engines dropped by the LRU policy."""

    uncacheable: int
    """Requests with a factory that cannot be keyed (served transient)."""

    currsize: int
    """Engines currently cached."""

    capacity: int
    """Maximum engines kept."""

    coalesced: int = 0
    """Lookups that joined another thread's in-flight compile instead of
    compiling a duplicate (counted in :attr:`hits` too)."""

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``, 0.0 before any keyed lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> "dict[str, float | int]":
        """A JSON-serializable snapshot, ``hit_rate`` included."""
        payload: "dict[str, float | int]" = dataclasses.asdict(self)
        payload["hit_rate"] = self.hit_rate
        return payload


class _InFlight:
    """One in-progress engine build that racers block on (single-flight)."""

    __slots__ = ("done", "engine", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.engine: "ViewEngine | None" = None
        self.error: "BaseException | None" = None


class EngineRegistry:
    """A bounded, thread-safe cache of compiled :class:`ViewEngine`\\ s.

    Keys are ``(schema_fingerprint(dtd, annotation), factory key)``; the
    value is one shared engine per key, evicted least-recently-used when
    *capacity* is exceeded. All bookkeeping happens under one lock;
    compilation itself is lazy inside the engine, so the critical section
    stays short and concurrent :meth:`get_or_compile` calls for the same
    schema observe the same engine instance.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._engines: "OrderedDict[tuple[str, str], ViewEngine]" = OrderedDict()
        self._inflight: "dict[tuple[str, str], _InFlight]" = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._uncacheable = 0
        self._coalesced = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    @property
    def stats(self) -> RegistryStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return RegistryStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                uncacheable=self._uncacheable,
                currsize=len(self._engines),
                capacity=self._capacity,
                coalesced=self._coalesced,
            )

    def get_or_compile(
        self,
        dtd: DTD,
        annotation: Annotation,
        *,
        factory: "TreeFactory | None" = None,
    ) -> ViewEngine:
        """The shared engine for ``(dtd, annotation, factory)``.

        Compiles and caches one on first request; factories without a
        stable key yield a fresh uncached engine (see
        :func:`_factory_key`). The engine compiles each artifact on first
        use (:meth:`ViewEngine.warm_up` forces them all).

        Concurrent misses on one key are **single-flight**: the first
        caller builds, every racer blocks on the same in-flight build and
        shares its engine — N threads racing on a cold schema compile it
        once, not N times (observable as :attr:`RegistryStats.coalesced`).
        """
        token = _factory_key(factory)
        if token is None:
            with self._lock:
                self._uncacheable += 1
            return self._build_engine(dtd, annotation, factory)
        key = (schema_fingerprint(dtd, annotation), token)
        while True:
            with self._lock:
                engine = self._engines.get(key)
                if engine is not None:
                    self._hits += 1
                    self._engines.move_to_end(key)
                    return engine
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    break  # we lead the build
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            if flight.engine is not None:
                with self._lock:
                    self._hits += 1
                    self._coalesced += 1
                return flight.engine
            # leader vanished without a result (shouldn't happen): retry
        try:
            engine = self._build_engine(dtd, annotation, factory)
            with self._lock:
                self._misses += 1
                self._engines[key] = engine
                while len(self._engines) > self._capacity:
                    self._engines.popitem(last=False)
                    self._evictions += 1
            flight.engine = engine
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.done.set()
        return engine

    def _build_engine(
        self,
        dtd: DTD,
        annotation: Annotation,
        factory: "TreeFactory | None",
    ) -> ViewEngine:
        """Build one engine.

        Runs outside the registry lock (the single-flight entry protects
        the key); separated out so tests can interpose slow builds.
        """
        return ViewEngine(dtd, annotation, factory=factory)

    def cached_keys(self) -> "list[tuple[str, str]]":
        """Cache keys from least- to most-recently used (for diagnostics)."""
        with self._lock:
            return list(self._engines)

    def cached_engines(self) -> "list[tuple[tuple[str, str], ViewEngine]]":
        """A snapshot of (key, engine) pairs, least- to most-recently used.

        Does not count as use: LRU order and hit counters are untouched
        (it exists for metrics export, not serving).
        """
        with self._lock:
            return list(self._engines.items())

    def stats_payload(self) -> dict:
        """The registry and all cached engines as one JSON-serializable
        report — what ``repro-xml stats`` prints.

        Engine entries carry the schema fingerprint (the cache key), the
        factory token, and the engine's request counters.
        """
        return {
            "registry": self.stats.as_dict(),
            "engines": [
                {
                    "schema_hash": schema_hash,
                    "factory": factory_token,
                    **engine.stats.as_dict(),
                }
                for (schema_hash, factory_token), engine in self.cached_engines()
            ],
        }

    def clear(self) -> None:
        """Drop every cached engine and reset the counters."""
        with self._lock:
            self._engines.clear()
            self._hits = self._misses = self._evictions = self._uncacheable = 0
            self._coalesced = 0

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"EngineRegistry(size={stats.currsize}/{stats.capacity}, "
            f"hits={stats.hits}, misses={stats.misses}, "
            f"evictions={stats.evictions})"
        )


# ---------------------------------------------------------------------------
# The process-wide default
# ---------------------------------------------------------------------------

_default_registry = EngineRegistry(capacity=128)
_default_lock = threading.Lock()


def default_registry() -> EngineRegistry:
    """The registry behind the library's free functions.

    One per process; bounded (LRU, 128 schemas), so long-running callers
    mixing many tenants cannot leak engines. Replaceable via
    :func:`set_default_registry` for capacity tuning or test isolation.
    """
    return _default_registry


def set_default_registry(registry: EngineRegistry) -> EngineRegistry:
    """Install *registry* as the process default; returns the previous one."""
    global _default_registry
    if not isinstance(registry, EngineRegistry):
        raise TypeError(f"expected an EngineRegistry, got {type(registry)!r}")
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
