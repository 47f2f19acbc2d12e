"""repro — a complete implementation of *The View Update Problem for XML*
(Staworko, Boneva, Groz; EDBT/ICDT Workshops 2010).

The library answers: given an XML document ``t`` valid for a DTD ``D``,
an annotation-defined view ``A(t)`` (selected subtrees hidden), and a
user edit ``S`` of that view (subtree insertions/deletions), how should
``t`` change? It implements the paper's inversion graphs, propagation
graphs, their optimal variants, and the polynomial propagation
algorithm parameterised by insertlets and preference functions.

Quickstart::

    from repro import DTD, Annotation, UpdateBuilder, parse_term, propagate

    dtd = DTD({"r": "(a,(b|c),d)*", "d": "((a|b),c)*"})
    annotation = Annotation.hiding(("r", "b"), ("r", "c"), ("d", "a"), ("d", "b"))
    source = parse_term("r#n0(a#n1, b#n2, d#n3(a#n7, c#n8), a#n4, c#n5, d#n6(b#n9, c#n10))")

    view = annotation.view(source)            # what the user sees
    edit = UpdateBuilder(view)
    edit.delete("n1")
    update = edit.script()                    # the view update S

    result = propagate(dtd, annotation, source, update)
    new_source = result.output_tree           # schema-compliant, no side effects

Serving many updates against one schema? Compile the ``(D, A)`` pair
once with :class:`repro.engine.ViewEngine` and reuse every derived
artifact (view DTD, minimal-tree tables, factories) — or let the
serving tier manage the lifecycle for you: an
:class:`repro.registry.EngineRegistry` shares engines across tenants
under a canonical schema hash (the free functions above serve from a
process-wide default registry automatically), and a
:class:`repro.session.DocumentSession` pins one hot document and
carries its caches across a stream of sequential updates::

    from repro import ViewEngine, default_registry

    engine = default_registry().get_or_compile(dtd, annotation)
    scripts = engine.propagate_many(source, updates)   # amortised serving
    session = engine.session(source)                   # one hot document
    for update in incoming:
        script = session.propagate(update)

Subpackages: :mod:`repro.xmltree` (trees), :mod:`repro.automata`,
:mod:`repro.dtd`, :mod:`repro.views`, :mod:`repro.editing`,
:mod:`repro.inversion` (Section 3), :mod:`repro.core` (Sections 4-5),
:mod:`repro.engine` (the compiled serving layer),
:mod:`repro.registry` (multi-tenant engine cache),
:mod:`repro.session` (pinned-document streams), :mod:`repro.store`
(durable documents: write-ahead log, snapshots, crash recovery,
point-in-time recovery, per-document write leases),
:mod:`repro.replication` (WAL-shipping replication: standby stores,
bounded-lag replica reads, promotion with lease fencing),
:mod:`repro.sharding` (horizontal scale-out: one huge document split
at a spine depth into per-shard sessions), :mod:`repro.repair`
(the Section 6.2 baseline), :mod:`repro.generators` (random workloads),
:mod:`repro.paperdata` (every figure of the paper).
"""

from . import errors
from .core import (
    AutomatonStateTyping,
    CheapestPathChooser,
    EDTDTyping,
    InsertletPackage,
    MinimalTreeFactory,
    PreferenceChooser,
    PropagationGraphs,
    TypePreservingChooser,
    count_min_propagations,
    enumerate_min_propagations,
    is_schema_compliant,
    is_side_effect_free,
    preserves_typing,
    propagate,
    propagation_graphs,
    validate_view_update,
    verify_propagation,
)
from .dtd import DTD, EDTD, parse_dtd, serialize_dtd, view_dtd
from .editing import EditScript, Op, UpdateBuilder
from .engine import EngineStats, ViewEngine
from .registry import (
    EngineRegistry,
    RegistryStats,
    default_registry,
    schema_fingerprint,
    set_default_registry,
)
from .replication import ReplicaSession, StandbyStore, WalShipper, replicate
from .session import DocumentSession, SessionStats
from .sharding import (
    ShardedDocument,
    ShardedPropagation,
    ShardPlan,
    ShardRouter,
    partition,
    reassemble,
)
from .store import DocumentStore, DurableSession, RecoveredDocument, TimeTravelView
from .inversion import (
    count_min_inversions,
    enumerate_min_inversions,
    inversion_graphs,
    invert,
    verify_inverse,
)
from .views import Annotation, SecurityPolicy
from .xmltree import NodeIds, Tree, parse_term, tree_from_xml, tree_to_xml

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "errors",
    # trees
    "Tree",
    "NodeIds",
    "parse_term",
    "tree_from_xml",
    "tree_to_xml",
    # schemas
    "DTD",
    "EDTD",
    "parse_dtd",
    "serialize_dtd",
    "view_dtd",
    # views
    "Annotation",
    "SecurityPolicy",
    # editing
    "EditScript",
    "Op",
    "UpdateBuilder",
    # inversion (Section 3)
    "invert",
    "inversion_graphs",
    "verify_inverse",
    "count_min_inversions",
    "enumerate_min_inversions",
    # compiled serving layer
    "ViewEngine",
    "EngineStats",
    "EngineRegistry",
    "RegistryStats",
    "default_registry",
    "set_default_registry",
    "schema_fingerprint",
    "DocumentSession",
    "SessionStats",
    # durable document store
    "DocumentStore",
    "DurableSession",
    "RecoveredDocument",
    "TimeTravelView",
    # WAL-shipping replication
    "WalShipper",
    "replicate",
    "StandbyStore",
    "ReplicaSession",
    # sharding (horizontal scale-out)
    "ShardedDocument",
    "ShardRouter",
    "ShardedPropagation",
    "ShardPlan",
    "partition",
    "reassemble",
    # propagation (Sections 4-5)
    "propagate",
    "propagation_graphs",
    "PropagationGraphs",
    "validate_view_update",
    "verify_propagation",
    "is_schema_compliant",
    "is_side_effect_free",
    "count_min_propagations",
    "enumerate_min_propagations",
    # choosers / typings / insertlets
    "PreferenceChooser",
    "CheapestPathChooser",
    "TypePreservingChooser",
    "AutomatonStateTyping",
    "EDTDTyping",
    "preserves_typing",
    "InsertletPackage",
    "MinimalTreeFactory",
]
