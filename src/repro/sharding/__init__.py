"""Sharding: serve one huge document as a spine plus per-shard sessions.

The package splits a document at a configurable spine depth
(:mod:`~repro.sharding.partition`), gives each shard its own session
(:mod:`~repro.sharding.worker`), routes every view update across the
boundary (:mod:`~repro.sharding.router`), and wraps
the whole thing — optionally durably — in a
:class:`~repro.sharding.ShardedDocument`
(:mod:`~repro.sharding.document`).
"""

from .document import SHARDING_FILE, ShardedDocument
from .partition import ShardPlan, partition, reassemble
from .router import ShardedPropagation, ShardRouter
from .worker import LocalShardPool

__all__ = [
    "ShardedDocument",
    "SHARDING_FILE",
    "ShardPlan",
    "partition",
    "reassemble",
    "ShardRouter",
    "ShardedPropagation",
    "LocalShardPool",
]
