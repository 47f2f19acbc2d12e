"""The serving front-end: the library becomes a service.

Every layer below — compiled engines, pinned sessions, the durable WAL
store, replication, sharding — is in-process; this package puts a wire
in front of the stack:

* :mod:`repro.server.protocol` — a length-prefixed, CRC-framed JSON
  message protocol reusing the WAL's framing discipline;
* :mod:`repro.server.app` — the asyncio TCP+HTTP server
  (:class:`ReproServer`): framed request/response on the same port as a
  minimal HTTP endpoint for ``/metrics``, ``/healthz``, ``/stats``,
  with every ``/metrics`` family declared once in a
  :class:`repro.obs.metrics.MetricsRegistry`;
* :mod:`repro.server.handlers` — per-document session endpoints
  (``propagate``, ``batch``, ``view``, ``shard_propagate``, …);
* :mod:`repro.server.client` — a small blocking client for tests,
  benchmarks, and scripting.
"""

from .app import ReproServer
from .client import RemoteServingError, ServeClient
from .protocol import decode_messages, encode_message

__all__ = [
    "ReproServer",
    "ServeClient",
    "RemoteServingError",
    "encode_message",
    "decode_messages",
]
