"""Network ingest/subscribe boundary for the Pulse reproduction.

The paper's prototype ran inside Borealis, a distributed stream
processor that receives tuples and ships query results over the
network; this package is that entry point for the reproduction.  An
asyncio TCP server (:mod:`.server`) speaks a newline-delimited JSON
protocol (:mod:`.protocol`): clients ``ingest`` tuples into named
streams, ``subscribe`` to query outputs in continuous or discrete mode
with a per-subscription error bound, and receive results, watchdog
alerts and backpressure notifications as they are produced.  A
dedicated engine thread owns the
:class:`~repro.engine.scheduler.QueryRuntime`; the event loop feeds it
through the thread-safe :class:`~repro.server.bridge.EngineBridge`.

:mod:`.client` is the blocking client library used by the CLI
(``repro ingest``), the loopback tests and the end-to-end benchmark.
:mod:`.router` scales the boundary out: a router process key-routes
ingest across N worker servers and deterministically merges their
result streams back at the subscriber edge (``repro route``).
"""

from .bridge import EngineBridge, FitSpec
from .client import PulseClient, ReconnectExhausted, ServerError
from .router import PulseRouter, RouterConfig
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode,
    pack_columns,
    serialize_segment,
    serialize_tuple,
    validate_columns,
)
from .server import PulseServer, ServerConfig, ServerThread

__all__ = [
    "EngineBridge",
    "FitSpec",
    "PulseClient",
    "PulseRouter",
    "ReconnectExhausted",
    "RouterConfig",
    "ServerError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_line",
    "encode",
    "pack_columns",
    "serialize_segment",
    "serialize_tuple",
    "validate_columns",
    "PulseServer",
    "ServerConfig",
    "ServerThread",
]
