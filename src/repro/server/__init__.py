"""The persistent checking service.

Every other entry point in this repository is a one-shot process: it
pays interpreter start-up, prim-environment construction and engine
cold-start per invocation, then throws the warm engine away.  This
package is the long-lived alternative — the shape the incremental
engine (PR 1), ``entails_batch`` dispatch and the persistent proof
cache (PR 3) were built for:

* :class:`~repro.server.daemon.CheckingServer` — a daemon (CLI:
  ``repro serve``) that keeps warm :class:`~repro.logic.prove.Logic`
  engines resident across requests in forked lane processes, gives
  each connection an isolated, epoch-guarded session (module store +
  REPL scope), and runs one request per lane turn — multi-file
  ``check`` requests included, each on its connection's lane.
* :class:`~repro.server.client.Client` — a small blocking client
  (CLI: ``repro client``) speaking the newline-delimited JSON protocol
  of :mod:`repro.server.protocol` (see ``docs/SERVER.md`` for the wire
  spec).

Verdicts are identical to one-shot ``repro check`` by construction:
the daemon runs the same checker on the same engine, and the engine's
caches are content-addressed — ``tests/test_server.py`` pins verdict
equality over a generated corpus slice and session isolation between
concurrent connections.
"""

from .client import Client, ServerError
from .daemon import CheckingServer, ServerConfig
from .protocol import PROTOCOL_VERSION, ProtocolError

__all__ = [
    "CheckingServer",
    "Client",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerConfig",
    "ServerError",
]
