"""Wire-protocol service layer: serve a :class:`Database` over TCP.

Public surface::

    from repro.server import DatabaseServer, ServerConfig

    db = Database.on_flash(EngineKind.SIASV)
    server = DatabaseServer(db, ServerConfig(port=7654))
    server.run()                      # foreground (repro serve)
    # or: host, port = server.start_in_background()

Protocol details (frame layout, command codes, error codes, backpressure
contract) are documented in ``docs/SERVER.md`` and implemented in
:mod:`repro.server.protocol`.
"""

from repro.server.chaos import (
    ChaosConfig,
    ChaosPlan,
    NetCrashPoint,
    NetFaultKind,
)
from repro.server.dispatch import Dispatcher
from repro.server.protocol import Command, Status
from repro.server.server import DatabaseServer, ServerConfig
from repro.server.session import Session, SessionManager
from repro.server.shell import WireServer

__all__ = [
    "ChaosConfig",
    "ChaosPlan",
    "Command",
    "DatabaseServer",
    "Dispatcher",
    "NetCrashPoint",
    "NetFaultKind",
    "ServerConfig",
    "Session",
    "SessionManager",
    "Status",
    "WireServer",
]
