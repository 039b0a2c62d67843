"""Shared fixtures: tiny devices, substrates and databases for fast tests."""

from __future__ import annotations

import pytest

from repro.buffer.manager import BufferManager
from repro.common import units
from repro.common.clock import SimClock
from repro.common.config import (
    BufferConfig,
    EngineConfig,
    FlashConfig,
    SystemConfig,
)
from repro.core.engine import SiasVEngine
from repro.baseline.engine import SiEngine
from repro.db.catalog import IndexDef
from repro.db.database import Database, EngineKind
from repro.db.schema import ColType, Schema
from repro.storage.flash import FlashDevice
from repro.storage.tablespace import Tablespace
from repro.storage.trace import TraceRecorder
from repro.txn.manager import TransactionManager
from repro.wal.log import WriteAheadLog

SMALL_FLASH = FlashConfig(capacity_bytes=64 * units.MIB)


@pytest.fixture
def clock() -> SimClock:
    """A fresh simulated clock."""
    return SimClock()


@pytest.fixture
def trace() -> TraceRecorder:
    """A fresh trace recorder."""
    return TraceRecorder()


@pytest.fixture
def flash(clock: SimClock, trace: TraceRecorder) -> FlashDevice:
    """A small flash device with tracing."""
    return FlashDevice(clock, SMALL_FLASH, trace=trace)


@pytest.fixture
def tablespace(flash: FlashDevice) -> Tablespace:
    """A tablespace with small extents over the flash fixture."""
    return Tablespace(flash, extent_pages=16)


@pytest.fixture
def buffer(tablespace: Tablespace) -> BufferManager:
    """A 64-frame buffer pool."""
    return BufferManager(tablespace, pool_pages=64)


@pytest.fixture
def txn_mgr(clock: SimClock) -> TransactionManager:
    """A transaction manager with a WAL on its own flash device."""
    wal_device = FlashDevice(clock, SMALL_FLASH, name="wal")
    return TransactionManager(wal=WriteAheadLog(wal_device))


@pytest.fixture
def sias_engine(buffer: BufferManager, tablespace: Tablespace,
                txn_mgr: TransactionManager) -> SiasVEngine:
    """A SIAS-V engine over one fresh relation file."""
    file_id = tablespace.create_file("rel.test")
    return SiasVEngine(relation_id=0, buffer=buffer, file_id=file_id,
                       config=EngineConfig(), txn_mgr=txn_mgr)


@pytest.fixture
def si_engine(buffer: BufferManager, tablespace: Tablespace,
              txn_mgr: TransactionManager) -> SiEngine:
    """A baseline SI engine over one fresh relation file."""
    file_id = tablespace.create_file("rel.test")
    return SiEngine(relation_id=0, buffer=buffer, file_id=file_id,
                    config=EngineConfig(), txn_mgr=txn_mgr)


def small_system_config(**buffer_kwargs) -> SystemConfig:
    """A SystemConfig sized for unit tests."""
    return SystemConfig(
        flash=SMALL_FLASH,
        buffer=BufferConfig(pool_pages=buffer_kwargs.pop("pool_pages", 128)),
        extent_pages=16,
    )


ACCOUNTS = Schema.of(("id", ColType.INT), ("owner", ColType.STR),
                     ("balance", ColType.FLOAT))


def create_accounts_table(db: Database) -> None:
    """The indexed 'accounts' table every service-level test uses."""
    db.create_table("accounts", ACCOUNTS, indexes=[
        IndexDef("pk", ("id",), unique=True),
        IndexDef("by_owner", ("owner",)),
    ])


def make_accounts_db(kind: EngineKind, **kwargs) -> Database:
    """A flash database with one indexed 'accounts' table."""
    db = Database.on_flash(kind, small_system_config(**kwargs))
    create_accounts_table(db)
    return db


@pytest.fixture(params=[EngineKind.SIASV, EngineKind.SI],
                ids=["sias-v", "si"])
def any_db(request) -> Database:
    """Parametrised database fixture: every test runs on both engines."""
    return make_accounts_db(request.param)


@pytest.fixture
def sias_db() -> Database:
    """A SIAS-V accounts database."""
    return make_accounts_db(EngineKind.SIASV)


@pytest.fixture
def si_db() -> Database:
    """A baseline SI accounts database."""
    return make_accounts_db(EngineKind.SI)


class ShardedDatabase:
    """The engine-side view of a router's shards, for endpoint tests.

    Offers the slice of the :class:`Database` surface the shell tests
    assert on — transaction counters summed over every shard, and a
    ``begin``/``scan``/``commit`` that reads each shard's own engine —
    so one assertion holds for a node and for a router alike.
    """

    def __init__(self, dbs: list[Database]) -> None:
        self.dbs = dbs
        # tests read ``db.txn_mgr.active_count()``: the summed count below
        # stands in for one transaction manager
        self.txn_mgr = self

    def active_count(self) -> int:
        return sum(db.txn_mgr.active_count() for db in self.dbs)

    def begin(self) -> list:
        return [db.begin() for db in self.dbs]

    def scan(self, txns: list, table: str):
        for db, txn in zip(self.dbs, txns):
            yield from db.scan(txn, table)

    def commit(self, txns: list) -> None:
        for db, txn in zip(self.dbs, txns):
            db.commit(txn)


@pytest.fixture(params=["node", "router"])
def endpoint(request):
    """Factory for one served wire endpoint, run once per shell user.

    ``endpoint(**config)`` starts the endpoint in the background and
    returns ``(db, server, host, port)``.  ``node`` is a
    :class:`DatabaseServer` over a SIAS-V accounts database; ``router``
    is a :class:`ClusterRouter` over two thread-mode shards, each holding
    an empty accounts table, with ``db`` a :class:`ShardedDatabase` over
    them.  ``config`` goes to ``ServerConfig`` or ``RouterConfig``.
    Everything started is stopped at teardown.
    """
    from repro.cluster import (ClusterRouter, RouterConfig, ShardSupervisor,
                               SupervisorConfig)
    from repro.server import DatabaseServer, ServerConfig

    running: list = []

    def start(**config):
        if request.param == "node":
            db = make_accounts_db(EngineKind.SIASV)
            server = DatabaseServer(db, ServerConfig(port=0, **config))
        else:
            shards = ShardSupervisor(SupervisorConfig(
                shards=2, idle_timeout_sec=30.0, drain_timeout_sec=2.0))
            running.append(shards)
            shards.start()
            dbs = [shards.database(i) for i in range(2)]
            for shard_db in dbs:
                create_accounts_table(shard_db)
            db = ShardedDatabase(dbs)
            server = ClusterRouter(shards.addresses,
                                   RouterConfig(port=0, **config))
        running.append(server)
        host, port = server.start_in_background()
        return db, server, host, port

    yield start
    for thing in reversed(running):
        if isinstance(thing, ShardSupervisor):
            thing.stop()
        else:
            thing.stop_in_background()
