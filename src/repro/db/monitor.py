"""System monitoring: one consolidated snapshot of a running database.

Collects, in a single call, everything the experiments and examples keep
reaching into subsystems for: device I/O counters (and FTL internals where
present), buffer effectiveness, WAL volume, transaction outcomes, per-table
engine statistics and space. ``render()`` pretty-prints the snapshot; the
raw dataclass is stable API for dashboards and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.baseline.engine import SiEngine
from repro.common import units
from repro.core.engine import SiasVEngine
from repro.db.database import Database
from repro.experiments.render import format_table
from repro.storage.flash import FlashDevice
from repro.storage.noftl import NoFtlFlashDevice

if TYPE_CHECKING:
    from repro.server.shell import WireServer


@dataclass(frozen=True)
class TableSnapshot:
    """Per-relation engine statistics."""

    name: str
    engine: str
    data_pages: int
    extra: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CommandStat:
    """One served command's latency/throughput counters.

    Populated when a snapshot is taken through the service layer
    (``snapshot(db, server=...)`` or the wire ``SNAPSHOT`` command);
    empty for purely in-process databases.
    """

    command: str
    calls: int
    ok: int
    errors: int
    shed: int
    mean_wall_usec: float
    max_wall_usec: float


@dataclass(frozen=True)
class SystemSnapshot:
    """One consistent reading of every subsystem's counters."""

    sim_time_sec: float
    device_reads: int
    device_writes: int
    device_read_mib: float
    device_write_mib: float
    device_erases: int
    write_amplification: float
    buffer_hit_ratio: float
    buffer_evictions: int
    buffer_writebacks: int
    wal_records: int
    wal_mib: float
    wal_forces: int
    txn_commits: int
    txn_aborts: int
    txn_active: int
    lock_conflicts: int
    tables: tuple[TableSnapshot, ...]
    commands: tuple[CommandStat, ...] = ()
    lock_waits: int = 0
    lock_wait_timeouts: int = 0
    #: service-layer resilience counters (zero for in-process databases):
    #: deadline sheds, drain casualties, and — when a client is passed to
    #: :func:`snapshot` — its breaker state and uncertain commits
    deadline_rejections: int = 0
    deadline_shed: int = 0
    drain_aborts: int = 0
    drain_refused: int = 0
    breaker_state: str = ""
    uncertain_commits: int = 0
    #: populated when the snapshot comes from a cluster router: per-shard
    #: transaction counters, 2PC outcome counters, in-doubt count and the
    #: router's fan-out latency counters (see ``docs/CLUSTER.md``)
    cluster: dict = field(default_factory=dict)
    #: populated when the node participates in WAL-shipping replication:
    #: role, epoch, durable/applied sequences, replica lag and watermark
    #: (see ``docs/REPLICATION.md``)
    replication: dict = field(default_factory=dict)

    def render(self) -> str:
        """Pretty-print the snapshot."""
        head = format_table(
            f"system snapshot @ {self.sim_time_sec:.2f} sim-s",
            ["metric", "value"],
            [
                ["device reads / writes",
                 f"{self.device_reads} / {self.device_writes}"],
                ["device read / write MiB",
                 f"{self.device_read_mib:.1f} / {self.device_write_mib:.1f}"],
                ["device erases", self.device_erases],
                ["write amplification", round(self.write_amplification, 3)],
                ["buffer hit ratio", round(self.buffer_hit_ratio, 4)],
                ["buffer evictions / writebacks",
                 f"{self.buffer_evictions} / {self.buffer_writebacks}"],
                ["WAL records / MiB / forces",
                 f"{self.wal_records} / {self.wal_mib:.1f} / "
                 f"{self.wal_forces}"],
                ["txn commits / aborts / active",
                 f"{self.txn_commits} / {self.txn_aborts} / "
                 f"{self.txn_active}"],
                ["lock conflicts / waits / wait timeouts",
                 f"{self.lock_conflicts} / {self.lock_waits} / "
                 f"{self.lock_wait_timeouts}"],
                ["deadline rejected / shed (service)",
                 f"{self.deadline_rejections} / {self.deadline_shed}"],
                ["drain aborts / refused (service)",
                 f"{self.drain_aborts} / {self.drain_refused}"],
                ["client breaker / uncertain commits",
                 f"{self.breaker_state or 'n/a'} / "
                 f"{self.uncertain_commits}"],
            ])
        rows = []
        for table in self.tables:
            extras = ", ".join(f"{k}={v:g}" for k, v in table.extra.items())
            rows.append([table.name, table.engine, table.data_pages,
                         extras])
        out = head + format_table(
            "per-table", ["table", "engine", "pages", "stats"], rows)
        if self.commands:
            out += format_table(
                "per-command (service layer)",
                ["command", "calls", "ok", "errors", "shed",
                 "mean us", "max us"],
                [[c.command, c.calls, c.ok, c.errors, c.shed,
                  c.mean_wall_usec, c.max_wall_usec]
                 for c in self.commands])
        if self.cluster:
            shard_rows = []
            for shard in self.cluster.get("shards", ()):
                txns = shard.get("txns", {})
                lag = shard.get("snapshot_lag")
                shard_rows.append([
                    shard.get("shard", "?"),
                    f"{shard.get('host', '?')}:{shard.get('port', '?')}",
                    "up" if shard.get("alive") else "DOWN",
                    f"{txns.get('commits', 0)} / {txns.get('aborts', 0)}",
                    f"{txns.get('prepares', 0)} / "
                    f"{txns.get('prepared_commits', 0)} / "
                    f"{txns.get('prepared_aborts', 0)}",
                    txns.get("in_doubt", 0),
                    shard.get("closed_ts", "-") if shard.get("alive")
                    else "-",
                    txns.get("begin_at", "-") if shard.get("alive")
                    else "-",
                    "-" if lag is None else f"+{lag}",
                ])
            out += format_table(
                "cluster shards",
                ["shard", "address", "state", "commits/aborts",
                 "prep/p-commit/p-abort", "in-doubt",
                 "closed-ts", "begin@ts", "snap-lag"],
                shard_rows)
            snapshot_rows = [
                [key, self.cluster.get(key)]
                for key in ("snapshot_ts", "commit_floor",
                            "straddle_windows", "in_doubt_1pc",
                            "pending_decisions", "per_shard_snapshots")
                if key in self.cluster]
            if snapshot_rows:
                out += format_table(
                    "cluster-wide snapshot",
                    ["metric", "value"],
                    snapshot_rows)
            router = self.cluster.get("router", {})
            if router:
                out += format_table(
                    "cluster router (2PC)",
                    ["metric", "value"],
                    [[k, v] for k, v in sorted(router.items())
                     if not isinstance(v, dict)])
        if self.replication:
            out += format_table(
                "replication",
                ["metric", "value"],
                [[key, value] for key, value
                 in sorted(self.replication.items())
                 if not isinstance(value, dict)]
                + [[f"slot[{fid}]", seq] for fid, seq
                   in sorted(self.replication.get("slots", {}).items())])
        return out


def snapshot(db: Database, server: WireServer | None = None,
             client: object | None = None) -> SystemSnapshot:
    """Collect a :class:`SystemSnapshot` from a live database.

    ``server`` (a wire endpoint, e.g. :class:`repro.server.DatabaseServer`)
    adds the service layer's per-command counters and resilience counters
    to the snapshot.  ``client`` (anything with a ``pool`` carrying a
    ``breaker`` and ``stats``, e.g. :class:`repro.client.RemoteDatabase`)
    adds the client-side view: circuit-breaker state and commits whose
    acknowledgement was lost.
    """
    device = db.data_device
    erases = 0
    amp = 1.0
    if isinstance(device, FlashDevice):
        erases = device.ftl.stats.erases
        amp = device.ftl.stats.write_amplification
    elif isinstance(device, NoFtlFlashDevice):
        erases = device.erases
        amp = device.write_amplification
    tables = []
    for name, relation in db.tables.items():
        engine = relation.engine
        if isinstance(engine, SiasVEngine):
            tables.append(TableSnapshot(
                name=name, engine="sias-v",
                data_pages=engine.store.device_pages(),
                extra={
                    "appended": engine.store.stats.appended_records,
                    "sealed": engine.store.stats.sealed_pages,
                    "reclaimed": engine.store.stats.reclaimed_pages,
                    "avg_fill": round(engine.store.stats.avg_fill_degree,
                                      3),
                    "chain_hops": engine.stats.chain_hops,
                    "vidmap_items": engine.vidmap.item_count(),
                }))
        elif isinstance(engine, SiEngine):
            tables.append(TableSnapshot(
                name=name, engine="si",
                data_pages=engine.heap.page_count,
                extra={
                    "inserts": engine.heap.stats.tuple_inserts,
                    "xmax_stamps":
                        engine.heap.stats.in_place_invalidations,
                    "killed": engine.heap.stats.killed_tuples,
                }))
    # one reading under the txn mutex: commits + aborts + active always
    # add up even while worker threads finish transactions mid-snapshot
    commits, aborts, active = db.txn_mgr.counters()
    return SystemSnapshot(
        sim_time_sec=db.clock.now_sec,
        device_reads=device.stats.reads,
        device_writes=device.stats.writes,
        device_read_mib=units.mib(device.stats.read_bytes),
        device_write_mib=units.mib(device.stats.write_bytes),
        device_erases=erases,
        write_amplification=amp,
        buffer_hit_ratio=db.buffer.stats.hit_ratio,
        buffer_evictions=db.buffer.stats.evictions,
        buffer_writebacks=db.buffer.stats.writebacks,
        wal_records=db.wal.records_written,
        wal_mib=units.mib(db.wal.bytes_written),
        wal_forces=db.wal.forces,
        txn_commits=commits,
        txn_aborts=aborts,
        txn_active=active,
        lock_conflicts=db.txn_mgr.locks.stats.conflicts,
        lock_waits=db.txn_mgr.locks.stats.waits,
        lock_wait_timeouts=db.txn_mgr.locks.stats.wait_timeouts,
        tables=tuple(tables),
        commands=server.command_stats() if server is not None else (),
        deadline_rejections=(server.dispatch.stats.deadline_rejected
                             if server is not None else 0),
        deadline_shed=(server.dispatch.stats.deadline_shed
                       if server is not None else 0),
        drain_aborts=(server.sessions.stats.drain_aborts
                      if server is not None else 0),
        drain_refused=(server.sessions.stats.drain_refused
                       if server is not None else 0),
        breaker_state=(
            client.pool.breaker.state.value  # type: ignore[attr-defined]
            if client is not None else ""),
        uncertain_commits=(
            client.pool.stats.uncertain_commits  # type: ignore[attr-defined]
            if client is not None else 0),
        replication=(
            server.replication.status()  # type: ignore[attr-defined]
            if getattr(server, "replication", None) is not None else {}),
    )
