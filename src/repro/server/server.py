"""The asyncio TCP server exposing a :class:`Database` over the wire.

One :class:`DatabaseServer` binds one database instance to a listening
socket.  The :class:`~repro.server.shell.WireServer` shell owns sessions,
framing, deadlines, drain and idle reaping (its docstring states the
lifecycle contracts); this module adds the engine-side command handlers,
admission classes (overload is shed per command with the retryable
``OVERLOADED`` status while commit/abort, clock and stats stay
admissible), replication-role write fencing and replication-slot leases.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass

from repro.common.errors import (
    ProtocolError,
    ReplicationError,
    TxnStateError,
)
from repro.db.catalog import IndexDef, IndexKind
from repro.db.database import Database
from repro.db.schema import ColType, Schema
from repro.server.dispatch import Dispatcher
from repro.server.protocol import Command
from repro.server.session import Session
from repro.server.shell import (
    WireServer,
    arity,
    as_int,
    as_predicate,
    as_ref,
    as_row,
    as_rows,
    as_str,
    begin_args,
    claim,
)
from repro.txn.commitlog import TxnState
from repro.txn.manager import Transaction, TxnPhase


@dataclass(frozen=True)
class ServerConfig:
    """Service-layer knobs (the engine's own config lives on the Database).

    ``port=0`` binds an ephemeral port; read the real one from
    :attr:`DatabaseServer.address` after start.  ``idle_timeout_sec <= 0``
    disables idle reaping.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_in_flight: int = 8
    max_queue_depth: int = 64
    #: engine worker threads; 0 means auto (``min(4, cpu_count)``)
    executor_workers: int = 0
    idle_timeout_sec: float = 60.0
    reaper_interval_sec: float = 1.0
    #: how long a writer blocks on a held item lock before aborting with
    #: ``SerializationError``; applied when more than one worker runs
    lock_wait_timeout_sec: float = 0.2
    #: run crash recovery on the attached database before serving — for
    #: databases whose device state outlived an unclean stop
    recover_on_start: bool = False
    #: how long a stopping server lets in-flight transactions finish
    #: before aborting them (0 = abort stragglers immediately)
    drain_timeout_sec: float = 5.0
    #: a :class:`repro.server.chaos.ChaosPlan` faulting *response* frames;
    #: None (the default) installs no wrapper — the fault-free fast path
    #: is the plain asyncio stream code
    chaos: object | None = None

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.executor_workers < 0:
            raise ValueError("executor_workers must be >= 0")
        if self.lock_wait_timeout_sec < 0:
            raise ValueError("lock_wait_timeout_sec must be >= 0")
        if self.drain_timeout_sec < 0:
            raise ValueError("drain_timeout_sec must be >= 0")


#: Commands that bypass admission control: finishing work (commit/abort
#: must never be shed once a txn is open), cheap control-plane traffic,
#: and observability that must answer precisely when the server is busy.
_EXEMPT = frozenset({
    Command.PING, Command.COMMIT, Command.ABORT, Command.TICK,
    Command.CLOCK_NOW, Command.CLOCK_ADVANCE, Command.CLOCK_ADVANCE_TO,
    Command.STATS, Command.TXN_STATUS, Command.SHUTDOWN,
    Command.PREPARE_TXN, Command.COMMIT_PREPARED, Command.ABORT_PREPARED,
    Command.CLOSED_TS, Command.WAL_SUBSCRIBE, Command.WAL_FETCH,
    Command.WAL_UNSUBSCRIBE, Command.BACKUP_BEGIN, Command.BACKUP_FETCH,
    Command.BACKUP_END,
})

#: Commands that mutate data or the catalog: a node whose replication
#: role is not "leader" refuses these with the FENCED status.
_WRITE_COMMANDS = frozenset({
    Command.INSERT, Command.BULK_INSERT, Command.UPDATE, Command.DELETE,
    Command.CREATE_TABLE,
})

#: Commands that run on the dispatcher's exclusive lane: they restructure
#: state (GC page reclaim, catalog growth) that lock-free read paths
#: traverse without latches, so no other command may be in flight.
_EXCLUSIVE = frozenset({Command.MAINTENANCE, Command.CREATE_TABLE})

#: Commands whose engine work runs on the event-loop thread, skipping the
#: executor handoff.  The rule: an inline command never waits on another
#: transaction, never waits on the WAL group-commit condition, and is
#: bounded — it holds the loop, so any wait would stall every session.
#: Snapshot-isolation readers take no item locks, so BEGIN and point
#: reads qualify; the rest only take short internal mutexes.  Writes
#: (INSERT, BULK_INSERT, UPDATE, DELETE) stay on the executor because
#: they may wait for an item lock whose holder's COMMIT the blocked loop
#: could then never serve; COMMIT, PREPARE_TXN and COMMIT_PREPARED may
#: force or park on the WAL; scans, RANGE_LOOKUP and AGGREGATE are
#: unbounded; TICK and MAINTENANCE do background work.  A read-only
#: COMMIT stays on the executor too, so a committing burst still holds
#: worker slots and admission control still sheds under it.
_INLINE = frozenset({
    Command.BEGIN, Command.LOOKUP, Command.READ, Command.CLOSED_TS,
    Command.TXN_STATUS, Command.CLOCK_NOW,
})


class DatabaseServer(WireServer):
    """Serves one :class:`Database` over length-prefixed TCP frames."""

    exempt_commands = _EXEMPT
    exclusive_commands = _EXCLUSIVE
    inline_commands = _INLINE

    def __init__(self, db: Database, config: ServerConfig | None = None,
                 replication: object | None = None) -> None:
        config = config or ServerConfig()
        config.validate()
        super().__init__(config,
                         Dispatcher(config.max_in_flight,
                                    config.max_queue_depth,
                                    config.executor_workers or None),
                         chaos=config.chaos)
        self.db = db
        #: a :class:`repro.replication.leader.ReplicationHub` or
        #: :class:`repro.replication.follower.WalFollower` (or None for a
        #: standalone node).  Drives role-based write fencing, replica
        #: read pinning and the WAL_SUBSCRIBE/WAL_FETCH commands.
        self.replication = replication
        # With several engine workers, writers contending for the same
        # item wait (bounded) instead of aborting on first touch — the
        # single-worker default (0.0: immediate first-updater-wins abort)
        # stays untouched so embedded/one-worker behaviour is unchanged.
        if (self.dispatch.executor_workers > 1
                and db.txn_mgr.locks.wait_timeout_sec <= 0):
            db.txn_mgr.locks.wait_timeout_sec = (
                self.config.lock_wait_timeout_sec)
        #: set when ``recover_on_start`` ran: what recovery found/redid
        self.recovery_report = None
        if self.config.recover_on_start:
            from repro.db.recovery import crash, recover
            # Re-derive every volatile structure from durable state, as a
            # restart after power loss would: drop whatever in-memory
            # state the handed-in Database object carries, then recover.
            crash(db)
            self.recovery_report = recover(db)

    # -- shell hooks ---------------------------------------------------------

    def _write_refusal(self, command: int) -> BaseException | None:
        """Role-based write fencing: a replica serves reads only; a
        fenced (deposed) leader may not ack anything that could make a
        write durable — not even a commit of older work."""
        repl = self.replication
        if repl is None or repl.role == "leader":
            return None
        if command in _WRITE_COMMANDS or (
                repl.role == "fenced"
                and command in (Command.COMMIT, Command.PREPARE_TXN,
                                Command.COMMIT_PREPARED)):
            return ReplicationError(
                f"{Command(command).name} refused: node role is "
                f"{repl.role} (epoch {repl.epoch}), not leader")
        return None

    def _session_closed(self, session: Session) -> None:
        """Release slots and backup handles owned by a dying session.

        A follower that vanishes without ``WAL_UNSUBSCRIBE`` must not
        pin WAL retention (or a materialized backup image) until process
        death — the session is the slot's lease.
        """
        if self.replication is None:
            return
        if not session.slots and not session.backups:
            return
        for backup_id in list(session.backups):
            with contextlib.suppress(Exception):
                self.replication.backup_end(backup_id)
        session.backups.clear()
        for follower_id in list(session.slots):
            with contextlib.suppress(Exception):
                self.replication.unsubscribe(follower_id)
            self.sessions.stats.slots_dropped += 1
        session.slots.clear()

    async def _abort_orphans(self, orphans: list[Transaction]) -> None:
        """Abort a closed session's in-flight transactions on the engine."""
        for txn in orphans:
            def work(txn: Transaction = txn) -> bool:
                if txn.phase is TxnPhase.ACTIVE:
                    self.db.abort(txn)
                    return True
                return False
            with contextlib.suppress(Exception):
                if await self.dispatch.run("ABORT_ORPHAN", work,
                                           exempt=True):
                    self.sessions.stats.orphans_aborted += 1

    # -- monitoring ----------------------------------------------------------

    def stats_payload(self) -> dict:
        """The ``STATS`` command's response body."""
        return {
            **super().stats_payload(),
            "queued": self.dispatch.queued,
            "max_in_flight": self.config.max_in_flight,
            "max_queue_depth": self.config.max_queue_depth,
            "executor_workers": self.dispatch.executor_workers,
            "exclusive_runs": self.dispatch.stats.exclusive_runs,
            "engine": self._engine_payload(),
            "replication": (self.replication.status()
                            if self.replication is not None else {}),
        }

    def _engine_payload(self) -> dict:
        """Engine-core counters (txn + lock table) for ``STATS``.

        Lets clients and the CI smoke assert engine invariants over the
        wire — e.g. that the lock table drained after a workload.
        """
        commits, aborts, active = self.db.txn_mgr.counters()
        locks = self.db.txn_mgr.locks
        mgr = self.db.txn_mgr
        return {
            "txns": {"commits": commits, "aborts": aborts,
                     "active": active,
                     "prepares": mgr.prepares,
                     "prepared_commits": mgr.prepared_commits,
                     "prepared_aborts": mgr.prepared_aborts,
                     "in_doubt": len(mgr.prepared),
                     "in_doubt_txns": tuple(mgr.in_doubt()),
                     "closed_ts": mgr.closed_ts(),
                     "begin_at": mgr.begin_at},
            "locks": {"held": locks.held_count(),
                      "acquired": locks.stats.acquired,
                      "conflicts": locks.stats.conflicts,
                      "waits": locks.stats.waits,
                      "wait_timeouts": locks.stats.wait_timeouts},
        }

    # -- command handlers ----------------------------------------------------

    async def _cmd_ping(self, _session: Session, args: tuple) -> str:
        arity(args, 0)
        return "pong"

    async def _cmd_begin(self, session: Session, args: tuple) -> int:
        """Start a transaction.  Wire-compatible arity growth: the
        original single-operand form ``(serializable,)`` keeps today's
        behaviour; a second operand pins the snapshot to an externally
        supplied closed read timestamp (``None`` ⇒ fresh snapshot)."""
        serializable, at_ts = begin_args(args)
        repl = self.replication
        if repl is not None and repl.role == "replica" and at_ts is None:
            if serializable:
                raise ReplicationError(
                    "replica reads are snapshot-pinned; serializable "
                    "transactions must run on the leader")
            # pin the snapshot at the replay watermark: stale-bounded,
            # never fractured (see repro.replication.follower)
            at_ts = repl.read_ts()
        txn = await self._run(
            session, Command.BEGIN,
            lambda: self.db.begin(serializable=serializable, at_ts=at_ts))
        session.register(txn)
        return txn.txid

    async def _finish_txn(self, session: Session, command: Command,
                          txn: Transaction, fn) -> None:
        """Run a transaction-ending ``fn``; a failure aborts the txn, and
        a txn no longer active leaves the session."""
        def work() -> None:
            try:
                fn()
            except BaseException:
                # an SSI commit-time abort must still release locks
                if txn.phase is TxnPhase.ACTIVE:
                    self.db.abort(txn)
                raise
        try:
            await self._run(session, command, work)
        finally:
            if txn.phase is not TxnPhase.ACTIVE:
                session.forget(txn.txid)

    async def _cmd_commit(self, session: Session, args: tuple) -> None:
        (txid,) = arity(args, 1)
        txn = claim(session, txid)
        await self._finish_txn(session, Command.COMMIT, txn,
                               lambda: self.db.commit(txn))

    async def _cmd_abort(self, session: Session, args: tuple) -> None:
        (txid,) = arity(args, 1)
        txn = claim(session, txid)
        try:
            await self._run(session, Command.ABORT, lambda: self.db.abort(txn))
        finally:
            if txn.phase is not TxnPhase.ACTIVE:
                session.forget(txn.txid)

    async def _cmd_create_table(self, session: Session,
                                args: tuple) -> None:
        name, columns, indexes = arity(args, 3)
        table = as_str(name, "table name")
        try:
            schema = Schema.of(*[(as_str(cn), ColType(ct))
                                 for cn, ct in columns])
            defs = [IndexDef(as_str(iname), tuple(cols), bool(unique),
                             IndexKind(kind))
                    for iname, cols, unique, kind in indexes]
        except (ValueError, TypeError) as exc:
            raise ProtocolError(f"bad table definition: {exc}") from None
        await self._run(
            session, Command.CREATE_TABLE,
            lambda: self.db.create_table(table, schema, indexes=defs))

    async def _cmd_insert(self, session: Session, args: tuple) -> object:
        txid, table, row = arity(args, 3)
        txn = claim(session, txid)
        return await self._run(
            session, Command.INSERT,
            lambda: self.db.insert(txn, as_str(table), as_row(row)))

    async def _cmd_bulk_insert(self, session: Session,
                               args: tuple) -> tuple:
        txid, table, rows = arity(args, 3)
        txn = claim(session, txid)
        payload = as_rows(rows)
        return tuple(await self._run(
            session, Command.BULK_INSERT,
            lambda: self.db.bulk_insert(txn, as_str(table), payload)))

    async def _cmd_read(self, session: Session, args: tuple) -> object:
        txid, table, ref = arity(args, 3)
        txn = claim(session, txid)
        return await self._run(
            session, Command.READ,
            lambda: self.db.read(txn, as_str(table), as_ref(ref)))

    async def _cmd_update(self, session: Session, args: tuple) -> object:
        txid, table, ref, row = arity(args, 4)
        txn = claim(session, txid)
        return await self._run(
            session, Command.UPDATE,
            lambda: self.db.update(txn, as_str(table), as_ref(ref),
                                   as_row(row)))

    async def _cmd_delete(self, session: Session, args: tuple) -> None:
        txid, table, ref = arity(args, 3)
        txn = claim(session, txid)
        await self._run(
            session, Command.DELETE,
            lambda: self.db.delete(txn, as_str(table), as_ref(ref)))

    async def _cmd_lookup(self, session: Session, args: tuple) -> tuple:
        txid, table, index, key = arity(args, 4)
        txn = claim(session, txid)
        return tuple(await self._run(
            session, Command.LOOKUP,
            lambda: self.db.lookup(txn, as_str(table), as_str(index),
                                   key)))

    async def _cmd_range_lookup(self, session: Session,
                                args: tuple) -> tuple:
        txid, table, index, lo, hi = arity(args, 5)
        txn = claim(session, txid)
        return tuple(await self._run(
            session, Command.RANGE_LOOKUP,
            lambda: self.db.range_lookup(txn, as_str(table),
                                         as_str(index), lo, hi)))

    async def _cmd_scan(self, session: Session, args: tuple) -> tuple:
        txid, table = arity(args, 2)
        txn = claim(session, txid)
        return tuple(await self._run(
            session, Command.SCAN,
            lambda: list(self.db.scan(txn, as_str(table)))))

    async def _cmd_scan_batch(self, session: Session, args: tuple) -> tuple:
        txid, table, columns, where, after, limit = arity(args, 6)
        txn = claim(session, txid)
        cols = (None if columns is None
                else [as_str(c, "column") for c in columns])

        def work() -> tuple:
            rows, cursor = self.db.scan_batch(
                txn, as_str(table), columns=cols,
                where=as_predicate(where),
                after=None if after is None else as_int(after, "cursor"),
                limit=as_int(limit, "limit"))
            return tuple(rows), cursor
        return await self._run(session, Command.SCAN_BATCH, work)

    async def _cmd_aggregate(self, session: Session, args: tuple) -> object:
        txid, table, op, column, where = arity(args, 5)
        txn = claim(session, txid)
        return await self._run(
            session, Command.AGGREGATE,
            lambda: self.db.aggregate(
                txn, as_str(table), as_str(op, "aggregate op"),
                column=None if column is None else as_str(column, "column"),
                where=as_predicate(where)))

    async def _cmd_scan_vid_range(self, session: Session,
                                  args: tuple) -> tuple:
        txid, table, lo, hi = arity(args, 4)
        txn = claim(session, txid)
        return tuple(await self._run(
            session, Command.SCAN_VID_RANGE,
            lambda: self.db.scan_vid_range(txn, as_str(table),
                                           as_int(lo), as_int(hi))))

    async def _cmd_tick(self, session: Session, args: tuple) -> None:
        arity(args, 0)
        await self._run(session, Command.TICK, self.db.tick)

    async def _cmd_maintenance(self, session: Session,
                               args: tuple) -> dict:
        arity(args, 0)

        def work() -> dict:
            out: dict[str, dict[str, int]] = {}
            for table, report in self.db.maintenance().items():
                summary: dict[str, int] = {}
                for attr in ("records_discarded", "pages_reclaimed"):
                    if hasattr(report, attr):
                        summary[attr] = int(getattr(report, attr))
                if hasattr(report, "killed"):
                    summary["killed"] = len(report.killed)
                out[table] = summary
            return out
        return await self._run(session, Command.MAINTENANCE, work)

    async def _cmd_snapshot(self, session: Session, args: tuple) -> dict:
        from repro.db.monitor import snapshot

        arity(args, 0)
        return await self._run(
            session, Command.SNAPSHOT,
            lambda: dataclasses.asdict(snapshot(self.db, server=self)))

    async def _cmd_stats(self, _session: Session, args: tuple) -> dict:
        arity(args, 0)
        return self.stats_payload()

    async def _cmd_clock_now(self, session: Session, args: tuple) -> int:
        arity(args, 0)
        return await self._run(session, Command.CLOCK_NOW,
                               lambda: self.db.clock.now)

    async def _cmd_clock_advance(self, session: Session,
                                 args: tuple) -> int:
        (usec,) = arity(args, 1)
        delta = as_int(usec, "microseconds")

        def work() -> int:
            self.db.clock.advance(delta)
            return self.db.clock.now
        return await self._run(session, Command.CLOCK_ADVANCE, work)

    async def _cmd_clock_advance_to(self, session: Session,
                                    args: tuple) -> int:
        (usec,) = arity(args, 1)
        target = as_int(usec, "microseconds")

        def work() -> int:
            self.db.clock.advance_to(target)
            return self.db.clock.now
        return await self._run(session, Command.CLOCK_ADVANCE_TO, work)

    async def _cmd_txn_status(self, session: Session, args: tuple) -> str:
        """The authoritative fate of a txid — how an ambiguous commit
        (acked-but-unread, see ``AmbiguousResultError``) is resolved.

        ``"committed"``/``"aborted"`` are final; ``"active"`` means the
        transaction is still open somewhere (its owning session may not
        have noticed its client died yet); ``"unknown"`` means the txid
        was never allocated.
        """
        (txid,) = arity(args, 1)
        wanted = as_int(txid, "txid")

        def work() -> str:
            try:
                state = self.db.txn_mgr.state_of(wanted)
            except TxnStateError:
                return "unknown"
            if state is TxnState.COMMITTED:
                return "committed"
            if state is TxnState.ABORTED:
                return "aborted"
            if state is TxnState.PREPARED:
                return "prepared"
            return "active"
        return await self._run(session, Command.TXN_STATUS, work)

    async def _cmd_prepare_txn(self, session: Session, args: tuple) -> None:
        """2PC phase 1: durably prepare a session-owned transaction.

        On success the session *forgets* the transaction: a prepared txn
        must survive its client's disconnect (the router may crash between
        phases) — only the coordinator's decision, delivered over any
        session via COMMIT_PREPARED/ABORT_PREPARED, settles it.  A failed
        prepare aborts, exactly like a failed COMMIT.
        """
        txid, gtxid = arity(args, 2)
        txn = claim(session, txid)
        wanted_gtxid = as_int(gtxid, "gtxid")
        await self._finish_txn(session, Command.PREPARE_TXN, txn,
                               lambda: self.db.prepare(txn, wanted_gtxid))

    async def _cmd_commit_prepared(self, session: Session,
                                   args: tuple) -> bool:
        """2PC phase 2, commit decision (idempotent, session-free)."""
        (txid,) = arity(args, 1)
        wanted = as_int(txid, "txid")
        return await self._run(session, Command.COMMIT_PREPARED,
                               lambda: self.db.commit_prepared(wanted))

    async def _cmd_abort_prepared(self, session: Session,
                                  args: tuple) -> bool:
        """2PC phase 2, abort decision (idempotent, session-free)."""
        (txid,) = arity(args, 1)
        wanted = as_int(txid, "txid")
        return await self._run(session, Command.ABORT_PREPARED,
                               lambda: self.db.abort_prepared(wanted))

    async def _cmd_closed_ts(self, session: Session, args: tuple) -> int:
        """The closed-timestamp watermark, optionally ratcheting first.

        With no operand, returns the engine's current watermark.  With a
        timestamp operand, ratchets the txid space forward to it (a no-op
        when already past — the :meth:`SimClock.advance_to` contract) and
        returns the resulting watermark.  The cluster router uses the
        ratcheting form while refreshing its cluster-wide read timestamp,
        so a quiet shard cannot drag the global minimum into the past.
        """
        repl = self.replication
        if not args:
            if repl is not None and repl.role == "replica":
                # a replica's closed timestamp is its replay watermark:
                # the highest snapshot it can serve without fracturing
                return await self._run(session, Command.CLOSED_TS,
                                       repl.read_ts)
            return await self._run(session, Command.CLOSED_TS,
                                   self.db.closed_ts)
        (raw,) = arity(args, 1)
        target = as_int(raw, "timestamp")
        return await self._run(session, Command.CLOSED_TS,
                               lambda: self.db.advance_to(target))

    async def _cmd_wal_subscribe(self, session: Session,
                                 args: tuple) -> tuple:
        """Register a follower's replication slot; returns
        ``(epoch, durable_seq)``."""
        follower_id, start_seq = arity(args, 2)
        fid = as_str(follower_id, "follower id")
        seq = as_int(start_seq, "start seq")

        def work() -> tuple:
            info = self._replication_source().subscribe(fid, seq)
            # the slot now belongs to this connection: when the session
            # dies (disconnect, idle reap) the slot dies with it instead
            # of pinning WAL retention until process death
            session.slots.add(fid)
            return info["epoch"], info["durable_seq"]
        return await self._run(session, Command.WAL_SUBSCRIBE, work)

    async def _cmd_wal_unsubscribe(self, session: Session,
                                   args: tuple) -> None:
        """Drop a follower's replication slot (releases its retention)."""
        (follower_id,) = arity(args, 1)
        fid = as_str(follower_id, "follower id")

        def work() -> None:
            self._replication_source().unsubscribe(fid)
            session.slots.discard(fid)
        return await self._run(session, Command.WAL_UNSUBSCRIBE, work)

    async def _cmd_backup_begin(self, session: Session,
                                args: tuple) -> dict:
        """Cut an online base backup; returns the backup handle."""
        (follower_id,) = arity(args, 1)
        fid = as_str(follower_id, "follower id")

        def work() -> dict:
            handle = self._replication_source().backup_begin(fid)
            session.slots.add(fid)
            session.backups.add(handle["backup_id"])
            return handle
        return await self._run(session, Command.BACKUP_BEGIN, work)

    async def _cmd_backup_fetch(self, session: Session,
                                args: tuple) -> list:
        """One backup image chunk."""
        backup_id, epoch, chunk_index = arity(args, 3)
        bid = as_str(backup_id, "backup id")
        ep = as_int(epoch, "epoch")
        index = as_int(chunk_index, "chunk index")
        return await self._run(
            session, Command.BACKUP_FETCH,
            lambda: self._replication_source().backup_fetch(bid, ep, index))

    async def _cmd_backup_end(self, session: Session, args: tuple) -> None:
        """Release a backup handle."""
        (backup_id,) = arity(args, 1)
        bid = as_str(backup_id, "backup id")

        def work() -> None:
            self._replication_source().backup_end(bid)
            session.backups.discard(bid)
        return await self._run(session, Command.BACKUP_END, work)

    async def _cmd_wal_fetch(self, session: Session, args: tuple) -> tuple:
        """One shipped WAL frame:
        ``(epoch, since_seq, blob, durable_seq, closed_ts)``."""
        follower_id, epoch, since_seq, acked_seq, limit = arity(args, 5)
        fid = as_str(follower_id, "follower id")
        ep = as_int(epoch, "epoch")
        since = as_int(since_seq, "since seq")
        acked = as_int(acked_seq, "acked seq")
        lim = as_int(limit, "limit")
        return await self._run(
            session, Command.WAL_FETCH,
            lambda: self._replication_source().fetch(fid, ep, since,
                                                     acked, lim))

    def _replication_source(self):
        if self.replication is None:
            raise ReplicationError(
                "this node has no replication hub attached")
        return self.replication
