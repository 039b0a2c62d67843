"""The cluster router: one wire endpoint fronting N engine shards.

The router speaks the *unmodified* wire protocol of
:mod:`repro.server.protocol`, so every existing client —
:class:`~repro.client.remote.RemoteDatabase`, the connection pool, the
TPC-C driver — works against a sharded cluster with zero changes.  Each
client transaction becomes a **global transaction**: the router allocates
a global txid, lazily begins a local transaction on every shard the
client's commands touch (pinned to one pooled connection per shard, so
shard-side session semantics are preserved), and translates item handles
between the global VID space and each shard's local one with the pure
arithmetic of :class:`~repro.cluster.shardmap.ShardMap`.

Commit is the interesting part:

* **read-only everywhere** — plain COMMIT on each shard; no coordination.
* **one writer** — plain COMMIT on that shard (1PC fast path): a single
  participant's atomicity is its own WAL's problem.
* **several writers** — full two-phase commit with **presumed abort**:
  PREPARE_TXN on every writer (each shard forces a PREPARE record through
  its WAL — that *is* the vote), then the commit decision is forced to the
  router's :class:`~repro.cluster.coordinator.CoordinatorLog`, then
  COMMIT_PREPARED is pushed to every participant.  A crash before the
  decision record leaves prepared shards in doubt; recovery resolves them
  by *presumption*: a logged decision is re-pushed, no decision means
  abort (:meth:`ClusterRouter.resolve_in_doubt`).

Fan-out reads (LOOKUP, SCAN, AGGREGATE, SCAN_VID_RANGE) hit every shard
and merge; SCAN_BATCH keeps the wire contract of an *opaque* cursor by
nesting the shard's own cursor inside a ``(shard, local_cursor)`` pair —
shards are streamed one after another, and within a shard local VID order
is global VID order (see the ShardMap monotonicity note).

Reads get one **cluster-wide snapshot**: the router picks a global read
timestamp — the minimum over every shard's *closed-timestamp* watermark
(``CLOSED_TS``), ratcheting quiet shards forward so the minimum tracks
the busiest shard — and lazily begins every per-shard local transaction
pinned to it (``BEGIN`` with the optional ``at_ts`` operand).  A
timestamp at or below a shard's watermark is provably stable (nothing
in flight can still commit under it; 2PC PREPARE holds the watermark
down until the decision lands), so fan-out ``LOOKUP/SCAN/AGGREGATE/
SCAN_VID_RANGE`` merges observe one atomic snapshot instead of one
snapshot per shard.  The timestamp is cached and refreshed after a
short interval or any global commit, so reads through one router also
see that router's own acknowledged writes.  The pre-PR-8 behaviour —
each shard snapshotting independently at first touch, which admits
*fractured reads* across a concurrent global commit — is kept behind
``RouterConfig.per_shard_snapshots`` for the anomaly reproducer; the
black-box SI checker (``experiments/si_check.py``) flags it there and
passes the default mode.  ``docs/CLUSTER.md`` ("Cluster-wide
snapshots") has the full timestamp flow.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from dataclasses import dataclass, field

from repro.common.errors import (
    AmbiguousResultError,
    ProtocolError,
    RemoteError,
    TxnStateError,
)
from repro.client.pool import ConnectionPool, RetryPolicy
from repro.cluster.coordinator import CoordinatorLog
from repro.cluster.shardmap import DEFAULT_RANGE_SIZE, ShardMap
from repro.server.dispatch import CommandCounter, Dispatcher
from repro.server.protocol import Command
from repro.server.session import Session
from repro.server.shell import (
    WireServer,
    arity,
    as_int,
    as_predicate,
    as_row,
    as_rows,
    as_str,
    begin_args,
    claim,
)


@dataclass(frozen=True)
class RouterConfig:
    """Router service knobs (shard addresses are passed separately)."""

    host: str = "127.0.0.1"
    port: int = 0
    range_size: int = DEFAULT_RANGE_SIZE
    idle_timeout_sec: float = 60.0
    reaper_interval_sec: float = 1.0
    drain_timeout_sec: float = 5.0
    #: worker threads running blocking shard RPCs; each in-flight client
    #: command occupies one for its whole fan-out
    executor_workers: int = 8
    pool_size: int = 4
    connect_timeout_sec: float = 5.0
    request_timeout_sec: float = 30.0
    #: retry schedule toward the shards (None: pool default)
    retry: RetryPolicy | None = None
    #: bounded retries when pushing a logged 2PC decision to a shard;
    #: exhausting them leaves the decision pending for resolve_in_doubt
    decision_retry_attempts: int = 50
    decision_retry_delay_sec: float = 0.02
    #: how long an ambiguous COMMIT/PREPARE polls the shard's TXN_STATUS
    resolve_timeout_sec: float = 5.0
    #: re-push pending decisions / presume-abort orphans during start()
    resolve_on_start: bool = True
    #: client-side chaos toward the shards: a single plan for all, or a
    #: ``{shard_index: plan}`` dict (the shard-fault sweep's link faults)
    chaos: object | None = None
    #: durable coordinator log path (None: in-memory; tests hand the same
    #: CoordinatorLog instance to a successor router instead)
    coordinator_log_path: str | None = None
    #: how long the cached global read timestamp stays fresh; a global
    #: commit through this router invalidates it immediately, so the
    #: interval only bounds staleness against *other* writers
    snapshot_refresh_sec: float = 0.05
    #: legacy pre-PR-8 behaviour: every shard snapshots independently at
    #: first touch.  Admits fractured reads across a concurrent global
    #: commit — kept only so the anomaly stays reproducible (the SI
    #: checker must flag it; see docs/CLUSTER.md "Cluster-wide snapshots")
    per_shard_snapshots: bool = False

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        if self.executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")
        if self.decision_retry_attempts < 1:
            raise ValueError("decision_retry_attempts must be >= 1")
        if self.drain_timeout_sec < 0:
            raise ValueError("drain_timeout_sec must be >= 0")
        if self.snapshot_refresh_sec < 0:
            raise ValueError("snapshot_refresh_sec must be >= 0")


class ShardTxn:
    """One global transaction's state on one shard."""

    __slots__ = ("conn", "ltxid", "writes")

    def __init__(self, conn, ltxid: int) -> None:
        self.conn = conn
        self.ltxid = ltxid
        self.writes = 0


class GlobalTxn:
    """Router-side handle of one client transaction.

    Duck-types the :class:`~repro.txn.manager.Transaction` surface the
    session layer touches (``txid``), so :class:`SessionManager` is
    reused unchanged.  ``phase`` is a plain string — the router has no
    engine phases, only fates.
    """

    __slots__ = ("txid", "serializable", "phase", "shards", "read_ts")

    def __init__(self, gtxid: int, serializable: bool,
                 read_ts: int | None = None) -> None:
        self.txid = gtxid
        self.serializable = serializable
        self.phase = "active"
        self.shards: dict[int, ShardTxn] = {}
        #: the cluster-wide read timestamp every lazy per-shard BEGIN is
        #: pinned to; None in legacy per-shard-snapshot mode
        self.read_ts = read_ts


@dataclass
class RouterStats:
    """2PC and routing counters the STATS command reports."""

    gtxns_begun: int = 0
    commits_readonly: int = 0
    commits_1pc: int = 0
    commits_2pc: int = 0
    aborts: int = 0
    prepares_sent: int = 0
    prepare_failures: int = 0
    #: ambiguous PREPARE/COMMIT outcomes settled by polling TXN_STATUS
    fates_resolved: int = 0
    decision_pushes: int = 0
    decision_push_failures: int = 0
    #: prepared shard txns aborted by presumption (no logged decision)
    presumed_aborts: int = 0
    in_doubt_resolved: int = 0
    #: global-read-timestamp cache refreshes (CLOSED_TS fan-outs)
    snapshot_refreshes: int = 0
    #: lagging shards ratcheted forward during a refresh
    snapshot_ratchets: int = 0
    #: global transactions begun pinned to a cluster-wide timestamp
    begins_at_ts: int = 0
    #: fan-out commands (those contacting more than one shard)
    fanouts: int = 0
    fanout: dict[str, CommandCounter] = field(default_factory=dict)

    def note_fanout(self, name: str, wall_sec: float) -> None:
        self.fanouts += 1
        self.fanout.setdefault(name, CommandCounter()).observe(wall_sec)

    def as_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "fanout"}
        out["fanout"] = {
            name: {"calls": c.calls,
                   "mean_usec": round(c.mean_wall_sec * 1e6, 1),
                   "max_usec": round(c.max_wall_sec * 1e6, 1)}
            for name, c in sorted(self.fanout.items())}
        return out


class ClusterRouter(WireServer):
    """One listening socket, N shards, unmodified wire protocol."""

    role = "router"
    #: the router never sheds: every job is exempt from admission and
    #: bounded only by the dispatcher's ``executor_workers`` slots
    exempt_commands = frozenset(Command)
    #: nothing runs inline: every router job is blocking shard socket I/O
    inline_commands = frozenset()

    def __init__(self, shards: list[tuple[str, int]],
                 config: RouterConfig | None = None,
                 coordinator_log: CoordinatorLog | None = None) -> None:
        if not shards:
            raise ValueError("at least one shard address required")
        config = config or RouterConfig()
        config.validate()
        # RouterConfig.chaos faults the router→shard links (the pool
        # below), not inbound client frames
        super().__init__(config, Dispatcher(
            max_in_flight=config.executor_workers, max_queue_depth=0,
            executor_workers=config.executor_workers))
        self.shard_addrs = [(h, p) for h, p in shards]
        self.shard_map = ShardMap(len(shards),
                                  range_size=self.config.range_size)
        self.coordinator_log = coordinator_log or CoordinatorLog(
            self.config.coordinator_log_path)
        self.pool = ConnectionPool(
            endpoints=self.shard_addrs, size=self.config.pool_size,
            retry=self.config.retry,
            connect_timeout_sec=self.config.connect_timeout_sec,
            request_timeout_sec=self.config.request_timeout_sec,
            chaos=self.config.chaos)
        self.stats = RouterStats()
        self._gtxid_mu = threading.Lock()
        # gtxids restart strictly above every durably known one so a fate
        # query for an old gtxid can never alias a new transaction
        self._next_gtxid = max(1, self.coordinator_log.max_gtxid() + 1)
        #: settled fates kept in memory: {gtxid: "committed"/"aborted"}
        self._fates: dict[int, str] = {}
        #: gtxids currently open (guards resolve_in_doubt against
        #: presuming-abort a transaction this router is mid-2PC on)
        self._open: dict[int, GlobalTxn] = {}
        # cluster-wide read-timestamp cache: min over shard watermarks,
        # monotone, invalidated by this router's own global commits
        self._snap_mu = threading.Lock()
        self._snapshot_ts: int | None = None
        self._snapshot_taken = 0.0
        self._snapshot_dirty = True
        #: straddle guard: every multi-shard commit carries *different*
        #: local txids on its participants (each shard's allocator runs
        #: its own course), so a global read timestamp landing inside
        #: ``[min ltxid, max ltxid)`` would see the transaction on one
        #: shard and miss it on another — a fractured read, and not just
        #: while the decision is being pushed: the window stays toxic
        #: forever.  Map of {gtxid: (min ltxid, max ltxid)}; refreshes
        #: step the candidate timestamp below any window it lands in, and
        #: windows are pruned once the monotone cache passes their top.
        #: Re-seeded across a router restart from the coordinator log's
        #: pending decisions (fully-pushed windows below the watermark
        #: need no guard by then; see _refresh_snapshot_ts).
        self._straddles: dict[int, tuple[int, int]] = {
            gtxid: (min(lt for _s, lt in parts), max(lt for _s, lt in parts))
            for gtxid, parts
            in self.coordinator_log.pending_decisions().items()
            if parts}
        #: 1PC commits whose fate could not be resolved before the retry
        #: budget ran out: ``{gtxid: (shard, local txid)}``.  TXN_STATUS
        #: re-asks the shard on demand; resolve_in_doubt sweeps the rest.
        self._in_doubt_1pc: dict[int, tuple[int, int]] = {}
        #: read-your-writes floor: the highest local txid of any commit
        #: this router acknowledged.  A refresh can legitimately compute a
        #: timestamp below it (a concurrent reader pins some shard's
        #: watermark under the commit), and that snapshot is *consistent*
        #: — but it must not be cached as fresh, or a begin right after
        #: the pinning reader finished would still be served a snapshot
        #: missing acked writes.
        self._commit_floor = 0

    # -- gtxid allocation ----------------------------------------------------

    def _allocate_gtxid(self) -> int:
        with self._gtxid_mu:
            gtxid = self._next_gtxid
            self._next_gtxid += 1
            return gtxid

    def _bump_watermark(self, gtxid: int) -> None:
        with self._gtxid_mu:
            if gtxid >= self._next_gtxid:
                self._next_gtxid = gtxid + 1

    # -- shell hooks ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Settle any in-doubt 2PC state, then bind the socket."""
        if self.config.resolve_on_start:
            await self.dispatch.run("RESOLVE_IN_DOUBT", self.resolve_in_doubt,
                                    exempt=True)
        return await super().start()

    async def stop(self) -> None:
        """Drain in-flight global transactions, then close everything."""
        if self._server is None:
            return
        await super().stop()
        self.pool.close()

    def _banner(self) -> str:
        host, port = self.address  # type: ignore[misc]
        return (f"repro cluster router listening on {host}:{port} "
                f"({len(self.shard_addrs)} shards)")

    async def _abort_orphans(self, orphans: list) -> None:
        for gtxn in orphans:
            if gtxn.phase != "active":
                continue
            with contextlib.suppress(Exception):
                await self.dispatch.run(
                    "ABORT_ORPHAN", lambda g=gtxn: self._abort_job(g),
                    exempt=True)
                self.sessions.stats.orphans_aborted += 1

    # -- cluster-wide read timestamp -----------------------------------------

    def _cached_snapshot_ts(self) -> int | None:
        """The cached global read timestamp, or None when stale.

        Stale means: never taken, older than ``snapshot_refresh_sec``, or
        invalidated by a global commit through this router (so a client
        that got a commit ack always finds it in its next snapshot —
        read-your-writes per router, and the chaos sweep's
        acked-commits-visible oracle holds without waiting out the TTL).
        """
        with self._snap_mu:
            if (self._snapshot_ts is None or self._snapshot_dirty
                    or (time.monotonic() - self._snapshot_taken
                        > self.config.snapshot_refresh_sec)):
                return None
            return self._snapshot_ts

    def _refresh_snapshot_ts(self) -> int:
        """Recompute the global read timestamp (runs on the executor).

        Two rounds: read every shard's closed-timestamp watermark, then
        ratchet laggards forward to the leader's
        (:meth:`repro.txn.manager.TransactionManager.advance_to`) so an
        idle shard cannot drag the cluster-wide minimum arbitrarily far
        into the past.  A shard with in-flight transactions below the
        leader keeps its lower watermark, and the minimum correctly
        reflects it.  The result is monotone: per-shard watermarks only
        grow, and the cache never regresses.

        A shard that is unreachable mid-refresh (crash sweep, link fault)
        falls back to the cached value when one exists — older but still
        a valid stable snapshot; with no cache at all the error
        propagates and the client's retry policy applies.
        """
        try:
            marks = [self.pool.call(Command.CLOSED_TS, endpoint=shard)
                     for shard in range(len(self.shard_addrs))]
            top = max(marks)
            for shard, mark in enumerate(marks):
                if mark < top:
                    marks[shard] = self.pool.call(Command.CLOSED_TS, top,
                                                  endpoint=shard)
                    self.stats.snapshot_ratchets += 1
        except Exception:
            with self._snap_mu:
                # a TTL-expired cache is still a valid stable snapshot —
                # but a *dirty* one is not good enough: a commit was acked
                # since it was taken, and serving it would hide that
                # commit from the very client that acked it.  Better to
                # fail the BEGIN (client retry policy applies) than to
                # break read-your-writes.
                if self._snapshot_ts is not None and not self._snapshot_dirty:
                    return self._snapshot_ts
            raise
        ts = min(marks)
        with self._snap_mu:
            # step below any straddle window the candidate lands in: a
            # timestamp inside [lo, hi) would split that transaction
            # across shards.  Lowering can drop into another window, so
            # iterate to a fixpoint (strictly decreasing, hence finite).
            # The cache may keep an older value — every guarded window
            # was created by a transaction that began at-or-above the
            # then-cached timestamp, so the cache never straddles.
            stepped = True
            while stepped:
                stepped = False
                for lo, hi in self._straddles.values():
                    if lo <= ts < hi:
                        ts = lo - 1
                        stepped = True
            self.stats.snapshot_refreshes += 1
            if self._snapshot_ts is None or ts > self._snapshot_ts:
                self._snapshot_ts = ts
            # windows wholly below the monotone cache can never be
            # straddled again — the served timestamp only grows
            self._straddles = {g: w for g, w in self._straddles.items()
                               if w[1] > self._snapshot_ts}
            # below the read-your-writes floor the snapshot is consistent
            # but misses a commit this router already acked (a concurrent
            # reader pins some shard's watermark under it) — serve it, but
            # keep the cache dirty so the next BEGIN refreshes instead of
            # being handed the same stale view after the pin lifts
            if self._snapshot_ts >= self._commit_floor:
                self._snapshot_dirty = False
                self._snapshot_taken = time.monotonic()
            return self._snapshot_ts

    def _invalidate_snapshot_ts(self) -> None:
        with self._snap_mu:
            self._snapshot_dirty = True

    def _note_commit_floor(self, ltxid: int) -> None:
        """Raise the read-your-writes floor to an acked commit's txid."""
        with self._snap_mu:
            if ltxid > self._commit_floor:
                self._commit_floor = ltxid

    # -- shard plumbing (all run on the executor) ----------------------------

    def _shard_txn(self, gtxn: GlobalTxn, shard: int) -> ShardTxn:
        """The global txn's local transaction on ``shard`` (lazy BEGIN).

        The connection is pinned for the transaction's lifetime, exactly
        as :class:`RemoteDatabase` pins — shard-side transaction state is
        per-session, and the pin preserves the disconnect-aborts-orphans
        contract shard-side.
        """
        st = gtxn.shards.get(shard)
        if st is None:
            conn = self.pool.acquire(endpoint=shard)
            try:
                if gtxn.read_ts is None:
                    ltxid = self.pool.request(conn, Command.BEGIN,
                                              gtxn.serializable)
                else:
                    # pin the local snapshot to the global read timestamp:
                    # every shard this transaction touches sees the same
                    # cluster-wide state, however late it is first touched
                    ltxid = self.pool.request(conn, Command.BEGIN,
                                              gtxn.serializable,
                                              gtxn.read_ts)
            except BaseException:
                self.pool.release(conn)
                raise
            st = ShardTxn(conn, ltxid)
            gtxn.shards[shard] = st
        return st

    def _release_conns(self, gtxn: GlobalTxn) -> None:
        for st in gtxn.shards.values():
            conn, st.conn = st.conn, None
            if conn is not None:
                self.pool.release(conn)

    def _settle(self, gtxn: GlobalTxn, fate: str) -> None:
        gtxn.phase = fate
        self._fates[gtxn.txid] = fate
        self._open.pop(gtxn.txid, None)
        self._release_conns(gtxn)

    @staticmethod
    def _as_gvid(ref: object) -> int:
        if isinstance(ref, bool) or not isinstance(ref, int):
            raise ProtocolError(
                f"cluster routing needs integer VID handles (sias-v), "
                f"got {ref!r}")
        return ref

    def _translate_pairs(self, shard: int, pairs) -> list[tuple]:
        to_global = self.shard_map.to_global
        return [(to_global(shard, ref), row) for ref, row in pairs]

    # -- commit / abort ------------------------------------------------------

    def _resolve_shard_fate(self, shard: int, ltxid: int) -> str:
        """Poll one shard for a local txn's fate after an ambiguous RPC.

        ``"active"`` is transient (the shard aborts the orphan when it
        notices the dead pinned connection), so poll until the fate is
        final — ``"prepared"`` counts as final: the vote was durably
        cast.  Returns ``"unknown"`` on timeout.
        """
        deadline = time.monotonic() + self.config.resolve_timeout_sec
        status = "unknown"
        while time.monotonic() < deadline:
            try:
                status = self.pool.call(Command.TXN_STATUS, ltxid,
                                        endpoint=shard)
            except Exception:
                # unreachable, draining or mid-restart: all transient
                # from the fate's point of view — keep polling
                time.sleep(0.05)
                continue
            if status in ("committed", "aborted", "prepared"):
                self.stats.fates_resolved += 1
                return status
            time.sleep(0.02)
        return status if status in ("committed", "aborted",
                                    "prepared") else "unknown"

    def _late_resolve_1pc(self, gtxid: int) -> str:
        """One fate-probe for a parked in-doubt 1PC commit.

        A single non-blocking attempt (callers poll): once the shard is
        reachable again its answer is final — txids are never reused, and
        recovery settles every non-durable transaction as aborted.
        """
        pending = self._in_doubt_1pc.get(gtxid)
        if pending is None:
            return self._fates.get(gtxid, "unknown")
        shard, ltxid = pending
        try:
            status = self.pool.call(Command.TXN_STATUS, ltxid,
                                    endpoint=shard)
        except Exception:
            return "unknown"  # still unreachable; the fate stays parked
        if status not in ("committed", "aborted"):
            return "unknown"
        self._in_doubt_1pc.pop(gtxid, None)
        self._fates[gtxid] = status
        self.stats.fates_resolved += 1
        if status == "committed":
            self._note_commit_floor(ltxid)
            self._invalidate_snapshot_ts()
            self.stats.commits_1pc += 1
        else:
            self.stats.aborts += 1
        return status

    def _push_decision(self, shard: int, ltxid: int,
                       command: Command) -> bool:
        """Deliver a phase-2 decision to one participant, bounded retry.

        COMMIT_PREPARED / ABORT_PREPARED are idempotent on the shard, so
        ambiguous outcomes are simply retried.  Returns False when the
        retry budget is exhausted — the decision stays logged and
        :meth:`resolve_in_doubt` finishes the push later.
        """
        self.stats.decision_pushes += 1
        for _attempt in range(self.config.decision_retry_attempts):
            try:
                self.pool.call(command, ltxid, endpoint=shard)
                return True
            except TxnStateError:
                # not prepared (any more): for COMMIT_PREPARED this means
                # the decision already landed via another path; for
                # ABORT_PREPARED, that the orphan was already settled
                return True
            except Exception:
                # connection death, open breaker, a draining or
                # restarting shard — whatever the shape, the decision did
                # not provably land.  Never let it propagate: past the
                # logged decision the global fate is sealed, and a raised
                # push would surface a bogus error for a committed txn.
                time.sleep(self.config.decision_retry_delay_sec)
        self.stats.decision_push_failures += 1
        return False

    def _abort_job(self, gtxn: GlobalTxn) -> None:
        if self.coordinator_log.decided_commit(gtxn.txid):
            # the commit decision is already durable: this abort lost the
            # race (e.g. the client gave up while decision pushes were
            # retrying against a restarting shard).  The fate is
            # committed; resolve_in_doubt finishes any outstanding push.
            self._settle(gtxn, "committed")
            raise TxnStateError(
                f"gtxn {gtxn.txid} already committed (decision logged)")
        for shard, st in gtxn.shards.items():
            if st.conn is not None and st.conn.connected:
                with contextlib.suppress(Exception):
                    self.pool.request(st.conn, Command.ABORT, st.ltxid)
            # a dead pinned connection aborts the shard-side orphan
        self._settle(gtxn, "aborted")
        self.stats.aborts += 1

    def _commit_job(self, gtxn: GlobalTxn) -> None:
        """The whole commit protocol, one executor job, shards in turn.

        Sequential on purpose: nesting per-shard futures inside an
        executor job can starve the pool under load, and with a handful
        of shards the latency win would be marginal.
        """
        writers = [(s, st) for s, st in sorted(gtxn.shards.items())
                   if st.writes > 0]
        readers = [(s, st) for s, st in sorted(gtxn.shards.items())
                   if st.writes == 0]
        # read-only participants just close their snapshots; any failure
        # is irrelevant to the global fate (disconnect aborts the orphan)
        for shard, st in readers:
            with contextlib.suppress(Exception):
                self.pool.request(st.conn, Command.COMMIT, st.ltxid)
        if not writers:
            self._settle(gtxn, "committed")
            self.stats.commits_readonly += 1
            return
        if len(writers) == 1:
            self._commit_one_phase(gtxn, *writers[0])
            return
        self._commit_two_phase(gtxn, writers)

    def _commit_one_phase(self, gtxn: GlobalTxn, shard: int,
                          st: ShardTxn) -> None:
        """Single-writer fast path: the shard's own WAL is the decision."""
        try:
            self.pool.request(st.conn, Command.COMMIT, st.ltxid)
        except AmbiguousResultError as exc:
            fate = self._resolve_shard_fate(shard, st.ltxid)
            if fate == "committed":
                self._note_commit_floor(st.ltxid)
                self._invalidate_snapshot_ts()
                self._settle(gtxn, "committed")
                self.stats.commits_1pc += 1
                return
            if fate == "unknown":
                # the shard stayed unreachable for the whole resolve
                # budget: its WAL may still apply this commit on recovery,
                # so the fate is genuinely undecided.  Settling "aborted"
                # here would pin a lie a recovering shard can contradict.
                # Park the mapping — TXN_STATUS re-asks the shard (txids
                # are never reused: the allocator survives the crash
                # model's power-fail) — and relay the ambiguity.
                self._in_doubt_1pc[gtxn.txid] = (shard, st.ltxid)
                self._settle(gtxn, "unknown")
                raise AmbiguousResultError(
                    f"commit of gtxn {gtxn.txid} in doubt on shard "
                    f"{shard}: {exc}") from exc
            self._settle(gtxn, "aborted")
            self.stats.aborts += 1
            raise RemoteError(
                f"commit of gtxn {gtxn.txid} lost on shard {shard} "
                f"({fate}): {exc}") from exc
        except BaseException:
            # shard-side commit failure (e.g. SSI abort) rolled it back
            self._settle(gtxn, "aborted")
            self.stats.aborts += 1
            raise
        self._note_commit_floor(st.ltxid)
        self._invalidate_snapshot_ts()
        self._settle(gtxn, "committed")
        self.stats.commits_1pc += 1

    def _commit_two_phase(self, gtxn: GlobalTxn,
                          writers: list[tuple[int, ShardTxn]]) -> None:
        # ---- phase 1: collect votes (PREPARE forces each shard's WAL)
        failure: BaseException | None = None
        prepared_upto = 0
        for i, (shard, st) in enumerate(writers):
            try:
                self.pool.request(st.conn, Command.PREPARE_TXN, st.ltxid,
                                  gtxn.txid)
                self.stats.prepares_sent += 1
                prepared_upto = i + 1
            except AmbiguousResultError as exc:
                # the vote may or may not have been cast — ask the shard
                fate = self._resolve_shard_fate(shard, st.ltxid)
                if fate == "prepared":
                    self.stats.prepares_sent += 1
                    prepared_upto = i + 1
                    continue
                failure = RemoteError(
                    f"prepare of gtxn {gtxn.txid} lost on shard {shard} "
                    f"({fate}): {exc}")
                break
            except BaseException as exc:
                # a clean NO vote: the shard aborted the local txn itself
                failure = exc
                break
        if failure is not None:
            self.stats.prepare_failures += 1
            # global abort: prepared participants need an explicit
            # decision (their locks are held), the rest are still ACTIVE
            # (plain ABORT) or already settled by the shard
            for shard, st in writers[:prepared_upto]:
                self._push_decision(shard, st.ltxid, Command.ABORT_PREPARED)
            for shard, st in writers[prepared_upto + 1:]:
                if st.conn is not None and st.conn.connected:
                    with contextlib.suppress(Exception):
                        self.pool.request(st.conn, Command.ABORT, st.ltxid)
            self._settle(gtxn, "aborted")
            self.stats.aborts += 1
            raise failure
        # ---- the decision: forced to the coordinator log, then final.
        # From here the transaction IS committed, whatever happens to the
        # decision pushes — resolve_in_doubt re-drives stragglers.
        self.coordinator_log.log_commit(
            gtxn.txid, [(s, st.ltxid) for s, st in writers])
        # guard the txid window this commit spans: its participants hold
        # different local txids, and a global read timestamp between them
        # would fracture the transaction.  Registered before any push, so
        # no refresh can slip between a shard applying and the guard
        # appearing; the window outlives the pushes (the asymmetry is
        # permanent) and is pruned once the served timestamp passes it.
        ltxids = [st.ltxid for _s, st in writers]
        with self._snap_mu:
            self._straddles[gtxn.txid] = (min(ltxids), max(ltxids))
            if max(ltxids) > self._commit_floor:
                self._commit_floor = max(ltxids)
        # the fate is sealed here; the next snapshot refresh must observe
        # it, so the cache goes stale before the client sees the ack
        self._invalidate_snapshot_ts()
        all_acked = True
        for shard, st in writers:
            if not self._push_decision(shard, st.ltxid,
                                       Command.COMMIT_PREPARED):
                all_acked = False
        if all_acked:
            self.coordinator_log.log_end(gtxn.txid)
        self._settle(gtxn, "committed")
        self.stats.commits_2pc += 1

    # -- in-doubt resolution -------------------------------------------------

    def resolve_in_doubt(self) -> dict[str, int]:
        """Settle every in-doubt prepared transaction in the cluster.

        Two sweeps: (1) re-push each logged-but-unfinished commit
        decision to its participant list; (2) ask every shard for its
        prepared transactions and settle the leftovers — commit if the
        log decided commit, otherwise **presumed abort**.  Transactions
        this router currently has mid-2PC are skipped.
        """
        out = {"committed": 0, "aborted": 0, "failed": 0}
        # parked 1PC fates first: a recovered shard answers instantly, and
        # a late "committed" must raise the commit floor before any
        # verification reads begin
        for gtxid in list(self._in_doubt_1pc):
            fate = self._late_resolve_1pc(gtxid)
            if fate == "committed":
                out["committed"] += 1
            elif fate == "aborted":
                out["aborted"] += 1
            else:
                out["failed"] += 1
        for gtxid, participants in self.coordinator_log.pending_decisions(
                ).items():
            if gtxid in self._open:
                continue
            acks = [self._push_decision(s, lt, Command.COMMIT_PREPARED)
                    for s, lt in participants]
            if participants:
                self._note_commit_floor(max(lt for _s, lt in participants))
            if all(acks):
                self.coordinator_log.log_end(gtxid)
                out["committed"] += 1
            else:
                out["failed"] += 1
        for shard in range(len(self.shard_addrs)):
            try:
                stats = self.pool.call(Command.STATS, endpoint=shard)
            except Exception:
                continue  # shard down: its in-doubt txns wait for it
            in_doubt = stats["engine"]["txns"].get("in_doubt_txns", ())
            for ltxid, gtxid in in_doubt:
                if gtxid >= 0:
                    self._bump_watermark(gtxid)
                if gtxid in self._open:
                    continue
                if (gtxid >= 0
                        and self.coordinator_log.decided_commit(gtxid)):
                    # covered by sweep (1) unless its end was logged on a
                    # prior run that this shard missed — push again
                    if self._push_decision(shard, ltxid,
                                           Command.COMMIT_PREPARED):
                        self._note_commit_floor(ltxid)
                        out["committed"] += 1
                    else:
                        out["failed"] += 1
                elif self._push_decision(shard, ltxid,
                                         Command.ABORT_PREPARED):
                    self.stats.presumed_aborts += 1
                    out["aborted"] += 1
                else:
                    out["failed"] += 1
        self.stats.in_doubt_resolved += out["committed"] + out["aborted"]
        if out["committed"]:
            # freshly landed commit decisions must surface in the next
            # global snapshot (the crash sweep verifies right after this)
            self._invalidate_snapshot_ts()
        return out

    # -- monitoring ----------------------------------------------------------

    def cluster_payload(self) -> dict:
        """The ``cluster`` section of STATS / SNAPSHOT responses."""
        with self._snap_mu:
            snapshot_ts = self._snapshot_ts
            straddles = len(self._straddles)
            commit_floor = self._commit_floor
        shards = []
        total_in_doubt = 0
        for i, (host, port) in enumerate(self.shard_addrs):
            entry: dict = {"shard": i, "host": host, "port": port,
                           "alive": False, "txns": {},
                           "closed_ts": None, "begin_at": None,
                           "snapshot_lag": None}
            try:
                stats = self.pool.call(Command.STATS, endpoint=i)
            except Exception:
                pass
            else:
                entry["alive"] = True
                entry["txns"] = stats.get("engine", {}).get("txns", {})
                total_in_doubt += entry["txns"].get("in_doubt", 0)
                # watermark observability (per shard): the shard's closed
                # timestamp, how many snapshots were pinned on it, and how
                # far its watermark runs ahead of the global read
                # timestamp currently served from the cache
                entry["closed_ts"] = entry["txns"].get("closed_ts")
                entry["begin_at"] = entry["txns"].get("begin_at")
                if (snapshot_ts is not None
                        and entry["closed_ts"] is not None):
                    entry["snapshot_lag"] = entry["closed_ts"] - snapshot_ts
            shards.append(entry)
        return {
            "shards": shards,
            "in_doubt": total_in_doubt,
            "snapshot_ts": snapshot_ts,
            "straddle_windows": straddles,
            "commit_floor": commit_floor,
            "in_doubt_1pc": len(self._in_doubt_1pc),
            "per_shard_snapshots": self.config.per_shard_snapshots,
            "pending_decisions": len(
                self.coordinator_log.pending_decisions()),
            "router": self.stats.as_dict(),
            "endpoints": self.pool.endpoints_health(),
        }

    def stats_payload(self) -> dict:
        """The STATS command's response body (router edition)."""
        return {
            **super().stats_payload(),
            "router": self.stats.as_dict(),
            "cluster": self.cluster_payload(),
            "coordinator": {
                "decisions_logged": self.coordinator_log.decisions_logged,
                "ends_logged": self.coordinator_log.ends_logged,
            },
        }

    # -- command handlers ----------------------------------------------------

    def _each_shard(self, command: Command, *args: object) -> list:
        """One non-transactional call per shard, in shard order."""
        return [self.pool.call(command, *args, endpoint=shard)
                for shard in range(len(self.shard_addrs))]

    async def _cmd_ping(self, session: Session, args: tuple) -> str:
        arity(args, 0)

        def work() -> str:
            self._each_shard(Command.PING)
            return "pong"
        return await self._run(session, Command.PING, work)

    async def _cmd_begin(self, session: Session, args: tuple) -> int:
        serializable, at_ts = begin_args(args)
        if serializable:
            # Never silently downgrade SSI to SI.  Cross-shard
            # rw-antidependency tracking would need the shards to exchange
            # SIREAD locks; until that exists the honest answer is a typed
            # wire error the client sees immediately at BEGIN.
            raise ProtocolError(
                "serializable (SSI) transactions are not supported across "
                "shards: rw-antidependency tracking is per-engine and the "
                "router cannot combine it; run serializable work against a "
                "single shard/server, or use the default snapshot "
                "isolation (cluster-wide consistent snapshot)")
        if at_ts is None and not self.config.per_shard_snapshots:
            at_ts = self._cached_snapshot_ts()
            if at_ts is None:
                at_ts = await self._run(session, Command.BEGIN,
                                        self._refresh_snapshot_ts)
        gtxn = GlobalTxn(self._allocate_gtxid(), serializable,
                         read_ts=at_ts)
        if at_ts is not None:
            self.stats.begins_at_ts += 1
        self._open[gtxn.txid] = gtxn
        session.register(gtxn)
        self.stats.gtxns_begun += 1
        return gtxn.txid

    async def _cmd_commit(self, session: Session, args: tuple) -> None:
        (txid,) = arity(args, 1)
        gtxn = claim(session, txid)
        try:
            await self._run(session, Command.COMMIT,
                            lambda: self._commit_job(gtxn))
        finally:
            if gtxn.phase != "active":
                session.forget(gtxn.txid)

    async def _cmd_abort(self, session: Session, args: tuple) -> None:
        (txid,) = arity(args, 1)
        gtxn = claim(session, txid)
        try:
            await self._run(session, Command.ABORT,
                            lambda: self._abort_job(gtxn))
        finally:
            if gtxn.phase != "active":
                session.forget(gtxn.txid)

    async def _cmd_create_table(self, session: Session,
                                args: tuple) -> None:
        arity(args, 3)
        await self._run(session, Command.CREATE_TABLE,
                        lambda: self._each_shard(Command.CREATE_TABLE,
                                                 *args))

    async def _cmd_insert(self, session: Session, args: tuple) -> int:
        txid, table, row = arity(args, 3)
        gtxn = claim(session, txid)
        table, row = as_str(table), as_row(row)

        def work() -> int:
            shard = self.shard_map.place()
            st = self._shard_txn(gtxn, shard)
            lvid = self.pool.request(st.conn, Command.INSERT, st.ltxid,
                                     table, row)
            st.writes += 1
            return self.shard_map.to_global(shard, self._as_gvid(lvid))
        return await self._run(session, Command.INSERT, work)

    async def _cmd_bulk_insert(self, session: Session,
                               args: tuple) -> tuple:
        txid, table, rows = arity(args, 3)
        gtxn = claim(session, txid)
        table, rows = as_str(table), tuple(as_rows(rows))

        def work() -> tuple:
            shard = self.shard_map.place()
            st = self._shard_txn(gtxn, shard)
            lvids = self.pool.request(st.conn, Command.BULK_INSERT,
                                      st.ltxid, table, rows)
            st.writes += len(lvids)
            return tuple(self.shard_map.to_global(shard, self._as_gvid(v))
                         for v in lvids)
        return await self._run(session, Command.BULK_INSERT, work)

    def _routed_call(self, gtxn: GlobalTxn, ref: object, command: Command,
                     *args_after_ref: object,
                     before_ref: tuple = ()) -> tuple[int, object]:
        gvid = self._as_gvid(ref)
        shard = self.shard_map.shard_of(gvid)
        st = self._shard_txn(gtxn, shard)
        result = self.pool.request(st.conn, command, st.ltxid, *before_ref,
                                   self.shard_map.to_local(gvid),
                                   *args_after_ref)
        return shard, result

    async def _cmd_read(self, session: Session, args: tuple) -> object:
        txid, table, ref = arity(args, 3)
        gtxn = claim(session, txid)
        table, ref = as_str(table), self._as_gvid(ref)

        def work() -> object:
            _shard, row = self._routed_call(gtxn, ref, Command.READ,
                                            before_ref=(table,))
            return row
        return await self._run(session, Command.READ, work)

    async def _cmd_update(self, session: Session, args: tuple) -> int:
        txid, table, ref, row = arity(args, 4)
        gtxn = claim(session, txid)
        table, ref, row = as_str(table), self._as_gvid(ref), as_row(row)

        def work() -> int:
            shard, lref = self._routed_call(gtxn, ref, Command.UPDATE, row,
                                            before_ref=(table,))
            gtxn.shards[shard].writes += 1
            return self.shard_map.to_global(shard, self._as_gvid(lref))
        return await self._run(session, Command.UPDATE, work)

    async def _cmd_delete(self, session: Session, args: tuple) -> None:
        txid, table, ref = arity(args, 3)
        gtxn = claim(session, txid)
        table, ref = as_str(table), self._as_gvid(ref)

        def work() -> None:
            shard, _none = self._routed_call(gtxn, ref, Command.DELETE,
                                             before_ref=(table,))
            gtxn.shards[shard].writes += 1
        return await self._run(session, Command.DELETE, work)

    def _fanout_pairs(self, gtxn: GlobalTxn, command: Command,
                      *args: object) -> tuple:
        """Run a txn-scoped read on every shard; merge translated pairs.

        Results are ``(ref, row)`` pairs on every shard; the merge
        translates refs to global VIDs and sorts by them, so the merged
        order is deterministic regardless of shard count.
        """
        started = time.monotonic()
        merged: list[tuple] = []
        for shard in range(len(self.shard_addrs)):
            st = self._shard_txn(gtxn, shard)
            pairs = self.pool.request(st.conn, command, st.ltxid, *args)
            merged.extend(self._translate_pairs(shard, pairs))
        merged.sort(key=lambda pair: pair[0])
        self.stats.note_fanout(command.name, time.monotonic() - started)
        return tuple(merged)

    async def _cmd_lookup(self, session: Session, args: tuple) -> tuple:
        txid, table, index, key = arity(args, 4)
        gtxn = claim(session, txid)
        table, index = as_str(table), as_str(index)
        return await self._run(
            session, Command.LOOKUP,
            lambda: self._fanout_pairs(gtxn, Command.LOOKUP, table, index,
                                       key))

    async def _cmd_range_lookup(self, session: Session,
                                args: tuple) -> tuple:
        txid, table, index, lo, hi = arity(args, 5)
        gtxn = claim(session, txid)
        table, index = as_str(table), as_str(index)
        return await self._run(
            session, Command.RANGE_LOOKUP,
            lambda: self._fanout_pairs(gtxn, Command.RANGE_LOOKUP, table,
                                       index, lo, hi))

    async def _cmd_scan(self, session: Session, args: tuple) -> tuple:
        txid, table = arity(args, 2)
        gtxn = claim(session, txid)
        table = as_str(table)
        return await self._run(
            session, Command.SCAN,
            lambda: self._fanout_pairs(gtxn, Command.SCAN, table))

    async def _cmd_scan_batch(self, session: Session, args: tuple) -> tuple:
        txid, table, columns, where, after, limit = arity(args, 6)
        gtxn = claim(session, txid)
        table, where = as_str(table), as_predicate(where)
        limit = as_int(limit, "limit")
        # The wire cursor is opaque to clients (passed back verbatim), so
        # the router nests the shard's own cursor in a (shard,
        # local_cursor) pair and streams shards in order.
        if after is None:
            shard, local_after = 0, None
        elif (isinstance(after, tuple) and len(after) == 2
                and isinstance(after[0], int)
                and 0 <= after[0] < len(self.shard_addrs)):
            shard, local_after = after
        else:
            raise ProtocolError(f"bad cluster scan cursor: {after!r}")

        def work() -> tuple:
            st = self._shard_txn(gtxn, shard)
            rows, local_cursor = self.pool.request(
                st.conn, Command.SCAN_BATCH, st.ltxid, table, columns,
                where, local_after, limit)
            translated = tuple(self._translate_pairs(shard, rows))
            if local_cursor is not None:
                return translated, (shard, local_cursor)
            if shard + 1 < len(self.shard_addrs):
                return translated, (shard + 1, None)
            return translated, None
        return await self._run(session, Command.SCAN_BATCH, work)

    async def _cmd_aggregate(self, session: Session,
                             args: tuple) -> object:
        txid, table, op, column, where = arity(args, 5)
        gtxn = claim(session, txid)
        table, where = as_str(table), as_predicate(where)
        op = as_str(op, "aggregate op")

        def work() -> object:
            started = time.monotonic()
            parts = []
            for shard in range(len(self.shard_addrs)):
                st = self._shard_txn(gtxn, shard)
                parts.append(self.pool.request(
                    st.conn, Command.AGGREGATE, st.ltxid, table, op,
                    column, where))
            self.stats.note_fanout(Command.AGGREGATE.name,
                                   time.monotonic() - started)
            if op == "count":
                return sum(parts)
            seen = [p for p in parts if p is not None]
            if not seen:
                return None
            if op == "sum":
                return sum(seen)
            if op == "min":
                return min(seen)
            if op == "max":
                return max(seen)
            raise ProtocolError(f"unknown aggregate op {op!r}")
        return await self._run(session, Command.AGGREGATE, work)

    async def _cmd_scan_vid_range(self, session: Session,
                                  args: tuple) -> tuple:
        txid, table, lo, hi = arity(args, 4)
        gtxn = claim(session, txid)
        table, lo, hi = as_str(table), as_int(lo), as_int(hi)

        def work() -> tuple:
            started = time.monotonic()
            merged: list[tuple] = []
            for shard, llo, lhi in self.shard_map.split_range(lo, hi):
                st = self._shard_txn(gtxn, shard)
                pairs = self.pool.request(st.conn, Command.SCAN_VID_RANGE,
                                          st.ltxid, table, llo, lhi)
                merged.extend(self._translate_pairs(shard, pairs))
            merged.sort(key=lambda pair: pair[0])
            self.stats.note_fanout(Command.SCAN_VID_RANGE.name,
                                   time.monotonic() - started)
            return tuple(merged)
        return await self._run(session, Command.SCAN_VID_RANGE, work)

    async def _cmd_tick(self, session: Session, args: tuple) -> None:
        arity(args, 0)
        await self._run(session, Command.TICK,
                        lambda: self._each_shard(Command.TICK))

    async def _cmd_maintenance(self, session: Session, args: tuple) -> dict:
        arity(args, 0)

        def work() -> dict:
            merged: dict[str, dict[str, int]] = {}
            for report in self._each_shard(Command.MAINTENANCE):
                for table, summary in report.items():
                    into = merged.setdefault(table, {})
                    for key, value in summary.items():
                        into[key] = into.get(key, 0) + int(value)
            return merged
        return await self._run(session, Command.MAINTENANCE, work)

    async def _cmd_snapshot(self, session: Session, args: tuple) -> dict:
        arity(args, 0)

        def work() -> dict:
            merged: dict | None = None
            for shard, snap in enumerate(self._each_shard(Command.SNAPSHOT)):
                if merged is None:
                    merged = dict(snap)
                    merged["tables"] = []
                else:
                    for key, value in snap.items():
                        if isinstance(value, (int, float)) and not (
                                isinstance(value, bool)):
                            if key == "sim_time_sec":
                                merged[key] = max(merged[key], value)
                            elif key == "buffer_hit_ratio":
                                merged[key] = (merged[key] + value) / 2
                            elif key == "write_amplification":
                                merged[key] = max(merged[key], value)
                            else:
                                merged[key] = merged.get(key, 0) + value
                for table in snap.get("tables", ()):
                    entry = dict(table)
                    entry["name"] = f"s{shard}/{entry.get('name', '?')}"
                    merged["tables"].append(entry)
            assert merged is not None
            merged["tables"] = tuple(merged["tables"])
            merged["commands"] = tuple(
                dataclasses.asdict(cs) for cs in self.command_stats())
            merged["cluster"] = self.cluster_payload()
            return merged
        return await self._run(session, Command.SNAPSHOT, work)

    async def _cmd_stats(self, session: Session, args: tuple) -> dict:
        arity(args, 0)
        return await self._run(session, Command.STATS, self.stats_payload)

    async def _cmd_clock_now(self, session: Session, args: tuple) -> int:
        arity(args, 0)
        return await self._run(
            session, Command.CLOCK_NOW,
            lambda: max(self._each_shard(Command.CLOCK_NOW)))

    async def _cmd_clock_advance(self, session: Session,
                                 args: tuple) -> int:
        (usec,) = arity(args, 1)
        delta = as_int(usec, "microseconds")
        return await self._run(
            session, Command.CLOCK_ADVANCE,
            lambda: max(self._each_shard(Command.CLOCK_ADVANCE, delta)))

    async def _cmd_clock_advance_to(self, session: Session,
                                    args: tuple) -> int:
        (usec,) = arity(args, 1)
        target = as_int(usec, "microseconds")
        return await self._run(
            session, Command.CLOCK_ADVANCE_TO,
            lambda: max(self._each_shard(Command.CLOCK_ADVANCE_TO, target)))

    async def _cmd_txn_status(self, session: Session, args: tuple) -> str:
        """The fate of a *global* txid, with presumed-abort semantics."""
        (txid,) = arity(args, 1)
        gtxid = as_int(txid, "txid")

        def work() -> str:
            fate = self._fates.get(gtxid)
            if fate == "unknown":
                return self._late_resolve_1pc(gtxid)
            if fate is not None:
                return fate
            if gtxid in self._open:
                return "active"
            if self.coordinator_log.decided_commit(gtxid):
                return "committed"
            with self._gtxid_mu:
                allocated = gtxid < self._next_gtxid
            if allocated and gtxid > 0:
                # no decision logged for an allocated gtxid: presumed abort
                return "aborted"
            return "unknown"
        return await self._run(session, Command.TXN_STATUS, work)

    async def _cmd_closed_ts(self, session: Session, args: tuple) -> int:
        """Cluster edition of CLOSED_TS: the global read timestamp.

        With no operand, refreshes (if stale) and returns the cluster-wide
        read timestamp — the min over shard watermarks after ratcheting.
        With a timestamp operand, ratchets *every* shard to at least it
        first, so an external coordinator can align this cluster's
        timestamp domain with another's.
        """
        if args:
            (raw,) = arity(args, 1)
            target = as_int(raw, "timestamp")

            def ratchet() -> int:
                self._each_shard(Command.CLOSED_TS, target)
                self._invalidate_snapshot_ts()
                return self._refresh_snapshot_ts()
            return await self._run(session, Command.CLOSED_TS, ratchet)
        ts = self._cached_snapshot_ts()
        if ts is None:
            ts = await self._run(session, Command.CLOSED_TS,
                                 self._refresh_snapshot_ts)
        return ts
