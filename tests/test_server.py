"""Service-layer tests: wire protocol, server, sessions, client pool.

Covers the acceptance contract end to end:

* protocol codec round trips (including the TID ext type and framing
  violations);
* a TPC-C-style mix through ``RemoteDatabase`` over a real socket, with
  client-side ``Metrics`` reconciling against server-side counters
  (delegated to ``examples/networked_tpcc.py``);
* forced overload (in-flight limit 1, burst of client threads) yielding
  ``OVERLOADED`` sheds that the pool retries to completion;
* a connection killed mid-transaction whose orphaned txn is aborted and
  its locks released;
* idle-session reaping, session txn ownership, and
  ``db.monitor.snapshot()`` while several sessions hold transactions in
  flight.
"""

from __future__ import annotations

import asyncio
import importlib.util
import pathlib
import threading
import time

import pytest

from repro.client import ClientConnection, RemoteDatabase
from repro.common.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    SerializationError,
    SessionError,
)
from repro.db.database import EngineKind
from repro.db.monitor import snapshot
from repro.pages.layout import Tid
from repro.server import Command, DatabaseServer, Dispatcher, ServerConfig
from repro.server import protocol
from tests.conftest import make_accounts_db


def _wait_until(predicate, timeout_sec: float = 5.0,
                interval_sec: float = 0.02) -> None:
    """Poll until ``predicate()`` or fail the test after the timeout."""
    deadline = time.monotonic() + timeout_sec
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached within timeout")
        time.sleep(interval_sec)


@pytest.fixture
def served():
    """A SIAS-V accounts database behind a background server."""
    db = make_accounts_db(EngineKind.SIASV)
    server = DatabaseServer(db, ServerConfig(port=0, idle_timeout_sec=30.0))
    host, port = server.start_in_background()
    yield db, server, host, port
    server.stop_in_background()


class TestProtocolCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, 127, 128, 255, 256, 65535, 65536,
        2**32 - 1, 2**32, 2**63 - 1, -1, -31, -32, -33, -128, -129,
        -32768, -32769, -2**31, -2**63, 3.25, -0.5, "", "hello",
        "ü" * 40, "x" * 70000, b"", b"\x00\xff" * 300, (), (1, 2, 3),
        ((1, "a"), (2.0, None)), tuple(range(40)), {}, {"k": 1},
        {"nested": {"deep": (1, 2)}}, Tid(7, 3), (Tid(0, 0), Tid(2**31, 9)),
    ])
    def test_roundtrip(self, value):
        assert protocol.unpackb(protocol.packb(value)) == value

    def test_lists_decode_as_tuples(self):
        assert protocol.unpackb(protocol.packb([1, [2, 3]])) == (1, (2, 3))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.unpackb(protocol.packb(1) + b"\x00")

    def test_truncated_value_rejected(self):
        data = protocol.packb((1, "hello", 2.0))
        with pytest.raises(ProtocolError):
            protocol.unpackb(data[:-3])

    def test_unencodable_type_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.packb(object())

    def test_oversized_frame_rejected(self):
        huge = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            protocol.frame_length(huge)

    def test_request_roundtrip(self):
        frame = protocol.encode_request(7, Command.INSERT, (1, "t", (2,)))
        request_id, command, args, deadline = protocol.decode_request(
            frame[4:])
        assert (request_id, command, args) == (7, Command.INSERT,
                                               (1, "t", (2,)))
        assert deadline is None

    def test_request_roundtrip_with_deadline(self):
        frame = protocol.encode_request(9, Command.READ, (1, "t", 2),
                                        deadline_ms=250)
        request_id, command, args, deadline = protocol.decode_request(
            frame[4:])
        assert (request_id, command, args, deadline) == (
            9, Command.READ, (1, "t", 2), 250)

    def test_deadline_does_not_change_fast_path_bytes(self):
        # deadline_ms=None must keep the legacy 3-tuple frame byte for
        # byte — the fault-free fast path is unchanged on the wire
        with_none = protocol.encode_request(7, Command.PING, ())
        assert protocol.decode_request(with_none[4:])[3] is None
        legacy = protocol.packb((7, int(Command.PING), ()))
        assert with_none[4:] == legacy


class TestBasicService:
    def test_crud_over_the_wire(self, served):
        _db, _server, host, port = served
        remote = RemoteDatabase.connect(host, port)
        try:
            txn = remote.begin()
            ref = remote.insert(txn, "accounts", (1, "alice", 10.0))
            assert remote.read(txn, "accounts", ref) == (1, "alice", 10.0)
            remote.update(txn, "accounts", ref, (1, "alice", 12.5))
            remote.commit(txn)

            txn = remote.begin()
            [(got_ref, row)] = remote.lookup(txn, "accounts", "pk", 1)
            assert got_ref == ref and row == (1, "alice", 12.5)
            remote.delete(txn, "accounts", ref)
            assert remote.read(txn, "accounts", ref) is None
            remote.abort(txn)

            txn = remote.begin()
            assert remote.read(txn, "accounts", ref) == (1, "alice", 12.5)
            remote.commit(txn)
        finally:
            remote.close()

    def test_serialization_conflict_propagates(self, served):
        _db, _server, host, port = served
        remote = RemoteDatabase.connect(host, port)
        try:
            setup = remote.begin()
            ref = remote.insert(setup, "accounts", (1, "a", 1.0))
            remote.commit(setup)
            t1, t2 = remote.begin(), remote.begin()
            remote.update(t1, "accounts", ref, (1, "a", 2.0))
            with pytest.raises(SerializationError):
                remote.update(t2, "accounts", ref, (1, "a", 3.0))
            remote.abort(t2)
            remote.commit(t1)
        finally:
            remote.close()

    def test_ssi_txn_over_the_wire(self, served):
        _db, _server, host, port = served
        remote = RemoteDatabase.connect(host, port)
        try:
            def work(txn):
                assert txn.serializable
                return remote.insert(txn, "accounts", (9, "ssi", 1.0))
            ref = remote.run_in_txn(work, serializable=True)
            got = remote.run_in_txn(
                lambda t: remote.read(t, "accounts", ref))
            assert got == (9, "ssi", 1.0)
        finally:
            remote.close()

    def test_txn_ownership_is_per_session(self, served):
        _db, _server, host, port = served
        with ClientConnection(host, port) as mine, \
                ClientConnection(host, port) as thief:
            txid = mine.request(Command.BEGIN, False)
            with pytest.raises(SessionError):
                thief.request(Command.COMMIT, txid)
            mine.request(Command.ABORT, txid)

    def test_bad_frame_gets_bad_request(self, endpoint):
        _db, _server, host, port = endpoint(idle_timeout_sec=30.0)
        with ClientConnection(host, port) as conn:
            conn.connect()
            # a frame whose payload is not a (request_id, command, args)
            conn._sock.sendall(
                protocol.encode_frame(protocol.packb("junk")))
            header = conn._recv_exact(4)
            body = conn._recv_exact(protocol.frame_length(header))
            _rid, status, _payload = protocol.decode_response(body)
            assert status == protocol.Status.BAD_REQUEST

    def test_wrong_arity_gets_bad_request(self, endpoint):
        _db, _server, host, port = endpoint(idle_timeout_sec=30.0)
        with ClientConnection(host, port) as conn:
            txid = conn.request(Command.BEGIN, False)
            for command, args in [
                    (Command.LOOKUP, (txid, "accounts")),
                    (Command.COMMIT, ()),
                    (Command.COMMIT, (txid, txid)),
                    (Command.READ, (txid, "accounts", 1, 2)),
                    (Command.CLOCK_ADVANCE, ()),
                    (Command.TXN_STATUS, ("not a txid",))]:
                with pytest.raises(ProtocolError):
                    conn.request(command, *args)
            # a malformed request costs nothing: the txn is still open
            conn.request(Command.COMMIT, txid)


class TestNetworkedTpcc:
    def test_example_reconciles_against_server_metrics(self):
        path = (pathlib.Path(__file__).resolve().parent.parent
                / "examples" / "networked_tpcc.py")
        spec = importlib.util.spec_from_file_location("networked_tpcc",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        result = module.main(transactions=25, clients=4, quiet=True)
        summary = result["summary"]
        assert summary.commits > 0
        assert result["server_commits"] == summary.commits
        assert result["server_aborts"] == summary.aborts
        assert result["stats"]["sessions"]["opened"] >= 4


class TestOverload:
    def test_burst_sheds_and_pool_retries_to_completion(self):
        db = make_accounts_db(EngineKind.SIASV)
        server = DatabaseServer(db, ServerConfig(
            port=0, max_in_flight=1, max_queue_depth=0,
            idle_timeout_sec=30.0))
        host, port = server.start_in_background()
        remote = RemoteDatabase(host, port, pool_size=8)
        try:
            seed = remote.begin()
            ref = remote.insert(seed, "accounts", (1, "hot", 0.0))
            remote.commit(seed)

            per_thread, threads = 30, 6
            failures: list[BaseException] = []

            def hammer() -> None:
                try:
                    for _ in range(per_thread):
                        txn = remote.begin()
                        assert remote.read(txn, "accounts", ref)[0] == 1
                        remote.commit(txn)
                except BaseException as exc:  # surfaced after join
                    failures.append(exc)

            workers = [threading.Thread(target=hammer)
                       for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(60)
            assert not failures, failures

            stats = remote.server_stats()
            # burst against in-flight limit 1 / queue 0 must have shed...
            assert stats["shed_total"] > 0
            shed_by_cmd = {name: c["shed"]
                           for name, c in stats["commands"].items()}
            assert sum(shed_by_cmd.values()) == stats["shed_total"]
            # ...yet the retrying pool completed every transaction
            assert remote.pool.stats.overload_retries > 0
            assert db.txn_mgr.commits == per_thread * threads + 1
            assert stats["sessions"]["in_flight_txns"] == 0
        finally:
            remote.close()
            server.stop_in_background()

    def test_dispatcher_sheds_beyond_watermark_but_exempts_cleanup(self):
        async def scenario() -> None:
            dispatcher = Dispatcher(max_in_flight=1, max_queue_depth=0)
            gate = threading.Event()
            slow = asyncio.ensure_future(dispatcher.run("SLOW", gate.wait))
            for _ in range(200):  # until SLOW occupies the only slot
                if dispatcher.executing == 1:
                    break
                await asyncio.sleep(0.005)
            assert dispatcher.executing == 1
            with pytest.raises(OverloadedError):
                await dispatcher.run("FAST", lambda: None)
            assert dispatcher.stats.shed_total == 1
            assert dispatcher.stats.of("FAST").shed == 1
            # exempt work (commit/abort/cleanup) is never shed: it queues
            exempt = asyncio.ensure_future(
                dispatcher.run("CLEANUP", lambda: 42, exempt=True))
            await asyncio.sleep(0.02)
            assert not exempt.done()
            gate.set()
            assert await slow is True
            assert await exempt == 42
            dispatcher.close()

        asyncio.run(scenario())


class TestInlineLane:
    """Inline jobs skip only the executor handoff, never a check."""

    @staticmethod
    async def _occupy(dispatcher, gate: threading.Event):
        """Start an executor job parked on ``gate``; return its future."""
        job = asyncio.ensure_future(dispatcher.run("SLOW", gate.wait))
        for _ in range(200):
            if dispatcher.executing >= 1:
                break
            await asyncio.sleep(0.005)
        assert dispatcher.executing >= 1
        return job

    def test_inline_runs_on_the_loop_thread_and_is_admitted(self):
        async def scenario() -> None:
            dispatcher = Dispatcher(max_in_flight=2, max_queue_depth=0)
            loop_thread = threading.get_ident()
            inline_thread = await dispatcher.run(
                "LOOKUP", threading.get_ident, inline=True)
            pooled_thread = await dispatcher.run(
                "UPDATE", threading.get_ident)
            assert inline_thread == loop_thread
            assert pooled_thread != loop_thread
            assert dispatcher.stats.admitted == 2
            assert dispatcher.executing == 0
            dispatcher.close()

        asyncio.run(scenario())

    def test_inline_is_rejected_past_its_deadline(self):
        async def scenario() -> None:
            dispatcher = Dispatcher()
            ran = []
            with pytest.raises(DeadlineExceededError):
                await dispatcher.run("LOOKUP", lambda: ran.append(1),
                                     inline=True,
                                     deadline=time.monotonic() - 1.0)
            assert not ran
            assert dispatcher.stats.deadline_rejected == 1
            assert dispatcher.stats.admitted == 0
            dispatcher.close()

        asyncio.run(scenario())

    def test_inline_is_shed_when_the_only_slot_is_held(self):
        async def scenario() -> None:
            dispatcher = Dispatcher(max_in_flight=1, max_queue_depth=0)
            gate = threading.Event()
            try:
                slow = await self._occupy(dispatcher, gate)
                with pytest.raises(OverloadedError):
                    await dispatcher.run("LOOKUP", lambda: None,
                                         inline=True)
                assert dispatcher.stats.of("LOOKUP").shed == 1
                assert dispatcher.stats.shed_total == 1
                gate.set()
                assert await slow is True
                # with the slot free again the same job is admitted
                assert await dispatcher.run("LOOKUP", lambda: 7,
                                            inline=True) == 7
            finally:
                gate.set()  # never strand a worker thread on failure
                dispatcher.close()

        asyncio.run(scenario())

    def test_inline_waits_behind_a_pending_exclusive_job(self):
        async def scenario() -> None:
            dispatcher = Dispatcher(max_in_flight=4, max_queue_depth=4)
            gate = threading.Event()
            order: list[str] = []
            try:
                slow = await self._occupy(dispatcher, gate)
                exclusive = asyncio.ensure_future(dispatcher.run(
                    "MAINTENANCE", lambda: order.append("exclusive"),
                    exclusive=True))
                await asyncio.sleep(0.02)
                inline = asyncio.ensure_future(dispatcher.run(
                    "LOOKUP", lambda: order.append("inline"), inline=True))
                await asyncio.sleep(0.02)
                # the exclusive job waits for SLOW to drain; the inline
                # job queues behind it instead of slipping past on the loop
                assert not exclusive.done() and not inline.done()
                assert order == []
                gate.set()
                await asyncio.gather(slow, exclusive, inline)
                assert order == ["exclusive", "inline"]
                assert dispatcher.stats.exclusive_runs == 1
            finally:
                gate.set()
                dispatcher.close()

        asyncio.run(scenario())

    def test_inline_set_excludes_waiting_and_unbounded_commands(self):
        from repro.server.server import _EXCLUSIVE, _WRITE_COMMANDS

        inline = DatabaseServer.inline_commands
        finishing = {Command.COMMIT, Command.ABORT, Command.PREPARE_TXN,
                     Command.COMMIT_PREPARED, Command.ABORT_PREPARED,
                     Command.TICK}
        assert not inline & _WRITE_COMMANDS
        assert not inline & _EXCLUSIVE
        assert not inline & finishing
        assert not inline & {Command.SCAN, Command.SCAN_BATCH,
                             Command.SCAN_VID_RANGE, Command.RANGE_LOOKUP,
                             Command.AGGREGATE}
        assert Command.LOOKUP in inline and Command.BEGIN in inline

    def test_lookup_under_a_held_item_lock_returns_the_old_version(self):
        db = make_accounts_db(EngineKind.SIASV)
        config = ServerConfig(port=0, executor_workers=2,
                              idle_timeout_sec=30.0)
        server = DatabaseServer(db, config)
        host, port = server.start_in_background()
        writer = RemoteDatabase.connect(host, port)
        reader = RemoteDatabase.connect(host, port)
        try:
            seed = writer.begin()
            ref = writer.insert(seed, "accounts", (1, "hot", 10.0))
            writer.commit(seed)
            holder = writer.begin()
            writer.update(holder, "accounts", ref, (1, "hot", 99.0))
            assert db.txn_mgr.locks.held_count() == 1

            txn = reader.begin()
            started = time.monotonic()
            [(got_ref, row)] = reader.lookup(txn, "accounts", "pk", 1)
            elapsed = time.monotonic() - started
            assert got_ref == ref and row == (1, "hot", 10.0)
            assert reader.read(txn, "accounts", ref) == (1, "hot", 10.0)
            # a reader never queues on the writer's item lock
            assert elapsed < config.lock_wait_timeout_sec
            assert db.txn_mgr.locks.stats.waits == 0
            reader.commit(txn)

            writer.commit(holder)
            after = reader.begin()
            [(_ref, row)] = reader.lookup(after, "accounts", "pk", 1)
            assert row == (1, "hot", 99.0)
            reader.commit(after)
        finally:
            reader.close()
            writer.close()
            server.stop_in_background()


class TestSessionLifecycle:
    def test_disconnect_aborts_orphan_and_releases_locks(self, served):
        db, server, host, port = served
        remote = RemoteDatabase.connect(host, port)
        try:
            setup = remote.begin()
            ref = remote.insert(setup, "accounts", (1, "victim", 1.0))
            remote.commit(setup)

            # a raw connection begins a txn, locks the row, and dies
            doomed = ClientConnection(host, port).connect()
            txid = doomed.request(Command.BEGIN, False)
            doomed.request(Command.UPDATE, txid, "accounts", ref,
                           (1, "victim", 2.0))
            assert db.txn_mgr.locks.held_count() == 1
            doomed.close()  # mid-transaction, no COMMIT/ABORT

            # the counter is bumped on the event loop *after* the abort
            # completes on an executor worker, so waiting on it (rather
            # than active_count) also guarantees the abort is done
            _wait_until(lambda: server.sessions.stats.orphans_aborted == 1)
            assert db.txn_mgr.active_count() == 0
            assert db.txn_mgr.locks.held_count() == 0

            # the orphan's update was undone and its lock released:
            # a fresh transaction can update the row without conflict
            txn = remote.begin()
            assert remote.read(txn, "accounts", ref) == (1, "victim", 1.0)
            remote.update(txn, "accounts", ref, (1, "victim", 3.0))
            remote.commit(txn)
            assert db.txn_mgr.aborts >= 1
        finally:
            remote.close()

    def test_idle_session_is_reaped_and_its_txn_aborted(self, endpoint):
        db, server, host, port = endpoint(idle_timeout_sec=0.2)
        idler = ClientConnection(host, port).connect()
        try:
            txid = idler.request(Command.BEGIN, False)
            idler.request(Command.INSERT, txid, "accounts",
                          (5, "idle", 0.0))
            assert db.txn_mgr.active_count() == 1
            _wait_until(lambda: db.txn_mgr.active_count() == 0,
                        timeout_sec=5.0)
            assert server.sessions.stats.idle_closed == 1
            assert server.sessions.stats.orphans_aborted == 1
            # the reaped connection is dead from the client's view
            with pytest.raises((ConnectionError, SessionError)):
                idler.request(Command.PING)
        finally:
            idler.close()
            server.stop_in_background()


class TestMonitorThroughServer:
    def test_snapshot_with_concurrent_sessions_in_flight(self, served):
        db, server, host, port = served
        conns = [ClientConnection(host, port).connect() for _ in range(3)]
        try:
            txids = []
            for i, conn in enumerate(conns):
                txid = conn.request(Command.BEGIN, False)
                conn.request(Command.INSERT, txid, "accounts",
                             (i + 1, f"s{i}", float(i)))
                txids.append(txid)

            # in-process view and wire view agree on in-flight state
            snap = snapshot(db, server=server)
            assert snap.txn_active == 3
            wire = conns[0].request(Command.SNAPSHOT)
            assert wire["txn_active"] == 3
            assert {c["command"] for c in wire["commands"]} >= {
                "BEGIN", "INSERT", "SNAPSHOT"}

            for conn, txid in zip(conns, txids):
                conn.request(Command.COMMIT, txid)
            done = conns[0].request(Command.SNAPSHOT)
            assert done["txn_active"] == 0
            assert (done["txn_commits"] - wire["txn_commits"]) == 3
        finally:
            for conn in conns:
                conn.close()

    def test_render_includes_service_commands(self, served):
        db, server, host, port = served
        remote = RemoteDatabase.connect(host, port)
        try:
            remote.run_in_txn(
                lambda t: remote.insert(t, "accounts", (1, "r", 1.0)))
            text = snapshot(db, server=server).render()
            assert "per-command (service layer)" in text
            assert "INSERT" in text
        finally:
            remote.close()

class TestRecoverOnStart:
    def test_recovery_runs_before_serving(self):
        db = make_accounts_db(EngineKind.SIASV)
        txn = db.begin()
        db.insert(txn, "accounts", (1, "durable", 10.0))
        db.commit(txn)
        txn = db.begin()
        db.insert(txn, "accounts", (2, "in-flight", 20.0))
        # never committed: a restart must roll this back
        server = DatabaseServer(db, ServerConfig(recover_on_start=True))
        assert server.recovery_report is not None
        assert server.recovery_report.committed_txns >= 1
        assert server.recovery_report.rolled_back_txns >= 1
        check = db.begin()
        rows = {row[0] for _ref, row in db.scan(check, "accounts")}
        db.commit(check)
        assert rows == {1}

    def test_recover_keeps_multiworker_lock_waits(self):
        db = make_accounts_db(EngineKind.SIASV)
        server = DatabaseServer(db, ServerConfig(recover_on_start=True,
                                                 executor_workers=4))
        assert server.recovery_report is not None
        # crash()'s lock-table reset must not discard the bounded-wait
        # configuration the multi-worker server just applied
        assert db.txn_mgr.locks.wait_timeout_sec == \
            server.config.lock_wait_timeout_sec
