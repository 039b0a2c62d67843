"""Hostile-network resilience tests: chaos transport, deadlines, drain,
circuit breaker, ambiguous commits and protocol fuzzing.

Covers the robustness contract end to end:

* the deterministic chaos layer itself (``NetCrashPoint`` counting,
  seeded ``ChaosPlan`` decisions, every ``ChaosSocket`` fault shape);
* per-command deadlines rejected/shed server-side with the retryable
  ``DEADLINE_EXCEEDED`` status, budgeted across client retries;
* graceful drain: new sessions refused with ``SHUTTING_DOWN``, in-flight
  transactions allowed to finish, stragglers aborted at the timeout;
* the client circuit breaker's CLOSED → OPEN → HALF_OPEN lifecycle;
* a mid-``COMMIT`` disconnect on both engines: the lost ack surfaces as
  ``CommitUncertainError``, ``TXN_STATUS`` resolves the fate, and the
  commit applies exactly once;
* the idle reaper never closing a session under an executing command;
* seeded fuzzing of the wire codec (malformed bytes may only raise
  ``ProtocolError``).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.client import CircuitBreaker, ClientConnection, RemoteDatabase
from repro.client.pool import BreakerState
from repro.common.errors import (
    CircuitOpenError,
    CommitUncertainError,
    DeadlineExceededError,
    ProtocolError,
    SessionError,
)
from repro.common.rng import make_rng
from repro.db.database import EngineKind
from repro.db.monitor import snapshot
from repro.server import (
    ChaosPlan,
    Command,
    DatabaseServer,
    NetCrashPoint,
    NetFaultKind,
    ServerConfig,
    protocol,
)
from repro.server.chaos import ChaosConfig, ChaosSocket
from repro.txn.manager import TxnPhase
from tests.conftest import make_accounts_db


def _wait_until(predicate, timeout_sec: float = 5.0,
                interval_sec: float = 0.02) -> None:
    deadline = time.monotonic() + timeout_sec
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached within timeout")
        time.sleep(interval_sec)


def _serve(kind: EngineKind = EngineKind.SIASV, **config_kwargs):
    db = make_accounts_db(kind)
    server = DatabaseServer(db, ServerConfig(port=0, **config_kwargs))
    host, port = server.start_in_background()
    return db, server, host, port


# ---------------------------------------------------------------------------
# chaos layer unit tests
# ---------------------------------------------------------------------------

class TestNetCrashPoint:
    def test_fires_exactly_at_kth_event_then_goes_inert(self):
        point = NetCrashPoint(at_event=3, kind=NetFaultKind.TORN)
        assert [point.on_event() for _ in range(5)] == [
            None, None, NetFaultKind.TORN, None, None]
        assert point.tripped
        assert point.events_seen == 5

    def test_count_mode_never_fires(self):
        point = NetCrashPoint(at_event=0)
        assert all(point.on_event() is None for _ in range(10))
        assert not point.tripped
        assert point.events_seen == 10

    def test_disarm_stops_counting(self):
        point = NetCrashPoint(at_event=2)
        point.on_event()
        point.disarm()
        assert point.on_event() is None
        assert point.events_seen == 1

    def test_negative_at_event_rejected(self):
        with pytest.raises(ValueError):
            NetCrashPoint(at_event=-1)


class TestChaosPlan:
    def test_same_seed_same_decisions(self):
        cfg = ChaosConfig(seed=5, reset_prob=0.2, torn_prob=0.2,
                          delay_prob=0.0, split_prob=0.3)
        a = [ChaosPlan(cfg).on_frame() for _ in range(50)]
        b = [ChaosPlan(cfg).on_frame() for _ in range(50)]
        assert a == b
        assert any(kind is not None for kind in a)

    def test_crash_point_takes_priority_over_probabilities(self):
        plan = ChaosPlan(ChaosConfig(seed=1),
                         crash_point=NetCrashPoint(
                             at_event=1, kind=NetFaultKind.RESET_BEFORE))
        assert plan.on_frame() is NetFaultKind.RESET_BEFORE
        assert plan.injected["reset_before"] == 1

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(ChaosConfig(reset_prob=1.5))

    def test_split_points_are_valid_cuts(self):
        plan = ChaosPlan(ChaosConfig(seed=3))
        for n in (2, 10, 1000):
            cuts = plan.split_points(n)
            assert all(0 < c < n for c in cuts)
            assert cuts == sorted(cuts)


class _FakeSocket:
    """Records sendall payloads; close() flips a flag."""

    def __init__(self):
        self.sent: list[bytes] = []
        self.closed = False

    def sendall(self, data: bytes) -> None:
        self.sent.append(bytes(data))

    def close(self) -> None:
        self.closed = True


class TestChaosSocket:
    def _wired(self, kind: NetFaultKind):
        plan = ChaosPlan(crash_point=NetCrashPoint(at_event=1, kind=kind))
        fake = _FakeSocket()
        return fake, ChaosSocket(fake, plan)

    def test_split_delivers_all_bytes_in_order(self):
        fake, sock = self._wired(NetFaultKind.SPLIT)
        sock.sendall(b"hello world payload")
        assert b"".join(fake.sent) == b"hello world payload"
        assert len(fake.sent) > 1
        assert not fake.closed

    def test_torn_sends_a_strict_prefix_and_dies(self):
        fake, sock = self._wired(NetFaultKind.TORN)
        with pytest.raises(ConnectionResetError):
            sock.sendall(b"hello world payload")
        sent = b"".join(fake.sent)
        assert b"hello world payload".startswith(sent)
        assert len(sent) < len(b"hello world payload")
        assert fake.closed

    def test_reset_before_sends_nothing(self):
        fake, sock = self._wired(NetFaultKind.RESET_BEFORE)
        with pytest.raises(ConnectionResetError):
            sock.sendall(b"payload")
        assert fake.sent == []
        assert fake.closed

    def test_reset_after_delivers_frame_but_kills_silently(self):
        # the lost-ack window: the frame arrives, no exception is raised,
        # the caller discovers the dead line only on the response read
        fake, sock = self._wired(NetFaultKind.RESET_AFTER)
        sock.sendall(b"payload")
        assert b"".join(fake.sent) == b"payload"
        assert fake.closed

    def test_untripped_frames_pass_untouched(self):
        plan = ChaosPlan(crash_point=NetCrashPoint(
            at_event=2, kind=NetFaultKind.RESET_BEFORE))
        fake = _FakeSocket()
        sock = ChaosSocket(fake, plan)
        sock.sendall(b"first")
        assert fake.sent == [b"first"]


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = [0.0]
        b = CircuitBreaker(failure_threshold=3, reset_timeout_sec=1.0,
                           clock=lambda: clock[0])
        for _ in range(2):
            b.record_failure()
        assert b.state is BreakerState.CLOSED
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert not b.allow()
        assert b.opened_total == 1

    def test_success_resets_the_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state is BreakerState.CLOSED

    def test_half_open_admits_one_probe(self):
        clock = [0.0]
        b = CircuitBreaker(failure_threshold=1, reset_timeout_sec=1.0,
                           clock=lambda: clock[0])
        b.record_failure()
        assert not b.allow()
        clock[0] = 1.5
        assert b.state is BreakerState.HALF_OPEN
        assert b.allow()       # the probe
        assert not b.allow()   # only one probe at a time
        b.record_success()
        assert b.state is BreakerState.CLOSED
        assert b.allow()

    def test_failed_probe_reopens(self):
        clock = [0.0]
        b = CircuitBreaker(failure_threshold=1, reset_timeout_sec=1.0,
                           clock=lambda: clock[0])
        b.record_failure()
        clock[0] = 1.5
        assert b.allow()
        b.record_failure()
        assert not b.allow()
        assert b.opened_total == 2

    def test_pool_fails_fast_when_open(self):
        # nothing listens on the port; a pre-opened breaker means the
        # pool never even dials
        breaker = CircuitBreaker(failure_threshold=1,
                                 reset_timeout_sec=60.0)
        breaker.record_failure()
        remote = RemoteDatabase("127.0.0.1", 1, breaker=breaker)
        with pytest.raises(CircuitOpenError) as exc_info:
            remote.ping()
        assert exc_info.value.breaker is breaker
        assert remote.pool.stats.circuit_rejections == 1


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_expired_deadline_rejected_before_execution(self, endpoint):
        _db, server, host, port = endpoint()
        try:
            with ClientConnection(host, port) as conn:
                with pytest.raises(DeadlineExceededError):
                    conn.request(Command.PING, deadline_ms=0)
                # the connection survives a deadline rejection
                assert conn.request(Command.PING) == "pong"
            assert server.dispatch.stats.deadline_rejected >= 1
        finally:
            server.stop_in_background()

    def test_generous_deadline_passes(self):
        _db, server, host, port = _serve()
        try:
            with ClientConnection(host, port) as conn:
                assert conn.request(Command.PING,
                                    deadline_ms=10_000) == "pong"
            assert server.dispatch.stats.deadline_rejected == 0
        finally:
            server.stop_in_background()

    def test_client_budget_spans_retries(self):
        # a zero budget fails client-side without a round trip
        remote = RemoteDatabase("127.0.0.1", 1, deadline_ms=0)
        with pytest.raises(DeadlineExceededError):
            remote.pool.request(
                ClientConnection("127.0.0.1", 1), Command.PING)

    def test_deadline_counters_in_stats_payload(self, endpoint):
        _db, server, host, port = endpoint()
        try:
            with ClientConnection(host, port) as conn:
                with pytest.raises(DeadlineExceededError):
                    conn.request(Command.PING, deadline_ms=0)
            payload = server.stats_payload()
            assert payload["deadline_rejected"] >= 1
            assert payload["deadline_shed"] == 0
            assert payload["draining"] is False
        finally:
            server.stop_in_background()


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------

class TestGracefulDrain:
    def test_draining_refuses_new_sessions_but_finishes_txns(self, endpoint):
        db, server, host, port = endpoint(drain_timeout_sec=5.0)
        worker = RemoteDatabase(host, port)
        txn = worker.begin()
        ref = worker.insert(txn, "accounts", (1, "alice", 10.0))
        # a second client asks the server to stop: drain begins
        RemoteDatabase(host, port).shutdown_server()
        _wait_until(lambda: server.stats_payload()["draining"])
        # new sessions are refused with a typed wire status
        with pytest.raises(SessionError, match="shutting down"):
            RemoteDatabase(host, port).ping()
        assert server.sessions.stats.drain_refused >= 1
        # ...but the in-flight transaction may finish what it started
        assert worker.read(txn, "accounts", ref) == (1, "alice", 10.0)
        worker.commit(txn)
        worker.close()
        _wait_until(lambda: server._thread is None
                    or not server._thread.is_alive())
        server.stop_in_background()
        # the commit stuck: verify directly against the engine
        check = db.begin()
        rows = [row for _ref, row in db.scan(check, "accounts")]
        db.commit(check)
        assert rows == [(1, "alice", 10.0)]
        assert server.sessions.stats.drain_aborts == 0

    def test_drain_timeout_aborts_stragglers(self):
        db, server, host, port = _serve(drain_timeout_sec=0.2)
        worker = RemoteDatabase(host, port)
        txn = worker.begin()
        worker.insert(txn, "accounts", (1, "alice", 10.0))
        RemoteDatabase(host, port).shutdown_server()
        _wait_until(lambda: server._thread is None
                    or not server._thread.is_alive())
        server.stop_in_background()
        assert server.sessions.stats.drain_aborts >= 1
        _commits, _aborts, active = db.txn_mgr.counters()
        assert active == 0
        assert db.txn_mgr.locks.held_count() == 0
        check = db.begin()
        assert list(db.scan(check, "accounts")) == []
        db.commit(check)

    def test_dml_for_unowned_txn_refused_during_drain(self):
        _db, server, host, port = _serve(drain_timeout_sec=2.0)
        worker = RemoteDatabase(host, port)
        txn = worker.begin()
        RemoteDatabase(host, port).shutdown_server()
        _wait_until(lambda: server.stats_payload()["draining"])
        # BEGIN starts *new* work: refused while draining
        with pytest.raises(SessionError, match="shutting down"):
            worker.begin()
        worker.abort(txn)
        worker.close()
        server.stop_in_background()


# ---------------------------------------------------------------------------
# ambiguous commits (the lost-ack window), on both engines
# ---------------------------------------------------------------------------

class TestAmbiguousCommit:
    @pytest.mark.parametrize("kind", [EngineKind.SIASV, EngineKind.SI],
                             ids=["sias-v", "si"])
    def test_ack_lost_after_commit_resolves_committed_once(self, kind):
        db, server, host, port = _serve(kind)
        # frames on the chaos client: BEGIN=1, INSERT=2, COMMIT=3; the
        # commit frame arrives but its ack is lost
        plan = ChaosPlan(crash_point=NetCrashPoint(
            at_event=3, kind=NetFaultKind.RESET_AFTER))
        remote = RemoteDatabase(host, port, chaos=plan)
        try:
            txn = remote.begin()
            remote.insert(txn, "accounts", (1, "alice", 10.0))
            with pytest.raises(CommitUncertainError) as exc_info:
                remote.commit(txn)
            assert exc_info.value.txid == txn.txid
            assert remote.pool.stats.uncertain_commits == 1
            # resolution runs on a fresh connection and is deterministic
            assert remote.resolve_commit(exc_info.value.txid) == "committed"
            assert remote.txn_status(txn.txid) == "committed"
            # exactly once: the row exists exactly one time
            check = remote.begin()
            rows = [row for _ref, row in remote.scan(check, "accounts")]
            remote.commit(check)
            assert rows == [(1, "alice", 10.0)]
        finally:
            remote.close()
            server.stop_in_background()

    @pytest.mark.parametrize("kind", [EngineKind.SIASV, EngineKind.SI],
                             ids=["sias-v", "si"])
    def test_commit_never_sent_resolves_aborted(self, kind):
        db, server, host, port = _serve(kind)
        plan = ChaosPlan(crash_point=NetCrashPoint(
            at_event=3, kind=NetFaultKind.RESET_BEFORE))
        remote = RemoteDatabase(host, port, chaos=plan)
        try:
            txn = remote.begin()
            remote.insert(txn, "accounts", (1, "alice", 10.0))
            with pytest.raises(CommitUncertainError):
                remote.commit(txn)
            # the frame never arrived: the server aborts the orphan on
            # disconnect, and TXN_STATUS settles on "aborted"
            assert remote.resolve_commit(txn.txid) == "aborted"
            check = remote.begin()
            assert list(remote.scan(check, "accounts")) == []
            remote.commit(check)
        finally:
            remote.close()
            server.stop_in_background()

    def test_idempotent_command_retried_through_a_dead_connection(self):
        # the pooled connection dies ambiguously mid-TXN_STATUS (frame
        # sent, ack lost); the pool must re-run it on a fresh connection
        # — this is the path resolve_commit depends on
        _db, server, host, port = _serve()
        plan = ChaosPlan(crash_point=NetCrashPoint(
            at_event=1, kind=NetFaultKind.RESET_AFTER))
        remote = RemoteDatabase(host, port, chaos=plan)
        try:
            assert remote.txn_status(999_999) == "unknown"
            assert remote.pool.stats.ambiguous_retries == 1
        finally:
            remote.close()
            server.stop_in_background()

    def test_txn_status_unknown_for_unallocated_txid(self):
        _db, server, host, port = _serve()
        remote = RemoteDatabase(host, port)
        try:
            assert remote.txn_status(999_999) == "unknown"
        finally:
            remote.close()
            server.stop_in_background()


# ---------------------------------------------------------------------------
# idle reaper vs in-flight commands
# ---------------------------------------------------------------------------

class TestReaperInFlight:
    def test_long_command_is_not_reaped_mid_flight(self):
        db, server, host, port = _serve(idle_timeout_sec=0.2,
                                        reaper_interval_sec=0.05)
        original_tick = db.tick
        release = threading.Event()

        def slow_tick():
            release.wait(1.0)
            original_tick()

        db.tick = slow_tick
        remote = RemoteDatabase(host, port, pool_size=1)
        try:
            done: list[object] = []

            def call():
                remote.tick()
                done.append(True)

            t = threading.Thread(target=call)
            t.start()
            # several reaper intervals pass while the command executes;
            # the session must survive because a command is in flight
            time.sleep(0.5)
            assert server.sessions.stats.idle_closed == 0
            release.set()
            t.join(5.0)
            assert done == [True]
            # completion restarted the idle clock; the same connection
            # answers again before the (new) idle window closes
            assert remote.ping() == "pong"
        finally:
            db.tick = original_tick
            remote.close()
            server.stop_in_background()


# ---------------------------------------------------------------------------
# protocol hardening: seeded fuzz
# ---------------------------------------------------------------------------

class TestProtocolFuzz:
    def test_mutated_frames_raise_only_protocol_error(self):
        rng = make_rng(99, "chaos", "fuzz")
        seeds = [
            protocol.packb((1, int(Command.INSERT), (1, "t", (2, "x")))),
            protocol.packb((2, int(Command.READ), (5, "tbl", 7), 250)),
            protocol.packb({"k": (1, 2.5, None, b"\x00\xff")}),
            protocol.packb("x" * 300),
        ]
        for _ in range(600):
            data = bytearray(seeds[rng.randrange(len(seeds))])
            for _ in range(rng.randrange(1, 4)):
                op = rng.randrange(3)
                if op == 0 and data:         # flip a byte
                    data[rng.randrange(len(data))] = rng.randrange(256)
                elif op == 1 and data:       # truncate
                    del data[rng.randrange(len(data)):]
                else:                        # append garbage
                    data.extend(rng.randrange(256)
                                for _ in range(rng.randrange(1, 5)))
            try:
                protocol.unpackb(bytes(data))
            except ProtocolError:
                pass
            try:
                protocol.decode_request(bytes(data))
            except ProtocolError:
                pass

    def test_deep_nesting_rejected_not_recursion_error(self):
        deep = (b"\x91" * 200) + b"\x01"  # 200 nested one-element arrays
        with pytest.raises(ProtocolError, match="nest"):
            protocol.unpackb(deep)

    def test_request_with_bool_deadline_rejected(self):
        bad = protocol.packb((1, int(Command.PING), (), True))
        with pytest.raises(ProtocolError):
            protocol.decode_request(bad)

    def test_unhashable_map_key_rejected(self):
        # a map keyed by an array decodes to a tuple-of-dict key, which
        # is unhashable — must be a ProtocolError, not a TypeError
        payload = b"\x81" + b"\x91" + b"\x80" + b"\x01"
        with pytest.raises(ProtocolError):
            protocol.unpackb(payload)


# ---------------------------------------------------------------------------
# resilience counters end to end
# ---------------------------------------------------------------------------

class TestResilienceObservability:
    def test_snapshot_carries_service_and_client_counters(self):
        db, server, host, port = _serve()
        remote = RemoteDatabase(host, port)
        try:
            with ClientConnection(host, port) as conn:
                with pytest.raises(DeadlineExceededError):
                    conn.request(Command.PING, deadline_ms=0)
            snap = snapshot(db, server=server, client=remote)
            assert snap.deadline_rejections >= 1
            assert snap.breaker_state == "closed"
            assert snap.uncertain_commits == 0
            rendered = snap.render()
            assert "deadline rejected" in rendered
            assert "breaker" in rendered
        finally:
            remote.close()
            server.stop_in_background()

    def test_stats_payload_reports_session_drain_counters(self):
        _db, server, host, port = _serve()
        try:
            sessions = server.stats_payload()["sessions"]
            assert sessions["drain_refused"] == 0
            assert sessions["drain_aborts"] == 0
        finally:
            server.stop_in_background()
