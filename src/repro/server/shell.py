"""The asyncio wire-server shell shared by the node and the router.

:class:`WireServer` serves length-prefixed request frames on one socket.
Each accepted connection gets a :class:`~repro.server.session.Session`;
each frame is decoded, checked and handed to a command handler, whose
blocking work runs on the endpoint's
:class:`~repro.server.dispatch.Dispatcher`; the response echoes the
request id with a status code.  Lifecycle contracts, identical for every
endpoint because they are enforced only here:

* a connection's transactions never outlive it — disconnect, reset and
  idle timeout all abort the session's in-flight transactions before the
  session is forgotten;
* expired work never starts — a request whose deadline passed on arrival
  (or lapses while queued for a worker) gets the retryable
  ``DEADLINE_EXCEEDED`` status;
* ``SHUTDOWN`` (or SIGINT/SIGTERM under :meth:`WireServer.run`) starts a
  **graceful drain**: new sessions are refused with ``SHUTTING_DOWN``,
  existing sessions may finish their in-flight transactions (and nothing
  else) until ``drain_timeout_sec``, stragglers are aborted, and only
  then do the sockets close.

Subclasses (:class:`~repro.server.server.DatabaseServer`,
:class:`~repro.cluster.router.ClusterRouter`) supply one ``_cmd_<name>``
handler per served command and :meth:`~WireServer._abort_orphans`, and
optionally :meth:`~WireServer._write_refusal`,
:meth:`~WireServer._session_closed` and extensions of
:meth:`~WireServer.start` / :meth:`~WireServer.stop`.  Malformed operands
fail the validators below with :class:`ProtocolError`, answered with
``BAD_REQUEST``.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from typing import Callable, TypeVar

from repro.common.errors import ProtocolError
from repro.pages.layout import Tid
from repro.server.dispatch import Dispatcher
from repro.server.protocol import (
    Command,
    Status,
    decode_request,
    encode_response,
    error_payload,
    frame_length,
    status_for_exception,
)
from repro.server.session import Session, SessionManager

T = TypeVar("T")

#: Commands a *draining* endpoint still serves unconditionally: finishing
#: work, fate queries for ambiguous commits, liveness and observability.
#: DML is additionally allowed when it references a transaction the
#: session already has in flight (see :meth:`WireServer._execute`) — the
#: drain contract is "finish what you started, start nothing new".
_DRAIN_ALLOWED = frozenset({
    Command.PING, Command.COMMIT, Command.ABORT, Command.TXN_STATUS,
    Command.STATS, Command.SHUTDOWN,
    Command.PREPARE_TXN, Command.COMMIT_PREPARED, Command.ABORT_PREPARED,
    Command.CLOSED_TS, Command.WAL_SUBSCRIBE, Command.WAL_FETCH,
    Command.WAL_UNSUBSCRIBE, Command.BACKUP_BEGIN, Command.BACKUP_FETCH,
    Command.BACKUP_END,
})


# -- wire-argument validation ------------------------------------------------

def arity(args: tuple, n: int) -> tuple:
    if len(args) != n:
        raise ProtocolError(f"expected {n} argument(s), got {len(args)}")
    return args


def as_int(value: object, what: str = "integer") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"expected {what}, got {value!r}")
    return value


def as_str(value: object, what: str = "string") -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"expected {what}, got {value!r}")
    return value


def as_row(value: object) -> tuple:
    if not isinstance(value, tuple):
        raise ProtocolError(f"expected row tuple, got {value!r}")
    return value


def as_rows(value: object) -> list[tuple]:
    if not isinstance(value, tuple):
        raise ProtocolError(f"expected rows tuple, got {value!r}")
    return [as_row(row) for row in value]


def as_ref(value: object) -> object:
    if isinstance(value, bool) or not isinstance(value, (int, Tid)):
        raise ProtocolError(f"expected item handle, got {value!r}")
    return value


def as_predicate(value: object) -> tuple | None:
    if value is None:
        return None
    if (not isinstance(value, tuple) or len(value) != 3
            or not isinstance(value[0], str)
            or not isinstance(value[1], str)):
        raise ProtocolError(
            f"expected (column, op, value) predicate, got {value!r}")
    return value


def begin_args(args: tuple) -> tuple[bool, int | None]:
    """BEGIN's operands: ``(serializable,)`` or ``(serializable, at_ts)``.

    Wire-compatible arity growth: the original single-operand form keeps
    a fresh snapshot; the second operand pins it to an externally
    supplied closed read timestamp (``None`` ⇒ fresh snapshot).
    """
    if len(args) == 1:
        return bool(args[0]), None
    serializable, at_ts = arity(args, 2)
    return bool(serializable), (None if at_ts is None
                                else as_int(at_ts, "at_ts"))


def claim(session: Session, txid: object):
    """The session's transaction named by a ``txid`` operand."""
    return session.claim(as_int(txid, "txid"))


class WireServer:
    """One listening socket serving length-prefixed request frames.

    ``config`` supplies ``host``, ``port``, ``idle_timeout_sec``,
    ``reaper_interval_sec`` and ``drain_timeout_sec``.  ``chaos`` is a
    :class:`repro.server.chaos.ChaosPlan` wrapping every accepted
    connection's writer (faulting *response* frames), or None for the
    plain asyncio stream path.
    """

    #: how the endpoint names itself in refusals, thread names and logs
    role = "server"
    #: commands that bypass admission control (they still occupy an
    #: in-flight slot, so the executor is never oversubscribed)
    exempt_commands: frozenset = frozenset()
    #: commands that run alone on the dispatcher's exclusive lane
    exclusive_commands: frozenset = frozenset()
    #: commands whose work runs on the event-loop thread instead of the
    #: executor (see :mod:`repro.server.dispatch` for the rule)
    inline_commands: frozenset = frozenset()

    def __init__(self, config, dispatch: Dispatcher,
                 chaos: object | None = None) -> None:
        self.config = config
        self.dispatch = dispatch
        self.chaos = chaos
        self.sessions = SessionManager(config.idle_timeout_sec)
        self.address: tuple[str, int] | None = None
        #: command → ``async (session, args)``: a ``_cmd_<name>`` method
        #: serves the command of that name
        self._handlers: dict[int, Callable] = {
            command: getattr(self, f"_cmd_{command.name.lower()}")
            for command in Command
            if hasattr(self, f"_cmd_{command.name.lower()}")}
        self._server: asyncio.Server | None = None
        self._stop_event: asyncio.Event | None = None
        #: drain phase: refuse new sessions, let in-flight txns finish
        self._draining = False
        #: final teardown: connection loops exit, sockets close
        self._closing = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._reaper_task: asyncio.Task | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._handler_tasks: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self._started_monotonic = 0.0

    # -- subclass hooks ------------------------------------------------------

    async def _abort_orphans(self, orphans: list) -> None:
        """Roll back a closed session's in-flight transactions."""
        raise NotImplementedError

    def _write_refusal(self, command: int) -> BaseException | None:
        """The error refusing ``command`` in the endpoint's role, if any."""
        return None

    def _session_closed(self, session: Session) -> None:
        """Release what a dying session holds besides its transactions."""

    def _banner(self) -> str:
        host, port = self.address  # type: ignore[misc]
        return f"repro {self.role} listening on {host}:{port}"

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listening socket; returns the bound ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started_monotonic = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], sock[1])
        self._reaper_task = asyncio.create_task(self._reaper())
        return self.address

    def request_stop(self) -> None:
        """Ask the serve loop to wind down (safe from the loop thread).

        Flips the endpoint into the *draining* phase immediately: new
        sessions are refused, existing ones may only finish what they
        started.  The actual teardown happens in :meth:`stop`.
        """
        self._draining = True
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop`, then tear everything down."""
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Drain gracefully, abort stragglers, then close everything.

        The listener stays **open** during the drain so a late-arriving
        client gets a ``SHUTTING_DOWN`` wire status (a signal it can act
        on) instead of a bare connection refusal.
        """
        if self._server is None:
            return
        self.request_stop()
        await self._drain()
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper_task
            self._reaper_task = None
        for writer in list(self._writers.values()):
            writer.close()
        if self._handler_tasks:
            # handlers abort their orphaned transactions on the way out
            await asyncio.wait(self._handler_tasks, timeout=5.0)
        self.dispatch.close()

    async def _drain(self) -> None:
        """Wait for in-flight transactions to finish; abort the rest.

        "In flight" means both open transactions (a session may be
        between commands of one) and commands currently executing.  The
        wait is bounded by ``drain_timeout_sec``; whatever remains is
        aborted so locks release and undo runs before the sockets close.
        """
        deadline = time.monotonic() + self.config.drain_timeout_sec
        while time.monotonic() < deadline:
            if (self.sessions.in_flight_txns() == 0
                    and self.dispatch.executing == 0):
                return
            await asyncio.sleep(0.02)
        for session in list(self.sessions):
            if session.txns:
                self.sessions.stats.drain_aborts += len(session.txns)
                writer = self._writers.pop(session.session_id, None)
                if writer is not None:
                    writer.close()
                await self._abort_orphans(self.sessions.close(session))

    def run(self) -> int:
        """Foreground serve loop; returns 0 on clean stop."""
        async def main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(signum, self.request_stop)
            print(self._banner(), flush=True)
            await self.serve_until_stopped()

        asyncio.run(main())
        return 0

    def start_in_background(self) -> tuple[str, int]:
        """Serve from a dedicated thread; returns once the port is bound.

        For embedding (tests, examples): the caller's thread stays free to
        run clients against :attr:`address`.  Pair with
        :meth:`stop_in_background`.
        """
        ready = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            async def main() -> None:
                await self.start()
                ready.set()
                await self.serve_until_stopped()
            try:
                asyncio.run(main())
            except BaseException as exc:  # surfaced to the caller below
                failure.append(exc)
            finally:
                ready.set()

        self._thread = threading.Thread(target=runner,
                                        name=f"repro-{self.role}",
                                        daemon=True)
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise TimeoutError(f"{self.role} did not start within 10s")
        if failure:
            raise failure[0]
        assert self.address is not None
        return self.address

    def stop_in_background(self, timeout: float = 10.0) -> None:
        """Stop a :meth:`start_in_background` endpoint and join its
        thread."""
        if self._thread is None:
            return
        if self._loop is not None and not self._loop.is_closed():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.request_stop)
        self._thread.join(timeout)
        self._thread = None

    # -- monitoring ----------------------------------------------------------

    def command_stats(self) -> tuple:
        """Per-command counters in :mod:`repro.db.monitor` shape."""
        # imported here, not at module top: repro.db.monitor reaches the
        # experiments package (for rendering), which reaches back into the
        # service layer via the chaos sweep — a top-level import would be
        # circular
        from repro.db.monitor import CommandStat

        return tuple(CommandStat(command=name, **fields) for name, fields
                     in self.dispatch.stats.per_command().items())

    def stats_payload(self) -> dict:
        """The part of the ``STATS`` response every endpoint shares."""
        stats = self.dispatch.stats
        return {
            "uptime_sec": round(time.monotonic() - self._started_monotonic,
                                3),
            "in_flight": self.dispatch.executing,
            "admitted": stats.admitted,
            "shed_total": stats.shed_total,
            "deadline_rejected": stats.deadline_rejected,
            "deadline_shed": stats.deadline_shed,
            "draining": self._draining,
            "sessions": {"live": self.sessions.count(),
                         "in_flight_txns": self.sessions.in_flight_txns(),
                         **self.sessions.stats.as_dict()},
            "commands": stats.per_command(),
        }

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        if self._draining:
            await self._refuse_connection(reader, writer)
            if task is not None:
                self._handler_tasks.discard(task)
            return
        if self.chaos is not None:
            writer = self.chaos.wrap_stream_writer(writer)
        peer = writer.get_extra_info("peername")
        session = self.sessions.open(str(peer), time.monotonic())
        self._writers[session.session_id] = writer
        try:
            await self._serve_connection(session, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-frame: treated as a disconnect
        finally:
            self._writers.pop(session.session_id, None)
            self._session_closed(session)
            await self._abort_orphans(self.sessions.close(session))
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            if task is not None:
                self._handler_tasks.discard(task)

    async def _refuse_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Tell a client arriving during drain to go away, politely.

        Reads the first frame (briefly) so the refusal can echo its
        request id — giving the client pool a typed, retryable-elsewhere
        ``SHUTTING_DOWN`` instead of a connection reset.
        """
        self.sessions.stats.drain_refused += 1
        request_id = 0
        with contextlib.suppress(ConnectionError, ProtocolError,
                                 asyncio.IncompleteReadError,
                                 asyncio.TimeoutError):
            payload = await asyncio.wait_for(self._read_frame(reader),
                                             timeout=1.0)
            if payload is not None:
                request_id = decode_request(payload)[0]
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(encode_response(request_id, Status.SHUTTING_DOWN,
                                         f"{self.role} is draining"))
            await writer.drain()
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()

    async def _serve_connection(self, session: Session,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while not self._closing:
            payload = await self._read_frame(reader)
            if payload is None:
                return
            now = time.monotonic()
            try:
                request_id, command, args, deadline_ms = (
                    decode_request(payload))
            except ProtocolError as exc:
                writer.write(encode_response(0, Status.BAD_REQUEST,
                                             error_payload(exc)))
                await writer.drain()
                return  # a desynchronised stream cannot be resumed
            # One request at a time per connection, so the session can
            # carry the in-flight command's absolute deadline.
            session.deadline = (None if deadline_ms is None
                                else now + deadline_ms / 1000.0)
            session.begin_command(now)
            try:
                status, result = await self._execute(session, command, args)
            finally:
                session.end_command(time.monotonic())
                session.deadline = None
            writer.write(encode_response(request_id, status, result))
            await writer.drain()
            if command == Command.SHUTDOWN and status == Status.OK:
                self.request_stop()
                return
            if self._draining and not session.txns:
                # drained: this session has nothing left to finish
                return

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> bytes | None:
        """One frame payload, or None on clean EOF between frames."""
        try:
            header = await reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        return await reader.readexactly(frame_length(header))

    async def _execute(self, session: Session, command: int,
                       args: tuple) -> tuple[Status, object]:
        handler = self._handlers.get(command)
        if handler is None:
            return Status.BAD_REQUEST, f"unknown command {command}"
        name = Command(command).name
        if (session.deadline is not None
                and time.monotonic() >= session.deadline):
            # Checked here — not only inside the dispatcher — so commands
            # that never reach a worker slot (PING, STATS) still honour
            # the caller's budget.
            self.dispatch.stats.deadline_rejected += 1
            return (Status.DEADLINE_EXCEEDED,
                    f"{name}: deadline passed on arrival")
        refusal = self._write_refusal(command)
        if refusal is not None:
            return status_for_exception(refusal), error_payload(refusal)
        if self._draining and command not in _DRAIN_ALLOWED:
            # DML against a transaction this session already has in
            # flight may still run — "finish what you started".  Every
            # txn-scoped command carries the txid first; bool is excluded
            # because BEGIN's first argument is a flag, not a txid.
            owned = (args and isinstance(args[0], int)
                     and not isinstance(args[0], bool)
                     and args[0] in session.txns)
            if not owned:
                return Status.SHUTTING_DOWN, f"{self.role} is draining"
        counter = self.dispatch.stats.of(name)
        started = time.monotonic()
        try:
            result = await handler(session, args)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            counter.errors += 1
            return status_for_exception(exc), error_payload(exc)
        else:
            counter.ok += 1
            return Status.OK, result
        finally:
            counter.observe(time.monotonic() - started)

    async def _cmd_shutdown(self, _session: Session, args: tuple) -> None:
        """Acknowledge; :meth:`_serve_connection` then starts the drain."""
        arity(args, 0)

    async def _run(self, session: Session | None, command: Command,
                   fn: Callable[[], T]) -> T:
        """Run blocking work for ``command`` on the dispatcher."""
        return await self.dispatch.run(
            command.name, fn, exempt=command in self.exempt_commands,
            exclusive=command in self.exclusive_commands,
            inline=command in self.inline_commands,
            deadline=None if session is None else session.deadline)

    async def _reaper(self) -> None:
        """Close sessions that out-idled the timeout (aborting their txns)."""
        interval = self.config.reaper_interval_sec
        if self.config.idle_timeout_sec > 0:
            interval = min(interval, self.config.idle_timeout_sec / 4)
        interval = max(interval, 0.02)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for session in self.sessions.idle_sessions(now):
                self.sessions.stats.idle_closed += 1
                self._session_closed(session)
                await self._abort_orphans(self.sessions.close(session))
                writer = self._writers.pop(session.session_id, None)
                if writer is not None:
                    writer.close()
