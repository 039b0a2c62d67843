"""Executor offload with admission control, plus the per-command counters.

The storage engine underneath :class:`~repro.db.database.Database` is
synchronous; since the core latching work (txn mutex, per-frame buffer
latches, WAL append mutex, engine stripe latches) it is also thread-safe,
so the server runs commands on a *pool* of engine workers — by default
``min(4, cpu_count)`` — while the asyncio accept loop stays responsive.
The dispatcher still bounds the work the event loop is allowed to park in
front of the pool:

* ``max_in_flight`` commands may be submitted to the executor at once
  (an :class:`asyncio.Semaphore`);
* at most ``max_queue_depth`` further commands may wait for the semaphore.

A command arriving beyond both limits is **shed** with
:class:`~repro.common.errors.OverloadedError` before any work happens —
the retryable backpressure signal the client pool understands.  Shedding
instead of queueing without bound is what keeps an overloaded server
answering (the "tolerable load" lesson of the paper's Figure 5, applied to
the service layer).

Cleanup work (aborting a disconnected session's transactions) and cheap
control commands bypass admission via ``exempt=True`` but still count
against the in-flight bound, so the executor is never oversubscribed.

Two commands need more than thread safety: garbage collection and DDL
mutate structures that lock-free readers traverse without latches.  They
run on the **exclusive lane** (``exclusive=True``): the dispatcher drains
every executing command, runs the exclusive one alone, and only then
admits new work.  While an exclusive command waits, newly admitted
commands queue behind it (holding their in-flight slots), so a steady
stream of reads cannot starve maintenance.  The lane is implemented with
plain counters and :class:`asyncio.Event` — every mutation happens on the
event-loop thread, and the *leave* path is synchronous, so a cancelled
handler can never leak a gate token.

Short reads skip the executor altogether on the **inline lane**
(``inline=True``): the job passes the same deadline, admission, slot and
lane checks and is counted in ``admitted``, then ``fn`` runs directly on
the event-loop thread, saving the thread handoff that otherwise costs as
much as the command itself.  While it runs the loop serves nothing else,
so the rule is strict: inline work never waits on another transaction
(no item lock), never waits on the WAL group-commit condition, and is
bounded (no scans).  Snapshot-isolation readers take no locks, so BEGIN
and point reads qualify; the server names its inline set next to the
rule (``repro.server.server``).
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.common.errors import DeadlineExceededError, OverloadedError

T = TypeVar("T")


def default_executor_workers() -> int:
    """The default engine-worker pool size: ``min(4, cpu_count)``."""
    return min(4, os.cpu_count() or 1)


@dataclass
class CommandCounter:
    """Latency / throughput / shedding counters for one command.

    :class:`~repro.server.shell.WireServer` counts calls, outcomes and
    wall time around each handler; the :class:`Dispatcher` counts the
    sheds it decides.
    """

    calls: int = 0
    ok: int = 0
    errors: int = 0
    shed: int = 0
    total_wall_sec: float = 0.0
    max_wall_sec: float = 0.0

    def observe(self, elapsed_sec: float) -> None:
        """Record one completed call."""
        self.calls += 1
        self.total_wall_sec += elapsed_sec
        if elapsed_sec > self.max_wall_sec:
            self.max_wall_sec = elapsed_sec

    @property
    def mean_wall_sec(self) -> float:
        """Mean wall-clock latency of completed calls."""
        return self.total_wall_sec / self.calls if self.calls else 0.0

    def as_dict(self) -> dict[str, float]:
        """Wire-friendly view."""
        return {"calls": self.calls, "ok": self.ok, "errors": self.errors,
                "shed": self.shed,
                "mean_wall_usec": round(self.mean_wall_sec * 1e6, 1),
                "max_wall_usec": round(self.max_wall_sec * 1e6, 1)}


@dataclass
class DispatchStats:
    """Aggregate admission-control counters plus the per-command map.

    ``deadline_rejected`` counts commands whose deadline had already
    passed when they arrived; ``deadline_shed`` counts commands that
    expired *while queued* for a worker slot — both rejected before any
    engine work, so both are retryable from the client's point of view.
    """

    admitted: int = 0
    shed_total: int = 0
    exclusive_runs: int = 0
    deadline_rejected: int = 0
    deadline_shed: int = 0
    commands: dict[str, CommandCounter] = field(default_factory=dict)

    def of(self, name: str) -> CommandCounter:
        """The (auto-created) counter for one command name."""
        counter = self.commands.get(name)
        if counter is None:
            counter = self.commands[name] = CommandCounter()
        return counter

    def per_command(self) -> dict[str, dict[str, float]]:
        """Wire-friendly per-command snapshot."""
        return {name: counter.as_dict()
                for name, counter in sorted(self.commands.items())}


class Dispatcher:
    """Admission-controlled bridge from the event loop to the engine."""

    def __init__(self, max_in_flight: int = 8, max_queue_depth: int = 64,
                 executor_workers: int | None = None) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if executor_workers is None:
            executor_workers = default_executor_workers()
        if executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")
        self.max_in_flight = max_in_flight
        self.max_queue_depth = max_queue_depth
        self.executor_workers = executor_workers
        self.stats = DispatchStats()
        self._sem = asyncio.Semaphore(max_in_flight)
        self._waiting = 0
        # Exclusive-lane state.  Touched only from the event-loop thread:
        # no lock needed, and _leave_gate is synchronous so cancellation
        # between enter and leave cannot strand the lane closed.
        self._executing = 0
        self._exclusive_active = False
        self._exclusive_pending = 0
        self._lane_open = asyncio.Event()   # no exclusive active or waiting
        self._lane_open.set()
        self._drained = asyncio.Event()     # _executing just reached zero
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers,
            thread_name_prefix="repro-engine")
        self._closed = False

    # -- introspection -------------------------------------------------------

    @property
    def executing(self) -> int:
        """Commands currently running, on the executor or inline."""
        return self._executing

    @property
    def queued(self) -> int:
        """Commands waiting for an in-flight slot."""
        return self._waiting

    # -- dispatch ------------------------------------------------------------

    async def run(self, name: str, fn: Callable[[], T], *,
                  exempt: bool = False, exclusive: bool = False,
                  inline: bool = False,
                  deadline: float | None = None) -> T:
        """Run ``fn`` on the engine executor, or shed with ``OVERLOADED``.

        ``exempt`` skips the admission check (commit/abort, clock ticks,
        cleanup) but still occupies an in-flight slot.  ``exclusive``
        drains the executor and runs ``fn`` with no other command in
        flight — for work (GC, DDL) that restructures state lock-free
        readers traverse unlatched.  ``inline`` calls ``fn`` on the
        event-loop thread instead of handing it to the executor, after
        the same deadline, admission and lane checks — only for work that
        never waits on another thread and is bounded (see the module
        docstring).  ``deadline`` is an absolute
        ``time.monotonic`` instant: work that expired on arrival is
        rejected outright, work that expires while waiting for a slot is
        shed when the slot frees up — in both cases *before* the engine
        sees it, so ``DEADLINE_EXCEEDED`` is always retryable.
        """
        if self._closed:
            raise OverloadedError("dispatcher is shut down")
        if deadline is not None and time.monotonic() >= deadline:
            self.stats.deadline_rejected += 1
            raise DeadlineExceededError(
                f"{name}: deadline passed before dispatch")
        if (not exempt and self._sem.locked()
                and self._waiting >= self.max_queue_depth):
            self.stats.of(name).shed += 1
            self.stats.shed_total += 1
            raise OverloadedError(
                f"{name}: {self._executing} in flight, {self._waiting} "
                f"queued (limit {self.max_in_flight}+"
                f"{self.max_queue_depth}); retry after backoff")
        start = time.monotonic()
        self._waiting += 1
        try:
            await self._sem.acquire()
        finally:
            self._waiting -= 1
        if deadline is not None and time.monotonic() >= deadline:
            # the deadline lapsed while this command sat in the queue:
            # shed it now rather than burn a worker on dead work
            self._sem.release()
            self.stats.deadline_shed += 1
            raise DeadlineExceededError(
                f"{name}: deadline passed while queued "
                f"({time.monotonic() - start:.3f}s)")
        try:
            await self._enter_gate(exclusive)
            self.stats.admitted += 1
            if exclusive:
                self.stats.exclusive_runs += 1
            try:
                if inline:
                    return fn()
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(self._executor, fn)
            finally:
                self._leave_gate(exclusive)
        finally:
            self._sem.release()

    async def _enter_gate(self, exclusive: bool) -> None:
        if exclusive:
            self._exclusive_pending += 1
            self._lane_open.clear()
            try:
                while self._exclusive_active or self._executing > 0:
                    self._drained.clear()
                    await self._drained.wait()
                self._exclusive_active = True
            finally:
                # on success the active flag keeps the lane closed; on
                # cancellation this reopens it if we were the last waiter
                self._exclusive_pending -= 1
                if (not self._exclusive_active
                        and self._exclusive_pending == 0):
                    self._lane_open.set()
        else:
            while not self._lane_open.is_set():
                await self._lane_open.wait()
        self._executing += 1

    def _leave_gate(self, exclusive: bool) -> None:
        self._executing -= 1
        if exclusive:
            self._exclusive_active = False
            if self._exclusive_pending == 0:
                self._lane_open.set()
        if self._executing == 0:
            self._drained.set()

    def close(self) -> None:
        """Stop accepting work and drain the executor."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)
