"""Closed-loop multi-client workload driver over simulated time.

``clients`` transactions are in flight at once; the driver advances them
round-robin one *step* (the generators' yield granularity) at a time, so
their snapshots overlap and write-write conflicts occur exactly as they
would under real concurrency.  Every step charges a fixed CPU cost to the
simulated clock on top of whatever device time the step's I/O consumed;
committed NewOrders per simulated minute is the NOTPM the experiments
report.

Failure handling mirrors DBT2: a serialization abort (first-updater-wins
loser) is recorded and the client immediately starts a fresh transaction;
the TPC-C 1 %-invalid-item rollback is recorded as a (successful-looking)
rollback, not an error.  Periodic maintenance (GC / VACUUM) runs on a
simulated-time interval, like autovacuum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import units
from repro.common.errors import SerializationError
from repro.common.rng import NURand, make_rng
from repro.db.database import Database
from repro.txn.manager import Transaction
from repro.workload.metrics import Metrics, TxnOutcome
from repro.workload.mixes import PROFILES, STANDARD_MIX, TxnType, validate_mix
from repro.workload.tpcc_schema import TpccScale
from repro.workload.tpcc_txns import SpecRollback, TpccContext


@dataclass
class DriverConfig:
    """Driver knobs.

    ``think_time_usec`` inserts a pause between a client's transactions
    (DBT2's keying/think time).  With think time large relative to service
    time the offered load becomes rate-limited instead of capacity-limited —
    the control the write-volume experiments need so both engines process
    the same work over the same window.
    """

    clients: int = 8
    cpu_per_step_usec: int = 50
    think_time_usec: int = 0
    maintenance_interval_usec: int = 60 * units.SEC
    mix: dict[TxnType, float] = field(
        default_factory=lambda: dict(STANDARD_MIX))

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.cpu_per_step_usec < 0:
            raise ValueError("negative CPU cost")
        if self.think_time_usec < 0:
            raise ValueError("negative think time")
        validate_mix(self.mix)


@dataclass
class _ClientSlot:
    """One in-flight transaction of one simulated client."""

    generator: object
    txn: Transaction
    type: TxnType
    start_usec: int


class TpccDriver:
    """Runs the TPC-C-style mix against one database."""

    def __init__(self, db: Database, warehouses: int,
                 scale: TpccScale | None = None,
                 config: DriverConfig | None = None,
                 seed: int = 42) -> None:
        self.db = db
        self.config = config or DriverConfig()
        self.config.validate()
        rng = make_rng(seed, "driver")
        self.ctx = TpccContext(db=db, scale=scale or TpccScale(),
                               warehouses=warehouses, rng=rng,
                               nurand=NURand(make_rng(seed, "nurand")))
        self._mix_types = list(self.config.mix.keys())
        self._mix_weights = [self.config.mix[t] for t in self._mix_types]
        self.metrics = Metrics()
        self._slots: list[_ClientSlot | None] = [None] * self.config.clients
        self._eligible_at: list[int] = [db.clock.now] * self.config.clients
        self._next_maintenance = (db.clock.now
                                  + self.config.maintenance_interval_usec)
        self.maintenance_runs = 0

    # -- client lifecycle -----------------------------------------------------

    def _start_txn(self) -> _ClientSlot:
        type_ = self.ctx.rng.choices(self._mix_types,
                                     weights=self._mix_weights)[0]
        txn = self.db.begin()
        generator = PROFILES[type_](self.ctx, txn)
        return _ClientSlot(generator=generator, txn=txn, type=type_,
                           start_usec=self.db.clock.now)

    def _finish(self, slot: _ClientSlot, committed: bool,
                spec_rollback: bool = False,
                serialization_abort: bool = False) -> None:
        if committed:
            self.db.commit(slot.txn)
        else:
            self.db.abort(slot.txn)
        self.metrics.record(TxnOutcome(
            type=slot.type,
            committed=committed,
            response_usec=self.db.clock.now - slot.start_usec,
            spec_rollback=spec_rollback,
            serialization_abort=serialization_abort,
        ), finished_at_usec=self.db.clock.now)

    def _step(self, index: int) -> bool:
        """Advance one client one step; returns True if a txn finished."""
        slot = self._slots[index]
        if slot is None:
            slot = self._slots[index] = self._start_txn()
            self._eligible_at[index] = self.db.clock.now
        self.db.clock.advance(self.config.cpu_per_step_usec)
        try:
            next(slot.generator)
        except StopIteration:
            self._finish(slot, committed=True)
            self._finish_slot(index)
            return True
        except SpecRollback:
            self._finish(slot, committed=False, spec_rollback=True)
            self._finish_slot(index)
            return True
        except SerializationError:
            self._finish(slot, committed=False, serialization_abort=True)
            self._finish_slot(index)
            return True
        return False

    def _finish_slot(self, index: int) -> None:
        """Mark a client idle and schedule its next arrival."""
        self._slots[index] = None
        self._eligible_at[index] = (self.db.clock.now
                                    + self.config.think_time_usec)

    def _round(self) -> None:
        """One scheduling round over all clients.

        Clients still in think time are skipped; when everyone is thinking
        the clock jumps to the earliest arrival (idle system).
        """
        progressed = False
        for index in range(self.config.clients):
            if (self._slots[index] is None
                    and self.db.clock.now < self._eligible_at[index]):
                continue
            self._step(index)
            progressed = True
        if not progressed:
            self.db.clock.advance_to(min(self._eligible_at))

    # -- run loops -------------------------------------------------------------------

    def run_for(self, duration_usec: int) -> Metrics:
        """Run until the simulated clock advances by ``duration_usec``."""
        clock = self.db.clock
        self._open_window()
        deadline = clock.now + duration_usec
        while clock.now < deadline:
            self._round()
            self._background()
        self._drain()
        self.metrics.end_usec = clock.now
        return self.metrics

    def run_transactions(self, count: int) -> Metrics:
        """Run until ``count`` transactions finished (commit or abort)."""
        clock = self.db.clock
        self._open_window()
        while len(self.metrics.outcomes) < count:
            self._round()
            self._background()
        self._drain()
        self.metrics.end_usec = clock.now
        return self.metrics

    def _open_window(self) -> None:
        """Start the measured window at the first run call only.

        Later calls extend the window: the metrics keep every earlier
        outcome, so restarting the span would divide all of them by the
        last call's time alone and inflate the rates.
        """
        if not self.metrics.outcomes:
            self.metrics.start_usec = self.db.clock.now

    def _drain(self) -> None:
        """Finish every in-flight transaction (closed books at run end)."""
        for index in range(self.config.clients):
            while self._slots[index] is not None:
                self._step(index)

    def _background(self) -> None:
        self.db.tick()
        if self.db.clock.now >= self._next_maintenance:
            self._next_maintenance += self.config.maintenance_interval_usec
            self.db.maintenance()
            self.maintenance_runs += 1
