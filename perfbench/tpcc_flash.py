"""``tpcc-flash``: the paper's workload, embedded, with a WAL-shipping replica.

A SIAS-V ``Database`` on the ``ssd_raid2`` setup (two striped SSDs, a
192-page = 1.5 MiB buffer pool) holds 8 TPC-C warehouses, more data than
the pool holds.  ``TpccDriver`` runs the standard mix with 8 simulated
clients interleaved in one thread.  A ``WalFollower`` on its own
``Database`` (same setup) subscribes to a ``ReplicationHub`` on the leader
before the load and is caught up after every batch of transactions; its
time is kept apart from the driver's.

After each batch the benchmark also runs a short accounts mix (lookup,
one-row update, two-row transfer) on the same leader, so the transaction
shapes of the wire workloads are measured on the embedded layer too.  Its
simulated time is left out of the simulated window.

Fixed work: ``TPCC_TXNS_PER_SEC * seconds`` TPC-C transactions in
batches of ``BATCH``.  GC runs ``GC_PASSES`` times, at fixed batches, on
the leader and then on the replica, called by the benchmark (the
driver's simulated-time interval is switched off, so the GC count does not
depend on simulated time).  GC time is reported on its own, not as driver
time.

Simulated metrics are computed over the benchmark's own window.
``TpccDriver.run_transactions`` resets ``Metrics.start_usec`` on every
call, so ``Metrics.notpm()`` after batched calls covers only the last
batch's simulated span (over 10x too high); it is not used here.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.common import units
from repro.db.database import EngineKind
from repro.experiments import harness
from repro.replication import ReplicationHub, WalFollower
from repro.workload import consistency
from repro.workload.driver import DriverConfig, TpccDriver
from repro.workload.metrics import percentile as sim_percentile
from repro.workload.mixes import TxnType
from repro.workload.tpcc_data import TpccLoader
from repro.workload.tpcc_schema import TpccScale, create_tpcc_tables

from perfbench import accounts
from perfbench.common import (KIB, MIB, Round, SpeedProbe, median_setup,
                              round_metrics, scaled_latencies,
                              self_peak_rss_mib)
from perfbench.trace import Tracer

WAREHOUSES = 8
CLIENTS = 8
TPCC_TXNS_PER_SEC = 350
BATCH = 50
SIDE_PER_BATCH = 30
SIDE_MIX = {"lookup": 0.6, "update": 0.2, "transfer": 0.2}
ACCOUNTS = 2_000
GC_PASSES = 2

DB_METHODS = ("begin", "lookup", "range_lookup", "read", "insert", "update",
              "delete", "commit", "abort")


class Stack:
    """One leader + replica pair, loaded and caught up."""

    def __init__(self, seed: int) -> None:
        setup = harness.ssd_raid2()
        self.setup = setup
        self.leader = harness.build_database(EngineKind.SIASV, setup)
        self.replica = harness.build_database(EngineKind.SIASV, setup)
        for db in (self.leader, self.replica):
            create_tpcc_tables(db)
            accounts.create_table(db)
        self.hub = ReplicationHub(self.leader)
        self.follower = WalFollower(self.replica, self.hub)
        self.follower.connect()
        self.scale = TpccScale()
        self.load = TpccLoader(self.leader, self.scale,
                               seed=seed).load(WAREHOUSES)
        self.balances = accounts.initial_balances(
            ACCOUNTS, random.Random(f"{seed}/balances"))
        txn = self.leader.begin()
        self.leader.bulk_insert(txn, accounts.TABLE,
                                sorted(self.balances.items()))
        self.leader.commit(txn)
        self.leader.maintenance()
        self.follower.catch_up()
        self.loaded_rows = self.load.rows + ACCOUNTS
        self.loaded_bytes = self.leader.total_space_bytes()


def _device_counters(db) -> dict:
    data = db.data_device.stats
    ftl = [m.ftl.stats for m in db.data_device.members]
    return {"data_reads": data.reads, "data_writes": data.writes,
            "data_read_bytes": data.read_bytes,
            "data_write_bytes": data.write_bytes,
            "data_busy_usec": data.busy_usec,
            "programs": sum(s.programs for s in ftl),
            "host_writes": sum(s.host_writes for s in ftl),
            "wal_write_bytes": db.wal.device.stats.write_bytes,
            "wal_busy_usec": db.wal.device.stats.busy_usec,
            "wal_forces": db.wal.forces,
            "hits": db.buffer.stats.hits, "misses": db.buffer.stats.misses,
            "evictions": db.buffer.stats.evictions,
            "writebacks": db.buffer.stats.writebacks,
            "lock_conflicts": db.txn_mgr.locks.stats.conflicts,
            "resolves": sum(r.engine.stats.resolves
                            for r in db.tables.values()),
            "chain_hops": sum(r.engine.stats.chain_hops
                              for r in db.tables.values())}


def _rows_by_table(db, txn) -> dict[str, list[tuple]]:
    return {name: sorted(tuple(row) for _ref, row in db.scan(txn, name))
            for name in db.tables}


def _check(stack: Stack, mirror: dict[int, int], total: int) -> list[str]:
    problems: list[str] = []
    leader, replica, follower = stack.leader, stack.replica, stack.follower
    report = consistency.check(leader)
    problems += [f"leader: {v}" for v in report.violations]
    txn = follower.begin_read()
    try:
        report = consistency.check(replica, txn)
        problems += [f"replica: {v}" for v in report.violations]
        replica_rows = _rows_by_table(replica, txn)
    finally:
        replica.commit(txn)
    txn = leader.begin()
    try:
        leader_rows = _rows_by_table(leader, txn)
    finally:
        leader.commit(txn)
    for name, rows in leader_rows.items():
        if replica_rows.get(name) != rows:
            problems.append(f"replica table {name} differs from the leader "
                            f"({len(replica_rows.get(name, []))} vs "
                            f"{len(rows)} rows)")
    problems += accounts.check_final(leader, [mirror], total, ACCOUNTS)
    return problems


def _trace(tracer: Tracer, stack: Stack) -> None:
    leader = stack.leader
    for name in DB_METHODS:
        tracer.wrap_method(leader, name, f"db.{name}")
    tracer.wrap_method(leader, "maintenance", "db.maintenance")
    tracer.wrap_method(leader, "tick", "db.tick")
    tracer.wrap_method(leader.wal, "log_commit", "wal.log_commit")
    tracer.wrap_method(stack.hub, "fetch", "hub.fetch")
    tracer.wrap_method(stack.follower, "catch_up", "follower.catch_up")


def run(seed: int, seconds: int, trace: bool) -> dict:
    """Set up, measure the fixed work, check, and report."""
    stack, setup_s, setup_times = median_setup(lambda: Stack(seed),
                                               lambda _stack: None)
    leader, follower = stack.leader, stack.follower
    tracer = Tracer() if trace else None
    if tracer is not None:
        _trace(tracer, stack)

    ids = list(range(ACCOUNTS))
    side = accounts.AccountsClient(
        leader, dict(stack.balances), ids, [ids[0::2], ids[1::2]],
        SIDE_MIX, random.Random(f"{seed}/accounts"))
    driver = TpccDriver(leader, WAREHOUSES, stack.scale,
                        config=DriverConfig(
                            clients=CLIENTS,
                            maintenance_interval_usec=10**15),
                        seed=seed)
    batches = max(GC_PASSES, TPCC_TXNS_PER_SEC * seconds // BATCH)
    gc_every = batches // GC_PASSES
    gc_reports = []

    before = _device_counters(leader)
    commits0, aborts0, _ = leader.txn_mgr.counters()
    frames0 = follower.frames
    records0 = follower.applied_records
    sim_start = leader.clock.now
    side_s = catch_up_s = gc_s = replica_gc_s = 0.0
    side_sim = 0
    # each batch is a scaling window: its driver time and its accounts
    # latencies are scaled by the probe taken right after it
    windows: list[Round] = []
    probe = SpeedProbe()
    outcomes = driver.metrics.outcomes
    for batch in range(1, batches + 1):
        seen = len(outcomes)
        started = time.perf_counter()
        driver.run_transactions(batch * BATCH)
        driver_batch_s = time.perf_counter() - started
        started, sim_before = time.perf_counter(), leader.clock.now
        side_batch = side.run(SIDE_PER_BATCH)
        side_s += time.perf_counter() - started
        side_sim += leader.clock.now - sim_before
        started = time.perf_counter()
        follower.catch_up()
        catch_up_s += time.perf_counter() - started
        probe.sample()
        windows.append(Round(driver_batch_s,
                             sum(o.committed for o in outcomes[seen:]),
                             side_batch.latencies_s, probe.take()))
        if batch % gc_every == 0:
            started = time.perf_counter()
            gc_reports.extend(leader.maintenance().values())
            gc_s += time.perf_counter() - started
            # the replica runs the same GC schedule as its leader
            started = time.perf_counter()
            stack.replica.maintenance()
            replica_gc_s += time.perf_counter() - started
    sim_end = leader.clock.now
    # close the books: seal partial pages and checkpoint, as run_tpcc does
    leader.shutdown()
    started = time.perf_counter()
    follower.catch_up()
    catch_up_s += time.perf_counter() - started
    after = _device_counters(leader)
    commits1, aborts1, _ = leader.txn_mgr.counters()
    applied = follower.applied_records - records0
    frames = follower.frames - frames0
    if tracer is not None:
        tracer.restore()

    side_result = side.result
    driver_s = sum(w.seconds for w in windows)
    tpcc_commits = driver.metrics.commits()
    ser_aborts = driver.metrics.serialization_aborts()
    committed = tpcc_commits + side_result.committed
    attempted = len(outcomes) + side_result.attempted
    problems = _check(stack, side.mirror,
                      sum(stack.balances.values()) + side_result.net_update)
    problems += side_result.check_failures[:5]
    failed = len(side_result.errors) + len(side_result.check_failures)
    sim_minutes = (sim_end - sim_start - side_sim) / units.MINUTE
    neworders = [o.response_usec for o in outcomes
                 if o.committed and o.type is TxnType.NEW_ORDER]
    d = {k: after[k] - before[k] for k in after}

    metrics = {
        "setup_s": setup_s,
        **round_metrics(windows, accounts.KINDS),
        "ok_ratio": (attempted - failed - ser_aborts) / attempted,
        "sim_tpm": tpcc_commits / sim_minutes,
        "data_write_kib_per_txn": d["data_write_bytes"] / KIB / committed,
        "wal_kib_per_txn": d["wal_write_bytes"] / KIB / committed,
        "space_mib": leader.total_space_bytes() / MIB,
        "peak_rss_mib": self_peak_rss_mib(),
    }
    sim_notpm = len(neworders) / sim_minutes
    sim_p90 = sim_percentile(neworders, 0.90) / 1000.0
    apply_rps = applied / catch_up_s

    layers: dict[str, float] = {}
    if tracer is not None:
        for name in DB_METHODS:
            mean, calls = tracer.mean_us(f"db.{name}")
            layers[f"db.{name}_us"] = mean
            layers[f"db.{name}_us.calls"] = calls
        for name in ("db.maintenance", "db.tick", "wal.log_commit",
                     "hub.fetch", "follower.catch_up"):
            mean, calls = tracer.mean_us(name)
            layers[f"{name}_us"] = mean
            layers[f"{name}_us.calls"] = calls
        apply_self, _ = tracer.mean_us("follower.catch_up", self_time=True)
        layers["follower.apply_self_us"] = apply_self
        layers["trace.spans"] = len(tracer.spans)
    examined = sum(r.pages_examined for r in gc_reports)
    reclaimed = sum(r.pages_reclaimed for r in gc_reports)
    hits, misses = d["hits"], d["misses"]
    layers.update({
        "wal.forces": d["wal_forces"],
        "wal.kib": d["wal_write_bytes"] / KIB,
        "wal.sim_busy_ms": d["wal_busy_usec"] / 1000.0,
        "buffer.hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "buffer.misses": misses,
        "buffer.evictions": d["evictions"],
        "buffer.writebacks": d["writebacks"],
        "data.reads": d["data_reads"],
        "data.writes": d["data_writes"],
        "data.read_kib": d["data_read_bytes"] / KIB,
        "data.write_kib": d["data_write_bytes"] / KIB,
        "data.sim_busy_ms": d["data_busy_usec"] / 1000.0,
        "data.write_amp": (d["programs"] / d["host_writes"]
                           if d["host_writes"] else 1.0),
        "gc.pages_reclaimed": reclaimed,
        "gc.useful_ratio": reclaimed / examined if examined else 0.0,
        "core.chain_hops_per_resolve": (d["chain_hops"] / d["resolves"]
                                        if d["resolves"] else 0.0),
        "txn.commits": commits1 - commits0,
        "txn.aborts": aborts1 - aborts0,
        "txn.serialization_aborts": ser_aborts,
        "txn.lock_conflicts": d["lock_conflicts"],
        "follower.frames": frames,
        "follower.records": applied,
        "follower.records_per_frame": applied / frames if frames else 0.0,
        "follower.apply_rps": apply_rps,
        "tpcc.sim_notpm": sim_notpm,
        "tpcc.sim_neworder_p90_ms": sim_p90,
        "traced.txn_per_s": metrics["txn_per_s"],
    })

    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems + side_result.errors[:5],
        "metrics": metrics,
        "layers": layers,
        "tracer": tracer,
        "info": {
            "process_layout": "one process: benchmark, leader and replica "
                              "Databases, no server",
            "buffer_pool_pages": stack.setup.config.buffer.pool_pages,
            "buffer_pool_mib": stack.setup.config.buffer.pool_pages
            * stack.setup.config.buffer.page_size / MIB,
            "data_devices": f"{stack.setup.members}-SSD stripe",
            "warehouses": WAREHOUSES, "simulated_clients": CLIENTS,
            "rows_loaded": stack.loaded_rows,
            "data_mib_after_load": stack.loaded_bytes / MIB,
            "data_to_pool": stack.loaded_bytes
            / (stack.setup.config.buffer.pool_pages
               * stack.setup.config.buffer.page_size),
            "tpcc_txns": len(outcomes), "tpcc_commits": tpcc_commits,
            "serialization_aborts": ser_aborts,
            "failed_ratio": (failed + ser_aborts) / attempted,
            "accounts_txns": side_result.attempted,
            "batches": batches, "gc_passes": GC_PASSES,
            "gc_s": gc_s, "replica_gc_s": replica_gc_s,
            "probe_ms_median": statistics.median(probe.history) * 1000,
            "unscaled": round_metrics(windows, accounts.KINDS, scaled=False),
            "setup_times_s": setup_times,
            "driver_s": driver_s, "accounts_s": side_s,
            "driver_scaled_s": sum(w.seconds * w.scale for w in windows),
            "catch_up_s": catch_up_s,
            "catch_up_share": catch_up_s / (driver_s + side_s + catch_up_s),
            "sim_window_s": (sim_end - sim_start) / units.SEC,
            "accounts_sim_s": side_sim / units.SEC,
            "sim_notpm": sim_notpm,
            "sim_neworder_p90_ms": sim_p90,
            "replica_apply_rps": apply_rps,
            "latency_ms": scaled_latencies(windows, accounts.KINDS),
        },
    }
