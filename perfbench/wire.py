"""The measured part shared by the two wire workloads.

A stack (one node or one cluster) is driven by ``CLIENTS`` threads of the
accounts mix through one ``RemoteDatabase`` with one pooled connection per
client.  Counters come from the wire: ``SNAPSHOT`` for the engine below
the server, ``STATS`` for the server (and the router), each read before
and after the measured window.
"""

from __future__ import annotations

import random
import threading
import time

from repro.client.connection import ClientConnection
from repro.common import units

from perfbench import accounts
from perfbench.common import (KIB, MIB, EchoProbe, Round, command_delta,
                              median_setup, round_metrics, scaled_latencies)
from perfbench.trace import Tracer

CLIENTS = 2
#: the fixed work runs in this many rounds, with the echo probe sampled
#: between them
ROUNDS = 20
CLIENT_METHODS = ("begin", "lookup", "update", "commit", "abort")
TXN_COMMANDS = ("BEGIN", "LOOKUP", "UPDATE", "COMMIT")


def partition(ids: list[int], client: int) -> list[int]:
    """The accounts client ``client`` may write."""
    return [i for i in ids if i % CLIENTS == client]


def _run_round(clients: list[accounts.AccountsClient], per_client: int,
               probe: EchoProbe) -> Round:
    """Start every client at once on ``per_client`` transactions; the
    round ends when the last one finishes.  The echo probe runs just
    before and just after, while the clients are idle."""
    probe.sample()
    start = threading.Barrier(len(clients) + 1)
    results: list[accounts.ClientResult] = []
    errors: list[BaseException] = []

    def body(client: accounts.AccountsClient) -> None:
        start.wait()
        try:
            results.append(client.run(per_client))
        except BaseException as exc:  # re-raised after join
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    start.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    probe.sample()
    merged = accounts.ClientResult()
    for result in results:
        merged.merge(result)
    return Round(wall, merged.committed, merged.latencies_s, 1.0)


def _engine_layers(before: dict, after: dict) -> dict:
    """Engine, buffer, WAL, storage and txn counters from two SNAPSHOTs."""
    def d(key):
        return after[key] - before[key]
    return {
        "wal.forces": d("wal_forces"),
        "wal.kib": d("wal_mib") * 1024,
        "buffer.hit_ratio": after["buffer_hit_ratio"],
        "buffer.evictions": d("buffer_evictions"),
        "buffer.writebacks": d("buffer_writebacks"),
        "data.reads": d("device_reads"),
        "data.writes": d("device_writes"),
        "data.read_kib": d("device_read_mib") * 1024,
        "data.write_kib": d("device_write_mib") * 1024,
        "data.write_amp": after["write_amplification"],
        "txn.commits": d("txn_commits"),
        "txn.aborts": d("txn_aborts"),
        "txn.lock_conflicts": d("lock_conflicts"),
    }


def _client_layers(tracer: Tracer, txns: int, retries: int) -> dict:
    out: dict[str, float] = {}
    for name in CLIENT_METHODS[:4]:
        mean, calls = tracer.mean_us(f"client.{name}")
        out[f"client.{name}_us"] = mean
        out[f"client.{name}_us.calls"] = calls
    _total, requests = tracer.total_us("request.")
    out["client.round_trips_per_txn"] = requests / txns
    out["client.retries"] = retries
    out["trace.spans"] = len(tracer.spans)
    return out


def command_layers(prefix: str, before: dict, after: dict) -> dict:
    """``<prefix>.<CMD>_us`` and its count for the transaction commands,
    from two per-command counter maps."""
    out: dict[str, float] = {}
    for name in TXN_COMMANDS:
        mean, calls = command_delta(after, before, name)
        out[f"{prefix}.{name}_us"] = mean
        out[f"{prefix}.{name}_us.calls"] = calls
    return out


def server_layers(before: dict, after: dict) -> dict:
    """Server dispatch counters from two ``STATS`` payloads of a
    ``DatabaseServer`` (or their sum over shards)."""
    out = command_layers("server", before["commands"], after["commands"])
    out["server.admitted"] = after["admitted"] - before["admitted"]
    out["server.shed_total"] = after["shed_total"] - before["shed_total"]
    return out


def wire_overhead(tracer: Tracer | None, before: dict,
                  after: dict) -> dict:
    """Client-observed request time minus the time the server the client
    talks to reports, per transaction command (traced runs only)."""
    if tracer is None:
        return {}
    server_total = calls_total = client_total = 0.0
    for name in TXN_COMMANDS:
        mean, calls = command_delta(after, before, name)
        server_total += mean * calls
        calls_total += calls
        client_total += tracer.total_us(f"request.{name}")[0]
    return {"wire.overhead_us": (client_total - server_total) / calls_total}


def _pool_retries(remote) -> int:
    s = remote.pool.stats
    return (s.overload_retries + s.deadline_retries + s.connect_retries
            + s.ambiguous_retries)


def measure(stack, seed: int, seconds: int, trace: bool, txns_per_sec: int,
            mix: dict[str, float]) -> dict:
    """Run the fixed work on a ready stack, check it, tear it down.

    ``stack`` provides ``remote``, ``balances``, ``groups(client)``,
    ``counters()`` (raw wire payloads), ``layers(before, after, tracer)``,
    ``extra_checks(before, after, result)``, ``close_books()`` (checkpoint,
    then a final ``SNAPSHOT``), ``info()`` and ``close()`` (which stops
    every process and returns the largest child's peak RSS).
    """
    remote = stack.remote
    ids = sorted(stack.balances)
    mirrors = [{i: stack.balances[i] for i in partition(ids, c)}
               for c in range(CLIENTS)]
    clients = [accounts.AccountsClient(
        remote, mirrors[c], ids, stack.groups(c), mix,
        random.Random(f"{seed}/client{c}")) for c in range(CLIENTS)]
    per_round = max(1, txns_per_sec * seconds // (CLIENTS * ROUNDS))

    tracer = Tracer() if trace else None
    before = stack.counters()
    retries0 = _pool_retries(remote)
    if tracer is not None:
        for name in CLIENT_METHODS:
            tracer.wrap_method(remote, name, f"client.{name}")
        tracer.wrap_class_method(ClientConnection, "request",
                                 lambda args: f"request.{args[1].name}")
    try:
        probe = EchoProbe()
        try:
            rounds = [_run_round(clients, per_round, probe)
                      for _ in range(ROUNDS)]
        finally:
            probe.close()
        # one factor for the whole run: the echo round trip wobbles from
        # one sample to the next, but its median over the run follows
        # the machine's speed between runs
        scale = probe.take()
        for r in rounds:
            r.scale = scale
    finally:
        if tracer is not None:
            tracer.restore()
    after = stack.counters()
    retries = _pool_retries(remote) - retries0

    result = accounts.ClientResult()
    for client in clients:
        result.merge(client.result)
    total = sum(stack.balances.values()) + result.net_update
    problems = list(result.check_failures[:5]) + result.errors[:5]
    problems += accounts.check_final(remote, mirrors, total, len(ids))
    problems += stack.extra_checks(before, after, result)
    closing = stack.close_books()
    info = stack.info()
    peak_rss = stack.close()

    snap0, snap1 = before["snapshot"], after["snapshot"]
    committed = result.committed
    sim_minutes = (snap1["sim_time_sec"] - snap0["sim_time_sec"]) / 60.0
    metrics = {
        **round_metrics(rounds, accounts.KINDS),
        "ok_ratio": (result.attempted - result.failed) / result.attempted,
        "sim_tpm": committed / sim_minutes,
        "data_write_kib_per_txn": (closing["device_write_mib"]
                                   - snap0["device_write_mib"])
        * 1024 / committed,
        "wal_kib_per_txn": (snap1["wal_mib"] - snap0["wal_mib"]) * 1024
        / committed,
        "space_mib": sum(t["data_pages"] for t in closing["tables"])
        * units.DB_PAGE_SIZE / MIB,
        "peak_rss_mib": peak_rss,
    }

    layers: dict[str, float] = {}
    if tracer is not None:
        layers.update(_client_layers(tracer, result.attempted, retries))
        layers["traced.txn_per_s"] = metrics["txn_per_s"]
    layers.update(_engine_layers(snap0, snap1))
    layers.update(stack.layers(before, after, tracer))
    info.update({
        "clients": CLIENTS, "rounds": ROUNDS,
        "txns_per_client_per_round": per_round,
        "attempted": result.attempted, "committed": committed,
        "failed_ratio": result.failed / result.attempted,
        "round_s": [r.seconds for r in rounds],
        "echo_round_trip_us": probe.history[0] * 1e6,
        "latency_ms": scaled_latencies(rounds, accounts.KINDS),
        "unscaled": round_metrics(rounds, accounts.KINDS, scaled=False),
        "client_retries": retries,
        "sim_window_s": sim_minutes * 60.0,
    })
    return {"attempted": result.attempted, "failed": result.failed,
            "problems": problems, "metrics": metrics, "layers": layers,
            "info": info, "tracer": tracer}


def run(build, seed: int, seconds: int, trace: bool, txns_per_sec: int,
        mix: dict[str, float]) -> dict:
    """Set a stack up ``SETUP_REPEATS`` times with ``build()``, measure
    the last one, and stop it."""
    stack, setup_s, setup_times = median_setup(build, lambda s: s.close())
    try:
        out = measure(stack, seed, seconds, trace, txns_per_sec, mix)
    except BaseException:
        stack.proc.stop()
        raise
    out["metrics"]["setup_s"] = setup_s
    out["info"]["setup_times_s"] = setup_times
    return out


def load_kib(snapshot: dict) -> float:
    return sum(t["data_pages"] for t in snapshot["tables"]) \
        * units.DB_PAGE_SIZE / KIB
