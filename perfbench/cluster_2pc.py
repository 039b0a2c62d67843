"""``cluster-2pc``: a router and two shard processes, with 2PC transfers.

``repro cluster start --shards 2 --mode process`` runs the router in one
process and each shard in its own ``repro serve`` process, so concurrent
shard work is not serialised by one interpreter lock.  2,000 accounts are
inserted one row per INSERT in a seeded order, so placement alternates
shards; ``ShardMap.shard_of`` on the returned VIDs tells which shard holds
each account.  Two client threads run 80% lookup transactions (a fan-out
to both shards), 10% one-row updates (one-phase commit) and 10% transfers
between two accounts on different shards (two-phase commit).
"""

from __future__ import annotations

import random
import re

from repro.client import RemoteDatabase
from repro.cluster import RouterConfig
from repro.cluster.shardmap import ShardMap
from repro.common import units
from repro.common.config import BufferConfig

from perfbench import accounts, wire
from perfbench.common import (MIB, Process, children_peak_rss_mib,
                              command_delta)

SHARDS = 2
ROWS = 2_000
INSERTS_PER_TXN = 100
TXNS_PER_SEC = 300
MIX = {"lookup": 0.8, "update": 0.1, "transfer": 0.1}
#: each shard is a ``repro serve`` with the default ``SystemConfig``
POOL_PAGES = BufferConfig().pool_pages
#: commands the benchmark itself sends to read counters
_OBSERVER_COMMANDS = {"STATS", "SNAPSHOT"}


def _sum_stats(payloads: list[dict]) -> dict:
    """Add up the dispatch counters of several shard ``STATS`` payloads."""
    commands: dict[str, dict] = {}
    for payload in payloads:
        for name, c in payload["commands"].items():
            into = commands.setdefault(name, {"calls": 0,
                                              "mean_wall_usec": 0.0})
            total = (into["calls"] * into["mean_wall_usec"]
                     + c["calls"] * c["mean_wall_usec"])
            into["calls"] += c["calls"]
            into["mean_wall_usec"] = (total / into["calls"]
                                      if into["calls"] else 0.0)
    return {"commands": commands,
            "admitted": sum(p["admitted"] for p in payloads),
            "shed_total": sum(p["shed_total"] for p in payloads)}


class Cluster:
    """A loaded two-shard cluster, a client pool on the router and one
    observer connection per shard."""

    def __init__(self, seed: int) -> None:
        self.proc = Process(
            ["cluster", "start", "--shards", str(SHARDS), "--mode",
             "process", "--port", "0"],
            r"router listening on ([\d.]+):(\d+)")
        try:
            self._load(seed)
        except BaseException:
            self.proc.stop()
            raise

    def _load(self, seed: int) -> None:
        host, port = self.proc.match.group(1), int(self.proc.match.group(2))
        self.address = f"{host}:{port}"
        self.shard_addresses = [
            (m.group(1), int(m.group(2))) for m in
            (re.match(r"shard \d+: ([\d.]+):(\d+)", line)
             for line in self.proc.lines) if m]
        self.remote = RemoteDatabase.connect(host, port,
                                             pool_size=wire.CLIENTS)
        self.shards = [RemoteDatabase.connect(h, p, pool_size=1)
                       for h, p in self.shard_addresses]
        accounts.create_table(self.remote)
        rng = random.Random(f"{seed}/balances")
        self.balances = accounts.initial_balances(ROWS, rng)
        order = sorted(self.balances)
        rng.shuffle(order)
        shard_map = ShardMap(SHARDS, range_size=RouterConfig().range_size)
        self.shard_of: dict[int, int] = {}
        for lo in range(0, ROWS, INSERTS_PER_TXN):
            txn = self.remote.begin()
            for key in order[lo:lo + INSERTS_PER_TXN]:
                gvid = self.remote.insert(txn, accounts.TABLE,
                                          (key, self.balances[key]))
                self.shard_of[key] = shard_map.shard_of(gvid)
            self.remote.commit(txn)
        self.loaded = self.remote.monitor_snapshot()

    def groups(self, client: int) -> list[list[int]]:
        own = wire.partition(sorted(self.balances), client)
        return [[k for k in own if self.shard_of[k] == s]
                for s in range(SHARDS)]

    def counters(self) -> dict:
        return {"snapshot": self.remote.monitor_snapshot(),
                "stats": self.remote.server_stats(),
                "shards": _sum_stats([s.server_stats()
                                      for s in self.shards])}

    def layers(self, before: dict, after: dict, tracer) -> dict:
        router_before = {c["command"]: c
                         for c in before["snapshot"]["commands"]}
        router_after = {c["command"]: c
                        for c in after["snapshot"]["commands"]}
        out = {**wire.server_layers(before["shards"], after["shards"]),
               **wire.command_layers("router", router_before, router_after),
               **wire.wire_overhead(tracer, router_before, router_after)}
        r0, r1 = before["stats"]["router"], after["stats"]["router"]
        fan0 = r0["fanout"].get("LOOKUP", {"calls": 0, "mean_usec": 0.0})
        fan1 = r1["fanout"].get("LOOKUP", {"calls": 0, "mean_usec": 0.0})
        fan_calls = fan1["calls"] - fan0["calls"]
        out["router.fanout.lookup_us"] = (
            (fan1["calls"] * fan1["mean_usec"]
             - fan0["calls"] * fan0["mean_usec"]) / fan_calls
            if fan_calls else 0.0)
        out["router.fanout.lookup_us.calls"] = fan_calls
        for key in ("commits_readonly", "commits_1pc", "commits_2pc",
                    "prepares_sent", "snapshot_refreshes"):
            out[f"router.{key}"] = r1[key] - r0[key]
        for name in ("PREPARE_TXN", "COMMIT_PREPARED"):
            mean, calls = command_delta(after["shards"]["commands"],
                                        before["shards"]["commands"], name)
            out[f"shard.{name}_us"] = mean
            out[f"shard.{name}_us.calls"] = calls
        shard_rpcs = sum(
            c["calls"] - before["shards"]["commands"].get(
                name, {"calls": 0})["calls"]
            for name, c in after["shards"]["commands"].items()
            if name not in _OBSERVER_COMMANDS)
        txns = after["stats"]["router"]["gtxns_begun"] - r0["gtxns_begun"]
        out["router.shard_rpcs_per_txn"] = shard_rpcs / txns if txns else 0.0
        return out

    def extra_checks(self, before: dict, after: dict, result) -> list[str]:
        """Each transfer took 2PC, each update 1PC, each lookup the
        read-only path; nothing is left in doubt."""
        r0, r1 = before["stats"]["router"], after["stats"]["router"]
        expected = {"commits_2pc": len(result.latencies_s["transfer"]),
                    "commits_1pc": len(result.latencies_s["update"]),
                    "commits_readonly": len(result.latencies_s["lookup"])}
        problems = [f"router {key}: {r1[key] - r0[key]}, expected {n}"
                    for key, n in expected.items() if r1[key] - r0[key] != n]
        in_doubt = after["stats"]["cluster"]["in_doubt"]
        if in_doubt:
            problems.append(f"{in_doubt} shard transactions in doubt")
        return problems

    def close_books(self) -> dict:
        """Checkpoint every shard so outstanding page writes count."""
        self.remote.clock.advance(BufferConfig().checkpoint_interval_usec)
        self.remote.tick()
        return self.remote.monitor_snapshot()

    def info(self) -> dict:
        per_shard = [sum(1 for s in self.shard_of.values() if s == shard)
                     for shard in range(SHARDS)]
        return {
            "process_layout": "benchmark process (2 client threads) + "
                              "router process + 2 `repro serve` shard "
                              "processes",
            "router": self.address,
            "shards": [f"{h}:{p}" for h, p in self.shard_addresses],
            "buffer_pool_pages_per_shard": POOL_PAGES,
            "buffer_pool_mib_per_shard": POOL_PAGES * units.DB_PAGE_SIZE
            / MIB,
            "rows_loaded": ROWS, "rows_per_shard": per_shard,
            "data_kib_after_load": wire.load_kib(self.loaded),
            "mix": MIX,
        }

    def close(self) -> float:
        """Stop router and shards; return the largest child's peak RSS."""
        self.remote.close()
        for shard in self.shards:
            shard.close()
        code = self.proc.stop()
        if code != 0:
            raise RuntimeError(f"cluster exited with {code}")
        return children_peak_rss_mib()


def run(seed: int, seconds: int, trace: bool) -> dict:
    return wire.run(lambda: Cluster(seed), seed, seconds, trace, TXNS_PER_SEC,
                    MIX)
