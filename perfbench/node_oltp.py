"""``node-oltp``: one ``repro serve`` node over the wire, read-mostly.

One SIAS-V server subprocess (default 2,048-page = 16 MiB pool) holds a
5,000-row ``accounts`` table, which fits in its cache.  Two client threads
share one ``RemoteDatabase`` with two pooled connections and run 80%
point-lookup, 10% one-row update and 10% two-row transfer transactions.
The engine op is a small part of each transaction here: client codec,
socket, server dispatch and executor handoff dominate.
"""

from __future__ import annotations

import random

from repro.client import RemoteDatabase
from repro.common import units
from repro.common.config import BufferConfig

from perfbench import accounts, wire
from perfbench.common import MIB, Process, children_peak_rss_mib

ROWS = 5_000
LOAD_CHUNK = 500
TXNS_PER_SEC = 1_000
MIX = {"lookup": 0.8, "update": 0.1, "transfer": 0.1}
#: ``repro serve`` runs the default ``SystemConfig``
POOL_PAGES = BufferConfig().pool_pages


class Node:
    """A loaded ``repro serve`` subprocess and a client pool on it."""

    def __init__(self, seed: int) -> None:
        self.proc = Process(["serve", "--port", "0"],
                            r"listening on ([\d.]+):(\d+)")
        try:
            self._load(seed)
        except BaseException:
            self.proc.stop()
            raise

    def _load(self, seed: int) -> None:
        host, port = self.proc.match.group(1), int(self.proc.match.group(2))
        self.address = f"{host}:{port}"
        self.remote = RemoteDatabase.connect(host, port,
                                             pool_size=wire.CLIENTS)
        accounts.create_table(self.remote)
        self.balances = accounts.initial_balances(
            ROWS, random.Random(f"{seed}/balances"))
        rows = sorted(self.balances.items())
        for lo in range(0, ROWS, LOAD_CHUNK):
            txn = self.remote.begin()
            self.remote.bulk_insert(txn, accounts.TABLE,
                                    rows[lo:lo + LOAD_CHUNK])
            self.remote.commit(txn)
        self.workers = next((line.split(":")[1].strip()
                             for line in self.proc.lines
                             if line.startswith("engine workers:")), "?")
        self.loaded = self.remote.monitor_snapshot()

    def groups(self, client: int) -> list[list[int]]:
        own = wire.partition(sorted(self.balances), client)
        return [own[0::2], own[1::2]]

    def counters(self) -> dict:
        return {"snapshot": self.remote.monitor_snapshot(),
                "stats": self.remote.server_stats()}

    def layers(self, before: dict, after: dict, tracer) -> dict:
        return {**wire.server_layers(before["stats"], after["stats"]),
                **wire.wire_overhead(tracer, before["stats"]["commands"],
                                     after["stats"]["commands"])}

    def extra_checks(self, before: dict, after: dict, result) -> list[str]:
        del before, result
        locks = after["stats"]["engine"]["locks"]["held"]
        return [f"{locks} locks still held"] if locks else []

    def close_books(self) -> dict:
        """Checkpoint so outstanding page writes fall inside the window."""
        self.remote.clock.advance(BufferConfig().checkpoint_interval_usec)
        self.remote.tick()
        return self.remote.monitor_snapshot()

    def info(self) -> dict:
        return {
            "process_layout": "benchmark process (2 client threads) + one "
                              "`repro serve` process",
            "server": self.address, "server_engine_workers": self.workers,
            "buffer_pool_pages": POOL_PAGES,
            "buffer_pool_mib": POOL_PAGES * units.DB_PAGE_SIZE / MIB,
            "rows_loaded": ROWS,
            "data_kib_after_load": wire.load_kib(self.loaded),
            "data_to_pool": wire.load_kib(self.loaded) * 1024
            / (POOL_PAGES * units.DB_PAGE_SIZE),
            "mix": MIX,
        }

    def close(self) -> float:
        """Stop the server; return the peak RSS of the largest child."""
        self.remote.close()
        code = self.proc.stop()
        if code != 0:
            raise RuntimeError(f"server exited with {code}")
        return children_peak_rss_mib()


def run(seed: int, seconds: int, trace: bool) -> dict:
    return wire.run(lambda: Node(seed), seed, seconds, trace, TXNS_PER_SEC,
                    MIX)
