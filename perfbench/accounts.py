"""The accounts mix: point lookups, one-row updates and two-row transfers.

The same client code runs against an embedded ``Database``, a
``RemoteDatabase`` on one node, and a ``RemoteDatabase`` on a cluster
router, because both expose the same facade.  Each transaction is timed
from the ``begin`` call until ``commit`` returns.

Client *c* of *n* writes only the accounts with ``id % n == c``, so no two
clients ever write the same row and every failure is a defect, not a
scheduling accident.  Each client keeps a mirror of its own partition's
balances and checks every read of it against the mirror.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.db.catalog import IndexDef
from repro.db.schema import ColType, Schema

TABLE = "accounts"
INDEX = "pk"
SCHEMA = Schema.of(("id", ColType.INT), ("balance", ColType.INT))
INDEXES = [IndexDef(INDEX, ("id",), unique=True)]
KINDS = ("lookup", "update", "transfer")


def create_table(db) -> None:
    """Create the accounts relation on a ``Database`` or ``RemoteDatabase``."""
    db.create_table(TABLE, SCHEMA, indexes=INDEXES)


def initial_balances(rows: int, rng: random.Random) -> dict[int, int]:
    """Seeded opening balances for accounts ``0 .. rows-1``."""
    return {i: rng.randrange(100, 10_000) for i in range(rows)}


@dataclass
class ClientResult:
    """What one client did, measured and checked."""

    latencies_s: dict[str, list[float]] = field(
        default_factory=lambda: {k: [] for k in KINDS})
    attempted: int = 0
    committed: int = 0
    #: balance created or destroyed by committed one-row updates
    #: (transfers move money and must not change the total)
    net_update: int = 0
    errors: list[str] = field(default_factory=list)
    check_failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.committed

    def merge(self, other: "ClientResult") -> None:
        for kind in KINDS:
            self.latencies_s[kind].extend(other.latencies_s[kind])
        self.attempted += other.attempted
        self.committed += other.committed
        self.net_update += other.net_update
        self.errors.extend(other.errors)
        self.check_failures.extend(other.check_failures)


class CheckFailed(Exception):
    """A read returned something other than what the mirror predicts."""


class AccountsClient:
    """One closed-loop client of the accounts mix.

    ``groups`` partitions the client's own accounts: a transfer takes its
    two accounts from two different groups (on a cluster, the groups are
    the shards, so every transfer is a two-shard transaction).
    """

    def __init__(self, db, mirror: dict[int, int], all_ids: list[int],
                 groups: list[list[int]], mix: dict[str, float],
                 rng: random.Random) -> None:
        self.db = db
        self.mirror = mirror
        self.all_ids = all_ids
        self.groups = [g for g in groups if g]
        self.kinds = list(mix)
        self.weights = [mix[k] for k in self.kinds]
        self.rng = rng
        self.result = ClientResult()
        if "transfer" in mix and len(self.groups) < 2:
            raise ValueError("transfers need own accounts in two groups")

    def _read(self, txn, key: int) -> tuple[object, int]:
        rows = self.db.lookup(txn, TABLE, INDEX, key)
        if len(rows) != 1 or rows[0][1][0] != key:
            raise CheckFailed(f"lookup({key}) returned {rows!r}")
        ref, row = rows[0]
        balance = row[1]
        expected = self.mirror.get(key)
        if expected is not None and balance != expected:
            raise CheckFailed(f"account {key} reads {balance}, "
                              f"mirror holds {expected}")
        return ref, balance

    def _body(self, kind: str, txn) -> dict[int, int]:
        """Run one transaction's statements; returns the mirror changes."""
        rng = self.rng
        if kind == "lookup":
            self._read(txn, rng.choice(self.all_ids))
            return {}
        if kind == "update":
            key = rng.choice(rng.choice(self.groups))
            ref, balance = self._read(txn, key)
            new = balance + rng.randint(-50, 50)
            self.db.update(txn, TABLE, ref, (key, new))
            return {key: new}
        src_group, dst_group = rng.sample(self.groups, 2)
        src, dst = rng.choice(src_group), rng.choice(dst_group)
        amount = rng.randint(1, 50)
        src_ref, src_balance = self._read(txn, src)
        dst_ref, dst_balance = self._read(txn, dst)
        self.db.update(txn, TABLE, src_ref, (src, src_balance - amount))
        self.db.update(txn, TABLE, dst_ref, (dst, dst_balance + amount))
        return {src: src_balance - amount, dst: dst_balance + amount}

    def run(self, transactions: int) -> ClientResult:
        """Run a fixed number of transactions of the mix; returns what
        this call did (``self.result`` accumulates every call)."""
        out = ClientResult()
        for _ in range(transactions):
            kind = self.rng.choices(self.kinds, weights=self.weights)[0]
            out.attempted += 1
            started = time.perf_counter()
            txn = None
            try:
                txn = self.db.begin()
                changes = self._body(kind, txn)
                self.db.commit(txn)
            except CheckFailed as exc:
                out.check_failures.append(str(exc))
                self._abort_quietly(txn, out)
                continue
            except Exception as exc:  # counted, reported, run continues
                out.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                self._abort_quietly(txn, out)
                continue
            out.latencies_s[kind].append(time.perf_counter() - started)
            out.committed += 1
            if kind == "update":
                (key, new), = changes.items()
                out.net_update += new - self.mirror[key]
            self.mirror.update(changes)
        self.result.merge(out)
        return out

    def _abort_quietly(self, txn, out: ClientResult) -> None:
        if txn is None:
            return
        try:
            self.db.abort(txn)
        except Exception as exc:  # the failure is already counted
            out.errors.append(
                f"abort after failure: {type(exc).__name__}: {exc}")


def check_final(db, mirrors: list[dict[int, int]], total: int,
                rows: int) -> list[str]:
    """Scan every account once and compare with the clients' mirrors.

    ``total`` is the expected sum of all balances: the opening total plus
    the committed updates' net change.
    """
    expected: dict[int, int] = {}
    for mirror in mirrors:
        expected.update(mirror)
    txn = db.begin()
    try:
        seen = {row[0]: row[1] for _ref, row in db.scan(txn, TABLE)}
    finally:
        db.commit(txn)
    problems = []
    if len(seen) != rows:
        problems.append(f"scan found {len(seen)} accounts, expected {rows}")
    wrong = [k for k, v in expected.items() if seen.get(k) != v]
    if wrong:
        k = wrong[0]
        problems.append(f"{len(wrong)} accounts differ from the mirrors, "
                        f"e.g. {k}: {seen.get(k)} != {expected[k]}")
    if sum(seen.values()) != total:
        problems.append(f"total balance {sum(seen.values())} != {total}")
    return problems
