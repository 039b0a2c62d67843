"""Helpers shared by the workloads: statistics, processes, counters."""

from __future__ import annotations

import gc
import math
import os
import queue
import re
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
KIB = 1024
MIB = 1024 * 1024
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_summary(samples_s: list[float]) -> dict[str, float]:
    """p50/p90/p99 in milliseconds plus the sample count."""
    ms = [s * 1000.0 for s in samples_s]
    return {"p50_ms": statistics.median(ms), "p90_ms": percentile(ms, 0.90),
            "p99_ms": percentile(ms, 0.99), "samples": len(ms),
            "beyond_p99": len(ms) - math.ceil(0.99 * len(ms))}


#: the probe time that defines reference speed: wall times are scaled by
#: ``PROBE_REF_S / probe time`` measured while they ran
PROBE_REF_S = 0.002
#: the same for the echo probe's round trip
ECHO_REF_S = 0.00002
ECHO_ROUND_TRIPS = 100
_ECHO_SERVER = """
import socket
srv = socket.socket()
srv.bind(("127.0.0.1", 0))
srv.listen(1)
print(srv.getsockname()[1], flush=True)
conn, _ = srv.accept()
conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
while True:
    data = conn.recv(64)
    if not data:
        break
    conn.sendall(data)
"""


def _probe_work() -> int:
    """A fixed slice of interpreter work: calls, dict and tuple churn,
    a sort — the kind of work every layer of the program does."""
    table: dict[int, tuple[int, str]] = {}
    for i in range(4_000):
        table[(i * 7919) % 4_000] = (i, str(i))
    return len(sorted(table.values(), key=lambda row: row[1]))


class SpeedProbe:
    """Times ``_probe_work`` to track how fast the machine runs now.

    On a shared host the same code runs up to a third slower or faster
    from one second to the next; scaling each window by the probe's speed
    over that window takes most of that drift out of the wall times.
    """

    ref_s = PROBE_REF_S

    def __init__(self) -> None:
        self.times: list[float] = []
        self.history: list[float] = []

    def _once(self) -> float:
        started = time.perf_counter()
        _probe_work()
        return time.perf_counter() - started

    def sample(self, repeats: int = 2) -> None:
        # with the collector off, a cycle collection over the program's
        # heap cannot land inside the probe and pose as a slow machine
        gc.disable()
        try:
            for _ in range(repeats):
                self.times.append(self._once())
        finally:
            gc.enable()

    def take(self) -> float:
        """The scale for the window since the last ``take``: reference
        time over the median probe time."""
        median = statistics.median(self.times)
        self.times.clear()
        self.history.append(median)
        return self.ref_s / median


class EchoProbe(SpeedProbe):
    """Times round trips to a trivial echo server in its own process.

    The wire workloads spend their time in socket round trips between
    processes and in the interpreter on both ends; a machine that is
    busy elsewhere slows wake-ups and hand-offs more than plain
    computation, and this probe feels that the same way.  It shares no
    code with the program, so a change to the program cannot move it.
    """

    ref_s = ECHO_REF_S

    def __init__(self) -> None:
        super().__init__()
        self.proc = subprocess.Popen([sys.executable, "-c", _ECHO_SERVER],
                                     stdout=subprocess.PIPE, text=True)
        try:
            assert self.proc.stdout is not None
            port = int(self.proc.stdout.readline())
            self.sock = socket.create_connection(("127.0.0.1", port))
        except BaseException:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
            raise
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _once(self) -> float:
        message = b"x" * 32
        started = time.perf_counter()
        for _ in range(ECHO_ROUND_TRIPS):
            self.sock.sendall(message)
            got = 0
            while got < len(message):
                got += len(self.sock.recv(64))
        return (time.perf_counter() - started) / ECHO_ROUND_TRIPS

    def close(self) -> None:
        self.sock.close()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


@dataclass
class Round:
    """One slice of the fixed work: its wall time, the transactions it
    committed, its latency samples (seconds) per transaction kind, and
    the factor that scales its wall times to reference speed."""

    seconds: float
    committed: int
    latencies_s: dict[str, list[float]]
    scale: float


def round_metrics(rounds: list[Round], kinds,
                  scaled: bool = True) -> dict[str, float]:
    """Throughput over all rounds and latency percentiles over all
    samples, each round's wall times scaled to reference speed."""
    def f(r: Round) -> float:
        return r.scale if scaled else 1.0
    out = {"txn_per_s": sum(r.committed for r in rounds)
           / sum(r.seconds * f(r) for r in rounds)}
    for kind in kinds:
        summary = latency_summary([s * f(r) for r in rounds
                                   for s in r.latencies_s[kind]])
        out[f"{kind}_p50_ms"] = summary["p50_ms"]
        out[f"{kind}_p90_ms"] = summary["p90_ms"]
    return out


def scaled_latencies(rounds: list[Round], kinds) -> dict[str, dict]:
    """Per-kind latency summaries (p99 and sample counts included) of
    the scaled samples, for the report."""
    return {kind: latency_summary([s * r.scale for r in rounds
                                   for s in r.latencies_s[kind]])
            for kind in kinds}


def median_setup(setup, teardown, repeats: int = SETUP_REPEATS):
    """Set up ``repeats`` times, tearing each stack down before the next
    one (teardown time is not counted).  Returns the last stack, the
    median set-up time scaled to reference speed, and every raw time."""
    times: list[float] = []
    scaled: list[float] = []
    probe = SpeedProbe()
    result = None
    for _ in range(repeats):
        if result is not None:
            teardown(result)
            result = None
            gc.collect()
        probe.sample()
        started = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - started)
        probe.sample()
        scaled.append(times[-1] * probe.take())
    return result, statistics.median(scaled), times


def self_peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mib() -> float:
    """Peak resident memory of the largest reaped descendant process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def command_delta(after: dict, before: dict, name: str) -> tuple[float, int]:
    """Mean wall time (µs) and count of one command's calls between two
    per-command counter maps (``{"calls", "mean_wall_usec"}`` entries)."""
    a = after.get(name, {"calls": 0, "mean_wall_usec": 0.0})
    b = before.get(name, {"calls": 0, "mean_wall_usec": 0.0})
    calls = a["calls"] - b["calls"]
    if calls <= 0:
        return 0.0, 0
    total = a["calls"] * a["mean_wall_usec"] - b["calls"] * b["mean_wall_usec"]
    return total / calls, calls


class Process:
    """A ``python -m repro ...`` child that announces its address on
    stdout.  A reader thread drains stdout, so the child never blocks on a
    full pipe, and keeps every line."""

    def __init__(self, argv: list[str], ready: str,
                 timeout_sec: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.lines: list[str] = []
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.match = self._wait_for(re.compile(ready), timeout_sec)

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            self._lines.put(line)
        self._lines.put(None)

    def _wait_for(self, pattern: re.Pattern, timeout_sec: float):
        deadline = time.monotonic() + timeout_sec
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(0.0, remaining))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(
                    "child did not become ready: " + " | ".join(self.lines))
            match = pattern.search(line)
            if match:
                return match

    def stop(self, timeout_sec: float = 30.0) -> int:
        """SIGTERM (the graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout_sec)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=10.0)
        self._reader.join(timeout=10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return code
