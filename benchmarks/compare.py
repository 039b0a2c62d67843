"""Perf-regression gate over the repository benchmarks.

Runs the benchmark suites under pytest-benchmark, compares every
benchmark's mean against a committed baseline (``BENCH_BASELINE.json`` at
the repository root) and **fails** — exit status 1 — when any benchmark
regressed by more than the threshold (default 25 %).  This is the perf
trajectory guard: the baseline is regenerated (``--save``) whenever a PR
intentionally shifts the profile, so an accidental O(n) creeping back into
a hot path turns CI red instead of silently rotting the exhibits.

Two suites are gated: ``micro`` (``bench_micro_ops.py``, the per-operation
engine costs) and ``vecscan`` (``bench_vecscan.py``, vectorized scan and
aggregate throughput against the tuple-at-a-time path, plus the HTAP mix).

Usage::

    python benchmarks/compare.py                     # all suites, gate 25 %
    python benchmarks/compare.py --bench vecscan     # one suite only
    python benchmarks/compare.py --quick             # CI smoke (fast rounds)
    python benchmarks/compare.py --threshold 0.5     # looser gate
    python benchmarks/compare.py --save              # regenerate baseline
    python benchmarks/compare.py --json results.json # compare a prior run

Only benchmarks present in *both* runs are compared (new benchmarks pass
by definition; removed ones are reported).  Means are wall-clock on the
current machine: across different machines the ratios stay meaningful even
though the absolute numbers do not, which is why the gate compares ratios.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).parent
BENCH_FILES = {
    "micro": BENCH_DIR / "bench_micro_ops.py",
    "vecscan": BENCH_DIR / "bench_vecscan.py",
}
DEFAULT_BASELINE = REPO_ROOT / "BENCH_BASELINE.json"
DEFAULT_THRESHOLD = 0.25

#: Quick mode trims the measurement budget for CI smoke runs.
QUICK_ARGS = ["--benchmark-min-rounds=3", "--benchmark-max-time=0.2",
              "--benchmark-warmup=off"]


def engine_concurrency_info() -> dict:
    """Execution-context record stored alongside the benchmark numbers.

    The micro benches drive the engine embedded — exactly one thread, the
    configuration the single-worker regression gate protects.  The server
    default is recorded too so a baseline taken before/after a change to
    the worker-pool policy is self-describing.
    """
    return {
        "executor_workers": 1,
        "server_default_workers": min(4, os.cpu_count() or 1),
    }


def run_benchmarks(quick: bool, suites: list[str]) -> dict:
    """Execute the chosen suites; returns the pytest-benchmark JSON dict."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = pathlib.Path(handle.name)
    cmd = [sys.executable, "-m", "pytest",
           *(str(BENCH_FILES[suite]) for suite in suites), "-q",
           f"--benchmark-json={out_path}"]
    if quick:
        cmd.extend(QUICK_ARGS)
    env_path = str(REPO_ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
    data = json.loads(out_path.read_text())
    out_path.unlink(missing_ok=True)
    data["engine_concurrency"] = engine_concurrency_info()
    return data


def extract_means(data: dict) -> dict[str, float]:
    """Map benchmark name → mean seconds."""
    return {bench["name"]: bench["stats"]["mean"]
            for bench in data.get("benchmarks", [])}


def strip_samples(data: dict) -> dict:
    """Drop the per-round sample arrays (``stats.data``) in place.

    They are most of a pytest-benchmark JSON file's bytes, and the gate
    reads only the summary statistics beside them.
    """
    for bench in data.get("benchmarks", []):
        bench.get("stats", {}).pop("data", None)
    return data


def compare(baseline: dict[str, float], current: dict[str, float],
            threshold: float) -> int:
    """Print the comparison table; returns the number of regressions."""
    regressions = 0
    common = sorted(set(baseline) & set(current))
    width = max((len(n) for n in common), default=20)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'ratio':>7}  verdict")
    for name in common:
        old, new = baseline[name], current[name]
        ratio = new / old if old > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSED"
            regressions += 1
        elif ratio < 1.0 - threshold:
            verdict = "improved"
        print(f"{name:<{width}}  {old * 1e6:>10.1f}us  {new * 1e6:>10.1f}us"
              f"  {ratio:>6.2f}x  {verdict}")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}}  {'-':>12}  "
              f"{current[name] * 1e6:>10.1f}us  {'new':>7}")
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:<{width}}  {baseline[name] * 1e6:>10.1f}us  "
              f"{'-':>12}  {'gone':>7}")
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE,
                        help="baseline JSON (default: BENCH_BASELINE.json)")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="compare this pytest-benchmark JSON instead of "
                             "running the benches")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="relative regression gate (0.25 = +25%%)")
    parser.add_argument("--quick", action="store_true",
                        help="fast measurement budget (CI smoke)")
    parser.add_argument("--bench", choices=[*BENCH_FILES, "all"],
                        default="all",
                        help="benchmark suite to run (default: all)")
    parser.add_argument("--save", action="store_true",
                        help="write the fresh run over the baseline file")
    args = parser.parse_args(argv)
    suites = list(BENCH_FILES) if args.bench == "all" else [args.bench]

    if args.json is not None:
        data = json.loads(args.json.read_text())
    else:
        data = run_benchmarks(quick=args.quick, suites=suites)
    current = extract_means(data)
    workers = data.get("engine_concurrency", {}).get("executor_workers")
    if workers is not None:
        print(f"executor workers: {workers} (embedded engine; server "
              f"default would be "
              f"{data['engine_concurrency']['server_default_workers']})")

    if args.save:
        if args.bench != "all":
            print("--save requires --bench all (the baseline covers every "
                  "suite)", file=sys.stderr)
            return 2
        args.baseline.write_text(
            json.dumps(strip_samples(data), indent=1, sort_keys=True))
        print(f"baseline saved to {args.baseline} "
              f"({len(current)} benchmarks)")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --save first",
              file=sys.stderr)
        return 2
    baseline = extract_means(json.loads(args.baseline.read_text()))
    if args.bench != "all" and args.json is None:
        # a single-suite run is not evidence the other suite's benches
        # disappeared — gate only what actually ran
        baseline = {name: mean for name, mean in baseline.items()
                    if name in current}
    regressions = compare(baseline, current, args.threshold)
    if regressions:
        print(f"\n{regressions} benchmark(s) regressed more than "
              f"{args.threshold:.0%}")
        return 1
    print(f"\nno regressions beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
