"""Run one workload of the layered end-to-end benchmark.

    python3 perfbench/run.py --workload tpcc-flash --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``.  The line before
it (``report: {...}``) describes the run: seed, machine, process layout,
sizes, diagnostics such as p99 with its sample count, and any failed
check.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {
    "tpcc-flash": "perfbench.tpcc_flash",
    "node-oltp": "perfbench.node_oltp",
    "cluster-2pc": "perfbench.cluster_2pc",
}
TRACE_DIR = ROOT / ".bench_out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _metrics(values: dict, specs: list[dict], kind: str) -> dict:
    """Pair each declared metric with its unit; a per-layer metric the
    workload does not produce belongs to a layer it bypasses and reads 0."""
    unknown = sorted(set(values) - {s["name"] for s in specs})
    if unknown:
        raise KeyError(f"{kind} metrics missing from BENCHMARK.json: "
                       f"{unknown}")
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in values and kind == "end_to_end":
            raise KeyError(f"workload did not measure {name}")
        out[name] = {"value": float(values.get(name, 0.0)),
                     "unit": spec["unit"]}
    return out


def _write_spans(tracer, workload: str) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{workload}.jsonl"
    with path.open("w") as out:
        for s in tracer.spans:
            out.write(json.dumps([s.span_id, s.name, s.start_ns, s.end_ns,
                                  s.parent, s.txid]) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"no repro sources under {ROOT / 'src'} (or no BENCHMARK.json)"
              ": run from the root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        metrics = _metrics(result["layers"], spec["per_layer"], "per_layer")
        result["info"]["spans_file"] = str(
            _write_spans(result.pop("tracer"), args.workload)
            .relative_to(ROOT))
    else:
        metrics = _metrics(result["metrics"], spec["end_to_end"],
                           "end_to_end")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {
        "workload": args.workload, "why": why[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
        "problems": result["problems"], **result["info"],
    }
    print("report: " + json.dumps(report, default=str))
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
