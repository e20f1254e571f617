"""Repeat the benchmark over seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --runs 10 [--workload NAME ...]
        [--write perfbench/BASELINE.json | --compare perfbench/BASELINE.json]

For every workload, runs ``perfbench/run.py`` once per seed (first seed
``--first-seed``) with ``BENCHMARK.json``'s ``run_seconds``, and prints for
each end-to-end metric its median, quartiles and spread: the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, against the metric's bound.  A spread above the
bound exits 1, and so does, with ``--compare FILE``, a median worse than the
one stored in FILE (as ``--write`` stores it) by more than the bound.
``--write`` also makes one traced run per workload and stores the medians,
quartiles and per-layer values, with ``nproc`` and the Python version, under
``"machine"`` and ``"workloads"`` of the given JSON file, keeping its other
keys.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    before = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    ok = True
    summary = {}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics = run_once(workload, seed, spec["run_seconds"], 0)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
        summary[workload] = {"runs": args.runs, "end_to_end": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 else (
                "  ABOVE A THIRD OF BOUND" if spread <= bounds[name] else "  ABOVE BOUND")
            ok = ok and spread <= bounds[name]
            print(f"{workload:<18} {name:<12} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}{flag}", flush=True)
            summary[workload]["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3}
            if workload in before:
                old = before[workload]["end_to_end"][name]["median"]
                worse = (med - old) / old if lower[name] else (old - med) / old
                ok = ok and worse <= bounds[name]
                print(f"{'':<18} {name:<12} stored median {old:.6g}, worse by {worse:+.4f}"
                      f"{'  ABOVE BOUND' if worse > bounds[name] else ''}", flush=True)
        if args.write:
            layers = run_once(workload, args.first_seed, spec["run_seconds"], 1)["metrics"]
            summary[workload]["per_layer"] = {k: m["value"] for k, m in layers.items()}

    if args.write:
        doc = json.loads(args.write.read_text()) if args.write.exists() else {}
        doc["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "run_seconds": spec["run_seconds"]}
        doc["workloads"] = summary
        args.write.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
