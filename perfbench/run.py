"""quasident benchmark: seeded CLI workloads, checked answers, timed passes.

Usage (from the repository root):

    python3 perfbench/run.py --workload symbolic-eval --seed 1 --seconds 10 --trace 0

A pass runs every command of the workload once, in order, each in a fresh
worker interpreter (``bench_worker.py``) through ``quasident.cli.run_command``;
nothing runs concurrently.  The run starts with ``SETUP_SAMPLES`` set-up-only
worker starts; passes follow while another one is expected to end within
``--seconds`` of the start (there is always at least one, so a workload whose
pass is longer than ``--seconds`` runs one pass past it).  Every report is
checked against the answer fixed in ``bench_inputs.py``; a wrong exit code,
a wrong result, a changed effective seed or a set ``QUASIDENT_SEED`` counts
as a failed command and makes this script exit 1.

``--trace 0`` prints the end-to-end figures, medians over passes: ``run_s``
(wall seconds of a pass, summed over its commands), ``cpu_s`` (user+sys CPU
seconds of a pass, child processes included), their normalized forms
``run_norm_s`` and ``cpu_norm_s``, ``peak_rss_mb`` (largest peak resident set
of a pass's workers), ``setup_wall_s`` (fresh interpreter to
``quasident.cli`` imported and ready, with bytecode cached under
``.perfbench-out/``, median over the set-up samples and every worker start),
its normalized form ``setup_s`` and ``fail_frac``.

The speed of the shared host this runs on drifts by a fifth or more over
minutes, for the program and for any fixed piece of Python alike, so wall
and CPU seconds of runs a few minutes apart differ by more than any bound
worth having.  A normalized figure takes out that drift: each command's
seconds are multiplied by ``REF_NOMINAL_S`` over the mean time of the
worker's reference computation, sampled around and during the command (see
``bench_worker.py``).  The reference uses only the standard library, so no
change to quasident moves it; a normalized second is a second at the speed at
which the reference takes ``REF_NOMINAL_S``.  Set-up is normalized by the
reference samples the worker takes right after it.  The result line carries
``run_norm_s``, ``cpu_norm_s``, ``peak_rss_mb`` and ``setup_s``.

``--trace 1`` runs every command of a pass untraced and then traced, back to
back, and reports the per-layer metrics of ``bench_trace.py`` (medians over
passes) plus ``trace.overhead_s``, the median over passes of the traced minus
the untraced normalized wall seconds of the pass's commands.  ``trace.bookkeeping_s``
is the part of that overhead the tracer measures itself: the time spent on
size counters.  It also prints the layer times of every command and writes
all spans to ``.perfbench-out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_trace
from bench_trace import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 30
# About one reference sample's time on the 2-CPU host of the baseline, so
# that normalized seconds read close to wall seconds there.
REF_NOMINAL_S = 0.001

FIGURES = {"run_s": "s", "cpu_s": "s", "run_norm_s": "s", "cpu_norm_s": "s",
           "peak_rss_mb": "MB", "setup_wall_s": "s", "setup_s": "s"}
SETUP = ("setup_wall_s", "setup_s")
END_TO_END = ("run_norm_s", "cpu_norm_s", "peak_rss_mb", "setup_s")


class Worker:
    """One worker interpreter, started and waited for by the caller."""

    def __init__(self, env: dict[str, str]):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "bench_worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"worker did not start: {ready!r}")

    def run(self, request: dict | None) -> dict | None:
        """Send the request (None ends a set-up-only sample); wait for the exit
        and return the worker's reply, None if it gave none."""
        text = "" if request is None else json.dumps(request) + "\n"
        stdout, _ = self.proc.communicate(text)
        if not stdout.strip():
            return None
        return json.loads(stdout.strip().splitlines()[-1])

    def setup(self, reply: dict) -> tuple[float, float]:
        """Set-up seconds, wall and normalized."""
        return self.setup_s, self.setup_s * REF_NOMINAL_S / reply["setup_ref_s"]


def _check(cmd, reply: dict | None, seed: int) -> tuple[str | None, int | None]:
    """Why the command's outcome is wrong (None when it matches), and the
    effective seed its report states."""
    if reply is None:
        return "worker gave no reply", None
    if reply.get("error"):
        return "exception:\n" + reply["error"], None
    if reply["seed_env"] is not None:
        return f"QUASIDENT_SEED={reply['seed_env']!r} was set in the command's environment", None
    if reply["exit_code"] != 0:
        return f"exit code {reply['exit_code']}: {reply['report'][:300]}", None
    report = json.loads(reply["report"])
    effective = report["config"]["seed"]
    if report.get("pass") is not True:
        return "report has no \"pass\": true", effective
    if effective != seed:
        return f"effective seed {effective} differs from --seed {seed}", effective
    results = report["results"]
    wrong = {k: results.get(k) for k, v in cmd.expect.items() if results.get(k) != v}
    if wrong:
        return f"expected {cmd.expect}, got {wrong}", effective
    return None, effective


def run_pass(commands, seed: int, env: dict[str, str], trace: bool) -> dict:
    """Run every command once; return the pass's totals and failures.

    With trace, every command runs untraced and then traced, back to back:
    ``overhead_s`` is the sum of the traced minus the untraced normalized wall
    seconds.  The other totals always come from the untraced runs.
    """
    totals = {key: 0.0 for key in FIGURES if key not in SETUP}
    totals["overhead_s"] = 0.0
    setups, failures, per_command, seeds = [], [], [], set()
    attempted = 0
    for cmd in commands:
        walls = []
        for traced in (False, True) if trace else (False,):
            worker = Worker(env)
            reply = worker.run({"argv": ["--format", "json", *cmd.argv], "trace": traced})
            if reply is not None:
                setups.append(worker.setup(reply))
            attempted += 1
            problem, effective = _check(cmd, reply, seed)
            seeds.add(effective)
            if problem is not None:
                failures.append(f"{cmd.label}: {problem}")
            if reply is None:
                continue
            scale = REF_NOMINAL_S / reply["ref_s"]
            walls.append(reply["wall_s"] * scale)
            if traced:
                if "layers" in reply:
                    per_command.append(
                        {"label": cmd.label, "wall_s": reply["wall_s"],
                         "layers": reply["layers"], "spans": reply["spans"]}
                    )
                continue
            totals["run_s"] += reply["wall_s"]
            totals["cpu_s"] += reply["cpu_s"]
            totals["run_norm_s"] += reply["wall_s"] * scale
            totals["cpu_norm_s"] += reply["cpu_s"] * scale
            totals["peak_rss_mb"] = max(totals["peak_rss_mb"], reply["peak_rss_mb"])
        if len(walls) == 2:
            totals["overhead_s"] += walls[1] - walls[0]
    layers = bench_trace.layer_metrics(bench_trace.combine([c["layers"] for c in per_command]))
    return {**totals, "setups": setups, "failures": failures, "seeds": seeds,
            "attempted": attempted, "layers": layers, "commands": per_command}


def _worker_env() -> dict[str, str]:
    """The caller's environment without QUASIDENT_SEED, with src importable.

    Workers keep bytecode under OUT_DIR, so set-up is timed with a warm
    cache, as an installed CLI starts, whatever PYTHONDONTWRITEBYTECODE says.
    """
    drop = ("QUASIDENT_SEED", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quasident" / "cli.py").is_file():
        print(f"perfbench: no quasident sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_inputs

    if args.workload not in bench_inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench_inputs.WORKLOADS)}")
    commands = bench_inputs.workload_commands(args.workload, args.seed)
    env = _worker_env()

    began = time.perf_counter()
    setups = []
    for _ in range(SETUP_SAMPLES):
        worker = Worker(env)
        setups.append(worker.setup(worker.run(None)))

    passes = []
    passes_began = time.perf_counter()
    while True:
        passes.append(run_pass(commands, args.seed, env, trace=bool(args.trace)))
        now = time.perf_counter()
        if now - began + (now - passes_began) / len(passes) > args.seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    setups += [s for p in passes for s in p["setups"]]
    figures = {key: statistics.median(p[key] for p in passes) for key in FIGURES if key not in SETUP}
    for i, key in enumerate(SETUP):
        figures[key] = statistics.median(s[i] for s in setups)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(commands)} commands, {len(setups)} set-up samples, effective seeds "
          f"{sorted(set().union(*(p['seeds'] for p in passes)), key=str)}")
    for key, unit in FIGURES.items():
        print(f"  {key:<12} {figures[key]:.6g} {unit}")
    print(f"  {'fail_frac':<12} {len(failures) / attempted:.6g} fraction")

    if args.trace:
        layers = {
            key: statistics.median(p["layers"][key] for p in passes)
            for key in LAYER_METRICS
        }
        layers["trace.overhead_s"] = statistics.median(p["overhead_s"] for p in passes)
        for command in passes[0]["commands"]:
            own = bench_trace.layer_metrics(command["layers"])
            busy = {k: v for k, v in own.items() if k.endswith("_s") and v >= 0.005}
            parts = " ".join(f"{k}={v:.3f}" for k, v in sorted(busy.items(), key=lambda kv: -kv[1]))
            print(f"  trace {command['label']}: wall {command['wall_s']:.3f} s; {parts}")
        for key in LAYER_METRICS:
            print(f"  {key:<30} {layers[key]:.6g} {LAYER_METRICS[key]}")
        print(f"  {'trace.overhead_s':<30} {layers['trace.overhead_s']:.6g} s")
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans_file.write_text(json.dumps(
            [{"pass": i, **c} for i, p in enumerate(passes) for c in p["commands"]]
        ))
        metrics = {k: {"value": v, "unit": LAYER_METRICS.get(k, "s")} for k, v in layers.items()}
    else:
        metrics = {k: {"value": figures[k], "unit": FIGURES[k]} for k in END_TO_END}

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
