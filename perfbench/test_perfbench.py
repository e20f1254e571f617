"""Self-tests of the benchmark: its seeded inputs and its trace counters.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import bench_worker  # noqa: E402
import run as bench_run  # noqa: E402
from quasident.cli import run_command  # noqa: E402


def _report(argv: list[str]) -> dict:
    out = io.StringIO()
    assert run_command(["--format", "json", *argv], out) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_same_seed_same_commands(workload):
    first = bench_inputs.workload_commands(workload, 7)
    assert first == bench_inputs.workload_commands(workload, 7)
    if workload in ("symbolic-eval", "randomized-eval"):
        assert first != bench_inputs.workload_commands(workload, 8)


@pytest.mark.parametrize("seed", [1, 2])
def test_check_verdicts_hold_by_point_evaluation(seed):
    """Each constructed check verdict, confirmed in the other (randomized) mode."""
    for ci in bench_inputs.check_inputs(seed):
        results = _report(["--mode", "randomized", "--trials", "3", "--seed", str(seed),
                           "check", "--n", str(ci.n), "--expr", ci.text])["results"]
        assert (results["quasi_identity"], results["central"]) == (ci.quasi_identity, ci.central), ci.label


@pytest.mark.parametrize("seed", [1, 2])
def test_capelli_verdicts_hold_in_the_other_mode(seed):
    """Symbolic families by point evaluation; randomized ones symbolically at n=2
    (the n=3 family is out of symbolic reach)."""
    cases = [(fam, "randomized") for fam in bench_inputs.capelli_families(seed, "symbolic")]
    cases += [(fam, "symbolic") for fam in bench_inputs.capelli_families(seed, "randomized")
              if fam[1] == 2]
    for (label, n, fs, verdict), mode in cases:
        argv = ["--mode", mode, "--seed", str(seed), "capelli-dep", "--n", str(n)]
        for f in fs:
            argv += ["--expr", f]
        assert _report(argv)["results"]["verdict"] == verdict, label


SMALL = [
    bench_inputs.Command("solve-multilinear:2,3", ("--seed", "3", "solve-multilinear", "--n", "2", "--degree", "3"),
                         {"dimension": 21, "unknowns": 142}),
    bench_inputs.Command("verify-ch:3", ("--seed", "3", "verify-ch", "--n", "3"), {"Q_is_identity": True}),
    bench_inputs.Command("antisym-dim:2", ("--seed", "3", "antisym", "dim", "--n", "2"), {"rank": 8}),
    bench_inputs.Command("antisym-corollary2:2", ("--seed", "3", "antisym", "corollary2", "--n", "2"),
                         {"intersection_dim": 0}),
] + [c for c in bench_inputs.workload_commands("randomized-eval", 3) if "Q2-subst" in c.label]


def test_trace_counters_repeat_exactly():
    env = bench_run._worker_env()
    passes = [bench_run.run_pass(SMALL, 3, env, trace=True) for _ in range(2)]
    assert [p["failures"] for p in passes] == [[], []]
    counts = [json.dumps({k: p["layers"][k] for k in bench_trace.COUNT_METRICS}) for p in passes]
    assert counts[0] == counts[1]
    layers = passes[0]["layers"]
    for key in ("exactla.sparse_calls", "exactla.canon_calls", "genmat.phi_eval_calls",
                "antisym.standard_value_calls", "ratpoly.mul_calls", "cli.parse_s",
                "idsolve.solve_s", "antisym.realize_rank_s"):
        assert layers[key] > 0, key


def test_wrong_answers_and_seed_override_are_failures():
    wrong = bench_inputs.Command("solve-multilinear:2,2", ("--seed", "3", "solve-multilinear", "--n", "2",
                                                           "--degree", "2"), {"dimension": 2})
    env = bench_run._worker_env()
    assert len(bench_run.run_pass([wrong], 3, env, trace=False)["failures"]) == 1
    right = bench_inputs.Command("verify-ch:2", ("--seed", "3", "verify-ch", "--n", "2"), {})
    assert bench_run.run_pass([right], 3, env, trace=False)["failures"] == []
    failures = bench_run.run_pass([right], 3, {**env, "QUASIDENT_SEED": "3"}, trace=False)["failures"]
    assert len(failures) == 1 and "QUASIDENT_SEED" in failures[0]


def test_speed_probe_samples_during_a_command_and_its_time_is_taken_out():
    probe = bench_worker.SpeedProbe()
    probe.edge()
    start = time.perf_counter()
    probe.arm()
    try:
        while time.perf_counter() - start < 0.5:
            pass
    finally:
        probe.disarm()
    wall = time.perf_counter() - start
    during = len(probe.samples) - bench_worker.EDGE_SAMPLES
    assert during >= 5
    assert 0 < probe.wall_s < wall / 5
    assert probe.ref_s() > 0
