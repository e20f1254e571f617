"""Run one quasident CLI command in a fresh interpreter and report its cost.

Protocol (one worker per command, so no program state carries over):

1. the worker imports ``quasident.cli`` and prints ``ready``; the parent
   times process start to this line as set-up;
2. the parent writes one JSON request line, ``{"argv": [...], "trace": bool}``,
   or closes stdin to end a set-up-only sample, to which the worker replies
   with ``setup_ref_s`` alone;
3. the worker runs ``run_command(argv)`` exactly as the CLI entry point would,
   with its report captured, and prints one JSON line: exit code, report
   text, wall and CPU seconds of the command, peak resident memory, the
   ``QUASIDENT_SEED`` it saw, the reference time and, when traced, spans and
   layer metrics.

The reference time is the mean time of ``reference_work``, a fixed
stdlib-only computation of about a millisecond that no change to quasident
can speed up or slow down, so it measures how fast the machine ran the
interpreter while the command ran.  ``SpeedProbe`` times it ten times just
before and just after the command and once every 50 ms during it, from a
``SIGALRM`` handler; the samples taken during the command are subtracted
from its wall and CPU seconds.  ``setup_ref_s``, the mean of the ten samples
before, does the same for the set-up that just ended.  In a traced command they count toward the
layer they interrupt (about 2% of its time).

The parent puts ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from fractions import Fraction

from quasident.cli import run_command


PROBE_EVERY_S = 0.05
EDGE_SAMPLES = 10


def reference_work() -> None:
    """Fixed pure-Python work like the program's: Fractions, dicts, sorting."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 250):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    sorted(table.values())


class SpeedProbe:
    """Samples of reference_work's wall seconds around and during a command."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.armed = False
        self.wall_s = 0.0  # spent sampling while armed
        self.cpu_s = 0.0

    def sample(self) -> None:
        """Time reference_work once, with the garbage collector off so that
        the heap the command builds does not count."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if was_enabled:
                gc.enable()

    def edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def _tick(self, _signum, _frame) -> None:
        if not self.armed:
            return
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.sample()
        self.wall_s += time.perf_counter() - wall0
        self.cpu_s += time.process_time() - cpu0

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.armed = False

    def ref_s(self) -> float:
        return statistics.fmean(self.samples)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident set of this process and its children, in MB.

    VmHWM belongs to the address space made at exec; ru_maxrss of a spawned
    process can instead report its parent's resident set at fork time.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    kb = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main() -> int:
    print("ready", flush=True)
    line = sys.stdin.readline()
    probe = SpeedProbe()
    probe.edge()
    setup_ref_s = probe.ref_s()
    if not line:
        sys.stdout.write(json.dumps({"setup_ref_s": setup_ref_s}) + "\n")
        return 0
    request = json.loads(line)
    tracer = None
    if request["trace"]:
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    reply = {"seed_env": os.environ.get("QUASIDENT_SEED"), "setup_ref_s": setup_ref_s}
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    probe.arm()
    try:
        if tracer is None:
            reply["exit_code"] = run_command(request["argv"], out)
        else:
            reply["exit_code"] = tracer.call("cli.command", run_command, request["argv"], out)
    except Exception:  # reported to the parent, which counts the command as failed
        reply["exit_code"] = None
        reply["error"] = traceback.format_exc()
    finally:
        probe.disarm()
    reply["wall_s"] = time.perf_counter() - start - probe.wall_s
    reply["cpu_s"] = _cpu_seconds() - cpu0 - probe.cpu_s
    reply["peak_rss_mb"] = _peak_rss_mb()
    probe.edge()
    reply["ref_s"] = probe.ref_s()
    reply["report"] = out.getvalue()
    if tracer is not None:
        reply["layers"] = tracer.totals()
        reply["spans"] = tracer.spans
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
