"""Per-layer tracing of quasident from outside the package.

``Tracer.install`` wraps the public functions of each layer at every binding
its callers use: it replaces the function object wherever a loaded
``quasident`` module holds it (so ``idsolve``'s by-name import of
``nullspace_of_rows`` and ``antisym``'s global lookups both see the wrapper),
and patches methods such as ``Subspace.__init__`` on the class.  Each call of
a wrapped function records a span ``[name, parent, start, end]``; spans stay
in memory until the worker reports them.

Hot inner helpers (``CPoly.__mul__``, ``QuasiPoly.__mul__``, ``mat_mul``) get
no span, only a call counter.  Size counters (rows, nonzeros, cells, bit
sizes) are computed with the span clock paused, so they add to the traced
wall time, which ``trace.overhead_s`` reports, but not to any layer's time;
``trace.bookkeeping_s`` is their total.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Metric name -> unit, in report order.  "_s" metrics are self time (span
# duration minus the spans it directly caused) except idsolve.solve_s, which
# is the whole solve; idsolve.assemble_s is its self time.
LAYER_METRICS = {
    "cli.parse_s": "s",
    "genmat.phi_eval_s": "s",
    "genmat.phi_eval_calls": "count",
    "genmat.phi_eval_words": "count",
    "genmat.image_terms": "count",
    "genmat.evaluate_s": "s",
    "genmat.evaluate_calls": "count",
    "genmat.ch_build_s": "s",
    "genmat.witness_s": "s",
    "ratpoly.mul_calls": "count",
    "freealg.mul_calls": "count",
    "idsolve.solve_s": "s",
    "idsolve.assemble_s": "s",
    "idsolve.dep_s": "s",
    "exactla.sparse_s": "s",
    "exactla.sparse_calls": "count",
    "exactla.sparse_rows": "count",
    "exactla.sparse_nnz": "count",
    "exactla.sparse_pivot_ratio": "ratio",
    "exactla.nullity": "count",
    "exactla.canon_s": "s",
    "exactla.canon_calls": "count",
    "exactla.canon_cells": "count",
    "exactla.canon_max_bits": "bits",
    "exactla.rref_s": "s",
    "exactla.intersect_s": "s",
    "antisym.realize_rank_s": "s",
    "antisym.standard_value_s": "s",
    "antisym.standard_value_calls": "count",
    "antisym.mat_mul_calls": "count",
    "antisym.fn_mul_s": "s",
    "antisym.fn_mul_calls": "count",
    "antisym.t_form_s": "s",
    "antisym.ideal_s": "s",
    "antisym.kerim_s": "s",
    "trace.bookkeeping_s": "s",
}

# Counters that must repeat exactly for the same inputs.
COUNT_METRICS = tuple(k for k, unit in LAYER_METRICS.items() if unit in ("count", "bits"))


def _bits(q) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


class Tracer:
    """Spans and counters for one traced command."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        """Span clock: wall time minus the time spent on size counters."""
        return time.perf_counter() - self._paused

    def _bookkeep(self, fn, *args) -> object:
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._paused += time.perf_counter() - start

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else None, self.now(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = self.now()
            self._stack.pop()

    def spanned(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args) may replace the positional
        arguments and after(args, result) updates counters, both off the clock."""

        def wrapper(*args, **kwargs):
            if before is not None:
                args = self._bookkeep(before, args)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                self._bookkeep(after, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries of the loaded quasident package."""
        from quasident import antisym, cli, exactla, genmat, idsolve
        from quasident.freealg import QuasiPoly
        from quasident.ratpoly import CPoly

        c = self.counts

        def sparse_before(args):
            rows = list(args[0])
            c["exactla.sparse_rows"] += len(rows)
            c["exactla.sparse_nnz"] += sum(len(r) for r in rows)
            return (rows,) + tuple(args[1:])

        def sparse_after(args, basis):
            c["exactla.sparse_calls"] += 1
            c["exactla.nullity"] += len(basis)
            c["exactla.sparse_rank"] += args[1] - len(basis)

        def canon_before(args):
            basis = list(args[2])
            c["exactla.canon_cells"] += args[1] * len(basis)
            return (args[0], args[1], basis) + tuple(args[3:])

        def canon_after(args, _result):
            c["exactla.canon_calls"] += 1
            bits = max((_bits(x) for row in args[0].basis for x in row if x), default=0)
            c["exactla.canon_max_bits"] = max(c["exactla.canon_max_bits"], bits)

        def phi_after(args, image):
            c["genmat.phi_eval_calls"] += 1
            c["genmat.phi_eval_words"] += len(args[0])
            c["genmat.image_terms"] += sum(len(e) for row in image.data for e in row)

        def calls(key):
            return lambda args, result: c.update((key,))

        spanned = [
            (cli.parse_quasipoly, "cli.parse", None, None),
            (genmat.phi_eval, "genmat.phi_eval", None, phi_after),
            (genmat.evaluate, "genmat.evaluate", None, calls("genmat.evaluate_calls")),
            (genmat.cayley_hamilton_q, "genmat.ch_build", None, None),
            (genmat.cayley_hamilton_Q, "genmat.ch_build", None, None),
            (genmat.cayley_hamilton_q_trace, "genmat.ch_build", None, None),
            (genmat.cayley_hamilton_Q_trace, "genmat.ch_build", None, None),
            (genmat.central_witness, "genmat.witness", None, None),
            (idsolve.multilinear_identity_space, "idsolve.solve", None, None),
            (idsolve.local_lin_dep, "idsolve.dep", None, None),
            (exactla.nullspace_of_rows, "exactla.sparse", sparse_before, sparse_after),
            (exactla.rref, "exactla.rref", None, None),
            (antisym.realize_rank, "antisym.realize_rank", None, None),
            (antisym.standard_value_raw, "antisym.standard_value", None,
             calls("antisym.standard_value_calls")),
            (antisym.fn_mul, "antisym.fn_mul", None, calls("antisym.fn_mul_calls")),
            (antisym.t_form, "antisym.t_form", None, None),
            (antisym.ideal_component, "antisym.ideal", None, None),
            (antisym.verify_kerim, "antisym.kerim", None, None),
        ]
        for fn, name, before, after in spanned:
            _rebind(fn, self.spanned(name, fn, before, after))
        _rebind(antisym.mat_mul, self.counted("antisym.mat_mul_calls", antisym.mat_mul))

        subspace = exactla.Subspace
        subspace.__init__ = self.spanned(
            "exactla.canon", subspace.__init__, canon_before, canon_after
        )
        subspace.intersect = self.spanned("exactla.intersect", subspace.intersect)
        CPoly.__mul__ = self.counted("ratpoly.mul_calls", CPoly.__mul__)
        CPoly.__rmul__ = self.counted("ratpoly.mul_calls", CPoly.__rmul__)
        QuasiPoly.__mul__ = self.counted("freealg.mul_calls", QuasiPoly.__mul__)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, plus inclusive time as '<name>:total'."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Counter = Counter()
        for i, (name, _parent, start, end) in enumerate(self.spans):
            out[name] += end - start - child_time[i]
            out[name + ":total"] += end - start
        return dict(out)

    def totals(self) -> dict[str, float]:
        """Additive raw figures: self times by metric name and all counters."""
        times = self.self_times()
        out = {key: times.get(key[:-2], 0.0) for key, unit in LAYER_METRICS.items() if unit == "s"}
        out["idsolve.solve_s"] = times.get("idsolve.solve:total", 0.0)
        out["idsolve.assemble_s"] = times.get("idsolve.solve", 0.0)
        out["trace.bookkeeping_s"] = self._paused
        out.update(self.counts)
        return out


def combine(totals: list[dict[str, float]]) -> dict[str, float]:
    """Totals of several commands: sums, except the largest bit size."""
    out: Counter = Counter()
    for t in totals:
        for key, value in t.items():
            if key == "exactla.canon_max_bits":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return dict(out)


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The LAYER_METRICS values for (combined) totals."""
    metrics = {key: totals.get(key, 0) for key in LAYER_METRICS}
    rows = totals.get("exactla.sparse_rows", 0)
    metrics["exactla.sparse_pivot_ratio"] = (
        totals.get("exactla.sparse_rank", 0) / rows if rows else 0.0
    )
    return metrics


def _rebind(original, wrapper) -> None:
    """Point every quasident module attribute holding original at wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "quasident" or name.startswith("quasident.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
