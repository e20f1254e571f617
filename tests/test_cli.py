import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import quasident
from quasident import antisym, cli, genmat, idsolve
from quasident.cli import format_quasipoly, parse_quasipoly, run_command
from quasident.errors import BudgetExceeded, DimensionRequired, QuasiSyntaxError
from quasident.freealg import QuasiPoly
from quasident.ratpoly import CPoly

x = QuasiPoly.x
c = CPoly.variable


def run_json(argv):
    buf = io.StringIO()
    code = run_command(["--format", "json"] + list(argv), buf)
    return code, json.loads(buf.getvalue())


def test_parse_standard_polynomial():
    assert parse_quasipoly("x1*x2 - x2*x1") == genmat.standard_poly(2)


def test_parse_paper_p1():
    p1 = parse_quasipoly(
        "c[2,1,2] x1 - c[1,1,2] x2 + (c[1,1,2] c[2,2,2] - c[1,2,2] c[2,1,2])"
    )
    expected = c(2, 1, 2) * x(1) - c(1, 1, 2) * x(2) + QuasiPoly.const(
        c(1, 1, 2) * c(2, 2, 2) - c(1, 2, 2) * c(2, 1, 2)
    )
    assert p1 == expected


def test_parse_trace_macro():
    p = parse_quasipoly("tr(x1) x1", n=2)
    assert p == QuasiPoly.const(c(1, 1, 1) + c(1, 2, 2)) * x(1)


def test_parse_trace_needs_dimension():
    with pytest.raises(DimensionRequired):
        parse_quasipoly("tr(x1)")


def test_parse_rationals_and_powers():
    p = parse_quasipoly("3/2 x1^2 - 1")
    assert p == (x(1) * x(1)).scale(Fraction(3, 2)) - QuasiPoly.one()
    # A number is an atom wherever it appears: one that opens a term takes
    # an exponent too, bound tighter than the term's sign.
    assert parse_quasipoly("2^3*x1") == parse_quasipoly("x1*2^3") == x(1).scale(8)
    assert parse_quasipoly("-2^2*x1") == x(1).scale(-4)
    assert parse_quasipoly("(2/3)^2") == QuasiPoly.const(Fraction(4, 9))
    # A fraction takes no exponent; the refusal points at the '^'.
    for expr, column in (("x1*2/3^2", 7), ("2/3^2*x1", 4)):
        with pytest.raises(QuasiSyntaxError, match=r"\(2/3\)\^") as err:
            parse_quasipoly(expr)
        assert (err.value.line, err.value.column) == (1, column)


def test_syntax_error_position():
    with pytest.raises(QuasiSyntaxError) as err:
        parse_quasipoly("x1 +\n  x2 @")
    assert err.value.line == 2
    assert err.value.column == 6


def test_roundtrip_on_random_polys():
    rng = random.Random(0)
    for _ in range(100):
        p = QuasiPoly.zero()
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            coeff = CPoly.const(rng.randint(-5, 5))
            if rng.random() < 0.5:
                coeff = coeff * c(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            p = p + QuasiPoly({w: coeff})
        if p.is_zero():
            continue
        assert parse_quasipoly(format_quasipoly(p), n=3) == p


def test_roundtrip_on_named_polynomials():
    for p in (
        genmat.standard_poly(3),
        genmat.capelli(2),
        genmat.cayley_hamilton_q(2),
        genmat.cayley_hamilton_Q(2),
        genmat.cayley_hamilton_q(3),
    ):
        assert parse_quasipoly(format_quasipoly(p), n=3) == p


def random_expression(rng, n, depth):
    """A random expression tree as (text, value): the text in the grammar,
    the value built from QuasiPoly arithmetic, a tr(...) atom's value from
    the diagonal of phi_eval."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(("rational", "gen", "coeff", "trace"))
        if kind == "rational":
            num, den = rng.randint(0, 12), rng.choice((1, 1, 2, 3, 6))
            text = str(num) if den == 1 else f"{num}/{den}"
            return text, QuasiPoly.const(Fraction(num, den))
        if kind == "gen":
            k = rng.randint(1, 3)
            return f"x{k}", x(k)
        if kind == "coeff":
            k, i, j = rng.randint(1, 3), rng.randint(1, n), rng.randint(1, n)
            return f"c[{k},{i},{j}]", QuasiPoly.const(c(k, i, j))
        letters = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        image = genmat.phi_eval(QuasiPoly.from_word(letters), n)
        trace = sum((image[i, i] for i in range(n)), CPoly.zero())
        return "tr(" + "*".join(f"x{k}" for k in letters) + ")", QuasiPoly.const(trace)
    # A product or power whose expansion could pass 400 terms is left out,
    # so every tree stays quick to expand.
    kind = rng.choice(("sum", "product", "product", "power", "negation"))
    a_text, a = random_expression(rng, n, depth - 1)
    if kind == "power":
        e = rng.randint(0, 3)
        if a.term_count() ** e > 400:
            return a_text, a
        return f"({a_text})^{e}", a ** e
    if kind == "negation":
        return f"(-{a_text})", -a
    b_text, b = random_expression(rng, n, depth - 1)
    if kind == "sum":
        op = rng.choice(("+", "-"))
        return f"({a_text} {op} {b_text})", a + b if op == "+" else a - b
    if a.term_count() * b.term_count() > 400:
        return a_text, a
    return a_text + rng.choice((" ", "*", " * ")) + b_text, a * b


@pytest.mark.parametrize("n", [2, 3])
def test_parse_equals_the_value_built_by_quasipoly_arithmetic(n):
    rng = random.Random(n)
    for _ in range(150):
        text, expected = random_expression(rng, n, rng.randint(1, 4))
        if rng.random() < 0.3:
            text, expected = "-" + text, -expected
        parsed = parse_quasipoly(text, n)
        assert parsed == expected, text
        assert format_quasipoly(parsed) == format_quasipoly(expected), text


def test_repeated_sum_factors_merge_as_they_multiply():
    # Unmerged, the cross product of k factors keeps 2^k terms; merged after
    # each factor, 30 factors leave 31 monomials c[1,1,1]^a c[1,1,2]^(30-a).
    started = time.monotonic()
    p = parse_quasipoly("*".join(["(c[1,1,1]+c[1,1,2])"] * 30))
    assert time.monotonic() - started < 1
    assert p.term_count() == 31


def test_verify_ch_command():
    code, report = run_json(["verify-ch", "--n", "2"])
    assert code == 0
    assert report["pass"] is True
    assert report["results"]["q_is_identity"] is True
    assert report["results"]["Q_is_identity"] is True
    assert report["schema"] == "quasident/1"


def test_solve_multilinear_command():
    code, report = run_json(["solve-multilinear", "--n", "2", "--degree", "2"])
    assert code == 0
    assert report["results"]["dimension"] == 1
    assert report["results"]["spans_Qn"] is True


def test_solve_multilinear_over_the_path_term_budget_is_refused():
    code, report = run_json(["--budget", "95498", "solve-multilinear", "--n", "3", "--degree", "4"])
    assert code == 2
    assert report["error"]["type"] == "BudgetExceeded"
    assert "path terms" in report["error"]["message"]


def test_solve_multilinear_degree_one():
    code, report = run_json(["solve-multilinear", "--n", "2", "--degree", "1"])
    assert code == 0
    assert report["results"]["dimension"] == 0


def test_check_command_quasi_identity(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("x1*x2*x3*x4 - x2*x1*x3*x4")
    code, report = run_json(["check", "--n", "2", "--expr", "(x1*x2 - x2*x1)^2"])
    assert code == 0
    assert report["results"]["central"] is True
    assert report["results"]["quasi_identity"] is False


def test_check_command_noncentral_witness():
    code, report = run_json(["check", "--n", "3", "--expr", "(x1*x2 - x2*x1)^2"])
    assert code == 0
    assert report["results"]["central"] is False
    assert "non_central_witness" in report["results"]


def test_check_command_file_input(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(
        "c[2,1,2] x1 - c[1,1,2] x2\n  + (c[1,1,2] c[2,2,2] - c[1,2,2] c[2,1,2])\n"
    )
    code, report = run_json(["check", "--n", "2", "--input", str(path)])
    assert code == 0
    assert report["results"]["quasi_identity"] is False
    assert report["results"]["ordinary_identity"] is None


def test_capelli_dep_command(tmp_path):
    path = tmp_path / "fs.txt"
    path.write_text("1\nx1\nx1*x1\n# comment line\n")
    code, report = run_json(["capelli-dep", "--n", "2", "--input", str(path)])
    assert code == 0
    assert report["results"]["verdict"] == "dependent"


def test_capelli_dep_syntax_errors_report_the_input_position(tmp_path):
    # The k-th --expr is line k; a file's line keeps its own columns.  An
    # error at the end of a line is placed just past its last token.
    for expr, where in (("x2 @", "(line 2, column 4)"), ("x2 +", "(line 2, column 5)")):
        code, report = run_json(["capelli-dep", "--n", "2", "--expr", "x1", "--expr", expr])
        assert code == 2
        assert report["error"]["message"].endswith(where)
    path = tmp_path / "fs.txt"
    path.write_text("1\nx1\n  x0 # c\n")
    code, report = run_json(["capelli-dep", "--n", "2", "--input", str(path)])
    assert code == 2
    assert report["error"]["message"] == (
        "generator index must be positive, found 'x0' (line 3, column 3)"
    )


def test_capelli_dep_ledger_is_the_library_ledger():
    fs = ["1", "x1", "x1*x1"]
    for n, mode in ((2, "symbolic"), (3, "symbolic"), (2, "randomized")):
        argv = ["--mode", mode, "capelli-dep", "--n", str(n)]
        code, report = run_json(argv + [a for f in fs for a in ("--expr", f)])
        ledger = idsolve.local_lin_dep([parse_quasipoly(f) for f in fs], n, mode=mode)
        assert code == 0 and report["results"] == json.loads(json.dumps(cli._jsonable(ledger)))


def test_capelli_dep_over_the_composite_budget_is_refused():
    # 3! orderings of 3 * 2 * 1 word choices: 36 scalar terms.
    argv = ["capelli-dep", "--n", "2", "--expr", "x1+x2+x3", "--expr", "x1*x2+x3", "--expr", "x4"]
    code, report = run_json(["--budget", "30"] + argv)
    assert code == 2 and report["error"] == {
        "type": "BudgetExceeded",
        "message": "Capelli composite has 36 scalar terms, over the budget 30",
    }
    code, report = run_json(["--budget", "60"] + argv)
    assert code == 2 and "symbolic evaluation" in report["error"]["message"]


def test_capelli_dep_independent():
    code, report = run_json(["capelli-dep", "--n", "2", "--expr", "x1", "--expr", "x2"])
    assert code == 0
    assert report["results"]["verdict"] == "independent"
    witness = report["results"]["witness"]
    assert "point" in witness
    # Matrix entries print as exact rationals, never as JSON numbers.
    matrices = [*witness["point"].values(), *witness["values"]]
    assert matrices and all(
        isinstance(e, str) for m in matrices for row in m for e in row
    )


def test_antisym_kerim_command():
    code, report = run_json(["antisym", "kerim", "--n", "3"])
    assert code == 0
    assert report["results"]["ambient"] == 7
    assert report["results"]["image_rank"] == 6
    assert report["results"]["ker_rho_equals_image"] is True


def test_antisym_kerim_command_at_n5():
    code, report = run_json(["antisym", "kerim", "--n", "5"])
    assert code == 0
    assert report["pass"] is True
    assert report["results"]["codimension"] == 1


def test_antisym_kerim_over_the_cell_budget_is_refused():
    code, report = run_json(["--budget", "1099", "antisym", "kerim", "--n", "5"])
    assert code == 2
    assert report["error"]["type"] == "BudgetExceeded"


def test_antisym_corollary2_command():
    code, report = run_json(["antisym", "corollary2", "--n", "2"])
    assert code == 0
    assert report["results"]["ambient"] == 7
    assert report["results"]["ideal_dim"] == 4
    assert report["results"]["block_dim"] == 3
    assert report["results"]["intersection_dim"] == 0


def test_antisym_corollary2_over_the_cell_budget_is_refused():
    # The ideal's spanning matrix has 26,569 cells at n = 3 and 276,661,792
    # at n = 4; a refusal comes before any basis or product is built.
    start = time.monotonic()
    code, report = run_json(["antisym", "corollary2", "--n", "4"])
    assert time.monotonic() - start < 1
    assert code == 2 and report["error"]["type"] == "BudgetExceeded"
    code, report = run_json(["--budget", "26568", "antisym", "corollary2", "--n", "3"])
    assert code == 2 and report["error"]["type"] == "BudgetExceeded"
    code, report = run_json(["--budget", "26569", "antisym", "corollary2", "--n", "3"])
    assert code == 0 and report["results"]["intersection_dim"] == 0


def test_antisym_ledgers_are_the_library_ledgers():
    code, report = run_json(["antisym", "kerim", "--n", "3"])
    assert code == 0 and report["results"] == antisym.verify_kerim(3)
    code, report = run_json(["antisym", "corollary2", "--n", "2"])
    assert code == 0 and report["results"] == antisym.corollary2(2)


def test_antisym_kerim_and_corollary2_refuse_with_one_message():
    # n^2 = 9 is under the budget 20, so both maps' cells are counted.
    messages = set()
    for command in ("kerim", "corollary2"):
        code, report = run_json(["--budget", "20", "antisym", command, "--n", "3"])
        assert code == 2 and report["error"]["type"] == "BudgetExceeded"
        messages.add(report["error"]["message"])
    assert messages == {
        "the top-degree multiplication map at n=3 has more than the budget's 20 cells"
    }


def test_antisym_dim_command():
    code, report = run_json(["antisym", "dim", "--n", "2"])
    assert code == 0
    assert report["results"]["expected"] == 8
    assert report["results"]["certified"] is True


def test_antisym_dim_over_the_shuffle_budget_is_refused():
    # The rank certificate walks 13,932 shuffle terms at n = 3 and
    # 125,619,384 at n = 4; unbudgeted, n = 4 ran past 300 s.
    start = time.monotonic()
    code, report = run_json(["antisym", "dim", "--n", "4"])
    assert time.monotonic() - start < 1
    assert code == 2 and report["error"]["type"] == "BudgetExceeded"
    code, report = run_json(["--budget", "13931", "antisym", "dim", "--n", "3"])
    assert code == 2 and report["error"]["type"] == "BudgetExceeded"
    code, report = run_json(["--budget", "13932", "antisym", "dim", "--n", "3"])
    assert code == 0 and report["results"]["certified"] is True


def test_antisym_dim_past_the_budget_is_refused_before_realizing():
    # samples * n * 2^n = 12 * 15 * 2^15 is over the budget; the parent
    # realized all 491,520 monomials first (37 s, 683 MB).
    start = time.monotonic()
    code, report = run_json(["antisym", "dim", "--n", "15"])
    assert time.monotonic() - start < 1
    assert code == 2 and report["error"] == {
        "type": "BudgetExceeded",
        "message": "the rank certificate at n=15 walks more than the budget's 200000 shuffle terms",
    }
    code, report = run_json(["antisym", "dim", "--n", "2"])
    assert code == 0 and report["results"] == antisym.certify_dim(2, samples=12, budget=200_000)


def test_json_determinism():
    a, b = io.StringIO(), io.StringIO()
    run_command(["--format", "json", "antisym", "dim", "--n", "2"], a)
    run_command(["--format", "json", "antisym", "dim", "--n", "2"], b)
    assert a.getvalue() == b.getvalue()


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("QUASIDENT_SEED", "77")
    code, report = run_json(["antisym", "dim", "--n", "2"])
    assert code == 0
    assert report["config"]["seed"] == 77


def test_seed_env_that_is_not_an_integer_is_an_error_report(monkeypatch):
    monkeypatch.setenv("QUASIDENT_SEED", "abc")
    code, report = run_json(["verify-ch", "--n", "2"])
    assert code == 2
    assert report["error"] == {
        "type": "QuasidentError",
        "message": "QUASIDENT_SEED must be an integer, got 'abc'",
    }


def test_error_report_is_machine_readable():
    buf = io.StringIO()
    code = run_command(["--format", "json", "check", "--n", "2", "--expr", "x1 + @"], buf)
    assert code == 2
    payload = json.loads(buf.getvalue())
    assert payload["error"]["type"] == "QuasiSyntaxError"
    assert "line 1" in payload["error"]["message"]


def test_invalid_dimension_is_an_error_report():
    for argv, message in (
        (["verify-ch", "--n", "0"], "n must be >= 1, got 0"),
        (["antisym", "kerim", "--n", "1"], "n must be >= 2, got 1"),
        (["antisym", "corollary2", "--n", "1"], "n must be >= 2, got 1"),
        (["solve-multilinear", "--n", "2", "--degree", "0"], "degree must be >= 1, got 0"),
    ):
        code, report = run_json(argv)
        assert code == 2
        assert report["error"] == {"type": "QuasidentError", "message": message}


def test_antisym_dim_accepts_n_1():
    code, report = run_json(["antisym", "dim", "--n", "1"])
    assert code == 0
    assert report["results"]["certified"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "randomized", "--trials", "0", "check", "--n", "2", "--expr", "x1"],
        ["--mode", "randomized", "--bound", "0", "check", "--n", "2", "--expr", "x1"],
        ["--mode", "randomized", "--trials", "0", "capelli-dep", "--n", "2",
         "--expr", "x1", "--expr", "x2"],
        ["--trials", "0", "capelli-dep", "--n", "2", "--expr", "x1", "--expr", "x2"],
        ["--samples", "0", "antisym", "dim", "--n", "2"],
        ["--budget", "0", "verify-ch", "--n", "2"],
    ],
)
def test_randomized_runs_need_a_trial_and_a_nonzero_bound(argv):
    # Zero trials, or bound 0 (only zero matrices), would pass every input;
    # no samples certify no rank, and no budget admits any work.
    code, report = run_json(argv)
    assert code == 2
    assert report["error"]["type"] == "QuasidentError"
    assert report["error"]["message"].endswith("must be >= 1, got 0")


def test_module_entry_point_runs_without_runtime_warning():
    src = Path(quasident.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "quasident.cli",
         "verify-ch", "--n", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "pass: True" in done.stdout


def test_unreadable_input_file_is_an_error_report(tmp_path):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe x1")
    for path in (tmp_path / "missing.txt", binary):
        code, report = run_json(["check", "--n", "2", "--input", str(path)])
        assert code == 2
        assert report["error"]["type"] == "QuasidentError"
        assert str(path) in report["error"]["message"]


@pytest.mark.parametrize("command", ["check", "capelli-dep"])
def test_parse_time_power_over_budget_is_refused(command):
    # Expanded, (x1+x2+x3)^14 has 3^14 (about 4.8 million) terms, and the
    # last exponent would make even the bound 2^e a huge integer.  The small
    # case comes first: without the parse-time check it fails at once.
    for budget, expr in (
        ("100", "(x1+x2)^7"),
        ("200000", "(x1+x2+x3)^14"),
        ("200000", "(x1+x2)^99999999999999"),
    ):
        started = time.monotonic()
        code, report = run_json(["--budget", budget, command, "--n", "2", "--expr", expr])
        assert time.monotonic() - started < 1, expr
        assert code == 2
        assert report["error"]["type"] == "BudgetExceeded"
        assert "power of a" in report["error"]["message"]
    assert parse_quasipoly("(x1+x2)^3", budget=8).term_count() == 8
    with pytest.raises(BudgetExceeded):
        parse_quasipoly("(x1+x2)^3", budget=7)


@pytest.mark.parametrize("expr", ["(x1+x2)^10", "x1^100000"])
def test_symbolic_check_over_the_work_budget_is_refused(expr):
    # Both inputs are far under the term budget, but each word's generic
    # product is n^(|w|+1) coefficient terms; unbounded, both ran past 20 s.
    started = time.monotonic()
    code, report = run_json(["check", "--n", "2", "--expr", expr])
    assert time.monotonic() - started < 1, expr
    assert code == 2
    assert report["error"]["type"] == "BudgetExceeded"
    assert "symbolic evaluation" in report["error"]["message"]


def test_symbolic_check_refuses_before_printing_the_input(monkeypatch):
    # The printed input is thrown away on a refusal: for tr(x1*...*x11) at
    # n = 3, printing it took 3.9 s and phi_eval's refusal 0.3 s.
    printed = []
    monkeypatch.setattr(cli, "format_quasipoly", printed.append)
    code, report = run_json(["check", "--n", "2", "--expr", "(x1+x2)^10"])
    assert code == 2
    assert report["error"]["type"] == "BudgetExceeded"
    assert printed == []


@pytest.mark.parametrize("mode", ["symbolic", "randomized"])
def test_check_with_a_coefficient_index_past_n_is_an_error_report(mode):
    code, report = run_json(["--mode", mode, "check", "--n", "2", "--expr", "c[1,3,1]*x1"])
    assert code == 2
    assert report["error"]["type"] in ("DimensionMismatch", "MissingAssignment")
    assert "c[1,3,1]" in report["error"]["message"]


def test_a_coefficient_index_past_n_is_the_same_error_in_both_modes():
    # Randomized mode once drew points first and then found no value for
    # c[1,3,1]: MissingAssignment, where symbolic mode said DimensionMismatch.
    errors = set()
    for mode in ("symbolic", "randomized"):
        code, report = run_json(["--mode", mode, "check", "--n", "2", "--expr", "c[1,3,1]*x1 + x2"])
        assert code == 2
        errors.add((report["error"]["type"], report["error"]["message"]))
    assert errors == {("DimensionMismatch", "coefficient variable c[1,3,1] exceeds n=2")}


def test_symbolic_capelli_dep_over_the_work_budget_is_refused():
    # The composite x1^100000*x3 - x3*x1^100000 has two terms; unbounded, its
    # symbolic evaluation ran past 10 s.
    started = time.monotonic()
    code, report = run_json(["capelli-dep", "--n", "2", "--expr", "x1^100000", "--expr", "1"])
    assert time.monotonic() - started < 5
    assert code == 2
    assert report["error"]["type"] == "BudgetExceeded"
    assert "symbolic evaluation" in report["error"]["message"]


def test_parse_time_power_with_long_words_is_refused():
    code, report = run_json(["--budget", "1000", "check", "--n", "1", "--expr", "x1^1001"])
    assert code == 2
    assert report["error"]["type"] == "BudgetExceeded"
    assert "words of length 1001" in report["error"]["message"]
    assert parse_quasipoly("x1^1000", budget=1000).word_degree() == 1000


def test_trace_atom_over_the_path_budget_is_refused_before_expansion():
    # tr of a 12-letter word at n=3 walks 3^12 index paths from each of 3
    # start rows, 3^13 in all; expanded before any budget applied, it ran
    # 14 s and reached about 1 GB.
    word = "*".join(f"x{i}" for i in range(1, 13))
    started = time.monotonic()
    code, report = run_json(["check", "--n", "3", "--expr", f"tr({word})"])
    assert time.monotonic() - started < 1
    assert code == 2
    assert report["error"]["type"] == "BudgetExceeded"
    assert "3^13 index paths" in report["error"]["message"]
    with pytest.raises(BudgetExceeded):
        parse_quasipoly("tr(x1*x2)", 3, budget=26)
    assert parse_quasipoly("tr(x1*x2)", 3, budget=27) == QuasiPoly.const(
        genmat.trace_word_cpoly([1, 2], 3)
    )


needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit on integer strings"
)


@needs_digit_limit
@pytest.mark.parametrize("command", ["check", "capelli-dep"])
@pytest.mark.parametrize("template, column", [
    ("N*x1", 1), ("xN", 1), ("x1^N", 4), ("1/N", 3), ("c[1,N,1]", 5),
])
def test_an_integer_past_the_digit_limit_is_a_syntax_error(command, template, column):
    # int() of each N (5,000 digits at the default limit) used to raise
    # ValueError out of run_command.  In capelli-dep it is on the second line.
    limit = sys.get_int_max_str_digits()
    expr = template.replace("N", "7" * (limit + 1))
    argv = ["check", "--n", "2", "--expr", expr]
    if command == "capelli-dep":
        argv = ["capelli-dep", "--n", "2", "--expr", "x1", "--expr", expr]
    code, report = run_json(argv)
    line = 2 if command == "capelli-dep" else 1
    assert code == 2 and report["error"] == {
        "type": "QuasiSyntaxError",
        "message": f"a {limit + 1}-digit integer is longer than the {limit}-digit limit "
        f"(line {line}, column {column})",
    }
    assert cli._tokenize(template.replace("N", "7" * limit))


@pytest.mark.parametrize("command", ["check", "capelli-dep"])
def test_parse_time_power_of_high_coefficient_degree_is_refused(command):
    # Expanded, c[1,1,1]^30000000 took 18.9 s and 933 MB before phi_eval saw it.
    started = time.monotonic()
    code, report = run_json([command, "--n", "2", "--expr", "c[1,1,1]^30000000"])
    assert time.monotonic() - started < 1
    assert code == 2 and report["error"] == {
        "type": "BudgetExceeded",
        "message": "power to the 30000000 at line 1, column 9 makes coefficient "
        "monomials of degree 30000000, over the budget 200000",
    }
    assert parse_quasipoly("(c[1,1,1]*c[1,1,2])^500", budget=1000).term_count() == 1
    with pytest.raises(BudgetExceeded):
        parse_quasipoly("(c[1,1,1]*c[1,1,2])^501", budget=1000)


@needs_digit_limit
@pytest.mark.parametrize("command", ["check", "capelli-dep"])
@pytest.mark.parametrize("expr, column", [("(2)^20000", 4), ("(1/3)^10000*x1", 6)])
def test_parse_time_power_past_the_digit_limit_is_refused(command, expr, column):
    # Expanded, the coefficient 2^20000 (or the denominator 3^10000) could
    # not be printed: a ValueError out of run_command.
    code, report = run_json([command, "--n", "2", "--expr", expr])
    limit = sys.get_int_max_str_digits()
    e = expr.split("^")[1].split("*")[0]
    assert code == 2 and report["error"] == {
        "type": "BudgetExceeded",
        "message": f"power to the {e} at line 1, column {column} could make "
        f"coefficients of more than {limit} digits",
    }


@needs_digit_limit
def test_the_digit_bound_on_powers_is_tight_for_one_term():
    # 2^14284 has 4,300 digits and 2^14285 has 4,301.
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert parse_quasipoly("(2)^14284") == QuasiPoly.const(2 ** 14284)
        for expr in ("(2)^14285", "(1/2)^14285"):
            with pytest.raises(BudgetExceeded, match="more than 4300 digits"):
                parse_quasipoly(expr)
        # No limit means no refusal.
        sys.set_int_max_str_digits(0)
        assert parse_quasipoly("(2)^20000") == QuasiPoly.const(2 ** 20000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_digit_bound_on_powers_holds_for_every_coefficient():
    # A power whose longest numerator or denominator has more digits than
    # the limit is refused at that limit: (9*x1 + 9)^2 has the term 162*x1,
    # which no single coefficient's power (81) reaches.
    rng = random.Random(8)
    bases = [parse_quasipoly("9*x1 + 9")] + [
        QuasiPoly({
            tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 2))):
                CPoly.const(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3))
        })
        for _ in range(60)
    ]
    for base in bases:
        for e in range(7):
            digits = max(
                (len(str(abs(part))) for _, coeff in (base ** e).terms() for _, v in coeff.terms()
                 for part in (v.numerator, v.denominator)),
                default=1,
            )
            assert cli._power_could_pass(base, e, digits - 1) or digits == 1, (base, e)


def test_check_at_n100_finds_its_witness_at_once():
    # Every n^2 matrix unit used to be built first: 19.95 s and 844 MB.
    started = time.monotonic()
    code, report = run_json(["check", "--n", "100", "--expr", "x1"])
    assert time.monotonic() - started < 2
    assert code == 0 and report["results"]["central"] is False
    point = report["results"]["non_central_witness"]["point"]["x1"]
    assert point[0][0] == "1" and sum(row.count("1") for row in point) == 1


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [
    # Each literal is under the limit and their product over it when the
    # input is printed; x1^9000 gives witness entries of more than 4300 digits.
    ["check", "--n", "2", "--expr", "7" * 4000 + "*" + "7" * 4000 + "*x1"],
    ["--mode", "randomized", "check", "--n", "3", "--expr", "x1^9000*x2*x3"],
], ids=["product-of-literals", "witness-value"])
def test_an_integer_past_the_digit_limit_in_a_report_is_refused(fmt, argv):
    # Both used to leave run_command as a ValueError traceback.
    limit = sys.get_int_max_str_digits()
    buf = io.StringIO()
    try:
        sys.set_int_max_str_digits(4300)
        code = run_command(["--format", fmt] + argv, buf)
    finally:
        sys.set_int_max_str_digits(limit)
    message = ("the report holds an integer of more than 4300 digits, "
               "Python's limit for integer strings")
    assert code == 2
    if fmt == "json":
        assert json.loads(buf.getvalue())["error"] == {"type": "BudgetExceeded", "message": message}
    else:
        # The whole report is rendered before any of it is written.
        assert buf.getvalue() == (
            f"error:\n  message: {message}\n  type: BudgetExceeded\nschema: quasident/1\n"
        )


def verdict_chunks(points):
    """The number of points in each evaluate call of a randomized verdict
    that takes points points: the first alone, then chunks of
    genmat.POINT_CHUNK, the last one short."""
    full, short = divmod(points - 1, genmat.POINT_CHUNK)
    return [1] + [genmat.POINT_CHUNK] * full + ([short] if short else [])


def counting_chunks(monkeypatch):
    """The number of points of each genmat.evaluate call, as it is made."""
    chunks = []
    evaluate = genmat.evaluate

    def counting(p, points, n):
        chunks.append(len(points))
        return evaluate(p, points, n)

    monkeypatch.setattr(genmat, "evaluate", counting)
    return chunks


def test_a_randomized_verdict_stops_at_the_first_non_scalar_value(monkeypatch):
    chunks = counting_chunks(monkeypatch)
    # S_5 is not central on M_3: the first value, at a point evaluated alone,
    # settles the verdict, and with five generators the point it was taken
    # at is the witness.
    s5 = format_quasipoly(genmat.standard_poly(5))
    code, report = run_json(["--mode", "randomized", "check", "--n", "3", "--expr", s5])
    assert code == 0 and report["results"]["central"] is False
    assert "non_central_witness" in report["results"]
    assert chunks == verdict_chunks(1) == [1]
    # A central non-identity is scalar at every point: all trials run, and
    # there is no witness to search for.
    chunks.clear()
    code, report = run_json(
        ["--mode", "randomized", "--trials", "7", "check", "--n", "2", "--expr", HALL_SUBST]
    )
    assert code == 0
    assert (report["results"]["quasi_identity"], report["results"]["central"]) == (False, True)
    assert chunks == verdict_chunks(7) and sum(chunks) == 7


def test_a_randomized_verdict_evaluates_its_trials_in_bounded_chunks(monkeypatch):
    # A central input takes every trial; past the first point, evaluated
    # alone, no evaluate call takes more than genmat.POINT_CHUNK points, so
    # memory does not grow with --trials.  The report is the one given when
    # every value is taken before the verdict reads any.
    chunks = counting_chunks(monkeypatch)
    argv = ["--mode", "randomized", "--trials", "1000", "check", "--n", "2", "--expr", HALL_SUBST]
    chunked = io.StringIO()
    assert run_command(argv, chunked) == 0
    assert chunks[0] == 1 and max(chunks[1:]) <= genmat.POINT_CHUNK and sum(chunks) == 1000
    assert chunks == verdict_chunks(1000)
    verdict_values = genmat.verdict_values
    monkeypatch.setattr(genmat, "verdict_values", lambda *a, **k: list(verdict_values(*a, **k)))
    every = io.StringIO()
    assert run_command(argv, every) == 0
    assert chunked.getvalue() == every.getvalue()


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("n, p", [
    (3, genmat.standard_poly(5)),
    (2, genmat.standard_poly(3)),
    (2, x(1) * x(2) * x(3) - x(3) * x(2) * x(1)),
    (2, x(1) * x(2) - x(2) * x(1)),
], ids=["S5", "S3", "x1x2x3-x3x2x1", "commutator"])
def test_a_randomized_witness_is_the_one_the_witness_search_finds(seed, n, p):
    # Past two generators the point that settled the verdict is kept, not
    # searched for again; up to two the matrix units are tried first.
    argv = ["--mode", "randomized", "--seed", str(seed), "check", "--n", str(n),
            "--expr", format_quasipoly(p)]
    code, report = run_json(argv)
    point, value = genmat.central_witness(p, n, seed=seed)
    assert code == 0 and report["results"]["non_central_witness"] == cli._jsonable(
        {"point": {f"x{k}": m for k, m in sorted(point.items())}, "value": value}
    )


# Non-scalar only where all twelve entries of x3, x4 and x5 are nonzero: at
# --bound 1 the first such point of seed 15 is its 200th, of seed 6 its 206th.
RARELY_NON_SCALAR = "*".join(
    f"c[{k},{i},{j}]" for k in (3, 4, 5) for i in (1, 2) for j in (1, 2)
) + "*(x1*x2 - x2*x1)"


@pytest.mark.parametrize("seed, first", [(15, 200), (6, 206)])
def test_a_randomized_witness_is_reported_only_within_the_witness_trials(
    monkeypatch, seed, first
):
    # The witness search tries 200 random points: the verdict's point is its
    # witness only within them, and past them the search runs all 200, one
    # point per call, and finds none.  The verdict evaluates its points by
    # verdict_chunks and stops after the chunk that holds its first
    # non-scalar value, so it takes the points up to that chunk's end.
    chunks = counting_chunks(monkeypatch)
    code, report = run_json(["--mode", "randomized", "--seed", str(seed), "--trials", "300",
                             "--bound", "1", "check", "--n", "2", "--expr", RARELY_NON_SCALAR])
    results = report["results"]
    assert code == 0 and results["central"] is False
    taken = min(300, 1 + math.ceil((first - 1) / genmat.POINT_CHUNK) * genmat.POINT_CHUNK)
    searched = genmat.WITNESS_TRIALS if first > genmat.WITNESS_TRIALS else 0
    assert chunks == verdict_chunks(taken) + [1] * searched
    witness = genmat.central_witness(parse_quasipoly(RARELY_NON_SCALAR, 2), 2, seed=seed, bound=1)
    if seed == 15:
        point, value = witness
        assert results["non_central_witness"] == cli._jsonable(
            {"point": {f"x{k}": m for k, m in sorted(point.items())}, "value": value}
        )
    else:
        assert witness is None and "non_central_witness" not in results


@pytest.mark.parametrize("expr", [
    "x1000000000*x3 - x3*x1000000000",
    "c[1000000000,1,1]*x1",
    "c[1000000000000,1,2]*x1000000000000*x3 + x3",
])
def test_check_with_large_generator_indices_is_quick(expr):
    # Field codes are dense over the generators in use, so a packed key's
    # length does not grow with a generator's index.
    started = time.monotonic()
    code, report = run_json(["check", "--n", "2", "--expr", expr])
    assert time.monotonic() - started < 1
    assert code == 0 and report["results"]["central"] is False
    assert "non_central_witness" in report["results"]


@pytest.mark.parametrize("expr, quasi_identity, central", [
    # At n = 1 every term is one monomial in c[1,1,1]: c[1,1,1]^8 and
    # c[1,1,1]^16 are the least powers that need a field of 4 and 5 bits, and
    # c[1,1,1]^7 fills one of 3.
    ("c[1,1,1]^7*x1 - x1^8", True, True),
    ("c[1,1,1]^15*x1 - x1^16", True, True),
    ("c[1,1,1]^7*x1 - x1^7", False, True),
])
def test_check_at_n1_at_the_field_boundaries(expr, quasi_identity, central):
    code, report = run_json(["check", "--n", "1", "--expr", expr])
    assert code == 0
    results = report["results"]
    assert (results["quasi_identity"], results["central"]) == (quasi_identity, central)


# (x1x2 - x2x1)^2 under x1 -> x1 + x3x4, x2 -> x2 + x4x3: central on M_2, not zero.
HALL_SUBST = format_quasipoly(
    (genmat.standard_poly(2) * genmat.standard_poly(2)).substitute(
        {1: x(1) + x(3) * x(4), 2: x(2) + x(4) * x(3)}, 2
    )
)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("n, expr", [
    (3, format_quasipoly(genmat.standard_poly(5))),
    (2, HALL_SUBST),
    (2, HALL_SUBST + " + 2*x1*x3"),
    (2, format_quasipoly(genmat.standard_poly(4))),
    (2, "x1*x2 - x2*x1 + 3"),
    (2, "5"),
], ids=["S5", "hall", "hall+mono", "S4", "commutator+3", "scalar"])
def test_a_randomized_verdict_reports_as_if_every_trial_ran(monkeypatch, fmt, n, expr):
    argv = ["--format", fmt, "--mode", "randomized", "--seed", "3", "check", "--n", str(n),
            "--expr", expr]
    early = io.StringIO()
    assert run_command(argv, early) == 0
    verdict_values = genmat.verdict_values
    monkeypatch.setattr(genmat, "verdict_values", lambda *a, **k: list(verdict_values(*a, **k)))
    every = io.StringIO()
    assert run_command(argv, every) == 0
    assert early.getvalue() == every.getvalue()


def test_check_over_the_term_budget_is_refused():
    code, report = run_json(["--budget", "3", "check", "--n", "2", "--expr", "x1+x2+x3+x4"])
    assert code == 2
    assert report["error"] == {"type": "BudgetExceeded", "message": "input has 4 terms, budget 3"}


def test_closed_stdout_exits_quietly():
    # The read end closes before the report is written, as `| head -c 10`
    # does once it has read enough.
    src = Path(quasident.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "quasident.cli", "--format", "json", "verify-ch", "--n", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert stderr == b""


def test_randomized_mode_reported():
    code, report = run_json(
        ["--mode", "randomized", "check", "--n", "2", "--expr", "x1*x2 - x2*x1"]
    )
    assert code == 0
    assert report["results"]["randomized"]["trials"] == 20
    assert report["results"]["quasi_identity"] is False


def test_text_format():
    buf = io.StringIO()
    code = run_command(["verify-ch", "--n", "2"], buf)
    assert code == 0
    assert "pass: True" in buf.getvalue()


@pytest.mark.parametrize(
    "expr, column",
    [
        ("x0", 1),
        ("x1 + 3*x00", 8),
        ("1/0", 3),
        ("tr(x0)", 4),
        ("c[1,0,1]*x1", 5),
        ("c[0,1,1]*x1", 3),
        ("", 1),
    ],
)
def test_zero_indices_and_denominators_are_syntax_errors(expr, column):
    code, report = run_json(["check", "--n", "2", "--expr", expr])
    assert code == 2
    assert report["error"]["type"] == "QuasiSyntaxError"
    assert report["error"]["message"].endswith(f"(line 1, column {column})")


def test_nested_parentheses_past_the_limit_are_a_syntax_error():
    def nested(depth):
        return "(" * depth + "x1" + ")" * depth

    assert parse_quasipoly(nested(100)) == x(1)
    code, report = run_json(["check", "--n", "2", "--expr", nested(101)])
    assert code == 2 and report["error"] == {
        "type": "QuasiSyntaxError",
        "message": "parentheses nested deeper than 100 (line 1, column 101)",
    }
    start = time.monotonic()
    code, report = run_json(["check", "--n", "2", "--expr", nested(3000)])
    assert time.monotonic() - start < 1
    assert code == 2 and report["error"]["type"] == "QuasiSyntaxError"
    code, report = run_json(["capelli-dep", "--n", "2", "--expr", "x1", "--expr", nested(101)])
    assert code == 2
    assert report["error"]["message"] == "parentheses nested deeper than 100 (line 2, column 101)"


def test_capelli_dep_refuses_a_coefficient_variable():
    code, report = run_json(
        ["capelli-dep", "--n", "2", "--expr", "x2", "--expr", "c[1,1,1]*x1"]
    )
    assert code == 2
    assert report["error"]["type"] == "QuasidentError"
    assert "line 2" in report["error"]["message"]


@pytest.mark.parametrize("mode", ["symbolic", "randomized"])
def test_capelli_dep_witness_at_n4_is_a_matrix_unit_tuple(mode):
    # Unit tuples are tried first for at most two generators, at every n.
    code, report = run_json(
        ["--mode", mode, "capelli-dep", "--n", "4", "--expr", "x1", "--expr", "x2"]
    )
    assert code == 0
    assert report["results"]["verdict"] == "independent"
    point = report["results"]["witness"]["point"]
    for matrix in point.values():
        entries = [e for row in matrix for e in row]
        assert sorted(entries) == ["0"] * 15 + ["1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-ch", "--n", "2"],
        ["--mode", "randomized", "check", "--n", "3", "--expr", "(x1*x2 - x2*x1)^2"],
        ["capelli-dep", "--n", "2", "--expr", "x1", "--expr", "x2"],
        ["check", "--n", "2", "--expr", "x1 + @"],
    ],
)
def test_timings_add_only_the_runtime(argv):
    plain_code, plain = run_json(argv)
    timed_code, timed = run_json(["--timings"] + argv)
    assert timed_code == plain_code
    if plain_code == 2:
        # Error reports carry no runtime.
        assert timed == plain
        return
    # Like every non-integer number in a report, the runtime prints as a string.
    assert float(timed.pop("runtime_seconds")) >= 0
    assert timed == plain


def readme_usage_lines():
    """The quasident lines of README's command-line usage block that read no
    input file."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command-line interface", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        line for line in block.splitlines()
        if line.startswith("quasident ") and "--input" not in line
    ]


def test_readme_usage_block_runs_as_written():
    lines = readme_usage_lines()
    assert len(lines) >= 6, lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert run_command(argv[1:], io.StringIO()) == 0, line
