"""Command-line surface: parse expressions, run verification suites, report.

The expression grammar (whitespace-insensitive; '*' between factors is
optional, juxtaposition multiplies):

    poly   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor+
    factor := atom ('^' INT)?
    atom   := rational | 'x'INT | 'c[' INT ',' INT ',' INT ']' | 'tr(' word ')' | '(' poly ')'
    word   := 'x'INT ('*' 'x'INT)*
    rational := INT ('/' INT)?

A number is an atom wherever it appears, so 2^3*x1 is x1*2^3 = 8*x1, and
-2^2*x1 is -4*x1.  A fraction takes no exponent: 2/3^2 is a QuasiSyntaxError
at the '^', and (2/3)^2 is 4/9.

Generator indices, c[...] indices and denominators start at 1; a 0 is a
QuasiSyntaxError.  tr(...) expands through the generic-matrix trace at the
configured dimension and therefore needs --n.  The parser builds each term
as flat (word, monomial, coefficient) triples, whole coefficients kept as
ints, and merges the terms of each parse level (the whole input, each pair
of parentheses) into one term dict through ratpoly.add_terms; the
QuasiPoly is made from the top-level dict once.  Reports are plain text or
JSON; JSON output is schema-stable ("quasident/1"), has sorted keys, and is
byte-identical for identical configurations (runtimes are only included with
--timings, since they would break reproducibility).  A report is rendered
whole before it is written; one holding an integer past Python's digit
limit for integer strings is a BudgetExceeded error report instead.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import antisym, genmat, idsolve
from .errors import BudgetExceeded, DimensionRequired, QuasidentError, QuasiSyntaxError, capped_power
from .exactla import QMatrix
from .freealg import QuasiPoly
from .ratpoly import CPoly, add_terms, monomial_mul

SCHEMA = "quasident/1"

# -- expression parsing -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<gen>x\d+)|(?P<num>\d+)|(?P<name>tr|c)|(?P<punct>[()\[\],+\-*/^])|(?P<bad>\S)"
)

# A token is a (kind, text, line, column) tuple.
_KIND, _TEXT, _LINE, _COLUMN = range(4)
_SIGNS = {"+": 1, "-": -1}
# The texts that end a term; "" is the parser's end-of-input token.
_TERM_ENDS = frozenset(("+", "-", ")", "]", ",", ""))


def _int_digit_limit() -> int:
    """Python's limit on the digits of an integer string; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of text.  An integer longer than Python's limit for integer
    strings is a syntax error here, not a ValueError out of int() later."""
    tokens: list[tuple[str, str, int, int]] = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        tokens += [
            (m.lastgroup, m.group(), lineno, m.start() + 1) for m in _TOKEN_RE.finditer(line)
        ]
    limit = _int_digit_limit() or math.inf
    for kind, lexeme, line, column in tokens:
        if kind == "bad":
            raise QuasiSyntaxError(f"unexpected character {lexeme!r}", line, column)
        if len(lexeme) > limit:
            digits = len(lexeme) - (kind == "gen")  # a generator is x and its digits
            if digits > limit:
                raise QuasiSyntaxError(
                    f"a {digits}-digit integer is longer than the {limit}-digit limit",
                    line, column,
                )
    return tokens


def _times(left: list[tuple], right: list[tuple]) -> list[tuple]:
    """The product of two lists of (word, monomial, coefficient) terms, each
    list merged and nonzero, and so is the product.  A one-term right factor
    joins each left term in place: distinct terms stay distinct.  A longer one
    merges its cross product at once, as QuasiPoly.__mul__ does, so repeated
    factors cannot grow the list exponentially."""
    if len(right) == 1:
        (fw, fm, fc), = right
        return [(w + fw, monomial_mul(m, fm), c * fc) for w, m, c in left]
    merged = add_terms({}, (
        ((w + fw, monomial_mul(m, fm)), c * fc)
        for w, m, c in left
        for fw, fm, fc in right
    ))
    return [(w, m, c) for (w, m), c in merged.items()]


def _quasipoly(terms: list[tuple]) -> QuasiPoly:
    """The quasi-polynomial of merged, nonzero (word, monomial, coefficient)
    terms; each coefficient becomes a Fraction here, once."""
    by_word: dict = {}
    for w, m, c in terms:
        by_word.setdefault(w, {})[m] = Fraction(c)
    zero = CPoly.zero()
    return QuasiPoly.zero()._new({w: zero._new(t) for w, t in by_word.items()})


class _Parser:
    """Recursive descent over the tokens.  Every level yields a list of
    merged, nonzero (word, monomial, coefficient) terms, a coefficient an int
    while it is whole: a term's factors are joined by _times, and the terms
    of a sum (the whole input or one pair of parentheses) merge through
    add_terms into one dict."""

    # Each level of parentheses costs four frames of the recursive descent;
    # deeper nesting is a syntax error, not a RecursionError.
    _MAX_DEPTH = 100

    def __init__(self, tokens: list[tuple], n: int | None, budget: int | None):
        # An end token just past the last one; tokens must not be empty.
        _, text, line, column = tokens[-1]
        self.tokens = tokens + [("end", "", line, column + len(text))]
        self.pos = 0
        self.depth = 0
        self.n = n
        self.budget = budget

    def here(self) -> tuple[int, int]:
        """The line and column of the next token, or just past the last one."""
        tok = self.tokens[self.pos]
        return tok[_LINE], tok[_COLUMN]

    def take(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[_KIND] == "end":
            raise QuasiSyntaxError("unexpected end of input", tok[_LINE], tok[_COLUMN])
        self.pos += 1
        return tok

    def expect(self, text: str) -> tuple:
        tok = self.take()
        if tok[_TEXT] != text:
            raise QuasiSyntaxError(
                f"expected {text!r}, found {tok[_TEXT]!r}", tok[_LINE], tok[_COLUMN]
            )
        return tok

    def parse_poly(self) -> list[tuple]:
        tokens = self.tokens
        sign = _SIGNS.get(tokens[self.pos][_TEXT])
        if sign is None:
            sign = 1
        else:
            self.pos += 1
        merged: dict = {}
        while True:
            add_terms(merged, (((w, m), c) for w, m, c in self.parse_term(sign)))
            sign = _SIGNS.get(tokens[self.pos][_TEXT])
            if sign is None:
                return [(w, m, c) for (w, m), c in merged.items()]
            self.pos += 1

    def parse_term(self, sign: int) -> list[tuple]:
        tokens = self.tokens
        term = [((), (), sign)]
        saw_anything = False
        while True:
            text = tokens[self.pos][_TEXT]
            if text in _TERM_ENDS:
                break
            if text == "*":
                self.pos += 1
                continue
            term = _times(term, self.parse_factor())
            saw_anything = True
        if not saw_anything:
            raise QuasiSyntaxError("empty term", *self.here())
        return term

    def parse_number(self, tok: tuple) -> list[tuple]:
        """The rational INT ('/' INT)? that starts at tok, as a term list:
        none for 0.  A fraction takes no exponent: a '^' after one is refused."""
        value = int(tok[_TEXT])
        if self.tokens[self.pos][_TEXT] == "/":
            self.pos += 1
            denominator = self._positive(self.take(), "num", "a denominator", "denominator")
            value = Fraction(value, denominator)
            hat = self.tokens[self.pos]
            if hat[_TEXT] == "^":
                raise QuasiSyntaxError(
                    f"a fraction takes no exponent; write ({tok[_TEXT]}/{denominator})^...",
                    hat[_LINE], hat[_COLUMN],
                )
        return [((), (), value)] if value else []

    def parse_factor(self) -> list[tuple]:
        terms = self.parse_atom()
        tok = self.tokens[self.pos]
        if tok[_TEXT] != "^":
            return terms
        self.pos += 1
        exp = self.take()
        if exp[_KIND] != "num":
            raise QuasiSyntaxError("expected an integer exponent", exp[_LINE], exp[_COLUMN])
        e = int(exp[_TEXT])
        base = _quasipoly(terms)
        at = f"line {tok[_LINE]}, column {tok[_COLUMN]}"
        count = base.term_count()
        # count ** e bounds the power's terms.
        if self.budget is not None and capped_power(count, e, self.budget) > self.budget:
            raise BudgetExceeded(
                f"power of a {count}-term base to the {e} at {at} "
                f"exceeds the term budget {self.budget}"
            )
        if self.budget is not None and base.word_degree() * e > self.budget:
            raise BudgetExceeded(
                f"power to the {e} at {at} makes words of length "
                f"{base.word_degree() * e}, over the budget {self.budget}"
            )
        degree = max((c.degree() for _, c in base.terms()), default=0)
        if self.budget is not None and degree * e > self.budget:
            raise BudgetExceeded(
                f"power to the {e} at {at} makes coefficient "
                f"monomials of degree {degree * e}, over the budget {self.budget}"
            )
        limit = _int_digit_limit()
        if limit and _power_could_pass(base, e, limit):
            raise BudgetExceeded(
                f"power to the {e} at {at} could make "
                f"coefficients of more than {limit} digits"
            )
        return [(w, m, c) for w, coeff in (base ** e).terms() for m, c in coeff.terms()]

    def parse_atom(self) -> list[tuple]:
        tok = self.take()
        kind, text = tok[_KIND], tok[_TEXT]
        if kind == "gen":
            return [((self._gen(tok),), (), 1)]
        if kind == "num":
            return self.parse_number(tok)
        if text == "c":
            self.expect("[")
            k = self._index(self.take())
            self.expect(",")
            i = self._index(self.take())
            self.expect(",")
            j = self._index(self.take())
            self.expect("]")
            return [((), (((k, i, j), 1),), 1)]
        if text == "tr":
            self.expect("(")
            letters = [self._gen(self.take())]
            while self.tokens[self.pos][_TEXT] == "*":
                self.pos += 1
                letters.append(self._gen(self.take()))
            close = self.expect(")")
            if self.n is None:
                raise DimensionRequired(
                    f"tr(...) at line {close[_LINE]} needs a matrix dimension n"
                )
            # The expansion walks n^|w| index paths from each of n start
            # rows, as phi_eval counts the constant.
            e = len(letters) + 1
            if self.budget is not None and capped_power(self.n, e, self.budget) > self.budget:
                raise BudgetExceeded(
                    f"tr(...) of a {len(letters)}-letter word at line {tok[_LINE]}, "
                    f"column {tok[_COLUMN]} walks {self.n}^{e} index paths, "
                    f"over the budget {self.budget}"
                )
            return [((), m, c) for m, c in genmat.trace_word_cpoly(letters, self.n).terms()]
        if text == "(":
            if self.depth == self._MAX_DEPTH:
                raise QuasiSyntaxError(
                    f"parentheses nested deeper than {self._MAX_DEPTH}", tok[_LINE], tok[_COLUMN]
                )
            self.depth += 1
            inner = self.parse_poly()
            self.expect(")")
            self.depth -= 1
            return inner
        raise QuasiSyntaxError(f"unexpected token {text!r}", tok[_LINE], tok[_COLUMN])

    @staticmethod
    def _positive(tok: tuple, kind: str, expected: str, name: str) -> int:
        """The number in tok, which must be of the given kind and not 0:
        generators, c[...] indices and denominators start at 1."""
        if tok[_KIND] != kind:
            raise QuasiSyntaxError(f"expected {expected}", tok[_LINE], tok[_COLUMN])
        value = int(tok[_TEXT].lstrip("x"))
        if value == 0:
            raise QuasiSyntaxError(
                f"{name} must be positive, found {tok[_TEXT]!r}", tok[_LINE], tok[_COLUMN]
            )
        return value

    def _index(self, tok: tuple) -> int:
        return self._positive(tok, "num", "an integer", "c[...] index")

    def _gen(self, tok: tuple) -> int:
        return self._positive(tok, "gen", "a generator x<k>", "generator index")


def _power_could_pass(base: QuasiPoly, e: int, limit: int) -> bool:
    """Could a coefficient of base^e print with more than limit digits?

    With D the least common denominator of base's coefficients and L the sum
    of their absolute values times D, every coefficient of base^e has a
    numerator of at most L^e and a denominator dividing D^e.  M = max(L, D)
    is at least 2 when the bound can grow; then M^e >= 2^(e*(bits(M)-1)),
    which passes 10^limit from 4*limit bits on, and below that M^e is small
    enough to compute."""
    values = [v for _, c in base.terms() for _, v in c.terms()]
    d = math.lcm(*(v.denominator for v in values))
    m = max(sum(abs(v.numerator) * (d // v.denominator) for v in values), d)
    return m > 1 and (e * (m.bit_length() - 1) >= 4 * limit or m ** e >= 10 ** limit)


def parse_quasipoly(text: str, n: int | None = None, budget: int | None = None) -> QuasiPoly:
    """Parse the textual grammar into a quasi-polynomial.

    tr(...) macros need the matrix dimension n; without it they raise
    DimensionRequired.  With a term budget, a power whose expansion could
    exceed it (in terms, word length or coefficient degree), or a tr(w)
    atom whose n^(|w|+1) index paths outnumber it, raises BudgetExceeded
    before it is expanded.  Python's limit on the digits of an integer
    string applies with or without a budget: an integer past it is a
    QuasiSyntaxError, and a power whose coefficients could pass it raises
    BudgetExceeded before it is expanded.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise QuasiSyntaxError("empty input", 1, 1)
    parser = _Parser(tokens, n, budget)
    terms = parser.parse_poly()
    tok = parser.tokens[parser.pos]
    if tok[_KIND] != "end":
        raise QuasiSyntaxError(f"trailing input {tok[_TEXT]!r}", tok[_LINE], tok[_COLUMN])
    return _quasipoly(terms)


def format_quasipoly(p: QuasiPoly) -> str:
    """Canonical printed form; parse(format(p)) == p."""
    return str(p)


# -- reports -------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QMatrix):
        return [[str(x) for x in row] for row in value.data]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"
    out = io.StringIO()
    _emit_text(report, out)
    return out.getvalue()


def _emit_text(report: dict, out, indent: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            out.write(f"{indent}{key}:\n")
            _emit_text(value, out, indent + "  ")
        else:
            out.write(f"{indent}{key}: {_jsonable(value)}\n")


def _base_report(command: str, args: argparse.Namespace) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "config": {
            "n": args.n,
            "mode": args.mode,
            "seed": args.seed,
            "trials": args.trials,
            "bound": args.bound,
            "budget": args.budget,
        },
    }


# -- subcommands ---------------------------------------------------------------
# Each takes the parsed arguments and returns its report.


def _cmd_verify_ch(args: argparse.Namespace) -> dict:
    n = args.n
    report = _base_report("verify-ch", args)
    q = genmat.cayley_hamilton_q_trace(n)
    Q = genmat.cayley_hamilton_Q_trace(n)
    q_zero = genmat.is_quasi_identity(q.expand(n), n)
    Q_zero = genmat.is_quasi_identity(Q.expand(n), n)
    report["results"] = {
        "q_is_identity": q_zero,
        "Q_is_identity": Q_zero,
        "q_trace_form": str(q),
        "Q_trace_form": str(Q),
    }
    report["pass"] = q_zero and Q_zero
    return report


def _cmd_check(args: argparse.Namespace) -> dict:
    n = args.n
    text = args.expr if args.input is None else _read_input(args.input)
    report = _base_report("check", args)
    p = parse_quasipoly(text, n, args.budget)
    if p.term_count() > args.budget:
        raise BudgetExceeded(f"input has {p.term_count()} terms, budget {args.budget}")
    # The image comes first: phi_eval's budget refusal must not wait for the
    # input to be printed.  A non-scalar value settles both verdicts, so the
    # trials stop there.
    quasi_identity = central = True
    for trial, (point, value) in enumerate(genmat.verdict_values(
        p, n, mode=args.mode, seed=args.seed, trials=args.trials, bound=args.bound,
        budget=args.budget,
    )):
        if not value.is_scalar():
            quasi_identity = central = False
            break
        quasi_identity = quasi_identity and value.is_zero()
    results: dict = {
        "input": format_quasipoly(p),
        "quasi_identity": quasi_identity,
        "central": central,
    }
    if args.mode != "symbolic":
        results["randomized"] = {"trials": args.trials, "bound": args.bound}
    results["ordinary_identity"] = (
        results["quasi_identity"] if p.has_scalar_coefficients() else None
    )
    if not central:
        # Past two generators the witness search tries the randomized
        # verdict's own points in the same order, so the point that settled
        # the verdict is the witness if the search reaches it.
        if point is not None and len(p.generators()) > 2 and trial < genmat.WITNESS_TRIALS:
            witness = point, value
        else:
            witness = genmat.central_witness(p, n, seed=args.seed, bound=args.bound)
        if witness is not None:
            point, value = witness
            results["non_central_witness"] = {
                "point": {f"x{k}": m for k, m in sorted(point.items())},
                "value": value,
            }
    report["results"] = results
    report["pass"] = True
    return report


def _cmd_solve_multilinear(args: argparse.Namespace) -> dict:
    n, degree = args.n, args.degree
    _at_least("degree", degree, 1)
    report = _base_report("solve-multilinear", args)
    report["config"]["degree"] = degree
    space, ansatz = idsolve.multilinear_identity_space(n, degree, budget=args.budget)
    spans_qn = False
    if degree == n:
        qvec = ansatz.coordinates(genmat.cayley_hamilton_Q(n))
        spans_qn = space.dim() == 1 and space.contains_vector(qvec)
    report["results"] = {
        "dimension": space.dim(),
        "unknowns": len(ansatz),
        "spans_Qn": spans_qn,
    }
    report["pass"] = True
    return report


def _cmd_capelli_dep(args: argparse.Namespace) -> dict:
    n = args.n
    text = "\n".join(args.expr) if args.input is None else _read_input(args.input)
    report = _base_report("capelli-dep", args)
    fs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        code = line.split("#", 1)[0]
        if code.strip():
            # Leading newlines make syntax errors report the input's own line.
            f = parse_quasipoly("\n" * (lineno - 1) + code, n, args.budget)
            # local_lin_dep's Capelli test is for ordinary polynomials.
            if not f.has_scalar_coefficients():
                raise QuasidentError(
                    f"input line {lineno} has a c[k,i,j] coefficient; "
                    "capelli-dep needs scalar coefficients"
                )
            fs.append(f)
    if not fs:
        raise QuasidentError("no polynomials in the input")
    report["results"] = idsolve.local_lin_dep(
        fs,
        n,
        mode=args.mode,
        seed=args.seed,
        trials=args.trials,
        bound=args.bound,
        term_budget=args.budget,
    )
    report["pass"] = True
    return report


def _cmd_antisym_kerim(args: argparse.Namespace) -> dict:
    report = _base_report("antisym-kerim", args)
    results = report["results"] = antisym.verify_kerim(args.n, budget=args.budget)
    report["pass"] = (
        results["ker_rho_equals_image"]
        and results["codimension"] == 1
        and results["complement_spans"]
        and results["rho_pi_zero"]
    )
    return report


def _cmd_antisym_corollary2(args: argparse.Namespace) -> dict:
    report = _base_report("antisym-corollary2", args)
    results = report["results"] = antisym.corollary2(args.n, budget=args.budget)
    report["pass"] = results["intersection_dim"] == 0 and results["block_dim"] > 0
    return report


def _cmd_antisym_dim(args: argparse.Namespace) -> dict:
    report = _base_report("antisym-dim", args)
    report["config"]["samples"] = args.samples
    results = report["results"] = antisym.certify_dim(
        args.n, samples=args.samples, seed=args.seed, bound=args.bound, budget=args.budget
    )
    report["pass"] = results["certified"]
    return report


# -- entry point -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasident",
        description="Exact verification of polynomial, trace and quasi-identities "
        "of n x n matrices.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--bound", type=int, default=9)
    parser.add_argument("--budget", type=int, default=200_000)
    parser.add_argument("--samples", type=int, default=12)
    parser.add_argument("--mode", choices=("symbolic", "randomized"), default="symbolic")
    parser.add_argument(
        "--timings", action="store_true", help="include wall-clock runtimes in reports"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, run, **kwargs) -> argparse.ArgumentParser:
        """A subcommand: every one takes --n and runs its handler."""
        p = group.add_parser(name, **kwargs)
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(run=run)
        return p

    command(sub, "verify-ch", _cmd_verify_ch, help="check the degree-n trace identities")

    p = command(sub, "check", _cmd_check, help="classify one quasi-polynomial")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="file with one expression (may span lines)")
    src.add_argument("--expr", help="expression given inline")

    p = command(sub, "solve-multilinear", _cmd_solve_multilinear,
                help="multilinear identity space")
    p.add_argument("--degree", type=int, required=True)

    p = command(sub, "capelli-dep", _cmd_capelli_dep, help="local linear dependence test")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="file with one expression per line")
    src.add_argument("--expr", action="append", help="expression (repeatable)")

    p = sub.add_parser("antisym", help="antisymmetric-identity computations")
    anti = p.add_subparsers(dest="antisym_command", required=True)
    command(anti, "kerim", _cmd_antisym_kerim)
    command(anti, "corollary2", _cmd_antisym_corollary2)
    command(anti, "dim", _cmd_antisym_dim)

    return parser


def _read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise QuasidentError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise QuasidentError(f"cannot read {path}: not UTF-8 text") from exc


def _at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise QuasidentError(f"{name} must be >= {least}, got {value}")


def run_command(argv: Sequence[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(list(argv))
    started = time.monotonic()
    try:
        env_seed = os.environ.get("QUASIDENT_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise QuasidentError(f"QUASIDENT_SEED must be an integer, got {env_seed!r}") from None
        # kerim and corollary2 live in algebras defined from n = 2 on.
        two = args.run in (_cmd_antisym_kerim, _cmd_antisym_corollary2)
        _at_least("n", args.n, 2 if two else 1)
        # No trials, or bound 0 (only zero matrices), passes every input;
        # no samples certifies no rank.
        _at_least("trials", args.trials, 1)
        _at_least("bound", args.bound, 1)
        _at_least("samples", args.samples, 1)
        _at_least("budget", args.budget, 1)
        try:
            report = args.run(args)
            if args.timings:
                report["runtime_seconds"] = round(time.monotonic() - started, 3)
            # Rendered whole before any of it is written, so a refusal leaves
            # no partial report.
            text = _render(report, args.format)
        except ValueError as exc:
            # Python refuses to print an integer past its digit limit, which
            # the parser cannot foresee for products of literals or for values.
            if "integer string conversion" not in str(exc):
                raise
            raise BudgetExceeded(
                f"the report holds an integer of more than {_int_digit_limit()} digits, "
                "Python's limit for integer strings"
            ) from None
    except QuasidentError as exc:
        error = {
            "schema": SCHEMA,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        out.write(_render(error, args.format))
        return 2
    out.write(text)
    return 0 if report.get("pass", False) else 1


def main() -> int:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
