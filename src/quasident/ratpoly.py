"""Sparse exact-rational polynomials in the indexed commuting variables c[k,i,j].

A variable is a triple ``(k, i, j)`` of positive integers: the (i,j) entry of
the k-th generic matrix.  A monomial is a tuple of ``(variable, exponent)``
pairs sorted by variable, with all exponents positive; the empty tuple is the
constant monomial.  A CPoly maps monomials to nonzero Fractions.  Both layers
are kept canonical after every operation, so structural equality is
polynomial equality and printed forms are reproducible.

Terms is the one sparse term type: CPoly, freealg's QuasiPoly, genmat's
TracePoly and antisym's ExtElement and WedgeForm all subclass it.  It holds
the {key: nonzero coefficient} dict and gives them one copy of addition,
negation, scaling, powers, equality and the signed-sum printer (signed_sum,
scaled); a subclass adds only its key checks, constructors, product and the
printed form of one term.  add_terms is the sparse term accumulator: every
Terms type and exactla's elimination rows merge terms through it, so a
cancelled coefficient is never stored.  genmat.phi_eval's trie edge, the
hottest loop, inlines the same step over its packed keys: one add_terms
generator per table entry made phi_eval 6-30% slower (Q_4, Q_5, and S_6 at
n = 3).

This module is deliberately context-free: it never checks variable indices
against a matrix dimension.  Callers that care about an ambient n (genmat,
freealg) enforce 1 <= i, j <= n themselves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import MissingAssignment

Rational = Fraction

Variable = tuple[int, int, int]
Monomial = tuple[tuple[Variable, int], ...]

Scalar = Union[int, Fraction]

_ONE_MONOMIAL: Monomial = ()


def add_terms(out: dict, pairs: Iterable[tuple]) -> dict:
    """Add (key, coefficient) pairs into the sparse term dict out, in place,
    dropping every key whose coefficient cancels; returns out."""
    for key, c in pairs:
        s = out.get(key)
        s = c if s is None else s + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def monomial(vars_and_exps: Iterable[tuple[Variable, int]]) -> Monomial:
    """Build a canonical monomial, merging duplicates and dropping exponent 0."""
    acc: dict[Variable, int] = {}
    for var, exp in vars_and_exps:
        if exp < 0:
            raise ValueError(f"negative exponent {exp} for variable {var}")
        if exp:
            acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items()))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return monomial(list(a) + list(b))


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class Terms:
    """Base of every sparse term type: an immutable {key: nonzero coefficient}
    dict in the ``_terms`` slot.

    A subclass validates its keys in ``__init__`` and supplies its
    constructors, its product and ``_term_str``, the printed form of one term.
    ``_coerce`` turns an operand into the subclass (NotImplemented when it
    cannot), and ``_order`` is the sort key of ``terms()`` over (key,
    coefficient) items (None: by key).  Everything else is shared.
    """

    __slots__ = ("_terms",)

    _order = None

    def _new(self, terms: dict) -> "Terms":
        """A value of this type over an already-canonical term dict."""
        out = object.__new__(type(self))
        out._terms = terms
        return out

    def _coerce(self, other: object):
        return other if isinstance(other, type(self)) else NotImplemented

    def terms(self) -> list[tuple]:
        """Terms in the canonical order."""
        return sorted(self._terms.items(), key=self._order)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(add_terms(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(add_terms(dict(self._terms), ((k, -c) for k, c in other._terms.items())))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def scale(self, c):
        """Every coefficient multiplied by c."""
        if not c:
            return self._new({})
        return self._new({k: c * v for k, v in self._terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        out = self._coerce(1)
        if out is NotImplemented:  # no unit, such as a type without a product
            return NotImplemented
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:  # a square past the top bit would outgrow the result
                base = base * base
        return out

    def __str__(self) -> str:
        return signed_sum(self._term_str(k, c) for k, c in self.terms())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def signed_sum(parts: Iterable[str]) -> str:
    """Printed terms joined by " + " and " - "; "0" for none."""
    out: list[str] = []
    for text in parts:
        if not out:
            out.append(text)
        elif text.startswith("-"):
            out.append(f"- {text[1:]}")
        else:
            out.append(f"+ {text}")
    return " ".join(out) or "0"


def scaled(coeff, body: str) -> str:
    """One printed term: body times a rational coefficient, which shows
    alone for an empty body and is left out (or just its sign) at +-1."""
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


class CPoly(Terms):
    """Immutable sparse polynomial over the rationals.

    Do not mutate the term dict after construction; all operations return new
    instances, so values can be shared freely between threads.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self._terms: dict[Monomial, Fraction] = (
            add_terms({}, ((m, Fraction(c)) for m, c in terms.items())) if terms else {}
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "CPoly":
        return CPoly()

    @staticmethod
    def const(value: Scalar) -> "CPoly":
        return CPoly({_ONE_MONOMIAL: Fraction(value)})

    @staticmethod
    def one() -> "CPoly":
        return CPoly.const(1)

    @staticmethod
    def variable(k: int, i: int, j: int) -> "CPoly":
        """The single variable c[k,i,j]."""
        if k < 1 or i < 1 or j < 1:
            raise ValueError(f"variable indices must be positive, got ({k},{i},{j})")
        return CPoly({(((k, i, j), 1),): Fraction(1)})

    def _coerce(self, other: object):
        if isinstance(other, CPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return CPoly.const(other)
        return NotImplemented

    # -- inspection --------------------------------------------------------

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for mono in self._terms:
            out.update(v for v, _ in mono)
        return out

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self._terms:
            return 0
        return max(monomial_degree(m) for m in self._terms)

    def is_constant(self) -> bool:
        return all(m == _ONE_MONOMIAL for m in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get(_ONE_MONOMIAL, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "CPoly | Scalar") -> "CPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(add_terms({}, (
            (monomial_mul(ma, mb), ca * cb)
            for ma, ca in self._terms.items()
            for mb, cb in other._terms.items()
        )))

    __rmul__ = __mul__

    # -- evaluation and substitution ----------------------------------------

    def eval(self, assignment: Mapping[Variable, Scalar]) -> Scalar:
        """Exact value at a point of int or Fraction values; raises
        MissingAssignment for uncovered variables.

        Integral coefficients are read as ints, so an integer point gives an
        int whenever every coefficient is integral.  It is the reference
        that the tests check genmat.evaluate's coefficient lanes against."""
        total: Scalar = 0
        for mono, coeff in self._terms.items():
            val = coeff.numerator if coeff.denominator == 1 else coeff
            for var, exp in mono:
                if var not in assignment:
                    raise MissingAssignment(f"no value for c[{var[0]},{var[1]},{var[2]}]")
                val *= assignment[var] ** exp
            total += val
        return total

    def subst(self, table: Mapping[Variable, "CPoly"]) -> "CPoly":
        """Simultaneous substitution of polynomials for variables."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            val = CPoly.const(coeff)
            for var, exp in mono:
                if var not in table:
                    raise MissingAssignment(f"no substitute for c[{var[0]},{var[1]},{var[2]}]")
                val = val * table[var] ** exp
            add_terms(out, val._terms.items())
        return self._new(out)

    # -- printing ------------------------------------------------------------

    def _term_str(self, mono: Monomial, coeff: Fraction) -> str:
        return scaled(coeff, "*".join(
            f"c[{k},{i},{j}]" + (f"^{e}" if e > 1 else "") for (k, i, j), e in mono
        ))
