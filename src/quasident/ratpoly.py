"""Sparse exact-rational polynomials in the indexed commuting variables c[k,i,j].

A variable is a triple ``(k, i, j)`` of positive integers: the (i,j) entry of
the k-th generic matrix.  A monomial is a tuple of ``(variable, exponent)``
pairs sorted by variable, with all exponents positive; the empty tuple is the
constant monomial.  A CPoly maps monomials to nonzero Fractions.  Both layers
are kept canonical after every operation, so structural equality is
polynomial equality and printed forms are reproducible.

add_terms is the one sparse term accumulator: every "dict of terms" type in
the package (CPoly, freealg's QuasiPoly, genmat's TracePoly, antisym's
ExtElement and WedgeForm, and exactla's elimination rows) merges terms
through it, so a cancelled coefficient is never stored.

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


class CPoly:
    """Immutable sparse polynomial over the rationals.

    Do not mutate the term dict after construction; all operations return new
    instances, so values can be shared freely between threads.
    """

    __slots__ = ("_terms",)

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

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical (sorted-monomial) order."""
        return sorted(self._terms.items())

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

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == _ONE_MONOMIAL for m in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get(_ONE_MONOMIAL, Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == CPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "CPoly | Scalar") -> "CPoly":
        if not isinstance(other, (CPoly, int, Fraction)):
            return NotImplemented
        return _raw(add_terms(dict(self._terms), _coerce(other)._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "CPoly":
        return _raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "CPoly | Scalar") -> "CPoly":
        if not isinstance(other, (CPoly, int, Fraction)):
            return NotImplemented
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "CPoly":
        return _coerce(other) - self

    def __mul__(self, other: "CPoly | Scalar") -> "CPoly":
        if not isinstance(other, (CPoly, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return _raw(add_terms({}, (
            (monomial_mul(ma, mb), ca * cb)
            for ma, ca in self._terms.items()
            for mb, cb in other._terms.items()
        )))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = CPoly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- evaluation and substitution ----------------------------------------

    def eval(self, assignment: Mapping[Variable, Scalar]) -> Fraction:
        """Exact value at a point; raises MissingAssignment for uncovered variables."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            val = coeff
            for var, exp in mono:
                if var not in assignment:
                    raise MissingAssignment(f"no value for c[{var[0]},{var[1]},{var[2]}]")
                val *= Fraction(assignment[var]) ** exp
            total += val
        return total

    def subst(self, table: Mapping[Variable, "CPoly"]) -> "CPoly":
        """Simultaneous substitution of polynomials for variables."""
        total = CPoly.zero()
        for mono, coeff in self._terms.items():
            val = CPoly.const(coeff)
            for var, exp in mono:
                if var not in table:
                    raise MissingAssignment(f"no substitute for c[{var[0]},{var[1]},{var[2]}]")
                val = val * table[var] ** exp
            total = total + val
        return total

    # -- printing ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"CPoly({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.terms():
            body = "*".join(
                f"c[{k},{i},{j}]" + (f"^{e}" if e > 1 else "")
                for (k, i, j), e in mono
            )
            if not body:
                text = str(coeff)
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff}*{body}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        return " ".join(parts)


def _coerce(value: "CPoly | Scalar") -> CPoly:
    if isinstance(value, CPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return CPoly.const(value)
    raise TypeError(f"cannot treat {type(value).__name__} as a CPoly")


def _raw(terms: dict[Monomial, Fraction]) -> CPoly:
    """Wrap an already-canonical term dict without re-normalizing."""
    p = CPoly()
    p._terms = terms
    return p
