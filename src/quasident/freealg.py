"""Quasi-polynomials: noncommutative words in generators x_k with CPoly coefficients.

A Word is a tuple of generator indices (empty = unit).  A QuasiPoly maps
words to nonzero CPoly coefficients; multiplication concatenates words and
multiplies coefficients (coefficients commute with everything).

Substitution follows the coupled rule that makes the set of quasi-identities
closed: replacing x_k by H_k also replaces every coefficient variable
c[k,i,j] by the (i,j) entry of the generic-matrix image of H_k.

Polarization and the antisymmetrizer treat a generator's occurrences inside
coefficient variables on the same footing as word letters where that is
meaningful (antisymmetrizer); polarization is restricted to inputs whose
coefficients do not involve the polarized generator.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    CoefficientDependsOnGenerator,
    DimensionMismatch,
    MissingAssignment,
    NotHomogeneous,
    NotMultilinear,
)
from .ratpoly import CPoly, Monomial, Terms, add_terms, monomial, scaled

Word = tuple[int, ...]

CoeffLike = Union[CPoly, int, Fraction]

_UNIT: Word = ()


def word(*letters: int) -> Word:
    if any(k < 1 for k in letters):
        raise ValueError("generator indices must be positive")
    return tuple(letters)


def word_key(w: Word) -> tuple[int, Word]:
    """Canonical word order: by length, then lexicographically."""
    return (len(w), w)


class QuasiPoly(Terms):
    """Immutable element of the free algebra over CPoly coefficients."""

    __slots__ = ()

    _order = staticmethod(lambda term: word_key(term[0]))

    def __init__(self, terms: Mapping[Word, CoeffLike] | None = None):
        self._terms: dict[Word, CPoly] = add_terms({}, (
            (w, c if isinstance(c, CPoly) else CPoly.const(c))
            for w, c in terms.items()
        )) if terms else {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "QuasiPoly":
        return QuasiPoly()

    @staticmethod
    def one() -> "QuasiPoly":
        return QuasiPoly({_UNIT: CPoly.one()})

    @staticmethod
    def const(c: CoeffLike) -> "QuasiPoly":
        return QuasiPoly({_UNIT: c})

    @staticmethod
    def x(k: int) -> "QuasiPoly":
        """The generator x_k."""
        return QuasiPoly({word(k): CPoly.one()})

    @staticmethod
    def from_word(w: Iterable[int], coeff: CoeffLike = 1) -> "QuasiPoly":
        return QuasiPoly({word(*w): coeff})

    @staticmethod
    def sum_of(parts: Iterable["QuasiPoly"]) -> "QuasiPoly":
        """The sum of the parts, accumulated in one term dict rather than
        copied into a new running total per part."""
        return QuasiPoly()._new(add_terms({}, (t for part in parts for t in part._terms.items())))

    def _coerce(self, other: object):
        if isinstance(other, QuasiPoly):
            return other
        if isinstance(other, (CPoly, int, Fraction)):
            return QuasiPoly.const(other)
        return NotImplemented

    # -- inspection ------------------------------------------------------------

    def coefficient(self, w: Word) -> CPoly:
        return self._terms.get(tuple(w), CPoly.zero())

    def words(self) -> list[Word]:
        return sorted(self._terms, key=word_key)

    def generators(self) -> set[int]:
        """Generators appearing in words or in coefficient variable indices."""
        gens: set[int] = set()
        for w, coeff in self._terms.items():
            gens.update(w)
            gens.update(k for (k, _, _) in coeff.variables())
        return gens

    def word_degree(self) -> int:
        """Longest word length; 0 for scalar or zero polynomials."""
        return max((len(w) for w in self._terms), default=0)

    def check_indices(self, n: int) -> None:
        """Raise DimensionMismatch, naming the least such variable, when a
        coefficient variable c[k,i,j] has i or j outside 1..n."""
        bad = [v for c in self._terms.values() for v in c.variables()
               if not 1 <= min(v[1:]) <= max(v[1:]) <= n]
        if bad:
            k, i, j = min(bad)
            raise DimensionMismatch(f"coefficient variable c[{k},{i},{j}] exceeds n={n}")

    def has_scalar_coefficients(self) -> bool:
        return all(c.is_constant() for c in self._terms.values())

    def term_count(self) -> int:
        return sum(len(c) for c in self._terms.values())

    # -- arithmetic -------------------------------------------------------------

    def __mul__(self, other: "QuasiPoly | CoeffLike") -> "QuasiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(add_terms({}, (
            (wa + wb, ca * cb)
            for wa, ca in self._terms.items()
            for wb, cb in other._terms.items()
        )))

    def __rmul__(self, other: CoeffLike) -> "QuasiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    # -- structure maps ------------------------------------------------------------

    def relabel(self, mapping: Mapping[int, int]) -> "QuasiPoly":
        """Rename generators, coupling words with coefficient variables.

        Generators absent from the mapping are left alone.  Non-injective
        renames (diagonal restrictions) merge terms as expected.
        """

        def renamed(coeff: CPoly) -> CPoly:
            # monomial merges the variables a non-injective rename joins.
            return coeff._new(add_terms({}, (
                (monomial(((mapping.get(k, k), i, j), e) for (k, i, j), e in mono), c)
                for mono, c in coeff._terms.items()
            )))

        return self._new(add_terms({}, (
            (tuple(mapping.get(k, k) for k in w), renamed(coeff))
            for w, coeff in self._terms.items()
        )))

    def substitute(self, subs: Mapping[int, "QuasiPoly"], n: int) -> "QuasiPoly":
        """T-ideal substitution: x_k -> subs[k], c[k,i,j] -> Phi(subs[k])_{ij}.

        Every generator appearing in self (in words or coefficient indices)
        must be covered.  The coefficient replacement goes through the
        generic-matrix evaluation at dimension n, of only the substitutes
        whose generators some coefficient variable reads.
        """
        from . import genmat  # local import; genmat builds on this module

        missing = self.generators() - set(subs)
        if missing:
            raise MissingAssignment(f"no substitute for generators {sorted(missing)}")
        self.check_indices(n)
        read = {k for c in self._terms.values() for (k, _, _) in c.variables()}
        images = {k: genmat.phi_eval(subs[k], n) for k in read}

        def piece(w: Word, coeff: CPoly) -> QuasiPoly:
            table = {(k, i, j): images[k][i - 1, j - 1] for (k, i, j) in coeff.variables()}
            out = QuasiPoly.const(coeff.subst(table) if table else coeff)
            for k in w:
                out = out * subs[k]
            return out

        return QuasiPoly.sum_of(piece(w, coeff) for w, coeff in self._terms.items())

    # -- printing ---------------------------------------------------------------

    def _term_str(self, w: Word, coeff: CPoly) -> str:
        body = "*".join(f"x{k}" for k in w)
        if coeff.is_constant():
            return scaled(coeff.constant_value(), body)
        return f"({coeff})*{body}" if body else f"({coeff})"


def _coeff_degree_in(mono: Monomial, k: int) -> int:
    return sum(e for (g, _, _), e in mono if g == k)


def multilinearize(p: QuasiPoly, generator: int, fresh: list[int]) -> QuasiPoly:
    """Full polarization of p in one generator.

    p must be homogeneous of degree d = len(fresh) in x_generator, counting
    word occurrences only, and its coefficients must not involve that
    generator.  Restricting all fresh generators back to x_generator gives
    d! times the input.
    """
    for w, coeff in p._terms.items():
        if any(g == generator for (g, _, _) in coeff.variables()):
            raise CoefficientDependsOnGenerator(
                f"coefficient of word {w} involves c[{generator},.,.]"
            )
    d = len(fresh)
    if len(set(fresh)) != d:
        raise ValueError("fresh generators must be distinct")
    seen = p.generators()
    if any(f in seen for f in fresh):
        raise ValueError("fresh generators already occur in the input")
    out: dict[Word, CPoly] = {}
    for w, coeff in p._terms.items():
        if w.count(generator) != d:
            raise NotHomogeneous(
                f"word {w} has degree {w.count(generator)} in x{generator}, expected {d}"
            )
        # Each ordering of fresh fills the occurrences of x_generator in turn.
        add_terms(out, (
            (tuple(next(letters) if g == generator else g for g in w), coeff)
            for letters in map(iter, itertools.permutations(fresh))
        ))
    return p._new(out)


def _multilinear_atoms(p: QuasiPoly, generators: list[int]) -> None:
    """Check joint multilinearity: each listed generator occurs exactly once
    per (coefficient monomial, word) atom, across word letters and
    coefficient variables together."""
    gset = set(generators)
    for w, coeff in p._terms.items():
        word_counts = {g: 0 for g in gset}
        for k in w:
            if k in gset:
                word_counts[k] += 1
        for mono, _ in coeff.terms():
            for g in gset:
                total = word_counts[g] + _coeff_degree_in(mono, g)
                if total != 1:
                    raise NotMultilinear(
                        f"generator x{g} occurs {total} times in an atom of {p}"
                    )


def antisymmetrize(
    p: QuasiPoly, generators: list[int], normalized: bool = True
) -> QuasiPoly:
    """Antisymmetrizer over the listed generators.

    Returns (1/h!) sum over permutations of sign times the relabeled input;
    pass normalized=False for the bare signed sum.  Input must be multilinear
    in the listed generators (jointly across words and coefficients).
    """
    if len(set(generators)) != len(generators):
        raise ValueError("generators must be distinct")
    _multilinear_atoms(p, list(generators))
    h = len(generators)
    total = QuasiPoly.sum_of(
        p.relabel({generators[i]: generators[perm[i]] for i in range(h)}).scale(perm_sign(perm))
        for perm in itertools.permutations(range(h))
    )
    if normalized:
        total = total.scale(Fraction(1, math.factorial(h)))
    return total


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation of 0..k-1, by counting inversions."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
