"""Identity-space solvers.

multilinear_identity_space writes the general multilinear quasi-polynomial
of degree d as

    sum_{k=0..d} sum_{sigma in S_{d,k}} lambda_{k,sigma}(x_{sigma(1)},...,x_{sigma(k)})
                                         * x_{sigma(k+1)} ... x_{sigma(d)}

over the sets S_{d,k} of permutations increasing on their first k values
(S_{d,0} is all of S_d), with each lambda a combination of multilinear
coefficient monomials c[sigma(1),s1,t1]...c[sigma(k),sk,tk].  This normal
form has no double counting, so the quasi-identities of that shape are
exactly the nullspace of one exact homogeneous linear system: expanding the
generic-matrix image of the ansatz is linear in the unknowns, and every
(matrix entry, coefficient monomial) pair gives one equation, read off
each word's index paths: a packed table that genmat's Packing.times builds
from the table of the word's suffix (every suffix of an ansatz word is one).
The system is extremely sparse (almost every unknown meets an equation in a
single path product), so it is fed to exactla's sparse row eliminator.

one_variable_divide peels the top word degree of a one-generator
quasi-identity against the degree-n characteristic identity and certifies
the quotient by exact re-multiplication.

local_lin_dep reduces local linear dependence of ordinary noncommutative
polynomials over the n x n matrices to one Capelli composite being a
quasi-identity.  The composite is the one Capelli polynomial,
genmat.capelli(t), under QuasiPoly.substitute, counted before it is built;
it is checked symbolically or by seeded random evaluation through
genmat.verdict_values, and an independent verdict carries a witness point
from genmat.witness_points.  The function returns the ledger capelli-dep
prints.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from . import genmat
from .errors import (
    BudgetExceeded,
    NotAQuasiIdentity,
    NotOneVariable,
    QuasidentError,
    capped_power,
)
from .exactla import QMatrix, Subspace, rank as qrank
from .freealg import QuasiPoly, Word
from .genmat import Packing
from .ratpoly import CPoly, Monomial

# An unknown of the ansatz: (k, sigma, mu) where sigma is the permutation as a
# tuple of images (sigma(1),...,sigma(d)) and mu fixes the entry pair (s, t)
# chosen for each of sigma(1..k), in that order.
Unknown = tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]


class MultilinearAnsatz:
    """Index structure for multilinear quasi-polynomials of degree d on M_n."""

    def __init__(self, n: int, d: int):
        if n < 1 or d < 1:
            raise ValueError("n and d must be >= 1")
        self.n = n
        self.d = d
        self.unknowns: list[Unknown] = []
        pairs = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1)]
        for k in range(d + 1):
            for sigma in itertools.permutations(range(1, d + 1)):
                if k >= 1 and list(sigma[:k]) != sorted(sigma[:k]):
                    continue
                for mu in itertools.product(pairs, repeat=k):
                    self.unknowns.append((k, sigma, mu))
        self.index = {u: i for i, u in enumerate(self.unknowns)}

    def __len__(self) -> int:
        return len(self.unknowns)

    def assemble(self, coords: Sequence[Fraction | int]) -> QuasiPoly:
        """The quasi-polynomial with the given ansatz coordinates."""
        if len(coords) != len(self.unknowns):
            raise ValueError("coordinate vector has wrong length")
        terms: dict[Word, dict] = {}
        for coeff, (k, sigma, mu) in zip(coords, self.unknowns):
            # sigma(1..k) ascends, so mu's variables come sorted.
            mono = tuple(((g, s, t), 1) for g, (s, t) in zip(sigma[:k], mu))
            terms.setdefault(sigma[k:], {})[mono] = coeff
        return QuasiPoly({w: CPoly(c) for w, c in terms.items()})

    def coordinates(self, p: QuasiPoly) -> list[Fraction]:
        """Coordinates of a multilinear quasi-polynomial in this ansatz.

        Raises ValueError if p is not multilinear of degree d in x_1..x_d in
        the ansatz normal form.
        """
        coords = [Fraction(0)] * len(self.unknowns)
        for w, coeff in p.terms():
            if len(set(w)) != len(w) or any(g > self.d for g in w):
                raise ValueError(f"word {w} is not multilinear in x1..x{self.d}")
            rest = sorted(set(range(1, self.d + 1)) - set(w))
            k = len(rest)
            sigma = tuple(rest) + tuple(w)
            for mono, value in coeff.terms():
                mu = _monomial_to_mu(mono, rest)
                key = (k, sigma, mu)
                if key not in self.index:
                    raise ValueError(f"term {mono}|{w} outside the ansatz")
                coords[self.index[key]] += value
        return coords


def _monomial_to_mu(mono: Monomial, gens: list[int]) -> tuple[tuple[int, int], ...]:
    by_gen: dict[int, tuple[int, int]] = {}
    for (g, s, t), e in mono:
        if e != 1 or g in by_gen:
            raise ValueError(f"coefficient monomial {mono} is not multilinear")
        by_gen[g] = (s, t)
    if sorted(by_gen) != gens:
        raise ValueError(
            f"coefficient monomial {mono} does not cover generators {gens}"
        )
    return tuple(by_gen[g] for g in gens)


def multilinear_identity_space(
    n: int, d: int, *, budget: int | None = None
) -> tuple[Subspace, MultilinearAnsatz]:
    """All multilinear quasi-identities of degree d on M_n, in ansatz coordinates.

    Every (matrix entry, multilinear coefficient monomial) pair of the
    expanded generic-matrix image contributes one homogeneous equation; the
    returned subspace is the exact nullspace.  A system of more path terms
    than the budget (d!/k! words of length d - k, each with n^(2k) monomials
    mu and n^(d-k+1) paths) raises BudgetExceeded before the ansatz is built;
    errors.capped_power counts powers, and d! >= 2^(d-1) caps d at the bit length.
    """
    if budget is not None:
        terms = (math.factorial(d) // math.factorial(k) * capped_power(n, k + d + 1, budget)
                 for k in range(d + 1))
        if d > budget.bit_length() or sum(terms) > budget:
            raise BudgetExceeded(
                f"multilinear system at n={n}, degree {d} has more than the budget's {budget} path terms"
            )
    ansatz = MultilinearAnsatz(n, d)
    # Equation key: (entry row, entry col, packed monomial of mu and the
    # path).  Every word is multilinear and mu's generators are not in it, so
    # no variable repeats and one bit per variable code suffices.
    equations: dict[tuple[int, int, int], dict[int, int]] = {}
    packing = Packing(range(1, d + 1), n, 1)
    # Shortest first, so each word's suffix w[1:] has its table already.
    tables = {}
    for w in sorted({sigma[k:] for k, sigma, _ in ansatz.unknowns}, key=len):
        tables[w] = packing.times(w[0], tables[w[1:]]) if w else packing.product(w)
    for idx, (k, sigma, mu) in enumerate(ansatz.unknowns):
        base = packing.pack([((g, s, t), 1) for g, (s, t) in zip(sigma[:k], mu)])
        for u, row in enumerate(tables[sigma[k:]], start=1):
            for v, paths in enumerate(row, start=1):
                for key, mult in paths.items():
                    equation = equations.setdefault((u, v, base + key), {})
                    equation[idx] = equation.get(idx, 0) + mult
    # Pop each equation as the eliminator reads it, so no row is held twice.
    return Subspace.kernel(map(equations.pop, list(equations)), len(ansatz)), ansatz


def one_variable_divide(p: QuasiPoly, n: int) -> QuasiPoly:
    """Exact quotient r with p = r * q_n for a one-generator quasi-identity p.

    Works by repeatedly subtracting lambda_top(x) x^(m-n) q_n(x); the final
    remainder must vanish.  The quotient is certified by re-multiplication in
    the free algebra before it is returned.
    """
    gens = {g for w in p.words() for g in w}
    if not gens <= {1}:
        raise NotOneVariable(f"words use generators {sorted(gens)}, expected only x1")
    if not genmat.is_quasi_identity(p, n):
        raise NotAQuasiIdentity("input does not vanish under the generic-matrix map")
    qn = genmat.cayley_hamilton_q(n)
    quotient = QuasiPoly.zero()
    rest = p
    while not rest.is_zero():
        m = rest.word_degree()
        if m < n:
            raise NotAQuasiIdentity(
                f"nonzero remainder of degree {m} < {n}; input was not in the ideal"
            )
        top = rest.coefficient((1,) * m)
        piece = QuasiPoly({(1,) * (m - n): top})
        quotient = quotient + piece
        rest = rest - piece * qn
    if quotient * qn != p:
        raise QuasidentError("division certificate failed")
    return quotient


def local_lin_dep(
    fs: Sequence[QuasiPoly],
    n: int,
    mode: str = "symbolic",
    seed: int = 0,
    trials: int = 20,
    bound: int = 9,
    term_budget: int = 200_000,
) -> dict:
    """Do the values of fs stay linearly dependent at every point of M_n?

    The test substitutes the fs into the alternating slots of the Capelli
    polynomial genmat.capelli(t) and fresh generators into its y slots;
    dependence holds exactly when that composite is a quasi-identity.  A
    composite of more than term_budget scalar terms before cancellation
    (t! times the product of the fs' term counts, a zero f counted as one
    term, since the t! terms of the Capelli polynomial are built either way)
    is refused before it is built; in symbolic mode term_budget also caps
    the work of its evaluation.

    Returns the ledger capelli-dep prints: the count of fs, the verdict,
    the mode, the confidence, and a witness (for a dependent verdict the
    Capelli certificate, for an independent one a point where the values of
    fs are linearly independent, with those values).
    """
    if not fs:
        raise ValueError("fs must be nonempty")
    for f in fs:
        if not f.has_scalar_coefficients():
            raise ValueError("local_lin_dep expects scalar-only coefficients")
    t = len(fs)
    terms = math.factorial(t) * math.prod(max(f.term_count(), 1) for f in fs)
    if terms > term_budget:
        raise BudgetExceeded(
            f"Capelli composite has {terms} scalar terms, over the budget {term_budget}"
        )
    fresh = max(set().union(*[f.generators() for f in fs]) | {0}) + 1
    subs = {i + 1: f for i, f in enumerate(fs)}
    subs.update({t + 1 + i: QuasiPoly.x(fresh + i) for i in range(t - 1)})
    composite = genmat.capelli(t).substitute(subs, n)
    values = genmat.verdict_values(
        composite, n, mode=mode, seed=seed, trials=trials, bound=bound, budget=term_budget
    )
    dependent = all(v.is_zero() for _, v in values)
    # A composite that is zero as a polynomial (a zero f, or two equal fs)
    # is a quasi-identity whatever the points were.
    confidence = "exact"
    if mode == "randomized" and dependent and not composite.is_zero():
        per_trial = Fraction(min(composite.word_degree(), 2 * bound + 1), 2 * bound + 1)
        confidence = f"false-dependent probability <= ({per_trial})^{trials}"
    if dependent:
        witness = {"capelli": f"C_{2 * t - 1}", "arguments": t, "identity_of_M_n": n}
    else:
        found = _independence_witness(fs, n, seed, bound)
        if found is None:
            raise QuasidentError("independent verdict but no witness point found")
        assignment, values = found
        witness = {
            "point": {f"x{k}": m for k, m in sorted(assignment.items())},
            "values": values,
        }
    return {
        "count": t,
        "verdict": "dependent" if dependent else "independent",
        "mode": mode,
        "confidence": confidence,
        "witness": witness,
    }


def _independence_witness(
    fs: Sequence[QuasiPoly], n: int, seed: int, bound: int
) -> tuple[dict[int, QMatrix], list[QMatrix]] | None:
    """Assignment where the values of fs are linearly independent, from
    genmat.witness_points."""
    gens = sorted(set().union(*[f.generators() for f in fs]))
    for assignment in genmat.witness_points(gens, n, seed, bound):
        values = [genmat.evaluate(f, [assignment], n)[0] for f in fs]
        rows = QMatrix([[m[i, j] for i in range(n) for j in range(n)] for m in values])
        if qrank(rows) == len(fs):
            return assignment, values
    return None
