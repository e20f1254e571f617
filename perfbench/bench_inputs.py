"""Seeded command lists for the benchmark workloads, each with its known answer.

Every command is a quasident CLI argument vector plus the report fields it
must produce.  The answers are fixed before the program runs: published
dimensions for the solver and exterior-algebra commands (the solver's at n=1
follows from the definitions, see ``workload_commands``), and verdicts that
hold by construction for the generated ``check`` and ``capelli-dep`` inputs:

* a T-ideal substitution into an identity (``S_4`` at n=2, ``Q_2``, ``Q_3``)
  is again a quasi-identity;
* a substitution ``f1, f2`` into ``(x1x2 - x2x1)^2`` at n=2 is central, and
  not zero because ``f1 = a*x_p + (terms holding x_r)`` and
  ``f2 = b*x_q + (terms holding x_r)`` with p, q, r distinct: at ``x_r = 0``
  the value is ``(ab)^2 [x_p, x_q]^2``;
* adding ``c*w`` (c a nonzero rational, w a word of length two) to either of
  those is neither an identity nor central: at ``x_k = e11`` for every k the
  scalar part stays scalar while ``c*w`` gives ``c*e11``;
* ``S_5`` is not an identity of the 3x3 matrices (Amitsur-Levitzki: the
  least standard identity of M_3 is ``S_6``), hence not central there either,
  since central polynomials of M_3 have degree at least 8 (Drensky and
  Kasparian);
* ``{1, w, w^2}`` at n=2 and ``{1, w, w^2, w^3}`` at n=3 are locally linearly
  dependent by Cayley-Hamilton; ``{1, f}`` with ``f = a*x_p + b*x_q x_r`` and
  a nonzero is independent (at ``x_p = e12``, the rest zero, f is not scalar).

Shapes are fixed (term counts, word lengths, generator counts); the seed only
picks labels and coefficients, so the cost of a workload barely depends on it.
The program sees only the argument vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from quasident import genmat
from quasident.cli import format_quasipoly
from quasident.freealg import QuasiPoly

WORKLOADS = ("multilinear-solve", "symbolic-eval", "antisym-realize", "randomized-eval")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the results it must report."""

    label: str
    argv: tuple[str, ...]
    expect: dict


def _coef(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _term(rng: random.Random, w: tuple[int, ...]) -> QuasiPoly:
    return QuasiPoly.from_word(w, _coef(rng))


@dataclass(frozen=True)
class CheckInput:
    label: str
    n: int
    text: str
    quasi_identity: bool
    central: bool


def check_inputs(seed: int) -> list[CheckInput]:
    """The seeded ``check`` inputs shared by symbolic-eval and randomized-eval.

    Each substitution follows a fixed template in abstract generators; the
    seed permutes the generator labels and draws the coefficients.
    """
    rng = random.Random(f"check:{seed}")
    out: list[CheckInput] = []

    def relabel(words: list[tuple[int, ...]], perm: list[int]) -> QuasiPoly:
        total = QuasiPoly.zero()
        for w in words:
            total = total + _term(rng, tuple(perm[g - 1] for g in w))
        return total

    def subst(template: QuasiPoly, n: int, shapes: dict[int, list], pool: int) -> QuasiPoly:
        perm = rng.sample(range(1, pool + 1), pool)
        return template.substitute({k: relabel(ws, perm) for k, ws in shapes.items()}, n)

    def add(label: str, n: int, p: QuasiPoly, qi: bool, central: bool, pool: int) -> None:
        out.append(CheckInput(label, n, format_quasipoly(p), qi, central))
        if qi or central:
            mono = relabel([(1, 2)], rng.sample(range(1, pool + 1), 2))
            out.append(CheckInput(label + "+mono", n, format_quasipoly(p + mono), False, False))

    x = QuasiPoly.x
    add("S4-subst", 2, subst(genmat.standard_poly(4), 2,
                             {1: [(1,), (2, 3)], 2: [(2,), (3, 4)], 3: [(3,), (4,)], 4: [(4,), (1,)]}, 4),
        True, True, 4)
    add("Q2-subst", 2, subst(genmat.cayley_hamilton_Q(2), 2,
                             {1: [(1,), (2, 3)], 2: [(2,), (3, 4)]}, 4), True, True, 4)
    add("Q3-subst", 3, subst(genmat.cayley_hamilton_Q(3), 3,
                             {k: [(k,), (k % 3 + 1,)] for k in range(1, 4)}, 3), True, True, 3)
    commutator = x(1) * x(2) - x(2) * x(1)
    # f1 = x_p + x_r x_t, f2 = x_q + x_t x_r: p, q, r distinct, as the module
    # docstring requires for a nonzero central value.
    add("hall-subst", 2, subst(commutator * commutator, 2,
                               {1: [(1,), (3, 4)], 2: [(2,), (4, 3)]}, 4), False, True, 4)
    s5 = genmat.standard_poly(5).relabel(dict(zip(range(1, 6), rng.sample(range(1, 8), 5))))
    add("S5", 3, s5.scale(_coef(rng)), False, False, 5)
    return out


def _power_family(w: QuasiPoly, top: int) -> list[str]:
    family, power = [], QuasiPoly.one()
    for _ in range(top + 1):
        family.append(format_quasipoly(power))
        power = power * w
    return family


def capelli_families(seed: int, mode: str) -> list[tuple[str, int, list[str], str]]:
    """(label, n, polynomials, verdict) for the seeded ``capelli-dep`` inputs."""
    rng = random.Random(f"capelli:{mode}:{seed}")
    if mode == "symbolic":
        p, q, r = rng.sample([1, 2, 3], 3)
        w = _term(rng, (p,)) + _term(rng, (q, r))
        p, q, r = rng.sample([1, 2, 3], 3)
        f = _term(rng, (p,)) + _term(rng, (q, r))
        return [
            ("CH-family-n2", 2, _power_family(w, 2), "dependent"),
            ("one-and-f-n2", 2, ["1", format_quasipoly(f)], "independent"),
        ]
    out = []
    for n in (2, 3):
        w = _term(rng, (rng.randint(1, 3),)) + QuasiPoly.const(_coef(rng))
        out.append((f"CH-family-n{n}", n, _power_family(w, n), "dependent"))
    return out


def _check_cmd(seed: int, mode: str, ci: CheckInput) -> Command:
    return Command(
        f"check:{ci.label}",
        ("--seed", str(seed), "--mode", mode, "check", "--n", str(ci.n), "--expr", ci.text),
        {"quasi_identity": ci.quasi_identity, "central": ci.central},
    )


def _capelli_cmd(seed: int, mode: str, label: str, n: int, fs: list[str], verdict: str) -> Command:
    argv = ["--seed", str(seed), "--mode", mode, "capelli-dep", "--n", str(n)]
    for f in fs:
        argv += ["--expr", f]
    return Command(f"capelli-dep:{label}", tuple(argv), {"verdict": verdict, "count": len(fs)})


def workload_commands(name: str, seed: int) -> list[Command]:
    """The commands of one workload pass, in order."""
    s = ("--seed", str(seed))
    if name == "multilinear-solve":
        return [
            Command("solve-multilinear:3,3", s + ("solve-multilinear", "--n", "3", "--degree", "3"),
                    {"dimension": 1, "spans_Qn": True, "unknowns": 1032}),
            # At n=1 every quasi-monomial evaluates to x1 x2 x3 x4, so the
            # identities are the 65 - 1 coefficient vectors summing to zero;
            # canonicalizing that 64-vector basis is nearly all of the time.
            Command("solve-multilinear:1,4", s + ("solve-multilinear", "--n", "1", "--degree", "4"),
                    {"dimension": 64, "spans_Qn": False, "unknowns": 65}),
        ]
    if name == "antisym-realize":
        return [
            Command("antisym-dim:3", s + ("antisym", "dim", "--n", "3"),
                    {"rank": 24, "expected": 24, "certified": True}),
            Command("antisym-corollary2:3", s + ("antisym", "corollary2", "--n", "3"),
                    {"ambient": 163, "ideal_dim": 128, "block_dim": 8, "intersection_dim": 0}),
            Command("antisym-kerim:4", s + ("antisym", "kerim", "--n", "4"),
                    {"ambient": 13, "codimension": 1, "ker_rho_equals_image": True}),
        ]
    if name in ("symbolic-eval", "randomized-eval"):
        mode = "symbolic" if name == "symbolic-eval" else "randomized"
        cmds = []
        if mode == "symbolic":
            cmds += [
                Command(f"verify-ch:{n}", s + ("verify-ch", "--n", str(n)),
                        {"q_is_identity": True, "Q_is_identity": True})
                for n in (3, 4)
            ]
        cmds += [_check_cmd(seed, mode, ci) for ci in check_inputs(seed)]
        cmds += [_capelli_cmd(seed, mode, *fam) for fam in capelli_families(seed, mode)]
        return cmds
    raise ValueError(f"unknown workload {name!r}")
