"""Exact symbolic computation of polynomial, trace and quasi-identities of
the n x n matrix algebra: sparse rational polynomial and free-algebra
arithmetic, the generic-matrix evaluation map, Cayley-Hamilton constructions,
exact rational linear algebra, identity-space solvers, and the
exterior-algebra computations around antisymmetric quasi-identities.
"""

from .errors import (
    AmbientMismatch,
    ArityMismatch,
    BudgetExceeded,
    CoefficientDependsOnGenerator,
    DimensionMismatch,
    DimensionRequired,
    MissingAssignment,
    NotAQuasiIdentity,
    NotHomogeneous,
    NotMultilinear,
    NotOneVariable,
    QuasidentError,
    QuasiSyntaxError,
    WrongDegree,
)
from .exactla import QMatrix, Subspace, nullspace, nullspace_of_rows, rank, rref
from .freealg import QuasiPoly, antisymmetrize, multilinearize
from .genmat import (
    TracePoly,
    capelli,
    cayley_hamilton_q,
    cayley_hamilton_Q,
    cayley_hamilton_q_trace,
    cayley_hamilton_Q_trace,
    generic_matrix,
    is_central,
    is_quasi_identity,
    phi_eval,
    standard_poly,
)
from .idsolve import (
    MultilinearAnsatz,
    local_lin_dep,
    multilinear_identity_space,
    one_variable_divide,
)
from .ratpoly import CPoly, Rational

__version__ = "0.1.0"


def __getattr__(name: str):
    # The parser lives in the CLI module, loaded on first use so that
    # ``python -m quasident.cli`` does not find that module already imported.
    if name in ("parse_quasipoly", "format_quasipoly"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AmbientMismatch",
    "ArityMismatch",
    "BudgetExceeded",
    "CoefficientDependsOnGenerator",
    "CPoly",
    "DimensionMismatch",
    "DimensionRequired",
    "MissingAssignment",
    "MultilinearAnsatz",
    "NotAQuasiIdentity",
    "NotHomogeneous",
    "NotMultilinear",
    "NotOneVariable",
    "QMatrix",
    "QuasidentError",
    "QuasiPoly",
    "QuasiSyntaxError",
    "Rational",
    "Subspace",
    "TracePoly",
    "WrongDegree",
    "antisymmetrize",
    "capelli",
    "cayley_hamilton_Q",
    "cayley_hamilton_Q_trace",
    "cayley_hamilton_q",
    "cayley_hamilton_q_trace",
    "format_quasipoly",
    "generic_matrix",
    "is_central",
    "is_quasi_identity",
    "local_lin_dep",
    "multilinear_identity_space",
    "multilinearize",
    "nullspace",
    "nullspace_of_rows",
    "one_variable_divide",
    "parse_quasipoly",
    "phi_eval",
    "rank",
    "rref",
    "standard_poly",
]
