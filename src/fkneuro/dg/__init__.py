"""Interior-penalty DG discretization: space, assembly, time stepping."""

from .quadrature import face_rule, gauss_legendre_01, reference_simplex_rule, simplex_rule
from .space import DGSpace, monomial_exponents
from .stepper import solve_fk_mesh, solve_linear
from .system import DGSystem, assemble, face_penalties

__all__ = [
    "DGSpace",
    "DGSystem",
    "assemble",
    "face_penalties",
    "face_rule",
    "gauss_legendre_01",
    "monomial_exponents",
    "reference_simplex_rule",
    "simplex_rule",
    "solve_fk_mesh",
    "solve_linear",
]
