"""Exact arithmetic for MV-algebras and delta-algebras.

The package provides the standard rational unit-interval algebra, a
term language with an eventually-constant infinitary averaging
operation, a complete decision procedure for its equational theory,
concrete carriers (finite chains, products, Chang's algebra, exact
piecewise-linear functions), good-sequence round trips, desk-scale
maximal-spectrum computations, and a CLI tying it together.
"""

from .rationals import Q01, parse_q01
from .terms import Equation, Term, evaluate, expand, free_vars, parse, parse_equation, print_term

__version__ = "0.1.0"

__all__ = [
    "Q01",
    "parse_q01",
    "Term",
    "Equation",
    "parse",
    "parse_equation",
    "print_term",
    "free_vars",
    "expand",
    "evaluate",
    "__version__",
]
