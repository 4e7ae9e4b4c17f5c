"""Completion of linear PDE systems to involutive form.

Public surface: exact scalars, monomial divisions, differential polynomials
with rankings, the completion algorithm with its verification oracles,
solution-structure analysis, and Lie symmetry determining systems.
"""

from .monomial import (CapExceeded, CartanCharacters, ComplementaryDecomposition,
                       Division, MultiIndex, NoFiniteBasis, Separation, autoreduce,
                       axioms_check, cartan_characters, complementary_decomposition,
                       complete, in_cone, involutive_divides, is_involutive,
                       monomials_of_degree, monomials_up_to, quasi_stability_witness,
                       separation, separations)
from .scalars import MultivarPolynomial, RationalFunction
from .diffpoly import Context, Derivative, LinearDiffPoly, Ranking
from .completion import (CompletionOptions, InconsistentSystem, InvolutiveBasis, basis_from,
                         chain_criterion, conventional_normal_form, groebner_oracle,
                         involutive_normal_form, minimal_involutive_basis,
                         s_polynomial, verify_involutive,
                         verify_partial_involutive)
from .analysis import (HilbertData, IVPEntry, IVPSpec, SolutionDimension,
                       complementary_set, hilbert_data, ivp_spec, solution_dimension)
from .symmetry import (DiffPolynomial, SolvedEquation, SymmetryProblem,
                       VectorFieldAnsatz, apply_prolonged_field,
                       determining_system, symmetry_dimension)
from .probfile import ProblemError, ProblemFile, format_problem, parse_problem

__version__ = "0.1.0"
