"""Completion of linear PDE systems to involutive form.

Public surface: exact scalars, monomial divisions, differential polynomials
with rankings, the completion algorithm with its verification oracles,
solution-structure analysis, and Lie symmetry determining systems.

Each name is imported from its submodule on first use (PEP 562), so a
command that never touches, say, the symmetry code never compiles it.
"""

_EXPORTS = {  # submodule: the public names it provides
    "monomial": ("CapExceeded", "CartanCharacters", "ComplementaryDecomposition", "Division",
                 "MultiIndex", "NoFiniteBasis", "Separation", "autoreduce", "axioms_check",
                 "cartan_characters", "complementary_decomposition", "complete", "in_cone",
                 "in_involutive_cone", "is_involutive", "monomials_of_degree",
                 "monomials_up_to", "quasi_stability_witness", "separations"),
    "scalars": ("MultivarPolynomial", "RationalFunction"),
    "diffpoly": ("Context", "Derivative", "LinearDiffPoly", "Ranking"),
    "completion": ("CompletionOptions", "InconsistentSystem", "InvolutiveBasis", "basis_from",
                   "chain_criterion", "conventional_normal_form", "groebner_oracle",
                   "involutive_normal_form", "minimal_involutive_basis", "s_polynomial",
                   "verify_involutive"),
    "analysis": ("HilbertData", "IVPEntry", "IVPSpec", "SolutionDimension",
                 "complementary_set", "hilbert_data", "ivp_spec", "solution_dimension"),
    "symmetry": ("DiffPolynomial", "SolvedEquation", "SymmetryProblem", "VectorFieldAnsatz",
                 "apply_prolonged_field", "determining_system", "symmetry_dimension"),
    "probfile": ("ProblemError", "ProblemFile", "parse_problem"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SUBMODULE]  # what ``from involute import *`` binds
__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _EXPORTS else _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    loaded = import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
