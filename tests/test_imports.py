"""Every module of the package uses what it imports (``__init__`` re-exports),
importing the command line stays free of the slow standard modules, and each
subcommand imports only the package modules it runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCES = sorted(p for p in (SRC / "involute").glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and getattr(node, "module", None) != "__future__":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
        (1, "os"), (2, "dumps")]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command-line run pays for its imports: dataclasses, which pulls in
    # inspect, took about 12 ms to import and its classes 13 ms to build
    # (-S: no site .pth imports)
    code = "import sys, involute.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def modules_loaded(*argv, status=0):
    """The package modules a fresh interpreter holds after ``involute argv``
    exits with ``status`` (-S: no site .pth imports)."""
    code = ("import sys\nfrom involute.cli import main\nexit_code = main(sys.argv[1:])\n"
            "print([exit_code, sorted(m for m in sys.modules if m.startswith('involute.'))])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    exit_code, modules = ast.literal_eval(out.splitlines()[-1])
    assert exit_code == status
    return set(modules)


# (argv, the modules it loads beyond those every command loads)
SUBCOMMANDS = [
    (["complete", "problems/janet3.pde"], set()),
    (["verify", "problems/janet3.pde"], set()),
    (["monomial", "problems/pommaret_basis.pde", "--action", "complete"], set()),
    (["monomial", "problems/pommaret_basis.pde", "--action", "decompose"], set()),
    (["ivp", "problems/janet3.pde"], {"involute.analysis"}),
    (["hilbert", "problems/janet3.pde"], {"involute.analysis"}),
    (["symmetry", "perfbench/inputs/kdv.pde"], {"involute.analysis", "involute.symmetry"}),
]


@pytest.mark.parametrize("argv, optional", SUBCOMMANDS,
                         ids=[" ".join(argv) for argv, _ in SUBCOMMANDS])
def test_subcommand_loads_only_what_it_runs(argv, optional):
    # without bytecode files every module imported is compiled on each run
    base = {f"involute.{m}" for m in ("cli", "probfile", "completion", "diffpoly",
                                      "monomial", "scalars")}
    assert modules_loaded(*argv) == base | optional


@pytest.mark.parametrize("argv, status", [(["--help"], 0), (["-h"], 0), ([], 1), (["bogus"], 1)],
                         ids=repr)
def test_help_and_usage_errors_load_only_the_command_line(argv, status):
    assert modules_loaded(*argv, status=status) == {"involute.cli"}


def test_subcommand_help_loads_only_the_layers_of_its_choices():
    # --division from monomial, --completion-ranking from diffpoly
    assert modules_loaded("complete", "--help") == {
        f"involute.{m}" for m in ("cli", "diffpoly", "monomial", "scalars")}


# the names the package bound when __init__ imported every submodule, less
# probfile.format_problem and completion.verify_partial_involutive, which
# moved to the tests, and with monomial.in_involutive_cone in place of
# separation and involutive_divides, which restated it
PUBLIC = """
    CapExceeded CartanCharacters ComplementaryDecomposition Division MultiIndex
    NoFiniteBasis Separation autoreduce axioms_check cartan_characters
    complementary_decomposition complete in_cone in_involutive_cone is_involutive
    monomials_of_degree monomials_up_to quasi_stability_witness separations
    MultivarPolynomial RationalFunction Context Derivative LinearDiffPoly Ranking
    CompletionOptions InconsistentSystem InvolutiveBasis basis_from chain_criterion
    conventional_normal_form groebner_oracle involutive_normal_form
    minimal_involutive_basis s_polynomial verify_involutive
    HilbertData IVPEntry IVPSpec SolutionDimension complementary_set hilbert_data
    ivp_spec solution_dimension
    DiffPolynomial SolvedEquation SymmetryProblem VectorFieldAnsatz
    apply_prolonged_field determining_system symmetry_dimension
    ProblemError ProblemFile parse_problem
""".split()
SUBMODULES = ["analysis", "completion", "diffpoly", "monomial", "probfile", "scalars",
              "symmetry"]


def test_public_names_resolve_from_their_submodules():
    import involute
    for name in PUBLIC:
        value = getattr(involute, name)
        assert name in dir(involute) and name in involute.__all__
        assert any(vars(getattr(involute, m)).get(name) is value for m in SUBMODULES), name


def test_star_import_binds_the_public_names_and_submodules():
    namespace = {}
    exec("from involute import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC) | set(SUBMODULES)


def test_unknown_name_raises_attribute_error():
    import involute
    with pytest.raises(AttributeError, match="no attribute 'format_problem'"):
        involute.format_problem
    assert not hasattr(involute, "verify_partial_involutive")
