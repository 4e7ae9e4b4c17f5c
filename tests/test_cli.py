import json

import pytest

from involute import Ranking, parse_problem
from involute.cli import main
from involute.probfile import ProblemError, format_problem
from involute.scalars import RationalFunction, SparsePolynomial
from conftest import PROBLEMS, load_problem, norm_set, system


class TestParsing:
    def test_janet_example_roundtrip_values(self):
        pf = load_problem("janet3.pde")
        assert pf.variables == ("x1", "x2", "x3")
        assert pf.functions == ("y",)
        eqs = pf.linear_system()
        assert len(eqs) == 2

    def test_repeated_index_form(self):
        pf1, e1 = system("""
            vars: t x
            funcs: y
            eq: D[y,t] - D[y,x,x]
        """)
        pf2, e2 = system("""
            vars: t x
            funcs: y
            eq: D[y,{1,0}] - D[y,{0,2}]
        """)
        assert e1 == e2

    def test_equals_form(self):
        pf1, e1 = system("""
            vars: t x
            funcs: y
            eq: D[y,t] = D[y,x,x]
        """)
        pf2, e2 = system("""
            vars: t x
            funcs: y
            eq: D[y,t] - D[y,x,x]
        """)
        assert e1 == e2

    def test_no_equations(self):
        with pytest.raises(ProblemError, match="no equations"):
            parse_problem("vars: x\nfuncs: y\n")

    def test_dimension_mismatch(self):
        with pytest.raises(ProblemError, match="length 2"):
            system("""
                vars: x1 x2 x3
                funcs: y
                eq: D[y,{1,0}]
            """)

    def test_unknown_identifier(self):
        with pytest.raises(ProblemError, match="unknown identifier 'z'"):
            system("""
                vars: x
                funcs: y
                eq: z*D[y,x]
            """)

    def test_duplicate_names(self):
        with pytest.raises(ProblemError, match="unique"):
            parse_problem("vars: x x\nfuncs: y\neq: y\n")

    def test_nonlinear_rejected(self):
        with pytest.raises(ProblemError, match="not linear"):
            system("""
                vars: x
                funcs: y
                eq: y*D[y,x]
            """)

    def test_division_by_derivative_rejected(self):
        with pytest.raises(ProblemError, match="division"):
            system("""
                vars: x
                funcs: y
                eq: 1/D[y,x]
            """)

    def test_power_of_a_coefficient_is_the_repeated_product(self):
        base = "(x1/(x1+1))"
        for k in range(5):
            _, power = system(f"vars: x1 x2\nfuncs: y\neq: {base}^{k}*D[y,x2]")
            _, product = system(f"vars: x1 x2\nfuncs: y\neq: {'*'.join([base] * k) or 1}*D[y,x2]")
            assert power == product

    def test_power_of_a_coefficient_takes_logarithmically_many_products(self, monkeypatch):
        calls = []

        def counted(cls):
            mul = cls.__mul__

            def wrapper(a, b):
                calls.append(cls)
                return mul(a, b)
            monkeypatch.setattr(cls, "__mul__", wrapper)

        counted(RationalFunction)
        counted(SparsePolynomial)
        k = 200000
        _, (f,) = system(f"vars: x1 x2\nfuncs: y\neq: x2^{k}*D[y,x1]")
        assert len(calls) <= 4 * k.bit_length()
        assert f.const.is_zero() and len(f.terms) == 1

    def test_syntax_error_carries_position(self):
        with pytest.raises(ProblemError, match="line"):
            parse_problem("vars: x\nfuncs: y\neq: D[y,\n")

    @pytest.mark.parametrize("key, what", [("ranking", "ranking"), ("tiebreak", "tiebreak"),
                                           ("completion-ranking", "completion ranking")])
    def test_ranking_names_are_checked_on_their_line(self, key, what):
        with pytest.raises(ProblemError) as exc:
            parse_problem(f"vars: x\nfuncs: y\n{key}: foo\neq: D[y,x]\n")
        assert str(exc.value) == f"unknown {what} 'foo' (line 3)"


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["janet3.pde", "fourvar.pde", "lewy.pde"])
    def test_print_parse_print_fixed_point(self, name):
        from involute import CompletionOptions, Division, minimal_involutive_basis
        pf = load_problem(name)
        opts = CompletionOptions(division=Division.JANET, main=pf.ranking())
        basis = minimal_involutive_basis(pf.linear_system(), opts)
        text = format_problem(pf.context(), pf.ranking(), basis.elements)
        reparsed = parse_problem(text)
        assert norm_set(reparsed.linear_system(), pf.ranking()) == \
            norm_set(basis.elements, pf.ranking())
        text2 = format_problem(reparsed.context(), reparsed.ranking(),
                               reparsed.linear_system())
        assert text == text2


ROOT = PROBLEMS.parent
README_BLOCK = (ROOT / "README.md").read_text(encoding="utf-8") \
    .split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
README_COMMANDS = [ln.split()[1:] for ln in README_BLOCK.splitlines()
                   if ln.startswith("involute ")]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_complete_janet(self, capsys):
        code, out, err = run_cli(capsys, "complete", str(PROBLEMS / "janet3.pde"),
                                 "--division", "janet")
        assert code == 0
        assert out.count("= 0") == 7

    def test_complete_json_matches_text(self, capsys):
        code, out, _ = run_cli(capsys, "complete", str(PROBLEMS / "janet3.pde"),
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["basis"]) == 7
        # rebuild equations from the machine-readable form and compare
        pf = load_problem("janet3.pde")
        lines = []
        for el in doc["basis"]:
            parts = []
            for t in el["terms"]:
                idx = ",".join(str(i) for i in t["index"])
                parts.append(f"({t['coefficient']})*D[{t['function']}," + "{" + idx + "}]")
            lines.append("eq: " + " + ".join(parts))
        text = ("vars: x1 x2 x3\nfuncs: y\n" + "\n".join(lines) + "\n")
        reparsed = parse_problem(text).linear_system()
        from involute import CompletionOptions, Division, minimal_involutive_basis
        opts = CompletionOptions(division=Division.JANET, main=pf.ranking())
        basis = minimal_involutive_basis(pf.linear_system(), opts)
        assert norm_set(reparsed, pf.ranking()) == norm_set(basis.elements, pf.ranking())

    def test_verify_lewy(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(PROBLEMS / "lewy.pde"))
        assert code == 0
        assert out.count("involutive (janet): true") == 1
        assert out.count("involutive (pommaret): true") == 1
        assert out.count("involutive (lexinduced): true") == 1

    def test_hilbert_janet(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", str(PROBLEMS / "janet3.pde"),
                               "--s", "8")
        assert code == 0
        assert "HF(8) = 12" in out
        assert "HP(s) = 12" in out
        assert "dimension: 12" in out

    def test_ivp_fourvar(self, capsys):
        code, out, _ = run_cli(capsys, "ivp", str(PROBLEMS / "fourvar.pde"))
        assert code == 0
        assert "f1(x4)" in out

    def test_symmetry_diffusion(self, capsys):
        code, out, _ = run_cli(capsys, "symmetry", str(PROBLEMS / "diffusion.pde"),
                               "--ranking", "degrevlex")
        assert code == 0
        assert "dimension: 3" in out

    def test_monomial_separations(self, capsys):
        code, out, _ = run_cli(capsys, "monomial", str(PROBLEMS / "example1.pde"),
                               "--action", "separations", "--division", "janet")
        assert code == 0
        assert "x1^2*x3: multiplicative x1, x2, x3" in out

    def test_monomial_complete_cap(self, capsys):
        code, out, err = run_cli(capsys, "monomial", str(PROBLEMS / "example1.pde"),
                                 "--action", "complete", "--division", "pommaret",
                                 "--cap", "100")
        assert code == 2
        assert "cap exceeded" in err

    @pytest.mark.parametrize("argv", [["complete"], ["monomial", "--action", "complete"]])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_an_input_error(self, capsys, argv, cap):
        code, out, err = run_cli(capsys, argv[0], str(PROBLEMS / "example1.pde"),
                                 *argv[1:], "--cap", cap)
        assert (code, out, err) == (1, "", "error: cap must be at least 1\n")

    def test_monomial_cartan(self, capsys):
        code, out, _ = run_cli(capsys, "monomial", str(PROBLEMS / "example1.pde"),
                               "--action", "cartan", "--division", "pommaret")
        assert code == 1  # example set is not pommaret-involutive

    def test_input_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pde"
        bad.write_text("vars: x\nfuncs: y\neq: D[y,{1,0}]\n")
        code, _, err = run_cli(capsys, "complete", str(bad))
        assert code == 1
        assert "error" in err

    def test_inconsistent_system_exit_code(self, tmp_path, capsys):
        # y_x1 = 1 and y_x2 = x1 give y_x1x2 = 0 and y_x1x2 = 1
        bad = tmp_path / "inconsistent.pde"
        bad.write_text("vars: x1 x2\nfuncs: y\neq: D[y,x1] = 1\neq: D[y,x2] = x1\n")
        code, out, err = run_cli(capsys, "complete", str(bad))
        assert code == 3
        assert out == ""
        assert err == ("inconsistent system: the prolongation of D[y,{0,1}] - x1 = 0 "
                       "by x1 reduces to -1 = 0\n")

    @pytest.mark.parametrize("flags, message", [
        ((), "the equation D[y,{1,0}] - x1 = 0 reduces to -x1 + 1 = 0"),
        (("--autoreduce-input",), "the equation D[y,{1,0}] - 1 = 0 reduces to x1 - 1 = 0"),
    ])
    def test_inconsistent_input_equations(self, tmp_path, capsys, flags, message):
        bad = tmp_path / "inconsistent.pde"
        bad.write_text("vars: x1 x2\nfuncs: y\neq: D[y,x1] = 1\neq: D[y,x1] = x1\n")
        code, _, err = run_cli(capsys, "complete", str(bad), *flags)
        assert code == 3
        assert err == f"inconsistent system: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["complete", "janet3.pde", "--division", "nope"], "invalid choice: 'nope'"),
        (["complete", "janet3.pde", "--cap", "x"], "invalid int value: 'x'"),
        (["ivp", "janet3.pde", "--trace"], "unrecognized arguments: --trace"),
        (["verify", "janet3.pde", "--cap", "5"], "unrecognized arguments: --cap 5"),
        (["monomial", "example1.pde", "--ranking", "lex"], "unrecognized arguments: --ranking"),
    ])
    def test_usage_error_exit_code(self, capsys, argv, message):
        # a flag the subcommand does not read is a usage error, like a malformed one
        code, out, err = run_cli(capsys, argv[0], str(PROBLEMS / argv[1]), *argv[2:])
        assert (code, out) == (1, "")
        assert err.startswith("usage: involute ") and message in err

    def test_help_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "monomial", "--help")
        assert (code, err) == (0, "")
        assert "--action" in out and "--ranking" not in out

    @pytest.mark.parametrize("funcs, message", [
        ("y", "unknown function 'q' (line 3, column 3)"),
        ("y q", "second function 'y' in a monomial set (line 4, column 3)"),
    ])
    def test_monomial_input_names_one_function(self, tmp_path, capsys, funcs, message):
        f = tmp_path / "two.pde"
        f.write_text(f"vars: x1 x2\nfuncs: {funcs}\neq: D[q,{{1,0}}]\neq: D[y,{{0,1}}]\n")
        code, out, err = run_cli(capsys, "monomial", str(f), "--action", "complete")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "complete", "nope.pde")
        assert code == 1

    def test_trace_output(self, capsys):
        code, out, _ = run_cli(capsys, "complete", str(PROBLEMS / "janet3.pde"),
                               "--trace")
        assert code == 0
        assert "trace:" in out


class TestMoreCli:
    def test_monomial_decompose(self, capsys):
        code, out, _ = run_cli(capsys, "monomial", str(PROBLEMS / "example1.pde"),
                               "--action", "decompose", "--division", "janet")
        assert code == 1  # input set is not complete; decomposition refuses

    def test_monomial_decompose_after_completion(self, tmp_path, capsys):
        f = tmp_path / "completed.pde"
        f.write_text("vars: x1 x2 x3\nfuncs: y\n"
                     "eq: D[y,{2,0,1}]\neq: D[y,{1,1,0}]\n"
                     "eq: D[y,{1,0,2}]\neq: D[y,{2,1,0}]\n")
        code, out, _ = run_cli(capsys, "monomial", str(f),
                               "--action", "decompose", "--division", "janet")
        assert code == 0
        assert "generator 1; multipliers: x2, x3" in out

    def test_monomial_axioms(self, capsys):
        code, out, _ = run_cli(capsys, "monomial", str(PROBLEMS / "example1.pde"),
                               "--action", "axioms", "--division", "lexinduced")
        assert code == 0
        assert "all division axioms hold" in out

    def test_completion_ranking_key(self, tmp_path, capsys):
        f = tmp_path / "p.pde"
        f.write_text("vars: x1 x2 x3\nfuncs: y\ncompletion-ranking: lex\n"
                     "eq: D[y,{2,0,0}] - x2*D[y,{0,0,2}]\neq: D[y,{0,2,0}]\n")
        pf = parse_problem(f.read_text())
        assert pf.completion_ranking().scheme == "lex"
        code, out, _ = run_cli(capsys, "complete", str(f))
        assert code == 0 and out.count("= 0") == 7

    def test_symmetry_json(self, capsys):
        code, out, _ = run_cli(capsys, "symmetry", str(PROBLEMS / "diffusion.pde"),
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 3
        assert len(doc["basis"]) == 9

    @pytest.mark.parametrize("flag, autoreduced", [((), False),
                                                   (("--autoreduce-input",), True)])
    def test_symmetry_autoreduce_input(self, tmp_path, capsys, monkeypatch, flag, autoreduced):
        from involute import completion
        kdv = tmp_path / "kdv.pde"
        kdv.write_text("vars: t x\nfuncs: u\nranking: degrevlex\n"
                       "solve: D[u,t] = u*D[u,x] + D[u,x,x,x]\n")
        calls = []
        real = completion.conventional_autoreduce

        def counting(F, ranking):
            calls.append(len(F))
            return real(F, ranking)

        monkeypatch.setattr(completion, "conventional_autoreduce", counting)
        code, out, _ = run_cli(capsys, "symmetry", str(kdv), *flag)
        assert code == 0
        assert "solution space dimension: 4" in out
        assert bool(calls) is autoreduced

    def test_ivp_json(self, capsys):
        code, out, _ = run_cli(capsys, "ivp", str(PROBLEMS / "fourvar.pde"),
                               "--division", "pommaret", "--json")
        assert code == 0
        doc = json.loads(out)
        kinds = {e["kind"] for e in doc["initial_data"]}
        assert kinds == {"constant", "function"}

    def test_hilbert_json(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", str(PROBLEMS / "janet3.pde"),
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["polynomial"] == ["12"]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0


def test_readme_lists_commands():
    assert len(README_COMMANDS) >= 6
