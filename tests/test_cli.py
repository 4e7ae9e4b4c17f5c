import argparse
import ast
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from involute import (CompletionOptions, Context, Derivative, Division, InconsistentSystem,
                      LinearDiffPoly, MultiIndex, Ranking, cli, minimal_involutive_basis,
                      parse_problem)
from involute.cli import main
from involute.probfile import ProblemError
from involute.scalars import RationalFunction, SparsePolynomial
from conftest import PROBLEMS, freeze_pommaret_indexes, load_problem, norm_set, system


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

    @pytest.mark.parametrize("key, expression, message, col", [
        ("eq", "D[y,x]*D[y,x]", "product of two derivative expressions is not linear", None),
        ("eq", "y/D[y,x]", "division by a derivative expression", None),
        ("eq", "y/(x-x)", "division by zero", None),
        ("solve", "D[y,x] = y/0", "division by zero", None),
        ("eq", "D[y,x]^2", "power of a derivative expression is not linear", None),
        ("solve", "D[y,x] = y/x", "division only by numeric constants here", None),
        ("eq", "D[y,t] + D[q,x]", "unknown function 'q'", 12),
        ("solve", "D[y,t] = D[q,x]", "unknown function 'q'", 12),
        ("eq", "D[y,t] - z", "unknown identifier 'z'", 10),
        ("solve", "D[y,t] = x + z", "unknown identifier 'z'", 14),
    ])
    def test_evaluation_errors_carry_line_and_column(self, key, expression, message, col):
        pf = parse_problem(f"vars: t x\nfuncs: y\n{key}: {expression}\n")
        with pytest.raises(ProblemError) as info:
            pf.linear_system() if key == "eq" else pf.symmetry_problem()
        where = "line 3" + (f", column {col}" if col else "")
        assert (str(info.value), info.value.line, info.value.col) == (
            f"{message} ({where})", 3, col)

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

    @pytest.mark.parametrize("text", [
        "(x2^2 - x1^3)/(x1^2*x2^2)", "1/(x1*x2)", "-x1/(2*x2*x1^2)", "3/(2*x1*x2^3)",
        "x1*x2/(x1 + 1)", "(x1 + x2)/(x1*(x2 - 1)*x2)", "-1/(2*x1)", "x1^2/x2",
    ])
    def test_formatted_coefficient_reads_back(self, text):
        # a printed coefficient, read back as a .pde coefficient, keeps its value
        def coefficient(text):
            _, (f,) = system(f"vars: x1 x2\nfuncs: y\neq: ({text})*D[y,x1]")
            (c,) = f.terms.values()
            return c

        c = coefficient(text)
        printed = c.format(("x1", "x2"))
        assert coefficient(printed) == c

    def test_syntax_error_carries_position(self):
        with pytest.raises(ProblemError, match="line"):
            parse_problem("vars: x\nfuncs: y\neq: D[y,\n")

    @pytest.mark.parametrize("text, expected", [
        ("-x^2*D[y,t]/(1+x)", lambda v, d: d("t").scale(-v("x") ** 2 / (v(1) + v("x")))),
        ("a-b-c", lambda v, d: v("a") - v("b") - v("c")),
        ("a/b/c", lambda v, d: v("a") / (v("b") * v("c"))),
        ("-a*b", lambda v, d: -(v("a") * v("b"))),
        ("+y", lambda v, d: d()),
        ("D[y, x, x]", lambda v, d: d("x", "x")),
        ("D[y,{0,2,0,0,0}]", lambda v, d: d("x", "x")),
        ("x^ 2", lambda v, d: v("x") ** 2),
        ("x\u00a0^\u30002", lambda v, d: v("x") ** 2),  # any Unicode blank separates
    ])
    def test_accepted_expressions(self, text, expected):
        names = ("t", "x", "a", "b", "c")
        ctx = Context(names, ("y",))

        def variable(name):  # or a number
            if isinstance(name, int):
                return RationalFunction.const(len(names), name)
            return RationalFunction.variable(len(names), names.index(name))

        def derivative(*by):
            index = MultiIndex(tuple(by.count(name) for name in names))
            return LinearDiffPoly.from_derivative(ctx, Derivative(0, index))

        value = expected(variable, derivative)
        if isinstance(value, RationalFunction):
            value = LinearDiffPoly(ctx, const=value)
        (f,) = parse_problem(f"vars: {' '.join(names)}\nfuncs: y\neq: {text}\n").linear_system()
        assert f == value

    @pytest.mark.parametrize("text", [
        "x**2", "x^y", "x^-1", "f(x)", "x.y", "y[1]", "D[y]", "D[1,x]", "D[y,{a}]", "1.5",
        "x < y", "x % 2", "(x, y)", "0x10"])
    def test_rejected_expressions(self, text):
        with pytest.raises(ProblemError) as info:
            parse_problem(f"vars: x\nfuncs: y\neq: {text}\n").linear_system()
        assert info.value.line == 3

    @pytest.mark.parametrize("text, message", [
        ("D[y,", "syntax error: '[' was never closed (line 3, column 2)"),
        ("x**2", "unexpected token '*' (line 3, column 3)"),
        ("x^(2)", "exponent must be a nonnegative integer (line 3, column 4)"),
        ("x^02", "syntax error: leading zeros in decimal integer literals are not permitted; "
                 "use an 0o prefix for octal integers (line 3, column 3)"),
        ("x^ 1_0", "syntax error: integers are written in decimal digits (line 3, column 4)"),
        ("D[y,(x)]", "syntax error: expected D[f, x, ...] or D[f, {i, ...}] (line 3, column 1)"),
        ("D[y,{0,}]", "syntax error: expected D[f, x, ...] or D[f, {i, ...}] (line 3, column 1)"),
        ("y + x.t", "syntax error: unexpected 'x.t' (line 3, column 5)"),
    ])
    def test_syntax_error_wording(self, text, message):
        with pytest.raises(ProblemError) as info:
            parse_problem(f"vars: x t\nfuncs: y\neq: {text}\n").linear_system()
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("vars: x lambda\nfuncs: y\neq: y\n", "invalid name 'lambda' (line 1)"),
        ("vars: x\nfuncs: 1y\neq: x\n", "invalid name '1y' (line 2)"),
        ("vars: x\nfuncs: y\ndetvars: y x-1\neq: y\n", "invalid name 'x-1' (line 3)"),
        ("vars: x\nfuncs: y\ndetvars: q x\neq: y\n", "unknown name 'q' in detvars (line 3)"),
        # ast reads the identifier \ufb01 (the fi ligature) as fi
        ("vars: x \ufb01\nfuncs: y\neq: D[y,x] - \ufb01\n",
         "name '\ufb01' reads as 'fi' in expressions (line 1)"),
    ])
    def test_declared_names_are_checked_on_their_line(self, text, message):
        with pytest.raises(ProblemError) as info:
            parse_problem(text)
        assert str(info.value) == message

    def test_columns_count_characters(self):
        pf = parse_problem("vars: é t\nfuncs: y\neq: é^2 + z\n")
        with pytest.raises(ProblemError) as info:
            pf.linear_system()
        assert str(info.value) == "unknown identifier 'z' (line 3, column 7)"
        with pytest.raises(ProblemError) as info:
            parse_problem("vars: é t\nfuncs: y\neq: é + (t\n")
        assert str(info.value) == "syntax error: '(' was never closed (line 3, column 5)"

    def test_unknown_function_on_a_solved_left_side_has_a_column(self):
        pf = parse_problem("vars: t x\nfuncs: y\nranking: degrevlex\n"
                           "solve: D[q,t] = D[y,x,x]\n")
        with pytest.raises(ProblemError) as info:
            pf.symmetry_problem()
        assert str(info.value) == "unknown function 'q' (line 4, column 3)"

    def test_leading_plus_keeps_a_bare_derivative(self):
        pf = parse_problem("vars: x t\nfuncs: y\neq: +D[y,x,t]\neq: +(+D[y,{0,2}])\n")
        assert pf.monomials() == [MultiIndex((1, 1)), MultiIndex((0, 2))]
        pf = parse_problem("vars: x t\nfuncs: y\nsolve: +D[y,t] = y\n")
        assert pf.symmetry_problem().equations[0].lead == (0, MultiIndex((0, 1)))

    @pytest.mark.parametrize("key", ["ranking", "tiebreak"])
    def test_ranking_names_are_checked_on_their_line(self, key):
        with pytest.raises(ProblemError) as exc:
            parse_problem(f"vars: x\nfuncs: y\n{key}: foo\neq: D[y,x]\n")
        assert str(exc.value) == f"unknown {key} 'foo' (line 3)"


def format_problem(ctx, ranking, equations):
    """A system written back in the problem-file syntax."""
    lines = [f"vars: {' '.join(ctx.variables)}",
             f"funcs: {' '.join(ctx.functions)}",
             f"ranking: {ranking.scheme}",
             f"tiebreak: {ranking.tiebreak}"]
    lines += [f"eq: {f.format(ranking)}" for f in equations]
    return "\n".join(lines) + "\n"


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


# systems in x1, x2 whose reducers' leading coefficients are not constants,
# each with a division under which it exits 3 and the message it gives
INCONSISTENT_WITH_COEFFICIENTS = [
    ("x2*D[y,x1] = 1; D[y,x2] = x1", "janet",
     "the prolongation of D[y,{0,1}] - x1 = 0 by x1 reduces to x2^2 + 1 = 0"),
    ("x2*D[y,x1] = 1; D[y,x2] = x1", "lexinduced",
     "the prolongation of x2*D[y,{1,0}] - 1 = 0 by x2 reduces to x2^2 + 1 = 0"),
    ("x1*D[y,x1] = 1; D[y,x1] = x2", "janet",
     "the equation D[y,{1,0}] - x2 = 0 reduces to x1*x2 - 1 = 0"),
    ("D[y,x1] = 1; x2*D[y,x2] = x1", "pommaret",
     "the prolongation of x2*D[y,{0,1}] - x1 = 0 by x1 reduces to 1 = 0"),
    ("D[y,x1] = 1; x2*D[y,x2] = x1", "lexinduced",
     "the prolongation of D[y,{1,0}] - 1 = 0 by x2 reduces to 1 = 0"),
    ("x2*D[y,x1] = x1; x1*D[y,x2] = 1", "janet",
     "the prolongation of x1*D[y,{0,1}] - 1 = 0 by x1 reduces to x1^3 - x2^2 = 0"),
]


def inconsistent_problem(equations):
    return "vars: x1 x2\nfuncs: y\n" + "".join(f"eq: {e}\n" for e in equations.split("; "))


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
        code, out, _ = run_cli(capsys, "symmetry", str(PROBLEMS / "diffusion.pde"))
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
        code, out, err = run_cli(capsys, "monomial", str(PROBLEMS / "example1.pde"),
                                 "--action", "cartan", "--division", "pommaret")
        assert (code, out) == (2, "")  # example set has no finite Pommaret basis
        assert err.startswith("cap exceeded: no finite Pommaret basis")

    def test_monomial_cartan_completes_first(self, tmp_path, capsys):
        # {x1^2, x2} is not Pommaret-involutive; its Pommaret basis is
        # {x1^2, x1*x2, x2}, whose cones give the characters
        path = tmp_path / "quasi.pde"
        path.write_text("vars: x1 x2 x3\nfuncs: y\neq: D[y,{2,0,0}]\neq: D[y,{0,1,0}]\n")
        code, out, err = run_cli(capsys, "monomial", str(path), "--action", "cartan")
        assert (code, out, err) == (0, "degree q = 2; characters: sigma^1=2, sigma^2=0, "
                                       "sigma^3=0\n", "")

    @pytest.mark.parametrize("division", ["janet", "lexinduced"])
    def test_monomial_cartan_refuses_other_divisions(self, capsys, division):
        code, out, err = run_cli(capsys, "monomial", str(PROBLEMS / "pommaret_basis.pde"),
                                 "--action", "cartan", "--division", division)
        assert (code, out) == (1, "")
        assert err == ("error: Cartan characters count the cones of a Pommaret basis; "
                       f"--division {division} does not apply\n")

    @pytest.mark.parametrize("flags", [[], ["--division", "pommaret"]])
    def test_monomial_cartan_reports_pommaret(self, capsys, flags):
        code, out, _ = run_cli(capsys, "monomial", str(PROBLEMS / "pommaret_basis.pde"),
                               "--action", "cartan", "--json", *flags)
        assert code == 0
        assert json.loads(out)["division"] == "pommaret"

    def test_long_sum_is_evaluated_without_recursion(self, tmp_path, capsys):
        long = tmp_path / "long.pde"
        long.write_text("vars: x\nfuncs: y\neq: D[y,x] + " + "+".join(["x"] * 1500) + "\n")
        code, out, err = run_cli(capsys, "complete", str(long))
        assert (code, err) == (0, "")
        assert "\n  D[y,{1}] + 1500*x = 0\n" in out

    @pytest.mark.parametrize("signs, term", [(1500, "+ x"), (1501, "- x")])
    def test_long_sign_chain_is_evaluated_without_recursion(self, tmp_path, capsys,
                                                           signs, term):
        long = tmp_path / "signs.pde"
        long.write_text("vars: x\nfuncs: y\neq: D[y,x] + " + "-" * signs + "x\n")
        code, out, err = run_cli(capsys, "complete", str(long))
        assert (code, err) == (0, "")
        assert f"\n  D[y,{{1}}] {term} = 0\n" in out

    def test_pommaret_without_finite_basis_exits_at_once(self, capsys):
        # example1 has no finite Pommaret basis; the default cap of 10000 used
        # to take minutes to run out
        code, out, err = run_cli(capsys, "complete", str(PROBLEMS / "example1.pde"),
                                 "--division", "pommaret")
        assert (code, out) == (2, "")
        assert err.startswith("cap exceeded: no finite Pommaret basis")
        assert err.endswith("(witness D[y,{1,0,2}])\n")

    def test_monomial_pommaret_verdict_names_the_function(self, capsys):
        code, out, err = run_cli(capsys, "monomial", str(PROBLEMS / "example1.pde"),
                                 "--action", "complete", "--division", "pommaret")
        assert (code, out) == (2, "")
        assert err == ("cap exceeded: no finite Pommaret basis, so any cap is exceeded: "
                       "the leaders of y are not quasi-stable (witness D[y,{1,0,2}])\n")

    @pytest.mark.parametrize("eq", ["y", "D[y,{0,0}]"])
    def test_monomial_bare_function_name_is_order_zero(self, tmp_path, capsys, eq):
        f = tmp_path / "one.pde"
        f.write_text(f"vars: x1 x2\nfuncs: y\neq: {eq}\n")
        code, out, err = run_cli(capsys, "monomial", str(f), "--action", "complete")
        assert (code, out, err) == (0, "completed set: 1\nadded: -\n", "")

    def test_input_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pde"
        bad.write_text("vars: x\nfuncs: y\neq: D[y,{1,0}]\n")
        code, _, err = run_cli(capsys, "complete", str(bad))
        assert code == 1
        assert "error" in err

    def test_byte_order_mark_is_not_text(self, tmp_path, capsys):
        # an editor may save a problem file with a UTF-8 byte-order mark
        plain = PROBLEMS / "janet3.pde"
        marked = tmp_path / "janet3.pde"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, want = (run_cli(capsys, "hilbert", str(path)) for path in (marked, plain))
        assert got[:2] == want[:2] and want[0] == 0

    def test_inconsistent_system_exit_code(self, tmp_path, capsys):
        # y_x1 = 1 and y_x2 = x1 give y_x1x2 = 0 and y_x1x2 = 1
        bad = tmp_path / "inconsistent.pde"
        bad.write_text("vars: x1 x2\nfuncs: y\neq: D[y,x1] = 1\neq: D[y,x2] = x1\n")
        code, out, err = run_cli(capsys, "complete", str(bad))
        assert code == 3
        assert out == ""
        assert err == ("inconsistent system: the prolongation of D[y,{0,1}] - x1 = 0 "
                       "by x1 reduces to 1 = 0\n")

    @pytest.mark.parametrize("flags, message", [
        ((), "the equation D[y,{1,0}] - x1 = 0 reduces to x1 - 1 = 0"),
    ])
    def test_inconsistent_input_equations(self, tmp_path, capsys, flags, message):
        bad = tmp_path / "inconsistent.pde"
        bad.write_text("vars: x1 x2\nfuncs: y\neq: D[y,x1] = 1\neq: D[y,x1] = x1\n")
        code, _, err = run_cli(capsys, "complete", str(bad), *flags)
        assert code == 3
        assert err == f"inconsistent system: {message}\n"

    # complete and verify check the input system alike: a nonzero constant
    # among the equations is 0 = c before any completion.  A constant c/d
    # states c = 0, printed as the loop prints a condition: divided by its
    # integer content, with a positive leading coefficient
    @pytest.mark.parametrize("constant, condition", [
        ("1", "1"), ("-2*x1/3", "x1"), ("-2/(x1 + 1)", "1"), ("(x1^2 - 1)/(-3*x2)", "x1^2 - 1"),
        ("6 - 4*x1*x2", "2*x1*x2 - 3")])
    @pytest.mark.parametrize("subcommand", ["complete", "verify"])
    def test_constant_input_equation(self, tmp_path, capsys, subcommand, constant, condition):
        bad = tmp_path / "constant.pde"
        bad.write_text(f"vars: x1 x2\nfuncs: y\neq: {constant}\neq: D[y,{{1,0}}]\n")
        assert run_cli(capsys, subcommand, str(bad)) == (
            3, "", f"inconsistent system: an input equation reduces to {condition} = 0\n")

    @pytest.mark.parametrize("equations, division, message", INCONSISTENT_WITH_COEFFICIENTS)
    def test_inconsistency_with_nonconstant_leading_coefficients(
            self, tmp_path, capsys, equations, division, message):
        # the reducers' leading coefficients are not constants; the message gives
        # the element over Z[x] and its fraction-free remainder, as the loop holds them
        bad = tmp_path / "inconsistent.pde"
        bad.write_text(inconsistent_problem(equations))
        code, out, err = run_cli(capsys, "complete", str(bad), "--division", division)
        assert (code, out, err) == (3, "", f"inconsistent system: {message}\n")

    # the remainder is printed divided by its integer content, with a positive
    # leading coefficient: 4*D[u,y] - 6*x leaves -3 under Janet and Pommaret
    # division and 3 under lex-induced division, each the condition 1 = 0
    @pytest.mark.parametrize("division, element", [
        ("janet", "2*D[u,{0,1}] - 3*x"), ("pommaret", "2*D[u,{0,1}] - 3*x"),
        ("lexinduced", "D[u,{1,0}] - 2")])
    def test_one_condition_per_inconsistency(self, tmp_path, capsys, division, element):
        bad = tmp_path / "inconsistent.pde"
        bad.write_text("vars: x y\nfuncs: u\neq: D[u,x] - 2\neq: 4*D[u,y] - 6*x\n")
        code, out, err = run_cli(capsys, "complete", str(bad), "--division", division)
        assert (code, out) == (3, "")
        assert err == (f"inconsistent system: the prolongation of {element} = 0 by "
                       f"{'y' if division == 'lexinduced' else 'x'} reduces to 1 = 0\n")

    @pytest.mark.parametrize("division", ["janet", "pommaret", "lexinduced"])
    def test_inconsistency_builds_no_rational_function(self, monkeypatch, division):
        # the loop's exit-3 message reads the remainder it holds: no Q(x) value
        # is made once the equations are parsed
        systems = [system(inconsistent_problem(equations))
                   for equations, _, _ in INCONSISTENT_WITH_COEFFICIENTS]

        def fail(*args):
            raise AssertionError("a RationalFunction was built")

        monkeypatch.setattr(RationalFunction, "__init__", fail)
        monkeypatch.setattr(RationalFunction, "coprime", fail)
        for pf, eqs in systems:
            opts = CompletionOptions(division=Division(division), main=pf.ranking())
            with pytest.raises(InconsistentSystem):
                minimal_involutive_basis(eqs, opts)

    # one content gcd of this system has operands of over 100 terms with a
    # 6-term gcd; the 927-character equation and its 457-term remainder pass
    # the length limit, so the message names them by leader and by size
    @pytest.mark.parametrize("division", ["janet", "pommaret", "lexinduced"])
    def test_large_content_gcds_finish(self, tmp_path, capsys, division):
        path = tmp_path / "gcds.pde"
        path.write_text("vars: x1 x2\nfuncs: y\n"
                        "eq: (x1 + 1)*D[y,{0,1}] + (x2)*D[y,{2,1}] + (x2 - x1)*D[y,{0,0}] = x2\n"
                        "eq: (x2 - x1)*D[y,{1,1}] + (1)*D[y,{0,0}] = x1\n")
        code, out, err = run_cli(capsys, "complete", str(path), "--division", division)
        assert (code, out) == (3, "")
        assert err == ("inconsistent system: the equation led by D[y,{0,1}] reduces to c = 0, "
                       "c of total degree 32 with 457 terms\n")

    @pytest.mark.parametrize("argv, message", [
        (["complete", "janet3.pde", "--division", "nope"], "invalid choice: 'nope'"),
        (["complete", "janet3.pde", "--cap", "x"], "invalid int value: 'x'"),
        (["ivp", "janet3.pde", "--trace"], "unrecognized arguments: --trace"),
        (["verify", "janet3.pde", "--cap", "5"], "unrecognized arguments: --cap 5"),
        (["complete", "janet3.pde", "--autoreduce-input"],
         "unrecognized arguments: --autoreduce-input"),
    ] + [([name, "janet3.pde", flag, value], f"unrecognized arguments: {flag}")
         for name in cli.COMMANDS for flag, value in [("--ranking", "lex"), ("--tie", "indet")]])
    def test_usage_error_exit_code(self, capsys, argv, message):
        # a flag the subcommand does not read is a usage error, like a malformed
        # one; the problem file states the ranking and its tiebreak
        code, out, err = run_cli(capsys, argv[0], str(PROBLEMS / argv[1]), *argv[2:])
        assert (code, out) == (1, "")
        assert err.startswith("usage: involute ") and message in err

    def test_help_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "monomial", "--help")
        assert (code, err) == (0, "")
        assert "--action" in out and "--completion-ranking" not in out

    @pytest.mark.parametrize("funcs, message", [
        ("y", "unknown function 'q' (line 3, column 3)"),
        ("y q", "second function 'y' in a monomial set (line 4, column 3)"),
    ])
    def test_monomial_input_names_one_function(self, tmp_path, capsys, funcs, message):
        f = tmp_path / "two.pde"
        f.write_text(f"vars: x1 x2\nfuncs: {funcs}\neq: D[q,{{1,0}}]\neq: D[y,{{0,1}}]\n")
        code, out, err = run_cli(capsys, "monomial", str(f), "--action", "complete")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, text, message", [
        (["complete"], "funcs: y\neq: D[y,x]\n", "missing 'vars:' declaration"),
        (["complete"], "vars: x\neq: x\n", "missing 'funcs:' declaration"),
        (["complete"], "vars: x\nfuncs: y\nD[y,x]\n", "expected 'key: value' (line 3)"),
        (["complete"], "vars: x\nfuncs: y\nbogus: 1\n", "unknown key 'bogus' (line 3)"),
        (["complete"], "vars: x\nfuncs: y\neq: D[y,x] - D[y,x]\n",
         "equation reduces to 0 = 0 (line 3)"),
        (["complete"], "vars: x\nfuncs: y\neq: D[y,z]\n",
         "unknown variable 'z' in derivative (line 3, column 3)"),
        (["monomial"], "vars: x\nfuncs: y\neq: D[y,x] + x\n",
         "expected a bare derivative (line 3)"),
        (["symmetry"], "vars: t x\nfuncs: y\neq: D[y,t] - D[y,x,x]\n",
         "symmetry input needs solved equations (solve: D[...] = rhs) (line 3)"),
        (["symmetry"], "vars: t x\nfuncs: y\nsolve: y + x = D[y,x,x]\n",
         "left side must be a single derivative (line 3)"),
        (["symmetry"], "vars: t x\nfuncs: y\nsolve: D[y,t] = D[y,t,x]\n",
         "rhs contains the lead or one of its derivatives (line 3)"),
        (["symmetry"], "vars: x t\nfuncs: u v\nsolve: D[u,t] = D[v,x]\nsolve: D[v,x] = D[u,t]\n",
         "substitution did not reach a fixed point; circular leads?"),
        (["symmetry"], "vars: x t\nfuncs: u\ndetvars: u x\nsolve: D[u,t] = D[u,x,x]\n",
         "determining order must list every coordinate once"),
        (["monomial", "--action", "decompose", "--division", "pommaret"],
         "vars: x1 x2\nfuncs: y\neq: D[y,{0,1}]\neq: D[y,{0,2}]\n",
         "set is not pommaret-involutive"),
        # a key that sets something may appear once; the repeat would replace it
        (["complete"], "vars: x1 x2\nfuncs: y\nvars: x1\neq: D[y,{1}]\n",
         "repeated key 'vars' (line 3)"),
        (["complete"], "vars: x\nfuncs: y\neq: D[y,x]\nfuncs: z\n",
         "repeated key 'funcs' (line 4)"),
        (["symmetry"], "vars: t x\nfuncs: y\ndetvars: t\ndetvars: x\nsolve: D[y,t] = D[y,x,x]\n",
         "repeated key 'detvars' (line 4)"),
        (["complete"], "vars: x\nfuncs: y\nranking: grlex\nRanking: lex\neq: D[y,x]\n",
         "repeated key 'ranking' (line 4)"),
        (["complete"], "vars: x\nfuncs: y\ntiebreak: term\ntiebreak: term\neq: D[y,x]\n",
         "repeated key 'tiebreak' (line 4)"),
        # the completion ranking is a choice of the run: --completion-ranking
        (["complete"], "vars: x\nfuncs: y\ncompletion-ranking: lex\neq: D[y,x]\n",
         "unknown key 'completion-ranking' (line 3)"),
        (["symmetry"], "vars: x t\nfuncs: y\ndetvars: x x y\nsolve: D[y,t] = D[y,x,x]\n",
         "determining order must list every coordinate once"),
    ])
    def test_input_errors_name_the_fault(self, tmp_path, capsys, argv, text, message):
        f = tmp_path / "bad.pde"
        f.write_text(text)
        code, out, err = run_cli(capsys, argv[0], str(f), *argv[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_solved_right_side_divided_by_a_number(self, tmp_path, capsys):
        f = tmp_path / "heat.pde"
        f.write_text("vars: t x\nfuncs: y\nranking: degrevlex\nsolve: D[y,t] = D[y,x,x]/2\n")
        code, out, err = run_cli(capsys, "symmetry", str(f))
        assert (code, err) == (0, "")
        assert out.endswith("solution space dimension: infinite (arbitrary functions remain)\n")

    def test_hilbert_function_below_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", str(PROBLEMS / "janet3.pde"), "--s", "-1")
        assert code == 0
        assert "HF(-1) = 0" in out.splitlines()

    @pytest.mark.parametrize("tiebreak", ["term", "indet"])
    def test_the_file_tiebreak_sets_both_rankings(self, tmp_path, capsys, tiebreak):
        f = tmp_path / "tie.pde"
        f.write_text(re.sub(r"(?m)^ranking: .*$", f"ranking: degrevlex\ntiebreak: {tiebreak}",
                            (PROBLEMS / "janet3.pde").read_text()))
        main = f"degrevlex, tiebreak={tiebreak}"
        _, out, _ = run_cli(capsys, "complete", str(f), "--completion-ranking", "lex", "--json")
        options = json.loads(out)["options"]
        assert (options["ranking"], options["completion_ranking"]) == (
            main, f"lex, tiebreak={tiebreak}")
        _, out, _ = run_cli(capsys, "complete", str(f), "--json")
        options = json.loads(out)["options"]
        assert options["ranking"] == options["completion_ranking"] == main

    @staticmethod
    def decompositions(capsys, monkeypatch, *argv):
        """The complementary decompositions a successful invocation builds."""
        from involute import analysis
        decompose, calls = analysis.complementary_decomposition, []

        def counted(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(analysis, "complementary_decomposition", counted)
        assert run_cli(capsys, *argv)[0] == 0
        return calls

    def test_ivp_decomposes_each_function_once(self, capsys, monkeypatch):
        # janet3 has one function
        assert len(self.decompositions(capsys, monkeypatch, "ivp", str(PROBLEMS / "janet3.pde"))) == 1

    def test_hilbert_reads_the_dimension_off_the_polynomial(self, capsys, monkeypatch):
        assert self.decompositions(capsys, monkeypatch, "hilbert", str(PROBLEMS / "janet3.pde")) == []

    def test_symmetry_formats_each_equation_once(self, capsys, monkeypatch):
        plain = LinearDiffPoly.format
        formatted = []  # the polynomials themselves, so that no id is reused

        def recorded(self, *args):
            formatted.append(self)
            return plain(self, *args)

        monkeypatch.setattr(LinearDiffPoly, "format", recorded)
        assert run_cli(capsys, "symmetry", str(PROBLEMS / "diffusion.pde"), "--json")[0] == 0
        assert formatted and len({id(p) for p in formatted}) == len(formatted)

    @pytest.mark.parametrize("argv", [
        ["ivp", "janet3.pde"],
        ["hilbert", "janet3.pde"],
        ["symmetry", "diffusion.pde"],
    ])
    def test_non_orderly_ranking_fails_before_completing(self, tmp_path, capsys, monkeypatch,
                                                         argv):
        from involute import completion, symmetry
        calls = []

        def record(name):
            return lambda *args, **kwargs: calls.append(name)

        monkeypatch.setattr(completion, "minimal_involutive_basis", record("complete"))
        monkeypatch.setattr(symmetry, "minimal_involutive_basis", record("complete"))
        monkeypatch.setattr(symmetry, "determining_system", record("determining_system"))
        f = tmp_path / argv[1]
        f.write_text(re.sub(r"(?m)^ranking: .*$", "ranking: lex",
                            (PROBLEMS / argv[1]).read_text()))
        code, out, err = run_cli(capsys, argv[0], str(f))
        assert (code, out, err) == (1, "", "error: an orderly main ranking is required\n")
        assert calls == []

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "complete", "nope.pde")
        assert code == 1

    def test_trace_output(self, capsys):
        code, out, _ = run_cli(capsys, "complete", str(PROBLEMS / "janet3.pde"),
                               "--trace")
        assert code == 0
        assert "trace:" in out

    def test_trace_text_and_json_list_the_same_entries(self, capsys):
        path = str(PROBLEMS / "janet3.pde")
        _, out, _ = run_cli(capsys, "complete", path, "--trace")
        text = [json.loads(ln[len("trace: "):]) for ln in out.splitlines()
                if ln.startswith("trace: ")]
        _, out, _ = run_cli(capsys, "complete", path, "--trace", "--json")
        assert json.loads(out)["trace"] == text
        assert {e["stage"] for e in text} == {"queue", "prolongation"}
        assert text[1] == {"stage": "prolongation", "leader": "D[y,{0,2,0}]",
                           "variable": "x1", "criterion": False, "result": "added"}
        _, out, _ = run_cli(capsys, "complete", path, "--json")
        assert "trace" not in json.loads(out)


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

    def test_completion_ranking_flag(self, tmp_path, capsys):
        f = tmp_path / "p.pde"
        f.write_text("vars: x1 x2 x3\nfuncs: y\n"
                     "eq: D[y,{2,0,0}] - x2*D[y,{0,0,2}]\neq: D[y,{0,2,0}]\n")
        code, out, _ = run_cli(capsys, "complete", str(f), "--completion-ranking", "lex")
        assert code == 0 and out.count("= 0") == 7

    def test_symmetry_json(self, capsys):
        code, out, _ = run_cli(capsys, "symmetry", str(PROBLEMS / "diffusion.pde"),
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 3
        assert len(doc["basis"]) == 9

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


def test_readme_library_example_runs(capsys, monkeypatch):
    block = (ROOT / "README.md").read_text(encoding="utf-8") \
        .split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert "12" in capsys.readouterr().out.splitlines()


# -- the process entry --------------------------------------------------------

# the seed-7 recipe set (6,8,6): its Janet basis has 388 elements
RECIPE_686 = [(6, 4, 4, 6, 6, 2), (2, 5, 2, 4, 3, 4), (6, 3, 0, 6, 0, 2), (3, 5, 5, 0, 0, 5),
              (5, 2, 5, 4, 5, 6), (3, 2, 5, 3, 5, 2), (0, 3, 2, 1, 4, 0), (3, 0, 1, 6, 2, 1)]


def in_child(argv):
    """(exit code, stdout, stderr) of ``python -m involute.cli argv``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "involute.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv, code", [
    (["hilbert", str(PROBLEMS / "janet3.pde")], 0),
    (["complete", "set686.pde", "--json"], 0),
    (["complete", str(PROBLEMS / "janet3.pde"), "--bogus"], 1),
    (["complete", str(PROBLEMS / "example1.pde"), "--division", "pommaret"], 2),
    (["complete", "inconsistent.pde"], 3),
    (["--help"], 0),
], ids=["text", "large json", "usage error", "no finite basis", "inconsistent", "help"])
def test_process_entry_matches_main(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # the width of help and usage text
    (tmp_path / "set686.pde").write_text("vars: x1 x2 x3 x4 x5 x6\nfuncs: y\n" + "".join(
        "eq: D[y,{%s}]\n" % ",".join(map(str, u)) for u in RECIPE_686))
    (tmp_path / "inconsistent.pde").write_text(
        "vars: x1 x2\nfuncs: y\neq: D[y,x1] = 1\neq: D[y,x2] = x1\n")
    got, want = in_child(argv), run_cli(capsys, *argv)
    assert got[0] == want[0] == code
    if "--json" in argv:  # the same document, but for the elapsed time
        docs = [json.loads(out) for _, out, _ in (got, want)]
        for doc in docs:
            doc.pop("timing_seconds")
        assert docs[0] == docs[1] and len(docs[0]["basis"]) == 388
        assert got[2] == want[2] == ""
    else:
        assert got == want


CHECKED_IN = sorted(PROBLEMS.glob("*.pde")) + sorted((ROOT / "perfbench" / "inputs").glob("*.pde"))


def test_pommaret_gives_the_janet_basis_or_exit_2(capsys, monkeypatch):
    # on every checked-in input with a finite Pommaret basis the --json basis,
    # separations included, is the Janet one, and no Pommaret cone index
    # changes; the others exit 2 at once
    freeze_pommaret_indexes(monkeypatch)
    verdicts = set()
    for path, sub in itertools.product(CHECKED_IN, ("complete", "symmetry")):
        docs = []
        for division in ("janet", "pommaret"):
            code, out, err = run_cli(capsys, sub, str(path), "--division", division, "--json")
            docs.append(json.loads(out)["basis"] if code == 0 else code)
        if docs[0] == 1:  # not an input for this subcommand
            continue
        if docs[1] == 2:
            assert err.startswith("cap exceeded: no finite Pommaret basis")
            verdicts.add((sub, path.parent.name, path.name))
        else:
            assert docs[0] == docs[1]
    assert verdicts == {("complete", "problems", "example1.pde"),
                        ("complete", "inputs", "example1.pde"),
                        ("complete", "inputs", "heat.pde"),
                        ("symmetry", "problems", "transport.pde"),
                        ("symmetry", "inputs", "transport.pde")}


def test_main_freezes_nothing(capsys):
    # tests and the traced benchmark call main many times in one process
    before = gc.get_freeze_count()
    assert main(["hilbert", str(PROBLEMS / "janet3.pde")]) == 0
    assert gc.get_freeze_count() == before


class Unwritable(io.StringIO):
    """A stdout whose every write raises ``error``."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("error, code, err", [
    (OSError(28, "No space left on device"), 4,
     "error: cannot write the report: [Errno 28] No space left on device\n"),
    (BrokenPipeError(32, "Broken pipe"), 0, ""),
], ids=["full disk", "closed pipe"])
def test_write_errors_end_with_a_report(error, code, err, json_flag, capsys):
    with redirect_stdout(Unwritable(error)):
        assert main(["complete", str(PROBLEMS / "janet3.pde"), *json_flag]) == code
    assert capsys.readouterr() == ("", err)


INCONSISTENT = "vars: x1 x2\nfuncs: y\neq: D[y,x1] = 1\neq: D[y,x2] = x1\n"
UNWRITABLE_STDERR = pytest.mark.parametrize("argv, code", [
    (["complete", "inconsistent.pde"], 3),
    (["complete", str(PROBLEMS / "example1.pde"), "--division", "pommaret"], 2),
    (["complete", "missing.pde"], 1),
    (["complete", str(PROBLEMS / "janet3.pde")], 4),
], ids=["inconsistent", "no finite basis", "missing file", "unwritable report"])


@UNWRITABLE_STDERR
def test_an_unwritable_stderr_keeps_the_exit_code(argv, code, tmp_path, monkeypatch):
    # stdout fails too, so the report's own error line goes to a full stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inconsistent.pde").write_text(INCONSISTENT)
    full = Unwritable(OSError(28, "No space left on device"))
    with redirect_stderr(full), redirect_stdout(full):
        assert main(argv) == code


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@UNWRITABLE_STDERR
def test_a_process_with_a_full_stderr_keeps_the_exit_code(argv, code, tmp_path):
    # the exit flush of what a failed line left in a buffer must not change
    # the code either
    (tmp_path / "inconsistent.pde").write_text(INCONSISTENT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "involute.cli", *argv], env=env,
                              cwd=tmp_path, stdout=full, stderr=full, timeout=60)
    assert done.returncode == code


@pytest.mark.parametrize("argv", [
    ["hilbert", str(PROBLEMS / "janet3.pde")],
    ["symmetry", str(ROOT / "perfbench" / "inputs" / "kdv.pde"), "--json"],
], ids=["small report", "large report"])
def test_closed_pipe_ends_the_process_quietly(argv):
    # the reader is gone before the report is written.  stdout is buffered, as
    # it is by default on a pipe: a small report stays in the buffer after the
    # failed write, and the exit flush meets the closed pipe again
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, "-m", "involute.cli", *argv]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_installed_script_and_module_run_the_same_entry():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^involute = "involute\.cli:(\w+)"$', pyproject, re.M).group(1)
    tree = ast.parse((ROOT / "src" / "involute" / "cli.py").read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{target}()"]
    assert getattr(cli, target) is cli.run


# -- the parser of one subcommand ---------------------------------------------

def full_parser():
    """The parser with every subcommand's arguments, as built before each
    invocation built only its own: the oracle for ``cli.build_parser``."""
    ap = argparse.ArgumentParser(prog="involute",
                                 description="completion of linear PDE systems "
                                             "to involutive form")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, fn in cli.COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file")
        for flag, readers, keywords in cli.flags():
            if name in readers:
                p.add_argument(flag, **keywords)
        p.set_defaults(fn=fn)
    return ap


def parsed(parser, argv):
    """(parsed arguments or exit code, stdout, stderr) of ``parser`` on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def flag_values(keywords):
    """Argument lists that set a flag: each choice, no value, or an int."""
    if "choices" in keywords:
        return [[c] for c in keywords["choices"]]
    return [[]] if keywords.get("action") == "store_true" else [["7"]]


def flag_cases(reads):
    """(flag, its argparse keywords, subcommand) for each subcommand that
    reads the flag (``reads``) or does not."""
    return [pytest.param(flag, keywords, name, id=f"{name} {flag}")
            for flag, readers, keywords in cli.flags() for name in cli.COMMANDS
            if (name in readers) == reads]


@pytest.mark.parametrize("flag, keywords, name", flag_cases(True))
def test_one_subcommand_parser_reads_each_flag_as_the_full_one(flag, keywords, name):
    for value in flag_values(keywords):
        for argv in ([name, "F", flag, *value], [name, flag, *value, "F"], [name, "F"]):
            got = parsed(cli.build_parser(argv), argv)
            assert got == parsed(full_parser(), argv)
            assert isinstance(got[0], dict), argv


@pytest.mark.parametrize("flag, keywords, name", flag_cases(False))
def test_flag_a_subcommand_does_not_read_is_the_same_usage_error(flag, keywords, name,
                                                                 monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [name, "F", flag, *flag_values(keywords)[0]]
    got = parsed(cli.build_parser(argv), argv)
    assert got == parsed(full_parser(), argv)
    assert got[0] == 2 and "unrecognized arguments: " + flag in got[2]


def test_no_setting_is_both_a_flag_and_a_file_key():
    # the problem file states the ranking, the command line chooses the run
    from involute import probfile
    assert {flag[2:] for flag, _, _ in cli.flags()}.isdisjoint(probfile._CHOICES)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["complete", "--help"], ["monomial", "-h"], ["bogus"],
    ["complete"], ["--json", "complete", "F"], ["--", "complete", "F"], ["-1", "complete"],
    ["complete", "--", "F"], ["complete", "monomial"], ["hilbert", "F", "--s=3"],
    ["monomial", "F", "--act", "axioms"], ["complete", "F", "--div"], ["Complete", "F"],
], ids=repr)
def test_odd_argvs_parse_as_with_the_full_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert parsed(cli.build_parser(argv), argv) == parsed(full_parser(), argv)


USAGE = "usage: involute [-h] {complete,verify,ivp,hilbert,symmetry,monomial} ...\n"
COMPLETE_HELP = """\
usage: involute complete [-h] [--division {janet,lexinduced,pommaret}]
                         [--completion-ranking {lex,grlex,degrevlex}]
                         [--cap CAP] [--criterion {on,off}] [--json] [--trace]
                         file

positional arguments:
  file                  problem file

options:
  -h, --help            show this help message and exit
  --division {janet,lexinduced,pommaret}
  --completion-ranking {lex,grlex,degrevlex}
  --cap CAP
  --criterion {on,off}
  --json
  --trace
"""


# argparse's wording differs between Python versions (the full-parser
# comparisons above hold on each); these bytes are those of 3.11
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytes pinned under Python 3.11")
@pytest.mark.parametrize("argv, expected", [
    ([], (1, "", USAGE + "involute: error: the following arguments are required: "
                         "subcommand\n")),
    (["--help"], (0, USAGE + "\ncompletion of linear PDE systems to involutive form\n\n"
                            "positional arguments:\n"
                            "  {complete,verify,ivp,hilbert,symmetry,monomial}\n\n"
                            "options:\n"
                            "  -h, --help            show this help message and exit\n", "")),
    (["complete", "--help"], (0, COMPLETE_HELP, "")),
    (["bogus"], (1, "", USAGE + "involute: error: argument subcommand: invalid choice: "
                              "'bogus' (choose from 'complete', 'verify', 'ivp', 'hilbert', "
                              "'symmetry', 'monomial')\n")),
], ids=repr)
def test_help_and_usage_bytes_are_pinned(argv, expected, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == expected
