"""Command-line front end.

Subcommands: complete, verify, ivp, hilbert, symmetry, monomial.
Exit codes: 0 success, 1 input error, 2 prolongation cap exceeded,
3 inconsistent system (an equation or a prolongation reduces to 0 = c).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import analysis
from .completion import (CompletionOptions, InconsistentSystem, basis_from,
                         groebner_oracle, minimal_involutive_basis, verify_involutive)
from .monomial import (CapExceeded, Division, axioms_check, cartan_characters,
                       complementary_decomposition, complete as complete_monomials,
                       separations)
from .probfile import ProblemError, parse_problem
from .symmetry import determining_system, symmetry_dimension

DIVISIONS = {"janet": Division.JANET, "pommaret": Division.POMMARET,
             "lexinduced": Division.LEX_INDUCED}


def _add_common(p):
    p.add_argument("file", help="problem file")
    p.add_argument("--division", choices=sorted(DIVISIONS), default=None)
    p.add_argument("--ranking", choices=["lex", "grlex", "degrevlex"], default=None)
    p.add_argument("--tie", choices=["term", "indet"], default=None)
    p.add_argument("--completion-ranking", choices=["lex", "grlex", "degrevlex"],
                   dest="completion_ranking", default=None)
    p.add_argument("--cap", type=int, default=10000)
    p.add_argument("--criterion", choices=["on", "off"], default="on")
    p.add_argument("--autoreduce-input", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true")


def _options(problem, args):
    division = DIVISIONS[args.division] if args.division else Division.JANET
    main = problem.ranking(args.ranking, args.tie)
    comp = problem.completion_ranking(args.completion_ranking)
    return CompletionOptions(division=division, main=main, completion=comp,
                             cap=args.cap, use_criterion=args.criterion == "on",
                             autoreduce_input=args.autoreduce_input)


def _sep_text(sep, ctx):
    mult = ", ".join(ctx.variables[i] for i in sorted(sep.multiplicative)) or "-"
    nonmult = ", ".join(ctx.variables[i] for i in sorted(sep.nonmultiplicative)) or "-"
    return mult, nonmult


def _basis_json(basis, ctx):
    main = basis.options.main
    out = []
    for f, sep in zip(basis.elements, basis.separations):
        terms = [{"function": ctx.functions[d.indet],
                  "index": list(d.index),
                  "coefficient": c.format(ctx.variables)}
                 for d, c in f.sorted_terms(main)]
        out.append({"constant": f.const.format(ctx.variables),
                    "terms": terms,
                    "multiplicative": sorted(ctx.variables[i] for i in sep.multiplicative),
                    "nonmultiplicative": sorted(ctx.variables[i] for i in sep.nonmultiplicative)})
    return out


def _print_basis(basis, ctx, out):
    main = basis.options.main
    out.append(f"involutive basis ({len(basis)} elements, division="
               f"{basis.options.division.value}, ranking {main.describe()}):")
    for f, sep in zip(basis.elements, basis.separations):
        mult, nonmult = _sep_text(sep, ctx)
        out.append(f"  {f.format(main)} = 0")
        out.append(f"      multiplicative: {mult}; nonmultiplicative: {nonmult}")


def _decomposition_json(decs, ctx):
    blob = {}
    for j, dec in decs.items():
        blob[ctx.functions[j]] = {
            "finite_part": [list(v) for v in dec.finite_part],
            "generators": [{"monomial": list(v),
                            "multipliers": sorted(ctx.variables[i] for i in mult)}
                           for v, mult in dec.generators],
        }
    return blob


def _print_decomposition(decs, ctx, out):
    for j in sorted(decs):
        dec = decs[j]
        out.append(f"parametric derivatives of {ctx.functions[j]}:")
        for v, mult in dec.entries():
            names = ", ".join(ctx.variables[i] for i in sorted(mult)) or "-"
            out.append(f"  generator {v.format(ctx.variables)}; multipliers: {names}")


def cmd_complete(args):
    problem = parse_problem(_read(args.file))
    ctx = problem.context()
    opts = _options(problem, args)
    system = problem.linear_system()
    trace = [] if args.trace else None
    t0 = time.monotonic()
    basis = minimal_involutive_basis(system, opts, trace=trace)
    elapsed = time.monotonic() - t0
    lines = []
    _print_basis(basis, ctx, lines)
    if trace is not None:
        for entry in trace:
            lines.append(f"trace: {entry}")
    if args.json:
        doc = {"subcommand": "complete",
               "options": {"division": opts.division.value,
                           "ranking": opts.main.describe(),
                           "completion_ranking": opts.completion.describe(),
                           "criterion": opts.use_criterion, "cap": opts.cap},
               "variables": list(ctx.variables), "functions": list(ctx.functions),
               "basis": _basis_json(basis, ctx),
               "prolongations_examined": basis.prolongations_examined,
               "timing_seconds": elapsed, "exit": 0}
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
        print(f"prolongations examined: {basis.prolongations_examined}; "
              f"{elapsed:.3f}s")
    return 0


def cmd_verify(args):
    problem = parse_problem(_read(args.file))
    system = problem.linear_system()
    kinds = ([DIVISIONS[args.division]] if args.division
             else [Division.JANET, Division.POMMARET, Division.LEX_INDUCED])
    main = problem.ranking(args.ranking, args.tie)
    results = {}
    for kind in kinds:
        opts = CompletionOptions(division=kind, main=main, cap=args.cap)
        basis = basis_from(system, opts)
        results[kind.value] = verify_involutive(basis)
    gb = groebner_oracle([f for f in system], main)
    if args.json:
        print(json.dumps({"subcommand": "verify", "involutive": results,
                          "groebner": gb, "exit": 0}, indent=2))
    else:
        for kind, ok in results.items():
            print(f"involutive ({kind}): {str(ok).lower()}")
        print(f"groebner basis: {str(gb).lower()}")
    return 0


def cmd_ivp(args):
    problem = parse_problem(_read(args.file))
    ctx = problem.context()
    opts = _options(problem, args)
    basis = minimal_involutive_basis(problem.linear_system(), opts)
    spec = analysis.ivp_spec(basis)
    dim = analysis.solution_dimension(basis)
    lines = []
    _print_basis(basis, ctx, lines)
    lines.append("")
    lines.append("initial data for a unique solution:")
    lines.extend("  " + ln for ln in spec.format(ctx).splitlines())
    lines.append(_dim_text(dim))
    if args.json:
        doc = {"subcommand": "ivp",
               "basis": _basis_json(basis, ctx),
               "initial_data": [{"function": ctx.functions[e.indet],
                                 "derivative": list(e.derivative.index),
                                 "multipliers": sorted(ctx.variables[i] for i in e.multipliers),
                                 "kind": e.kind} for e in spec.entries],
               "dimension": dim.value if dim.finite else "infinite", "exit": 0}
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return 0


def _dim_text(dim):
    if dim.finite:
        return f"solution space dimension: {dim.value}"
    return "solution space dimension: infinite (arbitrary functions remain)"


def cmd_hilbert(args):
    problem = parse_problem(_read(args.file))
    ctx = problem.context()
    opts = _options(problem, args)
    basis = minimal_involutive_basis(problem.linear_system(), opts)
    data = analysis.hilbert_data(basis)
    dim = analysis.solution_dimension(basis)
    samples = list(range(0, data.stabilization + 4))
    if args.s is not None and args.s not in samples:
        samples.append(args.s)
    lines = [f"HF({s}) = {data.hf(s)}" for s in samples]
    lines.append(f"HP(s) = {data.hp_format()}")
    lines.append(f"stabilization degree: {data.stabilization}")
    lines.append(_dim_text(dim))
    if args.json:
        doc = {"subcommand": "hilbert",
               "samples": [[s, data.hf(s)] for s in samples],
               "polynomial": [str(c) for c in data.hp],
               "stabilization": data.stabilization,
               "dimension": dim.value if dim.finite else "infinite", "exit": 0}
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return 0


def cmd_symmetry(args):
    problem_file = parse_problem(_read(args.file))
    sym = problem_file.symmetry_problem()
    det_ctx, eqs = determining_system(sym)
    opts = _options(problem_file, args)
    main = opts.main
    dim, basis, _ = symmetry_dimension(sym, opts)
    decs = dim.decompositions
    lines = [f"determining system ({len(eqs)} equations) for "
             f"{', '.join(det_ctx.functions)} over ({', '.join(det_ctx.variables)}):"]
    lines.extend(f"  {e.format(main)} = 0" for e in eqs)
    lines.append("")
    _print_basis(basis, det_ctx, lines)
    lines.append("")
    _print_decomposition(decs, det_ctx, lines)
    lines.append(_dim_text(dim))
    if args.json:
        doc = {"subcommand": "symmetry",
               "determining_system": [e.format(main) for e in eqs],
               "basis": _basis_json(basis, det_ctx),
               "generators": _decomposition_json(decs, det_ctx),
               "dimension": dim.value if dim.finite else "infinite", "exit": 0}
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return 0


def cmd_monomial(args):
    problem = parse_problem(_read(args.file))
    ctx = problem.context()
    kind = DIVISIONS[args.division] if args.division else Division.JANET
    U = [problem._index(eq) for eq in problem.equations]
    names = ctx.variables
    lines = []
    doc = {"subcommand": "monomial", "action": args.action, "division": kind.value}
    if args.action == "separations":
        seps = separations(U, kind)
        for u in sorted(seps, key=lambda u: (u.degree, u)):
            mult = ", ".join(names[i] for i in sorted(seps[u].multiplicative)) or "-"
            nonmult = ", ".join(names[i] for i in sorted(seps[u].nonmultiplicative)) or "-"
            lines.append(f"{u.format(names)}: multiplicative {mult}; "
                         f"nonmultiplicative {nonmult}")
        doc["separations"] = {u.format(names): sorted(names[i] for i in s.multiplicative)
                              for u, s in seps.items()}
    elif args.action == "complete":
        completed = complete_monomials(U, kind, cap=args.cap)
        added = sorted(set(completed) - set(U))
        lines.append("completed set: " + ", ".join(u.format(names) for u in completed))
        lines.append("added: " + (", ".join(u.format(names) for u in added) or "-"))
        doc["completed"] = [list(u) for u in completed]
        doc["added"] = [list(u) for u in added]
    elif args.action == "decompose":
        dec = complementary_decomposition(U, kind, n=ctx.n)
        for v, mult in dec.entries():
            ms = ", ".join(names[i] for i in sorted(mult)) or "-"
            lines.append(f"generator {v.format(names)}; multipliers: {ms}")
        doc["generators"] = [{"monomial": list(v),
                              "multipliers": sorted(names[i] for i in mult)}
                             for v, mult in dec.entries()]
    elif args.action == "cartan":
        ch = cartan_characters(U, n=ctx.n)
        lines.append(f"degree q = {ch.q}; characters: "
                     + ", ".join(f"sigma^{i+1}={v}" for i, v in enumerate(ch.sigma)))
        doc["q"] = ch.q
        doc["sigma"] = list(ch.sigma)
    else:  # axioms
        report = axioms_check(U, kind)
        lines.extend(report or ["all division axioms hold"])
        doc["violations"] = report
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return 0


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from exc


def build_parser():
    ap = argparse.ArgumentParser(prog="involute",
                                 description="completion of linear PDE systems "
                                             "to involutive form")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, fn in [("complete", cmd_complete), ("verify", cmd_verify),
                     ("ivp", cmd_ivp), ("hilbert", cmd_hilbert),
                     ("symmetry", cmd_symmetry), ("monomial", cmd_monomial)]:
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
        if name == "hilbert":
            p.add_argument("--s", type=int, default=None)
        if name == "monomial":
            p.add_argument("--action", default="separations",
                           choices=["separations", "complete", "decompose",
                                    "cartan", "axioms"])
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except InconsistentSystem as exc:
        print(f"inconsistent system: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
