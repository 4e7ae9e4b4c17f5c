"""Command-line front end.

Subcommands: complete, verify, ivp, hilbert, symmetry, monomial.  ``FLAGS``
lists each option with the subcommands that read it, and a subcommand
accepts no other.  ``main`` parses the problem file once, and each ``cmd_*``
returns its report as text lines and as a JSON document; ``main`` prints
one of the two, the document under ``--json``.
Exit codes: 0 success, 1 input or usage error, 2 prolongation cap exceeded,
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
from .diffpoly import SCHEMES, TIEBREAKS
from .monomial import (CapExceeded, Division, axioms_check, cartan_characters,
                       complementary_decomposition, complete as complete_monomials,
                       separations)
from .probfile import ProblemError, parse_problem
from .symmetry import determining_system, symmetry_dimension

COMPLETING = ("complete", "ivp", "hilbert", "symmetry")  # run the completion algorithm
FLAGS = (  # (flag, subcommands that read it, argparse keywords)
    ("--division", COMPLETING + ("verify", "monomial"),
     dict(choices=sorted(d.value for d in Division))),
    ("--ranking", COMPLETING + ("verify",), dict(choices=SCHEMES)),
    ("--tie", COMPLETING + ("verify",), dict(choices=TIEBREAKS)),
    ("--completion-ranking", COMPLETING, dict(choices=SCHEMES)),
    ("--cap", COMPLETING + ("monomial",), dict(type=int, default=10000)),
    ("--criterion", COMPLETING, dict(choices=["on", "off"], default="on")),
    ("--autoreduce-input", COMPLETING, dict(action="store_true")),
    ("--json", COMPLETING + ("verify", "monomial"), dict(action="store_true")),
    ("--trace", ("complete",), dict(action="store_true")),
    ("--s", ("hilbert",), dict(type=int)),
    ("--action", ("monomial",), dict(default="separations", choices=[
        "separations", "complete", "decompose", "cartan", "axioms"])),
)


def _division(args):
    return Division(args.division) if args.division else Division.JANET


def _options(problem, args):
    return CompletionOptions(division=_division(args),
                             main=problem.ranking(args.ranking, args.tie),
                             completion=problem.completion_ranking(args.completion_ranking),
                             cap=args.cap, use_criterion=args.criterion == "on",
                             autoreduce_input=args.autoreduce_input)


def _names_text(positions, names):
    """Names of a set of variable positions in variable order, or "-" if none."""
    return ", ".join(names[i] for i in sorted(positions)) or "-"


def _names_json(positions, names):
    return sorted(names[i] for i in positions)


def _generators(entries, names, indent=""):
    """Text lines and JSON list of (cone tip, multiplier positions) pairs."""
    return ([f"{indent}generator {v.format(names)}; multipliers: {_names_text(m, names)}"
             for v, m in entries],
            [{"monomial": list(v), "multipliers": _names_json(m, names)}
             for v, m in entries])


def _basis(basis, ctx):
    main = basis.options.main
    names = ctx.variables
    lines = [f"involutive basis ({len(basis)} elements, division="
             f"{basis.options.division.value}, ranking {main.describe()}):"]
    blob = []
    for f, sep in zip(basis.elements, basis.separations):
        lines.append(f"  {f.format(main)} = 0")
        lines.append(f"      multiplicative: {_names_text(sep.multiplicative, names)}; "
                     f"nonmultiplicative: {_names_text(sep.nonmultiplicative, names)}")
        terms = [{"function": ctx.functions[d.indet],
                  "index": list(d.index),
                  "coefficient": c.format(names)}
                 for d, c in f.sorted_terms(main)]
        blob.append({"constant": f.const.format(names),
                     "terms": terms,
                     "multiplicative": _names_json(sep.multiplicative, names),
                     "nonmultiplicative": _names_json(sep.nonmultiplicative, names)})
    return lines, blob


def _dimension(dim):
    if dim.finite:
        return f"solution space dimension: {dim.value}", dim.value
    return "solution space dimension: infinite (arbitrary functions remain)", "infinite"


def cmd_complete(problem, args):
    ctx = problem.context()
    opts = _options(problem, args)
    system = problem.linear_system()
    trace = [] if args.trace else None
    t0 = time.monotonic()
    basis = minimal_involutive_basis(system, opts, trace=trace)
    elapsed = time.monotonic() - t0
    lines, blob = _basis(basis, ctx)
    lines.extend(f"trace: {entry}" for entry in trace or ())
    lines.append(f"prolongations examined: {basis.prolongations_examined}; {elapsed:.3f}s")
    return lines, {"options": {"division": opts.division.value,
                               "ranking": opts.main.describe(),
                               "completion_ranking": opts.completion.describe(),
                               "criterion": opts.use_criterion, "cap": opts.cap},
                   "variables": list(ctx.variables), "functions": list(ctx.functions),
                   "basis": blob,
                   "prolongations_examined": basis.prolongations_examined,
                   "timing_seconds": elapsed}


def cmd_verify(problem, args):
    system = problem.linear_system()
    kinds = [Division(args.division)] if args.division else list(Division)
    main = problem.ranking(args.ranking, args.tie)
    results = {kind.value: verify_involutive(
                   basis_from(system, CompletionOptions(division=kind, main=main)))
               for kind in kinds}
    gb = groebner_oracle(list(system), main)
    lines = [f"involutive ({kind}): {str(ok).lower()}" for kind, ok in results.items()]
    lines.append(f"groebner basis: {str(gb).lower()}")
    return lines, {"involutive": results, "groebner": gb}


def cmd_ivp(problem, args):
    ctx = problem.context()
    opts = _options(problem, args)
    basis = minimal_involutive_basis(problem.linear_system(), opts)
    spec = analysis.ivp_spec(basis)
    dim_text, dim_json = _dimension(analysis.solution_dimension(basis))
    lines, blob = _basis(basis, ctx)
    lines += ["", "initial data for a unique solution:"]
    lines.extend("  " + ln for ln in spec.format(ctx).splitlines())
    lines.append(dim_text)
    return lines, {"basis": blob,
                   "initial_data": [{"function": ctx.functions[e.indet],
                                     "derivative": list(e.derivative.index),
                                     "multipliers": _names_json(e.multipliers, ctx.variables),
                                     "kind": e.kind} for e in spec.entries],
                   "dimension": dim_json}


def cmd_hilbert(problem, args):
    opts = _options(problem, args)
    basis = minimal_involutive_basis(problem.linear_system(), opts)
    data = analysis.hilbert_data(basis)
    dim_text, dim_json = _dimension(analysis.solution_dimension(basis))
    samples = list(range(0, data.stabilization + 4))
    if args.s is not None and args.s not in samples:
        samples.append(args.s)
    lines = [f"HF({s}) = {data.hf(s)}" for s in samples]
    lines.append(f"HP(s) = {data.hp_format()}")
    lines.append(f"stabilization degree: {data.stabilization}")
    lines.append(dim_text)
    return lines, {"samples": [[s, data.hf(s)] for s in samples],
                   "polynomial": [str(c) for c in data.hp],
                   "stabilization": data.stabilization,
                   "dimension": dim_json}


def cmd_symmetry(problem, args):
    sym = problem.symmetry_problem()
    det_ctx, eqs = determining_system(sym)
    opts = _options(problem, args)
    main = opts.main
    dim, basis, _ = symmetry_dimension(sym, opts)
    dim_text, dim_json = _dimension(dim)
    names = det_ctx.variables
    lines = [f"determining system ({len(eqs)} equations) for "
             f"{', '.join(det_ctx.functions)} over ({', '.join(names)}):"]
    lines.extend(f"  {e.format(main)} = 0" for e in eqs)
    basis_lines, blob = _basis(basis, det_ctx)
    lines += [""] + basis_lines + [""]
    generators = {}
    for j, dec in dim.decompositions.items():  # keyed by function, in order
        lines.append(f"parametric derivatives of {det_ctx.functions[j]}:")
        lines += _generators(dec.entries(), names, "  ")[0]
        generators[det_ctx.functions[j]] = {
            "finite_part": [list(v) for v in dec.finite_part],
            "generators": _generators(dec.generators, names)[1]}
    lines.append(dim_text)
    return lines, {"determining_system": [e.format(main) for e in eqs],
                   "basis": blob, "generators": generators, "dimension": dim_json}


def cmd_monomial(problem, args):
    kind = _division(args)
    U = problem.monomials()
    names = problem.variables
    doc = {"action": args.action, "division": kind.value}
    if args.action == "separations":
        seps = separations(U, kind)
        lines = [f"{u.format(names)}: "
                 f"multiplicative {_names_text(seps[u].multiplicative, names)}; "
                 f"nonmultiplicative {_names_text(seps[u].nonmultiplicative, names)}"
                 for u in sorted(seps, key=lambda u: (u.degree, u))]
        doc["separations"] = {u.format(names): _names_json(sep.multiplicative, names)
                              for u, sep in seps.items()}
    elif args.action == "complete":
        completed = complete_monomials(U, kind, cap=args.cap)
        added = sorted(set(completed) - set(U))
        lines = ["completed set: " + ", ".join(u.format(names) for u in completed),
                 "added: " + (", ".join(u.format(names) for u in added) or "-")]
        doc["completed"] = [list(u) for u in completed]
        doc["added"] = [list(u) for u in added]
    elif args.action == "decompose":
        dec = complementary_decomposition(U, kind, n=len(names))
        lines, doc["generators"] = _generators(dec.entries(), names)
    elif args.action == "cartan":
        ch = cartan_characters(U, n=len(names))
        lines = [f"degree q = {ch.q}; characters: "
                 + ", ".join(f"sigma^{i+1}={v}" for i, v in enumerate(ch.sigma))]
        doc["q"] = ch.q
        doc["sigma"] = list(ch.sigma)
    else:  # axioms
        report = axioms_check(U, kind)
        lines = report or ["all division axioms hold"]
        doc["violations"] = report
    return lines, doc


COMMANDS = {"complete": cmd_complete, "verify": cmd_verify, "ivp": cmd_ivp,
            "hilbert": cmd_hilbert, "symmetry": cmd_symmetry, "monomial": cmd_monomial}


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
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file")
        for flag, readers, keywords in FLAGS:
            if name in readers:
                p.add_argument(flag, **keywords)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        lines, doc = args.fn(parse_problem(_read(args.file)), args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except InconsistentSystem as exc:
        print(f"inconsistent system: {exc}", file=sys.stderr)
        return 3
    except (ProblemError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"subcommand": args.subcommand, **doc, "exit": 0}, indent=2))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
