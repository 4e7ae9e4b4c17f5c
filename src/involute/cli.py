"""Command-line front end.

Subcommands: complete, verify, ivp, hilbert, symmetry, monomial.  ``flags()``
lists each option with the subcommands that read it, and a subcommand
accepts no other; none restates a key of the problem file, which states the
ranking and its tiebreak.  ``main`` parses the problem file once, and each
``cmd_*`` returns its report as text lines and as a JSON document; ``main``
prints one of the two, the document under ``--json``.  Each layer is imported
where a command uses it, so loading this module imports only ``argparse``,
``gc``, ``os``, ``sys`` and ``time``: ``involute --help``, a bare ``involute``
and a usage error compile no engine module, and a command compiles only what
it runs (``analysis`` for ``ivp``, ``hilbert`` and ``symmetry``, ``symmetry``
for ``symmetry`` alone).  Exit codes: 0 success, 1 input or usage error,
2 prolongation cap exceeded or, under Pommaret division, no finite basis (a
leading ideal that is not quasi-stable, so any cap would be exceeded),
3 inconsistent system (an equation or a prolongation reduces to 0 = c),
4 the report could not be written (a full disk, say); a reader that closes
the pipe early, as ``head`` does, is no fault and changes no code, nor does
a stderr that cannot take the one line (``_said``) that other codes write.
"""

import argparse
import gc
import os
import sys
import time

COMPLETING = ("complete", "ivp", "hilbert", "symmetry")  # run the completion algorithm


def flags():
    """(flag, subcommands that read it, argparse keywords) of every option."""
    from .diffpoly import SCHEMES
    from .monomial import DEFAULT_CAP, Division
    return (
        ("--division", COMPLETING + ("verify", "monomial"),
         dict(choices=sorted(d.value for d in Division))),
        ("--completion-ranking", COMPLETING, dict(choices=SCHEMES)),
        ("--cap", COMPLETING + ("monomial",), dict(type=int, default=DEFAULT_CAP)),
        ("--criterion", COMPLETING, dict(choices=["on", "off"], default="on")),
        ("--json", COMPLETING + ("verify", "monomial"), dict(action="store_true")),
        ("--trace", ("complete",), dict(action="store_true")),
        ("--s", ("hilbert",), dict(type=int)),
        ("--action", ("monomial",), dict(default="separations", choices=[
            "separations", "complete", "decompose", "cartan", "axioms"])),
    )


def _division(args):
    from .monomial import Division
    return Division(args.division) if args.division else Division.JANET


def _options(problem, args):
    # the file's ranking; the flag's completion ranking, with the file's tiebreak
    from .completion import CompletionOptions
    from .diffpoly import Ranking
    scheme = args.completion_ranking
    return CompletionOptions(division=_division(args), main=problem.ranking(),
                             completion=scheme and Ranking(scheme, problem.tiebreak),
                             cap=args.cap, use_criterion=args.criterion == "on")


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


def _dimension(finite, value):
    if finite:
        return f"solution space dimension: {value}", value
    return "solution space dimension: infinite (arbitrary functions remain)", "infinite"


def cmd_complete(problem, args):
    import json
    from .completion import minimal_involutive_basis
    ctx = problem.context()
    opts = _options(problem, args)
    system = problem.linear_system()
    trace = [] if args.trace else None
    t0 = time.monotonic()
    basis = minimal_involutive_basis(system, opts, trace=trace)
    elapsed = time.monotonic() - t0
    lines, blob = _basis(basis, ctx)
    trace = [dict(entry, leader=entry["leader"].format(ctx)) for entry in trace or ()]
    for entry in trace:
        if "variable" in entry:  # a prolongation names its variable
            entry["variable"] = ctx.variables[entry["variable"]]
        lines.append(f"trace: {json.dumps(entry)}")
    lines.append(f"prolongations examined: {basis.prolongations_examined}; {elapsed:.3f}s")
    return lines, {"options": {"division": opts.division.value,
                               "ranking": opts.main.describe(),
                               "completion_ranking": opts.completion.describe(),
                               "criterion": opts.use_criterion, "cap": opts.cap},
                   "variables": list(ctx.variables), "functions": list(ctx.functions),
                   "basis": blob,
                   "prolongations_examined": basis.prolongations_examined,
                   "timing_seconds": elapsed, **({"trace": trace} if args.trace else {})}


def cmd_verify(problem, args):
    from .completion import CompletionOptions, basis_from, groebner_oracle, verify_involutive
    from .monomial import Division
    system = problem.linear_system()
    kinds = [Division(args.division)] if args.division else list(Division)
    main = problem.ranking()
    results = {kind.value: verify_involutive(
                   basis_from(system, CompletionOptions(division=kind, main=main)))
               for kind in kinds}
    gb = groebner_oracle(list(system), main)
    lines = [f"involutive ({kind}): {str(ok).lower()}" for kind, ok in results.items()]
    lines.append(f"groebner basis: {str(gb).lower()}")
    return lines, {"involutive": results, "groebner": gb}


def cmd_ivp(problem, args):
    from . import analysis
    from .completion import minimal_involutive_basis
    ctx = problem.context()
    opts = _options(problem, args)
    analysis.require_orderly(opts.main)
    basis = minimal_involutive_basis(problem.linear_system(), opts)
    spec = analysis.ivp_spec(basis)
    dim_text, dim_json = _dimension(spec.dimension.finite, spec.dimension.value)
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
    from . import analysis
    from .completion import minimal_involutive_basis
    opts = _options(problem, args)
    analysis.require_orderly(opts.main)
    basis = minimal_involutive_basis(problem.linear_system(), opts)
    data = analysis.hilbert_data(basis)
    # the dimension is finite iff the Hilbert polynomial is a constant, its value
    dim_text, dim_json = _dimension(len(data.hp) == 1, int(data.hp[0]))
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
    from .analysis import require_orderly
    from .symmetry import determining_system, symmetry_dimension
    sym = problem.symmetry_problem()
    opts = _options(problem, args)
    require_orderly(opts.main)
    det_ctx, eqs = determining_system(sym)
    dim, basis, _ = symmetry_dimension(sym, opts)
    dim_text, dim_json = _dimension(dim.finite, dim.value)
    names = det_ctx.variables
    formatted = [e.format(opts.main) for e in eqs]
    lines = [f"determining system ({len(eqs)} equations) for "
             f"{', '.join(det_ctx.functions)} over ({', '.join(names)}):"]
    lines.extend(f"  {text} = 0" for text in formatted)
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
    return lines, {"determining_system": formatted,
                   "basis": blob, "generators": generators, "dimension": dim_json}


def cmd_monomial(problem, args):
    from .monomial import (Division, axioms_check, cartan_characters,
                           complementary_decomposition, complete as complete_monomials,
                           separations)
    kind = Division(args.division or "pommaret") if args.action == "cartan" else _division(args)
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
        if kind is not Division.POMMARET:
            raise ValueError("Cartan characters count the cones of a Pommaret basis; "
                             f"--division {kind.value} does not apply")
        ch = cartan_characters(complete_monomials(U, kind, cap=args.cap), n=len(names))
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
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not text
            return fh.read()
    except OSError as exc:
        from .probfile import ProblemError
        raise ProblemError(f"cannot read {path}: {exc}") from exc


def build_parser(argv):
    """The parser of every subcommand name; only the subcommand that ``argv``
    names, its first argument that is not an option, gets its arguments."""
    chosen = next((a for a in argv if not a.startswith("-")), None)
    ap = argparse.ArgumentParser(prog="involute",
                                 description="completion of linear PDE systems "
                                             "to involutive form")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if name != chosen:
            continue
        p.add_argument("file", help="problem file")
        for flag, readers, keywords in flags():
            if name in readers:
                p.add_argument(flag, **keywords)
    return ap


def _written(text, code):
    """``code``, once ``text`` and all that stdout holds are written; 4, with
    one line on stderr, if that fails, but a closed pipe leaves ``code`` as it is."""
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:  # the reader took what it wanted
        pass
    except OSError as exc:
        return _said(f"error: cannot write the report: {exc}", 4)
    return code


def _said(line, code):
    """``code``, once ``line`` is written to stderr or could not be."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        pass
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return _written("", 1 if exc.code else 0)
    from .completion import InconsistentSystem
    from .monomial import CapExceeded
    from .probfile import ProblemError, parse_problem
    try:
        lines, doc = args.fn(parse_problem(_read(args.file)), args)
    except CapExceeded as exc:
        return _said(f"cap exceeded: {exc}", 2)
    except InconsistentSystem as exc:
        return _said(f"inconsistent system: {exc}", 3)
    except (ProblemError, ValueError, ZeroDivisionError) as exc:
        return _said(f"error: {exc}", 1)
    if args.json:
        import json
        text = json.dumps({"subcommand": args.subcommand, **doc, "exit": 0}, indent=2)
    else:
        text = "\n".join(lines)
    return _written(text + "\n", 0)


def run():
    """Process entry of ``involute`` and ``python -m involute.cli``.  What
    ``main`` left alive is moved out of the collector's reach first, so the
    full collections at interpreter exit do not walk it, and fd 1 is pointed
    at ``os.devnull``, so the exit flush of what a failed write left in the
    buffer of stdout cannot fail again."""
    code = main()
    gc.freeze()
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(code)


if __name__ == "__main__":
    run()
