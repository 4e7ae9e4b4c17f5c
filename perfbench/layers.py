"""Per-layer metrics of the traced run: what is wrapped, and what it yields.

Layers are involute's modules.  Each wrapped name is spanned unless it is
called more than about 10^5 times in a pass (``Ranking.key``), in which case
it is only counted.  Observers read facts off results: basis sizes,
prolongations examined, coefficient sizes, normal forms that were not zero,
prolongations the chain criterion skipped, and caps exceeded.
"""

from tracer import inclusive_times, self_times

# Quantities combined across invocations by max instead of by sum.
MAXED = ("scalars.coeff_bits_max",)

# (metric, unit, better) in the order they are reported.
METRICS = (
    ("scalars.normalize_s", "s", "lower"),
    ("scalars.rational_calls", "count", "lower"),
    ("scalars.poly_gcd_s", "s", "lower"),
    ("scalars.poly_gcd_calls", "count", "lower"),
    ("scalars.coeff_bits_max", "bits", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("monomial.separations_s", "s", "lower"),
    ("monomial.separations_calls", "count", "lower"),
    ("monomial.complete_s", "s", "lower"),
    ("monomial.complete_calls", "count", "lower"),
    ("monomial.complete_elements", "count", "lower"),
    ("monomial.self_s", "s", "lower"),
    ("completion.complete_s", "s", "lower"),
    ("completion.self_s", "s", "lower"),
    ("completion.prolongations", "count", "lower"),
    ("completion.nf_calls", "count", "lower"),
    ("completion.nf_s", "s", "lower"),
    ("completion.nf_useful_ratio", "ratio", "higher"),
    ("completion.criterion_calls", "count", "lower"),
    ("completion.criterion_skip_ratio", "ratio", "higher"),
    ("completion.cap_exceeded", "count", "lower"),
    ("diffpoly.differentiate_calls", "count", "lower"),
    ("diffpoly.prolong_calls", "count", "lower"),
    ("diffpoly.ranking_key_calls", "count", "lower"),
    ("diffpoly.self_s", "s", "lower"),
    ("symmetry.determining_system_s", "s", "lower"),
    ("symmetry.determining_system_calls", "count", "lower"),
    ("symmetry.equations", "count", "lower"),
    ("symmetry.self_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.calls", "count", "lower"),
    ("probfile.parse_s", "s", "lower"),
    ("probfile.self_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

ANALYSIS_FUNCTIONS = ("ivp_spec", "hilbert_data", "solution_dimension", "complementary_set")


def _coeff_bits(basis):
    bits = 0
    for f in basis.elements:
        for c in list(f.terms.values()) + [f.const]:
            for poly in (c.num, c.den):
                for q in poly.terms.values():
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def _observe_completion(cap_exceeded):
    def observe(stats, basis, exc):
        if isinstance(exc, cap_exceeded):
            stats["cap_exceeded"] += 1
            stats["prolongations"] += exc.partial.prolongations_examined
        elif basis is not None:
            stats["prolongations"] += basis.prolongations_examined
            stats["coeff_bits_max"] = max(stats["coeff_bits_max"], _coeff_bits(basis))
    return observe


def _observe_monomial_complete(cap_exceeded):
    def observe(stats, result, exc):
        if isinstance(exc, cap_exceeded):
            stats["cap_exceeded"] += 1
        elif result is not None:
            stats["complete_elements"] += len(result)
    return observe


def _observe_nf(stats, result, exc):
    if result is not None and not result.is_zero():
        stats["nf_useful"] += 1


def _observe_criterion(stats, result, exc):
    if result:
        stats["criterion_skips"] += 1


def _observe_determining(stats, result, exc):
    if result is not None:
        stats["equations"] += len(result[1])


def targets():
    """(span name, owner, attribute, spanned, observer) for Tracer.install."""
    from involute import analysis, cli, completion, diffpoly, monomial, probfile, scalars, symmetry
    cap = monomial.CapExceeded
    rf, mp, ldp = scalars.RationalFunction, scalars.MultivarPolynomial, diffpoly.LinearDiffPoly
    out = [
        ("scalars.RationalFunction.__init__", rf, "__init__", True, None),
        ("scalars.poly_gcd", scalars, "poly_gcd", True, None),
        ("monomial.separations", monomial, "separations", True, None),
        ("monomial.autoreduce", monomial, "autoreduce", True, None),
        ("monomial.complete", monomial, "complete", True, _observe_monomial_complete(cap)),
        ("monomial.complementary_decomposition", monomial, "complementary_decomposition",
         True, None),
        ("completion.minimal_involutive_basis", completion, "minimal_involutive_basis", True,
         _observe_completion(cap)),
        ("completion.involutive_normal_form", completion, "involutive_normal_form", True,
         _observe_nf),
        ("completion.chain_criterion", completion, "chain_criterion", True, _observe_criterion),
        ("diffpoly.Ranking.key", diffpoly.Ranking, "key", False, None),
        ("symmetry.determining_system", symmetry, "determining_system", True,
         _observe_determining),
        ("symmetry.symmetry_dimension", symmetry, "symmetry_dimension", True, None),
        ("probfile.parse_problem", probfile, "parse_problem", True, None),
        ("probfile.ProblemFile.linear_system", probfile.ProblemFile, "linear_system", True, None),
        ("probfile.ProblemFile.symmetry_problem", probfile.ProblemFile, "symmetry_problem",
         True, None),
        ("cli.main", cli, "main", True, None),
        ("cli.build_parser", cli, "build_parser", True, None),
    ]
    for attr in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inverse",
                 "partial", "format"):
        out.append((f"scalars.RationalFunction.{attr}", rf, attr, True, None))
    out.append(("scalars.MultivarPolynomial.format", mp, "format", True, None))
    for attr in ("differentiate", "prolong", "__add__", "__sub__", "scale", "normalize",
                 "sorted_terms", "format"):
        out.append((f"diffpoly.LinearDiffPoly.{attr}", ldp, attr, True, None))
    for name in ANALYSIS_FUNCTIONS:
        out.append((f"analysis.{name}", analysis, name, True, None))
    return out


def raw(spans, counts, stats):
    """Additive per-layer quantities of one traced call."""
    inc = inclusive_times(spans)
    own = self_times(spans)
    return {
        "scalars.normalize_s": inc.get("scalars.RationalFunction.__init__", 0.0),
        "scalars.rational_calls": counts["scalars.RationalFunction.__init__"],
        "scalars.poly_gcd_s": inc.get("scalars.poly_gcd", 0.0),
        "scalars.poly_gcd_calls": counts["scalars.poly_gcd"],
        "scalars.coeff_bits_max": stats["coeff_bits_max"],
        "monomial.separations_s": inc.get("monomial.separations", 0.0),
        "monomial.separations_calls": counts["monomial.separations"],
        "monomial.complete_s": inc.get("monomial.complete", 0.0),
        "monomial.complete_calls": counts["monomial.complete"],
        "monomial.complete_elements": stats["complete_elements"],
        "completion.complete_s": inc.get("completion.minimal_involutive_basis", 0.0),
        "completion.prolongations": stats["prolongations"],
        "completion.nf_calls": counts["completion.involutive_normal_form"],
        "completion.nf_s": inc.get("completion.involutive_normal_form", 0.0),
        "completion.nf_useful": stats["nf_useful"],
        "completion.criterion_calls": counts["completion.chain_criterion"],
        "completion.criterion_skips": stats["criterion_skips"],
        "completion.cap_exceeded": stats["cap_exceeded"],
        "diffpoly.differentiate_calls": counts["diffpoly.LinearDiffPoly.differentiate"],
        "diffpoly.prolong_calls": counts["diffpoly.LinearDiffPoly.prolong"],
        "diffpoly.ranking_key_calls": counts["diffpoly.Ranking.key"],
        "symmetry.determining_system_s": inc.get("symmetry.determining_system", 0.0),
        "symmetry.determining_system_calls": counts["symmetry.determining_system"],
        "symmetry.equations": stats["equations"],
        "analysis.calls": sum(counts[f"analysis.{n}"] for n in ANALYSIS_FUNCTIONS),
        "probfile.parse_s": inc.get("probfile.parse_problem", 0.0),
        "cli.parse_s": inc.get("cli.build_parser", 0.0),
        **{f"{layer}.self_s": own.get(layer, 0.0)
           for layer in ("scalars", "monomial", "completion", "diffpoly", "symmetry",
                         "analysis", "probfile", "cli")},
    }


def finish(total, overhead_ratio):
    """Reported metrics from per-pass totals of ``raw`` quantities."""
    def ratio(num, den):
        return total[num] / total[den] if total[den] else 0.0

    out = dict(total)
    out["completion.nf_useful_ratio"] = ratio("completion.nf_useful", "completion.nf_calls")
    out["completion.criterion_skip_ratio"] = ratio("completion.criterion_skips",
                                                   "completion.criterion_calls")
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _ in METRICS}
