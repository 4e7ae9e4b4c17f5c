"""Compare the command line of this checkout with that of another one.

Runs ``python -m involute.cli`` from both source trees (each with its own
``src`` on ``PYTHONPATH``) on two sets of inputs.  First the checked-in
ones, ``problems/*.pde`` and ``perfbench/inputs/*.pde`` of this checkout,
over a fixed table of invocations: every subcommand, ``monomial`` once per
``--action``, under each ``--division`` and none, as text and as
``--json``, and ``complete --trace`` under each of them.  Then a seeded
corpus of generated systems (``write_corpus``), each through ``complete
--cap 200`` under each division at a shorter per-run limit.  Exit code, stdout and stderr are
compared with the timing values blanked.  The two runs of each invocation
are started together, so that a drift in the host's speed meets both sides
alike.  Prints one JSON line per set: the number of runs, how many were
identical, the differing runs (argv and first differing line), the runs past
the per-run limit on each side, the runs that finished on one side only,
each with its seconds on that side (a run close to the limit may finish on
one side by chance), and the seconds each side took over the runs that
finished on both.

    python tools/compare.py OTHER_ROOT     # e.g. a git archive of the parent commit
"""

import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT_S = 30  # per run; every checked-in input finishes in a few seconds
WORKERS = 2
# the generated corpus: its seed, its number of systems and the limit per run
CORPUS_SEED, CORPUS_SIZE, CORPUS_LIMIT_S = 2026, 15, 8
LINEAR = [abc for abc in product(range(-2, 3), repeat=3) if any(abc)]

# each subcommand, monomial once per action: (subcommand, flags)
VARIANTS = [(sub, ()) for sub in ("complete", "verify", "ivp", "hilbert", "symmetry")] + [
    ("monomial", ("--action", action))
    for action in ("separations", "complete", "decompose", "cartan", "axioms")]
DIVISIONS = ((), ("--division", "janet"), ("--division", "pommaret"),
             ("--division", "lexinduced"))
# the elapsed time of complete, in its text line and in its JSON document
TIMING = re.compile(r"(; )\d+\.\d+(s)$|(\"timing_seconds\": )[-+.\deE]+", re.M)


def table():
    """Every invocation compared, as argv lists relative to the checkout."""
    inputs = sorted(ROOT.glob("problems/*.pde")) + sorted(ROOT.glob("perfbench/inputs/*.pde"))
    runs = []
    for path in (str(p.relative_to(ROOT)) for p in inputs):
        for sub, flags in VARIANTS:
            for division in DIVISIONS:
                runs += [[sub, path, *flags, *division], [sub, path, *flags, *division, "--json"]]
        runs += [["complete", path, "--trace", *division] for division in DIVISIONS]
    return runs


def write_corpus(directory):
    """Write the corpus into ``directory`` and return its file names.  Each
    system has 2-3 equations in x1, x2 of 2-3 terms: a distinct derivative of
    order at most 2 in each variable times a + b*x1 + c*x2 with a, b, c in
    [-2, 2], the sum equal to 0, 1, x1 or x2."""
    rng = random.Random(CORPUS_SEED)
    derivatives = list(product(range(3), repeat=2))
    names = []
    for k in range(CORPUS_SIZE):
        lines = ["vars: x1 x2", "funcs: y"]
        for _ in range(rng.randint(2, 3)):
            terms = ["({} + {}*x1 + {}*x2)".format(*rng.choice(LINEAR)) + f"*D[y,{{{i},{j}}}]"
                     for i, j in rng.sample(derivatives, rng.randint(2, 3))]
            lines.append(f"eq: {' + '.join(terms)} = {rng.choice(['0', '1', 'x1', 'x2'])}")
        names.append(f"corpus{k:02d}.pde")
        (Path(directory) / names[-1]).write_text("\n".join(lines) + "\n")
    return names


def corpus_table(names):
    """``complete --cap 200`` of each named file under each division."""
    return [["complete", name, "--cap", "200", *division]
            for name in names for division in DIVISIONS[1:]]


def run(root, argv, cwd=ROOT, limit=LIMIT_S):
    """((exit code, stdout, stderr) with timing blanked, or None past ``limit``
    seconds; the seconds taken) of one invocation from ``root`` in ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"), PYTHONHASHSEED="0")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "involute.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return None, limit
    seconds = time.perf_counter() - start
    blanked = (TIMING.sub(r"\1\3<t>\2", s) for s in (done.stdout, done.stderr))
    return (done.returncode, *blanked), seconds


def first_difference(a, b):
    """The first place where two (exit code, stdout, stderr) results differ."""
    if a[0] != b[0]:
        return f"exit {a[0]} != {b[0]}"
    for stream, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
        xs, ys = x.splitlines(), y.splitlines()
        for i in range(max(len(xs), len(ys))):
            left = xs[i] if i < len(xs) else "<end>"
            right = ys[i] if i < len(ys) else "<end>"
            if left != right:
                return f"{stream} line {i + 1}: {left!r} != {right!r}"
    return None


def compare(this, other, runs, cwd=ROOT, limit=LIMIT_S):
    """The report on ``runs`` in ``cwd`` from the checkouts ``this`` and
    ``other``; the two runs of each argv are submitted one after the other."""
    with ThreadPoolExecutor(WORKERS) as pool:
        pairs = [[pool.submit(run, root, argv, cwd, limit) for root in (this, other)]
                 for argv in runs]
        mine = [a.result() for a, _ in pairs]
        theirs = [b.result() for _, b in pairs]
    return report(runs, mine, theirs)


def report(runs, mine, theirs):
    """The report on ``runs`` from the (result, seconds) pairs of each side;
    seconds are rounded to 0.01 only in the report."""
    out = {"runs": len(runs), "identical": 0, "differing": [],
           "past_limit": {"this": [], "other": []},
           "finished_one_side": {"this": [], "other": []},
           "finished_both_seconds": {"this": 0, "other": 0}}
    for argv, (a, a_seconds), (b, b_seconds) in zip(runs, mine, theirs):
        for side, result, seconds, rival in (("this", a, a_seconds, b),
                                             ("other", b, b_seconds, a)):
            if result is None:
                out["past_limit"][side].append(argv)
            elif rival is None:
                out["finished_one_side"][side].append({"argv": argv,
                                                       "seconds": round(seconds, 2)})
        if a is None or b is None:
            continue
        out["finished_both_seconds"]["this"] += a_seconds
        out["finished_both_seconds"]["other"] += b_seconds
        diff = first_difference(a, b)
        if diff is None:
            out["identical"] += 1
        else:
            out["differing"].append({"argv": argv, "first_difference": diff})
    for side, seconds in out["finished_both_seconds"].items():
        out["finished_both_seconds"][side] = round(seconds, 2)
    return out


def main():
    argv = sys.argv[1:]
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "involute").is_dir():
        print("usage: python tools/compare.py OTHER_ROOT  (a checkout with src/involute)",
              file=sys.stderr)
        return 1
    other = Path(argv[0]).resolve()
    print(json.dumps({"inputs": "checked-in", **compare(ROOT, other, table())}), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = compare(ROOT, other, corpus_table(write_corpus(tmp)), tmp, CORPUS_LIMIT_S)
    print(json.dumps({"inputs": "corpus", **corpus}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
