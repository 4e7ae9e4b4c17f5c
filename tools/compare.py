"""Compare the command line of this checkout with that of another one.

Runs ``python -m involute.cli`` from both source trees (each with its own
``src`` on ``PYTHONPATH``) on the checked-in inputs, ``problems/*.pde`` and
``perfbench/inputs/*.pde`` of this checkout, over a fixed table of
invocations: every subcommand, ``monomial`` once per ``--action``, under
each ``--division`` and none, as text and as ``--json``; and
``complete --trace``.  Exit code, stdout and stderr are compared
with the timing values blanked.  Prints one JSON line: the number of runs,
how many were identical, the differing runs (argv and first differing
line), and the runs past the per-run limit on each side.

    python tools/compare.py OTHER_ROOT     # e.g. a git archive of the parent commit
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT_S = 30  # per run; every checked-in input finishes in a few seconds
WORKERS = 2

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
        runs.append(["complete", path, "--trace"])
    return runs


def run(root, argv):
    """(exit code, stdout, stderr) of one invocation from ``root``, timing
    blanked, or None past the limit."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"), PYTHONHASHSEED="0")
    try:
        done = subprocess.run([sys.executable, "-m", "involute.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        return None
    return (done.returncode, *(TIMING.sub(r"\1\3<t>\2", s) for s in (done.stdout, done.stderr)))


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


def compare(this, other, runs):
    """The report on ``runs`` from the checkouts ``this`` and ``other``."""
    with ThreadPoolExecutor(WORKERS) as pool:
        mine = list(pool.map(lambda argv: run(this, argv), runs))
        theirs = list(pool.map(lambda argv: run(other, argv), runs))
    report = {"runs": len(runs), "identical": 0, "differing": [],
              "past_limit": {"this": [], "other": []}}
    for argv, a, b in zip(runs, mine, theirs):
        for side, result in (("this", a), ("other", b)):
            if result is None:
                report["past_limit"][side].append(argv)
        if a is None or b is None:
            continue
        diff = first_difference(a, b)
        if diff is None:
            report["identical"] += 1
        else:
            report["differing"].append({"argv": argv, "first_difference": diff})
    return report


def main():
    argv = sys.argv[1:]
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "involute").is_dir():
        print("usage: python tools/compare.py OTHER_ROOT  (a checkout with src/involute)",
              file=sys.stderr)
        return 1
    print(json.dumps(compare(ROOT, Path(argv[0]).resolve(), table())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
