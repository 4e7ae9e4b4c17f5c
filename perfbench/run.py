"""Benchmark of the involute command line; see perfbench/README.md.

    python3 perfbench/run.py --workload symmetry --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  With ``--trace 0`` the invocations of
the workload run as child processes ``python -m involute.cli ... --json``,
one at a time, over and over until ``--seconds`` have passed, and the last
line printed holds the end-to-end metrics.  With ``--trace 1`` the same
invocations run in this process through ``involute.cli.main``, alternately
bare and with wrappers installed, and the last line holds the per-layer
metrics.  Every output is checked by ``oracle.check`` outside the timed
region.  Exit code 0 on a completed run, 2 on a broken setup.
"""

import argparse
import contextlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_EVERY = 2       # one `--help` run before every 2nd invocation gives setup_s
REFERENCE = os.path.join(HERE, "reference.py")  # run right after each `--help`
REFERENCE_S = 0.15    # the reference's wall time on a quiet host, in seconds
CHILD_TIMEOUT = 60.0  # seconds before a hung child is killed and counted failed

# `complete --json` reports its own elapsed time; it is not part of the result.
_TIMING = re.compile(r'"timing_seconds": [-+.eE0-9]+')


class Checker:
    """oracle.check, run once per distinct outcome of an invocation."""

    def __init__(self):
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, inv, rc, out, err):
        key = (inv.key, rc, _TIMING.sub("", out), err)
        verdict = self.seen.get(key)
        if verdict is None:
            verdict = self.seen[key] = oracle.check(inv.expect, rc, out, err)
            if not verdict.ok:
                print(f"FAILED {inv.key}: {verdict.reason}", file=sys.stderr)
        self.attempted += 1
        self.failed += not verdict.ok
        return verdict


class Child:
    """Runs ``python -m involute.cli`` from the source tree and measures it."""

    def __init__(self, workdir):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.out_path = os.path.join(workdir, "stdout")
        self.err_path = os.path.join(workdir, "stderr")

    def cli(self, argv):
        """``run`` of ``python -m involute.cli`` with the given arguments."""
        return self.run(["-m", "involute.cli", *argv])

    def run(self, argv):
        """(exit code, stdout, stderr, wall s, cpu s, max RSS MB) of ``python`` + argv."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv],
                                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        with open(self.out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(self.err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return rc, stdout, stderr, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def round_robin(invs, seconds):
    """Invocations in order, repeated until ``seconds`` pass; at least one full pass."""
    deadline = perf_counter() + seconds
    rounds = 0
    while True:
        for inv in invs:
            if rounds and perf_counter() >= deadline:
                return
            yield rounds, inv
        rounds += 1


def sum_of_medians(samples):
    """Sum over invocations of each one's median: the time of a typical pass."""
    return sum(statistics.median(v) for v in samples.values())


def sum_of_means(samples):
    """Sum over invocations of each one's mean: the time of an average pass."""
    return sum(statistics.fmean(v) for v in samples.values())


def end_to_end(invs, seconds, workdir):
    child = Child(workdir)
    child.cli(["--help"])  # compiles the package once, as an installed copy would be
    check = Checker()
    setup, reference = [], []
    wall, cpu, size = defaultdict(list), defaultdict(list), defaultdict(list)
    rss = 0.0
    passes = 0
    for step, (rounds, inv) in enumerate(round_robin(invs, seconds)):
        # spread over the run, so that set-up sees the same machine as the work
        if step % SETUP_EVERY == 0:
            setup.append(child.cli(["--help"])[3])
            reference.append(child.run([REFERENCE])[3])
        rc, out, err, w, c, r = child.cli(inv.argv)
        verdict = check(inv, rc, out, err)
        wall[inv.key].append(w)
        cpu[inv.key].append(c)
        size[inv.key].append(verdict.basis_size)
        rss = max(rss, r)
        passes = rounds + 1
    for inv in invs:
        print(f"{inv.key}: {len(wall[inv.key])} runs, median wall "
              f"{statistics.median(wall[inv.key]):.4f} s")
    # The host's speed drifts by up to half within minutes.  The reference,
    # run beside every set-up, slows down with it, so times are reported as
    # seconds on a host that runs the reference in REFERENCE_S.
    speed = REFERENCE_S / statistics.fmean(reference)
    print(f"{passes} passes, {check.attempted} invocations, {check.failed} failed, "
          f"{len(setup)} set-up and reference runs; as measured: mean pass "
          f"{sum_of_means(wall):.4f} s wall, {sum_of_means(cpu):.4f} s cpu, median set-up "
          f"{statistics.median(setup):.4f} s, mean reference {statistics.fmean(reference):.4f} s")
    metrics = {
        "wall_s": (sum_of_means(wall) * speed, "s"),
        "cpu_s": (sum_of_means(cpu) * speed, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": ((check.attempted - check.failed) / check.attempted, "ratio"),
        "basis_size": (float(sum_of_medians(size)), "count"),
        "setup_s": (REFERENCE_S * statistics.median(s / r for s, r in zip(setup, reference)),
                    "s"),
    }
    return check, metrics


def _call_main(argv):
    """Run involute.cli.main in this process: (exit code, stdout, stderr)."""
    from involute import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def traced(invs, seconds, workdir):
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    check = Checker()
    trace = tracer.Tracer()
    targets = layers.targets()
    bare, wrapped = defaultdict(list), defaultdict(list)
    per_layer = defaultdict(lambda: defaultdict(list))
    last_spans = {}
    for rounds, inv in round_robin(invs, seconds):
        for with_trace in ((False, True) if rounds % 2 == 0 else (True, False)):
            if with_trace:
                trace.install(targets)
            try:
                start = perf_counter()
                rc, out, err = _call_main(inv.argv)
                elapsed = perf_counter() - start
            finally:
                trace.uninstall()
            check(inv, rc, out, err)
            if not with_trace:
                bare[inv.key].append(elapsed)
                continue
            wrapped[inv.key].append(elapsed)
            spans, counts, stats = trace.take()
            last_spans[inv.key] = spans
            for name, value in layers.raw(spans, counts, stats).items():
                per_layer[name][inv.key].append(value)
    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(last_spans, fh)
    total = {}
    for name, by_inv in per_layer.items():
        medians = [statistics.median(v) for v in by_inv.values()]
        total[name] = max(medians) if name in layers.MAXED else sum(medians)
    ratio = sum_of_medians(wrapped) / sum_of_medians(bare)
    units = {name: unit for name, unit, _ in layers.METRICS}
    metrics = {name: (value, units[name]) for name, value in layers.finish(total, ratio).items()}
    return check, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "involute", "cli.py")):
        print(f"error: no involute sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", args.workload)
    os.makedirs(workdir, exist_ok=True)
    invs = workloads.build(args.workload, args.seed, workdir)
    run = traced if args.trace else end_to_end
    check, metrics = run(invs, args.seconds, workdir)
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
