"""Lines of ``src/involute`` that the tier-1 tests never run.

Runs tier-1 (every test under the root of the checkout) in this process
with a ``sys.settrace`` tracer and prints one JSON line: the executable lines
of each module of ``src/involute`` that no test reached, and the totals.  An
executable line is one that some code object of the module maps an
instruction to.  Only in-process lines are seen: a test that starts
``python -m involute.cli`` as a child process reaches nothing here.  Needs no
coverage package.

It is a gate: ``tools/unreached_allowed.json`` lists the lines that may stay
unreached, each as its module, its source text (stripped) and the reason.
The JSON line also names the unreached lines the list lacks and the listed
lines that tier-1 now reaches, and the tool exits 1 if either is not empty,
so the list cannot go stale.

    python tools/unreached.py            # from the root of a checkout

The tracer slows the tests two- to threefold.
"""

import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "involute"
ALLOWED = ROOT / "tools" / "unreached_allowed.json"


def executable_lines(path):
    """Line numbers that the code objects compiled from ``path`` map to."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module entry
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def gate(unreached, sources, allowed):
    """({"not_allowed": the unreached lines that ``allowed`` does not list,
    by module, "allowed_but_reached": the listed lines that are reached}, the
    exit code: 1 if either is not empty), for ``allowed`` a list of
    {"module", "line", "reason"} and ``sources`` each module's source lines."""
    listed = {(entry["module"], entry["line"]) for entry in allowed}
    seen, missing = set(), {}
    for module, lines in unreached.items():
        for number in lines:
            key = (module, sources[module][number - 1].strip())
            if key in listed:
                seen.add(key)
            else:
                missing.setdefault(module, []).append(number)
    stale = [{"module": m, "line": text} for m, text in sorted(listed - seen)]
    return {"not_allowed": missing, "allowed_but_reached": stale}, int(bool(missing or stale))


def main():
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    reached = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of the package get a local tracer; the rest run untraced
        return local if frame.f_code.co_filename in reached else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    import pytest  # involute is imported by the tests, under the tracer

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-p", "no:cacheprovider", "--rootdir", str(ROOT), "-q", str(ROOT)])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = {}
    total = 0
    for name, path in files.items():
        lines = executable_lines(path)
        total += len(lines)
        missing = sorted(lines - reached[name])
        if missing:
            unreached[path.stem] = missing
    count = sum(map(len, unreached.values()))
    out = {"pytest_exit": int(code), "executable": total, "reached": total - count,
           "unreached_count": count, "unreached": unreached}
    sources = {p.stem: p.read_text(encoding="utf-8").splitlines() for p in files.values()}
    verdict, exit_code = gate(unreached, sources, json.loads(ALLOWED.read_text(encoding="utf-8")))
    print(json.dumps({**out, **verdict}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
