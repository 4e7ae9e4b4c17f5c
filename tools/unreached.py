"""Lines of ``src/involute`` that the tier-1 tests never run.

Runs tier-1 (every test under the root of the checkout) in this process
with a ``sys.settrace`` tracer and prints one JSON line: the executable lines
of each module of ``src/involute`` that no test reached, and the totals.  An
executable line is one that some code object of the module maps an
instruction to.  Only in-process lines are seen: a test that starts
``python -m involute.cli`` as a child process reaches nothing here.  Needs no
coverage package.

    python tools/unreached.py            # from the root of a checkout

The tracer slows the tests two- to threefold.
"""

import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "involute"


def executable_lines(path):
    """Line numbers that the code objects compiled from ``path`` map to."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module entry
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


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
    print(json.dumps({"pytest_exit": int(code), "executable": total,
                      "reached": total - count, "unreached_count": count,
                      "unreached": unreached}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
