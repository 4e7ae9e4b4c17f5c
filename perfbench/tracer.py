"""Spans and counts recorded around calls into involute's modules.

Wrappers are installed from the benchmark's own files on public names; the
program itself is not changed.  A span is ``(name, start, end, parent)``
with ``parent`` the index of the enclosing span or -1.  A name is
``<module>.<function>``, and the module part is the layer the span is
charged to.  Names called more than about 10^5 times in a pass get a
count-only wrapper, whose time stays in the enclosing span.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.stats = Counter()   # facts observers read off results
        self._stack = []
        self._undo = []

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, name, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
                if observe:
                    observe(self.stats, None, exc)
                raise
            spans[index] = (name, start, perf_counter(), parent)
            stack.pop()
            if observe:
                observe(self.stats, result, None)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, targets, package="involute"):
        """Wrap every target; ``targets`` holds (name, owner, attr, spanned, observe).

        ``owner`` is a module or a class of the package.  A module-level
        function is rebound in every module of the package that imported it.
        """
        modules = [m for k, m in list(sys.modules.items())
                   if k == package or k.startswith(package + ".")]
        for name, owner, attr, spanned, observe in targets:
            original = owner.__dict__[attr]
            wrapper = (self._spanned(name, original, observe) if spanned
                       else self._counted(name, original))
            for place in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(place).items()):
                    if value is original:
                        setattr(place, key, wrapper)
                        self._undo.append((place, key, original))

    def uninstall(self):
        for place, key, original in reversed(self._undo):
            setattr(place, key, original)
        self._undo.clear()

    def take(self):
        """Spans, counts and stats recorded since the last call; then reset."""
        out = (self.spans[:], Counter(self.counts), Counter(self.stats))
        self.spans.clear()
        self.counts.clear()
        self.stats.clear()
        return out


def self_times(spans):
    """Time per layer not covered by child spans, keyed by the name's module part."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, child):
        out[name.split(".", 1)[0]] += end - start - covered
    return out


def inclusive_times(spans):
    """Wall time per span name, counting a call nested in one of the same name once."""
    by_name = defaultdict(list)
    for name, start, end, _ in spans:
        by_name[name].append((start, end))
    out = {}
    for name, intervals in by_name.items():
        total, reach = 0.0, float("-inf")
        for start, end in sorted(intervals):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        out[name] = total
    return out
