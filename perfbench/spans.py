"""Spans recorded around calls into msbiot's public functions.

A Tracer keeps every span in memory until the run ends: its name, start
and end (``time.perf_counter`` seconds), the index of the span that was
open when it started, and any counts read off the call's result.  A
module function is traced by rebinding the function object wherever a
loaded msbiot module holds it, so calls through ``module.func`` and
through names taken with ``from module import func`` are both seen.
``restore()`` puts the original objects back.  Nothing under ``src/``
is edited.
"""

import contextlib
import functools
import sys
import time


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "layer", "counts")

    def __init__(self, index, name, start, parent, layer):
        self.index = index
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.layer = layer      # True for a call into a module function
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = set()    # traced names the program does not define
        self._stack = []
        self._patches = []      # (namespace, key, original)

    @contextlib.contextmanager
    def span(self, name, layer=False):
        s = Span(len(self.spans), name, time.perf_counter(),
                 self._stack[-1] if self._stack else None, layer)
        self.spans.append(s)
        self._stack.append(s.index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, on_result=None):
        """Record a span named '<module>.<attr>' around every call.

        on_result(span, result) may store counts on the span.  A missing
        attribute is remembered in ``missing`` instead of raising, and a
        count that cannot be read off the result is left out: either way
        the metric reads as absent while the program runs unchanged.
        """
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.add(name)
            return
        traced = self.wrap_callable(name, orig, on_result)
        package = module.__name__.split(".", 1)[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".", 1)[0] != package:
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is orig:
                    self._patches.append((ns, key, orig))
                    ns[key] = traced

    def wrap_callable(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer=True) as s:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    try:
                        on_result(s, out)
                    except (AttributeError, TypeError, LookupError):
                        pass
            return out
        return traced

    def restore(self):
        for ns, key, orig in reversed(self._patches):
            ns[key] = orig
        self._patches.clear()

    # ---- analysis --------------------------------------------------------

    def under(self, root):
        """Spans that descend from ``root`` (itself excluded)."""
        inside = {root.index}
        out = []
        for k in range(root.index + 1, len(self.spans)):
            if self.spans[k].parent in inside:
                inside.add(k)
                out.append(self.spans[k])
        return out

    def ancestors(self, span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def self_times(self, spans):
        """{name: (calls, inclusive s, self s)}; self time is a span's
        duration minus the part its child spans cover (children of one
        span never overlap: the program is single-threaded)."""
        child = {}
        for s in spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        out = {}
        for s in spans:
            own = s.duration - child.get(s.index, 0.0)
            calls, incl, excl = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (calls + 1, incl + s.duration, excl + own)
        return out

    def coverage(self, root):
        """Share of ``root``'s wall time spent inside module-function
        spans (nested ones counted once)."""
        covered = 0.0
        for s in self.under(root):
            if s.layer and not any(a.layer for a in self.ancestors(s)):
                covered += s.duration
        return covered / root.duration
