"""In-memory spans around the package's public functions.

A traced run replaces each listed function, in every widthbright module
that binds it, by a wrapper that records a span (name, start, end, parent
span, job id). Calls the package makes internally, for example
brightness_profile calling inverse_gauss, therefore show up as child spans,
which is what the self times are computed from. An untraced run installs
nothing, so it pays no tracing cost at all.
"""

import statistics
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job id]
        self.job = None
        self._open = []      # indices of the spans currently running
        self._patched = []   # (module, attribute, original)

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name):
        """fn with a span around each call; name may be a function of the call."""
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            return self.call(label, fn, *args, **kwargs)
        return traced

    def install(self, targets):
        """Patch every widthbright module that binds one of the target functions.

        targets maps (module name, function name) to a span name or a
        function of the call arguments that returns one.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "widthbright" or n.startswith("widthbright.")]
        for (mod_name, attr), name in targets.items():
            fn = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(fn, name)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def span_cost(self, n=2000):
        """Seconds one span adds to a call, measured on a function that does nothing."""
        traced = self.wrap(lambda: None, "trace.calibration")
        mark = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        cost = (time.perf_counter() - t0) / n
        del self.spans[mark:]
        return cost

    def durations(self, name, since=None, until=None):
        return [s[2] - s[1] for s in self.spans
                if s[0] == name
                and (since is None or s[1] >= since)
                and (until is None or s[1] < until)]

    def self_times(self):
        """{name: (calls, total seconds, self seconds)}; self excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0) - child[i])
        return out

    def to_json(self):
        return [{"name": n, "start": t0, "end": t1, "parent": p, "job": j}
                for n, t0, t1, p, j in self.spans]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
