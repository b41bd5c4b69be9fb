"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its name, layer, start and end
times, the span that was open when it began (its parent) and the operation
it belongs to. Spans are recorded by rebinding, for the duration of the
traced run only, the names that gomptest modules look up at call time; no
library file is changed. A name that no longer exists is recorded as absent
and its layer's metrics are reported as absent instead of failing the run.
"""

import functools
import json
import time


class Tracer:
    """Holds the spans of one traced run and the names it has rebound."""

    def __init__(self):
        self.spans = []
        self.op = None  # operation id stamped on every span begun
        self.absent = []  # "module.name" entries that could not be wrapped
        self._stack = []
        self._patches = []

    def begin(self, name, layer, detached=False):
        """Open a span; detached spans are not parents and do not nest."""
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "detached": detached,
        }
        self.spans.append(span)
        if not detached:
            self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        if not span["detached"]:
            top = self._stack.pop()
            if top is not span:
                raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, module, attr, layer, annotate=None):
        """Rebind module.attr to a timed wrapper, or record the name as absent.

        annotate(args, result) may return extra attributes for the span,
        such as row counts, read from the call's arguments and result.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                span.update(annotate(args, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def count_instances(self, module, attr, layer):
        """Rebind a class so that each instance records one detached span.

        The span lasts from construction to shutdown(), which is how process
        pools are counted. A missing class is recorded as absent.
        """
        original = getattr(module, attr, None)
        if not isinstance(original, type):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"

        class Counted(original):
            def __init__(self, *args, **kwargs):
                self._bench_span = tracer.begin(name, layer, detached=True)
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    if self._bench_span["end"] is None:
                        tracer.end(self._bench_span)

        Counted.__name__ = Counted.__qualname__ = original.__name__
        setattr(module, attr, Counted)
        self._patches.append((module, attr, original))

    def restore(self):
        """Put every rebound name back."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                row = dict(span)
                row["start"] -= t0
                row["end"] = None if row["end"] is None else row["end"] - t0
                fh.write(json.dumps(row) + "\n")


def duration(span):
    return span["end"] - span["start"]


def layer_self_seconds(spans):
    """Sum of self time per layer: each span's duration minus its children's.

    Children run inside their parent on one thread, so the part of the
    parent's interval they cover is the sum of their durations. Detached
    spans are left out of both sides.
    """
    nested = [s for s in spans if not s["detached"] and s["end"] is not None]
    covered = {}
    for s in nested:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + duration(s)
    out = {}
    for s in nested:
        out[s["layer"]] = out.get(s["layer"], 0.0) + duration(s) - covered.get(s["id"], 0.0)
    return out
