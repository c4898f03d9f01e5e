"""In-memory span recorder that wraps graphda's public callables from outside.

Each wrapped callable is replaced at the name its caller looks up (for
example ``graphda.training.build_graph``, which ``train`` calls, and
``graphda.cli.build_graph``, which ``graphda export`` calls), so nothing
under ``src/`` changes. Every call records a span: name, start, end, the
index of the enclosing span, and the context it ran in. ``restore``
puts every original back.

A context is the nearest enclosing span whose name the tracer was given
as a context; it lets one layer be measured separately at each call
site, such as ``build_graph`` on a 128-row training batch versus on the
pooled export graph.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict

class Tracer:
    def __init__(self, contexts=()):
        self.contexts = frozenset(contexts)  # span names that open a context
        # [name, start, end, parent index or -1, context, context it opens or None,
        #  index past its last descendant]
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []  # open span indices
        self._ctx: list = ["root"]
        self._patches: list = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str, context: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        opens = (context or name) if name in self.contexts else None
        self.spans.append([name, time.perf_counter(), None, parent, self._ctx[-1], opens, None])
        self._stack.append(idx)
        if opens is not None:
            self._ctx.append(opens)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[6] = len(self.spans)
        self._stack.pop()
        if span[5] is not None:
            self._ctx.pop()

    @property
    def context(self) -> str:
        return self._ctx[-1]

    def call(self, name, fn, *args, context=None, **kwargs):
        idx = self.open(name, context)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- patching --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str | None, *, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        ``before(args)`` runs before the span opens and ``after(result,
        args)`` after it closes, so neither is charged to the wrapped layer.
        With ``name=None`` only the hooks run: a counter without a span.
        """
        raw = inspect.getattr_static(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, classmethod(traced) if is_cm else traced)
        self._patches.append((owner, attr, raw))

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[f"{self.context}:{key}"] += amount

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, covered)]

    def durations(self, name: str, context: str | None = None, *, self_only=False) -> list:
        """Seconds per call of span ``name``, optionally limited to a context."""
        selfs = self.self_times() if self_only else None
        out = []
        for i, (n, t0, t1, _, ctx, *_) in enumerate(self.spans):
            if n == name and (context is None or ctx == context):
                out.append(selfs[i] if self_only else t1 - t0)
        return out

    def roots(self, context: str) -> list:
        """Indices of the spans that opened ``context``."""
        return [i for i, span in enumerate(self.spans) if span[5] == context]

    def self_by_layer(self, roots: list) -> dict:
        """Total self seconds per layer (name prefix before the dot) under ``roots``.

        Covers each root span and every span nested in it, so the self
        time of a whole ``train`` call is split across the layers it ran.
        """
        selfs = self.self_times()
        out = defaultdict(float)
        for root in roots:
            for i in range(root, self.spans[root][6]):
                out[self.spans[i][0].split(".", 1)[0]] += selfs[i]
        return dict(out)

    def rows(self) -> list:
        """Every span as [name, start_s, end_s, parent, context], times from the first start."""
        base = self.spans[0][1] if self.spans else 0.0
        return [[n, round(t0 - base, 9), round(t1 - base, 9), p, c]
                for n, t0, t1, p, c, *_ in self.spans]


def median_iqr(values: list) -> tuple:
    """(median, q3 - q1, n); quartiles need two or more samples."""
    if not values:
        return 0.0, 0.0, 0
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0, 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1, len(values)
