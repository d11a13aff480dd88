"""Spans recorded from outside the program, by wrapping module attributes.

A wrapper is installed where the caller looks the function up (for
``from .treebank import parse_treebank_file`` in ``cli``, that is
``cli.parse_treebank_file``), so the program runs unchanged.  Spans stay
in memory until :meth:`Tracer.write`; self times come from the spans.

A wrapper costs time that belongs to no layer: the part paid before its
span opens and after it closes (the hook included) lands in the parent's
self time, the part inside the span in the callee's.  :meth:`Tracer.calibrate`
measures both on an empty function, and :meth:`Tracer.self_times` moves
them out of the layers into ``trace.wrapper_s``.
"""

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

WRAPPER = "trace.wrapper_s"


def _empty(value):
    return value


class Tracer:
    """Span recorder for one traced run.

    Each span is ``[name, start, end, parent index, run id]``; the parent
    is the span open when it started, -1 for a root.  Counters are kept at
    the same boundaries by the hooks given to :meth:`patch`.
    """

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._open = []
        self._saved = []
        self.outside = self.inside = 0.0  # seconds per wrapped call, see calibrate

    def call(self, name, function, *args, hook=None, **kwargs):
        """Run ``function`` inside a span called ``name``, which may also be
        a callable of ``(args, kwargs)`` returning the name."""
        if callable(name):
            name = name(args, kwargs)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        result = None
        span[1] = perf_counter()
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            span[2] = perf_counter()
            self._open.pop()
            if hook is not None:
                hook(self, args, kwargs, result)

    def wrap(self, function, name, hook=None):
        """``function`` wrapped so that each call records a span."""
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return self.call(name, function, *args, hook=hook, **kwargs)
        return wrapper

    def patch(self, module_name, attribute, name, hook=None):
        """Replace ``module.attribute`` by a wrapper that records a span."""
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        self._saved.append((module, attribute, original))
        setattr(module, attribute, self.wrap(original, name, hook))

    def calibrate(self, hook=None, calls=2000, repeats=7):
        """Measure what one wrapped call with ``hook`` costs beyond the
        callee: ``outside`` its span and ``inside`` it.  Medians over
        ``repeats`` loops of ``calls`` calls of an empty function, each
        recorded by a throwaway tracer."""
        outside, inside = [], []
        for _ in range(repeats):
            probe = Tracer()
            wrapped = probe.wrap(_empty, "empty", hook)
            start = perf_counter()
            for index in range(calls):
                pass
            loop_s = perf_counter() - start
            start = perf_counter()
            for index in range(calls):
                _empty(index)
            plain_s = perf_counter() - start - loop_s
            start = perf_counter()
            for index in range(calls):
                wrapped(index)
            wrapped_s = perf_counter() - start - loop_s
            spans_s = sum(end - begin for _, begin, end, _, _ in probe.spans)
            outside.append((wrapped_s - spans_s) / calls)
            inside.append((spans_s - plain_s) / calls)
        self.outside = max(0.0, statistics.median(outside))
        self.inside = max(0.0, statistics.median(inside))

    def restore(self):
        """Put every original function back, last patch first."""
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def self_times(self):
        """Seconds per span name, each span minus the time of its children
        and minus the calibrated wrapper cost, which goes to ``WRAPPER``;
        together they add up to the root spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start + self.outside
        totals = Counter()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
            if parent >= 0:
                totals[name] -= self.inside
                totals[WRAPPER] += self.outside + self.inside
        return totals

    def write(self, path):
        """Spans as TSV: index, name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart\tend\tparent\trun_id\n")
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run_id}\n")
