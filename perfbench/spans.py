"""In-memory spans recorded by the benchmark around calls into each layer.

The benchmark never adds tracing inside the program.  Workload code
opens a span around each operation and around each layer call it makes
directly; calls the program makes internally (the tool constructors'
``read_contents``, layout inside ``edited_image``, the fuzz campaign's
stages) are timed by :class:`LayerPatches`, which wraps the public
function or method for the duration of a traced round and restores it
afterwards.

Spans live in a list until the run ends; :meth:`Recorder.dump` writes
them as JSON lines.  Every span carries its own id, its parent's id and
the id of the operation it belongs to.
"""

import importlib
import itertools
import json
import threading
import time

_clock = time.perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("recorder", "name", "span_id", "parent", "op_id",
                 "start", "end")

    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        recorder = self.recorder
        stack = recorder._stack()
        parent = stack[-1] if stack else None
        self.span_id = next(recorder._ids)
        self.parent = parent.span_id if parent is not None else None
        # The outermost span of a thread is an operation (or a setup
        # step): its id is the operation id every descendant carries.
        self.op_id = parent.op_id if parent is not None else self.span_id
        stack.append(self)
        self.start = _clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = _clock()
        self.recorder._stack().pop()
        self.recorder.spans.append(self)
        return False


class Recorder:
    """Thread-safe span sink; a disabled recorder hands out no-op spans."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name):
        if not self.enabled:
            return _NULL
        return _Span(self, name)

    def wrap(self, name, function):
        """*function* with every call recorded as a span called *name*."""
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return traced

    def dump(self, path):
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps({
                    "id": span.span_id, "parent": span.parent,
                    "op": span.op_id, "name": span.name,
                    "start": span.start, "end": span.end}) + "\n")


class LayerPatches:
    """Swap public functions for span-recording wrappers, and back.

    *targets* lists ``(module, attribute path, layer)`` triples, e.g.
    ``("repro.core.executable", "Executable.read_contents",
    "core.analyze")``.  Only callers that look the attribute up at call
    time see the wrapper, which is how the program calls these.
    """

    def __init__(self, recorder, targets):
        self.recorder = recorder
        self.targets = targets
        self._saved = []

    def install(self):
        for module_name, path, layer in self.targets:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self.recorder.wrap(layer, original))

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def summarize(spans, op_name):
    """Per-layer busy time over the operations called *op_name*.

    Returns ``(ops, layer_seconds, violations)``: the number of such
    operations, ``{layer: total seconds}`` counting only the outermost
    span of each layer (a layer re-entered inside itself is not counted
    twice), and the number of spans whose direct children add up to
    more than the span itself.
    """
    by_id = {span.span_id: span for span in spans}
    ops = {span.span_id for span in spans
           if span.parent is None and span.name == op_name}
    children = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) \
                + (span.end - span.start)
    violations = sum(
        1 for span_id, total in children.items()
        if span_id in by_id
        and total > by_id[span_id].end - by_id[span_id].start + 1e-9)
    layers = {}
    for span in spans:
        if span.op_id not in ops or span.span_id in ops:
            continue
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name == span.name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            layers[span.name] = layers.get(span.name, 0.0) \
                + (span.end - span.start)
    return len(ops), layers, violations
