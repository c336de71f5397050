"""Span recorder that wraps the package's public functions at run time.

Nothing in the package is edited: `SpanRecorder.installed()` swaps each
chosen public function, in every loaded `dssalab` module that refers to it
(so calls made through `from .sse import sse_forward` are caught too), for
a wrapper that appends a span ``[name, start, end, parent, op]`` to an
in-memory list, and puts the originals back on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# layer -> public functions whose calls become spans
WRAPPED = {
    "stack": ("stack_forward",),
    "sse": ("sse_forward", "sse_gate"),
    "moba": ("moba_forward", "moba_select"),
    "attention": ("full_attention", "swa"),
    "tensor_ops": ("softmax_rows", "rms_norm", "silu"),
    "quant": ("quantize_weight_blocks", "quantize_activation_groups", "int8_matmul_reference"),
    "spike": ("spike_encode", "spike_matmul"),
    "fp8": ("fp8_quantize", "fp8_matmul_emulated"),
}
MECHANISM_LAYERS = ("sse", "moba", "attention")

NAME, START, END, PARENT, OP, ARGS, RESULT = range(7)


class SpanRecorder:
    """Keeps spans in memory. `keep` names the functions whose arguments and
    result are held on the span (for statistics computed after the run)."""

    def __init__(self, keep=()):
        self.spans: list[list] = []
        self.op = -1  # -1 marks set-up; timed ops are numbered from 0
        self.keep = frozenset(keep)
        self._open: list[int] = []

    def _wrap(self, name, fn):
        spans, open_, keep = self.spans, self._open, name in self.keep
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op, None, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if keep:
                span[ARGS], span[RESULT] = args, result
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, only=None):
        """Wrap every function in WRAPPED, or with `only` just those names."""
        wrappers = {}  # original function -> its wrapper
        for layer, names in WRAPPED.items():
            module = importlib.import_module(f"dssalab.{layer}")
            for name in names:
                if only is None or name in only:
                    wrappers[getattr(module, name)] = self._wrap(name, getattr(module, name))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "dssalab" and not modname.startswith("dssalab."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def called(self) -> set[str]:
        return {span[NAME] for span in self.spans}

    def self_times(self) -> dict[str, float]:
        """Per function: total span time minus the time its child spans cover.
        Spans of one thread nest without overlap, so that cover is a sum."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + span[END] - span[START] - child[i]
        return totals

    def dump(self) -> list[list]:
        """Spans as plain lists (name, start, end, parent, op), start-relative."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return [[s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7), s[PARENT], s[OP]] for s in self.spans]


def layer_of(name: str) -> str:
    for layer, names in WRAPPED.items():
        if name in names:
            return layer
    raise KeyError(name)
