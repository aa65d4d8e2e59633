"""Spans around calls into hmpsearch, installed from outside the package.

The package binds names with ``from .x import y``, so one function object can
be reachable under several module attributes. `Tracer.install` replaces every
binding of each traced function in every loaded ``hmpsearch`` module, and
`Tracer.uninstall` puts the originals back. Spans stay in memory until the
run ends. The program is single-threaded, so one span stack suffices and no
layer ever waits for another: every layer's waiting time is zero.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

# A request is one CLI stage (spans named "cli.<stage>"), one image inside
# encode, or one query. A span named here starts a new request; nested spans
# inherit the id of the request they run in.
REQUEST_ROOTS = {"encoder.encode_image", "encoder.encode_image_bof", "index.query"}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    request: int
    self_time: float  # duration minus the time covered by child spans
    note: object = None


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _omp_early_stop(args, kwargs, result):
    return result.nnz < _arg(args, kwargs, 2, "sparsity")


def _train_signal_iters(args, kwargs, result):
    return _arg(args, kwargs, 0, "train_set").count * _arg(args, kwargs, 1, "cfg").iterations


def _query_ranking(args, kwargs, result):
    top_k = _arg(args, kwargs, 2, "top_k") if len(args) > 2 or "top_k" in kwargs else None
    return len(result), top_k is None


def _mean_ap(args, kwargs, result):
    return result.mean_ap


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


# Per-call facts the metrics need, taken from arguments and results through
# public attributes only. A refactor that breaks one leaves the note as None.
NOTES = {
    "coding.omp_encode": _omp_early_stop,
    "dictionary.train": _train_signal_iters,
    "evaluation.evaluate": _mean_ap,
    "index.query": _query_ranking,
    "index.save_index": _saved_bytes,
}


class Tracer:
    """Records one span per call of each traced ``module.function``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [span index, child time] per open span
        self._requests = 0
        self._swapped: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1][0] if self._stack else -1
        if parent < 0 or name in REQUEST_ROOTS or name.startswith("cli."):
            self._requests += 1
            request = self._requests
        else:
            request = self.spans[parent].request
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, request, 0.0))
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = self.spans[index]
            span.start, span.end, span.self_time = start, end, end - start - frame[1]
            if self._stack:
                self._stack[-1][1] += end - start
        note = NOTES.get(name)
        if note is not None:
            try:
                span.note = note(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, OSError):
                span.note = None
        return result

    def install(self, names) -> list[str]:
        """Wrap each ``module.function`` wherever hmpsearch binds it.

        Returns the names that no longer exist, so their metrics can be
        reported as absent instead of crashing the run.
        """
        absent = []
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "hmpsearch" or key.startswith("hmpsearch."))
        ]
        for name in names:
            module_name, func_name = name.split(".")
            home = sys.modules.get(f"hmpsearch.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapper = functools.wraps(original)(functools.partial(self.call, name, original))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._swapped.append((mod, attr, original))
        return absent

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._swapped):
            setattr(mod, attr, original)
        self._swapped.clear()

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t{s.request}\n")
