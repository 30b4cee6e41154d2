"""Span recording around calls into the uqseg modules, installed from outside.

The package binds most names with ``from .x import y``, so wrapping a
function in its home module alone would miss every other module's copy.
``install`` therefore replaces each traced function at every lookup site:
every ``uqseg.*`` module attribute that refers to it. Methods are wrapped on
their class.

A span is ``[name, start, end, parent, case, bytes]``: times are
``time.perf_counter`` seconds, ``parent`` is the index of the enclosing span
(-1 at the top), ``case`` is the case id the call works on (taken from a path
argument, from an array that an earlier span of that case returned, or from
the parent span) and ``bytes`` is the payload size where one is defined.
Spans stay in memory until ``Recorder.dump``.

The analysis half (``self_times``, ``aggregate``, ``module_time``,
``import_time``) runs in the benchmark driver on dumped spans.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
import weakref

import numpy as np

PACKAGE = "uqseg"

# traced functions per module; "Class.method" wraps a method on its class
TARGETS = {
    "arrayio": ("read_array", "write_array", "write_pgm"),
    "arrays": ("validate_probabilities",),
    "selection": ("find_cycle_peaks",),
    "ensemble": ("ensemble_mean", "argmax_labels"),
    "uncertainty": ("pixel_entropy", "uncertainty_score", "contour_normalizer"),
    "metrics": ("dice", "uncertainty_dice_table", "CalibrationAccumulator.add"),
    "pipeline": ("run_pipeline",),
    "toy": (
        "generate_dataset",
        "train",
        "validation_dice",
        "predict",
        "case_features",
        "run_toy_training",
    ),
}
# every reports function is traced except the float formatter its own
# row builders call thousands of times
REPORTS_SKIP = ("fmt9",)

_CASE_RE = re.compile(r"case\d+")


def _nbytes(value):
    if isinstance(value, (list, tuple)):
        return sum(np.asarray(v).nbytes for v in value)
    return np.asarray(value).nbytes


# payload size of a call, from its arguments and result
BYTES = {
    "arrayio.read_array": lambda args, result: result.nbytes,
    "arrayio.write_array": lambda args, result: _nbytes(args[1]),
    "ensemble.ensemble_mean": lambda args, result: _nbytes(args[0]),
}


class Recorder:
    """Collects spans for one process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._array_cases = {}  # id(array) -> (weakref to it, case id)

    def wrap(self, name, fn):
        measure = BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            case = self._case_of(args)
            if case is None and parent >= 0:
                case = self.spans[parent][4]
            span = [name, 0.0, 0.0, parent, case, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span[5] = int(measure(args, result))
            if case is not None and isinstance(result, np.ndarray):
                self._array_cases[id(result)] = (weakref.ref(result), case)
            return result

        return traced

    def _case_of(self, args):
        for arg in args:
            items = arg if isinstance(arg, (list, tuple)) else (arg,)
            for item in items:
                if isinstance(item, (str, os.PathLike)):
                    found = _CASE_RE.findall(os.fspath(item))
                    if found:
                        return found[-1]
                elif isinstance(item, np.ndarray):
                    entry = self._array_cases.get(id(item))
                    if entry is not None and entry[0]() is item:
                        return entry[1]
        return None

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "missing": self.missing}, f)


def _targets(modules):
    """Yield (span name, owner object, attribute) for every traced function."""
    for short, names in TARGETS.items():
        module = modules.get(f"{PACKAGE}.{short}")
        for qualname in names:
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            yield f"{short}.{qualname}", holder, attr
    reports = modules.get(f"{PACKAGE}.reports")
    for attr, value in sorted(vars(reports).items() if reports else ()):
        if (
            callable(value)
            and getattr(value, "__module__", None) == f"{PACKAGE}.reports"
            and not isinstance(value, type)
            and attr not in REPORTS_SKIP
        ):
            yield f"reports.{attr}", reports, attr


def install(recorder, modules=None):
    """Wrap every traced function at each of its lookup sites.

    ``modules`` defaults to ``sys.modules``; the package must be imported.
    A target the package no longer has is listed in ``recorder.missing``.
    """
    modules = sys.modules if modules is None else modules
    wrappers = {}  # original function -> its wrapper
    for name, holder, attr in _targets(modules):
        fn = getattr(holder, attr, None) if holder is not None else None
        if fn is None:
            recorder.missing.append(name)
            continue
        wrapper = recorder.wrap(name, fn)
        if isinstance(holder, type):
            setattr(holder, attr, wrapper)
        else:
            wrappers[fn] = wrapper
    for modname, module in list(modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            try:
                wrapper = wrappers.get(value)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(module, attr, wrapper)


# ------------------------------------------------------------------ analysis


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans):
    """Per span name: calls, inclusive seconds, self seconds and bytes."""
    own = self_times(spans)
    out = {}
    for span, self_s in zip(spans, own):
        stats = out.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        stats["calls"] += 1
        stats["s"] += span[2] - span[1]
        stats["self_s"] += self_s
        stats["bytes"] += span[5]
    return out


def module_time(spans, module):
    """Seconds inside ``module``'s spans, nested calls within it counted once."""
    prefix = module + "."
    total = 0.0
    for span in spans:
        if not span[0].startswith(prefix):
            continue
        parent = span[3]
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_time(text, module):
    """Seconds spent importing ``module`` per ``python -X importtime`` output.

    Sums the cumulative times of the outermost lines naming ``module`` or one
    of its submodules: a package whose import goes through a module
    ``__getattr__`` (``from scipy import stats``) gets no line of its own,
    only its submodules do.
    """
    lines = []
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            lines.append((len(match.group(2)), match.group(3), int(match.group(1))))
    # the output is post-order: a line's parent is the next line that is
    # indented less, so walk it backwards with a stack of ancestors
    total = 0
    ancestors = []
    for depth, name, cumulative in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        ours = name == module or name.startswith(module + ".")
        if ours and not any(a[2] for a in ancestors):
            total += cumulative
        ancestors.append((depth, name, ours))
    return total / 1e6
