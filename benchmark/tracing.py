"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` wraps every public function of every loaded
``windforecast`` module, plus the named methods in ``METHODS``, and rebinds
each wrapped function in every module that holds a reference to it: a name
bound by ``from .dataset import split`` in ``cli`` and ``harness`` is a
separate binding that patching ``dataset.split`` alone would miss.

Spans stay in memory while the program runs; ``write`` dumps them as JSON
lines afterwards, so no file I/O happens inside a traced pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "windforecast"

# Called once per CSV row; a span per call would swamp the trace.
SKIP = {"dataset.record_problems"}

# (module, class, attribute, span name). Dataset.__init__ is where every
# record is validated, so it is the "dataset.Dataset" layer.
METHODS = (
    ("dataset", "Dataset", "__init__", "dataset.Dataset"),
    ("dataset", "Dataset", "column", "dataset.Dataset.column"),
    ("metrics", "EvalReport", "from_predictions", "metrics.EvalReport.from_predictions"),
)


def _count_train(counts, bound, result):
    n = bound["train_matrix"].n
    cfg = bound["cfg"]
    counts["ann.train.steps"] += cfg.epochs * math.ceil(n / cfg.batch_size)
    counts["ann.train.sample_epochs"] += cfg.epochs * n


def _count_fit(counts, bound, result):
    if result is not None:
        counts["regression.fits"] += 1


def _count_dataset_rows(counts, bound, result):
    # _records is set only once validation has passed
    records = getattr(bound["self"], "_records", None)
    if records is not None:
        counts["dataset.Dataset.rows"] += len(records)


def _count_parsed_rows(counts, bound, result):
    source = bound["source"]
    if isinstance(source, (bytes, str)):
        counts["dataset.parse_csv.rows"] += max(len(source.splitlines()) - 1, 0)


# Counters kept at a span's boundary; called whether or not the call raised
# (``result`` is None when it did).
COUNTERS = {
    "ann.train": _count_train,
    "regression.fit_ols": _count_fit,
    "regression.fit_polynomial": _count_fit,
    "dataset.Dataset": _count_dataset_rows,
    "dataset.parse_csv": _count_parsed_rows,
}


class Tracer:
    """In-memory span recorder: (id, parent id, name, start, end) per call."""

    def __init__(self, pass_id: str = "pass"):
        self.pass_id = pass_id
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self.counts, bound.arguments, result)

        return traced

    def install(self) -> None:
        """Wrap the package's public functions and the methods in METHODS."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        originals = {}
        for name, mod in modules.items():
            short = name[len(PACKAGE) + 1 :]
            for attr, obj in vars(mod).items():
                label = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == name
                    and not attr.startswith("_")
                    and label not in SKIP
                ):
                    originals[id(obj)] = (obj, self.wrap(label, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for module, cls_name, attr, label in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{module}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(label, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(label, raw))

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        inclusive = defaultdict(float)
        children = defaultdict(float)
        calls = Counter()
        for span_id, parent, name, start, end in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent is not None:
                children[parent] += end - start
        self_s = defaultdict(float)
        for span_id, parent, name, start, end in self.spans:
            self_s[name] += (end - start) - children[span_id]
        return {
            "layers": {
                name: {"calls": calls[name], "s": inclusive[name], "self_s": self_s[name]}
                for name in inclusive
            },
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "trace": self.pass_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
