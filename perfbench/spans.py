"""In-memory span recorder around pxpy's public functions.

The recorder rebinds each traced function's name in every pxpy module that
holds it (the defining module included, so calls between pxpy functions
are seen too), inside this process only. Pool workers started by
oracle.brute_force do not carry the recorder, so a traced run keeps every
search inline.

A span is (name, start, end, parent span, operation id). Spans live in
flat arrays while the run lasts and are written out when it ends; self
time is the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import pxpy
import pxpy.cli
from pxpy import arithmetic, catalan, classifier, oracle

TRACED = (
    (arithmetic, "integer_root"),
    (arithmetic, "p_adic_valuation"),
    (arithmetic, "is_prime"),
    (arithmetic, "eval_lhs"),
    (classifier, "classify"),
    (classifier, "instantiate"),
    (classifier, "verify"),
    (classifier, "trace_candidate"),
    (classifier, "enumerate_solutions"),
    (oracle, "brute_force"),
    (oracle, "cross_check"),
    (catalan, "lemma2_no_solutions"),
    (catalan, "search_catalan"),
)
TRACED_NAMES = tuple(f"{m.__name__.rsplit('.', 1)[1]}.{f}" for m, f in TRACED)
OP_SPAN = "bench.op"
# Functions whose results feed the ratio metrics (see SpanRecorder._observe).
_OBSERVED = frozenset(
    {
        "arithmetic.integer_root",
        "arithmetic.p_adic_valuation",
        "classifier.trace_candidate",
        "oracle.brute_force",
    }
)
_HOLDERS = (pxpy, arithmetic, classifier, oracle, catalan, pxpy.cli)


class SpanRecorder:
    """Records spans around the traced functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN, *TRACED_NAMES]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op_id = -1
        self.exact_roots = 0
        self.accepted_traces = 0
        self.searched_pairs = 0
        self.search_hits = 0
        self.largest_valuation_input = 0
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def operation(self, op_id: int, fn, *args):
        """Run fn(*args) as operation op_id, under a root span."""
        self._op_id = op_id
        index = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "arithmetic.integer_root":
            self.exact_roots += result.exact
        elif name == "classifier.trace_candidate":
            self.accepted_traces += result.accepted
        elif name == "oracle.brute_force":
            self.searched_pairs += result.pairs_checked
            self.search_hits += len(result.solutions)
        elif name == "arithmetic.p_adic_valuation":
            if args[0].bit_length() > self.largest_valuation_input.bit_length():
                self.largest_valuation_input = args[0]

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        observed = name in _OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observed:
                self._observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for (module, attr), name in zip(TRACED, TRACED_NAMES):
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in _HOLDERS:
                if getattr(holder, attr, None) is original:
                    self._restore.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, total_ms and self_ms for every span name, from the spans."""
        count = len(self.start)
        child_ns = [0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child_ns[parent] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i in range(count):
            entry = stats[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_ms"] += duration / 1e6
            entry["self_ms"] += (duration - child_ns[i]) / 1e6
        return stats

    def largest_valuation_digits(self) -> int:
        m = self.largest_valuation_input
        if m == 0:
            return 0
        digits = int((m.bit_length() - 1) * 0.30102999566398120) + 1
        return digits + (m >= 10**digits)

    def write(self, directory: Path, stem: str, run: dict) -> Path:
        """Write the spans as raw arrays plus a JSON header describing them.

        A later traced run of the same workload replaces the files.
        """
        directory.mkdir(parents=True, exist_ok=True)
        data = directory / f"{stem}.spans"
        columns = (
            ("name_id", self.name_id),
            ("parent", self.parent),
            ("op", self.op),
            ("start_ns", self.start),
            ("end_ns", self.end),
        )
        with open(data, "wb") as fh:
            for _, column in columns:
                column.tofile(fh)
        header = {
            "run": run,
            "spans": len(self.start),
            "byteorder": sys.byteorder,
            "columns": [[name, column.typecode, column.itemsize] for name, column in columns],
            "names": self.names,
        }
        (directory / f"{stem}.json").write_text(json.dumps(header, indent=1) + "\n")
        return data
