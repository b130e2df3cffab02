"""Span tracing around the library's public entry points, from outside ``src/``.

``Tracer.install`` replaces each public function at the module attribute where
callers look it up with a wrapper that records a span (name, start, end,
parent span, job id) and reads counts from the returned objects.  Spans stay
in memory; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from gradedlie import builders, cli, derivations
from gradedlie.algebra import GradedAlgebra

# (owner, attribute, span name); the span name's prefix is the layer.
TARGETS = (
    (derivations, "build_constraints", "derivations.build_constraints"),
    (derivations, "compare_orders", "derivations.compare_orders"),
    (derivations, "nullspace", "linalg.nullspace"),
    (derivations, "project_basis", "linalg.project_basis"),
    (derivations, "row_space_equal", "linalg.row_space_equal"),
    (derivations, "vector_in_span", "linalg.vector_in_span"),
    (cli, "build_constraints", "derivations.build_constraints"),
    (cli, "nullspace", "linalg.nullspace"),
    (cli, "main", "cli.main"),
    (builders, "load", "builders.load"),
    (GradedAlgebra, "validate", "algebra.validate"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: str


def _bits(v) -> int:
    return max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for _, c in v.entries
    )


def _observe(counts: Counter, name: str, args, result) -> None:
    if name == "derivations.build_constraints":
        matrix, index = result
        counts["derivations.rows_distinct"] += matrix.num_rows
        counts["derivations.unknown_cols"] += len(index)
    elif name == "linalg.nullspace":
        matrix = args[0]
        counts["linalg.rows_in"] += matrix.num_rows
        counts["linalg.rank"] += matrix.num_cols - result.dim
        counts["linalg.basis_nnz"] += sum(len(v.entries) for v in result.vectors)
        counts["linalg.basis_max_bits"] = max(
            [counts["linalg.basis_max_bits"]] + [_bits(v) for v in result.vectors]
        )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            _observe(self.counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self, first: int) -> Counter:
        """Per span name, total duration minus the time its child spans cover.

        Covers the spans from index ``first`` on, which must open no earlier
        than the span at ``first``.
        """
        out: Counter = Counter()
        for s in self.spans[first:]:
            out[s.name] += s.end - s.start
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def calls(self, first: int) -> Counter:
        return Counter(s.name for s in self.spans[first:])
