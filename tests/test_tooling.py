"""Guards for the repository's tooling outside ``src/``."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_trace_targets_resolve(monkeypatch):
    # bench/run.py --trace 1 wraps each target by attribute lookup, so a
    # removed or renamed entry point must fail here rather than there.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses need it
    spec.loader.exec_module(tracing)
    for owner, attr, _name in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
