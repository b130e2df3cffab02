"""Measurement loop behind ``run.py``: set-up, γ-sweeps, checks and metrics.

One process, one client, one job in flight.  Set-up runs several times, then
sweeps repeat until the time budget is spent (at least one sweep).  A traced
run alternates untraced sweeps with traced passes (set-up plus sweep) so that
the per-layer numbers and the tracing overhead come from the same run.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads
from tracing import Tracer

OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "job_p50_s": "s",
    "job_max_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer self times, each with a matching ``.calls`` count, keyed by the
# span names that make them up.
LAYER_TIMES = {
    "builders.load": ("builders.load",),
    "algebra.validate": ("algebra.validate",),
    "derivations.build_constraints": ("derivations.build_constraints",),
    "derivations.compare_orders": ("derivations.compare_orders",),
    "linalg.nullspace": ("linalg.nullspace",),
    "linalg.compare": (
        "linalg.project_basis",
        "linalg.row_space_equal",
        "linalg.vector_in_span",
    ),
    "cli.main": ("cli.main",),
}

PER_LAYER = {
    **{f"{layer}_s": "s" for layer in LAYER_TIMES},
    **{f"{layer}.calls": "count" for layer in LAYER_TIMES},
    "derivations.rows_distinct": "count",
    "derivations.unknown_cols": "count",
    "derivations.rows_per_s": "rows/s",
    "linalg.rank": "count",
    "linalg.rank_per_row": "ratio",
    "linalg.basis_nnz": "count",
    "linalg.basis_max_bits": "bits",
    "cli.report_bytes": "bytes",
    "trace.sweep_s": "s",
    "trace.untraced_sweep_s": "s",
}


@dataclass
class Sweep:
    wall: float = 0.0
    job_times: list[float] = field(default_factory=list)
    failed: int = 0
    report_bytes: int = 0


def sweep(workload, ctx, tracer=None) -> Sweep:
    """Run every job once, in order; a failing job is counted, not fatal."""
    gc.collect()
    out = Sweep()
    t0 = time.perf_counter()
    for job in workload.jobs:
        expected = workload.expected(job)
        if tracer is not None:
            tracer.job = job.label
        span = tracer.span("job") if tracer is not None else contextlib.nullcontext()
        t1 = time.perf_counter()
        try:
            with span:
                out.report_bytes += workloads.run_job(job, ctx, expected)
        except workloads.JobFailure as exc:
            out.failed += 1
            print(f"FAIL {workload.name} {exc}", file=sys.stderr)
        except Exception:  # any raising job counts as failed; the sweep goes on
            out.failed += 1
            print(f"FAIL {workload.name} {job.label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        out.job_times.append(time.perf_counter() - t1)
    out.wall = time.perf_counter() - t0
    return out


def _enough(spent: float, walls: list[float], seconds: float) -> bool:
    """Whether another repetition of median length would overrun the budget."""
    return bool(walls) and spent + statistics.median(walls) > seconds


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    notes: list[str]


def run_untraced(workload, seed: int, seconds: float, out_dir: Path) -> Result:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = workloads.setup(workload, seed, out_dir)
        setup_times.append(time.perf_counter() - t0)
    sweeps: list[Sweep] = []
    start = time.perf_counter()
    while not _enough(time.perf_counter() - start, [s.wall for s in sweeps], seconds):
        sweeps.append(sweep(workload, ctx))
    # Per job, the median over sweeps; the slowest of those is job_max_s.
    per_job = [statistics.median(ts) for ts in zip(*(s.job_times for s in sweeps))]
    all_jobs = [t for s in sweeps for t in s.job_times]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "sweep_s": statistics.median(s.wall for s in sweeps),
        "job_p50_s": statistics.median(all_jobs),
        "job_max_s": max(per_job),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = sum(s.failed for s in sweeps)
    notes = [
        f"set-ups {SETUP_REPEATS}, sweeps {len(sweeps)}, "
        f"jobs per sweep {len(workload.jobs)}, job samples {len(all_jobs)}",
        "sweep walls (s) " + " ".join(f"{s.wall:.3f}" for s in sweeps),
    ]
    return Result(metrics, len(all_jobs), failed, failed == 0, notes)


def run_traced(workload, seed: int, seconds: float, out_dir: Path) -> Result:
    tracer = Tracer()
    ctx = workloads.setup(workload, seed, out_dir)
    plain: list[Sweep] = []
    traced: list[Sweep] = []
    passes: list[dict] = []
    counts: list[Counter] = []
    wrapped_frac: list[float] = []
    start = time.perf_counter()
    while not _enough(
        time.perf_counter() - start,
        [p.wall + t.wall for p, t in zip(plain, traced)],
        seconds,
    ):
        plain.append(sweep(workload, ctx))
        first = len(tracer.spans)
        tracer.counts = Counter()
        tracer.install()
        try:
            tracer.job = "setup"
            with tracer.span("setup"):
                tctx = workloads.setup(workload, seed, out_dir)
            traced.append(sweep(workload, tctx, tracer))
        finally:
            tracer.uninstall()
        self_times, calls = tracer.self_times(first), tracer.calls(first)
        times = {}
        for name, spans in LAYER_TIMES.items():
            times[f"{name}_s"] = sum((self_times[s] for s in spans), 0.0)
            tracer.counts[f"{name}.calls"] = sum(calls[s] for s in spans)
        # Set-up and job spans are the roots, so all self times sum to their
        # wall time; the rest of it is the benchmark's own glue.
        wrapped = sum(v for k, v in self_times.items() if k not in ("job", "setup"))
        wrapped_frac.append(wrapped / sum(self_times.values()))
        passes.append(times)
        counts.append(tracer.counts)

    with open(out_dir / "spans.json", "w") as fh:
        spans = [asdict(s) for s in tracer.spans]
        json.dump({"workload": workload.name, "seed": seed, "spans": spans}, fh)

    # Times are medians over passes; counts come from the first pass.
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    c = counts[0]
    metrics.update({f"{name}.calls": c[f"{name}.calls"] for name in LAYER_TIMES})
    build_s = metrics["derivations.build_constraints_s"]
    metrics.update(
        {
            "derivations.rows_distinct": c["derivations.rows_distinct"],
            "derivations.unknown_cols": c["derivations.unknown_cols"],
            "derivations.rows_per_s": c["derivations.rows_distinct"] / build_s,
            "linalg.rank": c["linalg.rank"],
            "linalg.rank_per_row": c["linalg.rank"] / c["linalg.rows_in"],
            "linalg.basis_nnz": c["linalg.basis_nnz"],
            "linalg.basis_max_bits": c["linalg.basis_max_bits"],
            "cli.report_bytes": traced[0].report_bytes,
            "trace.sweep_s": statistics.median(t.wall for t in traced),
            "trace.untraced_sweep_s": statistics.median(p.wall for p in plain),
        }
    )
    # Counts are exact: every traced pass must reproduce the first one.
    repeat_ok = all(x == c for x in counts) and len(
        {t.report_bytes for t in traced}
    ) == 1
    overhead = metrics["trace.sweep_s"] - metrics["trace.untraced_sweep_s"]
    notes = [
        f"passes {len(passes)}, jobs per sweep {len(workload.jobs)}",
        f"tracing overhead {overhead:+.4f} s "
        f"({overhead / metrics['trace.untraced_sweep_s']:+.1%} of untraced sweep_s)",
        "wrapped share of traced wall time "
        f"{statistics.median(wrapped_frac):.2%}",
        f"counts repeat across passes: {repeat_ok}",
        f"spans written to {out_dir / 'spans.json'}",
    ]
    sweeps = plain + traced
    attempted = sum(len(s.job_times) for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    return Result(metrics, attempted, failed, failed == 0 and repeat_ok, notes)


def measure(workload, seed: int, seconds: float, trace: bool) -> Result:
    out_dir = OUT / f"{workload.name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = run_traced if trace else run_untraced
    return runner(workload, seed, seconds, out_dir)


def report(result: Result, units: dict) -> str:
    """Print the metric lines and return the final JSON line."""
    for note in result.notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"{name} {result.metrics[name]!r} {unit}")
    print(f"fail_frac {result.failed / result.attempted!r} ratio "
          f"({result.failed} of {result.attempted} jobs)")
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": result.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )
