"""The benchmark's own tests: ``python -m pytest bench`` (a few seconds)."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gradedlie import builders
from gradedlie.builders import WindowSpec
from gradedlie.derivations import build_constraints
from gradedlie.linalg import nullspace

import harness
import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "sv2": lambda: builders.build_sv(WindowSpec(2)),
    "witt2_1": lambda: builders.build_witt(2, WindowSpec(1)),
    "K": builders.build_counterexample_k,
    "sl2": lambda: builders.build_sl(2),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seed0_reproduces_save_bytes(name):
    data = builders.save(SMALL[name]())
    assert workloads.relabel(data, 0) == data


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nonzero_seed_relabels_and_still_loads(name, seed):
    data = builders.save(SMALL[name]())
    moved = workloads.relabel(data, seed)
    alg = builders.load(moved)
    assert alg.dim == builders.load(data).dim
    if alg.dim > 3:
        assert moved != data


@pytest.mark.parametrize(
    "name, order, gammas",
    [("sv2", 3, [(-1,), (0,), (2,)]), ("witt2_1", 3, [(0, 0), (1, 0)]), ("K", 3, [(-2,), (0,)])],
)
def test_relabelling_keeps_rows_columns_and_rank(name, order, gammas):
    data = builders.save(SMALL[name]())

    def counts(seed):
        alg = builders.load(workloads.relabel(data, seed))
        out = []
        for gamma in gammas:
            matrix, index = build_constraints(alg, order, gamma)
            out.append((matrix.num_rows, len(index), nullspace(matrix).dim))
        return out

    assert counts(1) == counts(0) == counts(2)


# Counts are exact; these three follow the basis order and scale of the seed.
EXACT = [k for k, unit in harness.PER_LAYER.items() if unit not in ("s", "rows/s")]
SEED_DEPENDENT = {"linalg.basis_nnz", "linalg.basis_max_bits", "cli.report_bytes"}


def _pick(result, keys):
    return {k: result.metrics[k] for k in keys}


@pytest.mark.parametrize("name", ["smoke-k", "smoke-sl2"])
def test_counts_repeat_between_runs_and_across_seeds(name):
    w = workloads.WORKLOADS[name]
    a, b, c = (harness.measure(w, seed, 0.05, trace=True) for seed in (0, 0, 7))
    assert a.correct and b.correct and c.correct  # fingerprints match every time
    assert _pick(a, EXACT) == _pick(b, EXACT)
    invariant = [k for k in EXACT if k not in SEED_DEPENDENT]
    assert _pick(a, invariant) == _pick(c, invariant)


def _printed(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("name", ["smoke-k", "smoke-sl2"])
def test_smoke_prints_every_metric_with_its_unit(capsys, name, trace, section):
    text, result = _printed(
        capsys, ["--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", trace]
    )
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[2] for line in text if not line.startswith("#")}
    assert printed == {**declared, "fail_frac": "ratio"}


def test_declared_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(harness.END_TO_END)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(harness.PER_LAYER)


@pytest.mark.parametrize(
    "name, label, field, bad",
    [
        ("smoke-k", "gamma=-2", "equal", True),  # the unequal-verdict witness job
        ("smoke-sl2", "gamma=0", "sha256", "0" * 64),
    ],
)
def test_wrong_fingerprint_counts_as_failed_job(monkeypatch, capsys, name, label, field, bad):
    expected = copy.deepcopy(workloads.EXPECTED)
    entry = expected[name][label]
    (entry[0] if isinstance(entry, list) else entry)[field] = bad
    monkeypatch.setattr(workloads, "EXPECTED", expected)
    w = workloads.WORKLOADS[name]
    result = harness.measure(w, 0, 0.05, trace=False)
    sweeps = result.attempted // len(w.jobs)
    assert not result.correct
    assert result.failed == sweeps
    line = json.loads(harness.report(result, harness.END_TO_END))
    assert line["failed"] == sweeps and not line["correct"]
    assert f"fail_frac {1 / len(w.jobs)!r} ratio" in capsys.readouterr().out


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "smoke-k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
