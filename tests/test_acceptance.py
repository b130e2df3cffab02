"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Expected dimensions marked as derived were produced first
by the dense brute-force oracle in ``oracle.py``; the small cases re-run the
oracle here as a cross-check.
"""

import json
import random
import time
from fractions import Fraction

from gradedlie import builders
from gradedlie.builders import WindowSpec
from gradedlie.cli import main as cli_main
from gradedlie.derivations import (
    HomogeneousMap,
    UnknownIndex,
    build_constraints,
    check_property_p,
    compare_orders,
    decompose_homogeneous,
    domain_gammas,
    is_inner,
    is_nder,
    solve_nder,
    verify_property_witness,
)
from gradedlie.linalg import vector_in_span

from oracle import oracle_gammas, oracle_nder_dim
from test_linalg import check_linalg_properties, random_matrix


def _report(name: str, elapsed: float, bound: float, detail: str) -> None:
    print(f"{name}: PASS ({elapsed:.2f}s < {bound:.0f}s) {detail}")
    assert elapsed < bound


def unit(i):
    return {i: Fraction(1)}


def test_ac1_counterexample_exact():
    t0 = time.perf_counter()
    k = builders.build_counterexample_k()
    # oracle-derived: order-2 dims by degree shift
    expected = {(-2,): 0, (-1,): 1, (0,): 2, (1,): 1, (2,): 0}
    dims = {}
    for gamma in domain_gammas(k):
        dim = solve_nder(k, 2, gamma).dim
        assert dim == oracle_nder_dim(k, 2, gamma)
        dims[gamma] = dim
    assert dims == expected
    assert sum(dims.values()) == 4
    phi = HomogeneousMap(
        (-2,), {k.index_of("M_1"): {k.index_of("M_-1"): Fraction(1)}}
    )
    parity = {n: is_nder(k, phi, n) for n in (2, 3, 4, 5)}
    assert parity == {2: False, 3: True, 4: False, 5: True}
    _report(
        "AC-1", time.perf_counter() - t0, 1.0,
        f"order-2 dims {dims} total 4; map passes odd orders only {parity}",
    )


def test_ac2_even_branch_vs_odd_witness():
    t0 = time.perf_counter()
    k = builders.build_counterexample_k()
    full = WindowSpec(1)
    even = compare_orders(k, 2, 4, (-2,), full)
    assert even.equal
    odd = compare_orders(k, 2, 3, (-2,), full)
    assert not odd.equal
    assert odd.witness is not None and odd.witness_side == "second"
    # the witness is a multiple of the map M_1 -> M_-1
    pair = odd.projected_pairs[odd.witness.entries[0][0]]
    assert (k.label(pair[0]), k.label(pair[1])) == ("M_1", "M_-1")
    assert len(odd.witness.entries) == 1
    _report(
        "AC-2", time.perf_counter() - t0, 1.0,
        f"orders (2,4) equal, (2,3) unequal with witness dims {odd.dims}",
    )


def test_ac3_finite_type_and_borel():
    t0 = time.perf_counter()
    results = {}
    for name, alg, want_total in [
        ("sl_2", builders.build_sl(2), 3),
        ("sl_3", builders.build_sl(3), 8),
    ]:
        total = 0
        for gamma in domain_gammas(alg):
            index = UnknownIndex(alg, gamma)
            if not index.pairs:
                continue
            d2 = solve_nder(alg, 2, gamma).dim
            assert d2 == oracle_nder_dim(alg, 2, gamma), (name, gamma)
            for order in (3, 4):
                assert solve_nder(alg, order, gamma).dim == d2, (name, gamma, order)
            total += d2
            _, idx = build_constraints(alg, 2, gamma)
            for vec in solve_nder(alg, 2, gamma).vectors:
                phi = idx.decode(vec)
                x = is_inner(alg, phi)
                assert x is not None, (name, gamma)
        assert total == want_total, (name, total)
        results[name] = total
    borel = builders.build_borel(3, "+")
    # oracle-derived dims: 2 at the zero shift, 1 at each positive root
    borel_expected = {(0, 0): 2, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    borel_dims = {}
    for gamma in domain_gammas(borel):
        rep = compare_orders(borel, 2, 3, gamma, WindowSpec(1))
        assert rep.equal, (gamma, rep.dims)
        d2 = rep.nullities[0]
        assert d2 == oracle_nder_dim(borel, 2, gamma)
        if d2:
            borel_dims[gamma] = d2
    assert borel_dims == borel_expected
    results["borel+_sl3"] = sum(borel_dims.values())
    _report(
        "AC-3", time.perf_counter() - t0, 30.0,
        f"totals {results}; all orders agree; all solutions inner",
    )


def test_ac4_sv_desk_scale():
    t0 = time.perf_counter()
    sv = builders.build_sv(WindowSpec(4))
    assert sv.dim == 27
    inner = WindowSpec(4)  # outer encoded radius 8, buffer 4
    checked = 0
    for orders in ((2, 3), (2, 4)):
        for g in range(-4, 5):
            rep = compare_orders(sv, orders[0], orders[1], (g,), inner)
            assert rep.equal, (orders, g, rep.dims)
            checked += 1
    _report(
        "AC-4", time.perf_counter() - t0, 300.0,
        f"{checked} comparisons on sv M=4, all equal",
    )


def test_ac5_witt_desk_scale():
    t0 = time.perf_counter()
    w1 = builders.build_witt(1, WindowSpec(5))
    inner = WindowSpec(3)  # outer radius 5, buffer 2
    checked = 0
    for orders in ((2, 3), (2, 4)):
        for g in range(-2, 3):
            rep = compare_orders(w1, orders[0], orders[1], (g,), inner)
            assert rep.equal, (orders, g, rep.dims)
            checked += 1
    w2 = builders.build_witt(2, WindowSpec(2))
    for gamma in ((0, 0), (1, 0), (0, 1)):
        rep = compare_orders(w2, 2, 3, gamma, WindowSpec(2))
        assert rep.equal, (gamma, rep.dims)
        checked += 1
    _report(
        "AC-5", time.perf_counter() - t0, 300.0,
        f"{checked} comparisons on witt windows, all equal",
    )


def test_ac6_property_witnesses():
    t0 = time.perf_counter()
    sv = builders.build_sv(WindowSpec(4))
    kinds = {}
    for b in range(sv.dim):
        deg = sv.degree_of(b)
        if deg == (0,):
            continue
        assert tuple(-c for c in deg) in sv.degree_set
        w = check_property_p(sv, unit(b))
        assert w.kind != "none-found", sv.label(b)
        assert verify_property_witness(sv, w), sv.label(b)
        kinds[sv.label(b)] = w.kind
    assert all(w == "P2" for l, w in kinds.items() if l.startswith("L"))
    assert all(w == "P1" for l, w in kinds.items() if l.startswith(("M", "Y")))
    k = builders.build_counterexample_k()
    for lbl in ("M_1", "M_-1"):
        assert check_property_p(k, unit(k.index_of(lbl))).kind == "none-found"
    _report(
        "AC-6", time.perf_counter() - t0, 30.0,
        f"{len(kinds)} sv elements witnessed; counterexample elements none-found",
    )


def test_ac7_homogeneous_decomposition():
    t0 = time.perf_counter()
    rng = random.Random(1729)
    algs = [
        builders.build_counterexample_k(),
        builders.build_sl(3),
        builders.build_sv(WindowSpec(2)),
    ]
    runs = 0
    for alg in algs:
        for _ in range(100):
            images = {}
            for b in range(alg.dim):
                img = {}
                for _ in range(rng.randrange(0, 3)):
                    img[rng.randrange(alg.dim)] = Fraction(
                        rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])
                    )
                if img:
                    images[b] = img
            parts = decompose_homogeneous(alg, images)
            rebuilt = {}
            for shift, comp in parts:
                for b, img in comp.images.items():
                    for t, c in img.items():
                        db, dt = alg.degree_of(b), alg.degree_of(t)
                        assert tuple(x - y for x, y in zip(dt, db)) == shift
                        bucket = rebuilt.setdefault(b, {})
                        bucket[t] = bucket.get(t, Fraction(0)) + c
            rebuilt = {
                b: {t: c for t, c in img.items() if c} for b, img in rebuilt.items()
            }
            assert {b: i for b, i in rebuilt.items() if i} == images
            runs += 1
    for alg in algs:
        for gamma in domain_gammas(alg):
            _, index = build_constraints(alg, 2, gamma)
            for vec in solve_nder(alg, 2, gamma).vectors:
                phi = index.decode(vec)
                parts = decompose_homogeneous(alg, dict(phi.images))
                assert len(parts) == 1 and parts[0][0] == tuple(gamma)
    _report(
        "AC-7", time.perf_counter() - t0, 10.0,
        f"{runs} random maps decomposed and recomposed exactly",
    )


def test_ac8_foundations():
    t0 = time.perf_counter()
    # algebra validity across builders
    algebras = [
        builders.build_sv(WindowSpec(2)),
        builders.build_sv(WindowSpec(4)),
        builders.build_witt(1, WindowSpec(3)),
        builders.build_witt(2, WindowSpec(1)),
        builders.build_sl(3),
        builders.build_borel(3, "+"),
        builders.build_counterexample_k(),
    ]
    for alg in algebras:
        report = alg.validate()
        assert not report.violations and not report.warnings, alg.name
    sv = algebras[0]
    for i in range(sv.dim):
        for j in range(sv.dim):
            assert sv.bracket(unit(i), unit(j)) == {
                k: -c for k, c in sv.bracket(unit(j), unit(i)).items()
            }
    sl3 = algebras[4]
    e1, e2 = unit(sl3.index_of("E(1,2)")), unit(sl3.index_of("E(2,3)"))
    f1, f2 = unit(sl3.index_of("E(2,1)")), unit(sl3.index_of("E(3,2)"))
    assert sl3.bracket(e1, sl3.bracket(e1, e2)) == {}
    assert sl3.bracket(e2, sl3.bracket(e2, e1)) == {}
    assert sl3.bracket(f1, sl3.bracket(f1, f2)) == {}
    assert sl3.bracket(f2, sl3.bracket(f2, f1)) == {}
    # exact linear algebra property suite on 1000 seeded random matrices
    rng = random.Random(987654321)
    for _ in range(1000):
        check_linalg_properties(random_matrix(rng))
    _report(
        "AC-8", time.perf_counter() - t0, 30.0,
        "validity suites and 1000-matrix linear algebra property suite",
    )


def test_ac9_byte_identical_reports(tmp_path):
    t0 = time.perf_counter()
    sv_path = tmp_path / "sv4.json"
    assert cli_main(["builtin", "sv", "--max", "4", "-o", str(sv_path)]) == 0
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"rep_{tag}.json"
        code = cli_main(
            [
                "compare", str(sv_path), "--orders", "2,3", "--gamma", "-4",
                "--buffer", "4", "-o", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["equal"] is True
    _report(
        "AC-9", time.perf_counter() - t0, 60.0,
        "repeated comparison produced byte-identical JSON",
    )
