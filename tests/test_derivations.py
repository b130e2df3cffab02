import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import random
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedlie import builders, derivations
from gradedlie.algebra import BasisElement, GradedAlgebra, add_degrees
from gradedlie.builders import WindowSpec
from gradedlie.derivations import (
    HomogeneousMap,
    UnknownIndex,
    _outer_radius,
    _solve_above_s2,
    build_constraints,
    check_property_p,
    compare_orders,
    constraint_rows,
    decompose_homogeneous,
    domain_gammas,
    is_inner,
    is_nder,
    solve_nder,
    verify_property_witness,
)
from gradedlie.linalg import (
    SparseMatrix,
    SparseVector,
    SubspaceBasis,
    nullspace,
    project_basis,
    row_space_equal,
    vector_in_span,
)

from oracle import (
    dense_bracket,
    dense_rank,
    dense_rref,
    oracle_gammas,
    oracle_nder_dim,
    oracle_rows,
    oracle_unknowns,
)


def unit(i):
    return {i: Fraction(1)}


def counterexample_map(k_alg) -> HomogeneousMap:
    """The degree -2 map sending M_1 to M_-1 and everything else to zero."""
    return HomogeneousMap(
        (-2,), {k_alg.index_of("M_1"): {k_alg.index_of("M_-1"): Fraction(1)}}
    )


class TestBuildConstraints:
    def test_k_gamma_zero(self, k_alg):
        matrix, index = build_constraints(k_alg, 2, (0,))
        labels = [(k_alg.label(b), k_alg.label(bp)) for b, bp in index.pairs]
        assert labels == [("L_0", "L_0"), ("M_1", "M_1"), ("M_-1", "M_-1")]
        assert solve_nder(k_alg, 2, (0,)).dim == 2  # oracle: 2

    def test_sl2_gamma_zero_is_ad_h(self, sl2):
        basis = solve_nder(sl2, 2, (0,))
        assert basis.dim == 1  # oracle: 1
        _, index = build_constraints(sl2, 2, (0,))
        h = sl2.index_of("H_1")
        ad_h = index.encode(
            HomogeneousMap(
                (0,),
                {
                    sl2.index_of("E(1,2)"): {sl2.index_of("E(1,2)"): Fraction(2)},
                    sl2.index_of("E(2,1)"): {sl2.index_of("E(2,1)"): Fraction(-2)},
                },
            )
        )
        vec = SubspaceBasis(
            len(index),
            (type(basis.vectors[0])(tuple(sorted(ad_h.items()))),),
        )
        assert row_space_equal(basis, vec)

    def test_empty_domain(self, k_alg):
        matrix, index = build_constraints(k_alg, 2, (5,))
        assert len(index) == 0 and matrix.num_rows == 0
        assert solve_nder(k_alg, 2, (5,)).dim == 0

    def test_order_contract(self, k_alg):
        with pytest.raises(ValueError):
            build_constraints(k_alg, 1, (0,))

    def test_order_ceiling(self, k_alg):
        # the walk nests one generator frame per tuple element: orders above
        # MAX_ORDER are refused before it starts, by every entry point, also
        # where S₂ would certify S_N without reading a row
        above = derivations.MAX_ORDER + 1
        flat = GradedAlgebra(
            "flat", 1, [BasisElement("a", (0,)), BasisElement("b", (0,))], {}, [0, 1]
        )
        calls = [
            lambda: solve_nder(k_alg, above, (-2,)),
            lambda: is_nder(k_alg, counterexample_map(k_alg), above),
            lambda: compare_orders(k_alg, 2, above, (-2,), WindowSpec(1)),
            lambda: compare_orders(k_alg, above, 2, (-2,), WindowSpec(1)),
            lambda: compare_orders(flat, 2, above, (0,), WindowSpec(1)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=str(derivations.MAX_ORDER)):
                call()
        # at the ceiling K's walk runs to its full depth without a
        # RecursionError; odd orders keep the counterexample map
        at = derivations.MAX_ORDER
        assert solve_nder(k_alg, at, (-2,)).dim == 0
        assert solve_nder(k_alg, at - 1, (-2,)).dim == 1
        assert is_nder(k_alg, counterexample_map(k_alg), at - 1)
        assert compare_orders(k_alg, 2, at, (-2,), WindowSpec(1)).equal

    def test_row_determinism(self, sv2):
        m1, _ = build_constraints(sv2, 3, (1,))
        m2, _ = build_constraints(sv2, 3, (1,))
        assert m1 == m2


def scaled(alg: GradedAlgebra, c: Fraction) -> GradedAlgebra:
    """``alg`` with every stored structure constant multiplied by c."""
    brackets = {
        key: tuple((k, c * v) for k, v in terms)
        for key, terms in alg.brackets.items()
    }
    return GradedAlgebra(
        alg.name, alg.grading_dim, alg.basis, brackets, alg.cartan, alg.truncated
    )


_SCALING_FAMILIES = {
    "K": builders.build_counterexample_k,
    "sl2": lambda: builders.build_sl(2),
    "sv1": lambda: builders.build_sv(WindowSpec(1)),
    "witt1": lambda: builders.build_witt(1, WindowSpec(2)),
}


@functools.lru_cache(maxsize=None)
def _unscaled_systems(family: str):
    """The family's algebra plus (row count, nullspace) per order and shift."""
    alg = _SCALING_FAMILIES[family]()
    systems = {}
    for order in (2, 3, 4):
        for gamma in domain_gammas(alg):
            matrix, _ = build_constraints(alg, order, gamma)
            systems[(order, gamma)] = (matrix.num_rows, nullspace(matrix))
    return alg, systems


@pytest.mark.parametrize("family", sorted(_SCALING_FAMILIES))
@settings(max_examples=10, deadline=None)
@given(
    c=st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)
)
@example(c=Fraction(-3))
@example(c=Fraction(1, 2))
@example(c=Fraction(7, 3))
@example(c=Fraction(-5, 12))
def test_bracket_scaling_invariance(family, c):
    # N-derivations of c·[,] are those of [,]: both sides scale by c**(N-1).
    # A non-integer c makes the walk's integer scale exceed 1 on every family.
    alg, systems = _unscaled_systems(family)
    other = scaled(alg, c)
    for (order, gamma), (num_rows, basis) in systems.items():
        matrix, _ = build_constraints(other, order, gamma)
        assert matrix.num_rows == num_rows, (order, gamma)
        assert nullspace(matrix) == basis, (order, gamma)


@pytest.mark.parametrize("family", sorted(_SCALING_FAMILIES))
@pytest.mark.parametrize(
    "c", [Fraction(1), Fraction(-3), Fraction(1, 2), Fraction(7, 3), Fraction(-5, 12)]
)
def test_constraint_row_contract(family, c):
    # Every row is a tuple of (column, int) pairs, columns strictly increasing
    # and below len(index), no zero value: the checks SparseVector would make,
    # which SparseMatrix does not repeat per row.  It is primitive, with a
    # positive lead entry.
    alg, systems = _unscaled_systems(family)
    other = scaled(alg, c)
    for order, gamma in systems:
        matrix, index = build_constraints(other, order, gamma)
        assert matrix.num_cols == len(index)
        for row in matrix.rows:
            assert type(row) is tuple and row
            cols = [col for col, _ in row]
            values = [v for _, v in row]
            assert cols == sorted(set(cols)) and 0 <= cols[0] and cols[-1] < len(index)
            assert all(type(v) is int and v != 0 for v in values)
            assert math.gcd(*values) == 1
            assert values[0] > 0


def test_build_constraints_keeps_the_walk_rows(sv2, monkeypatch):
    # The hot path hands the walk's tuples to SparseMatrix as they are: no
    # SparseVector is built per row.
    built = []
    init = SparseVector.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparseVector, "__init__", counting)
    matrix, index = build_constraints(sv2, 3, (0,))
    assert not built
    assert matrix.num_rows > 0
    assert matrix.rows == tuple(constraint_rows(index, 3))


def _compare_exits_early(alg):
    report = compare_orders(alg, 2, 4, (0,), WindowSpec(1))
    full, _ = build_constraints(alg, 4, (0,))
    assert report.constraints[1] < full.num_rows  # the walk was closed mid-way


def _is_nder_fails_on_the_first_row(alg):
    # phi is one unknown of the first row's lead column and zero elsewhere,
    # so that row alone reads nonzero and is_nder stops the walk there
    index = UnknownIndex(alg, (0,))
    (col, _), *_ = next(constraint_rows(index, 3))
    b, t = index.pairs[col]
    assert not is_nder(alg, HomogeneousMap((0,), {b: {t: Fraction(1)}}), 3)


def _s2_certifies_early(alg):
    index = UnknownIndex(alg, (0,))
    s2 = solve_nder(alg, 2, (0,))
    examined, basis = _solve_above_s2(index, 4, s2)
    assert basis is s2
    assert examined < sum(1 for _ in constraint_rows(index, 4))


@pytest.mark.parametrize(
    "run",
    [
        lambda alg: build_constraints(alg, 3, (0,)),
        lambda alg: compare_orders(alg, 2, 3, (0,), WindowSpec(1)),
        lambda alg: solve_nder(alg, 4, (1,)),
        _compare_exits_early,
        _is_nder_fails_on_the_first_row,
        _s2_certifies_early,
    ],
    ids=[
        "build_constraints",
        "compare_orders",
        "solve_nder",
        "compare_orders-early-exit",
        "is_nder-first-row",
        "solve_above_s2-certified",
    ],
)
def test_walk_leaves_no_cyclic_garbage(run):
    # everything a call allocates is freed by reference counting on return,
    # also when the consumer stops the row walk early; the algebra, and the
    # order-2 solve compare_orders keeps of it, go once the next comparison
    # replaces that solve
    alg, other = builders.build_sv(WindowSpec(2)), builders.build_counterexample_k()
    gc.collect()
    gc.disable()
    try:
        run(alg)
        assert gc.collect() == 0
        dropped = weakref.ref(alg)
        del alg
        compare_orders(other, 2, 3, (0,), WindowSpec(1))
        assert dropped() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "build, orders",
    [
        (lambda: builders.build_sv(WindowSpec(3)), (2, 3, 4)),
        (lambda: builders.build_witt(2, WindowSpec(1)), (2, 3)),
    ],
    ids=["sv3", "witt2_1"],
)
def test_walk_asks_is_safe_sum_once_per_sum_and_degree(build, orders):
    # the walk keeps one table per right-partial sum, 0 or a present degree,
    # and the mirror skip reads the sum-0 table: no table per innermost
    # element, which would add dim·|degree_set| calls
    alg = build()
    bound = len(alg.degree_set | {alg.zero_degree()}) * len(alg.degree_set)
    for gamma in domain_gammas(alg):
        index = UnknownIndex(alg, gamma)
        for order in orders:
            with mock.patch.object(alg, "is_safe_sum", wraps=alg.is_safe_sum) as spy:
                for _ in constraint_rows(index, order):
                    pass
            assert 0 < spy.call_count <= bound, (gamma, order)


def primitive(dense_row) -> tuple[tuple[int, int], ...]:
    """A dense Fraction row as a primitive integer row: sparse, gcd 1, lead
    entry positive."""
    entries = [(c, v) for c, v in enumerate(dense_row) if v]
    den = math.lcm(*(v.denominator for _, v in entries))
    ints = [(c, int(v * den)) for c, v in entries]
    g = math.gcd(*(v for _, v in ints))
    if ints[0][1] < 0:
        g = -g
    return tuple((c, v // g) for c, v in ints)


_ORACLE_ROW_FAMILIES = {
    # K at order 5: the suffix skip must key on the remaining depth, or it
    # skips states whose earlier twin is still being walked
    "K": (builders.build_counterexample_k, (2, 3, 4, 5)),
    "sl2": (lambda: builders.build_sl(2), (2, 3, 4)),
    "sl3": (lambda: builders.build_sl(3), (2, 3)),
    # sv1 at order 4: the walk skips 57 repeated suffix states at the zero
    # shift alone, and the oracle takes about 2 s over every shift
    "sv1": (lambda: builders.build_sv(WindowSpec(1)), (2, 3, 4)),
    "witt1_1": (lambda: builders.build_witt(1, WindowSpec(1)), (2, 3, 4)),
}


@pytest.mark.parametrize("family", sorted(_ORACLE_ROW_FAMILIES))
def test_pruned_walk_yields_the_oracle_rows(family):
    # The walk skips mirrored innermost pairs; what it yields must still be
    # every distinct primitive row of the oracle's unpruned dense assembly,
    # each exactly once.
    build, orders = _ORACLE_ROW_FAMILIES[family]
    alg = build()
    for gamma in domain_gammas(alg):
        index = UnknownIndex(alg, gamma)
        assert list(index.pairs) == oracle_unknowns(alg, gamma)
        for order in orders:
            rows = list(constraint_rows(index, order))
            assert len(rows) == len(set(rows)), (order, gamma)
            want = {primitive(r) for r in oracle_rows(alg, order, gamma)}
            assert set(rows) == want, (order, gamma)


@st.composite
def small_graded(draw):
    """A small graded algebra, complete or truncated, that need not be Lie:
    one or two basis elements in each of two or three degrees, at most five
    in all (the oracle walks every tuple), and a constant from {±1, ±2} or
    none at each basis element of each degree sum, so insertions at one
    column of a suffix state can cancel.  The grading is 1-D, degrees in
    -2..2, or 2-D, degrees in -1..1 × 0..1, where a degree sum meets a
    degree about as often as in 1-D."""
    grading_dim = draw(st.integers(1, 2))
    coordinates = (
        [st.integers(-2, 2)]
        if grading_dim == 1
        else [st.integers(-1, 1), st.integers(0, 1)]
    )
    degrees = draw(
        st.lists(st.tuples(*coordinates), min_size=2, max_size=3, unique=True)
    )
    sizes = draw(
        st.lists(st.integers(1, 2), min_size=len(degrees), max_size=len(degrees))
        .filter(lambda sizes: sum(sizes) <= 5)
    )
    basis = [
        BasisElement(f"e{d}_{m}", d)
        for d, size in zip(degrees, sizes)
        for m in range(size)
    ]
    brackets = {}
    for i, j in itertools.combinations(range(len(basis)), 2):
        total = add_degrees(basis[i].degree, basis[j].degree)
        terms = []
        for k, e in enumerate(basis):
            c = draw(st.sampled_from((0, 1, -1, 2, -2))) if e.degree == total else 0
            if c:
                terms.append((k, Fraction(c)))
        if terms:
            brackets[(i, j)] = tuple(terms)
    return GradedAlgebra("small", grading_dim, basis, brackets, (), draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(alg=small_graded())
@example(  # a 2-D truncation in which some degree sums are not safe
    alg=GradedAlgebra(
        "small",
        2,
        [
            BasisElement("x", (1, 0)),
            BasisElement("y", (0, 1)),
            BasisElement("z0", (1, 1)),
            BasisElement("z1", (1, 1)),
        ],
        {(0, 1): ((2, Fraction(1)), (3, Fraction(-2)))},
        (),
        True,
    )
)
def test_flat_suffix_state_yields_the_oracle_rows(alg):
    # Summing insertions per column, skipping an all-zero state and keying a
    # state by its primitive form must leave exactly the oracle's distinct
    # primitive rows, each once.
    for order, gamma in itertools.product((2, 3, 4), domain_gammas(alg)):
        rows = list(constraint_rows(UnknownIndex(alg, gamma), order))
        assert len(rows) == len(set(rows)), (order, gamma)
        want = {primitive(r) for r in oracle_rows(alg, order, gamma)}
        assert set(rows) == want, (order, gamma)


_ROW_ORDER_FAMILIES = {
    "K": builders.build_counterexample_k,
    "sl3": lambda: builders.build_sl(3),
    "sv1": lambda: builders.build_sv(WindowSpec(1)),
    "sv2": lambda: builders.build_sv(WindowSpec(2)),
    "sv3": lambda: builders.build_sv(WindowSpec(3)),
    "witt1_3": lambda: builders.build_witt(1, WindowSpec(3)),
    "witt2_1": lambda: builders.build_witt(2, WindowSpec(1)),
    "borel+3": lambda: builders.build_borel(3, "+"),
}

# SHA-256 of repr((gamma, rows)) over every domain shift in order, per
# (family, order), frozen from the walk before its last step was fused; the
# order-5 digests of sv2, sl3 and borel+3 (2-D gradings) were frozen from
# the fused walk, before its last step became partner-driven.
_ROW_ORDER_DIGESTS = {
    ("K", 2): "963e6501ae5271301c81069f44a2ab560edc82f220336c052c325357620b9650",
    ("K", 3): "ab493580dec5cbc7e0c3ca7ccae589c2c91711a6f853369cff95bad25d151bf4",
    ("K", 4): "963e6501ae5271301c81069f44a2ab560edc82f220336c052c325357620b9650",
    ("K", 5): "ab493580dec5cbc7e0c3ca7ccae589c2c91711a6f853369cff95bad25d151bf4",
    ("sl3", 2): "01c51987c49a39bc327d205bfe1142bf762df48b0180ff182cec05df8e231c6e",
    ("sl3", 3): "207e11483c8f0a53e86ae9e33aecf0eb9ae18c1f1c60c5cba8fccebb070041f9",
    ("sl3", 4): "f72cf52e1ccd4af41eeebc14dabfa6143e0fc76f5e339890aa6c13272bd9834c",
    ("sl3", 5): "3c4394e9eb3cb0dfb88d3ec5e08ec4bca8c19db7cea80798f003df1c09a8e928",
    ("sv1", 5): "0b84c7199f308b28674d57c551b3891f4e2573ad1b62eb99052e5be0f7088487",
    ("sv2", 2): "f4f3146e093189673082b0b6c3b2e225cfa22db6bc52a0319755ae6587bafade",
    ("sv2", 3): "b3758bcad91f32ad9e49d9cc704c1cbf190c0d383bb0c8bcb81682f02147fd42",
    ("sv2", 4): "f2711c90d0afdd50c734e243895cf631849b017005c1c1be036271777b794f6f",
    ("sv2", 5): "1c1e75de1064da490793f1829e93790ea5bbcf7b25e1819d7546ed0031f977b9",
    ("sv3", 2): "4016ab3aba5d222f2f176fdb3190e35712f5dca4e0321a62fce7d98c71ce6eae",
    ("sv3", 3): "e4317af89a14e9c28c086566c676c61f99440a9aa05a270d4ddf5b7c9d5ed598",
    ("sv3", 4): "45d89008b2ad7c41d876b60bffb6dd688b061563f9ad27001f0a1c5ea7041ae3",
    ("witt1_3", 2): "028719c9ff8dd49d3a7bfa2e02dc29b716f42ad890d1f31d48e4b9b0c77453c5",
    ("witt1_3", 3): "b5794effb171ce6a79838c08db72d3754be835e7d390339f04470b5ff7ff6c84",
    ("witt1_3", 4): "37c343479fd7f57b52bd319dd4c6a1996050486cd6131f3d885462e6e72f0efa",
    ("witt2_1", 2): "d375a757fbe28bbbc3d2564226fbfcca1395ed9be7f5f70244ce119a1a90005c",
    ("witt2_1", 3): "61c94bf4adbb754d03626d04ddcd481ae0694a5db6a447ad2dea7d87653fa27a",
    ("witt2_1", 4): "7ca7027d846434cef21ba6781915ec9e67e742b874c185e81abcd202372d4faa",
    ("borel+3", 2): "fec4a21dfb468dcb4d538392ec14db4ead40b7e982b131d6a1fa894fa02838d2",
    ("borel+3", 3): "5f3d1d7f000ae0b1825a0a0e6814e1c5d26c7c368a3cd604ca9a774132202d4a",
    ("borel+3", 4): "c6cd23bd4c917eca99fa5fb971cba22da15d998c6f6e1982a3e73370bd30d182",
    ("borel+3", 5): "47e341ca4833118ec813bf234e6b808b5e13992ba15e9cb5a2f0c26077e832ae",
}


@pytest.mark.parametrize("family", sorted(_ROW_ORDER_FAMILIES))
def test_walk_row_order_is_frozen(family):
    # The oracle test checks the row set; compare's examined counts also
    # depend on the order the walk yields its rows in.
    alg = _ROW_ORDER_FAMILIES[family]()
    for (name, order), want in _ROW_ORDER_DIGESTS.items():
        if name != family:
            continue
        digest = hashlib.sha256()
        for gamma in domain_gammas(alg):
            rows = list(constraint_rows(UnknownIndex(alg, gamma), order))
            digest.update(repr((gamma, rows)).encode())
        assert digest.hexdigest() == want, order


def _full_path(index, order, s2):
    """Rows and canonical nullspace of the whole order-N walk, ignoring S₂."""
    rows = tuple(constraint_rows(index, order))
    return len(rows), nullspace(SparseMatrix(len(index), rows))


def check_certified_path(alg, pairs, gamma, inner):
    """compare_orders with the S₂ early exit gives the full walk's nullities,
    dims, verdicts and witnesses, and each order's basis is the full walk's;
    returns the reports with and without the exit."""
    index = UnknownIndex(alg, gamma)
    s2 = solve_nder(alg, 2, gamma)
    orders = {n for pair in pairs for n in pair} - {2}
    full = {n: _full_path(index, n, s2) for n in orders}
    for n in orders:
        examined, basis = _solve_above_s2(index, n, s2)
        assert basis == full[n][1], (n, gamma)
        assert examined <= full[n][0], (n, gamma)
    out = []
    for n1, n2 in pairs:
        got = compare_orders(alg, n1, n2, gamma, inner)
        with mock.patch.object(
            derivations, "_solve_above_s2", lambda index, n, s2: full[n]
        ):
            want = compare_orders(alg, n1, n2, gamma, inner)
        assert dataclasses.replace(got, constraints=None) == dataclasses.replace(
            want, constraints=None
        ), (n1, n2, gamma)
        out.append((got, want))
    return out


_FIXED_FAMILIES = {
    "K": builders.build_counterexample_k,
    "sl3": lambda: builders.build_sl(3),
    "sl4": lambda: builders.build_sl(4),
    "borel+": lambda: builders.build_borel(3, "+"),
    "sv3-nocenter": lambda: builders.build_sv(WindowSpec(3), include_center=False),
    "witt1_4": lambda: builders.build_witt(1, WindowSpec(4)),
}
_LOW_PAIRS = ((2, 3), (2, 4), (3, 4))
_ORDER5_PAIRS = ((3, 5), (2, 5))


@pytest.mark.parametrize("family", sorted(_FIXED_FAMILIES))
def test_certified_exit_matches_full_walk(family):
    alg = _FIXED_FAMILIES[family]()
    inner = WindowSpec(max(_outer_radius(alg) // 2, 1))
    gammas = domain_gammas(alg)
    # The order-5 full walk takes seconds per shift on the two largest
    # algebras, so there it runs at the zero shift and its neighbour only.
    slow = alg.dim > 12
    fired = 0
    for gamma in gammas:
        pairs = _LOW_PAIRS
        if not slow or gamma in gammas[len(gammas) // 2 :][:2]:
            pairs += _ORDER5_PAIRS
        for got, want in check_certified_path(alg, pairs, gamma, inner):
            fired += got.constraints != want.constraints
            if not got.equal:  # an unequal verdict needs the whole walk
                assert got.constraints == want.constraints
    assert fired or family == "K"


@pytest.mark.parametrize("order", [3, 5])
def test_k_odd_orders_walk_to_the_end(k_alg, order):
    # S_N is larger than S₂ here, so the rank never reaches cols − dim S₂
    ((got, want),) = check_certified_path(k_alg, [(2, order)], (-2,), WindowSpec(1))
    assert not got.equal and got.nullities == (0, 1)
    assert got.constraints == want.constraints == (
        build_constraints(k_alg, 2, (-2,))[0].num_rows,
        build_constraints(k_alg, order, (-2,))[0].num_rows,
    )


_SMALL_FAMILIES = {
    "sv1": lambda: builders.build_sv(WindowSpec(1)),
    "sv2": lambda: builders.build_sv(WindowSpec(2)),
    "sv2-nocenter": lambda: builders.build_sv(WindowSpec(2), include_center=False),
    "witt1_2": lambda: builders.build_witt(1, WindowSpec(2)),
    "witt2_1": lambda: builders.build_witt(2, WindowSpec(1)),
    "sl2": lambda: builders.build_sl(2),
    "sl3": lambda: builders.build_sl(3),
    "borel+2": lambda: builders.build_borel(2, "+"),
    "borel-3": lambda: builders.build_borel(3, "-"),
}


@functools.lru_cache(maxsize=None)
def _small(family):
    return _SMALL_FAMILIES[family]()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_certified_exit_matches_full_walk_on_small_algebras(data):
    alg = _small(data.draw(st.sampled_from(sorted(_SMALL_FAMILIES))))
    gamma = data.draw(st.sampled_from(domain_gammas(alg)))
    orders = st.integers(min_value=2, max_value=4)
    pair = (data.draw(orders), data.draw(orders))
    inner = WindowSpec(data.draw(st.integers(1, _outer_radius(alg))))
    check_certified_path(alg, [pair], gamma, inner)


# The oracle takes seconds above these orders on the larger families.
_ORACLE_MAX_ORDER = {"sv2": 3, "sv2-nocenter": 3, "sl3": 3, "witt2_1": 2}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_solver_and_is_inner_match_the_oracle(data):
    family = data.draw(st.sampled_from(sorted(_SMALL_FAMILIES)))
    alg = _small(family)
    gamma = data.draw(st.sampled_from(domain_gammas(alg)))
    order = data.draw(st.integers(2, _ORACLE_MAX_ORDER.get(family, 4)))
    assert solve_nder(alg, order, gamma).dim == oracle_nder_dim(alg, order, gamma)

    # ad(g) on the domain, one dense row per g, over the oracle's unknowns
    pairs = oracle_unknowns(alg, gamma)
    ad = [
        [dense_bracket(alg, unit(g), unit(b)).get(t, Fraction(0)) for b, t in pairs]
        for g in alg.basis_at(gamma)
    ]
    coeffs = st.integers(-2, 2).map(Fraction)
    mix = data.draw(st.lists(coeffs, min_size=len(ad), max_size=len(ad)))
    noise = [Fraction(0)] * len(pairs)
    if data.draw(st.booleans()):
        noise = data.draw(st.lists(coeffs, min_size=len(pairs), max_size=len(pairs)))
    dense = [
        sum(a * row[i] for a, row in zip(mix, ad)) + noise[i] for i in range(len(pairs))
    ]
    images = {}
    for (b, t), c in zip(pairs, dense):
        if c:
            images.setdefault(b, {})[t] = c
    x = is_inner(alg, HomogeneousMap(gamma, images))
    assert (x is None) == (dense_rank(ad + [dense]) > dense_rank(ad))
    if x is not None:
        for b in {b for b, _ in pairs}:
            assert dense_bracket(alg, x, unit(b)) == images.get(b, {})


def test_order2_solve_is_shared_by_consecutive_calls_only():
    # compare_orders reuses its last order-2 solve on the same algebra object
    # at the same gamma; equal algebras and other shifts solve afresh
    def fresh(build, gamma, orders):
        derivations._solve_s2.cache_clear()  # as in a new process
        return compare_orders(build(), *orders, gamma, WindowSpec(1))

    sv2 = functools.partial(builders.build_sv, WindowSpec(2))
    builds = [sv2, sv2, functools.partial(builders.build_witt, 1, WindowSpec(2))]
    algs = [build() for build in builds]
    assert builders.save(algs[0]) == builders.save(algs[1])
    assert algs[0] is not algs[1]
    steps = [
        (0, (1,), (2, 3)), (0, (1,), (2, 4)), (1, (1,), (2, 3)), (0, (1,), (3, 4)),
        (0, (-1,), (2, 4)), (0, (-1,), (2, 3)), (2, (-1,), (2, 4)), (0, (1,), (2, 4)),
        (0, (1,), (4, 3)), (2, (1,), (2, 3)), (2, (1,), (2, 4)),
    ]
    want = [fresh(builds[i], gamma, orders) for i, gamma, orders in steps]
    build = derivations.build_constraints
    with mock.patch.object(derivations, "build_constraints", wraps=build) as spy:
        got = [compare_orders(algs[i], *orders, gamma, WindowSpec(1))
               for i, gamma, orders in steps]
    assert got == want
    # one order-2 build per run of consecutive calls on one (algebra, gamma)
    runs = [key for key, _ in itertools.groupby((i, g) for i, g, _ in steps)]
    calls = [(id(c.args[0]),) + c.args[1:] for c in spy.call_args_list]
    assert calls == [(id(algs[i]), 2, g) for i, g in runs]


def test_certified_exit_examines_few_rows():
    # Of a mirrored innermost pair the walk keeps the tuple with the smaller
    # element innermost, which it meets first, so rows of every innermost
    # element come early.  Skipping the other orientation examined 2,244
    # rows here instead of 993.
    alg = builders.build_sv(WindowSpec(3))
    examined = 0
    for g in range(-3, 4):
        for order in (3, 4):
            report = compare_orders(alg, 2, order, (g,), WindowSpec(3))
            examined += report.constraints[1]
    assert examined < 1200


def test_wrong_s2_falls_back_to_the_full_walk(sv2):
    index = UnknownIndex(sv2, (0,))
    s2 = solve_nder(sv2, 2, (0,))
    full = _full_path(index, 4, s2)
    examined, basis = _solve_above_s2(index, 4, s2)
    assert basis == full[1] and examined < full[0]  # the exit fires on S₂
    cols = len(index)
    units = tuple(SparseVector(((c, Fraction(1)),)) for c in range(cols))
    outside = next(u for u in units if not vector_in_span(u, s2))
    wrong = [
        SubspaceBasis(cols, units[: s2.dim]),  # right dimension, wrong space
        SubspaceBasis(cols, s2.vectors[1:]),  # too small: the goal is never met
        SubspaceBasis(cols, s2.vectors + (outside,)),  # too large: met early
    ]
    for w in wrong:
        assert w != s2
        assert _solve_above_s2(index, 4, w) == full


_RESCALES = tuple(Fraction(c) for c in (1, -1, 2, -2, "1/2", "-1/2"))


def relabelled(alg: GradedAlgebra, rng: random.Random) -> GradedAlgebra:
    """``alg`` in a permuted basis whose elements are also rescaled, a
    diagonal change of basis inside each graded component: new element p is
    s_p times old element old[p]."""
    old = list(range(alg.dim))
    rng.shuffle(old)
    new = {o: p for p, o in enumerate(old)}
    s = [rng.choice(_RESCALES) for _ in old]
    basis = [
        BasisElement(alg.label(o), alg.degree_of(o)) for o in old
    ]
    brackets = {}
    for (i, j), terms in alg.brackets.items():
        a, b = new[i], new[j]
        # [e'_a, e'_b] = s_a s_b [e_i, e_j], and e_k = e'_new[k] / s_new[k]
        out = sorted((new[k], s[a] * s[b] * c / s[new[k]]) for k, c in terms)
        if a > b:
            a, b, out = b, a, [(k, -c) for k, c in out]
        brackets[(a, b)] = tuple(out)
    cartan = {new[h] for h in alg.cartan}
    return GradedAlgebra(
        alg.name, alg.grading_dim, basis, brackets, cartan, alg.truncated
    )


# family: (build, the oracle's highest order, the highest order).  Above the
# oracle's highest order the relabelled system is checked against the
# original basis only.  From order 4 on the walk skips repeated suffix
# states, whose primitive key the rescaling changes.
_RELABEL_FAMILIES = {
    "borel+": (lambda: builders.build_borel(3, "+"), 4, 4),
    "borel-": (lambda: builders.build_borel(3, "-"), 4, 4),
    "sl2": (lambda: builders.build_sl(2), 4, 4),
    "sl3": (lambda: builders.build_sl(3), 3, 4),
    "sv1": (lambda: builders.build_sv(WindowSpec(1)), 3, 5),
    "sv1-nocenter": (
        lambda: builders.build_sv(WindowSpec(1), include_center=False), 3, 3
    ),
    "witt1": (lambda: builders.build_witt(1, WindowSpec(2)), 4, 4),
    "sv2": (lambda: builders.build_sv(WindowSpec(2)), 2, 4),
    "witt2_1": (lambda: builders.build_witt(2, WindowSpec(1)), 2, 4),
}


@pytest.mark.parametrize("seed, family", enumerate(_RELABEL_FAMILIES))
def test_relabelling_keeps_nullities(seed, family):
    # nullities do not depend on the basis, and nor does the number of
    # distinct rows up to scaling, since a relabelling maps each row to a
    # multiple of a row; the oracle checks the relabelled system
    # independently of the walker
    build, oracle_top, top = _RELABEL_FAMILIES[family]
    alg = build()
    other = relabelled(alg, random.Random(seed))
    assert other.validate().valid
    for order in range(2, top + 1):
        for gamma in domain_gammas(alg):
            got, _ = build_constraints(other, order, gamma)
            want, _ = build_constraints(alg, order, gamma)
            assert got.num_rows == want.num_rows, (order, gamma)
            dim = nullspace(got).dim
            assert dim == nullspace(want).dim, (order, gamma)
            if order <= oracle_top:
                assert dim == oracle_nder_dim(other, order, gamma), (order, gamma)


def mixed_within_components(alg: GradedAlgebra, rng: random.Random) -> GradedAlgebra:
    """``alg`` in a new basis from a random invertible rational matrix A
    inside each graded component: new element p is sum_o A[p][o] e_o."""
    new_of: dict[int, dict] = {}  # e'_p over the old basis
    old_in_new: dict[int, dict] = {}  # e_o over the new basis, from A^-1
    for degree in sorted(alg.degree_set):
        members = alg.basis_at(degree)
        n = len(members)
        while True:
            a = [
                [Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))) for _ in members]
                for _ in members
            ]
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            rows, pivots = dense_rref([r + e for r, e in zip(a, eye)], 2 * n)
            if pivots == list(range(n)):  # [A | I] reduces to [I | A^-1]
                break
        for p, row in zip(members, a):
            new_of[p] = {o: c for o, c in zip(members, row) if c}
        for o, row in zip(members, rows):
            old_in_new[o] = {p: c for p, c in zip(members, row[n:]) if c}
    brackets = {}
    for i, j in itertools.combinations(range(alg.dim), 2):
        out: dict[int, Fraction] = {}
        for k, c in alg.bracket(new_of[i], new_of[j]).items():
            for p, d in old_in_new[k].items():
                out[p] = out.get(p, 0) + c * d
        terms = tuple((p, c) for p, c in sorted(out.items()) if c)
        if terms:
            brackets[(i, j)] = terms
    return GradedAlgebra(
        alg.name, alg.grading_dim, alg.basis, brackets, alg.cartan, alg.truncated
    )


# On witt d=2 the order-3 oracle spends most of its time at the eight nonzero
# shifts with every |coordinate| <= 1.  Every nullity there is 0, so those
# shifts are checked against the original basis only.
_WITT2_INNER = {g for g in itertools.product((-1, 0, 1), repeat=2) if any(g)}


@pytest.mark.parametrize(
    "seed, build, no_oracle_at_3",
    [
        (11, lambda: builders.build_sv(WindowSpec(1)), set()),  # a 3-dim degree 0
        (12, lambda: builders.build_witt(2, WindowSpec(1)), _WITT2_INNER),
        (13, lambda: builders.build_sl(3), set()),  # the Cartan
    ],
    ids=["sv1", "witt2", "sl3"],
)
def test_change_of_basis_keeps_nullities(seed, build, no_oracle_at_3):
    # nullities do not depend on the basis, here one that mixes the elements
    # of each graded component, so the rows' pivot entries grow large
    alg = build()
    mixed = mixed_within_components(alg, random.Random(seed))
    other = builders.load(builders.save(mixed))
    assert builders.save(other) == builders.save(mixed)
    for order in (2, 3):
        for gamma in domain_gammas(alg):
            dim = solve_nder(other, order, gamma).dim
            assert dim == solve_nder(alg, order, gamma).dim, (order, gamma)
            if order == 3 and gamma in no_oracle_at_3:
                continue
            assert dim == oracle_nder_dim(other, order, gamma), (order, gamma)


class TestSolveNder:
    def test_k_gamma_minus2_orders(self, k_alg):
        phi = counterexample_map(k_alg)
        basis3 = solve_nder(k_alg, 3, (-2,))
        _, index = build_constraints(k_alg, 3, (-2,))
        coords = index.encode(phi)
        assert basis3.dim == 1
        v = basis3.vectors[0]
        assert dict(v.entries) == coords
        assert solve_nder(k_alg, 2, (-2,)).dim == 0

    def test_sl2_triple_matches_ordinary(self, sl2):
        b2 = solve_nder(sl2, 2, (0,))
        b3 = solve_nder(sl2, 3, (0,))
        assert b2.dim == b3.dim == 1
        assert row_space_equal(b2, b3)

    def test_matches_oracle_on_small_algebras(self, k_alg, sl2, borel_plus):
        for alg in (k_alg, sl2, borel_plus):
            for gamma in oracle_gammas(alg):
                for order in (2, 3):
                    assert (
                        solve_nder(alg, order, gamma).dim
                        == oracle_nder_dim(alg, order, gamma)
                    ), (alg.name, order, gamma)

    def test_matches_oracle_on_truncations(self, sv1, witt1):
        for alg in (sv1, witt1):
            for gamma in [(-1,), (0,), (1,), (2,)]:
                for order in (2, 3):
                    assert (
                        solve_nder(alg, order, gamma).dim
                        == oracle_nder_dim(alg, order, gamma)
                    ), (alg.name, order, gamma)

    def test_sl3_n4_matches_oracle(self, sl3):
        assert solve_nder(sl3, 4, (0, 0)).dim == oracle_nder_dim(sl3, 4, (0, 0)) == 2


class TestIsNder:
    def test_counterexample_parity(self, k_alg):
        # the map M_1 -> M_-1 at gamma = -2 and its mirror M_-1 -> M_1 at +2
        mirror = HomogeneousMap(
            (2,), {k_alg.index_of("M_-1"): {k_alg.index_of("M_1"): Fraction(1)}}
        )
        for phi in (counterexample_map(k_alg), mirror):
            got = {n: is_nder(k_alg, phi, n) for n in range(2, 8)}
            assert got == {2: False, 3: True, 4: False, 5: True, 6: False, 7: True}

    def test_ill_formed_map_rejected(self, k_alg):
        bad = HomogeneousMap((-2,), {0: {1: Fraction(1)}})  # L_0 -> M_1 shifts by +1
        with pytest.raises(ValueError):
            is_nder(k_alg, bad, 2)

    def test_ordinary_derivations_remain_nderivations(self, k_alg, sl2, sv2):
        # solutions at order 2 stay solutions at every higher order tested
        for alg in (k_alg, sl2, sv2):
            for gamma in [(-1,), (0,), (1,)]:
                _, index = build_constraints(alg, 2, gamma)
                for v in solve_nder(alg, 2, gamma).vectors:
                    phi = index.decode(v)
                    for order in (3, 4):
                        assert is_nder(alg, phi, order), (alg.name, gamma, order)


class TestCompareOrders:
    def test_sl2_equal(self, sl2):
        rep = compare_orders(sl2, 2, 3, (0,), WindowSpec(1))
        assert rep.equal and rep.dims == (1, 1, 1)
        assert rep.witness is None

    def test_k_unequal_with_witness(self, k_alg):
        rep = compare_orders(k_alg, 2, 3, (-2,), WindowSpec(1))
        assert not rep.equal
        assert rep.dims == (0, 1, 0)
        assert rep.witness_side == "second"
        pair = rep.projected_pairs[rep.witness.entries[0][0]]
        assert (k_alg.label(pair[0]), k_alg.label(pair[1])) == ("M_1", "M_-1")

    @pytest.mark.parametrize("even", [4, 6])
    def test_k_even_order_equal(self, k_alg, even):
        rep = compare_orders(k_alg, 2, even, (-2,), WindowSpec(1))
        assert rep.equal and rep.dims == (0, 0, 0)

    @pytest.mark.parametrize(
        "orders,side,dims",
        [
            ((2, 3), "second", (0, 1, 0)),
            ((4, 5), "second", (0, 1, 0)),
            ((3, 4), "first", (1, 0, 0)),
            ((3, 2), "first", (1, 0, 0)),
        ],
    )
    def test_k_witness_lies_in_one_space_only(self, k_alg, orders, side, dims):
        gamma = (-2,)
        rep = compare_orders(k_alg, *orders, gamma, WindowSpec(1))
        assert not rep.equal and rep.dims == dims and rep.witness_side == side
        index = UnknownIndex(k_alg, gamma)
        cols = [index.column(b, t) for b, t in rep.projected_pairs]
        spaces = [project_basis(solve_nder(k_alg, n, gamma), cols) for n in orders]
        assert [vector_in_span(rep.witness, p) for p in spaces] == [
            side == "first",
            side == "second",
        ]

    @pytest.mark.parametrize("order", range(3, 8))
    @pytest.mark.parametrize("gamma", [(-2,), (2,)])
    def test_k_parity_at_both_shifts(self, k_alg, gamma, order):
        rep = compare_orders(k_alg, 2, order, gamma, WindowSpec(1))
        if order % 2:
            assert not rep.equal and rep.nullities == (0, 1)
            assert rep.witness_side == "second"
        else:
            assert rep.equal and rep.nullities == (0, 0)

    def test_self_comparison(self, sv2):
        for gamma in [(-2,), (0,), (3,)]:
            rep = compare_orders(sv2, 3, 3, gamma, WindowSpec(2))
            assert rep.equal

    def test_inner_window_contract(self, k_alg):
        with pytest.raises(ValueError):
            compare_orders(k_alg, 2, 3, (0,), WindowSpec(2))

    def test_all_degrees_zero(self):
        # an abelian algebra graded entirely in degree 0: the window radius
        # is 1, the least a WindowSpec takes, and the projection keeps every
        # column
        basis = [BasisElement("a", (0,)), BasisElement("b", (0,))]
        alg = GradedAlgebra("flat", 1, basis, {}, [0, 1])
        rep = compare_orders(alg, 2, 3, (0,), WindowSpec(1))
        assert rep.outer_max_abs == rep.inner_max_abs == 1
        assert rep.projected_pairs == UnknownIndex(alg, (0,)).pairs
        assert rep.equal and rep.nullities == (4, 4) and rep.dims == (4, 4, 4)


def ad_map(alg: GradedAlgebra, gamma, x) -> HomogeneousMap:
    """ad(x) restricted to the domain at shift gamma."""
    images = {b: alg.bracket(x, unit(b)) for b in UnknownIndex(alg, gamma).domain}
    return HomogeneousMap(gamma, {b: img for b, img in images.items() if img})


def inner_probe_maps(alg: GradedAlgebra):
    """(gamma, kind, map) at every domain shift: each order-2 solution, two
    ad(x) maps and two random maps with seeded small coefficients, and the
    zero map."""
    rng = random.Random(0)

    def coeff():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    for gamma in domain_gammas(alg):
        index = UnknownIndex(alg, gamma)
        for v in solve_nder(alg, 2, gamma).vectors:
            yield gamma, "order-2", index.decode(v)
        for _ in range(2):
            x = {g: c for g in alg.basis_at(gamma) if (c := coeff())}
            yield gamma, "ad", ad_map(alg, gamma, x)
        for _ in range(2):
            v = {col: c for col in range(len(index)) if (c := coeff())}
            yield gamma, "random", index.decode(SparseVector.from_dict(v))
        yield gamma, "zero", HomogeneousMap(gamma, {})


_INNER_FAMILIES = {
    "K": builders.build_counterexample_k,
    "sl2": lambda: builders.build_sl(2),
    "sl3": lambda: builders.build_sl(3),
    "borel+3": lambda: builders.build_borel(3, "+"),
    "sv2": lambda: builders.build_sv(WindowSpec(2)),
    "sv2-nocenter": lambda: builders.build_sv(WindowSpec(2), include_center=False),
    "witt1_2": lambda: builders.build_witt(1, WindowSpec(2)),
    "witt2_1": lambda: builders.build_witt(2, WindowSpec(1)),
}

# SHA-256 of repr((gamma, kind, answer)) over ``inner_probe_maps``, per
# family, frozen from the solver that preceded the nullspace reading.
_INNER_DIGESTS = {
    "K": "ab7bc875ed2a14452d73f7a4f5c78812afa7a381ea06cfe6a34d7b781cd7e2c5",
    "sl2": "ba42706e3ed9b968d001972190d00db39574652cb6e9e65b8dd0d5c69bba9745",
    "sl3": "1b7eae5f77739f6ede9bfe75b7d2f85e3614e8afbe4048f0ac8d169902832fda",
    "borel+3": "5ff8faf26d485f533c7f80e8fb72ff104b50acb343346556a66fd53c84de6b66",
    "sv2": "62fe9627f994cfe1f33ca36237bf59bce748121134d5ec296da9e855db363504",
    "sv2-nocenter": "d1f1ed94f60adc4e9d69424aefd163b80b49611681330f95e9bf0ea35b112fb7",
    "witt1_2": "d1478766014a30ff23006d1950b62325a8defddd7925d5ffc44c089662ff7ce9",
    "witt2_1": "99fa05ca23666702259800cf5bc23cc964fc0d1e9cd380bb4b6d4e2596addfa7",
}


class TestIsInner:
    def test_bad_pairs_are_rejected(self, sv2):
        gamma = (1,)
        index = UnknownIndex(sv2, gamma)
        last = sv2.dim - 1
        # a target of -1 must not wrap onto the real unknown (source, last)
        source = next(b for b, t in index.pairs if t == last)
        outside = next(b for b in range(sv2.dim) if b not in index.domain)
        for b, t in [(source, -1), (source, sv2.dim), (outside, 0)]:
            with pytest.raises(KeyError):
                index.column(b, t)
            phi = HomogeneousMap(gamma, {b: {t: Fraction(1)}})
            with pytest.raises(ValueError):
                index.encode(phi)
            with pytest.raises(ValueError):
                is_inner(sv2, phi)

    def test_ad_h_recovers_h(self, sl2):
        h = sl2.index_of("H_1")
        phi = HomogeneousMap(
            (0,),
            {
                sl2.index_of("E(1,2)"): {sl2.index_of("E(1,2)"): Fraction(2)},
                sl2.index_of("E(2,1)"): {sl2.index_of("E(2,1)"): Fraction(-2)},
            },
        )
        assert is_inner(sl2, phi) == {h: Fraction(1)}

    def test_counterexample_map_is_outer(self, k_alg):
        assert is_inner(k_alg, counterexample_map(k_alg)) is None

    def test_zero_map(self, k_alg, sl2):
        for alg in (k_alg, sl2):
            assert is_inner(alg, HomogeneousMap((0,) * alg.grading_dim, {})) == {}

    def test_answers_are_frozen(self):
        # is_inner's answer to every probe map, None or x, hashed per family
        for family, want in _INNER_DIGESTS.items():
            alg = _INNER_FAMILIES[family]()
            digest = hashlib.sha256()
            for gamma, kind, phi in inner_probe_maps(alg):
                x = is_inner(alg, phi)
                answer = None if x is None else sorted(x.items())
                digest.update(repr((gamma, kind, answer)).encode())
            assert digest.hexdigest() == want, family

    def test_dependent_generators_get_zero(self, sv2):
        # M_0 and the centre C are central, so their coefficients in x are
        # free; the answer sets them to zero, and so recovers L_0 alone from
        # ad(3·L_0 − M_0/2 + 5·C)
        gamma = (0,)
        l0, m0, c = (sv2.index_of(label) for label in ("L_0", "M_0", "C"))
        assert sv2.basis_at(gamma) == (l0, m0, c)
        assert ad_map(sv2, gamma, {m0: Fraction(1), c: Fraction(1)}).images == {}
        x = {l0: Fraction(3), m0: Fraction(-1, 2), c: Fraction(5)}
        assert is_inner(sv2, ad_map(sv2, gamma, x)) == {l0: Fraction(3)}

    def test_inconsistent_map_is_none(self, sl2):
        # ad(x) at degree 0 is a multiple of ad(H), which scales E and F by
        # opposite amounts; E -> E with F fixed matches no such multiple
        e, f = sl2.index_of("E(1,2)"), sl2.index_of("E(2,1)")
        phi = HomogeneousMap((0,), {e: {e: Fraction(1)}})
        assert is_inner(sl2, phi) is None
        phi = HomogeneousMap((0,), {e: {e: Fraction(1)}, f: {f: Fraction(-1)}})
        assert is_inner(sl2, phi) == {sl2.index_of("H_1"): Fraction(1, 2)}

    def test_every_sl3_solution_is_inner(self, sl3):
        for gamma in domain_gammas(sl3):
            _, index = build_constraints(sl3, 2, gamma)
            for v in solve_nder(sl3, 2, gamma).vectors:
                phi = index.decode(v)
                x = is_inner(sl3, phi)
                assert x is not None
                # ad(x) really does agree with phi on its domain
                for b in index.domain:
                    img = sl3.bracket(x, unit(b))
                    assert img == phi.images.get(b, {})


class TestDecompose:
    def test_two_components(self, k_alg):
        l0, m1, mm1 = (k_alg.index_of(l) for l in ("L_0", "M_1", "M_-1"))
        parts = decompose_homogeneous(
            k_alg, {l0: {m1: Fraction(1), mm1: Fraction(1)}}
        )
        assert [shift for shift, _ in parts] == [(-1,), (1,)]
        assert parts[0][1].images == {l0: {mm1: Fraction(1)}}
        assert parts[1][1].images == {l0: {m1: Fraction(1)}}

    def test_counterexample_map_is_single_component(self, k_alg):
        phi = counterexample_map(k_alg)
        parts = decompose_homogeneous(k_alg, dict(phi.images))
        assert len(parts) == 1 and parts[0][0] == (-2,)

    def test_ad_of_homogeneous_is_single_component(self, sv2):
        x = unit(sv2.index_of("L_2"))
        images = {}
        for b in range(sv2.dim):
            img = sv2.bracket(x, unit(b))
            if img:
                images[b] = img
        parts = decompose_homogeneous(sv2, images)
        assert len(parts) == 1 and parts[0][0] == (4,)

    def test_round_trip_random(self, sv2, sl3):
        rng = random.Random(20240817)
        for alg in (sv2, sl3):
            for _ in range(25):
                images = {}
                for b in range(alg.dim):
                    img = {}
                    for _ in range(rng.randrange(3)):
                        img[rng.randrange(alg.dim)] = Fraction(
                            rng.choice([-2, -1, 1, 2])
                        )
                    if img:
                        images[b] = img
                parts = decompose_homogeneous(alg, images)
                rebuilt = {}
                for shift, comp in parts:
                    for b, img in comp.images.items():
                        for t, c in img.items():
                            assert (
                                tuple(
                                    x - y
                                    for x, y in zip(
                                        alg.degree_of(t), alg.degree_of(b)
                                    )
                                )
                                == shift
                            )
                            bucket = rebuilt.setdefault(b, {})
                            bucket[t] = bucket.get(t, Fraction(0)) + c
                rebuilt = {
                    b: {t: c for t, c in img.items() if c}
                    for b, img in rebuilt.items()
                }
                rebuilt = {b: img for b, img in rebuilt.items() if img}
                assert rebuilt == images


class TestPropertyP:
    def test_sv_l1_p2(self, sv4):
        w = check_property_p(sv4, unit(sv4.index_of("L_1")))
        assert w.kind == "P2"
        assert w.partner == unit(sv4.index_of("L_-1"))
        assert verify_property_witness(sv4, w)

    def test_sv_m1_p1(self, sv4):
        w = check_property_p(sv4, unit(sv4.index_of("M_1")))
        assert w.kind == "P1"
        assert w.beta not in ((0,), (2,))
        assert verify_property_witness(sv4, w)

    def test_counterexample_none_found(self, k_alg):
        for lbl in ("M_1", "M_-1"):
            w = check_property_p(k_alg, unit(k_alg.index_of(lbl)))
            assert w.kind == "none-found"

    def test_degree_zero_rejected(self, sv4):
        with pytest.raises(ValueError):
            check_property_p(sv4, unit(sv4.index_of("L_0")))

    def test_random_combination_element(self, sv4):
        # a generic element of a two-dimensional component, found by sampling
        x = {
            sv4.index_of("L_1"): Fraction(1),
            sv4.index_of("M_1"): Fraction(3),
        }
        w = check_property_p(sv4, x, samples=40, seed=7)
        assert w.kind in ("P1", "P2")
        assert verify_property_witness(sv4, w)

    def test_deterministic_given_seed(self, sv4):
        x = {
            sv4.index_of("L_2"): Fraction(2),
            sv4.index_of("M_2"): Fraction(-1),
        }
        w1 = check_property_p(sv4, x, samples=10, seed=3)
        w2 = check_property_p(sv4, x, samples=10, seed=3)
        assert w1 == w2

    def test_basis_pairs_come_before_samples(self, sv4):
        # a basis-pair witness needs no samples, and no budget changes it
        elements = [
            b
            for b in range(sv4.dim)
            if sv4.label(b)[0] in "MY" and sv4.degree_of(b) != (0,)
        ]
        assert len(elements) == 16
        for b in elements:
            w = check_property_p(sv4, unit(b), samples=0)
            assert w.kind == "P1" and len(w.left) == len(w.right) == 1
            for budget in ({}, {"samples": 5, "seed": 9}):
                assert check_property_p(sv4, unit(b), **budget) == w


class TestOuterQuotient:
    def test_sv_degree_zero_outer_dimension(self, sv4):
        # At shift zero the window M=4 solution space is 4-dimensional; the
        # only nonzero adjoint map from the Cartan is ad(L_0) (M_0 and C are
        # central), so the quotient by inner derivations has dimension 3.
        from gradedlie.linalg import Echelon, SparseVector

        basis = solve_nder(sv4, 2, (0,))
        assert basis.dim == 4
        _, index = build_constraints(sv4, 2, (0,))
        ad_vecs = []
        for h in sorted(sv4.cartan):
            coeffs = {}
            for b in index.domain:
                for t, c in sv4.bracket(unit(h), unit(b)).items():
                    coeffs[index.column(b, t)] = c
            if coeffs:
                vec = SparseVector.from_dict(coeffs)
                assert vector_in_span(vec, basis)
                ad_vecs.append(vec)
        inner_rank = Echelon(len(index), (v.entries for v in ad_vecs)).rank
        assert inner_rank == 1
        assert basis.dim - inner_rank == 3


class TestAdIsDerivation:
    def test_complete_algebras_all_degrees(self, sl3, borel_plus, k_alg):
        for alg in (sl3, borel_plus, k_alg):
            for x_idx in range(alg.dim):
                gamma = alg.degree_of(x_idx)
                index = UnknownIndex(alg, gamma)
                images = {}
                for b in index.domain:
                    img = alg.bracket(unit(x_idx), unit(b))
                    if img:
                        images[b] = img
                phi = HomogeneousMap(gamma, images)
                assert is_nder(alg, phi, 2), (alg.name, alg.label(x_idx))

    def test_truncation_degree_zero(self, sv2, witt1):
        for alg in (sv2, witt1):
            for h in sorted(alg.cartan):
                index = UnknownIndex(alg, alg.zero_degree())
                images = {}
                for b in index.domain:
                    img = alg.bracket(unit(h), unit(b))
                    if img:
                        images[b] = img
                phi = HomogeneousMap(alg.zero_degree(), images)
                assert is_nder(alg, phi, 2)
                assert is_nder(alg, phi, 3)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: a safe tuple holding a source outside the "
        "domain emits rows that force its image to zero",
    )
    def test_truncation_nonzero_shifts(self, sv2):
        # today every ad(x)|domain below fails order 2 and S_2 is zero
        for gamma in [(1,), (2,), (-2,), (4,)]:
            index = UnknownIndex(sv2, gamma)
            for x in sv2.basis_at(gamma):
                images = {b: sv2.bracket(unit(x), unit(b)) for b in index.domain}
                assert is_nder(sv2, HomogeneousMap(gamma, images), 2)
            assert solve_nder(sv2, 2, gamma).dim > 0
