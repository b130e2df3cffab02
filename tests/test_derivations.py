import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedlie import builders
from gradedlie.algebra import GradedAlgebra
from gradedlie.builders import WindowSpec
from gradedlie.derivations import (
    HomogeneousMap,
    SearchBudget,
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
from gradedlie.linalg import (
    SubspaceBasis,
    nullspace,
    row_space_equal,
    vector_in_span,
)

from oracle import oracle_gammas, oracle_nder_dim


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
    # every row is a primitive integer vector with a positive lead entry
    alg, systems = _unscaled_systems(family)
    other = scaled(alg, c)
    for order, gamma in systems:
        matrix, _ = build_constraints(other, order, gamma)
        for row in matrix.rows:
            values = [v for _, v in row.entries]
            assert all(type(v) is Fraction and v.denominator == 1 for v in values)
            assert math.gcd(*(v.numerator for v in values)) == 1
            assert values[0] > 0


class TestSolveNder:
    def test_k_gamma_minus2_orders(self, k_alg):
        phi = counterexample_map(k_alg)
        basis3 = solve_nder(k_alg, 3, (-2,))
        _, index = build_constraints(k_alg, 3, (-2,))
        coords = index.encode(phi)
        assert basis3.dim == 1
        v = basis3.vectors[0]
        assert v.to_dict() == coords
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
        phi = counterexample_map(k_alg)
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

    def test_self_comparison(self, sv2):
        for gamma in [(-2,), (0,), (3,)]:
            rep = compare_orders(sv2, 3, 3, gamma, WindowSpec(2))
            assert rep.equal

    def test_inner_window_contract(self, k_alg):
        with pytest.raises(ValueError):
            compare_orders(k_alg, 2, 3, (0,), WindowSpec(2))


class TestIsInner:
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
        w = check_property_p(sv4, x, SearchBudget(samples=40, seed=7))
        assert w.kind in ("P1", "P2")
        assert verify_property_witness(sv4, w)

    def test_deterministic_given_seed(self, sv4):
        x = {
            sv4.index_of("L_2"): Fraction(2),
            sv4.index_of("M_2"): Fraction(-1),
        }
        w1 = check_property_p(sv4, x, SearchBudget(samples=10, seed=3))
        w2 = check_property_p(sv4, x, SearchBudget(samples=10, seed=3))
        assert w1 == w2


class TestOuterQuotient:
    def test_sv_degree_zero_outer_dimension(self, sv4):
        # At shift zero the window M=4 solution space is 4-dimensional; the
        # only nonzero adjoint map from the Cartan is ad(L_0) (M_0 and C are
        # central), so the quotient by inner derivations has dimension 3.
        from gradedlie.linalg import SparseVector, _rank_of_rows

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
        inner_rank = _rank_of_rows(tuple(ad_vecs), len(index))
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
