import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from gradedlie.algebra import BasisElement, GradedAlgebra, add_degrees
from gradedlie import builders
from gradedlie.builders import WindowSpec
from gradedlie.cli import main
from gradedlie.derivations import (
    HomogeneousMap,
    build_constraints,
    compare_orders,
    domain_gammas,
    is_nder,
    solve_nder,
)


def unit(i):
    return {i: Fraction(1)}


def el(alg, **coeffs):
    """Element from label=coefficient keyword pairs ('L_1' spelled 'L_1')."""
    return {alg.index_of(lbl): Fraction(c) for lbl, c in coeffs.items()}


def sv_el(alg, pairs):
    return {alg.index_of(lbl): Fraction(c) for lbl, c in pairs.items()}


class TestBracket:
    def test_sv_l1_lm1(self, sv2):
        # central part vanishes at n = -1
        out = sv2.bracket(sv_el(sv2, {"L_1": 1}), sv_el(sv2, {"L_-1": 1}))
        assert out == sv_el(sv2, {"L_0": -2})

    def test_sv_l2_lm2_central(self, sv2):
        out = sv2.bracket(sv_el(sv2, {"L_2": 1}), sv_el(sv2, {"L_-2": 1}))
        assert out == sv_el(sv2, {"L_0": -4, "C": Fraction(-1, 2)})

    def test_sv_m_y_zero(self, sv2):
        assert sv2.bracket(sv_el(sv2, {"M_1": 1}), sv_el(sv2, {"Y_1/2": 1})) == {}

    def test_out_of_range_index(self, sv2):
        with pytest.raises(ValueError):
            sv2.bracket({999: Fraction(1)}, unit(0))

    def test_bilinearity(self, sv2):
        x = sv_el(sv2, {"L_1": 2, "M_-1": Fraction(1, 3)})
        y = sv_el(sv2, {"L_-2": 1, "Y_1/2": -1})
        z = sv_el(sv2, {"L_0": 5})
        lhs = sv2.bracket(x, {k: v for k, v in {**y, **z}.items()})
        # y and z have disjoint support here, so the merge above is y + z
        rhs = sv2.bracket(x, y)
        for k, v in sv2.bracket(x, z).items():
            rhs[k] = rhs.get(k, Fraction(0)) + v
        assert lhs == {k: v for k, v in rhs.items() if v}


    def test_int_inputs_give_fractions(self, sv2):
        # sv's constants have denominator 2, so every evaluation goes through
        # the one division by the integer table's scale
        assert sv2._scale == 2
        for i in range(sv2.dim):
            for j in range(sv2.dim):
                out = sv2.bracket({i: 1}, {j: 1})
                assert all(type(c) is Fraction for c in out.values())
                assert out == oracle.dense_bracket(sv2, {i: 1}, {j: 1})
        x = {sv2.index_of("L_2"): 1, sv2.index_of("Y_1/2"): -3}
        y = {sv2.index_of("L_-2"): 2, sv2.index_of("Y_-1/2"): 1}
        out = sv2.bracket(x, y)
        assert all(type(c) is Fraction for c in out.values())
        assert any(c.denominator == 2 for c in out.values())
        assert out == oracle.dense_bracket(sv2, x, y)


class TestNBracket:
    def test_sv_triple(self, sv2):
        l1, lm1 = sv_el(sv2, {"L_1": 1}), sv_el(sv2, {"L_-1": 1})
        out = sv2.bracket(l1, sv2.bracket(lm1, l1))
        assert out == sv_el(sv2, {"L_1": -2})

    def test_repeated_argument_vanishes(self, sv2):
        x = sv_el(sv2, {"L_2": 1, "M_1": 3})
        y = sv_el(sv2, {"Y_-1/2": 1, "L_-1": 2})
        assert sv2.bracket(x, sv2.bracket(y, y)) == {}

    def test_sl2_h_h_e(self, sl2):
        # oracle: direct 2x2 matrix commutators
        def comm(a, b):
            n = 2
            return [
                [
                    sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]

        e = [[0, 1], [0, 0]]
        h = [[1, 0], [0, -1]]
        expected = comm(h, comm(h, e))
        assert expected == [[0, 4], [0, 0]]  # 4·e
        h1, e12 = unit(sl2.index_of("H_1")), unit(sl2.index_of("E(1,2)"))
        out = sl2.bracket(h1, sl2.bracket(h1, e12))
        assert out == {sl2.index_of("E(1,2)"): Fraction(4)}

    def test_n2_matches_bracket(self, sv2):
        # the N = 2 case of the oracle's nested bracket is the bracket
        x = sv_el(sv2, {"L_1": 1, "Y_1/2": 2})
        y = sv_el(sv2, {"L_-1": 3})
        assert oracle.dense_nested(sv2, [x, y]) == sv2.bracket(x, y)


def cartan_eigenvalue(alg, h, x):
    """The scalar a with [e_h, e_x] = a e_x, read off the stored bracket."""
    out = alg.bracket(unit(h), unit(x))
    assert len(out) <= 1 and all(k == x for k in out)
    return out[x] if out else 0


def safe_tuple(alg, degs, gamma):
    """A tuple is safe when every right-partial degree sum is."""
    s = alg.zero_degree()
    for d in reversed(degs):
        s = tuple(a + b for a, b in zip(s, d))
        if not alg.is_safe_sum(s, gamma):
            return False
    return True


class TestRootFunctional:
    def test_sv_l0_l3(self, sv4):
        assert cartan_eigenvalue(sv4, sv4.index_of("L_0"), sv4.index_of("L_3")) == 3

    def test_sv_m0_l3(self, sv4):
        assert cartan_eigenvalue(sv4, sv4.index_of("M_0"), sv4.index_of("L_3")) == 0

    def test_sv_half_integer_eigenvalue(self, sv4):
        out = cartan_eigenvalue(sv4, sv4.index_of("L_0"), sv4.index_of("Y_1/2"))
        assert out == Fraction(1, 2)

    def test_sl2_h_e(self, sl2):
        assert cartan_eigenvalue(sl2, sl2.index_of("H_1"), sl2.index_of("E(1,2)")) == 2

    def test_non_eigenvector_reported(self):
        basis = [
            BasisElement("h", (0,)),
            BasisElement("a", (0,)),
            BasisElement("b", (0,)),
        ]
        alg = GradedAlgebra(
            "twist", 1, basis, {(0, 1): ((2, Fraction(1)),)}, [0]
        )
        report = alg.validate()
        assert [v.indices for v in report.violations if v.kind == "eigenvector"] == [
            (0, 1)
        ]


class TestRootsPresent:
    """Per present degree, the builders' non-Cartan members and the pairing
    of every degree with its negative."""

    def test_sv_window_one(self, sv1):
        assert sv1.degree_set == {(-2,), (-1,), (0,), (1,), (2,)}
        assert {sv1.label(i) for i in sv1.basis_at((2,))} == {"L_1", "M_1"}
        assert {sv1.label(i) for i in sv1.basis_at((1,))} == {"Y_1/2"}
        assert all(tuple(-c for c in d) in sv1.degree_set for d in sv1.degree_set)
        assert set(sv1.basis_at((0,))) <= sv1.cartan  # degree zero is all cartan

    def test_counterexample(self, k_alg):
        nonzero = k_alg.degree_set - {(0,)}
        assert nonzero == {(1,), (-1,)}
        assert all(set(k_alg.basis_at(d)).isdisjoint(k_alg.cartan) for d in nonzero)

    def test_sl2(self, sl2):
        assert {sl2.label(i) for i in sl2.basis_at((1,))} == {"E(1,2)"}
        assert {sl2.label(i) for i in sl2.basis_at((-1,))} == {"E(2,1)"}


class TestSafeTuples:
    def test_inside_window(self, sv4):
        assert safe_tuple(sv4, [(2,), (2,), (2,)], (0,))

    def test_boundary_partial_sums(self, sv4):
        assert safe_tuple(sv4, [(8,), (8,), (-8,)], (0,))

    def test_escaping_partial_sum(self, sv4):
        assert not safe_tuple(sv4, [(8,), (8,), (8,)], (0,))

    def test_gamma_shift_escapes(self, sv4):
        # plain sums stay inside, but the shifted total 8 + 1 does not
        assert not safe_tuple(sv4, [(8,), (0,)], (1,))

    def test_complete_algebra_always_safe(self, sl2):
        assert safe_tuple(sl2, [(1,), (1,), (-1,)], (-2,))

    def test_length_contract(self, sv4):
        with pytest.raises(ValueError):
            sv4.is_safe_sum((0, 0), (0,))
        with pytest.raises(ValueError):
            sv4.is_safe_sum((0,), (0, 0))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fold_matches_oracle(self, sv4, sl2, data):
        alg = data.draw(st.sampled_from([sv4, sl2]))
        deg = st.integers(-10, 10).map(lambda c: (c,))
        degs = data.draw(st.lists(deg, min_size=1, max_size=4))
        gamma = data.draw(deg)
        assert safe_tuple(alg, degs, gamma) == oracle._tuple_safe(alg, degs, gamma)


class TestAdMatrix:
    """The adjoint action y -> [x, y], one basis image per column."""

    def test_sl2_h_diagonal(self, sl2):
        h = unit(sl2.index_of("H_1"))
        images = [sl2.bracket(h, unit(j)) for j in range(sl2.dim)]
        assert images == [{0: 2}, {1: -2}, {}]

    def test_k_m1(self, k_alg):
        m1 = unit(k_alg.index_of("M_1"))
        # maps L_0 (index 0) to -M_1 (index 1), everything else to zero
        images = [k_alg.bracket(m1, unit(j)) for j in range(k_alg.dim)]
        assert images == [{1: -1}, {}, {}]

    def test_zero_element(self, sv2):
        assert all(sv2.bracket({}, unit(j)) == {} for j in range(sv2.dim))


class TestValidate:
    def test_builders_are_valid(self, sv1, sv2, sv4, k_alg, sl2, sl3, witt1):
        for alg in (sv1, sv2, sv4, k_alg, sl2, sl3, witt1):
            report = alg.validate()
            assert not report.violations and not report.warnings, (
                alg.name, report.violations[:3]
            )

    def test_tampered_sv_fails_jacobi(self, sv2):
        tampered = dict(sv2.brackets)
        i, j = sv2.index_of("L_-1"), sv2.index_of("L_1")
        key = (min(i, j), max(i, j))
        assert key in tampered
        tampered[key] = ((sv2.index_of("L_0"), Fraction(-3)),)
        alg = GradedAlgebra(
            "sv-tampered", 1, sv2.basis, tampered, sv2.cartan, truncated=True
        )
        report = alg.validate()
        assert any(v.kind == "jacobi" for v in report.violations)

    def test_cartan_nonzero_degree(self):
        basis = [BasisElement("x", (1,)), BasisElement("y", (-1,))]
        alg = GradedAlgebra("bad-cartan", 1, basis, {}, [0])
        report = alg.validate()
        assert any(v.kind == "cartan-degree" for v in report.violations)

    def test_grading_violation(self):
        basis = [
            BasisElement("h", (0,)),
            BasisElement("x", (1,)),
            BasisElement("y", (-1,)),
        ]
        alg = GradedAlgebra(
            "bad-grading", 1, basis, {(1, 2): ((1, Fraction(1)),)}, [0]
        )
        report = alg.validate()
        assert any(v.kind == "grading" for v in report.violations)

    def test_degree_zero_non_cartan_warns(self):
        basis = [BasisElement("h", (0,)), BasisElement("z", (0,))]
        alg = GradedAlgebra("warned", 1, basis, {}, [0])
        report = alg.validate()
        assert report.valid
        assert any(v.kind == "degree-zero" for v in report.warnings)


def reference_jacobi(alg):
    """Jacobi failures in i <= j <= k order, by the textbook triple loop on
    the oracle's bracket; on a truncation only triples whose every bracket
    stays inside the window."""
    present = alg.degree_set
    out = []
    for i, j, k in combinations_with_replacement(range(alg.dim), 3):
        di, dj, dk = (alg.degree_of(x) for x in (i, j, k))
        sums = [(di, dj), (dj, dk), (di, dk), (di, dj, dk)]
        if alg.truncated and not all(
            tuple(map(sum, zip(*ds))) in present for ds in sums
        ):
            continue
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = oracle.dense_bracket(alg, unit(b), unit(c))
            for t, v in oracle.dense_bracket(alg, unit(a), inner).items():
                total[t] = total.get(t, 0) + v
        if any(total.values()):
            out.append((i, j, k))
    return out


def corrupted(alg, rng):
    """``alg`` with one structure constant doubled."""
    brackets = dict(alg.brackets)
    key = rng.choice(sorted(brackets))
    (k, c), *rest = brackets[key]
    brackets[key] = ((k, 2 * c), *rest)
    return GradedAlgebra(
        alg.name, alg.grading_dim, alg.basis, brackets, alg.cartan, alg.truncated
    )


def off_degree(alg, rng):
    """``alg`` with one bracket term moved to a basis element off the degree
    sum."""
    brackets = dict(alg.brackets)
    key = rng.choice(sorted(brackets))
    (k, c), *rest = brackets[key]
    taken = {t for t, _ in rest}
    moved = rng.choice(
        [x for x in range(alg.dim)
         if alg.degree_of(x) != alg.degree_of(k) and x not in taken]
    )
    brackets[key] = tuple(sorted([(moved, c), *rest]))
    return GradedAlgebra(
        alg.name, alg.grading_dim, alg.basis, brackets, alg.cartan, alg.truncated
    )


def test_solver_refuses_an_ill_graded_algebra(tmp_path, capsys):
    # The walk reads a bracket term off the degree sum at a target it has no
    # row for; the solver refuses the algebra, while check reports the term.
    witt = builders.build_witt(2, WindowSpec(1))
    alg = off_degree(witt, random.Random(7))
    rng = random.Random(1)
    for bad in (alg, off_degree(off_degree(off_degree(witt, rng), rng), rng)):
        got = [v.indices for v in bad.validate().violations if v.kind == "grading"]
        assert got == [
            (i, j, k)  # in the order of the bracket keys, then the targets
            for (i, j), terms in sorted(bad.brackets.items())
            for k, _ in terms
            if bad.degree_of(k) != add_degrees(bad.degree_of(i), bad.degree_of(j))
        ]
    (term,) = [v.indices for v in alg.validate().violations if v.kind == "grading"]
    calls = [
        lambda g: build_constraints(alg, 3, g),
        lambda g: solve_nder(alg, 3, g),
        lambda g: is_nder(alg, HomogeneousMap(g, {}), 3),
        lambda g: compare_orders(alg, 2, 3, g, WindowSpec(1)),
    ]
    gammas = domain_gammas(alg)
    assert len(gammas) == 25
    for gamma in gammas:
        for call in calls:
            with pytest.raises(ValueError, match="off the degree sum"):
                call(gamma)
    path = tmp_path / "off-degree.json"
    path.write_bytes(builders.save(alg))
    assert main(["check", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [v["indices"] for v in report["violations"] if v["kind"] == "grading"] == [
        list(term)
    ]


def sparse_non_lie(seed):
    """A complete graded algebra with random sparse brackets, so Jacobi can
    fail on a triple with only one nonzero inner bracket; in a Lie algebra
    such a triple never fails."""
    rng = random.Random(seed)
    degrees = [1, 1, 1, 2, 2, 3, 3, 4]
    rng.shuffle(degrees)
    basis = [BasisElement(f"e{p}", (d,)) for p, d in enumerate(degrees)]
    brackets = {}
    for i, j in combinations(range(len(basis)), 2):
        at = [k for k, d in enumerate(degrees) if d == degrees[i] + degrees[j]]
        if at and rng.random() < 0.5:
            brackets[(i, j)] = ((rng.choice(at), Fraction(rng.choice((-2, 1, 3)))),)
    return GradedAlgebra("sparse", 1, basis, brackets, [])


_JACOBI_FAMILIES = {
    "sv2": lambda: builders.build_sv(WindowSpec(2)),
    "sv2-nocenter": lambda: builders.build_sv(WindowSpec(2), include_center=False),
    "witt1_3": lambda: builders.build_witt(1, WindowSpec(3)),
    "witt2_1": lambda: builders.build_witt(2, WindowSpec(1)),
    # a grading fault on a truncation: Jacobi reads the misplaced term too
    "witt2_1-off-degree": lambda: off_degree(
        builders.build_witt(2, WindowSpec(1)), random.Random(0)
    ),
    # seed 7 fails on triples (i, j, k) with only [i, j], only [j, k] and
    # only [k, i] nonzero: each term the Jacobi skip reads is needed
    "sparse-non-lie": lambda: sparse_non_lie(7),
    "sl3": lambda: builders.build_sl(3),
    "borel+3": lambda: builders.build_borel(3, "+"),
    "sl2": lambda: builders.build_sl(2),
}


@pytest.mark.parametrize("family", sorted(_JACOBI_FAMILIES))
def test_jacobi_violations_match_reference(family):
    alg = _JACOBI_FAMILIES[family]()
    rng = random.Random(family)
    failing = 0
    for other in [alg] + [corrupted(alg, rng) for _ in range(3)]:
        got = [v.indices for v in other.validate().violations if v.kind == "jacobi"]
        assert got == reference_jacobi(other)
        failing += bool(got)
    assert failing  # a doubled constant breaks Jacobi somewhere


class TestStructuralInvariants:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_antisymmetry(self, sv2, data):
        i = data.draw(st.integers(0, sv2.dim - 1))
        j = data.draw(st.integers(0, sv2.dim - 1))
        xy = sv2.bracket(unit(i), unit(j))
        yx = sv2.bracket(unit(j), unit(i))
        assert xy == {k: -v for k, v in yx.items()}
        assert sv2.bracket(unit(i), unit(i)) == {}

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_grading_of_products(self, sv2, data):
        i = data.draw(st.integers(0, sv2.dim - 1))
        j = data.draw(st.integers(0, sv2.dim - 1))
        out = sv2.bracket(unit(i), unit(j))
        want = tuple(
            a + b for a, b in zip(sv2.degree_of(i), sv2.degree_of(j))
        )
        assert all(sv2.degree_of(k) == want for k in out)

    def test_cartan_power_identity(self, sv2, sl3):
        # iterating a Cartan element N-1 times scales by the root power
        for alg, h_lbl, x_lbl in [
            (sv2, "L_0", "Y_3/2"),
            (sv2, "L_0", "M_-2"),
            (sl3, "H_1", "E(1,3)"),
        ]:
            h = alg.index_of(h_lbl)
            x = alg.index_of(x_lbl)
            a = cartan_eigenvalue(alg, h, x)
            for n in (3, 4, 5):
                out = unit(x)
                for _ in range(n - 1):
                    out = alg.bracket(unit(h), out)
                assert out == ({x: a ** (n - 1)} if a else {})
