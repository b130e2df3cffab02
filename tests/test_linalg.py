import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle import dense_rank
from gradedlie.linalg import (
    _rref_dicts,
    SparseMatrix,
    SparseVector,
    SubspaceBasis,
    format_rational,
    nullspace,
    parse_rational,
    project_basis,
    row_space_equal,
    solve,
    vector_in_span,
)


def mat(rows, num_cols):
    return SparseMatrix.from_rows(
        num_cols,
        [{i: Fraction(v) for i, v in enumerate(row) if v} for row in rows],
    )


def vec(values):
    return SparseVector.from_dict(
        {i: Fraction(v) for i, v in enumerate(values) if v}
    )


def as_lists(m: SparseMatrix):
    return [
        [row.get(c) for c in range(m.num_cols)] for row in m.rows
    ]


class TestRationalWireFormat:
    def test_format(self):
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(0)) == "0"

    def test_parse_round_trip(self):
        for text in ["0", "7", "-7", "2/3", "-11/12"]:
            assert format_rational(parse_rational(text)) == text

    @pytest.mark.parametrize(
        "bad", ["2/4", "1/-2", "1.5", "", "3/0", "+2", "02", "-0", "1/01"]
    )
    def test_parse_rejects_noncanonical(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestSparseTypes:
    def test_vector_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SparseVector(((2, Fraction(1)), (1, Fraction(1))))

    def test_vector_rejects_zero(self):
        with pytest.raises(ValueError):
            SparseVector(((0, Fraction(0)),))

    def test_matrix_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, (vec([0, 0, 1]),))


def rref(m: SparseMatrix):
    """Rank and reduced rows of ``m`` from the solver's elimination."""
    reduced, pivots, _ = _rref_dicts((r.entries for r in m.rows), m.num_cols)
    return len(pivots), SparseMatrix.from_rows(m.num_cols, reduced)


class TestRref:
    def test_dependent_rows(self):
        # repeated and rescaled rows fold to zero without a dedup pass
        rank, red = rref(mat([[1, 2], [2, 4], [1, 2], [-1, -2]], 2))
        assert rank == 1
        assert as_lists(red) == [[1, 2]]

    def test_identity(self):
        rank, red = rref(mat([[1, 0], [0, 1]], 2))
        assert rank == 2
        assert as_lists(red) == [[1, 0], [0, 1]]

    def test_fractional_rows(self):
        m = mat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]], 2)
        rank, red = rref(m)
        assert rank == 1
        assert as_lists(red) == [[1, Fraction(2, 3)]]


class TestNullspace:
    def test_rank_one(self):
        basis = nullspace(mat([[1, 2], [2, 4]], 2))
        assert [v.to_dict() for v in basis.vectors] == [{0: -2, 1: 1}]

    def test_identity_has_trivial_nullspace(self):
        assert nullspace(mat([[1, 0], [0, 1]], 2)).vectors == ()

    def test_zero_matrix(self):
        basis = nullspace(SparseMatrix(3))
        assert [v.to_dict() for v in basis.vectors] == [{0: 1}, {1: 1}, {2: 1}]


class TestSolve:
    def test_diagonal(self):
        x = solve(mat([[2, 0], [0, 3]], 2), vec([4, 6]))
        assert x.to_dict() == {0: 2, 1: 2}

    def test_free_variable_zero(self):
        x = solve(mat([[1, 1]], 2), vec([5]))
        assert x.to_dict() == {0: 5}

    def test_inconsistent(self):
        assert solve(mat([[1], [1]], 1), vec([1, 2])) is None


class TestRowSpaceEqual:
    def test_scaling_invariance(self):
        a = SubspaceBasis(2, (vec([1, 0]),))
        b = SubspaceBasis(2, (vec([2, 0]),))
        assert row_space_equal(a, b)

    def test_distinct(self):
        a = SubspaceBasis(2, (vec([1, 0]),))
        b = SubspaceBasis(2, (vec([0, 1]),))
        assert not row_space_equal(a, b)

    def test_empty(self):
        assert row_space_equal(SubspaceBasis(3), SubspaceBasis(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            row_space_equal(SubspaceBasis(2), SubspaceBasis(3))


class TestProjectBasis:
    def test_restriction(self):
        a = SubspaceBasis(3, (vec([1, 2, 3]),))
        p = project_basis(a, [0, 1])
        assert [v.to_dict() for v in p.vectors] == [{0: 1, 1: 2}]

    def test_vanishing(self):
        a = SubspaceBasis(3, (vec([1, 0, 0]), vec([0, 1, 0])))
        assert project_basis(a, [2]).vectors == ()

    def test_full_plane(self):
        a = SubspaceBasis(2, (vec([1, 1]), vec([1, -1])))
        p = project_basis(a, [0, 1])
        assert p.dim == 2


def random_matrix(rng: random.Random, max_rows=6, max_cols=7) -> SparseMatrix:
    rows = rng.randrange(0, max_rows + 1)
    cols = rng.randrange(1, max_cols + 1)
    out = []
    for _ in range(rows):
        row = {}
        for c in range(cols):
            if rng.random() < 0.55:
                num = rng.randrange(-4, 5)
                if num:
                    row[c] = Fraction(num, rng.choice([1, 1, 2, 3]))
        out.append(row)
    return SparseMatrix.from_rows(cols, out)


def check_linalg_properties(m: SparseMatrix) -> None:
    basis = nullspace(m)
    # rank-nullity against the independent dense elimination
    dense = [[row.get(c) for c in range(m.num_cols)] for row in m.rows]
    assert m.num_cols - basis.dim == dense_rank(dense)
    # exact residuals
    for v in basis.vectors:
        assert all(r == 0 for r in m.apply(v.to_dict()))
    # repeated, rescaled and reordered rows leave the canonical basis unchanged
    rng = random.Random(m.num_cols)
    rows = [r.to_dict() for r in m.rows]
    rows += [{i: -2 * c for i, c in r.items()} for r in rows]
    rng.shuffle(rows)
    assert nullspace(SparseMatrix.from_rows(m.num_cols, rows)) == basis


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_linalg_properties_random(seed):
    check_linalg_properties(random_matrix(random.Random(seed)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_row_space_invariances(seed):
    rng = random.Random(seed)
    m = random_matrix(rng)
    _, red = rref(m)
    basis = SubspaceBasis(m.num_cols, red.rows)
    assert row_space_equal(basis, basis)
    # scaling and permutation of generating rows leaves the span unchanged
    scaled = []
    for v in red.rows:
        c = Fraction(rng.choice([1, 2, 3, -1, -2]))
        scaled.append(SparseVector.from_dict({i: c * val for i, val in v.entries}))
    rng.shuffle(scaled)
    other = SubspaceBasis(m.num_cols, tuple(scaled))
    assert row_space_equal(basis, other)
    assert row_space_equal(other, basis)
    for v in basis.vectors:
        assert vector_in_span(v, other)
