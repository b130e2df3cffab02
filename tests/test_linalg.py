import math
import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from oracle import dense_rank, dense_rref, dense_solve, mat_vec
from gradedlie import linalg
from gradedlie.linalg import (
    Echelon,
    SparseMatrix,
    SparseVector,
    SubspaceBasis,
    format_rational,
    nullspace,
    parse_rational,
    project_basis,
    row_space_equal,
    vector_in_span,
)


def matrix(num_cols, rows):
    """A SparseMatrix of Fraction rows from {column: value} rows."""
    return SparseMatrix(
        num_cols, tuple(SparseVector.from_dict(r).entries for r in rows)
    )


def mat(rows, num_cols):
    return matrix(
        num_cols,
        [{i: Fraction(v) for i, v in enumerate(row) if v} for row in rows],
    )


def vec(values):
    return SparseVector.from_dict(
        {i: Fraction(v) for i, v in enumerate(values) if v}
    )


def as_lists(m: SparseMatrix):
    return [
        [dict(row).get(c, 0) for c in range(m.num_cols)] for row in m.rows
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
        "bad",
        ["2/4", "1/-2", "1.5", "", "3/0", "+2", "02", "-0", "1/01"]
        + ["5/1", "0/1", "-3/1"],  # a denominator of 1 is never written
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
            SparseMatrix(2, (vec([0, 0, 1]).entries,))


class TestMalformedRows:
    # Matrix rows are plain tuples, so a hand-built row reaches Echelon
    # unchecked: a zero value would end in Fraction(0, 0) in reduced(), and
    # a column past num_cols would drop out of the nullspace silently.
    @pytest.mark.parametrize(
        "row",
        [{0: 0, 1: 1}, {0: Fraction(0), 1: 1}, {0: 1, 5: 1}, {-1: 1, 0: 1}, {2: 1}],
        ids=["zero", "zero-fraction", "column-past-end", "negative-column", "num-cols"],
    )
    def test_echelon_refuses(self, row):
        with pytest.raises(ValueError):
            Echelon(2, [row]).nullspace()
        with pytest.raises(ValueError):
            Echelon(2).add(row)

    @pytest.mark.parametrize(
        "row", [((0, 0), (1, 1)), ((5, 1), (0, 1))], ids=["zero", "unsorted-past-end"]
    )
    def test_nullspace_refuses(self, row):
        # the last column is in range, so SparseMatrix lets both through
        with pytest.raises(ValueError):
            nullspace(SparseMatrix(2, (row,)))

    def test_rows_after_full_rank_are_not_read(self):
        # once every column is a pivot no row can add rank, so later rows,
        # malformed ones included, are neither read nor checked
        assert Echelon(1, [{0: 1}, {0: 0}, {5: 1}]).nullspace().dim == 0
        assert nullspace(SparseMatrix(1, (((0, 1),), ((0, 0),)))).dim == 0
        ech = Echelon(1, [{0: 1}])
        assert not ech.add({0: 0}) and not ech.add({-1: 1}) and ech.rank == 1


def rref(m: SparseMatrix):
    """Rank and reduced rows of ``m`` from the solver's elimination."""
    reduced, pivots = Echelon(m.num_cols, m.rows).reduced()
    return len(pivots), matrix(m.num_cols, reduced)


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
        assert [dict(v.entries) for v in basis.vectors] == [{0: -2, 1: 1}]

    def test_identity_has_trivial_nullspace(self):
        assert nullspace(mat([[1, 0], [0, 1]], 2)).vectors == ()

    def test_zero_matrix(self):
        basis = nullspace(SparseMatrix(3))
        assert [dict(v.entries) for v in basis.vectors] == [{0: 1}, {1: 1}, {2: 1}]


def nullspace_solve(m: SparseMatrix, b) -> Optional[dict]:
    """x with m·x = b (one value of b per row), read off the canonical
    nullspace of [m | −b] as ``is_inner`` reads it: the −b column is free
    exactly when the system is consistent, its vector is then the last one,
    and every other free coefficient in it is zero."""
    aug = m.num_cols
    rows = [dict(r) for r in m.rows]
    for row, v in zip(rows, b):
        if v:
            row[aug] = -v
    null = Echelon(aug + 1, rows).nullspace().vectors
    if not null or null[-1].max_index() != aug:
        return None
    return dict(null[-1].entries[:-1])


class TestSolve:
    # the nullspace reading against the dense reference solve
    def test_diagonal(self):
        m, b = mat([[2, 0], [0, 3]], 2), [4, 6]
        assert nullspace_solve(m, b) == dense_solve(as_lists(m), b, 2) == {0: 2, 1: 2}

    def test_free_variable_zero(self):
        m, b = mat([[1, 1]], 2), [5]
        assert nullspace_solve(m, b) == dense_solve(as_lists(m), b, 2) == {0: 5}

    def test_inconsistent(self):
        m, b = mat([[1], [1]], 1), [1, 2]
        assert nullspace_solve(m, b) is None
        assert dense_solve(as_lists(m), b, 1) is None


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
        assert [dict(v.entries) for v in p.vectors] == [{0: 1, 1: 2}]

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
    return matrix(cols, out)


def check_linalg_properties(m: SparseMatrix) -> None:
    basis = nullspace(m)
    # rank-nullity against the independent dense elimination
    dense = as_lists(m)
    rank = dense_rank(dense)
    assert m.num_cols - basis.dim == rank
    # exact residuals
    for v in basis.vectors:
        assert all(r == 0 for r in mat_vec(m, dict(v.entries)))
    rng = random.Random(m.num_cols)
    # the nullspace reading meets a consistent right-hand side exactly, free
    # columns at zero, as the dense reference solve does
    x0 = {c: Fraction(rng.randrange(-3, 4)) for c in range(m.num_cols)}
    b = mat_vec(m, x0)
    x = nullspace_solve(m, b)
    assert x is not None and mat_vec(m, x) == b
    assert all(v.max_index() not in x for v in basis.vectors)
    assert x == dense_solve(dense, b, m.num_cols)
    # and finds none exactly when the right-hand side raises the rank
    b = [Fraction(rng.randrange(-2, 3)) for _ in m.rows]
    x = nullspace_solve(m, b)
    augmented = [row + [v] for row, v in zip(dense, b)]
    assert (x is None) == (dense_rank(augmented) > rank)
    assert x == dense_solve(dense, b, m.num_cols)
    # repeated, rescaled and reordered rows leave the canonical basis unchanged
    rows = [dict(r) for r in m.rows]
    rows += [{i: -2 * c for i, c in r.items()} for r in rows]
    rng.shuffle(rows)
    assert nullspace(matrix(m.num_cols, rows)) == basis


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
    basis = SubspaceBasis(m.num_cols, tuple(map(SparseVector, red.rows)))
    assert row_space_equal(basis, basis)
    # scaling and permutation of generating rows leaves the span unchanged
    scaled = []
    for v in red.rows:
        c = Fraction(rng.choice([1, 2, 3, -1, -2]))
        scaled.append(SparseVector.from_dict({i: c * val for i, val in v}))
    rng.shuffle(scaled)
    other = SubspaceBasis(m.num_cols, tuple(scaled))
    assert row_space_equal(basis, other)
    assert row_space_equal(other, basis)
    # so does a repeated generator
    repeats = scaled[: rng.randrange(len(scaled) + 1)]
    doubled = SubspaceBasis(m.num_cols, tuple(scaled + repeats))
    assert row_space_equal(basis, doubled)
    assert row_space_equal(doubled, basis)
    for v in basis.vectors:
        assert vector_in_span(v, other)


def int_matrix(rng: random.Random, max_rows=6, max_cols=7) -> SparseMatrix:
    """A random matrix with plain ``int`` entries, as the constraint walk emits."""
    cols = rng.randrange(1, max_cols + 1)
    rows = []
    for _ in range(rng.randrange(0, max_rows + 1)):
        row = {c: rng.randrange(-6, 7) for c in range(cols) if rng.random() < 0.55}
        rows.append(tuple((c, v) for c, v in sorted(row.items()) if v))
    return SparseMatrix(cols, tuple(rows))


def as_fractions(m: SparseMatrix) -> SparseMatrix:
    return matrix(m.num_cols, [dict(r) for r in m.rows])


def all_fractions(vectors) -> bool:
    return all(type(c) is Fraction for v in vectors for _, c in v.entries)


def check_int_rows_exact(m: SparseMatrix) -> None:
    """int rows give the same Fraction-valued results as Fraction rows."""
    f = as_fractions(m)
    basis = nullspace(m)
    assert all_fractions(basis.vectors) and basis == nullspace(f)
    b = [i + 2 for i in range(m.num_rows)]
    x = nullspace_solve(m, b)
    assert x == nullspace_solve(f, b) == dense_solve(as_lists(m), b, m.num_cols)
    assert x is None or all(type(c) is Fraction for c in x.values())
    span = SubspaceBasis(m.num_cols, tuple(map(SparseVector, m.rows)))
    coords = list(range(0, m.num_cols, 2))
    p = project_basis(span, coords)
    assert all_fractions(p.vectors)
    f_span = SubspaceBasis(m.num_cols, tuple(map(SparseVector, f.rows)))
    assert p == project_basis(f_span, coords)


class TestIntegerRows:
    # rows whose leads are not 1 and meet no earlier pivot, so every pivot
    # row goes through the division
    ROWS = (((0, 2), (1, 4), (2, 3)), ((1, 3), (3, 5)), ((2, 5), (3, 7)))

    def test_pivot_division_is_exact(self):
        m = SparseMatrix(4, self.ROWS)
        reduced, pivots = Echelon(m.num_cols, m.rows).reduced()
        assert pivots == [0, 1, 2]
        assert all(type(v) is Fraction for row in reduced for v in row.values())
        want, _ = Echelon(m.num_cols, as_fractions(m).rows).reduced()
        assert reduced == want
        assert reduced[0] == {0: 1, 3: Fraction(-163, 30)}

    def test_public_results_are_fractions(self):
        check_int_rows_exact(SparseMatrix(4, self.ROWS))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_int_rows(self, seed):
        check_int_rows_exact(int_matrix(random.Random(seed)))


def check_rref_invariant(m: SparseMatrix) -> None:
    """Every pivot row has lead 1 at its pivot and is zero at every other
    pivot column: the property that lets one sweep clear a new row."""
    reduced, pivots = Echelon(m.num_cols, m.rows).reduced()
    assert pivots == sorted(set(pivots))
    assert len(pivots) == dense_rank(as_lists(m))
    for row, p in zip(reduced, pivots):
        assert min(row) == p and row[p] == 1
        assert all(v != 0 for v in row.values())
        assert not any(q in row for q in pivots if q != p)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_rref_invariant(seed, ints):
    rng = random.Random(seed)
    check_rref_invariant(int_matrix(rng, 8, 7) if ints else random_matrix(rng, 8, 7))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_echelon_is_incremental(seed, ints):
    # after every add: the rank of the rows so far, True exactly when it grew,
    # and a nullspace that every row so far annihilates
    rng = random.Random(seed)
    m = int_matrix(rng, 8, 7) if ints else random_matrix(rng, 8, 7)
    ech = Echelon(m.num_cols)
    for i, row in enumerate(m.rows):
        before = ech.rank
        grew = ech.add(row)
        prefix = SparseMatrix(m.num_cols, m.rows[: i + 1])
        assert ech.rank == dense_rank(as_lists(prefix))
        assert grew == (ech.rank == before + 1)
        basis = ech.nullspace()
        assert basis.dim == m.num_cols - ech.rank
        for v in basis.vectors:
            assert not any(mat_vec(prefix, dict(v.entries)))


# Entries mix zeros and small values, so rows are often dependent, with
# integers of 64 bits and more and denominators above 2**32.
_SMALL = st.integers(-4, 4)
_INTS = st.one_of(st.just(0), _SMALL, _SMALL, st.integers(-(2**90), 2**90))
_FRACTIONS = st.builds(
    Fraction, _INTS, st.one_of(st.integers(1, 6), st.integers(2**32 + 1, 2**70))
)


def dense_matrices(values):
    """(cols, rows): up to 8 dense rows over 1..7 columns."""
    return st.integers(1, 7).flatmap(
        lambda cols: st.tuples(
            st.just(cols),
            st.lists(st.lists(values, min_size=cols, max_size=cols), max_size=8),
        )
    )


def sparse(row):
    return {c: v for c, v in enumerate(row) if v}


@settings(max_examples=150, deadline=None)
@given(dense_matrices(_INTS) | dense_matrices(_INTS | _FRACTIONS))
def test_pivot_rows_stay_primitive_integers(m):
    # after every add, each stored pivot row is all int, has gcd 1 and a
    # positive pivot entry, and is zero at every other pivot column
    cols, rows = m
    ech = Echelon(cols)
    for row in rows:
        ech.add(sparse(row))
        stored = ech._pivot_rows
        for p, q in stored.items():
            values = list(q.values())
            assert all(type(v) is int and v for v in values)
            assert math.gcd(*values) == 1 and q[p] > 0 and min(q) == p
            assert not any(j in q for j in stored if j != p)


@settings(max_examples=150, deadline=None)
@given(dense_matrices(_INTS) | dense_matrices(_INTS | _FRACTIONS))
def test_echelon_matches_textbook_gauss_jordan(m):
    cols, rows = m
    ech = Echelon(cols, map(sparse, rows))
    want, want_pivots = dense_rref(rows, cols)
    reduced, pivots = ech.reduced()
    assert pivots == want_pivots and ech.rank == dense_rank(rows)
    assert all(type(v) is Fraction for r in reduced for v in r.values())
    assert [[r.get(c, 0) for c in range(cols)] for r in reduced] == want
    # the canonical nullspace: each free column set to 1 in turn
    null = []
    for free in range(cols):
        if free not in pivots:
            v = {free: 1}
            v.update((p, -r[free]) for r, p in zip(want, pivots) if r[free])
            null.append(v)
    assert [dict(v.entries) for v in ech.nullspace().vectors] == null


def test_cancel_keeps_the_working_row_small(monkeypatch):
    # Pivot rows with ~2**40 pivot entries, and a row hitting each pivot with
    # a multiple of it.  Dividing out g = gcd(p, f) makes every clear
    # r <- r - c·q_j, so no entry of the working row passes 64 bits; the
    # uncancelled r <- p·r - f·q_j would multiply it by ~2**40 per pivot,
    # past 300 bits after eight.
    rng = random.Random(7)
    big = [2**40 + 2 * rng.randrange(2**30) + 1 for _ in range(8)]
    ech = Echelon(10, ({j: p, 8: 1, 9: j + 1} for j, p in enumerate(big)))
    widths = []
    eliminate = linalg._eliminate

    def recording(r, f, q, j):
        eliminate(r, f, q, j)
        widths.append(max((abs(v).bit_length() for v in r.values()), default=0))

    monkeypatch.setattr(linalg, "_eliminate", recording)
    row = {j: (j + 2) * p for j, p in enumerate(big)}
    row.update({8: 1, 9: -1})
    assert ech.add(row)
    # eight clears, then eight back-eliminations of the new pivot at column 8
    assert len(widths) == 16 and max(widths) <= 64
