"""Exact sparse linear algebra over the rationals.

All scalars are ``fractions.Fraction`` values, which are always kept in
canonical form (positive denominator, reduced, zero as 0/1).  Elimination is
plain Gauss-Jordan with a fixed pivot rule, so every result is deterministic
and the reduced row-echelon form is the unique one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

Rational = Fraction

_ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"^(0|-?[1-9]\d*)(?:/([1-9]\d*))?$")


def format_rational(value: Rational) -> str:
    """Render ``value`` as ``p/q`` with q > 0, or plain ``p`` when q == 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Rational:
    """Parse the canonical ``p/q`` / ``p`` wire form, rejecting anything else."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"not a canonical rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if math.gcd(abs(num), den) != 1:
        raise ValueError(f"rational not in lowest terms: {text!r}")
    return Fraction(num, den)


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector: (index, value) pairs, indices strictly increasing, no zeros."""

    entries: tuple[tuple[int, Rational], ...] = ()

    def __post_init__(self) -> None:
        last = -1
        for idx, val in self.entries:
            if idx <= last:
                raise ValueError("indices must be strictly increasing")
            if val == 0:
                raise ValueError("zero values must not be stored")
            last = idx

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, Rational]) -> "SparseVector":
        return cls(tuple((i, Fraction(c)) for i, c in sorted(coeffs.items()) if c != 0))

    def to_dict(self) -> dict[int, Rational]:
        return dict(self.entries)

    def get(self, index: int) -> Rational:
        for i, c in self.entries:
            if i == index:
                return c
            if i > index:
                break
        return _ZERO

    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else -1


@dataclass(frozen=True)
class SparseMatrix:
    """Row-major sparse matrix; rows may be empty, every index < num_cols."""

    num_cols: int
    rows: tuple[SparseVector, ...] = ()

    def __post_init__(self) -> None:
        if self.num_cols < 0:
            raise ValueError("num_cols must be nonnegative")
        for row in self.rows:
            if row.max_index() >= self.num_cols:
                raise ValueError("row index out of range")

    @classmethod
    def from_rows(
        cls, num_cols: int, rows: Iterable[Mapping[int, Rational] | SparseVector]
    ) -> "SparseMatrix":
        out = []
        for row in rows:
            if isinstance(row, SparseVector):
                out.append(row)
            else:
                out.append(SparseVector.from_dict(row))
        return cls(num_cols, tuple(out))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def apply(self, v: Mapping[int, Rational]) -> list[Rational]:
        """Matrix-vector product, one exact value per row."""
        out = []
        for row in self.rows:
            s = _ZERO
            for i, c in row.entries:
                x = v.get(i)
                if x:
                    s += c * x
            out.append(s)
        return out


@dataclass(frozen=True)
class SubspaceBasis:
    """Basis of a subspace of Q^dim_ambient, stored as sparse row vectors."""

    dim_ambient: int
    vectors: tuple[SparseVector, ...] = ()

    def __post_init__(self) -> None:
        for v in self.vectors:
            if v.max_index() >= self.dim_ambient:
                raise ValueError("vector index out of range")

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _rref_dicts(
    rows: Iterable[Mapping[int, Rational] | Iterable[tuple[int, Rational]]],
    num_cols: int,
) -> tuple[list[dict[int, Rational]], list[int]]:
    """Reduce rows (dicts or (column, value) pairs, no zero values) to the
    unique RREF of their span, returned as pivot rows and their pivots.

    Rows are folded in one at a time against the reduced basis built so far,
    so dependent and repeated rows vanish cheaply instead of being dragged
    through a full Gauss-Jordan sweep; no separate dedup pass is needed.  The
    reduction stops early once every column is a pivot.
    """
    pivot_rows: dict[int, dict[int, Rational]] = {}
    for row in rows:
        if len(pivot_rows) == num_cols:
            break  # further rows cannot add rank
        r = dict(row)
        # Clear every entry sitting at an existing pivot column.  Pivot rows
        # only carry their own pivot plus free columns, so eliminations fill
        # in at free columns only and one sweep suffices; re-collect anyway.
        hits = [j for j in r if j in pivot_rows]
        while hits:
            for j in sorted(hits):
                f = r.pop(j)
                for col, v in pivot_rows[j].items():
                    if col == j:
                        continue
                    nv = r.get(col)
                    nv = -f * v if nv is None else nv - f * v
                    if nv:
                        r[col] = nv
                    else:
                        del r[col]
            hits = [j for j in r if j in pivot_rows]
        if not r:
            continue
        lead = min(r)
        f = r[lead]
        if f != 1:
            r = {j: v / f for j, v in r.items()}
        for q in pivot_rows.values():
            g = q.get(lead)
            if g:
                for j, v in r.items():
                    nv = q.get(j)
                    nv = -g * v if nv is None else nv - g * v
                    if nv:
                        q[j] = nv
                    else:
                        del q[j]
        pivot_rows[lead] = r
    pivots = sorted(pivot_rows)
    return [pivot_rows[p] for p in pivots], pivots


def nullspace(m: SparseMatrix) -> SubspaceBasis:
    """Canonical nullspace basis: free variables set to 1 in increasing column order."""
    reduced, pivots = _rref_dicts((r.entries for r in m.rows), m.num_cols)
    pivot_set = set(pivots)
    vectors = []
    for free in range(m.num_cols):
        if free in pivot_set:
            continue
        v: dict[int, Rational] = {free: Fraction(1)}
        for row, p in zip(reduced, pivots):
            c = row.get(free)
            if c:
                v[p] = -c
        vectors.append(SparseVector.from_dict(v))
    return SubspaceBasis(m.num_cols, tuple(vectors))


def solve(m: SparseMatrix, b: SparseVector) -> Optional[SparseVector]:
    """One exact solution of m·x = b (free variables zero), or None if inconsistent.

    ``b`` is indexed by row position of ``m``.
    """
    if b.max_index() >= m.num_rows:
        raise ValueError("right-hand side has more entries than rows")
    aug = m.num_cols  # the right-hand side, as one more ordinary column
    rhs = b.to_dict()
    rows = []
    for i, row in enumerate(m.rows):
        d = row.to_dict()
        r = rhs.get(i)
        if r:
            d[aug] = r
        rows.append(d)
    reduced, pivots = _rref_dicts(rows, m.num_cols + 1)
    if pivots and pivots[-1] == aug:
        return None  # a pivot there is a row reading 0 = nonzero
    x: dict[int, Rational] = {}
    for row, p in zip(reduced, pivots):
        v = row.get(aug)
        if v:
            x[p] = v
    return SparseVector.from_dict(x)


def _rank_of_rows(rows: Iterable[SparseVector], num_cols: int) -> int:
    _, pivots = _rref_dicts((r.entries for r in rows), num_cols)
    return len(pivots)


def row_space_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """True iff span(a) = span(b), decided by comparing their unique RREFs."""
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("ambient dimension mismatch")
    ra, _ = _rref_dicts((r.entries for r in a.vectors), a.dim_ambient)
    rb, _ = _rref_dicts((r.entries for r in b.vectors), b.dim_ambient)
    return ra == rb


def vector_in_span(v: SparseVector, basis: SubspaceBasis) -> bool:
    if v.max_index() >= basis.dim_ambient:
        raise ValueError("vector index out of range")
    r = _rank_of_rows(basis.vectors, basis.dim_ambient)
    rs = _rank_of_rows(basis.vectors + (v,), basis.dim_ambient)
    return r == rs


def project_basis(a: SubspaceBasis, coords: Sequence[int]) -> SubspaceBasis:
    """Row-reduced image of span(a) under projection onto the given coordinates."""
    seen = set()
    position = {}
    for pos, c in enumerate(coords):
        if c in seen:
            raise ValueError("duplicate coordinate")
        if not 0 <= c < a.dim_ambient:
            raise ValueError("coordinate out of range")
        seen.add(c)
        position[c] = pos
    projected = []
    for v in a.vectors:
        row = {position[i]: c for i, c in v.entries if i in position}
        projected.append(row)
    reduced, _ = _rref_dicts(projected, len(coords))
    return SubspaceBasis(
        len(coords), tuple(SparseVector.from_dict(r) for r in reduced)
    )
