"""Exact sparse linear algebra over the rationals.

Rows may carry ``int`` or ``fractions.Fraction`` values.  Elimination is
one class, ``Echelon``: fraction-free Gauss-Jordan with a fixed pivot rule.
Rows stay primitive ``int`` rows throughout, and ``Fraction`` first appears
when the reduced row-echelon form is read out, one division per entry, so
every result is an exact ``Fraction``.  Every result is deterministic and the
reduced row-echelon form is the unique one.  There is no separate solver for
m·x = b: that system is the homogeneous one on the columns of m plus one
column holding −b, and its solutions are read off the canonical nullspace.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"^(0|-?[1-9]\d*)(?:/([1-9]\d*))?$")


def format_rational(value: Rational) -> str:
    """Render ``value`` as ``p/q`` with q > 0, or plain ``p`` when q == 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Rational:
    """Parse the canonical ``p/q`` / ``p`` wire form, rejecting anything else."""
    m = _RATIONAL_RE.match(text)
    if m is None or m.group(2) == "1":
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

    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else -1


@dataclass(frozen=True)
class SparseMatrix:
    """Row-major sparse matrix of the walk's row tuples; only each row's last
    column is checked here, and ``Echelon.add`` refuses other bad rows it
    reads (none after full rank)."""

    num_cols: int
    rows: tuple[tuple[tuple[int, Rational], ...], ...] = ()

    def __post_init__(self) -> None:
        if self.num_cols < 0:
            raise ValueError("num_cols must be nonnegative")
        for row in self.rows:
            if row and row[-1][0] >= self.num_cols:
                raise ValueError("row index out of range")

    @property
    def num_rows(self) -> int:
        return len(self.rows)


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


class Echelon:
    """Incremental fraction-free Gauss-Jordan: the unique RREF of the rows
    added so far.

    Rows are int or Fraction rows (dicts or (column, value) pairs); a row
    with a zero value or a column outside 0..num_cols-1 raises ValueError.
    Once every column is a pivot, further rows are not read, so they are not
    checked either.  A Fraction row is first scaled by the lcm of its
    denominators.  Each pivot row is kept as the primitive integer multiple
    of its RREF row: Python ints with gcd 1, a positive pivot entry and
    zeros at every other pivot column.  Dependent and repeated rows vanish
    cheaply as they are folded in, so no dedup pass is needed.  ``reduced``
    and ``nullspace`` divide by the pivot entries, the only division and the
    only place a Fraction is built.
    """

    def __init__(
        self,
        num_cols: int,
        rows: Iterable[Mapping[int, Rational] | Iterable[tuple[int, Rational]]] = (),
    ):
        self.num_cols = num_cols
        self._pivot_rows: dict[int, dict[int, int]] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def add(self, row: Mapping[int, Rational] | Iterable[tuple[int, Rational]]) -> bool:
        """Fold one row in; True iff the rank grew."""
        pivot_rows = self._pivot_rows
        if len(pivot_rows) == self.num_cols:
            return False  # further rows cannot add rank
        r = dict(row)
        if 0 in r.values():
            raise ValueError("zero values must not be stored")
        if any(type(v) is not int for v in r.values()):
            den = math.lcm(*[v.denominator for v in r.values()])
            r = {j: v.numerator * (den // v.denominator) for j, v in r.items()}
        # Clear every entry sitting at an existing pivot column.  Each pivot
        # row is zero at every other pivot column, so clearing one writes
        # only column j and free columns: one sweep suffices.
        for j in [j for j in r if j in pivot_rows]:
            _eliminate(r, r.pop(j), pivot_rows[j], j)
        if not r:
            return False
        # Elimination writes only pivot-row columns, so a column out of range
        # is never cleared: checking the rows that become pivots is enough.
        lead = min(r)
        if lead < 0 or max(r) >= self.num_cols:
            raise ValueError("row column out of range")
        _make_primitive(r, lead)
        for j, q in pivot_rows.items():
            h = q.pop(lead, None)
            if h:
                _eliminate(q, h, r, lead)
                _make_primitive(q, j)
        pivot_rows[lead] = r
        return True

    def reduced(self) -> tuple[list[dict[int, Rational]], list[int]]:
        """The canonical pivot rows, in pivot order, and their pivots."""
        pivots = sorted(self._pivot_rows)
        rows = [self._pivot_rows[p] for p in pivots]
        return [
            {j: Fraction(v, q[p]) for j, v in q.items()} for q, p in zip(rows, pivots)
        ], pivots

    def nullspace(self) -> SubspaceBasis:
        """Canonical nullspace basis: free variables set to 1 in increasing
        column order."""
        reduced, pivots = self.reduced()
        vectors = []
        for free in range(self.num_cols):
            if free in self._pivot_rows:
                continue
            v: dict[int, Rational] = {free: Fraction(1)}
            for row, p in zip(reduced, pivots):
                c = row.get(free)
                if c:
                    v[p] = -c
            vectors.append(SparseVector.from_dict(v))
        return SubspaceBasis(self.num_cols, tuple(vectors))


def _eliminate(r: dict[int, int], f: int, q: dict[int, int], j: int) -> None:
    """Cancel the entry f that ``r`` had at column j, already popped from it:
    r <- (p/g)·r - (f/g)·q, where p = q[j] and g = gcd(p, f).  Zeros are
    dropped."""
    p = q[j]
    if p != 1:
        g = math.gcd(p, f)
        f //= g
        if g != p:
            a = p // g
            for k in r:
                r[k] *= a
    for col, v in q.items():
        if col != j:
            nv = r.get(col, 0) - f * v
            if nv:
                r[col] = nv
            else:
                del r[col]


def _make_primitive(r: dict[int, int], lead: int) -> None:
    """Divide ``r`` by the gcd of its entries, signed so that r[lead] > 0.

    The primitive-form rule: elimination applies it to pivot rows, and the
    constraint walk to its suffix states, with lead their least key; the
    walk's last step applies the same rule to each row as it sorts it."""
    g = math.gcd(*r.values())
    if r[lead] < 0:
        g = -g
    if g != 1:
        for k in r:
            r[k] //= g


def nullspace(m: SparseMatrix) -> SubspaceBasis:
    """Canonical nullspace basis (free variables set to 1 in increasing column
    order) of m's rows, handed to ``Echelon`` as they are."""
    return Echelon(m.num_cols, m.rows).nullspace()


def row_space_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """True iff span(a) = span(b), decided by comparing their unique RREFs."""
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("ambient dimension mismatch")
    ra = Echelon(a.dim_ambient, (r.entries for r in a.vectors)).reduced()
    rb = Echelon(b.dim_ambient, (r.entries for r in b.vectors)).reduced()
    return ra == rb


def vector_in_span(v: SparseVector, basis: SubspaceBasis) -> bool:
    if v.max_index() >= basis.dim_ambient:
        raise ValueError("vector index out of range")
    ech = Echelon(basis.dim_ambient, (r.entries for r in basis.vectors))
    return not ech.add(v.entries)


def project_basis(a: SubspaceBasis, coords: Sequence[int]) -> SubspaceBasis:
    """Row-reduced image of span(a) under projection onto the given coordinates."""
    position: dict[int, int] = {}
    for pos, c in enumerate(coords):
        if c in position:
            raise ValueError("duplicate coordinate")
        if not 0 <= c < a.dim_ambient:
            raise ValueError("coordinate out of range")
        position[c] = pos
    rows = ({position[i]: c for i, c in v.entries if i in position} for v in a.vectors)
    reduced, _ = Echelon(len(coords), rows).reduced()
    return SubspaceBasis(len(coords), tuple(map(SparseVector.from_dict, reduced)))
