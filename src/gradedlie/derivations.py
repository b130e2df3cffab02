"""Homogeneous N-derivation constraint systems and their exact solution.

For a degree shift gamma, the unknown is a homogeneous map D given by one
rational coefficient per (source, target) basis pair with
deg(target) = deg(source) + gamma.  Sources whose shifted degree is absent
from the truncation lie outside the domain and carry no unknowns.  A safe
tuple that holds such a source a still emits rows, with no term for D a, so
the rows force D a = 0.  The system is therefore not a relaxation of the
full algebra's: on a truncation, an inner derivation restricted to the
domain can fail it away from gamma = 0 (ROADMAP item 1).  Solutions are
compared order against order on an inner window.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Mapping, Optional

from .algebra import (
    Degree,
    Element,
    GradedAlgebra,
    add_degrees,
    negate_degree,
    sub_degrees,
)
from .builders import WindowSpec
from .linalg import (
    Echelon,
    Rational,
    SparseMatrix,
    SparseVector,
    SubspaceBasis,
    _make_primitive,
    nullspace,
    project_basis,
    row_space_equal,
    vector_in_span,
)

_COEFF_POOL = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2))

# A primitive integer constraint row: sorted (column, value) pairs.
Row = tuple[tuple[int, int], ...]

# The largest order the walk accepts: it nests one generator frame per tuple
# element, and 500 leaves half of Python's default recursion limit to callers.
MAX_ORDER = 500


def _check_orders(*orders: int) -> None:
    if not all(2 <= n <= MAX_ORDER for n in orders):
        raise ValueError(f"order must be between 2 and {MAX_ORDER}")


@dataclass(frozen=True)
class HomogeneousMap:
    """Degree shift plus per-source images, each homogeneous of shifted degree."""

    gamma: Degree
    images: Mapping[int, Element]


class UnknownIndex:
    """Bijection between (source, target) basis pairs and solver columns.

    Pairs are sorted lexicographically; the domain is every source basis
    element whose shifted degree is present in the algebra.  The column
    layout is built once here into one table, ``by_source[b]``: the
    (column, target) of each unknown with source b, which the constraint
    walk reads; the walk's last step builds its per-target table from
    ``pairs``.  ``column``, which ``encode`` and ``is_inner`` call, looks a
    pair up in a dict keyed by (source, target), built from ``pairs``.
    """

    def __init__(self, alg: GradedAlgebra, gamma: Degree):
        if len(gamma) != alg.grading_dim:
            raise ValueError("gamma length must equal grading_dim")
        if alg._grading_violations:
            raise ValueError(
                f"ill-graded algebra: {alg._grading_violations[0].message}"
            )
        self.alg = alg
        self.gamma = tuple(gamma)
        pairs: list[tuple[int, int]] = []
        by_source: list[tuple[tuple[int, int], ...]] = []
        for b in range(alg.dim):
            targets = alg.basis_at(add_degrees(alg.degree_of(b), self.gamma))
            by_source.append(tuple(enumerate(targets, len(pairs))))
            pairs.extend((b, t) for t in targets)
        self.pairs = tuple(pairs)
        self.by_source = tuple(by_source)
        self.domain = tuple(b for b, cols in enumerate(by_source) if cols)
        self._columns = {pair: col for col, pair in enumerate(self.pairs)}

    def __len__(self) -> int:
        return len(self.pairs)

    def column(self, source: int, target: int) -> int:
        return self._columns[source, target]

    def decode(self, vec: SparseVector) -> HomogeneousMap:
        images: dict[int, Element] = {}
        for col, c in vec.entries:
            b, bp = self.pairs[col]
            images.setdefault(b, {})[bp] = c
        return HomogeneousMap(self.gamma, images)

    def encode(self, phi: HomogeneousMap) -> dict[int, Rational]:
        if tuple(phi.gamma) != self.gamma:
            raise ValueError("degree shift mismatch")
        out: dict[int, Rational] = {}
        for b, img in phi.images.items():
            for bp, c in img.items():
                if c == 0:
                    raise ValueError("zero coefficients must not be stored")
                try:
                    out[self.column(b, bp)] = c
                except KeyError:
                    raise ValueError(
                        f"image pair ({b}, {bp}) is not a valid unknown"
                    ) from None
        return out


def constraint_rows(index: UnknownIndex, order: int) -> Iterator[Row]:
    """Walk every safe tuple of the given order and yield each distinct
    constraint row of the system on ``index`` the first time the walk meets it.

    One row block per safe tuple and target coordinate.  The walk runs on the
    algebra's integer-scaled structure constants, so every row is the true
    row times scale**(order-1) and spans the same solution space.  Each row
    is divided by the gcd of its entries and signed so that its lead entry is
    positive, and is yielded as a sorted tuple of (column, int) pairs; that
    primitive row is also its own dedup key, so rows equal up to scaling and
    zero rows are yielded once or not at all.

    The walk extends tuples leftward and decides each slot from one table
    per degree sum s of the right part (the tuple built so far), made once
    per walk: the (element, new sum) of each element whose new sum is
    safe, in the walk's order (degree, then basis index), and for the i-th
    of them the key i·dim of the rows of the tuple it completes, None for
    the others.  On the first step the table is filtered for the mirror: a
    tuple (..., a, b) and (..., b, a), which swaps the two innermost
    elements, reach negated suffix states and so the same primitive rows,
    so the walk skips a == b, whose rows vanish, and a < b whenever the
    mirror is itself safe (deg a is a safe sum, read off the table of sum
    0).

    Each right part carries its suffix state: one flat int dict keyed by
    (column, basis index).  Column -1 holds the nested bracket of the right
    part (the plain element); column c holds the sum of the nested brackets
    with an element replaced by its target in unknown c, over every
    position where c's source sits.  Every row is linear in the state, so
    insertions at one column may be summed.  Extending by b brackets every
    entry with b, and a plain entry j also adds [b', e_j] at column (b, b')
    for each target b' of b.  A state whose entries all cancel is not
    extended: its rows are all zero.

    A suffix state of at least 3 elements that is extended further, so from
    order 4 on, is made primitive in place by the helper that normalises
    rows (``linalg._make_primitive``: divided by the gcd of its entries, the
    entry at its least key positive), which scales every row below it by one
    nonzero scalar that row normalisation removes.  It is skipped when an
    earlier one had the same key: the remaining depth and the primitive
    state, not the degree sum.  On a graded algebra (``UnknownIndex`` takes
    no other) any entry of a nonzero state fixes its degree sum s: a plain
    entry sits at degree s, an insertion at s + gamma.  Past the innermost
    pair nothing in the subtree reads the tuple itself, so the subtree's
    rows depend on the key alone, up to one scalar.  Equal depth means
    neither state lies under the other, so the depth-first walk has finished
    the earlier subtree and every row of the skipped one is a multiple of a
    row already yielded: the walk yields the same rows in the same order,
    and ``compare_orders``' examined-row counts do not move.

    The last step is partner-driven: one pass over a suffix state builds
    the rows of every tuple one more element c completes, row (c, t)
    reading D[c, X] − [D c, X] − [c, D X] at target t, X the right part.
    An entry at basis index j adds only through its nonzero bracket
    partners b, ``alg._ad[j]``: a plain entry x adds x·[b, e_j]_k at column
    (k, t) of row (b, t) for each unknown (k, t), and subtracts x·[b, e_j]_t
    at column (c, b) of row (c, t) for each unknown (c, b), read from a
    per-target table; an insertion entry x subtracts x·[b, e_j]_t at its
    own column of row (b, t).  Rows are keyed p = i·dim + t by the table,
    so sorted p is c in the walk's order, then t ascending, as a step per
    element met them; each row is sorted by column once and made primitive.
    These are the exact int sums that building c's suffix state and reading
    each target off it would form, added in another order, so the rows and
    their order are the same.  The new rows of one suffix state are
    collected in a list and yielded from it; a consumer that stops early
    still counts only the rows it reads.

    An order below 2 or above ``MAX_ORDER`` is refused with a ``ValueError``.
    """
    _check_orders(order)
    alg = index.alg
    gamma = index.gamma
    dim = alg.dim
    zero = alg.zero_degree()
    degrees = sorted(alg.degree_set)
    candidates = index.by_source
    # by_target[t]: the (column, source) of each unknown with target t
    by_target: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    for col, (b, t) in enumerate(index.pairs):
        by_target[t].append((col, b))
    ad = alg._ad
    tables: dict[Degree, tuple[list[tuple[int, Degree]], list[Optional[int]]]] = {}

    def table(s: Degree, inner: int):
        """The steps and row keys of the slot left of suffix sum s; inner is
        the innermost element on the first step, -1 further out."""
        got = tables.get(s)
        if got is None:
            steps: list[tuple[int, Degree]] = []
            base: list[Optional[int]] = [None] * dim
            for d in degrees:
                s2 = add_degrees(s, d)
                if alg.is_safe_sum(s2, gamma):
                    for c in alg.basis_at(d):
                        base[c] = len(steps) * dim
                        steps.append((c, s2))
            got = tables[s] = steps, base
        if inner < 0:
            return got
        # the first step: the mirror tuple gives the same rows
        safe = tables[zero][1]  # built first; not None iff deg c is safe
        base = [
            None if c <= inner and (c == inner or safe[c] is not None) else p
            for c, p in enumerate(got[1])
        ]
        return [step for step in got[0] if base[step[0]] is not None], base

    seen: set[Row] = set()
    walked: set[tuple] = set()

    def last_step(base: list[Optional[int]], state: dict[tuple[int, int], int]):
        """The new rows of every tuple one element completes from the state."""
        # rows[p]: the row of key p.  ad[j][b] holds −scale·[e_b, e_j], so
        # each term enters with the sign opposite to the docstring's.
        rows: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for (col, j), c in state.items():
            if col < 0:
                for b, terms in ad[j].items():
                    p0 = base[b]
                    if p0 is not None:  # D[b, e_j], through each unknown (k, t)
                        for k, v in terms:
                            cv = c * v
                            for col_k, t in candidates[k]:
                                row = rows[p0 + t]
                                row[col_k] = row.get(col_k, 0) - cv
                    for col_a, a in by_target[b]:  # [D a, e_j], through unknown (a, b)
                        p0 = base[a]
                        if p0 is not None:
                            for t, v in terms:
                                row = rows[p0 + t]
                                row[col_a] = row.get(col_a, 0) + c * v
            else:
                for b, terms in ad[j].items():
                    p0 = base[b]
                    if p0 is not None:
                        for t, v in terms:
                            row = rows[p0 + t]
                            row[col] = row.get(col, 0) + c * v
        last: list[Row] = []
        for p in sorted(rows):
            row = rows[p]
            if 0 in row.values():  # cancelled entries
                row = {col: v for col, v in row.items() if v}
                if not row:
                    continue
            if len(row) == 1:
                key: Row = ((*row, 1),)
            else:
                items = sorted(row.items())
                g = gcd(*row.values())
                if items[0][1] < 0:
                    g = -g
                if g != 1:
                    items = [(k, v // g) for k, v in items]
                key = tuple(items)
            if key not in seen:
                seen.add(key)
                last.append(key)
        return last

    def walk(level: int, s: Degree, state: dict[tuple[int, int], int], inner: int):
        steps, base = table(s, inner)
        if level == 1:
            yield from last_step(base, state)
            return
        for b, s2 in steps:
            ad_b = ad[b]
            cand_b = candidates[b]
            new: dict[tuple[int, int], int] = {}
            for (col, j), c in state.items():
                for k, v in ad_b.get(j, ()):
                    new[col, k] = new.get((col, k), 0) + c * v
                if col < 0:
                    for col_b, bp in cand_b:
                        for k, v in ad[bp].get(j, ()):
                            new[col_b, k] = new.get((col_b, k), 0) + c * v
            if 0 in new.values():  # cancelled entries
                new = {key: v for key, v in new.items() if v}
            if not new:
                continue  # nothing can emerge from an all-zero suffix
            if level <= order - 2:  # the new suffix has >= 3 elements
                _make_primitive(new, min(new))
                key = (level, frozenset(new.items()))
                if key in walked:
                    continue  # its rows are multiples of rows already met
                walked.add(key)
            yield from walk(level - 1, s2, new, -1)

    try:
        for b, s2 in table(zero, -1)[0]:
            state = dict.fromkeys(((-1, b),) + candidates[b], 1)
            yield from walk(order - 1, s2, state, b)
    finally:
        # walk reaches itself through its closure cell; break that cycle so
        # the walk's caches are freed when the rows end or the consumer
        # stops early, instead of at the next cyclic GC.
        del walk


def build_constraints(
    alg: GradedAlgebra, order: int, gamma: Degree
) -> tuple[SparseMatrix, UnknownIndex]:
    """Assemble the homogeneous constraint system over all safe basis tuples.

    The rows are every row ``constraint_rows`` yields, in the order the walk
    first meets them, as the walk's own tuples: primitive integer vectors
    (gcd 1, lead entry positive) of Python ``int`` values, distinct up to
    scaling; ``Fraction`` first appears at the pivot division in elimination.
    """
    index = UnknownIndex(alg, gamma)
    return SparseMatrix(len(index), tuple(constraint_rows(index, order))), index


def solve_nder(alg: GradedAlgebra, order: int, gamma: Degree) -> SubspaceBasis:
    """Exact solution space of the order-N constraint system at shift gamma."""
    matrix, _ = build_constraints(alg, order, gamma)
    return nullspace(matrix)


def is_nder(alg: GradedAlgebra, phi: HomogeneousMap, order: int) -> bool:
    """Whether phi satisfies every safe tuple constraint of the given order;
    stops at the first row phi violates."""
    index = UnknownIndex(alg, phi.gamma)
    x = index.encode(phi)
    for row in constraint_rows(index, order):
        if sum(v * x[col] for col, v in row if col in x):
            return False
    return True


@dataclass(frozen=True)
class ComparisonReport:
    """Result of comparing two solution spaces on an inner window.

    ``constraints`` counts the constraint rows examined per order: every
    distinct row of the full walk at order 2, and at a higher order only the
    rows read before the S₂ ⊆ S_N early stop, if it fired.
    """

    algebra: str
    orders: tuple[int, int]
    gamma: Degree
    outer_max_abs: int
    inner_max_abs: int
    unknowns: int
    constraints: tuple[int, int]
    nullities: tuple[int, int]
    projected_pairs: tuple[tuple[int, int], ...]
    dims: tuple[int, int, int]  # (first, second, intersection) after projection
    equal: bool
    witness_side: Optional[str] = None  # "first" | "second"
    witness: Optional[SparseVector] = None


def _outer_radius(alg: GradedAlgebra) -> int:
    """The algebra's window radius: its largest absolute degree coordinate,
    or 1 when every degree is zero, since a ``WindowSpec`` radius is >= 1."""
    return max(1, *(abs(c) for d in alg.degree_set for c in d))


def _solve_above_s2(
    index: UnknownIndex, order: int, s2: SubspaceBasis
) -> tuple[int, SubspaceBasis]:
    """Rows examined and the canonical order-N nullspace on ``index``, given
    the order-2 one, S₂ ⊆ S_N.

    Rows are folded in as the walk yields them.  Once their rank reaches
    cols − dim S₂, their nullspace is compared with S₂; if the two are equal,
    the remaining rows cannot shrink it below S₂ ⊆ S_N, so the walk stops
    there and S₂ is returned.  Otherwise every row is folded in.
    """
    ech = Echelon(len(index))
    goal = len(index) - s2.dim

    def certified() -> bool:
        return ech.rank == goal and ech.nullspace() == s2

    examined = 0
    if certified():
        return examined, s2
    for row in constraint_rows(index, order):
        examined += 1
        if ech.add(row) and certified():
            return examined, s2  # closing the walk frees its caches
    return examined, ech.nullspace()


@lru_cache(maxsize=1)
def _solve_s2(
    alg: GradedAlgebra, gamma: Degree
) -> tuple[UnknownIndex, int, SubspaceBasis]:
    """The order-2 index, row count and canonical S₂ at gamma.  Only the last
    call is kept, and ``GradedAlgebra`` hashes by identity, so only the same
    algebra object at the same gamma reuses it."""
    m, index = build_constraints(alg, 2, gamma)
    return index, m.num_rows, nullspace(m)


def compare_orders(
    alg: GradedAlgebra,
    order1: int,
    order2: int,
    gamma: Degree,
    inner: WindowSpec,
) -> ComparisonReport:
    """Solve both systems and compare their projections onto the inner window.

    Every order-2 solution is an order-N solution (S₂ ⊆ S_N, by Leibniz), so
    S₂ is solved in full once and lets each higher order stop its walk early
    (see ``_solve_above_s2``).  A call on the same algebra object at the same
    gamma as the last one reuses its order-2 solve, so (2, 3) then (2, 4)
    solve order 2 once; the result does not depend on the reuse.

    If the projected row spaces differ, a witness vector lying in exactly one
    of them is reported.
    """
    _check_orders(order1, order2)
    outer = _outer_radius(alg)
    if inner.max_abs > outer:
        raise ValueError("inner window exceeds the algebra window")
    gamma = tuple(gamma)
    index, rows, s2 = _solve_s2(alg, gamma)
    solved = {2: (rows, s2)}
    for order in (order1, order2):
        if order not in solved:
            solved[order] = _solve_above_s2(index, order, s2)
    (rows1, basis1), (rows2, basis2) = solved[order1], solved[order2]
    proj_cols = [
        col
        for col, (b, _bp) in enumerate(index.pairs)
        if all(abs(c) <= inner.max_abs for c in alg.degree_of(b))
    ]
    p1, p2 = (project_basis(basis, proj_cols) for basis in (basis1, basis2))
    equal = row_space_equal(p1, p2)
    intersection, witness_side, witness = p1.dim, None, None
    if not equal:
        union = Echelon(len(proj_cols), (v.entries for v in p1.vectors + p2.vectors))
        intersection = p1.dim + p2.dim - union.rank
        # the first vector of p2, then of p1, outside the other space
        witness_side, witness = next(
            (side, v)
            for side, own, other in (("second", p2, p1), ("first", p1, p2))
            for v in own.vectors
            if not vector_in_span(v, other)
        )
    return ComparisonReport(
        algebra=alg.name,
        orders=(order1, order2),
        gamma=gamma,
        outer_max_abs=outer,
        inner_max_abs=inner.max_abs,
        unknowns=len(index),
        constraints=(rows1, rows2),
        nullities=(basis1.dim, basis2.dim),
        projected_pairs=tuple(index.pairs[c] for c in proj_cols),
        dims=(p1.dim, p2.dim, intersection),
        equal=equal,
        witness_side=witness_side,
        witness=witness,
    )


def is_inner(alg: GradedAlgebra, phi: HomogeneousMap) -> Optional[Element]:
    """A homogeneous x with ad(x) matching phi on phi's domain, if one exists.

    One row per unknown (b, t): sum over g of x_g [g, e_b]_t − phi(e_b)_t = 0,
    with phi's column last.  That column is free exactly when the rows are
    consistent, and its canonical nullspace vector, the last one, is then x
    with every other free coefficient zero: deterministic, {} for phi = 0.
    """
    gamma = tuple(phi.gamma)
    generators = alg.basis_at(gamma)
    index = UnknownIndex(alg, gamma)
    phi_col = len(generators)
    rows: list[dict[int, Rational]] = [{} for _ in index.pairs]
    for pos, g in enumerate(generators):
        for b in index.domain:
            for t, c in alg.bracket(alg.unit(g), alg.unit(b)).items():
                rows[index.column(b, t)][pos] = c
    for col, c in index.encode(phi).items():
        rows[col][phi_col] = -c
    null = Echelon(phi_col + 1, rows).nullspace().vectors
    if not null or null[-1].max_index() != phi_col:
        return None  # phi's column is a pivot: a row reads 0 = nonzero
    return {generators[pos]: c for pos, c in null[-1].entries[:-1]}


def decompose_homogeneous(
    alg: GradedAlgebra, images: Mapping[int, Element]
) -> list[tuple[Degree, HomogeneousMap]]:
    """Split an arbitrary basis-image map into its homogeneous components.

    Components are returned sorted by degree shift and sum back to the input
    exactly.
    """
    buckets: dict[Degree, dict[int, Element]] = {}
    for b, img in images.items():
        alg._check_element(img)
        if not 0 <= b < alg.dim:
            raise ValueError(f"basis index {b} out of range")
        db = alg.degree_of(b)
        for k, c in img.items():
            shift = sub_degrees(alg.degree_of(k), db)
            buckets.setdefault(shift, {}).setdefault(b, {})[k] = c
    return [
        (shift, HomogeneousMap(shift, buckets[shift]))
        for shift in sorted(buckets)
    ]


@dataclass(frozen=True)
class PWitness:
    """Outcome of the per-element decomposability/nondegeneracy search."""

    kind: str  # "P1" | "P2" | "none-found"
    alpha: Degree
    element: Element
    partner: Optional[Element] = None  # P2: nonzero triple bracket partner
    left: Optional[Element] = None  # P1: element = [left, right]
    right: Optional[Element] = None
    beta: Optional[Degree] = None


def _homogeneous_degree(alg: GradedAlgebra, x: Element) -> Degree:
    alg._check_element(x)
    if not x:
        raise ValueError("element is zero")
    degs = {alg.degree_of(k) for k in x}
    if len(degs) != 1:
        raise ValueError("element is not homogeneous")
    return next(iter(degs))


def _proportionality(z: Element, x: Element) -> Optional[Rational]:
    """c with z = c*x, if it exists and is nonzero."""
    if not z or set(z) != set(x):
        return None
    k0 = next(iter(x))
    c = z[k0] / x[k0]
    for k, v in x.items():
        if z[k] != c * v:
            return None
    return c


def check_property_p(
    alg: GradedAlgebra, x: Element, samples: int = 20, seed: int = 0
) -> PWitness:
    """Decide the triple-bracket test exactly, then search for a two-factor
    decomposition witness: every basis pair first, then ``samples`` random
    pairs per degree split, drawn from ``random.Random(seed)``.  A none-found
    result is window-relative, never a completeness claim."""
    alpha = _homogeneous_degree(alg, x)
    zero = alg.zero_degree()
    if alpha == zero:
        raise ValueError("element must have nonzero degree")
    neg = negate_degree(alpha)
    if neg not in alg.degree_set:
        raise ValueError("opposite degree is absent; test does not apply")

    for y in alg.basis_at(neg):
        triple = alg.bracket(x, alg.bracket(x, alg.unit(y)))
        if triple:
            return PWitness("P2", alpha, dict(x), partner=alg.unit(y))

    def candidates() -> Iterator[tuple[Element, Element, Degree]]:
        # (left, right, deg right): every basis pair first, then the seeded
        # samples for each beta in sorted order
        for b1 in range(alg.dim):
            beta = sub_degrees(alpha, alg.degree_of(b1))
            if beta == zero or beta == alpha:
                continue
            for b2 in alg.basis_at(beta):
                yield alg.unit(b1), alg.unit(b2), beta
        rng = random.Random(seed)
        for beta in sorted(alg.degree_set):
            if beta == zero or beta == alpha:
                continue
            left_members = alg.basis_at(sub_degrees(alpha, beta))
            right_members = alg.basis_at(beta)
            if not left_members or not right_members:
                continue
            for _ in range(samples):
                y1 = {b: rng.choice(_COEFF_POOL) for b in left_members}
                y2 = {b: rng.choice(_COEFF_POOL) for b in right_members}
                yield y1, y2, beta

    for left, right, beta in candidates():
        c = _proportionality(alg.bracket(left, right), x)
        if c:
            return PWitness(
                "P1",
                alpha,
                dict(x),
                left=left,
                right={k: v / c for k, v in right.items()},
                beta=beta,
            )
    return PWitness("none-found", alpha, dict(x))


def verify_property_witness(alg: GradedAlgebra, witness: PWitness) -> bool:
    """Re-check a reported witness by direct bracket evaluation."""
    if witness.kind == "P2":
        assert witness.partner is not None
        return bool(
            alg.bracket(witness.element, alg.bracket(witness.element, witness.partner))
        )
    if witness.kind == "P1":
        assert witness.left is not None and witness.right is not None
        return alg.bracket(witness.left, witness.right) == witness.element
    return False


def domain_gammas(alg: GradedAlgebra) -> list[Degree]:
    """All degree shifts with a nonempty unknown domain."""
    out = {
        sub_degrees(d2, d1)
        for d1 in alg.degree_set
        for d2 in alg.degree_set
    }
    return sorted(out)
