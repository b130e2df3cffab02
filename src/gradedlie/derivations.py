"""Homogeneous N-derivation constraint systems and their exact solution.

For a degree shift gamma, the unknown is a homogeneous map given by one
rational coefficient per (source, target) basis pair with
deg(target) = deg(source) + gamma.  Sources whose shifted degree is absent
from the truncation carry no unknowns at all: forcing them to zero would
import truncation artifacts, excluding them keeps each system a relaxation
whose solutions are compared order against order on an inner window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

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
    Rational,
    SparseMatrix,
    SparseVector,
    SubspaceBasis,
    _rank_of_rows,
    nullspace,
    project_basis,
    row_space_equal,
    solve as linear_solve,
    vector_in_span,
)

_COEFF_POOL = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2))


@dataclass(frozen=True)
class SearchBudget:
    samples: int = 20
    seed: int = 0


@dataclass(frozen=True)
class HomogeneousMap:
    """Degree shift plus per-source images, each homogeneous of shifted degree."""

    gamma: Degree
    images: Mapping[int, Element]


class UnknownIndex:
    """Bijection between (source, target) basis pairs and solver columns.

    Pairs are sorted lexicographically; the domain is every source basis
    element whose shifted degree is present in the algebra.
    """

    def __init__(self, alg: GradedAlgebra, gamma: Degree):
        if len(gamma) != alg.grading_dim:
            raise ValueError("gamma length must equal grading_dim")
        self.alg = alg
        self.gamma = tuple(gamma)
        pairs: list[tuple[int, int]] = []
        for b in range(alg.dim):
            for bp in alg.basis_at(add_degrees(alg.degree_of(b), self.gamma)):
                pairs.append((b, bp))
        self.pairs = tuple(pairs)
        self._col = {p: c for c, p in enumerate(pairs)}
        self.domain = tuple(sorted({b for b, _ in pairs}))

    def __len__(self) -> int:
        return len(self.pairs)

    def column(self, source: int, target: int) -> int:
        return self._col[(source, target)]

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
                col = self._col.get((b, bp))
                if col is None:
                    raise ValueError(
                        f"image pair ({b}, {bp}) is not a valid unknown"
                    )
                out[col] = c
        return out


def build_constraints(
    alg: GradedAlgebra, order: int, gamma: Degree
) -> tuple[SparseMatrix, UnknownIndex]:
    """Assemble the homogeneous constraint system over all safe basis tuples.

    One row block per safe tuple and target coordinate.  The walk runs on the
    algebra's integer-scaled structure constants, so every row is the true
    row times scale**(order-1) and spans the same solution space.  Each row
    is divided by the gcd of its entries and signed so that its lead entry is
    positive; that primitive integer row is also its own dedup key, so rows
    equal up to scaling and zero rows are dropped.  Surviving rows keep the
    order in which the walk first meets them; their entries are ``Fraction``
    values with denominator 1.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    index = UnknownIndex(alg, gamma)
    gamma = index.gamma
    colmap = index._col
    by_deg = {d: alg.basis_at(d) for d in sorted(alg.degree_set)}
    apply_basis = alg._apply_basis
    is_safe_sum = alg.is_safe_sum

    ext_cache: dict[Degree, list] = {}

    def ext(s: Degree) -> list[tuple[tuple[int, ...], Degree]]:
        """Degree choices for the next (leftward) tuple slot from suffix sum
        s: those whose new partial sum is safe."""
        got = ext_cache.get(s)
        if got is None:
            got = ext_cache[s] = []
            for d, members in by_deg.items():
                s2 = add_degrees(s, d)
                if is_safe_sum(s2, gamma):
                    got.append((members, s2))
        return got

    candidates: list[tuple[tuple[int, int], ...]] = []
    for b in range(alg.dim):
        tdeg = add_degrees(alg.degree_of(b), gamma)
        candidates.append(
            tuple((colmap[(b, bp)], bp) for bp in alg.basis_at(tdeg))
        )

    best: dict[tuple[tuple[int, int], ...], None] = {}

    def emit(total: Degree, plain: dict[int, int], ins) -> None:
        for t in by_deg.get(add_degrees(total, gamma), ()):
            row: dict[int, int] = {}
            for k, c in plain.items():
                row[colmap[(k, t)]] = c
            for col, elt in ins:
                v = elt.get(t)
                if v:
                    cur = row.get(col)
                    nv = -v if cur is None else cur - v
                    if nv:
                        row[col] = nv
                    else:
                        del row[col]
            if not row:
                continue
            key = tuple(sorted(row.items()))
            g = math.gcd(*row.values())
            if key[0][1] < 0:
                g = -g
            if g != 1:
                key = tuple((col, v // g) for col, v in key)
            best[key] = None

    def walk(level: int, s: Degree, plain: dict[int, int], ins) -> None:
        for members, s2 in ext(s):
            for b in members:
                new_plain = apply_basis(b, plain)
                new_ins = []
                for col, elt in ins:
                    e2 = apply_basis(b, elt)
                    if e2:
                        new_ins.append((col, e2))
                for col, bp in candidates[b]:
                    e2 = apply_basis(bp, plain)
                    if e2:
                        new_ins.append((col, e2))
                if not new_plain and not new_ins:
                    continue  # nothing can emerge from an all-zero suffix
                if level == 1:
                    emit(s2, new_plain, new_ins)
                else:
                    walk(level - 1, s2, new_plain, new_ins)

    for members, s2 in ext(alg.zero_degree()):
        for b in members:
            ins = [(col, {bp: 1}) for col, bp in candidates[b]]
            walk(order - 1, s2, {b: 1}, ins)

    rows = tuple(
        SparseVector(tuple((col, Fraction(v)) for col, v in key)) for key in best
    )
    return SparseMatrix(len(index), rows), index


def solve_nder(alg: GradedAlgebra, order: int, gamma: Degree) -> SubspaceBasis:
    """Exact solution space of the order-N constraint system at shift gamma."""
    matrix, _ = build_constraints(alg, order, gamma)
    return nullspace(matrix)


def is_nder(alg: GradedAlgebra, phi: HomogeneousMap, order: int) -> bool:
    """Whether phi satisfies every safe tuple constraint of the given order."""
    matrix, index = build_constraints(alg, order, phi.gamma)
    return not any(matrix.apply(index.encode(phi)))


@dataclass(frozen=True)
class ComparisonReport:
    """Result of comparing two solution spaces on an inner window."""

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
    return max(abs(c) for d in alg.degree_set for c in d)


def compare_orders(
    alg: GradedAlgebra,
    order1: int,
    order2: int,
    gamma: Degree,
    inner: WindowSpec,
) -> ComparisonReport:
    """Solve both systems and compare their projections onto the inner window.

    If the projected row spaces differ, a witness vector lying in exactly one
    of them is reported.
    """
    outer = _outer_radius(alg)
    if inner.max_abs > outer:
        raise ValueError("inner window exceeds the algebra window")
    m1, index = build_constraints(alg, order1, gamma)
    m2, _ = build_constraints(alg, order2, gamma)
    basis1 = nullspace(m1)
    basis2 = nullspace(m2)
    proj_cols = [
        col
        for col, (b, _bp) in enumerate(index.pairs)
        if all(abs(c) <= inner.max_abs for c in alg.degree_of(b))
    ]
    p1 = project_basis(basis1, proj_cols)
    p2 = project_basis(basis2, proj_cols)
    equal = row_space_equal(p1, p2)
    intersection = p1.dim
    witness_side = None
    witness = None
    if not equal:
        rank_union = _rank_of_rows(p1.vectors + p2.vectors, p1.dim_ambient)
        intersection = p1.dim + p2.dim - rank_union
        for v in p2.vectors:
            if not vector_in_span(v, p1):
                witness_side, witness = "second", v
                break
        else:
            for v in p1.vectors:
                if not vector_in_span(v, p2):
                    witness_side, witness = "first", v
                    break
    return ComparisonReport(
        algebra=alg.name,
        orders=(order1, order2),
        gamma=tuple(gamma),
        outer_max_abs=outer,
        inner_max_abs=inner.max_abs,
        unknowns=len(index),
        constraints=(m1.num_rows, m2.num_rows),
        nullities=(basis1.dim, basis2.dim),
        projected_pairs=tuple(index.pairs[c] for c in proj_cols),
        dims=(p1.dim, p2.dim, intersection),
        equal=equal,
        witness_side=witness_side,
        witness=witness,
    )


def is_inner(alg: GradedAlgebra, phi: HomogeneousMap) -> Optional[Element]:
    """A homogeneous x with ad(x) matching phi on phi's domain, if one exists.

    Deterministic: the underlying linear solve sets free variables to zero,
    so the zero map always returns the zero element.
    """
    gamma = tuple(phi.gamma)
    generators = alg.basis_at(gamma)
    index = UnknownIndex(alg, gamma)
    index.encode(phi)  # validates well-formedness
    rows: list[dict[int, Rational]] = []
    rhs: dict[int, Rational] = {}
    row_pos = 0
    for b in index.domain:
        img = phi.images.get(b, {})
        targets = alg.basis_at(add_degrees(alg.degree_of(b), gamma))
        ad_values = [dict(alg.pair_bracket(g, b)) for g in generators]
        for t in targets:
            row = {}
            for g_pos, vals in enumerate(ad_values):
                c = vals.get(t)
                if c:
                    row[g_pos] = c
            rows.append(row)
            want = img.get(t)
            if want:
                rhs[row_pos] = want
            row_pos += 1
    solution = linear_solve(
        SparseMatrix.from_rows(len(generators), rows),
        SparseVector.from_dict(rhs),
    )
    if solution is None:
        return None
    return {generators[pos]: c for pos, c in solution.entries}


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
    alg: GradedAlgebra, x: Element, budget: SearchBudget = SearchBudget()
) -> PWitness:
    """Decide the triple-bracket test exactly, then search for a two-factor
    decomposition witness; a none-found result is window-relative, never a
    completeness claim."""
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

    for b1 in range(alg.dim):
        beta = sub_degrees(alpha, alg.degree_of(b1))
        if beta == zero or beta == alpha:
            continue
        for b2 in alg.basis_at(beta):
            z = dict(alg.pair_bracket(b1, b2))
            c = _proportionality(z, x)
            if c:
                return PWitness(
                    "P1",
                    alpha,
                    dict(x),
                    left=alg.unit(b1),
                    right={b2: 1 / c},
                    beta=beta,
                )

    rng = random.Random(budget.seed)
    for beta in sorted(alg.degree_set):
        if beta == zero or beta == alpha:
            continue
        left_deg = sub_degrees(alpha, beta)
        left_members = alg.basis_at(left_deg)
        right_members = alg.basis_at(beta)
        if not left_members or not right_members:
            continue
        for _ in range(budget.samples):
            y1 = {b: rng.choice(_COEFF_POOL) for b in left_members}
            y2 = {b: rng.choice(_COEFF_POOL) for b in right_members}
            c = _proportionality(alg.bracket(y1, y2), x)
            if c:
                return PWitness(
                    "P1",
                    alpha,
                    dict(x),
                    left=y1,
                    right={k: v / c for k, v in y2.items()},
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
