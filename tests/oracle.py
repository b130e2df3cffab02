"""Brute-force reference implementations, independent of the main solver.

Everything here is deliberately naive: full dense enumeration of tuples,
its own bilinear bracket evaluator on top of the raw stored constants, and
textbook dense Gaussian elimination.  Used to produce expected dimensions
before the sparse solver is trusted, and kept in the suite as a cross-check
on small inputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from gradedlie.algebra import GradedAlgebra


def dense_bracket(alg: GradedAlgebra, x: dict, y: dict) -> dict:
    """Bilinear bracket from the raw stored (i < j) constants only."""
    out: dict[int, Fraction] = {}
    for i, cx in x.items():
        for j, cy in y.items():
            if i == j:
                continue
            if i < j:
                terms = alg.brackets.get((i, j), ())
                sign = 1
            else:
                terms = alg.brackets.get((j, i), ())
                sign = -1
            for k, s in terms:
                out[k] = out.get(k, Fraction(0)) + sign * cx * cy * s
    return {k: v for k, v in out.items() if v}


def dense_nested(alg: GradedAlgebra, elems: list[dict]) -> dict:
    acc = elems[-1]
    for e in reversed(elems[:-1]):
        acc = dense_bracket(alg, e, acc)
    return acc


def _tuple_safe(alg: GradedAlgebra, degs, gamma) -> bool:
    if not alg.truncated:
        return True
    present = alg.degree_set
    s = tuple(0 for _ in gamma)
    for d in reversed(degs):
        s = tuple(a + b for a, b in zip(s, d))
        shifted = tuple(a + b for a, b in zip(s, gamma))
        if s not in present or shifted not in present:
            return False
    return True


def oracle_unknowns(alg: GradedAlgebra, gamma) -> list[tuple[int, int]]:
    pairs = []
    for b in range(alg.dim):
        target = tuple(a + g for a, g in zip(alg.degree_of(b), gamma))
        for bp in range(alg.dim):
            if alg.degree_of(bp) == target:
                pairs.append((b, bp))
    return pairs


def dense_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = Fraction(1) / pr[c]
        for r in range(len(rows)):
            if r == rank:
                continue
            f = rows[r][c]
            if f:
                fr = f * inv
                row = rows[r]
                for j in range(c, cols):
                    row[j] -= fr * pr[j]
        rank += 1
        if rank == len(rows):
            break
    return rank


def mat_vec(m, v: dict) -> list[Fraction]:
    """Product of a ``SparseMatrix`` and a {column: value} vector, one exact
    value per row."""
    return [
        sum((c * v.get(i, 0) for i, c in row), Fraction(0)) for row in m.rows
    ]


def dense_rref(rows: list[list], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Textbook Gauss-Jordan over ``Fraction``: the nonzero rows of the
    reduced row-echelon form, each divided by its pivot entry, and their
    pivot columns."""
    rows = [[Fraction(v) for v in r] for r in rows]
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [v / lead for v in rows[rank]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != rank and f:
                rows[i] = [a - f * b for a, b in zip(row, rows[rank])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def dense_solve(rows: list[list], b: list, cols: int) -> Optional[dict[int, Fraction]]:
    """One exact solution of rows·x = b with every free variable zero, as
    {column: value} over its nonzero entries, or None when the system is
    inconsistent: textbook Gauss-Jordan on the augmented matrix."""
    reduced, pivots = dense_rref([list(r) + [v] for r, v in zip(rows, b)], cols + 1)
    if pivots and pivots[-1] == cols:
        return None  # a row reads 0 = nonzero
    return {p: row[cols] for row, p in zip(reduced, pivots) if row[cols]}


def oracle_rows(alg: GradedAlgebra, order: int, gamma) -> list[list[Fraction]]:
    """Every nonzero order-N constraint row, dense over ``oracle_unknowns``,
    one per safe tuple and target coordinate, from the raw stored constants."""
    gamma = tuple(gamma)
    pairs = oracle_unknowns(alg, gamma)
    col = {p: c for c, p in enumerate(pairs)}
    ncols = len(pairs)
    rows: list[list[Fraction]] = []
    for tup in itertools.product(range(alg.dim), repeat=order):
        degs = [alg.degree_of(b) for b in tup]
        if not _tuple_safe(alg, degs, gamma):
            continue
        plain = dense_nested(alg, [{b: Fraction(1)} for b in tup])
        inserted: list[tuple[int, dict]] = []
        for pos in range(order):
            b = tup[pos]
            target = tuple(a + g for a, g in zip(alg.degree_of(b), gamma))
            for bp in range(alg.dim):
                if alg.degree_of(bp) != target:
                    continue
                elems = [{x: Fraction(1)} for x in tup]
                elems[pos] = {bp: Fraction(1)}
                inserted.append((col[(b, bp)], dense_nested(alg, elems)))
        total = tuple(
            sum(d[i] for d in degs) for i in range(alg.grading_dim)
        )
        target_deg = tuple(a + g for a, g in zip(total, gamma))
        for t in range(alg.dim):
            if alg.degree_of(t) != target_deg:
                continue
            row = [Fraction(0)] * ncols
            for k, c in plain.items():
                row[col[(k, t)]] += c
            for c_idx, elt in inserted:
                v = elt.get(t)
                if v:
                    row[c_idx] -= v
            if any(row):
                rows.append(row)
    return rows


def oracle_nder_dim(alg: GradedAlgebra, order: int, gamma) -> int:
    """Dimension of the order-N solution space by exhaustive dense assembly."""
    return len(oracle_unknowns(alg, gamma)) - dense_rank(oracle_rows(alg, order, gamma))


def oracle_gammas(alg: GradedAlgebra) -> list[tuple[int, ...]]:
    degs = sorted(alg.degree_set)
    out = set()
    for a in degs:
        for b in degs:
            out.add(tuple(x - y for x, y in zip(b, a)))
    return sorted(out)
