"""Graded Lie algebra data model.

A ``GradedAlgebra`` holds a finite basis with integer-vector degrees, sparse
antisymmetric structure constants stored only for index pairs i < j, and a
designated Cartan index set.  Brackets whose true result lies outside the
stored degree set are simply absent; soundness of every computation on a
truncation is the caller's responsibility via :meth:`GradedAlgebra.is_safe_sum`.

``brackets`` and the ``bracket`` evaluators are exact ``Fraction`` values; the
constraint walk and the Jacobi check read a private integer table of every
constant times their least common denominator ``scale``, since a uniformly
scaled bracket has the same Jacobi zeros and N-derivation spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .linalg import Rational

Degree = tuple[int, ...]

# Sparse coefficient vector over basis indices; zero coefficients never stored.
Element = dict[int, Rational]

_ONE = Fraction(1)


class InvalidAlgebraError(Exception):
    """Raised when data violates the graded Lie algebra contract."""

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report


def add_degrees(a: Degree, b: Degree) -> Degree:
    return tuple(x + y for x, y in zip(a, b))


def sub_degrees(a: Degree, b: Degree) -> Degree:
    return tuple(x - y for x, y in zip(a, b))


def negate_degree(a: Degree) -> Degree:
    return tuple(-x for x in a)


@dataclass(frozen=True)
class BasisElement:
    index: int
    label: str
    degree: Degree


@dataclass(frozen=True)
class Violation:
    kind: str  # "grading" | "jacobi" | "cartan-degree" | "eigenvector"
    indices: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()
    warnings: tuple[Violation, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations

    @property
    def empty(self) -> bool:
        return not self.violations and not self.warnings


class GradedAlgebra:
    """Immutable graded Lie algebra given by basis and sparse structure constants."""

    def __init__(
        self,
        name: str,
        grading_dim: int,
        basis: Sequence[BasisElement],
        brackets: Mapping[tuple[int, int], Sequence[tuple[int, Rational]]],
        cartan: Iterable[int],
        truncated: bool = False,
    ):
        if grading_dim < 1:
            raise ValueError("grading_dim must be >= 1")
        self.name = name
        self.grading_dim = grading_dim
        # Truncated algebras are finite windows of larger ones: an absent
        # degree is unknown there, while in a complete algebra it is a zero
        # component and every bracket evaluation is exact.
        self.truncated = bool(truncated)
        self.basis = tuple(basis)
        n = len(self.basis)
        labels = set()
        for pos, b in enumerate(self.basis):
            if b.index != pos:
                raise ValueError("basis indices must be dense 0..B-1")
            if b.label in labels:
                raise ValueError(f"duplicate label {b.label!r}")
            labels.add(b.label)
            if len(b.degree) != grading_dim:
                raise ValueError(f"degree length mismatch for {b.label!r}")
        clean: dict[tuple[int, int], tuple[tuple[int, Rational], ...]] = {}
        for (i, j), terms in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < B")
            prev = -1
            out = []
            for k, c in terms:
                if not 0 <= k < n:
                    raise ValueError(f"bracket target {k} out of range")
                if k <= prev:
                    raise ValueError("bracket terms must be sorted by target index")
                if c == 0:
                    raise ValueError("zero structure constants must not be stored")
                prev = k
                out.append((k, Fraction(c)))
            if out:
                clean[(i, j)] = tuple(out)
        self.brackets = clean
        self.cartan = frozenset(cartan)
        for h in self.cartan:
            if not 0 <= h < n:
                raise ValueError(f"cartan index {h} out of range")

        self._degrees = tuple(b.degree for b in self.basis)
        by_degree: dict[Degree, list[int]] = {}
        for b in self.basis:
            by_degree.setdefault(b.degree, []).append(b.index)
        self._by_degree = {d: tuple(v) for d, v in by_degree.items()}
        self._degree_set = frozenset(self._by_degree)
        self._label_index = {b.label: b.index for b in self.basis}
        # The walk's table: scale times every constant, both key orders.
        scale = math.lcm(*(c.denominator for ts in clean.values() for _, c in ts))
        table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for (i, j), terms in clean.items():
            scaled = tuple((k, c.numerator * scale // c.denominator) for k, c in terms)
            table[(i, j)] = scaled
            table[(j, i)] = tuple((k, -c) for k, c in scaled)
        self._table = table

    # -- plain accessors -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def degree_set(self) -> frozenset[Degree]:
        return self._degree_set

    def degree_of(self, index: int) -> Degree:
        return self._degrees[index]

    def label(self, index: int) -> str:
        return self.basis[index].label

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"no basis element labelled {label!r}") from None

    def basis_at(self, degree: Degree) -> tuple[int, ...]:
        return self._by_degree.get(degree, ())

    def zero_degree(self) -> Degree:
        return (0,) * self.grading_dim

    def unit(self, index: int) -> Element:
        return {index: _ONE}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        return (
            self.name == other.name
            and self.grading_dim == other.grading_dim
            and self.basis == other.basis
            and self.brackets == other.brackets
            and self.cartan == other.cartan
            and self.truncated == other.truncated
        )

    def __repr__(self) -> str:
        return f"GradedAlgebra({self.name!r}, dim={self.dim})"

    # -- bracket evaluation ----------------------------------------------

    def pair_bracket(self, i: int, j: int) -> tuple[tuple[int, Rational], ...]:
        """[e_i, e_j] as stored terms, with antisymmetry synthesized."""
        if i > j:
            return tuple((k, -c) for k, c in self.brackets.get((j, i), ()))
        return self.brackets.get((i, j), ())

    def _apply_basis(self, i: int, x: dict[int, int]) -> dict[int, int]:
        """scale·[e_i, x] for an integer-valued x, without input validation
        (hot path)."""
        table = self._table
        out: dict[int, int] = {}
        for j, c in x.items():
            terms = table.get((i, j))
            if terms:
                for k, s in terms:
                    v = out.get(k)
                    if v is None:
                        out[k] = c * s
                    else:
                        nv = v + c * s
                        if nv:
                            out[k] = nv
                        else:
                            del out[k]
        return out

    def _check_element(self, x: Element) -> None:
        n = len(self.basis)
        for k, c in x.items():
            if not 0 <= k < n:
                raise ValueError(f"basis index {k} out of range")
            if c == 0:
                raise ValueError("zero coefficients must not be stored")

    def bracket(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the structure constants."""
        self._check_element(x)
        self._check_element(y)
        out: Element = {}
        for i, cx in x.items():
            for j, cy in y.items():
                terms = self.pair_bracket(i, j)
                if not terms:
                    continue
                c = cx * cy
                for k, s in terms:
                    v = out.get(k)
                    if v is None:
                        out[k] = c * s
                    else:
                        nv = v + c * s
                        if nv:
                            out[k] = nv
                        else:
                            del out[k]
        return out

    def n_bracket(self, xs: Sequence[Element]) -> Element:
        """Right-nested iterated bracket, folding from the last pair leftward."""
        if len(xs) < 2:
            raise ValueError("n_bracket needs at least 2 arguments")
        acc = xs[-1]
        self._check_element(acc)
        for x in reversed(xs[:-1]):
            acc = self.bracket(x, acc)
        return acc

    # -- truncation safety ---------------------------------------------------

    def is_safe_sum(self, s: Degree, gamma: Degree) -> bool:
        """Whether a right-partial degree sum s of a constraint tuple keeps
        every bracket met at that step, with or without a gamma-shift
        insertion, exactly evaluable.

        On a truncation this requires both s and s + gamma to be present; a
        tuple is safe when every one of its right-partial sums is.  On a
        complete algebra absent degrees are zero components, so every sum is
        safe.
        """
        if len(s) != self.grading_dim or len(gamma) != self.grading_dim:
            raise ValueError("degree length must equal grading_dim")
        if not self.truncated:
            return True
        present = self._degree_set
        return s in present and add_degrees(s, gamma) in present

    # -- validation ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check grading, Jacobi on fully checkable triples, Cartan degrees and
        the simultaneous-eigenvector condition.  Violations are data, not errors."""
        violations: list[Violation] = []
        warnings: list[Violation] = []
        zero = self.zero_degree()

        for (i, j), terms in sorted(self.brackets.items()):
            want = add_degrees(self._degrees[i], self._degrees[j])
            for k, _ in terms:
                if self._degrees[k] != want:
                    violations.append(
                        Violation(
                            "grading",
                            (i, j, k),
                            f"[{self.label(i)}, {self.label(j)}] has a term at "
                            f"{self.label(k)} off the degree sum",
                        )
                    )

        for h in sorted(self.cartan):
            if self._degrees[h] != zero:
                violations.append(
                    Violation(
                        "cartan-degree",
                        (h,),
                        f"cartan element {self.label(h)} has nonzero degree",
                    )
                )

        for i in range(self.dim):
            if i not in self.cartan and self._degrees[i] == zero:
                warnings.append(
                    Violation(
                        "degree-zero",
                        (i,),
                        f"{self.label(i)} has degree zero but is not cartan",
                    )
                )

        for h in sorted(self.cartan):
            for x in range(self.dim):
                terms = self.pair_bracket(h, x)
                if terms and (len(terms) > 1 or terms[0][0] != x):
                    violations.append(
                        Violation(
                            "eigenvector",
                            (h, x),
                            f"[{self.label(h)}, {self.label(x)}] is not "
                            f"proportional to {self.label(x)}",
                        )
                    )

        present = self._degree_set
        for i, j, k in combinations_with_replacement(range(self.dim), 3):
            if self.truncated:
                # Every bracket in the identity must stay inside the window.
                di, dj, dk = self._degrees[i], self._degrees[j], self._degrees[k]
                if add_degrees(di, dj) not in present:
                    continue
                if add_degrees(dj, dk) not in present:
                    continue
                if add_degrees(di, dk) not in present:
                    continue
                if add_degrees(add_degrees(di, dj), dk) not in present:
                    continue
            # Integer table: every term carries the same factor scale**2.
            total: dict[int, int] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                inner = dict(self._table.get((b, c), ()))
                for t, v in self._apply_basis(a, inner).items():
                    nv = total.get(t, 0) + v
                    if nv:
                        total[t] = nv
                    else:
                        total.pop(t, None)
            if total:
                violations.append(
                    Violation(
                        "jacobi",
                        (i, j, k),
                        f"Jacobi fails on ({self.label(i)}, {self.label(j)}, "
                        f"{self.label(k)})",
                    )
                )

        return ValidationReport(tuple(violations), tuple(warnings))
