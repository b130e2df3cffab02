"""Graded Lie algebra data model.

A ``GradedAlgebra`` holds a finite basis with integer-vector degrees, sparse
antisymmetric structure constants stored only for index pairs i < j, and a
designated Cartan index set; an element's index is its position in ``basis``.
Brackets whose true result lies outside the stored degree set are simply
absent; :meth:`GradedAlgebra.is_safe_sum` alone says which brackets a
truncation evaluates exactly, for the constraint walk and ``validate`` alike.

``brackets`` holds the constants as exact ``Fraction`` values.  Every
evaluation reads one private integer table of the constants times their least
common denominator ``scale``, with one dict per element: entry j of element
i's dict holds the terms of scale·[e_i, e_j], for both key orders, so a lookup
builds no pair key.  The walk and the Jacobi check use it as is (a uniformly
scaled bracket has the same Jacobi zeros and N-derivation spaces), and
``bracket`` divides by ``scale`` once.  The pass that builds the table also
records each bracket term off the degree sum: ``validate`` reports them, and
the solver refuses such an algebra.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import Rational

Degree = tuple[int, ...]

# Sparse coefficient vector over basis indices; zero coefficients never stored.
Element = dict[int, Rational]

_ONE = Fraction(1)


class InvalidAlgebraError(Exception):
    """Raised when data violates the graded Lie algebra contract."""


def add_degrees(a: Degree, b: Degree) -> Degree:
    return tuple(map(operator.add, a, b))


def sub_degrees(a: Degree, b: Degree) -> Degree:
    return tuple(x - y for x, y in zip(a, b))


def negate_degree(a: Degree) -> Degree:
    return tuple(-x for x in a)


@dataclass(frozen=True)
class BasisElement:
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
        for b in self.basis:
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
                out.append((k, c if type(c) is Fraction else Fraction(c)))
            if out:
                clean[(i, j)] = tuple(out)
        self.brackets = clean
        self.cartan = frozenset(cartan)
        for h in self.cartan:
            if not 0 <= h < n:
                raise ValueError(f"cartan index {h} out of range")

        self._degrees = tuple(b.degree for b in self.basis)
        by_degree: dict[Degree, list[int]] = {}
        for pos, b in enumerate(self.basis):
            by_degree.setdefault(b.degree, []).append(pos)
        self._by_degree = {d: tuple(v) for d, v in by_degree.items()}
        self._degree_set = frozenset(self._by_degree)
        self._label_index = {b.label: pos for pos, b in enumerate(self.basis)}
        # The integer table: _ad[i][j] holds scale·[e_i, e_j], both key orders;
        # the same pass records each term (i, j, k) off the degree sum.
        scale = math.lcm(*(c.denominator for ts in clean.values() for _, c in ts))
        ad: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in range(n)]
        degs = self._degrees
        off_degree = []
        for (i, j), terms in clean.items():
            scaled = tuple((k, c.numerator * scale // c.denominator) for k, c in terms)
            ad[i][j] = scaled
            ad[j][i] = tuple((k, -c) for k, c in scaled)
            want = add_degrees(degs[i], degs[j])
            for k, _ in terms:
                if degs[k] != want:
                    off_degree.append((i, j, k))
        self._ad = ad
        self._scale = scale
        self._grading_violations = tuple(
            Violation(
                "grading",
                (i, j, k),
                f"[{self.label(i)}, {self.label(j)}] has a term at "
                f"{self.label(k)} off the degree sum",
            )
            for i, j, k in sorted(off_degree)
        )

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

    def __repr__(self) -> str:
        return f"GradedAlgebra({self.name!r}, dim={self.dim})"

    # -- bracket evaluation ----------------------------------------------

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
            ad_i = self._ad[i]
            for j, cy in y.items():
                for k, s in ad_i.get(j, ()):
                    nv = out.get(k, 0) + cx * cy * s
                    if nv:
                        out[k] = nv
                    else:
                        del out[k]
        scale = self._scale
        return {k: Fraction(v, scale) for k, v in out.items()}

    # -- truncation safety ---------------------------------------------------

    def is_safe_sum(self, s: Degree, gamma: Degree) -> bool:
        """Whether every bracket met at degree sum s, with or without a
        gamma-shift, is exactly evaluable.

        The constraint walk asks it of each right-partial sum s of a tuple,
        gamma the degree shift, and a tuple is safe when all its sums are;
        ``validate`` asks it with gamma the degree of a Jacobi triple's third
        element.  On a truncation both s and s + gamma must be present.  On a
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
        """Check grading, Jacobi on fully checkable triples (read off the
        integer table), Cartan degrees and the simultaneous-eigenvector
        condition.  Violations are data, not errors."""
        violations = list(self._grading_violations)
        warnings: list[Violation] = []
        zero = self.zero_degree()
        label = self.label

        for h in sorted(self.cartan):
            if self._degrees[h] != zero:
                msg = f"cartan element {label(h)} has nonzero degree"
                violations.append(Violation("cartan-degree", (h,), msg))

        for i in range(self.dim):
            if i not in self.cartan and self._degrees[i] == zero:
                msg = f"{label(i)} has degree zero but is not cartan"
                warnings.append(Violation("degree-zero", (i,), msg))

        for h in sorted(self.cartan):
            for x in range(self.dim):
                terms = self._ad[h].get(x)
                if terms and (len(terms) > 1 or terms[0][0] != x):
                    msg = f"[{label(h)}, {label(x)}] is not proportional to {label(x)}"
                    violations.append(Violation("eigenvector", (h, x), msg))

        # Jacobi on the triples i <= j <= k whose every cyclic term
        # [e_a, [e_b, e_c]] is safe: ok[d][k] = is_safe_sum(d, deg k) for each
        # present degree d, asked once per pair of degrees.  Past ok_i[j],
        # deg i + deg j is absent only on a complete algebra, where every sum
        # is safe: its row reads all true.  A triple whose three inner
        # brackets all vanish is skipped: its Jacobi sum is zero.
        degs = self._degrees
        ad = self._ad
        n = self.dim
        present = self._degree_set
        safe = {d: {e: self.is_safe_sum(d, e) for e in present} for d in present}
        ok = {d: list(map(safe[d].get, degs)) for d in present}
        everywhere = [True] * n
        for i in range(n):
            ok_i = ok[degs[i]]
            ad_i = ad[i]
            for j in range(i, n):
                if not ok_i[j]:
                    continue
                ok_j = ok[degs[j]]
                ok_ij = ok.get(add_degrees(degs[i], degs[j]), everywhere)
                ad_j = ad[j]
                ij = ad_i.get(j)
                for k in range(j, n):
                    if not (ok_j[k] and ok_i[k] and ok_ij[k]):
                        continue
                    jk, ik = ad_j.get(k), ad_i.get(k)
                    if not (ij or jk or ik):
                        continue
                    # [e_i,[e_j,e_k]] - [e_j,[e_i,e_k]] + [e_k,[e_i,e_j]], times
                    # scale**2: the int table is exactly antisymmetric.
                    total: dict[int, int] = {}
                    for m, c in jk or ():
                        for t, v in ad_i.get(m, ()):
                            total[t] = total.get(t, 0) + c * v
                    for m, c in ik or ():
                        for t, v in ad_j.get(m, ()):
                            total[t] = total.get(t, 0) - c * v
                    for m, c in ij or ():
                        for t, v in ad[k].get(m, ()):
                            total[t] = total.get(t, 0) + c * v
                    if any(total.values()):
                        msg = f"Jacobi fails on ({label(i)}, {label(j)}, {label(k)})"
                        violations.append(Violation("jacobi", (i, j, k), msg))

        return ValidationReport(tuple(violations), tuple(warnings))
