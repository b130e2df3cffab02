"""Constructors for the built-in algebra families, plus algebra file I/O.

Half-integer degrees of the Schrodinger-Virasoro family are encoded by
doubling (L_n, M_n at 2n, the odd-indexed Y elements at 2n+1, the central
element at 0), which keeps every grading integral.  Truncations keep whole
graded components: if any basis vector of a degree is present, all of that
degree's vectors are, so degree-set membership alone decides safety.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (
    BasisElement,
    Degree,
    GradedAlgebra,
    InvalidAlgebraError,
    Rational,
)
from .linalg import format_rational, parse_rational


class ParseError(Exception):
    """Malformed algebra file."""


@dataclass(frozen=True)
class WindowSpec:
    """Truncation radius, applied per grading coordinate."""

    max_abs: int

    def __post_init__(self) -> None:
        if self.max_abs < 1:
            raise ValueError("max_abs must be >= 1")


class _Builder:
    """Accumulates basis elements and bracket terms in canonical storage form."""

    def __init__(self, grading_dim: int):
        self.grading_dim = grading_dim
        self.basis: list[BasisElement] = []
        self.terms: dict[tuple[int, int], dict[int, Rational]] = {}

    def add(self, label: str, degree: Degree) -> int:
        idx = len(self.basis)
        self.basis.append(BasisElement(idx, label, degree))
        return idx

    def set_bracket(self, i: int, j: int, terms: Mapping[int, Rational]) -> None:
        if i == j:
            return
        if i > j:
            i, j = j, i
            terms = {k: -c for k, c in terms.items()}
        bucket = self.terms.setdefault((i, j), {})
        for k, c in terms.items():
            if c == 0:
                continue
            nv = bucket.get(k, Fraction(0)) + Fraction(c)
            if nv:
                bucket[k] = nv
            else:
                bucket.pop(k, None)

    def build(
        self, name: str, cartan: Sequence[int], truncated: bool = False
    ) -> GradedAlgebra:
        brackets = {
            key: tuple(sorted(vals.items()))
            for key, vals in self.terms.items()
            if vals
        }
        return GradedAlgebra(
            name, self.grading_dim, self.basis, brackets, cartan, truncated
        )


def build_sv(window: WindowSpec, include_center: bool = True) -> GradedAlgebra:
    """Truncated Schrodinger-Virasoro algebra on the index window |n| <= max_abs."""
    m = window.max_abs
    b = _Builder(1)
    l_idx = {n: b.add(f"L_{n}", (2 * n,)) for n in range(-m, m + 1)}
    m_idx = {n: b.add(f"M_{n}", (2 * n,)) for n in range(-m, m + 1)}
    y_idx = {n: b.add(f"Y_{_half(n)}", (2 * n + 1,)) for n in range(-m, m)}
    c_idx = b.add("C", (0,)) if include_center else None

    for p, q in itertools.combinations(range(-m, m + 1), 2):
        terms: dict[int, Rational] = {}
        if abs(p + q) <= m:
            terms[l_idx[p + q]] = Fraction(q - p)
        if p + q == 0 and c_idx is not None:
            central = Fraction(q**3 - q, 12)
            if central:
                terms[c_idx] = central
        b.set_bracket(l_idx[p], l_idx[q], terms)

    for p in range(-m, m + 1):
        for q in range(-m, m + 1):
            if q != 0 and abs(p + q) <= m:
                b.set_bracket(l_idx[p], m_idx[q], {m_idx[p + q]: Fraction(q)})

    for p in range(-m, m + 1):
        for q in range(-m, m):
            coeff = Fraction(2 * q + 1 - p, 2)
            if coeff and -m <= p + q < m:
                b.set_bracket(l_idx[p], y_idx[q], {y_idx[p + q]: coeff})

    for p, q in itertools.combinations(range(-m, m), 2):
        if abs(p + q + 1) <= m:
            b.set_bracket(y_idx[p], y_idx[q], {m_idx[p + q + 1]: Fraction(q - p)})

    cartan = [l_idx[0], m_idx[0]]
    if c_idx is not None:
        cartan.append(c_idx)
    name = f"sv_M{m}" + ("" if include_center else "_nocenter")
    return b.build(name, cartan, truncated=True)


def _half(n: int) -> str:
    return f"{2 * n + 1}/2"


def build_witt(d: int, window: WindowSpec) -> GradedAlgebra:
    """Truncated derivation algebra of Laurent polynomials in d variables."""
    if d < 1:
        raise ValueError("d must be >= 1")
    m = window.max_abs
    b = _Builder(d)
    idx: dict[tuple[Degree, int], int] = {}
    for vec in itertools.product(range(-m, m + 1), repeat=d):
        for j in range(1, d + 1):
            label = f"D_{j}({','.join(str(c) for c in vec)})"
            idx[(vec, j)] = b.add(label, vec)
    keys = sorted(idx)
    for (n_vec, j), (m_vec, k) in itertools.combinations(keys, 2):
        total = tuple(a + c for a, c in zip(n_vec, m_vec))
        if any(abs(c) > m for c in total):
            continue
        terms: dict[int, Rational] = {}
        cj = Fraction(m_vec[j - 1])
        if cj:
            terms[idx[(total, k)]] = terms.get(idx[(total, k)], Fraction(0)) + cj
        ck = Fraction(n_vec[k - 1])
        if ck:
            tgt = idx[(total, j)]
            terms[tgt] = terms.get(tgt, Fraction(0)) - ck
        b.set_bracket(idx[(n_vec, j)], idx[(m_vec, k)], terms)
    zero = (0,) * d
    cartan = [idx[(zero, j)] for j in range(1, d + 1)]
    return b.build(f"witt_d{d}_M{m}", cartan, truncated=True)


# A basis matrix of sl_n: label, degree and its sparse (row, col) entries.
_Mat = tuple[str, Degree, dict[tuple[int, int], int]]


def _sl_matrices(n: int) -> list[_Mat]:
    """Matrix-unit basis of sl_n: off-diagonal units then simple coroots."""
    out: list[_Mat] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            deg = [0] * (n - 1)
            lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
            for k in range(lo, hi):
                deg[k - 1] = sign
            out.append((f"E({i},{j})", tuple(deg), {(i, j): 1}))
    for k in range(1, n):
        out.append(
            (f"H_{k}", (0,) * (n - 1), {(k, k): 1, (k + 1, k + 1): -1})
        )
    return out


def _commutator(
    a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + x * y
            if l == i:
                out[(k, j)] = out.get((k, j), 0) - x * y
    return {k: v for k, v in out.items() if v}


def _decompose_gl(
    mat: dict[tuple[int, int], int], n: int, labels_to_index: dict[str, int]
) -> dict[int, Rational]:
    """Express a traceless matrix over off-diagonal units and simple coroots."""
    out: dict[int, Rational] = {}
    diag = [0] * (n + 1)
    for (i, j), v in mat.items():
        if i == j:
            diag[i] = v
        else:
            out[labels_to_index[f"E({i},{j})"]] = Fraction(v)
    if sum(diag):
        raise ValueError("matrix is not traceless")
    prefix = 0
    for k in range(1, n):
        prefix += diag[k]
        if prefix:
            out[labels_to_index[f"H_{k}"]] = Fraction(prefix)
    return out


def _matrix_algebra(name: str, n: int, mats: list[_Mat]) -> GradedAlgebra:
    """The span of the given sl_n basis matrices, bracketed by commutator."""
    b = _Builder(n - 1)
    label_index = {label: b.add(label, deg) for label, deg, _mat in mats}
    for (la, _da, ma), (lb, _db, mb) in itertools.combinations(mats, 2):
        comm = _commutator(ma, mb)
        if comm:
            b.set_bracket(
                label_index[la], label_index[lb], _decompose_gl(comm, n, label_index)
            )
    cartan = [label_index[f"H_{k}"] for k in range(1, n)]
    return b.build(name, cartan)


def build_sl(n: int) -> GradedAlgebra:
    """The trace-zero matrix algebra, graded over simple-root coordinates."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _matrix_algebra(f"sl_{n}", n, _sl_matrices(n))


def build_borel(n: int, sign: str = "+") -> GradedAlgebra:
    """Cartan plus all positive-root (or negative-root) vectors of sl_n."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if n < 2:
        raise ValueError("n must be >= 2")
    keep = []
    for label, deg, mat in _sl_matrices(n):
        if label.startswith("H_"):
            keep.append((label, deg, mat))
        else:
            (i, j), = mat.keys()
            if (i < j) == (sign == "+"):
                keep.append((label, deg, mat))
    return _matrix_algebra(f"borel{sign}_sl{n}", n, keep)


def build_counterexample_k() -> GradedAlgebra:
    """Three-dimensional algebra whose odd-order derivation spaces exceed the
    ordinary one: span of a grading element and two opposite abelian vectors."""
    b = _Builder(1)
    l0 = b.add("L_0", (0,))
    m1 = b.add("M_1", (1,))
    mneg = b.add("M_-1", (-1,))
    b.set_bracket(l0, m1, {m1: Fraction(1)})
    b.set_bracket(l0, mneg, {mneg: Fraction(-1)})
    return b.build("K", [l0])


# -- file format -------------------------------------------------------------

_TOP_KEYS = {"name", "grading_dim", "truncated", "basis", "cartan", "brackets"}


def save(alg: GradedAlgebra) -> bytes:
    """Canonical JSON encoding; load(save(alg)) reproduces alg bit-exactly."""
    doc = {
        "name": alg.name,
        "grading_dim": alg.grading_dim,
        "truncated": alg.truncated,
        "basis": [
            {"label": b.label, "degree": list(b.degree)} for b in alg.basis
        ],
        "cartan": sorted(alg.cartan),
        "brackets": [
            {
                "i": i,
                "j": j,
                "terms": [
                    {"k": k, "c": format_rational(c)} for k, c in terms
                ],
            }
            for (i, j), terms in sorted(alg.brackets.items())
        ],
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _expect_keys(obj: dict, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    extra = set(obj) - keys
    if extra:
        raise ParseError(f"{where}: unknown fields {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")


def load(data: bytes) -> GradedAlgebra:
    """Parse and validate an algebra file; invalid algebras are rejected."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    _expect_keys(doc, _TOP_KEYS, "top level")
    name = doc["name"]
    gd = doc["grading_dim"]
    truncated = doc["truncated"]
    if not isinstance(name, str) or not isinstance(gd, int) or gd < 1:
        raise ParseError("bad name or grading_dim")
    if not isinstance(truncated, bool):
        raise ParseError("truncated must be a boolean")
    if not isinstance(doc["basis"], list) or not doc["basis"]:
        raise ParseError("basis must be a nonempty list")
    basis = []
    for pos, entry in enumerate(doc["basis"]):
        _expect_keys(entry, {"label", "degree"}, f"basis[{pos}]")
        label, degree = entry["label"], entry["degree"]
        if not isinstance(label, str):
            raise ParseError(f"basis[{pos}]: label must be a string")
        if (
            not isinstance(degree, list)
            or len(degree) != gd
            or not all(isinstance(v, int) for v in degree)
        ):
            raise ParseError(f"basis[{pos}]: degree must be {gd} integers")
        basis.append(BasisElement(pos, label, tuple(degree)))
    cartan = doc["cartan"]
    if not isinstance(cartan, list) or cartan != sorted(set(cartan)):
        raise ParseError("cartan must be a sorted list of distinct indices")
    for h in cartan:
        if not isinstance(h, int) or not 0 <= h < len(basis):
            raise ParseError(f"cartan index {h} out of range")
    if not isinstance(doc["brackets"], list):
        raise ParseError("brackets must be a list")
    brackets: dict[tuple[int, int], tuple[tuple[int, Rational], ...]] = {}
    prev_key: tuple[int, int] | None = None
    for pos, entry in enumerate(doc["brackets"]):
        _expect_keys(entry, {"i", "j", "terms"}, f"brackets[{pos}]")
        i, j, terms = entry["i"], entry["j"], entry["terms"]
        if not isinstance(i, int) or not isinstance(j, int) or not i < j:
            raise ParseError(f"brackets[{pos}]: require integer indices with i < j")
        if not (0 <= i < len(basis) and j < len(basis)):
            raise ParseError(f"brackets[{pos}]: index out of range")
        key = (i, j)
        if prev_key is not None and key <= prev_key:
            raise ParseError("brackets must be sorted by (i, j)")
        prev_key = key
        if not isinstance(terms, list) or not terms:
            raise ParseError(f"brackets[{pos}]: terms must be a nonempty list")
        parsed = []
        prev_k = -1
        for t in terms:
            _expect_keys(t, {"k", "c"}, f"brackets[{pos}] term")
            k, c = t["k"], t["c"]
            if not isinstance(k, int) or not 0 <= k < len(basis):
                raise ParseError(f"brackets[{pos}]: target {k} out of range")
            if k <= prev_k:
                raise ParseError(f"brackets[{pos}]: terms must be sorted by k")
            prev_k = k
            if not isinstance(c, str):
                raise ParseError(f"brackets[{pos}]: coefficients must be strings")
            try:
                val = parse_rational(c)
            except ValueError as exc:
                raise ParseError(f"brackets[{pos}]: {exc}") from exc
            if val == 0:
                raise ParseError(f"brackets[{pos}]: zero coefficient stored")
            parsed.append((k, val))
        brackets[key] = tuple(parsed)
    try:
        alg = GradedAlgebra(name, gd, basis, brackets, cartan, truncated)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    report = alg.validate()
    if not report.valid:
        lines = "; ".join(v.message for v in report.violations[:5])
        raise InvalidAlgebraError(
            f"algebra fails validation ({len(report.violations)} violations): {lines}",
            report,
        )
    return alg
