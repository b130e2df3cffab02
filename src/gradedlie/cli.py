"""Command-line surface for building, checking and analysing algebra files.

Exit codes: 0 for success (valid / equal / witnessed), 1 for a meaningful
negative result (violations, unequal comparison, missing witness), 2 for
usage or I/O errors.  All output is deterministic for fixed inputs and seed;
JSON reports use sorted keys and canonical rational strings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import builders
from .algebra import (
    Element,
    GradedAlgebra,
    InvalidAlgebraError,
    ValidationReport,
    negate_degree,
)
from .builders import ParseError, WindowSpec
from .derivations import (
    ComparisonReport,
    PWitness,
    SearchBudget,
    _outer_radius,
    build_constraints,
    check_property_p,
    compare_orders,
    decompose_homogeneous,
    verify_property_witness,
)
from .linalg import format_rational, nullspace, parse_rational

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


class UsageError(Exception):
    pass


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad {what}: {text!r}") from None


def _element_json(alg: GradedAlgebra, x: Element) -> list[list[str]]:
    return [[alg.label(k), format_rational(c)] for k, c in sorted(x.items())]


def _emit(doc, fmt: str, out_path: Optional[str], text_lines) -> None:
    if fmt == "json":
        payload = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    else:
        payload = ("\n".join(text_lines) + "\n").encode("utf-8")
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


def _load_algebra(path: str) -> GradedAlgebra:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    return builders.load(data)


def _validation_doc(alg_name: str, report: ValidationReport) -> dict:
    return {
        "algebra": alg_name,
        "valid": report.valid,
        "violations": [
            {"kind": v.kind, "indices": list(v.indices), "message": v.message}
            for v in report.violations
        ],
        "warnings": [
            {"kind": v.kind, "indices": list(v.indices), "message": v.message}
            for v in report.warnings
        ],
    }


def _validation_text(doc: dict) -> list[str]:
    lines = [f"algebra {doc['algebra']}: " + ("valid" if doc["valid"] else "INVALID")]
    for v in doc["violations"]:
        lines.append(f"  violation [{v['kind']}] at {v['indices']}: {v['message']}")
    for v in doc["warnings"]:
        lines.append(f"  warning [{v['kind']}] at {v['indices']}: {v['message']}")
    return lines


def _cmd_builtin(args) -> int:
    kind = args.kind
    allowed = {
        "sv": {"max", "no_center"},
        "witt": {"max", "d"},
        "sl": {"n"},
        "borel": {"n", "sign"},
        "K": set(),
    }[kind]
    provided = {
        "max": args.max,
        "d": args.d,
        "n": args.n,
        "sign": args.sign,
        "no_center": args.no_center or None,
    }
    for flag, value in provided.items():
        if value is not None and flag not in allowed:
            raise UsageError(f"--{flag.replace('_', '-')} does not apply to {kind}")
    if kind == "sv":
        alg = builders.build_sv(
            WindowSpec(args.max if args.max is not None else 2),
            include_center=not args.no_center,
        )
    elif kind == "witt":
        alg = builders.build_witt(
            args.d if args.d is not None else 1,
            WindowSpec(args.max if args.max is not None else 2),
        )
    elif kind == "sl":
        alg = builders.build_sl(args.n if args.n is not None else 2)
    elif kind == "borel":
        alg = builders.build_borel(
            args.n if args.n is not None else 2,
            args.sign if args.sign is not None else "+",
        )
    else:
        alg = builders.build_counterexample_k()
    try:
        with open(args.output, "wb") as fh:
            fh.write(builders.save(alg))
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc
    sys.stdout.write(f"wrote {alg.name} ({alg.dim} basis elements) to {args.output}\n")
    return 0


def _cmd_check(args) -> int:
    try:
        alg = _load_algebra(args.file)
    except InvalidAlgebraError as exc:
        report = exc.report or ValidationReport()
        doc = _validation_doc("<rejected>", report)
        _emit(doc, args.format, args.output, _validation_text(doc))
        return 1
    report = alg.validate()
    doc = _validation_doc(alg.name, report)
    _emit(doc, args.format, args.output, _validation_text(doc))
    return 0 if report.valid else 1


def _gamma_values(args, alg: GradedAlgebra) -> list[tuple[int, ...]]:
    if getattr(args, "gamma_range", None) is not None:
        if alg.grading_dim != 1:
            raise UsageError("--gamma-range needs a 1-dimensional grading")
        m = _RANGE_RE.match(args.gamma_range)
        if not m:
            raise UsageError(f"bad --gamma-range: {args.gamma_range!r}")
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise UsageError("--gamma-range bounds out of order")
        return [(g,) for g in range(lo, hi + 1)]
    if args.gamma is None:
        raise UsageError("one of --gamma / --gamma-range is required")
    gamma = _parse_int_list(args.gamma, "--gamma")
    if len(gamma) != alg.grading_dim:
        raise UsageError(
            f"gamma must have {alg.grading_dim} components, got {len(gamma)}"
        )
    return [gamma]


def _cmd_solve(args) -> int:
    alg = _load_algebra(args.file)
    gamma = _gamma_values(args, alg)[0]
    matrix, index = build_constraints(alg, args.order, gamma)
    basis = nullspace(matrix)
    doc = {
        "algebra": alg.name,
        "N": args.order,
        "gamma": list(gamma),
        "unknowns": len(index),
        "constraints": matrix.num_rows,
        "nullity": basis.dim,
        "basis": [
            [
                [f"{alg.label(b)}->{alg.label(bp)}", format_rational(c)]
                for (b, bp), c in (
                    (index.pairs[col], c) for col, c in vec.entries
                )
            ]
            for vec in basis.vectors
        ],
    }
    lines = [
        f"algebra {alg.name}, order {args.order}, gamma {list(gamma)}",
        f"unknowns {len(index)}  constraints {matrix.num_rows}  nullity {basis.dim}",
    ]
    for i, vec in enumerate(doc["basis"]):
        terms = "  ".join(f"{pair}: {c}" for pair, c in vec)
        lines.append(f"  basis[{i}]  {terms}")
    _emit(doc, args.format, args.output, lines)
    return 0


def _comparison_doc(alg: GradedAlgebra, report: ComparisonReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "order": report.witness_side,
            "vector": [
                [
                    "{}->{}".format(
                        alg.label(report.projected_pairs[col][0]),
                        alg.label(report.projected_pairs[col][1]),
                    ),
                    format_rational(c),
                ]
                for col, c in report.witness.entries
            ],
        }
    return {
        "algebra": report.algebra,
        "orders": list(report.orders),
        "gamma": list(report.gamma),
        "window": {
            "outer_max_abs": report.outer_max_abs,
            "inner_max_abs": report.inner_max_abs,
        },
        "unknowns": report.unknowns,
        "constraints": list(report.constraints),
        "nullities": list(report.nullities),
        "dims": {
            "first": report.dims[0],
            "second": report.dims[1],
            "intersection": report.dims[2],
        },
        "equal": report.equal,
        "witness": witness,
    }


def _comparison_text(doc: dict) -> list[str]:
    d = doc["dims"]
    line = (
        f"gamma {doc['gamma']}: orders {doc['orders']} "
        f"dims ({d['first']}, {d['second']}, {d['intersection']}) "
        + ("EQUAL" if doc["equal"] else "NOT EQUAL")
    )
    lines = [line]
    if doc["witness"]:
        terms = "  ".join(f"{p}: {c}" for p, c in doc["witness"]["vector"])
        lines.append(f"  witness in {doc['witness']['order']} space only: {terms}")
    return lines


def _cmd_compare(args) -> int:
    alg = _load_algebra(args.file)
    orders = _parse_int_list(args.orders, "--orders")
    if len(orders) != 2 or min(orders) < 2:
        raise UsageError("--orders must be two integers >= 2")
    gammas = _gamma_values(args, alg)
    outer = _outer_radius(alg)
    if args.buffer is None:
        inner = WindowSpec(max(outer // 2, 1))
    else:
        if not 0 <= args.buffer < outer:
            raise UsageError("--buffer must satisfy 0 <= buffer < window radius")
        inner = WindowSpec(outer - args.buffer)
    reports = [
        compare_orders(alg, orders[0], orders[1], gamma, inner) for gamma in gammas
    ]
    docs = [_comparison_doc(alg, r) for r in reports]
    all_equal = all(r.equal for r in reports)
    if len(docs) == 1:
        doc, lines = docs[0], _comparison_text(docs[0])
    else:
        doc = {
            "algebra": alg.name,
            "orders": list(orders),
            "all_equal": all_equal,
            "reports": docs,
        }
        lines = [
            item
            for sub in docs
            for item in _comparison_text(sub)
        ] + [f"all equal: {all_equal}"]
    _emit(doc, args.format, args.output, lines)
    return 0 if all_equal else 1


def _pwitness_doc(alg: GradedAlgebra, label: str, w: PWitness, verified: bool) -> dict:
    doc = {
        "element": label,
        "alpha": list(w.alpha),
        "kind": w.kind,
        "verified": verified,
    }
    if w.kind == "P2":
        doc["partner"] = _element_json(alg, w.partner)
    elif w.kind == "P1":
        doc["left"] = _element_json(alg, w.left)
        doc["right"] = _element_json(alg, w.right)
        doc["beta"] = list(w.beta)
    return doc


def _cmd_propp(args) -> int:
    alg = _load_algebra(args.file)
    budget = SearchBudget(samples=args.samples, seed=args.seed)
    if args.element is not None:
        try:
            indices = [alg.index_of(args.element)]
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    elif args.all_basis:
        zero = alg.zero_degree()
        indices = [
            b
            for b in range(alg.dim)
            if alg.degree_of(b) != zero
            and negate_degree(alg.degree_of(b)) in alg.degree_set
        ]
    else:
        raise UsageError("one of --element / --all-basis is required")
    results = []
    for b in indices:
        w = check_property_p(alg, alg.unit(b), budget)
        verified = w.kind != "none-found" and verify_property_witness(alg, w)
        results.append(_pwitness_doc(alg, alg.label(b), w, verified))
    all_witnessed = all(r["kind"] != "none-found" and r["verified"] for r in results)
    doc = {
        "algebra": alg.name,
        "samples": args.samples,
        "seed": args.seed,
        "results": results,
        "all_witnessed": all_witnessed,
    }
    lines = []
    for r in results:
        mark = r["kind"] + (" (verified)" if r["verified"] else "")
        lines.append(f"{r['element']}: {mark}")
    lines.append(f"all witnessed: {all_witnessed}")
    _emit(doc, args.format, args.output, lines)
    return 0 if all_witnessed else 1


def _parse_map_file(alg: GradedAlgebra, path: str) -> dict[int, Element]:
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"map file is not valid JSON: {exc}") from exc
    if (
        not isinstance(doc, dict)
        or set(doc) != {"images"}
        or not isinstance(doc["images"], list)
    ):
        raise UsageError("map file must be an object with a single 'images' list")
    images: dict[int, Element] = {}
    for entry in doc["images"]:
        if (
            not isinstance(entry, dict)
            or set(entry) != {"source", "value"}
            or not isinstance(entry["source"], str)
            or not isinstance(entry["value"], list)
        ):
            raise UsageError("each image needs a string 'source' and a list 'value'")
        try:
            b = alg.index_of(entry["source"])
        except KeyError as exc:
            raise UsageError(str(exc)) from exc
        if b in images:
            raise UsageError(f"source {entry['source']!r} is listed twice")
        value: Element = {}
        for term in entry["value"]:
            if (
                not isinstance(term, dict)
                or set(term) != {"label", "c"}
                or not all(isinstance(v, str) for v in term.values())
            ):
                raise UsageError("each value term needs exactly string 'label' and 'c'")
            try:
                k = alg.index_of(term["label"])
                c = parse_rational(term["c"])
            except (KeyError, ValueError) as exc:
                raise UsageError(str(exc)) from exc
            if c:
                value[k] = value.get(k, Fraction(0)) + c
        images[b] = {k: c for k, c in value.items() if c}
    return images


def _cmd_decompose(args) -> int:
    alg = _load_algebra(args.file)
    images = _parse_map_file(alg, args.map)
    components = decompose_homogeneous(alg, images)
    doc = {
        "algebra": alg.name,
        "components": [
            {
                "gamma": list(shift),
                "images": [
                    {
                        "source": alg.label(b),
                        "value": [
                            {"label": alg.label(k), "c": format_rational(c)}
                            for k, c in sorted(img.items())
                        ],
                    }
                    for b, img in sorted(component.images.items())
                ],
            }
            for shift, component in components
        ],
    }
    lines = [f"{len(components)} homogeneous component(s)"]
    for entry in doc["components"]:
        lines.append(f"  gamma {entry['gamma']}:")
        for img in entry["images"]:
            terms = " + ".join(f"{t['c']}*{t['label']}" for t in img["value"])
            lines.append(f"    {img['source']} -> {terms or '0'}")
    _emit(doc, args.format, args.output, lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="Exact derivation-space computations on graded Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("builtin", help="write a built-in algebra to a file")
    p.add_argument("kind", choices=["sv", "witt", "sl", "borel", "K"])
    p.add_argument("--max", type=int, default=None, help="window radius")
    p.add_argument("--d", type=int, default=None, help="number of variables (witt)")
    p.add_argument("--n", type=int, default=None, help="matrix size (sl / borel)")
    p.add_argument("--sign", choices=["+", "-"], default=None)
    p.add_argument("--no-center", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_builtin)

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="solve one homogeneous constraint system")
    p.add_argument("file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--gamma", default=None)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compare", help="compare two orders on an inner window")
    p.add_argument("file")
    p.add_argument("--orders", required=True)
    p.add_argument("--gamma", default=None)
    p.add_argument("--gamma-range", default=None)
    p.add_argument("--buffer", type=int, default=None)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("propp", help="search decomposability witnesses")
    p.add_argument("file")
    p.add_argument("--element", default=None)
    p.add_argument("--all-basis", action="store_true")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_propp)

    p = sub.add_parser("decompose", help="split a map into homogeneous components")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_decompose)

    return parser


_VALUE_FLAGS = {"--gamma", "--gamma-range", "--orders"}
_VALUE_SHAPE = re.compile(r"^-\d[\d,.]*$")


def _fuse_negative_values(argv: Sequence[str]) -> list[str]:
    """Let value flags take leading-dash values in space-separated form."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _VALUE_FLAGS
            and i + 1 < len(argv)
            and _VALUE_SHAPE.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidAlgebraError as exc:
        print(f"invalid algebra: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
