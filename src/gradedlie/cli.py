"""Command-line surface for building, checking and analysing algebra files.

Exit codes: 0 for success (valid / equal / witnessed), 1 for a meaningful
negative result (violations, unequal comparison, missing witness), 2 for
usage or I/O errors.  All output is deterministic for fixed inputs and seed;
JSON reports use sorted keys and canonical rational strings.
"""

from __future__ import annotations

import argparse
import functools
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
    Violation,
    negate_degree,
)
from .builders import ParseError, WindowSpec
from .derivations import (
    ComparisonReport,
    PWitness,
    _outer_radius,
    build_constraints,
    check_property_p,
    compare_orders,
    decompose_homogeneous,
    verify_property_witness,
)
from .linalg import SparseVector, format_rational, nullspace, parse_rational

class UsageError(Exception):
    pass


def _element_json(alg: GradedAlgebra, x: Element) -> list[list[str]]:
    return [[alg.label(k), format_rational(c)] for k, c in sorted(x.items())]


def _map_json(
    alg: GradedAlgebra, pairs: Sequence[tuple[int, int]], vec: SparseVector
) -> list[list[str]]:
    """A map vector over (source, target) columns as ["SOURCE->TARGET", "p/q"]
    pairs."""
    return [
        ["{}->{}".format(*map(alg.label, pairs[col])), format_rational(c)]
        for col, c in vec.entries
    ]


def _write(path: str, payload: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(doc, fmt: str, out_path: Optional[str], text_lines) -> None:
    if fmt == "json":
        payload = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    else:
        payload = ("\n".join(text_lines) + "\n").encode("utf-8")
    if out_path:
        _write(out_path, payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _violations_json(violations: Sequence[Violation]) -> list[dict]:
    return [
        {"kind": v.kind, "indices": list(v.indices), "message": v.message}
        for v in violations
    ]


def _validation_doc(alg_name: str, report: ValidationReport) -> dict:
    return {
        "algebra": alg_name,
        "valid": report.valid,
        "violations": _violations_json(report.violations),
        "warnings": _violations_json(report.warnings),
    }


def _validation_text(doc: dict) -> list[str]:
    lines = [f"algebra {doc['algebra']}: " + ("valid" if doc["valid"] else "INVALID")]
    for v in doc["violations"]:
        lines.append(f"  violation [{v['kind']}] at {v['indices']}: {v['message']}")
    for v in doc["warnings"]:
        lines.append(f"  warning [{v['kind']}] at {v['indices']}: {v['message']}")
    return lines


def _cmd_builtin(args) -> int:
    alg = args.build(args)
    _write(args.output, builders.save(alg))
    sys.stdout.write(f"wrote {alg.name} ({alg.dim} basis elements) to {args.output}\n")
    return 0


def _cmd_check(args) -> int:
    alg = builders.parse(_read(args.file))
    report = alg.validate()
    doc = _validation_doc(alg.name if report.valid else "<rejected>", report)
    _emit(doc, args.format, args.output, _validation_text(doc))
    return 0 if report.valid else 1


def _gamma_values(args, alg: GradedAlgebra) -> list[tuple[int, ...]]:
    if getattr(args, "gamma_range", None) is not None:
        if alg.grading_dim != 1:
            raise UsageError("--gamma-range needs a 1-dimensional grading")
        return [(g,) for g in args.gamma_range]
    if len(args.gamma) != alg.grading_dim:
        raise UsageError(
            f"gamma must have {alg.grading_dim} components, got {len(args.gamma)}"
        )
    return [args.gamma]


def _cmd_solve(args) -> int:
    alg = builders.load(_read(args.file))
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
        "basis": [_map_json(alg, index.pairs, vec) for vec in basis.vectors],
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
            "vector": _map_json(alg, report.projected_pairs, report.witness),
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
    alg = builders.load(_read(args.file))
    gammas = _gamma_values(args, alg)
    outer = _outer_radius(alg)
    if args.buffer is None:
        inner = WindowSpec(max(outer // 2, 1))
    else:
        if not 0 <= args.buffer < outer:
            raise UsageError("--buffer must satisfy 0 <= buffer < window radius")
        inner = WindowSpec(outer - args.buffer)
    reports = [
        compare_orders(alg, *args.orders, gamma, inner) for gamma in gammas
    ]
    docs = [_comparison_doc(alg, r) for r in reports]
    all_equal = all(r.equal for r in reports)
    if len(docs) == 1:
        doc, lines = docs[0], _comparison_text(docs[0])
    else:
        doc = {
            "algebra": alg.name,
            "orders": list(args.orders),
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
    alg = builders.load(_read(args.file))
    if args.element is not None:
        try:
            indices = [alg.index_of(args.element)]
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    else:
        zero = alg.zero_degree()
        indices = [
            b
            for b in range(alg.dim)
            if alg.degree_of(b) != zero
            and negate_degree(alg.degree_of(b)) in alg.degree_set
        ]
    results = []
    for b in indices:
        w = check_property_p(alg, alg.unit(b), args.samples, args.seed)
        verified = verify_property_witness(alg, w)  # False for none-found
        results.append(_pwitness_doc(alg, alg.label(b), w, verified))
    all_witnessed = all(r["verified"] for r in results)
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
    data = _read(path)
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"map file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise UsageError("map file is not valid JSON: nested too deeply") from exc
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
    alg = builders.load(_read(args.file))
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


class _Parser(argparse.ArgumentParser):
    """Turns every usage error, in any subparser, into one ``UsageError``."""

    def error(self, message: str):
        raise UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers: {text!r}") from None


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return value


def _orders(text: str) -> tuple[int, ...]:
    orders = _int_list(text)
    if len(orders) != 2:
        raise argparse.ArgumentTypeError("must be two integers")
    return orders


_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _gamma_range(text: str) -> range:
    m = _RANGE_RE.match(text)
    if not m or int(m.group(1)) > int(m.group(2)):
        raise argparse.ArgumentTypeError(f"expected a..b with a <= b: {text!r}")
    return range(int(m.group(1)), int(m.group(2)) + 1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls, and
    # each builtin's build default looks its builder up when it runs.
    parser = _Parser(
        prog="gradedlie",
        description="Exact derivation-space computations on graded Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("builtin", help="write a built-in algebra to a file")
    p.set_defaults(func=_cmd_builtin)
    kinds = p.add_subparsers(dest="kind", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", required=True)
    k = kinds.add_parser("sv", parents=[out], help="Schrödinger-Virasoro window")
    k.add_argument("--max", type=int, default=2, help="window radius")
    k.add_argument("--no-center", dest="center", action="store_false")
    k.set_defaults(build=lambda a: builders.build_sv(WindowSpec(a.max), a.center))
    k = kinds.add_parser("witt", parents=[out], help="Witt algebra window")
    k.add_argument("--d", type=int, default=1, help="number of variables")
    k.add_argument("--max", type=int, default=2, help="window radius")
    k.set_defaults(build=lambda a: builders.build_witt(a.d, WindowSpec(a.max)))
    k = kinds.add_parser("sl", parents=[out], help="sl(n)")
    k.add_argument("--n", type=int, default=2, help="matrix size")
    k.set_defaults(build=lambda a: builders.build_sl(a.n))
    k = kinds.add_parser("borel", parents=[out], help="Borel subalgebra of sl(n)")
    k.add_argument("--n", type=int, default=2, help="matrix size")
    k.add_argument("--sign", choices=["+", "-"], default="+")
    k.set_defaults(build=lambda a: builders.build_borel(a.n, a.sign))
    k = kinds.add_parser("K", parents=[out], help="the counterexample K")
    k.set_defaults(build=lambda a: builders.build_counterexample_k())

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file")
    common.add_argument("--format", choices=["json", "text"], default="json")
    common.add_argument("-o", "--output", default=None)

    p = sub.add_parser("check", parents=[common], help="validate an algebra file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "solve", parents=[common], help="solve one homogeneous constraint system"
    )
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--gamma", type=_int_list, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "compare", parents=[common], help="compare two orders on an inner window"
    )
    p.add_argument("--orders", type=_orders, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--gamma", type=_int_list)
    g.add_argument("--gamma-range", type=_gamma_range)
    p.add_argument("--buffer", type=int, default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "propp", parents=[common], help="search decomposability witnesses"
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--element")
    g.add_argument("--all-basis", action="store_true")
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_propp)

    p = sub.add_parser(
        "decompose", parents=[common], help="split a map into homogeneous components"
    )
    p.add_argument("--map", required=True)
    p.set_defaults(func=_cmd_decompose)

    return parser


_VALUE_FLAGS = {"--gamma", "--gamma-range", "--orders"}


def _fuse_negative_values(argv: Sequence[str]) -> list[str]:
    """Join each value flag to the token after it, so that a value starting
    with '-' (``--gamma -1,-1``, ``--gamma-range -2..-1``) is read as the
    flag's value, not as an option."""
    out = list(argv)
    i = 0
    while i + 1 < len(out):
        if out[i] in _VALUE_FLAGS:
            out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
        i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_fuse_negative_values(argv))
        return args.func(args)
    except SystemExit as exc:  # --help printed its text
        return int(exc.code or 0)
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
