import contextlib
import copy
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from gradedlie import builders
from gradedlie.algebra import GradedAlgebra
from gradedlie.cli import main
from gradedlie.derivations import MAX_ORDER

_SL2_DOC = json.loads(builders.save(builders.build_sl(2)))


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert not err, err
    return code, json.loads(out)


@pytest.fixture()
def sv2_file(tmp_path, capsys):
    path = tmp_path / "sv2.json"
    code, _, _ = run(capsys, "builtin", "sv", "--max", "2", "-o", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def k_file(tmp_path, capsys):
    path = tmp_path / "K.json"
    code, _, _ = run(capsys, "builtin", "K", "-o", str(path))
    assert code == 0
    return str(path)


def assert_one_line_error(code, out, err, prefix="error: "):
    assert code == 2 and not out
    assert err.startswith(prefix) and err.count("\n") == 1, err


def _sl2_with(edit):
    doc = copy.deepcopy(_SL2_DOC)
    edit(doc, len(doc["basis"]))
    return doc


class TestBuiltinAndCheck:
    def test_builtin_then_check(self, capsys, sv2_file):
        code, doc = run_json(capsys, "check", sv2_file)
        assert code == 0
        assert doc["valid"] is True
        assert doc["violations"] == [] and doc["warnings"] == []

    @pytest.mark.parametrize(
        "args,name",
        [
            (("builtin", "witt", "--d", "2", "--max", "1"), "witt_d2_M1"),
            (("builtin", "sl", "--n", "3"), "sl_3"),
            (("builtin", "borel", "--n", "3", "--sign", "-"), "borel-_sl3"),
            (("builtin", "sv", "--max", "1", "--no-center"), "sv_M1_nocenter"),
        ],
    )
    def test_builtin_variants(self, capsys, tmp_path, args, name):
        path = tmp_path / "alg.json"
        code, out, _ = run(capsys, *args, "-o", str(path))
        assert code == 0 and name in out
        code, doc = run_json(capsys, "check", str(path))
        assert code == 0 and doc["algebra"] == name

    def test_wrong_flag_for_kind(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "builtin", "sl", "--max", "4", "-o", str(tmp_path / "x.json")
        )
        assert code == 2 and "--max" in err

    def test_check_invalid_file(self, capsys, tmp_path, sv2_file):
        doc = json.loads(open(sv2_file).read())
        labels = [b["label"] for b in doc["basis"]]
        i, j = sorted((labels.index("L_-1"), labels.index("L_1")))
        for entry in doc["brackets"]:
            if entry["i"] == i and entry["j"] == j:
                entry["terms"] = [{"k": labels.index("L_0"), "c": "-3"}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        parsed = json.loads(out)
        assert parsed["valid"] is False
        assert any(v["kind"] == "jacobi" for v in parsed["violations"])

    def test_check_malformed_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps(dict(_SL2_DOC, cartan=c)) for c in ([1, "a"], [[1]])
        ]
        + ["[" * 100_000 + "]" * 100_000],
        ids=["cartan-string", "cartan-nested", "nested-too-deeply"],
    )
    def test_check_malformed_file(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2 and not out
        assert err.startswith("parse error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            _sl2_with(lambda d, dim: d["brackets"][-1].update(j=dim)),
            _sl2_with(lambda d, dim: d["brackets"][0]["terms"][-1].update(k=dim)),
            _sl2_with(lambda d, dim: d["brackets"][0]["terms"][0].update(k=-1)),
            _sl2_with(lambda d, dim: d["brackets"][0]["terms"][0].update(c="0")),
            _sl2_with(lambda d, dim: d.update(cartan=[dim])),
            _sl2_with(lambda d, dim: d["basis"][0]["degree"].append(0)),
        ],
        ids=["j-is-dim", "k-is-dim", "k-negative", "zero-coefficient",
             "cartan-is-dim", "degree-too-long"],
    )
    def test_constructor_checks_reach_the_file(self, capsys, tmp_path, doc):
        # load leaves these checks to GradedAlgebra's constructor
        text = json.dumps(doc)
        with pytest.raises(builders.ParseError):
            builders.load(text.encode())
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert_one_line_error(*run(capsys, "check", str(bad)), prefix="parse error: ")

    def test_builtin_refuses_an_oversized_basis(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(builders, "MAX_BASIS_SIZE", 10)
        path = tmp_path / "sv.json"
        code, out, err = run(capsys, "builtin", "sv", "--max", "2", "-o", str(path))
        assert code == 2 and not out and not path.exists()
        assert err == "error: sv: more than 10 basis elements\n"

    def test_check_refuses_an_oversized_file(
        self, capsys, tmp_path, monkeypatch, sv2_file
    ):
        monkeypatch.setattr(builders, "MAX_BASIS_SIZE", 10)
        sl3 = tmp_path / "sl3.json"
        sl3.write_bytes(builders.save(builders.build_sl(3)))  # 8 elements
        assert run(capsys, "check", str(sl3))[0] == 0
        assert_one_line_error(*run(capsys, "check", sv2_file), prefix="parse error: ")

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    def test_check_validates_once(self, capsys, tmp_path, monkeypatch, valid):
        doc = copy.deepcopy(_SL2_DOC)
        if not valid:
            doc["brackets"][0]["terms"][0]["k"] = 0  # [E, F] off its degree
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps(doc))
        calls = []
        validate = GradedAlgebra.validate
        monkeypatch.setattr(
            GradedAlgebra, "validate", lambda alg: calls.append(1) or validate(alg)
        )
        code, out = run_json(capsys, "check", str(path))
        assert (code, out["valid"], len(calls)) == (1 - valid, valid, 1)

    def test_check_text_lists_violations_with_indices(self, capsys, tmp_path, sv2_file):
        doc = json.loads(open(sv2_file).read())
        labels = [b["label"] for b in doc["basis"]]
        i, j = sorted((labels.index("L_-1"), labels.index("L_1")))
        for entry in doc["brackets"]:
            if entry["i"] == i and entry["j"] == j:
                entry["terms"] = [{"k": labels.index("L_0"), "c": "-3"}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(bad), "--format", "text")
        assert code == 1
        assert "violation" in out and "[" in out  # kind tags and index tuples

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/alg.json")
        assert code == 2


class TestSolve:
    def test_report_fields(self, capsys, k_file):
        code, doc = run_json(
            capsys, "solve", k_file, "--order", "3", "--gamma=-2"
        )
        assert code == 0
        assert set(doc) == {
            "algebra", "N", "gamma", "unknowns", "constraints", "nullity", "basis",
        }
        assert doc["algebra"] == "K"
        assert doc["N"] == 3
        assert doc["gamma"] == [-2]
        assert doc["unknowns"] == 1
        assert doc["nullity"] == 1
        assert doc["basis"] == [[["M_1->M_-1", "1"]]]

    def test_text_format(self, capsys, k_file):
        code, out, _ = run(
            capsys, "solve", k_file, "--order", "2", "--gamma", "0", "--format", "text"
        )
        assert code == 0 and "nullity 2" in out

    def test_gamma_length_mismatch(self, capsys, k_file):
        code, _, err = run(capsys, "solve", k_file, "--order", "2", "--gamma", "0,0")
        assert code == 2 and "gamma" in err

    def test_solve_rejects_gamma_range(self, capsys, k_file):
        code, _, _ = run(
            capsys, "solve", k_file, "--order", "2", "--gamma-range", "0..1"
        )
        assert code == 2


class TestOrderCeiling:
    # The walk nests one generator frame per tuple element, so an order near
    # the recursion limit would end in a RecursionError traceback.
    @pytest.mark.parametrize("order", [MAX_ORDER + 1, 10**6])
    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_above_the_ceiling_is_one_line(self, capsys, k_file, command, order):
        flags = {
            "solve": ("--order", str(order)), "compare": ("--orders", f"2,{order}")
        }
        code, out, err = run(capsys, command, k_file, *flags[command], "--gamma", "0")
        assert_one_line_error(code, out, err)
        assert str(MAX_ORDER) in err and "Traceback" not in err

    def test_below_two_is_the_library_message(self, capsys, k_file):
        # the parser checks only the arity of --orders; the order range has
        # one owner, the library, whose message both commands print
        errs = set()
        for flags in (("compare", k_file, "--orders", "1,2"),
                      ("solve", k_file, "--order", "1")):
            code, out, err = run(capsys, *flags, "--gamma", "0")
            assert_one_line_error(code, out, err)
            errs.add(err)
        assert errs == {f"error: order must be between 2 and {MAX_ORDER}\n"}

    def test_k_solves_and_compares_at_the_ceiling(self, capsys, k_file):
        # K's walk reaches the full depth at every shift; even orders have
        # no solution at gamma = -2, odd ones the counterexample map
        for order, nullity in ((MAX_ORDER, 0), (MAX_ORDER - 1, 1)):
            code, doc = run_json(
                capsys, "solve", k_file, "--order", str(order), "--gamma=-2"
            )
            assert code == 0 and doc["nullity"] == nullity
        code, doc = run_json(
            capsys, "compare", k_file, "--orders", f"2,{MAX_ORDER}", "--gamma=-2",
            "--buffer", "0",
        )
        assert code == 0 and doc["nullities"] == [0, 0]


class TestCompare:
    def test_k_counterexample_exit_one(self, capsys, k_file):
        code, doc = run_json(
            capsys, "compare", k_file, "--orders", "2,3", "--gamma=-2", "--buffer", "0"
        )
        assert code == 1
        assert set(doc) == {
            "algebra", "orders", "gamma", "window", "unknowns", "constraints",
            "nullities", "dims", "equal", "witness",
        }
        assert set(doc["dims"]) == {"first", "second", "intersection"}
        assert set(doc["window"]) == {"outer_max_abs", "inner_max_abs"}
        assert doc["equal"] is False
        assert doc["witness"]["order"] == "second"
        assert doc["witness"]["vector"] == [["M_1->M_-1", "1"]]

    def test_k_even_equal_exit_zero(self, capsys, k_file):
        code, doc = run_json(
            capsys, "compare", k_file, "--orders", "2,4", "--gamma=-2", "--buffer", "0"
        )
        assert code == 0 and doc["equal"] is True

    def test_space_separated_negative_gamma(self, capsys, k_file):
        code, doc = run_json(
            capsys, "compare", k_file, "--orders", "2,3", "--gamma", "-2",
            "--buffer", "0",
        )
        assert code == 1 and doc["equal"] is False

    def test_gamma_range_aggregation(self, capsys, k_file):
        code, doc = run_json(
            capsys,
            "compare", k_file, "--orders", "2,3", "--gamma-range", "-1..1",
            "--buffer", "0",
        )
        assert code == 0
        assert doc["all_equal"] is True
        assert [r["gamma"] for r in doc["reports"]] == [[-1], [0], [1]]

    def test_gamma_range_catches_counterexample(self, capsys, k_file):
        code, doc = run_json(
            capsys,
            "compare", k_file, "--orders", "2,3", "--gamma-range", "-2..2",
            "--buffer", "0",
        )
        assert code == 1 and doc["all_equal"] is False

    def test_buffer_validation(self, capsys, k_file):
        code, _, err = run(
            capsys, "compare", k_file, "--orders", "2,3", "--gamma", "0",
            "--buffer", "5",
        )
        assert code == 2 and "buffer" in err

    @pytest.mark.parametrize("buffer", [[], ["--buffer", "0"]], ids=["default", "0"])
    def test_all_degrees_zero(self, capsys, tmp_path, buffer):
        # a window radius of 0 used to refuse this file with exit 2 either way
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({
            "name": "flat", "grading_dim": 1, "truncated": False,
            "basis": [{"label": "a", "degree": [0]}, {"label": "b", "degree": [0]}],
            "cartan": [0, 1], "brackets": [],
        }))
        code, doc = run_json(
            capsys, "compare", str(path), "--orders", "2,3", "--gamma", "0", *buffer
        )
        assert code == 0 and doc["equal"] is True
        assert doc["window"] == {"outer_max_abs": 1, "inner_max_abs": 1}
        assert doc["nullities"] == [4, 4]
        assert doc["dims"] == {"first": 4, "second": 4, "intersection": 4}

    def test_gamma_and_gamma_range_exclude_each_other(self, capsys, k_file):
        result = run(
            capsys, "compare", k_file, "--orders", "2,3", "--gamma", "-2",
            "--gamma-range", "-1..1",
        )
        assert_one_line_error(*result)

    def test_orders_validation(self, capsys, k_file):
        code, _, err = run(
            capsys, "compare", k_file, "--orders", "2", "--gamma", "0", "--buffer", "0"
        )
        assert code == 2


class TestPropp:
    def test_single_element(self, capsys, sv2_file):
        code, doc = run_json(capsys, "propp", sv2_file, "--element", "L_1")
        assert code == 0
        assert set(doc) == {"algebra", "samples", "seed", "results", "all_witnessed"}
        (result,) = doc["results"]
        assert set(result) == {"element", "alpha", "kind", "verified", "partner"}
        assert result["kind"] == "P2" and result["verified"] is True
        assert result["partner"] == [["L_-1", "1"]]

    def test_p1_fields(self, capsys, sv2_file):
        code, doc = run_json(capsys, "propp", sv2_file, "--element", "M_1")
        assert code == 0
        (result,) = doc["results"]
        assert set(result) == {
            "element", "alpha", "kind", "verified", "left", "right", "beta",
        }
        assert result["kind"] == "P1" and result["verified"] is True

    def test_all_basis_on_k(self, capsys, k_file):
        code, doc = run_json(capsys, "propp", k_file, "--all-basis")
        assert code == 1
        assert doc["all_witnessed"] is False
        assert {r["element"] for r in doc["results"]} == {"M_1", "M_-1"}
        assert all(r["kind"] == "none-found" for r in doc["results"])

    def test_requires_selector(self, capsys, sv2_file):
        code, _, err = run(capsys, "propp", sv2_file)
        assert code == 2

    def test_element_and_all_basis_exclude_each_other(self, capsys, k_file):
        result = run(capsys, "propp", k_file, "--element", "M_1", "--all-basis")
        assert_one_line_error(*result)

    def test_unknown_element(self, capsys, sv2_file):
        code, out, err = run(capsys, "propp", sv2_file, "--element", "nope")
        assert code == 2 and not out
        assert err.startswith("error: ") and "nope" in err
        assert err.count("\n") == 1


class TestDecompose:
    def test_map_file(self, capsys, tmp_path, k_file):
        mapfile = tmp_path / "map.json"
        mapfile.write_text(
            json.dumps(
                {
                    "images": [
                        {
                            "source": "L_0",
                            "value": [
                                {"label": "M_1", "c": "1"},
                                {"label": "M_-1", "c": "1"},
                            ],
                        }
                    ]
                }
            )
        )
        code, doc = run_json(capsys, "decompose", k_file, "--map", str(mapfile))
        assert code == 0
        assert [c["gamma"] for c in doc["components"]] == [[-1], [1]]

    def test_bad_label(self, capsys, tmp_path, k_file):
        mapfile = tmp_path / "map.json"
        mapfile.write_text(
            json.dumps(
                {"images": [{"source": "Q_9", "value": [{"label": "M_1", "c": "1"}]}]}
            )
        )
        code, _, err = run(capsys, "decompose", k_file, "--map", str(mapfile))
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"images": 5},
            {"images": [{"source": "L_0", "value": 5}]},
            {"images": [{"source": "L_0", "value": [{"label": "M_1", "c": 1}]}]},
            {"images": [{"source": ["L_0"], "value": []}]},
            {"images": [{"source": "L_0", "value": [{"label": ["M_1"], "c": "1"}]}]},
            {
                "images": [
                    {"source": "L_0", "value": [{"label": "M_1", "c": "1"}]},
                    {"source": "L_0", "value": [{"label": "M_-1", "c": "1"}]},
                ]
            },
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["images-not-list", "value-not-list", "c-not-string",
             "source-not-string", "label-not-string", "source-repeated",
             "nested-too-deeply"],
    )
    def test_malformed_map(self, capsys, tmp_path, k_file, doc):
        mapfile = tmp_path / "map.json"
        mapfile.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(capsys, "decompose", k_file, "--map", str(mapfile))
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDeterminism:
    def test_identical_json_outputs(self, capsys, tmp_path, sv2_file):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run(
                capsys,
                "compare", sv2_file, "--orders", "2,3", "--gamma", "0",
                "--buffer", "2", "-o", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_propp_seeded(self, capsys, sv2_file):
        _, doc1 = run_json(
            capsys, "propp", sv2_file, "--all-basis", "--samples", "5", "--seed", "9"
        )
        _, doc2 = run_json(
            capsys, "propp", sv2_file, "--all-basis", "--samples", "5", "--seed", "9"
        )
        assert doc1 == doc2

    # Frozen report digests.  They pin the "constraints" counts too: the rows
    # examined per order in compare, the distinct rows in solve.
    @pytest.mark.parametrize(
        "builtin,args,exit_code,digest",
        [
            (("sv", "--max", "3"),
             ("compare", "--orders", "2,3", "--gamma-range", "-3..3"), 0,
             "ca560e20e5324b3ae963f39d4e75eccbd4f8ebec49b1c6ee8f02aa0b1bbb1b12"),
            (("sv", "--max", "3"),
             ("compare", "--orders", "2,4", "--gamma-range", "-3..3"), 0,
             "e27737b252cb6274ea4ce408ad8cc96e8beb84a77987b4ada24daa7b72058dfc"),
            (("K",), ("compare", "--orders", "2,3", "--gamma=-2"), 1,
             "d8df9e9cbfc6177c194987e4d46dd13fc67aa22b4407a38982f12e8a21e898a6"),
            (("sv", "--max", "4"), ("solve", "--order", "4", "--gamma", "0"), 0,
             "59e5484c6c9c9cc20a78a2d3d20a3606cbc8c74f2d96f335d50424eabd29966c"),
            (("sv", "--max", "4"), ("solve", "--order", "4", "--gamma", "1"), 0,
             "9e0c1623ba2f6f7a49454d6580f11f3ad24f85f4d22d4c81cec3923d7a2e4133"),
        ],
        ids=["sv3-compare-2-3", "sv3-compare-2-4", "K-witness", "sv4-solve-4-g0",
             "sv4-solve-4-g1"],
    )
    def test_report_bytes_are_frozen(
        self, capsys, tmp_path, builtin, args, exit_code, digest
    ):
        path, report = str(tmp_path / "alg.json"), tmp_path / "report.json"
        assert run(capsys, "builtin", *builtin, "-o", path)[0] == 0
        command, *rest = args
        assert run(capsys, command, path, *rest, "-o", str(report))[0] == exit_code
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "{k}", "--gamma", "0"),
            ("solve", "{k}", "--order", "2", "--gamma", "0", "--format", "xml"),
            ("frobnicate",),
            ("builtin", "sl", "--max", "4", "-o", "{out}"),
            ("propp", "{k}", "--all-basis", "--samples", "-3"),
        ],
        ids=["missing-order", "bad-format", "unknown-command", "flag-of-other-kind",
             "negative-samples"],
    )
    def test_usage_error_is_one_line(self, capsys, tmp_path, k_file, args):
        args = [a.format(k=k_file, out=tmp_path / "x.json") for a in args]
        assert_one_line_error(*run(capsys, *args))

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "{k}"),
            ("solve", "{k}", "--order", "2", "--gamma", "0"),
            ("compare", "{k}", "--orders", "2,3", "--gamma", "-2"),
            ("propp", "{k}", "--all-basis"),
            ("decompose", "{k}", "--map", "{map}"),
        ],
        ids=["check", "solve", "compare", "propp", "decompose"],
    )
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_is_one_line(self, capsys, tmp_path, k_file, args, target):
        mapfile = tmp_path / "map.json"
        mapfile.write_text(json.dumps({"images": []}))
        out = tmp_path / "absent" / "x.json" if target == "missing-dir" else tmp_path
        args = [a.format(k=k_file, map=mapfile) for a in args]
        code, stdout, err = run(capsys, *args, "-o", str(out))
        assert_one_line_error(code, stdout, err, prefix="error: cannot write ")

    @pytest.mark.parametrize(
        "builtin,args,flag,value",
        [
            (("K",), ("compare", "--orders", "2,3"), "--gamma-range", "-2..-1"),
            (("witt", "--d", "2", "--max", "1"), ("solve", "--order", "2"),
             "--gamma", "-1,-1"),
        ],
        ids=["gamma-range", "gamma-list"],
    )
    def test_negative_value_after_a_space(
        self, capsys, tmp_path, builtin, args, flag, value
    ):
        path = str(tmp_path / "alg.json")
        assert run(capsys, "builtin", *builtin, "-o", path)[0] == 0
        command, *rest = args
        spaced = run(capsys, command, path, *rest, flag, value)
        joined = run(capsys, command, path, *rest, f"{flag}={value}")
        assert spaced == joined and not joined[2] and joined[1]


_KEYS = st.sampled_from(sorted(set(_SL2_DOC) | {"label", "degree", "i", "j", "k", "c"}))
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["1", "-1/2", "2/4", "1/0", "sl_2", "E(1,2)"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS | st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, data):
    """One random edit: replace, delete, wrap in a list, or add a key."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["replace", "delete", "nest", "extra"]))
    if not path:
        return data.draw(_JSON) if op == "replace" else [doc]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = data.draw(_JSON)
    elif op == "delete":
        del parent[key]
    elif op == "nest":
        parent[key] = [parent[key]]
    elif isinstance(parent[key], dict):
        parent[key][data.draw(_KEYS)] = data.draw(_JSON)
    else:
        parent[key] = {data.draw(_KEYS): parent[key]}
    return doc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_algebra_file_fails_cleanly(tmp_path_factory, data):
    # wrong types, booleans, nested lists, missing and extra keys: every
    # outcome is an exit code with at most one line on stderr
    doc = copy.deepcopy(_SL2_DOC)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err


_K_MAP = {
    "images": [
        {"source": "L_0", "value": [{"label": "M_1", "c": "1"},
                                    {"label": "M_-1", "c": "1/2"}]},
        {"source": "M_1", "value": [{"label": "L_0", "c": "-2"}]},
    ]
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, alg in (("K", builders.build_counterexample_k()),
                      ("sl2", builders.build_sl(2))):
        (root / f"{name}.json").write_bytes(builders.save(alg))
    (root / "map.json").write_text(json.dumps(_K_MAP))
    return root


_COMMANDS = ["builtin", "check", "solve", "compare", "propp", "decompose",
             "frobnicate", ""]
_KINDS = ["sv", "witt", "sl", "borel", "K", "Q"]
_INTS = st.integers(-3, 2).map(str)
_RANGES = st.integers(-3, 3).flatmap(
    lambda lo: st.integers(lo - 1, lo + 3).map(lambda hi: f"{lo}..{hi}")
)
_LISTS = st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(
    lambda xs: ",".join(map(str, xs))
)
_JUNK = st.sampled_from(["", "-", "--", "..", "1..", "=", "a,b", "x", "0.5", "1e3"])
# values for any flag; positive integers stay within every flag's size bound
_VALUES = _INTS | _RANGES | _LISTS | _JUNK


def _flag_values(files):
    # per-flag values, bounded so that no draw builds or walks for long:
    # orders <= 4, |gamma| <= 3, range width <= 3, --max, --d <= 2,
    # --n <= 3, --samples <= 3
    paths = st.sampled_from([str(files / "K.json"), str(files / "sl2.json"),
                             str(files / "map.json"), str(files / "missing.json")])
    outputs = st.sampled_from([str(files / "out.json"), str(files / "no" / "x.json")])
    small = st.integers(-1, 2).map(str)
    return {
        "--max": small, "--d": small, "--n": st.integers(-1, 3).map(str),
        "--sign": st.sampled_from(["+", "-", "x"]),
        "--no-center": None, "--all-basis": None, "--help": None,
        "-o": outputs, "--output": outputs,
        "--format": st.sampled_from(["json", "text", "xml"]),
        "--order": st.integers(-1, 4).map(str),
        "--orders": st.sampled_from(["2,3", "2,4", "3,4", "2", "1,2", "2,3,4"]),
        "--gamma": st.integers(-3, 3).map(str) | _LISTS,
        "--gamma-range": _RANGES,
        "--buffer": st.integers(-1, 3).map(str),
        "--element": st.sampled_from(["M_1", "L_0", "E(1,2)", "H_1", "nope"]),
        "--samples": st.integers(0, 3).map(str),
        "--seed": st.integers(-5, 5).map(str),
        "--map": paths,
        "--gam": _VALUES, "--no": None, "-x": None,
    }, paths


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_arguments_fail_cleanly(fuzz_files, data):
    # subcommands, builtin kinds, every flag, alone, with its own values
    # or with any value: every outcome is an exit code and at most one line
    flags, paths = _flag_values(fuzz_files)
    argv = [data.draw(st.sampled_from(_COMMANDS))]
    if argv[0] == "builtin":
        argv.append(data.draw(st.sampled_from(_KINDS)))
    elif data.draw(st.booleans()):
        argv.append(data.draw(paths))
    for _ in range(data.draw(st.integers(0, 6))):
        flag = data.draw(st.sampled_from(sorted(flags)))
        own = flags[flag]
        form = data.draw(st.sampled_from(["pair", "joined", "bare", "value"]))
        if form == "value":
            argv.append(data.draw(_VALUES | paths))
        elif own is None or form == "bare":
            argv.append(flag)
        elif form == "pair":
            argv += [flag, data.draw(own)]
        else:
            argv.append(f"{flag}={data.draw(own)}")
    _assert_clean_exit(*_run_quietly(argv))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_map_file_fails_cleanly(fuzz_files, data):
    doc = copy.deepcopy(_K_MAP)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    path = fuzz_files / "fuzzed_map.json"
    path.write_text(json.dumps(doc))
    code, err = _run_quietly(["decompose", str(fuzz_files / "K.json"), "--map", str(path)])
    _assert_clean_exit(code, err)
