import json

import pytest

from gradedlie.cli import main


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
        ],
        ids=["images-not-list", "value-not-list", "c-not-string",
             "source-not-string", "label-not-string", "source-repeated"],
    )
    def test_malformed_map(self, capsys, tmp_path, k_file, doc):
        mapfile = tmp_path / "map.json"
        mapfile.write_text(json.dumps(doc))
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


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
