import json
from fractions import Fraction

import pytest

from gradedlie import builders
from gradedlie.algebra import GradedAlgebra, InvalidAlgebraError
from gradedlie.builders import (
    ParseError,
    WindowSpec,
    build_borel,
    build_counterexample_k,
    build_sl,
    build_sv,
    build_witt,
    load,
    save,
)


def unit(i):
    return {i: Fraction(1)}


def by_label(alg, lbl):
    return unit(alg.index_of(lbl))


class TestBuildSv:
    def test_window_one_count(self, sv1):
        assert sv1.dim == 9
        assert {b.label for b in sv1.basis} == {
            "L_-1", "L_0", "L_1", "M_-1", "M_0", "M_1", "Y_-1/2", "Y_1/2", "C",
        }

    def test_window_four_count(self, sv4):
        assert sv4.dim == 27

    def test_y_bracket_spot_check(self, sv2):
        out = sv2.bracket(by_label(sv2, "Y_1/2"), by_label(sv2, "Y_-1/2"))
        assert out == {sv2.index_of("M_0"): Fraction(-1)}

    def test_no_center_flag(self):
        alg = build_sv(WindowSpec(2), include_center=False)
        assert "C" not in {b.label for b in alg.basis}
        assert alg.dim == 14
        report = alg.validate()
        assert not report.violations and not report.warnings
        out = alg.bracket(by_label(alg, "L_2"), by_label(alg, "L_-2"))
        assert out == {alg.index_of("L_0"): Fraction(-4)}

    def test_cartan_set(self, sv1):
        assert {sv1.label(i) for i in sv1.cartan} == {"L_0", "M_0", "C"}

    def test_truncation_flag(self, sv1, k_alg):
        assert sv1.truncated and not k_alg.truncated

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_triple_bracket_family(self, sv4, n):
        # [L_n, L_-n, L_n] = -2 n^2 L_n whenever all operands stay in-window
        ln, lmn = by_label(sv4, f"L_{n}"), by_label(sv4, f"L_{-n}")
        out = sv4.bracket(ln, sv4.bracket(lmn, ln))
        assert out == {sv4.index_of(f"L_{n}"): Fraction(-2 * n * n)}

    @pytest.mark.parametrize("n", [-2, -1, 1])
    def test_odd_l_on_y_family(self, sv4, n):
        # [L_{2n+1}, Y_{-n-1/2}] = (-2n-1) Y_{n+1/2}
        lhs = sv4.bracket(
            by_label(sv4, f"L_{2 * n + 1}"), by_label(sv4, f"Y_{-2 * n - 1}/2")
        )
        assert lhs == {sv4.index_of(f"Y_{2 * n + 1}/2"): Fraction(-2 * n - 1)}

    @pytest.mark.parametrize("n", [1, -1])
    def test_l_on_m_family(self, sv4, n):
        # [L_{-2n-1}, M_{3n+1}] = (3n+1) M_n
        lhs = sv4.bracket(
            by_label(sv4, f"L_{-2 * n - 1}"), by_label(sv4, f"M_{3 * n + 1}")
        )
        assert lhs == {sv4.index_of(f"M_{n}"): Fraction(3 * n + 1)}

    def test_whole_components(self, sv4):
        # every present degree carries its full family of labels
        for degree in sorted(sv4.degree_set):
            d = degree[0]
            labels = {sv4.label(i) for i in sv4.basis_at(degree)}
            if d % 2 == 0:
                want = {f"L_{d // 2}", f"M_{d // 2}"}
                if d == 0:
                    want.add("C")
            else:
                want = {f"Y_{d}/2"}
            assert labels == want


class TestBuildWitt:
    def test_d1_window1(self):
        alg = build_witt(1, WindowSpec(1))
        assert alg.dim == 3
        out = alg.bracket(by_label(alg, "D_1(1)"), by_label(alg, "D_1(-1)"))
        assert out == {alg.index_of("D_1(0)"): Fraction(-2)}

    def test_d2_window1_count(self):
        alg = build_witt(2, WindowSpec(1))
        assert alg.dim == 18
        report = alg.validate()
        assert not report.violations and not report.warnings

    def test_d1_window5_fact(self):
        alg = build_witt(1, WindowSpec(5))
        out = alg.bracket(by_label(alg, "D_1(-3)"), by_label(alg, "D_1(4)"))
        assert out == {alg.index_of("D_1(1)"): Fraction(7)}

    @pytest.mark.parametrize("n_i", [1, -2])
    def test_single_variable_family(self, n_i):
        # [D_i(-(2n_i+1)e_i), D_i(n + (2n_i+1)e_i)] = (5n_i+2) D_i(n)
        alg = build_witt(1, WindowSpec(5))
        n = (n_i,)
        left = f"D_1({-(2 * n_i + 1)})"
        right = f"D_1({n_i + 2 * n_i + 1})"
        out = alg.bracket(by_label(alg, left), by_label(alg, right))
        assert out == {alg.index_of(f"D_1({n_i})"): Fraction(5 * n_i + 2)}

    def test_cartan(self):
        alg = build_witt(2, WindowSpec(1))
        assert {alg.label(i) for i in alg.cartan} == {"D_1(0,0)", "D_2(0,0)"}


class TestBuildSl:
    def test_sl2(self, sl2):
        assert sl2.dim == 3
        e, f, h = (sl2.index_of(l) for l in ("E(1,2)", "E(2,1)", "H_1"))
        assert sl2.bracket(unit(e), unit(f)) == {h: Fraction(1)}
        assert sl2.bracket(unit(h), unit(e)) == {e: Fraction(2)}

    def test_sl3_dimension_and_serre(self, sl3):
        assert sl3.dim == 8
        e1, e2 = by_label(sl3, "E(1,2)"), by_label(sl3, "E(2,3)")
        assert sl3.bracket(e1, sl3.bracket(e1, e2)) == {}

    def test_sl3_e1_e2(self, sl3):
        out = sl3.bracket(by_label(sl3, "E(1,2)"), by_label(sl3, "E(2,3)"))
        assert out and all(sl3.degree_of(k) == (1, 1) for k in out)

    def test_chevalley_serre_families(self, sl3):
        n = 3
        gcm = ((2, -1), (-1, 2))  # Cartan matrix of type A_2
        e = [by_label(sl3, f"E({i},{i + 1})") for i in range(1, n)]
        f = [by_label(sl3, f"E({i + 1},{i})") for i in range(1, n)]
        h = [by_label(sl3, f"H_{i}") for i in range(1, n)]
        for i in range(n - 1):
            for j in range(n - 1):
                # [e_i, f_j] = delta_ij h_i
                out = sl3.bracket(e[i], f[j])
                assert out == (h[i] if i == j else {})
                # [h_i, e_j] and [h_i, f_j] scale by the Cartan integers
                a = Fraction(gcm[i][j])
                he = sl3.bracket(h[i], e[j])
                assert he == {k: a * v for k, v in e[j].items()} if a else he == {}
                hf = sl3.bracket(h[i], f[j])
                assert hf == ({k: -a * v for k, v in f[j].items()} if a else {})
                if i != j:
                    # ad(e_i)^(1 - a_ij) e_j = 0, and likewise for f
                    power = 1 - gcm[i][j]
                    ee, ff = e[j], f[j]
                    for _ in range(power):
                        ee, ff = sl3.bracket(e[i], ee), sl3.bracket(f[i], ff)
                    assert ee == {} and ff == {}

    def test_sl4_valid(self):
        alg = build_sl(4)
        assert alg.dim == 15
        report = alg.validate()
        assert not report.violations and not report.warnings

    def test_contract(self):
        with pytest.raises(ValueError):
            build_sl(1)


class TestBuildBorel:
    def test_sl2_plus(self):
        alg = build_borel(2, "+")
        assert {b.label for b in alg.basis} == {"E(1,2)", "H_1"}
        report = alg.validate()
        assert not report.violations and not report.warnings

    def test_sl3_plus(self, borel_plus):
        assert borel_plus.dim == 5
        report = borel_plus.validate()
        assert not report.violations and not report.warnings
        out = borel_plus.bracket(
            by_label(borel_plus, "E(1,2)"), by_label(borel_plus, "E(2,3)")
        )
        assert out == by_label(borel_plus, "E(1,3)")

    def test_sl3_minus_mirrors(self):
        minus = build_borel(3, "-")
        assert minus.dim == 5
        report = minus.validate()
        assert not report.violations and not report.warnings
        out = minus.bracket(by_label(minus, "E(2,1)"), by_label(minus, "E(3,2)"))
        assert out == {minus.index_of("E(3,1)"): Fraction(-1)}
        assert all(
            all(c <= 0 for c in minus.degree_of(i))
            for i in range(minus.dim)
        )


class TestCounterexample:
    def test_shape(self, k_alg):
        assert k_alg.dim == 3
        assert {k_alg.label(i) for i in k_alg.cartan} == {"L_0"}

    def test_brackets(self, k_alg):
        l0, m1, mm1 = (k_alg.index_of(l) for l in ("L_0", "M_1", "M_-1"))
        assert k_alg.bracket(unit(l0), unit(m1)) == {m1: Fraction(1)}
        assert k_alg.bracket(unit(l0), unit(mm1)) == {mm1: Fraction(-1)}
        assert k_alg.bracket(unit(m1), unit(mm1)) == {}


_K_GOLDEN = """\
{
  "basis": [
    {
      "degree": [
        0
      ],
      "label": "L_0"
    },
    {
      "degree": [
        1
      ],
      "label": "M_1"
    },
    {
      "degree": [
        -1
      ],
      "label": "M_-1"
    }
  ],
  "brackets": [
    {
      "i": 0,
      "j": 1,
      "terms": [
        {
          "c": "1",
          "k": 1
        }
      ]
    },
    {
      "i": 0,
      "j": 2,
      "terms": [
        {
          "c": "-1",
          "k": 2
        }
      ]
    }
  ],
  "cartan": [
    0
  ],
  "grading_dim": 1,
  "name": "K",
  "truncated": false
}
"""


class TestSaveLoad:
    def test_round_trip_sv(self, sv1):
        data = save(sv1)
        again = load(data)
        assert save(again) == data

    def test_golden_bytes(self, k_alg):
        assert save(k_alg).decode() == _K_GOLDEN

    def test_round_trip_all_builders(self, sv2, sl3, borel_plus, k_alg, witt1):
        for alg in (sv2, sl3, borel_plus, k_alg, witt1):
            assert save(load(save(alg))) == save(alg)

    def test_reversed_key_rejected(self, k_alg):
        doc = json.loads(save(k_alg))
        entry = doc["brackets"][0]
        entry["i"], entry["j"] = entry["j"], entry["i"]
        with pytest.raises(ParseError):
            load(json.dumps(doc).encode())

    def test_unknown_field_rejected(self, k_alg):
        doc = json.loads(save(k_alg))
        doc["comment"] = "nope"
        with pytest.raises(ParseError):
            load(json.dumps(doc).encode())

    def test_noncanonical_rational_rejected(self, k_alg):
        doc = json.loads(save(k_alg))
        doc["brackets"][0]["terms"][0]["c"] = "2/4"
        with pytest.raises(ParseError):
            load(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(grading_dim=True),
            lambda doc: doc["basis"][1].update(degree=[True]),
            lambda doc: doc.update(cartan=[False]),
            lambda doc: doc["brackets"][0].update(i=False, j=True),
            lambda doc: doc["brackets"][0]["terms"][0].update(k=True),
        ],
        ids=["grading_dim", "degree", "cartan", "i-j", "k"],
    )
    def test_boolean_as_integer_rejected(self, k_alg, edit):
        # JSON true/false load as bool, a subclass of int; each edit keeps
        # the value the field had, so only the type is wrong
        doc = json.loads(save(k_alg))
        edit(doc)
        with pytest.raises(ParseError):
            load(json.dumps(doc).encode())

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load(b"{not json")

    def test_jacobi_tampered_file_rejected(self, sv2):
        doc = json.loads(save(sv2))
        i, j = sorted((sv2.index_of("L_-1"), sv2.index_of("L_1")))
        for entry in doc["brackets"]:
            if entry["i"] == i and entry["j"] == j:
                entry["terms"] = [{"k": sv2.index_of("L_0"), "c": "-3"}]
                break
        with pytest.raises(InvalidAlgebraError) as err:
            load(json.dumps(doc).encode())
        assert "Jacobi fails on" in str(err.value)

    def test_unsorted_terms_rejected(self, sv2):
        doc = json.loads(save(sv2))
        for entry in doc["brackets"]:
            if len(entry["terms"]) > 1:
                entry["terms"] = entry["terms"][::-1]
                break
        else:
            pytest.fail("expected a multi-term bracket in sv M=2")
        with pytest.raises(ParseError):
            load(json.dumps(doc).encode())


class TestSizeGuard:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_sv(WindowSpec(2)),
            lambda: build_sv(WindowSpec(2), include_center=False),
            lambda: build_witt(1, WindowSpec(3)),
            lambda: build_witt(2, WindowSpec(1)),
            lambda: build_sl(3),
            lambda: build_borel(3, "-"),
        ],
        ids=["sv", "sv-nocenter", "witt-d1", "witt-d2", "sl", "borel"],
    )
    def test_limit_meets_the_exact_basis_size(self, monkeypatch, build):
        # the size is worked out from the arguments before building
        dim = build().dim
        monkeypatch.setattr(builders, "MAX_BASIS_SIZE", dim - 1)
        with pytest.raises(ValueError, match="basis elements"):
            build()
        monkeypatch.setattr(builders, "MAX_BASIS_SIZE", dim)
        assert build().dim == dim

    def test_witt_d3_m3_is_within_the_limit(self):
        assert 3 * 7**3 <= builders.MAX_BASIS_SIZE < 4 * 7**4


class TestBuilderValidity:
    def test_everything_validates_empty(self):
        algs = [
            build_sv(WindowSpec(1)),
            build_sv(WindowSpec(3)),
            build_sv(WindowSpec(2), include_center=False),
            build_witt(1, WindowSpec(3)),
            build_witt(2, WindowSpec(1)),
            build_sl(2),
            build_sl(3),
            build_borel(2, "-"),
            build_borel(3, "+"),
            build_counterexample_k(),
        ]
        for alg in algs:
            report = alg.validate()
            assert not report.violations and not report.warnings, (
                alg.name, report.violations[:2], report.warnings[:2]
            )
