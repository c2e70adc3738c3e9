"""Dual enumeration, stiffness certificates, and the structural properties."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from stiffkit.codes import (
    FloatCode,
    LatticeCode,
    LatticePoint,
    cross_polytope,
    cube,
    demicube,
    e8_roots,
    ngon,
    polytope_2_41,
)
from stiffkit.exact import Surd
from stiffkit.stiffness import (
    NodesRequired,
    NotInGeneralPosition,
    brute_force_dual,
    certify_stiff,
    circle_dual_scan,
    classify_sharp,
    dual_1stiff,
    dual_search,
    dual_to_code,
    is_1stiff,
)

NODES_241 = (
    Surd.sqrt_of(Fraction(1, 2)),
    Surd.sqrt_of(Fraction(1, 8)),
    Surd(0),
    -Surd.sqrt_of(Fraction(1, 8)),
    -Surd.sqrt_of(Fraction(1, 2)),
)


def signed_basis(d: int) -> set:
    out = set()
    for i in range(d):
        e = [0] * d
        e[i] = 1
        out.add(tuple(e))
        e[i] = -1
        out.add(tuple(e))
    return out


class TestDualSearchExact:
    def test_demicube_duals_are_signed_bases(self):
        for d in (5, 6, 7):
            res = dual_search(demicube(d), 2)
            assert res.exact
            assert res.dual_complete
            assert res.count == 2 * d
            assert {p.vector for p in res.points} == signed_basis(d)

    def test_cross_polytope_dual_is_cube(self):
        res = dual_search(cross_polytope(3), 2)
        assert res.exact and res.dual_complete
        assert {p.vector for p in res.points} == {
            (a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)
        }

    def test_cube3_dual_is_cross_polytope(self):
        res = dual_search(cube(3), 2)
        assert res.as_code().same_point_set(cross_polytope(3))

    def test_241_m4_dual_empty(self):
        res = dual_search(polytope_2_41(), 4)
        assert res.dual_complete
        assert res.is_empty

    def test_241_m5_needs_nodes(self):
        with pytest.raises(NodesRequired):
            dual_search(polytope_2_41(), 5)

    def test_241_m5_with_nodes_gives_e8_roots(self):
        res = dual_search(polytope_2_41(), 5, nodes=NODES_241)
        assert res.exact
        assert not res.dual_complete  # complete only relative to supplied nodes
        assert res.nodes_supplied
        assert res.count == 240
        assert res.as_code().same_point_set(e8_roots())

    def test_supplied_node_count_capped_by_m(self):
        with pytest.raises(ValueError):
            dual_search(cube(3), 2, nodes=[Fraction(0), Fraction(1, 2), Fraction(-1, 2)])

    def test_exact_mode_rejected_for_mixed_extensions(self):
        # sqrt(2) and sqrt(3) cannot share one quadratic extension
        bad = [Surd.sqrt_of(Fraction(1, 2)), -Surd.sqrt_of(Fraction(1, 3))]
        with pytest.raises(ValueError):
            dual_search(cube(3), 2, nodes=bad, mode="exact")


class TestRankGate:
    def test_planar_code_m2_not_in_general_position(self):
        sq = LatticeCode("eq_square", 3, 1,
                         ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
        with pytest.raises(NotInGeneralPosition):
            dual_search(sq, 2)

    def test_planar_code_m1_point_pair(self):
        sq = LatticeCode("eq_square", 3, 1,
                         ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
        res = dual_search(sq, 1)
        assert res.count == 2
        assert {p.vector for p in res.points} == {(0, 0, 1), (0, 0, -1)}

    def test_pair_code_m1_subspace_dual(self):
        pair = LatticeCode("pair", 3, 1, ((1, 0, 0), (-1, 0, 0)))
        res = dual_search(pair, 1)
        assert res.mode == "subspace"
        assert res.count == 0 and not res.is_empty
        assert len(res.subspace_basis) == 2


class TestCertify:
    def test_demicube5_certificate(self):
        cert = certify_stiff(demicube(5), 2)
        assert cert.stiff
        assert cert.design_strength >= 3
        assert cert.frequencies_match_weights
        # every dual point sees each node +-1/sqrt(5) exactly 8 times
        for row in cert.frequency_table:
            assert sorted(c for _, c in row) == [8, 8]
        assert cert.properties["antipodal"]
        assert cert.properties["cardinality_ok"]
        assert cert.properties["double_dual_contains_code"]

    def test_241_m4_not_stiff(self):
        cert = certify_stiff(polytope_2_41(), 4)
        assert not cert.stiff
        assert cert.dual is not None and cert.dual.is_empty

    def test_241_m5_without_nodes_reports_not_stiff(self):
        cert = certify_stiff(polytope_2_41(), 5)
        assert not cert.stiff
        assert cert.dual is None

    def test_241_m5_with_nodes_full_dual_but_not_stiff(self):
        # strength 7 < 9 = 2m-1, so not 5-stiff despite the 240-point dual
        cert = certify_stiff(polytope_2_41(), 5, nodes=NODES_241)
        assert not cert.stiff
        assert cert.design_strength == 7
        assert cert.dual.count == 240
        assert cert.frequencies_match_weights
        # Frozen frequencies: each E8 root sees the five nodes with these counts
        by_float = {round(float(k), 6): c for k, c in cert.frequency_table[0]}
        assert by_float == {
            0.707107: 126, 0.353553: 576, 0.0: 756, -0.353553: 576, -0.707107: 126,
        }

    def test_certificate_json_fields(self):
        cert = certify_stiff(cross_polytope(4), 2)
        blob = cert.to_json_dict()
        for key in ("code", "m", "stiff", "design_strength", "dual",
                    "frequency_table", "properties"):
            assert key in blob


class TestStructuralProperties:
    def test_antipodal_and_cardinality_all_corpus(self):
        for code, m in [(demicube(5), 2), (cross_polytope(3), 2),
                        (cross_polytope(4), 2), (cube(3), 2), (cube(4), 2)]:
            cert = certify_stiff(code, m)
            assert cert.stiff, code.name
            assert cert.properties["antipodal"], code.name
            assert cert.dual.count <= m ** code.ambient_dim, code.name
            assert cert.properties["double_dual_contains_code"], code.name

    def test_triple_dual_identity(self):
        for code in [demicube(5), cross_polytope(3), cross_polytope(4),
                     cross_polytope(5), cross_polytope(6)]:
            d1 = dual_search(code, 2).as_code()
            d2 = dual_search(d1, 2).as_code()
            d3 = dual_search(d2, 2).as_code()
            assert d3.same_point_set(d1), code.name

    def test_double_dual_strictly_contains_cross4(self):
        # dual of cross_polytope(4) is the 16-cell cube; its dual is cross again
        dd = dual_search(dual_search(cross_polytope(4), 2).as_code(), 2).as_code()
        assert dd.same_point_set(cross_polytope(4))


class TestOneStiff:
    def test_pair_in_ambient3(self):
        pair = LatticeCode("pair", 3, 1, ((1, 0, 0), (-1, 0, 0)))
        ok, witness = is_1stiff(pair)
        assert ok and witness is not None
        dual = dual_1stiff(pair)
        assert dual.dual_dim == 2 and dual.pair is None
        basis = np.array(dual.basis, dtype=float)
        assert np.allclose(basis @ np.array([1.0, 0.0, 0.0]), 0.0)

    def test_equatorial_square_witness(self):
        sq = LatticeCode("eq_square", 3, 1,
                         ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
        ok, witness = is_1stiff(sq)
        assert ok
        assert tuple(abs(x) for x in witness) == (0, 0, 1)
        dual = dual_1stiff(sq)
        assert dual.dual_dim == 1
        assert {p.vector for p in dual.pair} == {(0, 0, 1), (0, 0, -1)}

    def test_cube3_not_1stiff(self):
        ok, _ = is_1stiff(cube(3))
        assert not ok

    def test_nonzero_barycenter_fails(self):
        ok, _ = is_1stiff(demicube(3))
        assert not ok


class TestSharpness:
    def test_demicube3_strongly_sharp(self):
        rep = classify_sharp(demicube(3))
        assert rep.inner_dot_count == 1
        assert rep.sharp and rep.strongly_sharp

    def test_demicube5_sharp_only(self):
        rep = classify_sharp(demicube(5))
        assert rep.inner_dot_count == 2
        assert rep.sharp and not rep.strongly_sharp

    def test_cube5_not_sharp(self):
        rep = classify_sharp(cube(5))
        assert rep.inner_dot_count == 5
        assert not rep.sharp

    def test_e8_sharp(self):
        rep = classify_sharp(e8_roots())
        assert rep.inner_dot_count == 4
        assert rep.sharp


class TestDualToCode:
    def test_mixed_norm_rescale(self):
        pts = (LatticePoint((1, 0, 0), 1), LatticePoint((2, 0, 0), 4),
               LatticePoint((0, 1, 1), 2))
        with pytest.raises(ValueError):
            dual_to_code(pts, "clash")  # sqrt(1) and sqrt(2) scales cannot merge

    def test_same_direction_points_collide(self):
        pts = (LatticePoint((1, 1, 0), 2), LatticePoint((2, 2, 0), 8))
        with pytest.raises(ValueError):
            dual_to_code(pts, "dup")  # both are the same sphere point


class TestSamplingOracles:
    def test_brute_force_matches_search_cube3(self):
        bf = brute_force_dual(cube(3), 2, samples=40_000)
        ds = dual_search(cube(3), 2).unit_points()
        assert len(bf) == len(ds)
        for b in bf:
            assert min(np.linalg.norm(b - u) for u in ds) < 1e-8

    def test_brute_force_empty_for_m1(self):
        assert len(brute_force_dual(cross_polytope(3), 1, samples=20_000)) == 0

    def test_circle_scan_square(self):
        hits = circle_dual_scan(ngon(4), 2, resolution=200_000)
        assert len(hits) == 4
        angles = sorted(np.arctan2(hits[:, 1], hits[:, 0]) % (2 * np.pi))
        expected = [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4]
        assert np.allclose(angles, expected, atol=1e-9)

    def test_circle_scan_pentagon_empty(self):
        assert len(circle_dual_scan(ngon(5), 2, resolution=200_000)) == 0

    def test_circle_scan_rejects_higher_dim(self):
        with pytest.raises(ValueError):
            circle_dual_scan(cube(3), 2)
