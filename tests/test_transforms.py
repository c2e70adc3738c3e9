"""Symmetrization, facet slices, gluing, and the rotated-cubes family."""

from __future__ import annotations

import math
import tracemalloc
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
    load_code,
    ngon,
    save_code,
)
from stiffkit.config import ENV_SIZE_CAP
from stiffkit.design import index_set, spectrum
from stiffkit.exact import Surd
from stiffkit.stiffness import (
    NotInGeneralPosition,
    certify_stiff,
    dual_search,
)
from stiffkit.transforms import facet_derive, glue, rotated_cubes, symmetrize


class TestSymmetrize:
    def test_demicube5_gives_cube5(self):
        out = symmetrize(demicube(5))
        assert out.size == 32
        assert out.same_point_set(cube(5))

    def test_demicube3_gives_cube3(self):
        assert symmetrize(demicube(3)).same_point_set(cube(3))

    def test_antipodal_input_rejected(self):
        with pytest.raises(ValueError):
            symmetrize(cross_polytope(3))
        with pytest.raises(ValueError):
            symmetrize(cube(4))

    def test_float_code(self):
        out = symmetrize(ngon(5))
        assert out.size == 10
        assert out.is_antipodal()
        target = ngon(10).unit_array()
        for p in out.unit_array():
            assert np.linalg.norm(target - p, axis=1).min() < 1e-9

    def test_float_antipodal_pair_rejected(self):
        for code in (ngon(6), FloatCode("pair", 3, np.vstack([np.eye(3), -np.eye(3)[1]]))):
            with pytest.raises(ValueError, match="contains an antipodal pair"):
                symmetrize(code)

    def test_same_dual_as_input(self):
        a = dual_search(demicube(5), 2).as_code()
        b = dual_search(symmetrize(demicube(5)), 2).as_code()
        assert a.same_point_set(b)


class TestFacetDerive:
    def test_cross4_equator_is_cross3(self):
        x = LatticePoint((1, 0, 0, 0), 1)
        out = facet_derive(cross_polytope(4), x, 0)
        assert isinstance(out, LatticeCode)
        assert out.ambient_dim == 3
        assert out.same_point_set(cross_polytope(3))

    def test_cube3_diagonal_slice_is_triangle(self):
        x = LatticePoint((1, 1, 1), 3)
        out = facet_derive(cube(3), x, Fraction(1, 3))
        assert out.size == 3
        dots = out.unit_array() @ out.unit_array().T
        off = dots[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5, atol=1e-12)

    def test_e8_root_slice(self):
        x = LatticePoint((2, 2, 0, 0, 0, 0, 0, 0), 8)
        out = facet_derive(e8_roots(), x, Fraction(1, 2))
        assert out.size == 56
        assert out.ambient_dim == 7
        dots = np.unique(np.round(out.unit_array() @ out.unit_array().T, 9))
        assert np.allclose(dots, [-1.0, -1 / 3, 1 / 3, 1.0], atol=1e-9)

    def test_mobius_dot_map(self):
        # output dots must be (u - t^2)/(1 - t^2) for parent dots u
        code = e8_roots()
        x = LatticePoint((2, 2, 0, 0, 0, 0, 0, 0), 8)
        t = 0.5
        units = code.unit_array()
        sel = units[np.abs(units @ x.unit() - t) < 1e-9]
        parent = np.unique(np.round(sel @ sel.T, 9))
        out = facet_derive(code, x, Fraction(1, 2))
        derived = np.unique(np.round(out.unit_array() @ out.unit_array().T, 9))
        assert np.allclose(derived, (parent - t * t) / (1 - t * t), atol=1e-9)

    def test_norms_are_unit(self):
        x = LatticePoint((1, 1, 1), 3)
        out = facet_derive(cube(3), x, Fraction(1, 3))
        assert np.allclose(np.linalg.norm(out.unit_array(), axis=1), 1.0,
                           atol=1e-12)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_surd_slice_keeps_the_sign_of_t(self, sign):
        # x1 = sign slices the 64 odd-vector roots (+-1)^8 whose other seven
        # coordinates have an even (sign 1) or odd (sign -1) count of minus signs
        x = LatticePoint((1, 0, 0, 0, 0, 0, 0, 0), 1)
        out = facet_derive(e8_roots(), x, sign * Surd.sqrt_of(Fraction(1, 8)))
        assert isinstance(out, LatticeCode)
        assert (out.size, out.ambient_dim, out.norm_sq) == (64, 7, 7)
        parity = 0 if sign == 1 else 1
        assert all(sum(c < 0 for c in p) % 2 == parity for p in out.points)

    def test_large_norm_slice_factors_nothing(self, monkeypatch):
        # the square's norm 1 + 10^34 has no square-free split below the cap,
        # and the slice t = 0 through its first point needs none
        monkeypatch.setenv(ENV_SIZE_CAP, "1000")
        big = 10**17
        code = LatticeCode("square", 2, 1 + big**2,
                           tuple(sorted([(1, big), (-big, 1), (-1, -big), (big, -1)])))
        out = facet_derive(code, LatticePoint((1, big), 1 + big**2), 0)
        assert isinstance(out, LatticeCode)
        assert (out.size, out.ambient_dim, out.norm_sq) == (2, 1, 1)
        assert out.same_point_set(cross_polytope(1))
        with pytest.raises(ValueError, match="not attained"):
            facet_derive(code, LatticePoint((1, big), 1 + big**2), Fraction(1, 2))

    def test_unattained_t_rejected(self):
        x = LatticePoint((1, 0, 0, 0), 1)
        with pytest.raises(ValueError):
            facet_derive(cross_polytope(4), x, Fraction(1, 3))

    def test_t_one_rejected(self):
        x = LatticePoint((1, 0, 0, 0), 1)
        with pytest.raises(ValueError):
            facet_derive(cross_polytope(4), x, 1)


class TestGlue:
    def test_cross3_pair(self):
        out, cert = glue(cross_polytope(3), cross_polytope(3), 2, seed=0)
        assert out.size == 12
        assert cert.stiff
        assert cert.design_strength >= 3
        assert cert.dual.count >= 2

    def test_union_is_design(self):
        out, _ = glue(cross_polytope(3), cross_polytope(3), 2, seed=0)
        rep = index_set(out, 3)
        assert rep.strength >= 3

    def test_mixed_inputs(self):
        out, cert = glue(demicube(5), cross_polytope(5), 2, seed=1)
        assert out.size == 26
        assert cert.stiff

    def test_deterministic_given_seed(self):
        a, _ = glue(cross_polytope(3), cross_polytope(3), 2, seed=7)
        b, _ = glue(cross_polytope(3), cross_polytope(3), 2, seed=7)
        assert np.array_equal(a.unit_array(), b.unit_array())

    def test_circle_inputs_rejected(self):
        with pytest.raises(ValueError):
            glue(ngon(4), ngon(4), 2)

    def test_negative_seed_rejected(self):
        # random.Random would take -3 and 3 as one seed
        with pytest.raises(ValueError, match="seed"):
            glue(cross_polytope(3), cross_polytope(3), 2, seed=-3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            glue(cross_polytope(3), cross_polytope(4), 2)

    def test_non_stiff_input_rejected(self):
        with pytest.raises(ValueError):
            glue(cube(3), cube(3), 3)

    def test_genericity_test_holds_no_difference_tensor(self):
        # the 512 x 512 x 9 differences of two cube(9) copies are 18.9 MB;
        # the rest of the peak is the union's own certify_stiff
        tracemalloc.start()
        try:
            out, _ = glue(cube(9), cube(9), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == 1024
        assert peak < 25 * 2**20

    def test_subspace_duals_glue(self):
        # D_1 of ±e_1 in R^4 is the unit sphere of e_1's complement, so both
        # glued copies take their dual point from its basis
        pair = LatticeCode("pair", 4, 1, ((-1, 0, 0, 0), (1, 0, 0, 0)))
        assert certify_stiff(pair, 1).dual.mode == "subspace"
        out, cert = glue(pair, pair, 1)
        assert out.size == 4
        assert cert.stiff
        assert cert.dual.mode == "subspace" and len(cert.dual.subspace_basis) == 2

    def test_output_can_glue_again(self):
        base, _ = glue(cross_polytope(3), cross_polytope(3), 2, seed=2)
        out, cert = glue(base, cross_polytope(3), 2, seed=3)
        assert out.size == 18
        assert cert.stiff


class TestRotatedCubes:
    def test_n2(self):
        code, cert = rotated_cubes(2)
        assert code.size == 16
        assert cert.stiff
        assert cert.dual.count == 2

    def test_n3_dual_is_axis_pair(self):
        code, cert = rotated_cubes(3)
        assert code.size == 24
        assert cert.stiff
        pts = cert.dual.unit_points()
        assert len(pts) == 2
        assert np.allclose(np.abs(pts), [[0, 0, 1], [0, 0, 1]], atol=1e-9)

    def test_n1_plain_cube(self):
        code, cert = rotated_cubes(1)
        assert code.size == 8
        assert cert.dual.count == 6

    def test_two_horizontal_planes(self):
        code, _ = rotated_cubes(4)
        z = code.unit_array()[:, 2]
        assert np.allclose(np.abs(z), 1 / 3 ** 0.5, atol=1e-12)

    def test_dual_is_only_1stiff(self):
        _, cert = rotated_cubes(2)
        from stiffkit.codes import FloatCode

        dual_code = FloatCode("axis_pair", 3, cert.dual.unit_points())
        one = certify_stiff(dual_code, 1)
        assert one.stiff
        basis = np.array(one.dual.subspace_basis)
        assert basis.shape == (2, 3)
        assert np.allclose(basis @ dual_code.unit_array().T, 0.0, atol=1e-12)
        with pytest.raises(NotInGeneralPosition):
            dual_search(dual_code, 2)

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            rotated_cubes(0)


class TestJsonRoundtrip:
    def test_glue_output_saves(self, tmp_path):
        out, _ = glue(cross_polytope(3), cross_polytope(3), 2, seed=0)
        path = tmp_path / "glued.json"
        save_code(out, path)
        back = load_code(path)
        assert np.allclose(back.unit_array(), out.unit_array(), atol=1e-15)

    def test_facet_output_saves(self, tmp_path):
        x = LatticePoint((1, 0, 0, 0), 1)
        out = facet_derive(cross_polytope(4), x, 0)
        path = tmp_path / "facet.json"
        save_code(out, path)
        assert load_code(path).same_point_set(out)
