"""Constructive operations: symmetrization, facet derivation, gluing,
and the rotated-cubes family.

Facet derivation stays exact when the complement of the pole has an
equal-norm integer basis: rows are selected by the integer identity
(x.y)^2 = t^2 |x|^2 N, and the basis comes from a fraction-free
Gram-Schmidt, so no norm is factored and no Fraction vector is built.

Gluing implements the reflection construction that adds cardinalities of
two m-stiff codes: reflect the first code so a dual point is shared, then
reflect again across a random hyperplane through that dual point.  The
copy must come out disjoint from the second code, which one proximity
sweep checks; the next of GLUE_TRIES seeded directions is tried
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import cos, gcd, pi, sin
from typing import Optional

import numpy as np

from ._linalg import integer_nullspace
from .codes import (Code, FloatCode, LatticeCode, LatticePoint, Vector, close_pairs,
                    common_norm, cube, gcd_reduce, random_units, raw_dots)
from .exact import Surd
from .stiffness import StiffnessCertificate, certify_stiff

GLUE_TRIES = 64  # random reflection directions tried by glue


def symmetrize(code: Code) -> Code:
    """The union code ∪ (-code); input must have no antipodal pair."""
    paired = np.flatnonzero(code.antipode_mask())
    if len(paired):
        raise ValueError(f"{code.name} contains an antipodal pair "
                         f"(point {paired[0]} and its antipode)")
    if isinstance(code, LatticeCode):
        pts = tuple(sorted(set(code.points)
                           | {tuple(-x for x in p) for p in code.points}))
        return LatticeCode(f"symmetrize({code.name})", code.ambient_dim,
                           code.norm_sq, pts)
    pts = code.unit_array()
    return FloatCode(f"symmetrize({code.name})", code.ambient_dim,
                     np.vstack([pts, -pts]), tolerance=code.tolerance)


def _orthogonal_integer_basis(x: Vector) -> Optional[list[Vector]]:
    """Pairwise-orthogonal integer basis of {x}^perp with equal squared norms.

    Gram-Schmidt without fractions: each nullspace vector w is taken to
    gcd_reduce(|b|^2 w - (w.b) b) against every earlier b, a positive
    multiple of its rational Gram-Schmidt vector.  Equal norms are possible
    iff the resulting norms share one square-free part; returns None
    otherwise.
    """
    basis: list[Vector] = []
    for w in integer_nullspace([x]):
        for b in basis:
            wb = sum(p * q for p, q in zip(w, b))
            if wb:
                bb = sum(q * q for q in b)
                w = gcd_reduce(tuple(bb * p - wb * q for p, q in zip(w, b)))
        basis.append(w)
    return common_norm(basis)


def facet_derive(code: Code, x, t) -> Code:
    """Slice {y : x.y = t} projected to the unit sphere of {x}^perp.

    Each selected y maps to (y - t*x)/sqrt(1-t^2), written in a basis of
    the orthogonal complement: an equal-norm integer basis keeps the
    output exact when one exists, its coordinates divided by their common
    gcd, otherwise floating coordinates.
    The pairwise dots transform as u -> (u - t^2)/(1 - t^2).
    """
    exact_in = isinstance(code, LatticeCode) and isinstance(x, LatticePoint) \
        and isinstance(t, (int, Fraction, Surd))
    if exact_in:
        tt = Surd(t)
        if tt == 1 or tt == -1:
            raise ValueError("t = ±1 slices to a single point, not a facet")
        # selected rows: x.y = t*sqrt(|x|^2 N), so (x.y)^2 = t^2 |x|^2 N with
        # the sign of t, and t^2 is rational: no norm is ever factored
        target_sq = tt.coeff ** 2 * tt.radicand * x.norm_sq * code.norm_sq
        sign = (tt.coeff > 0) - (tt.coeff < 0)
        raw = raw_dots([x.vector], code.points)[0].tolist()
        rows = [y for y, r in zip(code.points, raw)
                if r * r == target_sq and (r > 0) - (r < 0) == sign]
        if not rows:
            raise ValueError(f"dot value {t} is not attained by {code.name}")
        basis = _orthogonal_integer_basis(x.vector)
        if basis is not None:
            dots = raw_dots(rows, basis).tolist()
            g = gcd(*(c for w in dots for c in w))
            coords = [tuple(c // g for c in w) for w in dots]
            ns = sum(c * c for c in coords[0])  # LatticeCode checks the others
            return LatticeCode(f"facet({code.name},t={t})",
                               code.ambient_dim - 1, ns, tuple(sorted(coords)))
        # no equal-norm basis of the complement: fall through
    # float path
    xv = x.unit() if isinstance(x, LatticePoint) else np.asarray(x, dtype=float)
    xv = xv / np.linalg.norm(xv)
    tf = float(t)
    if abs(tf) >= 1 - 1e-12:
        raise ValueError("t = ±1 slices to a single point, not a facet")
    units = code.unit_array()
    dots = units @ xv
    sel = units[np.abs(dots - tf) < 1e-9]
    if not len(sel):
        raise ValueError(f"dot value {t} is not attained by {code.name}")
    proj = (sel - tf * xv[None, :]) / (1.0 - tf * tf) ** 0.5
    # orthonormal basis of {x}^perp from the full SVD of x as a row
    _, _, vt = np.linalg.svd(xv[None, :])
    basis_f = vt[1:]
    coords = proj @ basis_f.T
    return FloatCode(f"facet({code.name},t={float(t):.6g})",
                     code.ambient_dim - 1, coords,
                     tolerance=getattr(code, "tolerance", 1e-12))


def _dual_point(cert: StiffnessCertificate) -> np.ndarray:
    """One unit vector from the dual: a listed point, or a subspace direction."""
    pts = cert.dual.unit_points()
    if len(pts):
        return pts[0]
    basis = cert.dual.subspace_basis
    v = np.asarray(basis[0], dtype=float)
    return v / np.linalg.norm(v)


def glue(code1: Code, code2: Code, m: int,
         seed: int = 0) -> tuple[FloatCode, StiffnessCertificate]:
    """Union of two m-stiff codes after two reflections, again m-stiff.

    Reflect code1 so a dual point of code1 lands on a dual point z2 of
    code2, then across a random hyperplane containing z2: its normal is the
    next row of codes.random_units(seed, GLUE_TRIES, d) made orthogonal to
    z2, until the copy is disjoint from code2.  A negative seed raises
    ValueError.  The resulting union of (2m-1)-designs is a (2m-1)-design
    with z2 in its dual.
    """
    if code1.ambient_dim != code2.ambient_dim:
        raise ValueError("codes live in different ambient dimensions")
    if code1.sphere_dim < 2:
        raise ValueError("gluing needs sphere dimension d >= 2")
    cert1 = certify_stiff(code1, m)
    cert2 = certify_stiff(code2, m)
    if not cert1.stiff or not cert2.stiff:
        raise ValueError("both inputs must be m-stiff")
    z1 = _dual_point(cert1)
    z2 = _dual_point(cert2)
    if np.linalg.norm(z1 - z2) < 1e-9:
        z2 = -z2  # duals are antipodal, so -z2 is also a dual point

    pts1 = code1.unit_array()
    pts2 = code2.unit_array()
    u = z1 - z2
    u /= np.linalg.norm(u)
    pts1r = pts1 - 2.0 * (pts1 @ u)[:, None] * u[None, :]  # now z2 in its dual

    d1 = code1.ambient_dim
    for a in random_units(seed, GLUE_TRIES, d1):
        a -= (a @ z2) * z2  # enforce a ⊥ z2
        n = np.linalg.norm(a)
        if n < 1e-9:
            continue
        a /= n
        pts1rr = pts1r - 2.0 * (pts1r @ a)[:, None] * a[None, :]
        if np.any(close_pairs(pts2, pts1rr, 1e-8)[2] < 1e-8):  # not disjoint
            continue
        union = np.vstack([pts1rr, pts2])
        out = FloatCode(f"glue({code1.name},{code2.name},m={m})", d1, union,
                        tolerance=1e-9)
        cert = certify_stiff(out, m)
        return out, cert
    raise RuntimeError(f"no generic reflection direction found in {GLUE_TRIES} tries")


def rotated_cubes(n: int) -> tuple[FloatCode, StiffnessCertificate]:
    """Union of n copies of the cube on S^2 rotated about the z-axis.

    Rotation angles pi*k/(2n) keep the two horizontal planes z = ±1/sqrt(3)
    and kill every rotational symmetry of the union for n >= 2, leaving
    only the axis pair ±e_3 in the dual.
    """
    if n < 1:
        raise ValueError("need at least one copy")
    base = cube(3).unit_array()
    copies = []
    for k in range(n):
        th = pi * k / (2 * n)
        c, s = cos(th), sin(th)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        copies.append(base @ rot.T)
    fc = FloatCode(f"rotated_cubes({n})", 3, np.vstack(copies), tolerance=1e-10)
    cert = certify_stiff(fc, 2)
    return fc, cert
