"""Constructors, validation, and serialization of point configurations."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffkit.codes import (
    FloatCode,
    LatticeCode,
    LatticePoint,
    close_pairs,
    common_norm,
    covered_by,
    cross_polytope,
    cube,
    demicube,
    e8_roots,
    gcd_reduce,
    load_code,
    ngon,
    polytope_2_41,
    random_unit_blocks,
    random_units,
    raw_dots,
    save_code,
    unit_surd,
)
import stiffkit
from stiffkit.config import ENV_SIZE_CAP, BadSizeCap, SizeCapExceeded, size_cap
from stiffkit.exact import Surd
from fractions import Fraction


def test_cross_polytope():
    c = cross_polytope(4)
    assert c.size == 8 and c.norm_sq == 1 and c.ambient_dim == 4
    assert c.sphere_dim == 3
    assert c.is_antipodal()
    assert (1, 0, 0, 0) in c.points


def test_cube():
    c = cube(3)
    assert c.size == 8 and c.norm_sq == 3
    assert all(abs(x) == 1 for p in c.points for x in p)
    assert c.is_antipodal()


def test_demicube_parity_and_counts():
    for d in range(3, 9):
        c = demicube(d)
        assert c.size == 2 ** (d - 1)
        assert all(sum(1 for x in p if x < 0) % 2 == 0 for p in c.points)
    # d even: antipodal; d odd: antipode has odd parity
    assert demicube(4).is_antipodal()
    assert demicube(6).is_antipodal()
    assert not demicube(5).is_antipodal()
    assert not demicube(3).is_antipodal()


def test_antipode_mask_is_exact_on_integer_points():
    # (2,1,0) and (-2,-1,0) pair up; the antipode (0,-1,-2) of (0,1,2) is
    # absent, and (0,-2,-1) holds the same coordinates in another order
    c = LatticeCode("mixed", 3, 5, ((2, 1, 0), (-2, -1, 0), (0, 1, 2), (0, -2, -1)))
    assert c.antipode_mask().tolist() == [True, True, False, False]
    assert not c.is_antipodal()


def test_antipode_partners_are_built_once_and_read_only():
    c = LatticeCode("mixed", 3, 5, ((2, 1, 0), (-2, -1, 0), (0, 1, 2), (0, -2, -1)))
    partners = c.antipode_partners()
    assert partners.tolist() == [1, 0, -1, -1]
    assert c.antipode_partners() is partners
    with pytest.raises(ValueError):
        partners[2] = 3
    big = polytope_2_41()
    partners = big.antipode_partners()
    pts = np.asarray(big.points)
    assert np.array_equal(pts[partners], -pts)
    assert (demicube(5).antipode_partners() == -1).all()
    # a cached map leaves equality, hashing and the repr to the fields
    assert big == polytope_2_41() and hash(big) == hash(polytope_2_41())
    assert "_partners" not in repr(cube(2))


def test_float_antipode_partners_take_exact_negations_only():
    # ngon(6)'s antipodes round differently from its negated points, so
    # antipode_mask (within the tolerance) pairs them and the map does not;
    # rows stacked with their exact negations pair up, -0.0 with 0.0
    hexagon = ngon(6)
    assert hexagon.is_antipodal()
    assert (hexagon.antipode_partners() == -1).all()
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(4, 3))
    pts[0, 1] = 0.0
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    code = FloatCode("pm", 3, np.vstack([pts, -pts[:2], -pts[2] + 1e-14]))
    assert code.antipode_partners().tolist() == [4, 5, -1, -1, 0, 1, -1]
    assert code.antipode_mask().tolist() == [True] * 3 + [False] + [True] * 3


def test_demicube_4_is_a_cross_polytope_copy():
    # 8 points with pairwise dots in {4, 0, -4}/4: an orthoplex up to rotation
    c = demicube(4)
    g = raw_dots(c.points, c.points)
    assert sorted(np.unique(g).tolist()) == [-4, 0, 4]


def test_e8_counts_and_dots():
    e8 = e8_roots()
    assert e8.size == 240 and e8.norm_sq == 8
    by_support = {}
    for p in e8.points:
        k = sum(1 for x in p if x != 0)
        by_support[k] = by_support.get(k, 0) + 1
    assert by_support == {2: 112, 8: 128}
    g = raw_dots(e8.points, e8.points)
    assert sorted(np.unique(g).tolist()) == [-8, -4, 0, 4, 8]
    assert e8.is_antipodal()


def test_2_41_counts_and_row_profile():
    w = polytope_2_41()
    assert w.size == 2160 and w.norm_sq == 16
    by_support = {}
    for p in w.points:
        k = sum(1 for x in p if x != 0)
        by_support[k] = by_support.get(k, 0) + 1
    assert by_support == {4: 1120, 1: 16, 8: 1024}
    # type III points carry an odd number of negative coordinates
    for p in w.points:
        if sum(1 for x in p if x != 0) == 8:
            assert sum(1 for x in p if x < 0) % 2 == 1
            assert sorted(abs(x) for x in p) == [1] * 7 + [3]
    # every point sees the same dot multiset against the code
    row = raw_dots(w.points, w.points[:1])[:, 0]
    vals, cnt = np.unique(row, return_counts=True)
    assert dict(zip(vals.tolist(), cnt.tolist())) == {
        -16: 1, -12: 64, -8: 280, -4: 448, 0: 574,
        4: 448, 8: 280, 12: 64, 16: 1,
    }
    assert w.is_antipodal()


def test_ngon():
    c = ngon(6)
    assert isinstance(c, FloatCode) and c.size == 6
    assert np.allclose(np.linalg.norm(c.points, axis=1), 1)
    assert np.allclose(c.points[0], [1, 0])
    assert c.is_antipodal()
    assert not ngon(5).is_antipodal()


def test_validation_rejects_bad_codes():
    with pytest.raises(ValueError):
        LatticeCode("bad", 2, 2, ((1, 1), (1, 0)))  # mixed norms
    with pytest.raises(ValueError):
        LatticeCode("bad", 2, 2, ((1, 1), (1, 1)))  # repeated
    with pytest.raises(ValueError):
        LatticeCode("bad", 3, 2, ((1, 1),))  # wrong dimension
    with pytest.raises(ValueError):
        LatticePoint((1, 1), 3)
    with pytest.raises(ValueError):
        FloatCode("bad", 2, np.array([[0.5, 0.5]]))  # not unit
    for tol in (-1e-12, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            FloatCode("bad", 2, np.eye(2), tolerance=tol)


def test_float_distinctness_check_runs_in_row_blocks():
    pts = np.random.default_rng(1).normal(size=(1500, 8))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    tracemalloc.start()
    try:
        FloatCode("random", 8, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    # a repeated point in the first and the last block, and a near repeat
    # inside the 10 * tolerance threshold, are still found
    for dup in (pts[0], pts[0] + np.eye(8)[0] * 3e-12):
        with pytest.raises(ValueError, match="closer than the tolerance"):
            FloatCode("dup", 8, np.vstack([pts[:-1], dup / np.linalg.norm(dup)]))


def test_float_code_checks_repeats_at_any_size():
    pts = np.random.default_rng(2).normal(size=(20_000, 8))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    tracemalloc.start()
    try:
        code = FloatCode("random", 8, pts)
        assert not code.is_antipodal()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert FloatCode("pm", 8, np.vstack([pts[:3000], -pts[:3000]])).is_antipodal()
    with pytest.raises(ValueError, match="closer than the tolerance"):
        FloatCode("dup", 8, np.vstack([pts[:5000], pts[4321]]))


def test_float_code_at_tolerance_zero_refuses_exact_repeats():
    # at tolerance 0 the repeat radius is 0, so only an exact repeat is
    # within it, and it must still count
    pts = [[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]]
    with pytest.raises(ValueError, match="closer than the tolerance"):
        FloatCode("x", 2, pts, tolerance=0)
    assert FloatCode("x", 2, pts[1:], tolerance=0).size == 4


def _close_pairs_reference(a, b, radius):
    """Every pair by its distance, from the full table, one row of a at a time."""
    table = np.array([np.linalg.norm(p - b, axis=1) for p in a]).reshape(len(a), len(b))
    i, j = np.nonzero(table <= radius)
    return i, j, table[i, j]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "ngon", "2160", "pm", "repeat", "boundary"]),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1 - 1e-6, 1.0, 1 + 1e-6]))
def test_close_pairs_matches_brute_force(kind, seed, scale):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    a = rng.normal(size=(int(rng.integers(0, 40)), dim))
    b = rng.normal(size=(int(rng.integers(1, 40)), dim))
    radius = float(rng.uniform(0, 2))
    if kind == "ngon":
        n = int(rng.integers(2, 400))
        a = b = ngon(n).unit_array()
        radius = 2 * np.sin(np.pi / n) * int(rng.integers(1, 3))  # neighbour chords
    elif kind == "2160":
        a = polytope_2_41().unit_array()
        b = a[rng.choice(len(a), 100, replace=False)] * rng.choice([-1, 1], (100, 1))
        b += rng.normal(size=b.shape) * 1e-9
        radius = float(rng.choice([1e-11, 1e-8, 1e-6]))
    elif kind == "pm":
        a = a / np.linalg.norm(a, axis=1)[:, None]
        b = np.vstack([a, -a])
        radius = 1e-9
    elif kind == "repeat":
        b = np.vstack([a, b])[rng.integers(0, len(a) + len(b), 60)]
        a = np.vstack([a, b[:5]])
        radius = float(rng.choice([0.0, 1e-12]))
    elif kind == "boundary":
        step = rng.normal(size=a.shape)
        step *= radius / np.linalg.norm(step, axis=1)[:, None]
        b = np.vstack([b, a + step])
    radius *= scale
    i, j, dist = close_pairs(a, b, radius)
    want_i, want_j, want_dist = _close_pairs_reference(a, b, radius)
    order = np.lexsort((j, i))
    assert np.array_equal(i[order], want_i) and np.array_equal(j[order], want_j)
    assert np.array_equal(dist[order], want_dist)
    assert covered_by(a, b, radius) == (set(want_i.tolist()) == set(range(len(a))))
    if kind == "boundary" and scale != 1.0:
        # a_k + step_k sits at distance radius / scale from a_k, up to rounding
        hit = set(zip(i.tolist(), j.tolist()))
        moved = [(k, len(b) - len(a) + k) in hit for k in range(len(a))]
        assert all(moved) if scale > 1 else not any(moved)


def _run_fresh(script: str) -> None:
    """Run script in a fresh interpreter that imports stiffkit from this
    checkout; it must exit 0."""
    src = os.path.dirname(os.path.dirname(stiffkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr.decode()


def test_covered_by_leaves_numpy_ma_unimported():
    # np.unique's sort path imports numpy.ma, about 20 ms in a fresh process;
    # numpy 1.x loads numpy.ma with numpy itself, so only an import that
    # covered_by adds counts
    _run_fresh("import sys, numpy as np\n"
               "from stiffkit.codes import covered_by, ngon\n"
               "a = ngon(12).unit_array()\n"
               "before = 'numpy.ma' in sys.modules\n"
               "assert covered_by(a, a[::-1], 1e-9) and not covered_by(a, a[1:], 1e-9)\n"
               "sys.exit(not before and 'numpy.ma' in sys.modules)\n")


def test_seeded_draws_leave_numpy_random_unimported():
    # numpy.random costs about 14 ms and 6 MB in a fresh process; numpy 1.x
    # loads it with numpy itself, so only an import that the descent, the
    # close-pairs sweep of a FloatCode or glue adds counts
    _run_fresh("import sys, numpy as np\n"
               "before = 'numpy.random' in sys.modules\n"
               "from stiffkit.codes import FloatCode, cross_polytope, demicube, ngon\n"
               "from stiffkit.potential import Kernel, minimize_potential\n"
               "from stiffkit.transforms import glue\n"
               "minimize_potential(demicube(5), Kernel.parse('gauss:1'), restarts=8)\n"
               "FloatCode('n12', 2, ngon(12).unit_array(), tolerance=1e-9)\n"
               "glue(cross_polytope(3), cross_polytope(3), 2)\n"
               "sys.exit(not before and 'numpy.random' in sys.modules)\n")


@pytest.mark.parametrize("dim", [1, 3, 8, 24])
def test_random_units_are_seeded_unit_rows(dim):
    rows = random_units(5, 40, dim)
    assert rows.shape == (40, dim)
    assert np.array_equal(rows, random_units(5, 40, dim))
    assert not np.array_equal(rows, random_units(6, 40, dim))
    # row i does not depend on how many rows follow it
    for n in (1, 7, 39):
        assert np.array_equal(random_units(5, n, dim), rows[:n])
    assert np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= 1e-15)


@pytest.mark.parametrize("size", [1, 7, 40, 100])
def test_random_unit_blocks_are_the_rows_of_random_units(size):
    blocks = list(random_unit_blocks(5, 40, 8, size))
    assert [len(b) for b in blocks] == [min(size, 40 - lo) for lo in range(0, 40, size)]
    assert np.array_equal(np.vstack(blocks), random_units(5, 40, 8))
    with pytest.raises(ValueError, match="seed"):
        next(random_unit_blocks(-1, 40, 8, size))


def test_size_cap(monkeypatch):
    monkeypatch.setenv(ENV_SIZE_CAP, "100")
    with pytest.raises(SizeCapExceeded):
        cube(12)
    monkeypatch.setenv(ENV_SIZE_CAP, "5000")
    assert cube(12).size == 4096
    for raw in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv(ENV_SIZE_CAP, raw)
        with pytest.raises(BadSizeCap, match=ENV_SIZE_CAP):
            size_cap()


def test_lattice_point_dots_and_directions():
    p = LatticePoint((1, 0, 0), 1)
    q = LatticePoint((2, 2, 0), 8)
    raw = raw_dots([p.vector], [q.vector])
    assert raw.tolist() == [[2]]
    assert unit_surd(2, p.norm_sq, q.norm_sq) == Surd.sqrt_of(Fraction(1, 2))
    assert gcd_reduce((0, 0, 0)) == (0, 0, 0)
    assert gcd_reduce((-6, 9, 0)) == (-2, 3, 0)


def test_same_point_set_across_scalings():
    a = LatticeCode("a", 2, 1, ((1, 0), (0, 1)))
    b = LatticeCode("b", 2, 4, ((2, 0), (0, 2)))
    assert a.same_point_set(b)
    c = LatticeCode("c", 2, 4, ((2, 0), (0, -2)))
    assert not a.same_point_set(c)


def test_json_roundtrip_exact(tmp_path):
    c = demicube(5)
    path = tmp_path / "demicube5.json"
    save_code(c, path)
    back = load_code(path)
    assert isinstance(back, LatticeCode)
    assert back.points == c.points
    assert back.norm_sq == c.norm_sq and back.name == c.name


def test_json_roundtrip_float(tmp_path):
    c = ngon(5)
    path = tmp_path / "pentagon.json"
    save_code(c, path)
    back = load_code(path)
    assert isinstance(back, FloatCode)
    assert np.allclose(back.points, c.points)
    assert back.tolerance == c.tolerance


def test_save_code_writes_the_dumps_text(tmp_path):
    # json.dump streams the chunks of the text json.dumps joins
    for c in (demicube(5), ngon(5)):
        path = tmp_path / f"{c.name}.json"
        save_code(c, path)
        assert path.read_bytes() == (json.dumps(c.to_json_dict(), indent=2) + "\n").encode()


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "ambient_dim": 2}')
    with pytest.raises(ValueError):
        load_code(path)


_SQUARE = {"name": "x", "ambient_dim": 2, "norm_sq": 1,
           "points": [[1, 0], [-1, 0], [0, 1], [0, -1]]}


@pytest.mark.parametrize("change", [
    {"points": [[1.9, 0], [-1.9, 0], [0, 1.5], [0, -1.2]]},
    {"points": [[1.0, 0], [-1, 0], [0, 1], [0, -1]]},
    {"points": [["1", 0], [-1, 0], [0, 1], [0, -1]]},
    {"ambient_dim": 2.0},
    {"norm_sq": 1.0},
    {"norm_sq": "1"},
    {"ambient_dim": 2.0, "points": None, "points_decimal": [[1.0, 0.0], [-1.0, 0.0]]},
])
def test_load_refuses_non_integral_values(tmp_path, change):
    # int() would truncate 1.9 to 1 and read the square {+-e_1, +-e_2}
    data = {k: v for k, v in {**_SQUARE, **change}.items() if v is not None}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    with pytest.raises(TypeError):
        load_code(path)


def test_integer_models_refuse_non_integral_values():
    sq = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for bad in (
        lambda: LatticeCode("x", 2, 1, ((1.9, 0), (-1.9, 0), (0, 1.5), (0, -1.2))),
        lambda: LatticeCode("x", 2.0, 1, sq),
        lambda: LatticeCode("x", 2, 1.0, sq),
        lambda: LatticePoint((1.0, 0), 1),
        lambda: LatticePoint((1, 0), 1.0),
        lambda: LatticePoint(("1", 0), 1),
    ):
        with pytest.raises(TypeError):
            bad()
    # numpy integers are integers
    c = LatticeCode("x", np.int64(2), np.int64(1), tuple(map(tuple, np.array(sq))))
    assert c.points == sq and type(c.norm_sq) is int and type(c.ambient_dim) is int
    assert all(type(x) is int for p in c.points for x in p)
    p = LatticePoint(np.array([3, 4]), np.int32(25))
    assert p.vector == (3, 4) and type(p.norm_sq) is int


def _square_free(n: int) -> bool:
    return all(n % (p * p) for p in range(2, isqrt(n) + 1))


def _square_free_part(n: int) -> int:
    """Reference: n with every square factor divided out, by trial division."""
    for p in range(2, isqrt(n) + 1):
        while n % (p * p) == 0:
            n //= p * p
    return n


def _one_class_vectors(dim: int):
    """Multiples of signed permutations of one vector: one square-free part."""
    base = st.tuples(*[st.integers(-30, 30)] * dim).filter(any)
    return base.flatmap(lambda v: st.lists(
        st.builds(lambda c, perm, signs: tuple(c * s * v[i] for i, s in zip(perm, signs)),
                  st.integers(1, 6), st.permutations(range(dim)),
                  st.tuples(*[st.sampled_from((1, -1))] * dim)),
        min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.one_of(
    st.lists(st.tuples(*[st.integers(-30, 30)] * dim).filter(any), min_size=1, max_size=6),
    _one_class_vectors(dim))))
def test_common_norm_rescales_to_lcm_squared_times_square_free_part(vectors):
    scaled = common_norm(vectors)
    parts = [_square_free_part(sum(x * x for x in v)) for v in vectors]
    if len(set(parts)) > 1:
        assert scaled is None
        return
    assert len(scaled) == len(vectors)
    # norm_j = f_j^2 * s_j with s_j square-free, so f_j^2 = norm_j / s_j
    f = [isqrt(sum(x * x for x in v) // s) for v, s in zip(vectors, parts)]
    assert all(fj * fj * s == sum(x * x for x in v)
               for fj, s, v in zip(f, parts, vectors))
    big_f = lcm(*f)
    for v, w, s in zip(vectors, scaled, parts):
        assert _square_free(s)
        assert sum(x * x for x in w) == big_f * big_f * s
        # parallel, same orientation: w = k * v for a positive integer k
        k = gcd(*w) // gcd(*v)
        assert k > 0 and w == tuple(k * x for x in v)


@pytest.mark.parametrize("code", [
    *(cross_polytope(d) for d in (2, 3, 4, 8)), *(cube(d) for d in (2, 3, 4, 8)),
    *(demicube(d) for d in (3, 5, 6, 8)), e8_roots(), polytope_2_41(),
], ids=lambda c: c.name)
def test_unit_array_bits_match_the_int64_route(code):
    old = np.asarray(code.points, dtype=np.int64).astype(float) / float(code.norm_sq) ** 0.5
    assert code.unit_array().tobytes() == old.tobytes()


def test_unit_array_past_int64():
    s = 2 ** 70
    big = LatticeCode("big square", 2, 2 * s * s, ((-s, -s), (-s, s), (s, -s), (s, s)))
    assert big.unit_array().tobytes() == cube(2).unit_array().tobytes()
