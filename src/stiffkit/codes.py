"""Point configurations on spheres: exact integer models and float fallbacks.

A LatticeCode stores integer coordinate vectors sharing one squared norm, so
every dot product between unit points is an exact rational (v.w)/norm_sq.
Configurations without such a model (polygons, glued or rotated families)
are FloatCodes with an explicit tolerance.

Float point sets are compared in one place, `close_pairs`, by a sweep:
both sets are projected on one fixed unit direction r, the first row of
`random_units(0, 1, dim)`.  Since
|a.r - b.r| <= |a - b|, only the points of b whose projections lie within
the radius (plus a rounding bound) of a's can be that close, and only
those candidates are measured, so repeat, antipode and disjointness
checks cost O(N log N + candidates) instead of an N x N table.  Near
duplicates within one set are taken once by one rule, `greedy_cluster`,
and float rows are listed in one order, `sorted_rows`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product
from math import cos, gcd, isqrt, lcm, pi, sin
from operator import index
from pathlib import Path
from random import Random
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .config import block_rows, check_size, size_cap
from .exact import Surd

Vector = tuple[int, ...]

# multiply-adds of one BLAS call in `products`: OpenBLAS runs a GEMM with
# M * N * K <= 65536 * GEMM_MULTITHREAD_THRESHOLD (4 by default) on the
# calling thread (interface/gemm.c), so no exact product wakes its thread
# pool, which on two busy cores can cost far more than the product
GEMM_MACS = 1 << 18


def gcd_reduce(vec: Vector) -> Vector:
    """Divide out the (positive) gcd, preserving direction and sign."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _max_norm_sq(rows: np.ndarray) -> int:
    return max(int((rows * rows).sum(axis=1).max()), 1)


def int_arrays(a: Sequence[Vector], b: Sequence[Vector]) -> tuple[np.ndarray, np.ndarray]:
    """Two non-empty sets of integer vectors as arrays whose products
    through `products` are exact.

    Every exact dot product in the package goes through here.  The arrays
    are float64 when max|a_i|^2 * max|b_j|^2 < 2^106: every coordinate is
    then an integer below 2^53, which float64 holds exactly, and by
    Cauchy-Schwarz so is every product term and every partial sum, in any
    order of summation, with or without fused multiply-adds.  Otherwise
    they hold Python integers (object arrays), which cannot overflow.  One
    sequence passed as both a and b is converted once.
    """
    same = b is a
    a_obj = np.asarray(a, dtype=object)
    b_obj = a_obj if same else np.asarray(b, dtype=object)
    a_max = _max_norm_sq(a_obj)
    if a_max * (a_max if same else _max_norm_sq(b_obj)) < 2**106:
        a_float = a_obj.astype(float)
        return a_float, a_float if same else b_obj.astype(float)
    return a_obj, b_obj


def products(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = x @ y.T, written tile by tile, for two arrays from int_arrays
    (exact under its guard) or two float unit arrays.

    Each np.matmul call fills a tile of r x c entries over K terms with
    r c K <= GEMM_MACS, so OpenBLAS runs every call on the calling thread.
    Tiles are about square, or as wide as the table when it is narrow, or
    as tall as x when x has few rows.  out may be a strided view, such as
    the leading columns of a larger table."""
    m, n, k = len(x), len(y), x.shape[1]
    area = max(1, GEMM_MACS // max(k, 1))
    rows = min(m, max(isqrt(area), area // n))
    cols = area // rows
    y_t = y.T
    for i in range(0, m, rows):
        for j in range(0, n, cols):
            np.matmul(x[i:i + rows], y_t[:, j:j + cols], out=out[i:i + rows, j:j + cols])
    return out


def dot_blocks(x: np.ndarray, y: np.ndarray):
    """The table x @ y.T as (start, block) pairs, block = x[start:start + k]
    @ y.T with k = config.block_rows(len(y)) rows (the last block fewer).

    x and y are converted once by the caller: both from int_arrays
    (exact), or both float unit rows.  Each block is the product buffer
    itself, of x's dtype: an exact block is float64 when int_arrays picked
    float64, every entry then an integer below 2^53 in magnitude, and
    Python integers otherwise.  The one buffer is reused, so a block is
    valid until the next one is drawn and no len(x) x len(y) table is
    held."""
    step = block_rows(len(y))
    buf = np.empty((min(step, len(x)), len(y)), dtype=x.dtype)
    for s in range(0, len(x), step):
        rows = x[s:s + step]
        yield s, products(rows, y, buf[:len(rows)])


def raw_dots(a: Sequence[Vector], b: Sequence[Vector]) -> np.ndarray:
    """Integer dot products a_i . b_j, the whole table, for small tables
    (a probe's row, the walk's Gram and adjugate rows, a basis): int64 when
    int_arrays picks float64, whose entries are then integers below 2^53,
    and Python integers otherwise.  It casts the float64 or object blocks
    of dot_blocks, which the dual x code tables read block by block
    instead, into that table."""
    x, y = int_arrays(a, b)
    out = np.empty((len(x), len(y)), dtype=np.int64 if x.dtype == float else object)
    for s, block in dot_blocks(x, y):
        out[s:s + len(block)] = block
    return out


def common_norm(vectors: Sequence[Vector]) -> Optional[list[Vector]]:
    """Rescale nonzero integer vectors by positive integers to their least
    common squared norm, or None when no common norm exists.

    Vector j has squared norm n_j = f_j^2 s_j with s_j square-free, so a
    common norm exists iff every s_j = s_1, that is iff every n_j n_1 is a
    perfect square.  Then f_j / f_1 = sqrt(n_j n_1) / n_1 = p_j / q_j in
    lowest terms, F = lcm(f_j) = f_1 lcm(p_j), and vector j scaled by
    F / f_j = lcm(p_j) q_j / p_j has squared norm F^2 s_1.  Nothing is
    factored, so a norm with a large square-free part costs one isqrt.
    """
    if not vectors:
        return []
    norms = [sum(x * x for x in v) for v in vectors]
    ratios = []
    for n in norms:
        root = isqrt(n * norms[0])
        if root * root != n * norms[0]:
            return None
        ratios.append(Fraction(root, norms[0]))
    big_p = lcm(*(r.numerator for r in ratios))
    return [tuple(x * (big_p // r.numerator * r.denominator) for x in v)
            for v, r in zip(vectors, ratios)]


def unit_surd(raw: int, norm_a: int, norm_b: int) -> Surd:
    """The exact unit dot raw / sqrt(norm_a * norm_b) of two integer vectors
    with squared norms norm_a and norm_b.

    Their gcd g leaves the root first, sqrt(norm_a norm_b) =
    g sqrt((norm_a / g)(norm_b / g)), so Surd factors only the cofactor: a
    code and its dual, whose norms share a large factor, cost one gcd.
    """
    g = gcd(norm_a, norm_b)
    rest = (norm_a // g) * (norm_b // g)
    return Surd(Fraction(raw, g * rest), rest)


def random_unit_blocks(seed: int, rows: int, dim: int,
                       size: int) -> Iterator[np.ndarray]:
    """rows x dim uniform unit vectors in consecutive blocks of at most size
    rows: dim draws of gauss(0, 1) per row from one random.Random(seed), row
    by row, each row then normalized, so row i is the same for any rows > i
    and any block size.  A negative seed is refused, since Random would
    take s and -s as one seed."""
    seed = index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    gauss = Random(seed).gauss
    for lo in range(0, rows, size):
        n = min(size, rows - lo)
        rand = np.array([gauss(0.0, 1.0) for _ in range(n * dim)]).reshape(n, dim)
        yield rand / np.linalg.norm(rand, axis=1)[:, None]


def random_units(seed: int, rows: int, dim: int) -> np.ndarray:
    """The rows of random_unit_blocks(seed, rows, dim, ...) as one array."""
    return next(random_unit_blocks(seed, rows, dim, max(rows, 1)),
                np.empty((0, dim)))


def close_pairs(a: np.ndarray, b: np.ndarray,
                radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every index pair (i, j) of rows with |a_i - b_j| <= radius (>= 0), and
    the distances np.linalg.norm(a_i - b_j), by the sweep described above.
    The candidate count goes through check_size."""
    dim = a.shape[1]
    r = random_units(0, 1, dim)[0]
    pa, pb = a @ r, b @ r
    order = np.argsort(pb)
    pb = pb[order]
    # covers the rounding of both projections, the window ends and the distances
    scale = max(np.linalg.norm(a, axis=1).max(initial=0.0),
                np.linalg.norm(b, axis=1).max(initial=0.0)) + radius
    width = radius + 8 * (dim + 2) * np.finfo(float).eps * scale
    lo = np.searchsorted(pb, pa - width, side="left")
    counts = np.searchsorted(pb, pa + width, side="right") - lo
    total = int(counts.sum())
    check_size(total, "close_pairs candidates")
    i = np.repeat(np.arange(len(a)), counts)
    # the k-th candidate of a_i sits at sorted position lo_i + k
    j = order[np.arange(total) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
    dist = np.linalg.norm(a[i] - b[j], axis=1)
    near = dist <= radius
    return i[near], j[near], dist[near]


def covered_by(a: np.ndarray, b: np.ndarray, radius: float) -> bool:
    """Every row of a lies within radius of some row of b.  The hits are
    marked in a boolean array over the rows of a, not counted by np.unique,
    whose sort-based path imports numpy.ma (about 20 ms in a fresh
    process)."""
    hit = np.zeros(len(a), dtype=bool)
    hit[close_pairs(a, b, radius)[0]] = True
    return bool(hit.all())


def greedy_cluster(points: np.ndarray, tol: float) -> np.ndarray:
    """Representatives, in input order: a point is kept when it is farther
    than tol from every representative kept before it.

    The points are taken in chunks of c in input order, c the largest
    whose c x c candidate pairs fit in one block of coordinate differences
    (config.block_rows) and under the size cap.  One close_pairs sweep
    against the representatives kept so far drops the points of a chunk
    within tol of one of them; a close_pairs sweep of the rest against
    itself gives each survivor its earlier neighbours (j < i), and one pass
    in input order keeps a survivor when none of those was kept.  The
    pairs of one chunk are at most c^2 plus c times the representatives
    whose projections fall in a point's window, so a minimum shared by
    thousands of points costs no more than one with a few."""
    dim = points.shape[1]
    chunk = max(1, min(isqrt(block_rows(max(dim, 1))), isqrt(size_cap())))
    reps = np.empty_like(points)
    n_reps = 0
    for lo in range(0, len(points), chunk):
        part = points[lo:lo + chunk]
        fresh = np.ones(len(part), dtype=bool)
        fresh[close_pairs(part, reps[:n_reps], tol)[0]] = False
        part = part[fresh]
        i, j, _ = close_pairs(part, part, tol)
        kept = [True] * len(part)
        earlier = j < i
        for a, b in zip(i[earlier].tolist(), j[earlier].tolist()):
            if kept[b]:
                kept[a] = False
        part = part[kept]
        reps[n_reps:n_reps + len(part)] = part
        n_reps += len(part)
    return reps[:n_reps].copy()


def sorted_rows(pts: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order of their coordinates rounded to 12
    places, -0.0 taken as 0.0, so rounding noise cannot reorder them."""
    key = np.round(pts, 12) + 0.0
    return pts[np.lexsort(key.T[::-1])]


@dataclass(frozen=True)
class LatticePoint:
    """A single sphere point v/sqrt(norm_sq) with integer coordinates v."""

    vector: Vector
    norm_sq: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", tuple(index(x) for x in self.vector))
        object.__setattr__(self, "norm_sq", index(self.norm_sq))
        s = sum(x * x for x in self.vector)
        if s != self.norm_sq or self.norm_sq <= 0:
            raise ValueError(
                f"vector {self.vector} has squared norm {s}, not {self.norm_sq}"
            )

    @property
    def ambient_dim(self) -> int:
        return len(self.vector)

    def unit(self) -> np.ndarray:
        return np.asarray(self.vector, dtype=float) / float(self.norm_sq) ** 0.5


def _partner_map(points: Sequence[Sequence]) -> np.ndarray:
    """Per point tuple, the index of the tuple that equals its negation,
    -1 when there is none; read-only."""
    index = {tuple(p): i for i, p in enumerate(points)}
    out = np.array([index.get(tuple(-x for x in p), -1) for p in points],
                   dtype=np.intp)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LatticeCode:
    """Finite configuration of distinct points, all with the same norm_sq."""

    name: str
    ambient_dim: int
    norm_sq: int
    points: tuple[Vector, ...]

    def __post_init__(self) -> None:
        # index() takes Python and numpy integers and refuses floats and
        # strings, so a non-integral coordinate is an error, not truncated
        pts = tuple(tuple(index(x) for x in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "ambient_dim", index(self.ambient_dim))
        object.__setattr__(self, "norm_sq", index(self.norm_sq))
        check_size(len(pts), f"code {self.name!r}")
        if not pts:
            raise ValueError("a code needs at least one point")
        if len(set(pts)) != len(pts):
            raise ValueError(f"code {self.name!r} has repeated points")
        for p in pts:
            if len(p) != self.ambient_dim:
                raise ValueError(
                    f"point {p} has dimension {len(p)}, expected {self.ambient_dim}"
                )
            s = sum(x * x for x in p)
            if s != self.norm_sq:
                raise ValueError(
                    f"point {p} has squared norm {s}, expected {self.norm_sq}"
                )

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def sphere_dim(self) -> int:
        """d for the sphere S^d the unit points live on."""
        return self.ambient_dim - 1

    def unit_array(self) -> np.ndarray:
        # floats straight from the Python ints, so coordinates past int64 work
        return np.asarray(self.points, dtype=float) / float(self.norm_sq) ** 0.5

    def direction_set(self) -> frozenset[Vector]:
        return frozenset(gcd_reduce(p) for p in self.points)

    def same_point_set(self, other: "LatticeCode") -> bool:
        """Set equality as sphere points, ignoring the integer scaling."""
        return self.direction_set() == other.direction_set()

    def antipode_partners(self) -> np.ndarray:
        """Per point, the index of its antipode among the points, -1 when
        the antipode is not a code point; exact, built once per code from
        one dict of the point tuples and read-only."""
        return self._partners

    @cached_property
    def _partners(self) -> np.ndarray:
        return _partner_map(self.points)

    def antipode_mask(self) -> np.ndarray:
        """Per point, whether its antipode is a code point, exactly."""
        return self.antipode_partners() >= 0

    def is_antipodal(self) -> bool:
        return bool(self.antipode_mask().all())

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "ambient_dim": self.ambient_dim,
            "norm_sq": self.norm_sq,
            "points": [list(p) for p in self.points],
        }


@dataclass
class FloatCode:
    """Configuration given by floating unit vectors with a comparison tolerance."""

    name: str
    ambient_dim: int
    points: np.ndarray
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.ambient_dim:
            raise ValueError(
                f"points array has shape {pts.shape}, expected (N, {self.ambient_dim})"
            )
        check_size(len(pts), f"code {self.name!r}")
        norms = np.linalg.norm(pts, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("float code points must be unit vectors (within 1e-9)")
        self.points = pts / norms[:, None]
        if not 0 <= self.tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")
        i, j, _ = close_pairs(self.points, self.points, 10 * self.tolerance)
        if np.any(i != j):
            raise ValueError(f"code {self.name!r} has points closer than the tolerance")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def sphere_dim(self) -> int:
        return self.ambient_dim - 1

    def unit_array(self) -> np.ndarray:
        return self.points

    def antipode_partners(self) -> np.ndarray:
        """Per point, the index of the point that is its negation exactly
        (float equality, so a near-antipode has none), -1 when there is
        none; the descent folds only these pairs."""
        return _partner_map(self.points.tolist())

    def antipode_mask(self) -> np.ndarray:
        """Per point, whether its antipode is within 10x the tolerance of a
        code point."""
        near = close_pairs(-self.points, self.points, 10 * self.tolerance)[0]
        return np.bincount(near, minlength=len(self.points)) > 0

    def is_antipodal(self) -> bool:
        return bool(self.antipode_mask().all())

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "ambient_dim": self.ambient_dim,
            "points_decimal": [[float(x) for x in p] for p in self.points],
            "tolerance": self.tolerance,
        }


Code = Union[LatticeCode, FloatCode]


# --- constructors ---


def cross_polytope(d: int) -> LatticeCode:
    """The 2d signed standard basis vectors in R^d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    pts = []
    for i in range(d):
        for s in (1, -1):
            v = [0] * d
            v[i] = s
            pts.append(tuple(v))
    return LatticeCode(f"cross_polytope({d})", d, 1, tuple(sorted(pts)))


def cube(d: int) -> LatticeCode:
    """All 2^d sign vectors in R^d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    check_size(2**d, f"cube({d})")
    pts = tuple(sorted(product((-1, 1), repeat=d)))
    return LatticeCode(f"cube({d})", d, d, pts)


def demicube(d: int) -> LatticeCode:
    """The 2^(d-1) sign vectors with an even number of minus signs."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    check_size(2 ** (d - 1), f"demicube({d})")
    pts = tuple(sorted(p for p in product((-1, 1), repeat=d)
                       if sum(1 for x in p if x < 0) % 2 == 0))
    return LatticeCode(f"demicube({d})", d, d, pts)


def e8_roots() -> LatticeCode:
    """The 240 shortest nonzero vectors of the (doubled) E8 lattice.

    112 vectors with two entries +-2, plus the 128 even-parity sign vectors
    scaled to the same squared norm 8.
    """
    pts: list[Vector] = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            pts.append(tuple(v))
    pts.extend(p for p in product((-1, 1), repeat=8)
               if sum(1 for x in p if x < 0) % 2 == 0)
    return LatticeCode("e8_roots", 8, 8, tuple(sorted(pts)))


def polytope_2_41() -> LatticeCode:
    """The 2160 vertices of the 2_41 polytope on S^7, scaled to norm_sq 16.

    Type I: four entries +-2.  Type II: one entry +-4.  Type III: seven
    entries +-1 and one entry +-3, with an odd number of negative entries.
    """
    pts: list[Vector] = []
    for pos in combinations(range(8), 4):
        for signs in product((2, -2), repeat=4):
            v = [0] * 8
            for p, s in zip(pos, signs):
                v[p] = s
            pts.append(tuple(v))
    for i in range(8):
        for s in (4, -4):
            v = [0] * 8
            v[i] = s
            pts.append(tuple(v))
    for big in range(8):
        for signs in product((1, -1), repeat=8):
            if sum(1 for x in signs if x < 0) % 2 == 1:
                v = list(signs)
                v[big] *= 3
                pts.append(tuple(v))
    return LatticeCode("polytope_2_41", 8, 16, tuple(sorted(pts)))


def ngon(n: int) -> FloatCode:
    """Regular n-gon on the unit circle, first vertex at (1, 0)."""
    if n < 2:
        raise ValueError("a polygon needs at least 2 vertices")
    check_size(n, f"ngon({n})")
    pts = [(cos(2 * pi * k / n), sin(2 * pi * k / n)) for k in range(n)]
    return FloatCode(f"ngon({n})", 2, np.asarray(pts), tolerance=1e-12)


# --- serialization ---


def save_code(code: Code, path: str | Path) -> None:
    """Write the code's JSON, indented by 2 and ended by a newline, chunk by
    chunk as json.dump encodes it, so the whole text is never one string."""
    with open(path, "w") as f:
        json.dump(code.to_json_dict(), f, indent=2)
        f.write("\n")


def load_code(path: str | Path) -> Code:
    """Read a code from JSON; the key set decides exact vs float."""
    data = json.loads(Path(path).read_text())
    name = data.get("name", Path(path).stem)
    if "points" in data:
        return LatticeCode(name, data["ambient_dim"], data["norm_sq"], data["points"])
    if "points_decimal" in data:
        return FloatCode(
            name,
            index(data["ambient_dim"]),
            np.asarray(data["points_decimal"], dtype=float),
            tolerance=float(data.get("tolerance", 1e-12)),
        )
    raise ValueError(f"{path}: neither 'points' nor 'points_decimal' present")
