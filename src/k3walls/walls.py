"""Enumeration of the rank-two wall lattices meeting the movable cone.

Candidate lattices come from the families (a,a) in {-2, 0} with
0 <= (a,v) <= v^2/2, deduplicated by their orthogonal line and then
saturated, one wall per line.
The family (a,a) = 0 = (a,v) is read off the rational null rays of v-perp,
one degenerate wall per ray; the others are solved in v-perp with one
coordinate bounded by a window.  One search at twice the window serves
both the window and its stability check: the window's lines are those
whose smallest bounded coordinate (their reach) lies within it.
The movable sector is bootstrapped: an ample-side anchor ray is computed
from a large-volume charge, and rays are placed by one exact slope around
it.  The nearest divisorial wall on each side of the anchor bounds the
sector, and a positive-cone null ray closes any side without a divisorial
wall.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from .intmath import (
    coords_in_basis,
    cross3,
    det2,
    kernel_basis_int,
    lex_sign,
    primitive_vector,
    sqrt_exact,
    vec_content,
    xgcd,
)
from .lattice import K3Config, MukaiVector, pairing, square
from .nsgeom import NSBasis, lambda_basis, orthogonal_line_generator
from .solvers import GramForm2, _free_index, classes_in_rank2, solve_square_with_pairing
from .stability import _charge_parts, numerical_wall

DEFAULT_WINDOW_FACTOR = 16


@dataclass(frozen=True)
class WallLattice:
    """Saturated rank-two sublattice containing v, with normalized generator.

    For the degenerate boundary lattice (discriminant zero) the normalized
    representative is the primitive isotropic class spanning the radical,
    which together with v need not generate the whole lattice.
    """

    v: MukaiVector
    a: MukaiVector
    u: MukaiVector  # basis completion: (v, u) is a basis of the lattice
    gram: GramForm2  # Gram matrix in the basis (v, a)
    line: MukaiVector  # primitive generator of the orthogonal line
    degenerate: bool
    square_normalized: bool  # a^2 landed in {-2, 0}
    ray: tuple[int, int] | None = None  # NS coords of the line, set by enumerate_result

    def member(self, p: int, q: int) -> MukaiVector:
        return p * self.v + q * self.a


def saturated_basis(v: MukaiVector, a: MukaiVector):
    """Basis of the saturation of Zv + Za inside the ambient rank-three lattice."""
    normal = cross3(v.as_tuple(), a.as_tuple())
    if not any(normal):
        raise ValueError("v and a are proportional")
    b1, b2 = kernel_basis_int(primitive_vector(normal))
    return MukaiVector(*b1), MukaiVector(*b2)


def complete_basis(v: MukaiVector, b1: MukaiVector, b2: MukaiVector) -> MukaiVector:
    """u with (v, u) a basis of the lattice spanned by (b1, b2)."""
    co = coords_in_basis(b1.as_tuple(), b2.as_tuple(), v.as_tuple())
    if co is None or co[0].denominator != 1 or co[1].denominator != 1:
        raise ValueError("v does not lie in the lattice")
    m1, m2 = int(co[0]), int(co[1])
    x, y, g = xgcd(m1, m2)
    if g != 1:
        raise ValueError("v is not primitive in the lattice")
    # det((m1, m2), (-y, x)) = m1*x + m2*y = 1
    return -y * b1 + x * b2


def _normalize_in_basis(cfg: K3Config, v: MukaiVector, u: MukaiVector):
    """Representative +-u + kv with pairing in [0, v^2/2] and minimal square."""
    vsq = square(cfg, v)
    m = pairing(cfg, u, v)
    m0 = m % vsq
    base = u + ((m0 - m) // vsq) * v  # pairing m0 in [0, vsq)
    cands = []
    if 2 * m0 < vsq:
        cands.append(base)
        if m0 == 0:
            cands.append(-base)
    elif 2 * m0 > vsq:
        cands.append(v - base)
    else:
        cands.extend([base, v - base])

    def pref(x: MukaiVector):
        sq = square(cfg, x)
        order = {-2: 0, 0: 1}.get(sq, 2)
        return (order, abs(sq), sq, x.as_tuple())

    a = min(cands, key=pref)
    if pairing(cfg, a, v) == 0:
        a = MukaiVector(*lex_sign(a.as_tuple()))
    return a, square(cfg, a) in (-2, 0)


def build_wall(cfg: K3Config, v: MukaiVector, a_seed: MukaiVector) -> WallLattice:
    """Saturate, normalize and package the lattice spanned by v and a_seed."""
    vsq = square(cfg, v)
    if vsq <= 0:
        raise ValueError(f"v^2 = {vsq} is not positive")
    u = complete_basis(v, *saturated_basis(v, a_seed))
    vu = pairing(cfg, v, u)
    disc = vsq * square(cfg, u) - vu * vu
    if disc > 0:
        raise ValueError("lattice is positive definite, not a wall")
    if disc == 0:
        # the radical: the integer kernel of the Gram matrix of (v, u)
        g = gcd(vsq, vu)
        a = MukaiVector(*lex_sign(((vsq // g) * u - (vu // g) * v).as_tuple()))
        norm_ok = True
        degenerate = True
    else:
        a, norm_ok = _normalize_in_basis(cfg, v, u)
        degenerate = False
    gram = GramForm2(vsq, pairing(cfg, v, a), square(cfg, a))
    line = orthogonal_line_generator(cfg, v, a)
    return WallLattice(v, a, u, gram, line, degenerate, norm_ok)


def divisorial_classes(wall: WallLattice):
    """The (x^2, (x, v)) = (-2, 0), (0, 1), (0, 2) classes of a wall lattice.

    These are its Brill-Noether, Hilbert-Chow and Li-Gieseker-Uhlenbeck
    classes, as (p, q) coordinates in the basis (v, a); the wall is
    divisorial exactly when one of the three lists is non-empty.  A
    degenerate lattice has none.
    """
    if wall.degenerate:
        return [], [], []
    return tuple(classes_in_rank2(wall.gram, d, k) for d, k in ((-2, 0), (0, 1), (0, 2)))


class SectorError(ValueError):
    pass


@dataclass(frozen=True)
class MovableCone:
    """Closed sector of the positive cone between the two boundary rays.

    Rays are primitive integer coordinate pairs in the NS basis, sign-fixed
    into the positive-cone component of the anchor.  start is the
    divisorial (Hilbert-Chow side) boundary whenever one exists.
    """

    basis: NSBasis
    gram: tuple[int, int, int]
    anchor: tuple[int, int]
    start: tuple[int, int]
    end: tuple[int, int]
    start_kind: str
    end_kind: str

    def q(self, x, y) -> int:
        g11, g12, g22 = self.gram
        return g11 * x[0] * y[0] + g12 * (x[0] * y[1] + x[1] * y[0]) + g22 * x[1] * y[1]

    def orient(self, ray: tuple[int, int]) -> tuple[int, int]:
        """Sign-fix a positive-or-null ray into the anchor's component."""
        val = self.q(ray, self.anchor)
        if val == 0:
            raise SectorError(f"ray {ray} is orthogonal to the anchor")
        return ray if val > 0 else (-ray[0], -ray[1])

    def slope(self, ray: tuple[int, int]) -> Fraction:
        """Exact coordinate of a positive-or-null ray around the anchor.

        Along anchor + s*B with B orthogonal to the anchor it is linear in
        s, so it grows strictly across the half-plane q(anchor, .) > 0,
        which holds every wall line; its sign is the side of the anchor.
        """
        u = self.orient(ray)
        return Fraction(det2(self.anchor, u), self.q(self.anchor, u))

    def position(self, ray: tuple[int, int]) -> Fraction | None:
        """Exact sort key growing from start to end; None outside the sector."""
        sign = -1 if self.slope(self.start) > self.slope(self.end) else 1
        lo, hi, pos = (sign * self.slope(r) for r in (self.start, self.end, ray))
        return pos if lo <= pos <= hi else None

    def contains_line(self, ray: tuple[int, int]) -> bool:
        return self.position(ray) is not None


def _gieseker_anchor(
    cfg: K3Config, v: MukaiVector, basis: NSBasis, seeds: list[MukaiVector]
) -> tuple[int, int]:
    """Primitive NS ray of a large-volume charge, beyond every candidate wall."""
    v_eff = MukaiVector(*lex_sign(v.as_tuple()))
    b0 = Fraction(v_eff.c, v_eff.r) - 1 if v_eff.r != 0 else Fraction(0)
    walls = [numerical_wall(cfg, v_eff, a) for a in seeds]
    verticals = {w.line_b for w in walls if w.shape == "vertical"}
    for _ in range(32):
        if b0 not in verticals:
            break
        b0 -= 1
    else:
        raise SectorError("no vertical line avoids every candidate wall")
    tops = [w.t2_at(b0) for w in walls]
    t2 = max([Fraction(4)] + [t for t in tops if t is not None]) + 1
    rv, mv = _charge_parts(cfg, v_eff, b0, t2)
    e = cfg.h2
    # w = Im(-conj(charge form)/Z(v)) direction: mv*A - rv*B with
    # A = Re exp((b+it)H), B = Im exp((b+it)H)/t
    A = (Fraction(1), b0, Fraction(e, 2) * (b0 * b0 - t2))
    B = (Fraction(0), Fraction(1), e * b0)
    w = tuple(mv * A[i] - rv * B[i] for i in range(3))
    co = coords_in_basis(basis.e1.as_tuple(), basis.e2.as_tuple(), w)
    assert co is not None  # w lies in v-perp
    den = lcm(co[0].denominator, co[1].denominator)
    return primitive_vector((int(co[0] * den), int(co[1] * den)))


def _null_rays(gram: tuple[int, int, int]) -> list[tuple[int, int]]:
    """Primitive rational null rays of the NS form (signature (1,1)), if any."""
    g11, g12, g22 = gram
    if g11 == 0:
        raw = [(1, 0), (-g22, 2 * g12)]
    else:
        root = sqrt_exact(g12 * g12 - g11 * g22)
        if root is None:
            return []
        raw = [(-g12 + root, g11), (-g12 - root, g11)]
    return [lex_sign(primitive_vector(ray)) for ray in raw]


def _ray_coords(basis: NSBasis, line: MukaiVector) -> tuple[int, int]:
    return lex_sign(basis.int_coords(line))


def movable_cone(
    cfg: K3Config, v: MukaiVector, candidates: list[WallLattice], basis: NSBasis
) -> MovableCone:
    anchor = _gieseker_anchor(cfg, v, basis, [w.a for w in candidates])
    # the boundaries are filled in once they are known
    cone = MovableCone(basis, basis.gram(cfg), anchor, anchor, anchor, "", "")
    assert cone.q(anchor, anchor) > 0

    # (slope, ray, kind, is_hc); the null rays carry the extreme slopes, so
    # one bounds a side only when that side has no divisorial ray
    rays = []
    for w in candidates:
        bn, hc, lgu = divisorial_classes(w)
        if bn or hc or lgu:
            rays.append((cone.slope(w.ray), cone.orient(w.ray), "divisorial", bool(hc)))
    if any(r[0] == 0 for r in rays):
        raise SectorError("divisorial ray equals the anchor ray")
    rays += [(cone.slope(n), cone.orient(n), "null", False) for n in _null_rays(cone.gram)]
    plus = min((r for r in rays if r[0] > 0), key=lambda r: r[0], default=None)
    minus = max((r for r in rays if r[0] < 0), key=lambda r: r[0], default=None)
    if plus is None or minus is None:
        raise SectorError(
            "no divisorial wall and no rational null ray on one side; "
            "the movable sector cannot be bounded exactly"
        )
    # start at a divisorial boundary, preferring the Hilbert-Chow type
    start, end = sorted([plus, minus], key=lambda r: (r[2] != "divisorial", not r[3], r[1]))
    return replace(cone, start=start[1], end=end[1], start_kind=start[2], end_kind=end[2])


@dataclass(frozen=True)
class EnumerationResult:
    walls: tuple[WallLattice, ...]
    cone: MovableCone
    window: int
    stable: bool


def default_window(cfg: K3Config, v: MukaiVector) -> int:
    return max(32, DEFAULT_WINDOW_FACTOR * square(cfg, v))


def _candidate_walls(cfg: K3Config, v: MukaiVector, window: int, basis: NSBasis):
    """One wall per orthogonal line, built once, with the line's reach.

    The reach is the smallest |free coordinate| of the line's seeds (0 for
    a null ray), so a search at any window w <= window finds exactly the
    lines of reach <= w.
    """
    vsq = square(cfg, v)
    i = _free_index(v)
    hits = [
        (abs(a.as_tuple()[i]), a)
        for d in (-2, 0)
        for m in range(1 if d == 0 else 0, vsq // 2 + 1)
        for a in solve_square_with_pairing(cfg, v, d, m, window, basis)
    ]
    # the classes with a^2 = 0 = (a, v) are the multiples of the null rays
    # of v-perp, one degenerate wall per ray, found without a window
    hits += [(0, basis.from_coords(x, y)) for x, y in _null_rays(basis.gram(cfg))]
    # the wall is the saturation of the plane, so any seed of a line builds it
    seeds: dict[tuple[int, int, int], tuple[int, MukaiVector]] = {}
    for t, a in hits:
        key = orthogonal_line_generator(cfg, v, a).as_tuple()
        if key not in seeds or t < seeds[key][0]:
            seeds[key] = (t, a)
    walls = {}
    for key, (reach, a) in seeds.items():
        wall = build_wall(cfg, v, a)
        walls[key] = (reach, replace(wall, ray=_ray_coords(basis, wall.line)))
    return walls


def enumerate_result(cfg: K3Config, v: MukaiVector, window: int | None = None) -> EnumerationResult:
    """The wall lattices whose line meets the movable sector, in slope order from
    the divisorial boundary, with the cone, the window and its stability flag."""
    if vec_content(v.as_tuple()) != 1:
        raise ValueError(f"v = {v} must be primitive")
    if square(cfg, v) <= 0:
        raise ValueError("v must have positive square")
    if window is None:
        window = default_window(cfg, v)
    if window < 1:
        # the stability pass at twice the window would repeat this one
        raise ValueError(f"window must be a positive integer, got {window}")
    basis = lambda_basis(cfg, v)
    # one search at twice the window; each window's pool is the lines it reaches
    cands = _candidate_walls(cfg, v, 2 * window, basis)
    passes = []
    for win in (window, 2 * window):
        pool = {key: w for key, (reach, w) in cands.items() if reach <= win}
        cone = movable_cone(cfg, v, list(pool.values()), basis)
        passes.append((cone, {key: w for key, w in pool.items() if cone.contains_line(w.ray)}))
    (cone, kept), (_, kept2) = passes
    stable = kept.keys() == kept2.keys()

    # the walls meeting the sector, oriented, from start to end
    placed = sorted((cone.position(w.ray), key) for key, w in kept.items())
    walls = tuple(replace(kept[key], ray=cone.orient(kept[key].ray)) for _, key in placed)
    return EnumerationResult(walls, cone, window, stable)
