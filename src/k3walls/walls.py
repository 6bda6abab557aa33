"""Enumeration of the rank-two wall lattices meeting the movable cone.

Candidate lattices come from the families (a,a) in {-2, 0} with
0 <= (a,v) <= v^2/2, deduplicated by their NS ray (the ray of v-perp
orthogonal to a, read off the two pairings of a with the NS basis) and
then saturated, one wall per ray.
The family (a,a) = 0 = (a,v) is read off the rational null rays of v-perp,
one degenerate wall per ray; the others are solved in v-perp with one
coordinate bounded by a window.  One search at twice the window serves
both the window and its stability check: the window's rays are those
whose smallest bounded coordinate (their reach) lies within it.  The
movable sector is walked over them outward from Bridgeland's large-volume
limit, and only the walls the walk reaches are built: the nearest
divisorial wall on each side bounds the sector, and a positive-cone null
ray closes a side without one.  The window is stable when no ray of reach
in (window, 2*window] meets the sector: such a ray lies beyond a boundary,
where it neither moves a side's nearest divisorial ray nor passes a
side's null ray, so the doubled window keeps the same walls; and a ray
meeting the sector is kept, or, divisorial and nearer the limit, bounds
the doubled window's sector and is kept there.
NS coordinates are read off integer pairings with the NS basis.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cmp_to_key
from math import gcd

from .intmath import (
    cross3,
    det2,
    lex_sign,
    primitive_vector,
    sqrt_exact,
    unit_section,
    vec_content,
)
from .lattice import GramForm2, K3Config, MukaiVector, pairing, pairing_row, square
from .nsgeom import NSBasis, lambda_basis, orthogonal_line_generator
from .solvers import _free_index, classes_in_rank2, solve_square_with_pairing

DEFAULT_WINDOW_FACTOR = 16


@dataclass(frozen=True)
class WallLattice:
    """Saturated rank-two sublattice containing v, with normalized generator.

    For the degenerate boundary lattice (discriminant zero) the normalized
    representative is the primitive isotropic class spanning the radical,
    which together with v need not generate the whole lattice.

    divisorial holds the (x^2, (x, v)) = (-2, 0), (0, 1), (0, 2) classes,
    its Brill-Noether, Hilbert-Chow and Li-Gieseker-Uhlenbeck classes, as
    (p, q) coordinates in the basis (v, a); the wall is divisorial exactly
    when one of the three is non-empty.  A degenerate lattice has none.
    """

    v: MukaiVector
    a: MukaiVector
    gram: GramForm2  # Gram matrix in the basis (v, a)
    line: MukaiVector  # primitive generator of the orthogonal line
    degenerate: bool
    divisorial: tuple[tuple[tuple[int, int], ...], ...]  # (bn, hc, lgu)
    ray: tuple[int, int] | None = None  # NS coords of the line, set by movable_cone

    def member(self, p: int, q: int) -> MukaiVector:
        v, a = self.v, self.a
        return MukaiVector(p * v.r + q * a.r, p * v.c + q * a.c, p * v.s + q * a.s)


def _normalize_in_basis(cfg: K3Config, v: MukaiVector, u: MukaiVector):
    """Representative +-u + kv with pairing in [0, v^2/2], the smaller tuple on a tie.

    With base = u + kv of pairing m0 in [0, v^2), two representatives
    compete only when m0 = 0 (+-base, sign-fixed by lex_sign) or 2*m0 = v^2
    (base and v - base); they share one square, as (v - base)^2 = v^2 -
    2*m0 + base^2 = base^2, so no order by square could choose.
    """
    vsq = square(cfg, v)
    m = pairing(cfg, u, v)
    m0 = m % vsq
    base = u + ((m0 - m) // vsq) * v  # pairing m0 in [0, vsq)
    if 2 * m0 > vsq:
        return v - base
    if 2 * m0 == vsq:
        return min(base, v - base, key=MukaiVector.as_tuple)
    return MukaiVector(*lex_sign(base.as_tuple())) if m0 == 0 else base


def build_wall(cfg: K3Config, v: MukaiVector, a_seed: MukaiVector) -> WallLattice:
    """Saturate, normalize and package the lattice spanned by v and a_seed.

    With n the primitive normal of the plane and v . w = 1, the class
    u = n x w has v x u = (v . w) n - (v . n) w = n, so (v, u) is a basis of
    the saturation.
    """
    vsq = square(cfg, v)
    if vsq <= 0:
        raise ValueError(f"v^2 = {vsq} is not positive")
    normal = cross3(v.as_tuple(), a_seed.as_tuple())
    if not any(normal):
        raise ValueError("v and a are proportional")
    w = unit_section(v.as_tuple())
    if w is None:
        raise ValueError("v is not primitive in the lattice")
    u = MukaiVector(*cross3(primitive_vector(normal), w))
    vu = pairing(cfg, v, u)
    disc = vsq * square(cfg, u) - vu * vu
    if disc > 0:
        raise ValueError("lattice is positive definite, not a wall")
    degenerate = disc == 0
    if degenerate:
        # the radical: the integer kernel of the Gram matrix of (v, u)
        g = gcd(vsq, vu)
        a = MukaiVector(*lex_sign(((vsq // g) * u - (vu // g) * v).as_tuple()))
    else:
        a = _normalize_in_basis(cfg, v, u)
    gram = GramForm2(vsq, pairing(cfg, v, a), square(cfg, a))
    line = orthogonal_line_generator(cfg, v, a)
    divisorial = ((), (), ()) if degenerate else tuple(
        tuple(classes_in_rank2(gram, d, k)) for d, k in ((-2, 0), (0, 1), (0, 2))
    )
    return WallLattice(v, a, gram, line, degenerate, divisorial)


class SectorError(ValueError):
    pass


@dataclass(frozen=True)
class MovableCone:
    """Closed sector of the positive cone between two primitive NS rays.

    start is the divisorial (Hilbert-Chow side) boundary whenever one exists.
    """

    basis: NSBasis
    start: tuple[int, int]
    end: tuple[int, int]

    def meets(self, ray: tuple[int, int]) -> bool:
        """Whether the line of ray, of either sign, lies between the boundary lines."""
        return det2(self.start, ray) * det2(ray, self.end) >= 0


def _large_volume_limit(cfg: K3Config, v: MukaiVector, basis: NSBasis):
    """NS rays (l, w) with the large-volume direction -l + eps*w, eps -> 0+.

    With v = (r, c, s) sign-fixed and e = H^2, the charge direction along
    b = b0 is w(b0, 0) - t^2 (e/2) L with L = (0, r, e c) in v-perp.  Only
    the part of w(b0, 0) transverse to L is ever read, and L has rank 0,
    so any class of v-perp with positive rank stands in for it.
    """
    r, c, s = lex_sign(v.as_tuple())
    side = MukaiVector(r, 0, -s) if r else MukaiVector(cfg.h2 * c, s, 0)
    return (basis.int_coords(cfg, MukaiVector(0, r, cfg.h2 * c)),
            basis.int_coords(cfg, side))


def _null_rays(form: GramForm2) -> list[tuple[int, int]]:
    """Primitive rational null rays of the NS form (signature (1,1)), if any."""
    if form.q11 == 0:
        raw = [(1, 0), (-form.q22, 2 * form.q12)]
    else:
        root = sqrt_exact(form.disc_prime)
        if root is None:
            return []
        raw = [(-form.q12 + root, form.q11), (-form.q12 - root, form.q11)]
    return [lex_sign(primitive_vector(ray)) for ray in raw]


def movable_cone(
    cfg: K3Config, v: MukaiVector, seeds: dict[tuple[int, int], MukaiVector], basis: NSBasis
) -> tuple[MovableCone, tuple[WallLattice, ...]]:
    """The movable sector and its walls, in order from start to end.

    seeds maps candidate NS rays to seeds.  Each ray is oriented into the
    large-volume limit's component, the one start + end lies in, and each
    side of the limit is walked outward in det2 order, building each wall
    reached up to the first divisorial or degenerate one, which bounds the
    side (a side with none raises SectorError).  The null rays lie
    outermost, so that is the side's nearest divisorial ray if it has one;
    the walk reaches exactly the lines between the boundaries, as a ray
    beyond one has its negative in the other component; the start side
    reversed, then the end side, is their order; and start is chosen by
    (non-degenerate, Hilbert-Chow, ray).
    """
    ell, omega = _large_volume_limit(cfg, v, basis)

    def limit_sign(f, u):
        # the sign of f(-l + eps*w, u) as eps -> 0+
        return -f(ell, u) or f(omega, u)

    sides = ([], [])  # counterclockwise of the limit, then clockwise
    for ray, a in seeds.items():
        if limit_sign(basis.gram.pair, ray) < 0:
            ray = (-ray[0], -ray[1])
        sides[limit_sign(det2, ray) < 0].append((ray, a))
    # counterclockwise order, total on the component
    ccw = cmp_to_key(lambda x, y: det2(y[0], x[0]))
    walks = []
    for side, clockwise in zip(sides, (False, True)):
        walk = []
        for ray, a in sorted(side, key=ccw, reverse=clockwise):
            walk.append(replace(build_wall(cfg, v, a), ray=ray))
            if walk[-1].degenerate or any(walk[-1].divisorial):
                break
        else:
            raise SectorError("no divisorial wall and no rational null ray on one side; "
                              "the movable sector cannot be bounded exactly")
        walks.append(walk)
    # start at a divisorial boundary, preferring the Hilbert-Chow type
    first, last = sorted(walks, key=lambda w: (w[-1].degenerate, not w[-1].divisorial[1], w[-1].ray))
    return MovableCone(basis, first[-1].ray, last[-1].ray), (*reversed(first), *last)


@dataclass(frozen=True)
class EnumerationResult:
    walls: tuple[WallLattice, ...]
    cone: MovableCone
    window: int
    stable: bool


def default_window(cfg: K3Config, v: MukaiVector) -> int:
    return max(32, DEFAULT_WINDOW_FACTOR * square(cfg, v))


def _candidate_walls(cfg: K3Config, v: MukaiVector, window: int, basis: NSBasis):
    """Each NS ray's reach and seed, keyed by the ray; nothing is built.

    A seed a keys the ray of v-perp orthogonal to it (the NS coordinates of
    the orthogonal line of <v, a>), read off the pairings of a with the
    basis.  The reach is the smallest |free coordinate| of the ray's seeds
    (0 for a null ray), so a search at any window w <= window finds exactly
    the rays of reach <= w; the seed is the first one of that reach.
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
    hits += [(0, basis.from_coords(x, y)) for x, y in _null_rays(basis.gram)]
    # the wall is the saturation of the plane, so any seed of a ray builds it
    (x1, y1, z1), (x2, y2, z2) = pairing_row(cfg, basis.e1), pairing_row(cfg, basis.e2)
    seeds: dict[tuple[int, int], tuple[int, MukaiVector]] = {}
    for t, a in hits:
        p = x2 * a.r + y2 * a.c + z2 * a.s
        q = -(x1 * a.r + y1 * a.c + z1 * a.s)
        # (p, q) = (0, 0) only for a in Q*v, of positive square unless a = 0,
        # so the gcd is never 0; the sign makes the first nonzero entry positive
        g = gcd(p, q)
        if p < 0 or p == 0 > q:
            g = -g
        key = (p // g, q // g)
        if key not in seeds or t < seeds[key][0]:
            seeds[key] = (t, a)
    return seeds


def enumerate_result(cfg: K3Config, v: MukaiVector, window: int | None = None) -> EnumerationResult:
    """The wall lattices whose line meets the movable sector, in order from
    the divisorial boundary, with the cone, the window and its stability flag.

    One search at twice the window; the sector is walked over the rays
    within the window, and the window is stable when no ray beyond it
    meets that sector (the module docstring gives the argument).
    """
    if vec_content(v.as_tuple()) != 1:
        raise ValueError(f"v = {v} must be primitive")
    if square(cfg, v) <= 0:
        raise ValueError("v must have positive square")
    if window is None:
        window = default_window(cfg, v)
    if window < 1:
        # window 0 doubles to itself: no ray beyond it could test stability
        raise ValueError(f"window must be a positive integer, got {window}")
    basis = lambda_basis(cfg, v)
    seeds = _candidate_walls(cfg, v, 2 * window, basis)
    within = {ray: a for ray, (reach, a) in seeds.items() if reach <= window}
    cone, walls = movable_cone(cfg, v, within, basis)
    stable = not any(cone.meets(ray) for ray, (reach, _) in seeds.items() if reach > window)
    return EnumerationResult(walls, cone, window, stable)
