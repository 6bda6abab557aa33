"""Exact geometry of the (b, t) half-plane of geometric stability data.

Charges are evaluated against exp((b + it)H); since every alignment locus
is a polynomial in b and t^2, the computations stay in Q throughout and t
itself is never materialized.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .intmath import frac_floor_sqrt, lex_sign
from .lattice import K3Config, MukaiVector, square
from .solvers import spherical_classes
from .walls import WallLattice

SPHERICAL_SEARCH_BOUND = 24


@dataclass(frozen=True)
class NumericalWall:
    """Alignment locus of Z(v) and Z(a): alpha*(b^2 + t^2) + beta*b + gamma = 0."""

    shape: str  # "semicircle" | "vertical" | "empty"
    alpha: Fraction
    beta: int
    gamma: int
    center_b: Fraction | None = None
    radius_sq: Fraction | None = None
    line_b: Fraction | None = None


def numerical_wall(cfg: K3Config, v: MukaiVector, a: MukaiVector) -> NumericalWall:
    e = cfg.h2
    alpha = Fraction(e, 2) * (v.r * a.c - a.r * v.c)
    beta = v.s * a.r - a.s * v.r
    gamma = a.s * v.c - v.s * a.c
    if alpha != 0:
        center = Fraction(-beta, 2 * alpha)
        radius_sq = Fraction(beta * beta - 4 * alpha * gamma, 4 * alpha * alpha)
        if radius_sq <= 0:
            return NumericalWall("empty", alpha, beta, gamma)
        return NumericalWall(
            "semicircle", alpha, beta, gamma, center_b=center, radius_sq=radius_sq
        )
    if beta != 0:
        return NumericalWall(
            "vertical", alpha, beta, gamma, line_b=Fraction(-gamma, beta)
        )
    return NumericalWall("empty", alpha, beta, gamma)


def hole_point(cfg: K3Config, s: MukaiVector):
    """The unique (b, t^2) with Z(s) = 0 and t^2 > 0, or None.

    Exists exactly for negative-square classes with nonzero rank.
    """
    if s.r == 0:
        return None
    b = Fraction(s.c, s.r)
    t2 = Fraction(-square(cfg, s), cfg.h2 * s.r * s.r)
    if t2 <= 0:
        return None
    # Z(s) = 0 here by algebra: for s = (r, c, d), s^2 = e c^2 - 2rd, Im Z =
    # e(c - rb) = 0 at b = c/r, and Re Z = e c b - d - (e/2) r (b^2 - t^2)
    # = e c^2/r - d - e c^2/(2r) - s^2/(2r) = 0 (test_hole_point_charge_vanishes)
    return b, t2


def spherical_members(cfg: K3Config, wall: WallLattice) -> list[MukaiVector]:
    """The (-2)-classes p*v + q*a of the wall lattice with |q| <= SPHERICAL_SEARCH_BOUND.

    Solved on wall.gram, once per wall, and passed to every consumer;
    v^2 > 0, and a degenerate lattice holds no class of negative square.
    """
    out = []
    for p, q in spherical_classes(wall.gram, SPHERICAL_SEARCH_BOUND):
        s = wall.member(p, q)
        if square(cfg, s) != -2:
            raise AssertionError("spherical search returned a non-spherical class")
        out.append(s)
    return out


def holes(cfg: K3Config, spherical) -> list[tuple[Fraction, Fraction, MukaiVector]]:
    """Charge-vanishing points of the spherical classes of a wall.

    spherical lists those classes (spherical_members).  Returns
    (b, t2, class) triples, one per +-pair, sorted by b.
    """
    out = {}
    for s in spherical:
        s = MukaiVector(*lex_sign(s.as_tuple()))
        pt = hole_point(cfg, s)
        if pt is not None:
            out.setdefault(s, (pt[0], pt[1], s))
    return sorted(out.values(), key=lambda h: (h[0], h[1]))


@dataclass(frozen=True)
class AlignmentFunctional:
    """Exact phase-comparison functional at a rational point (b, t^2 > 0) on a wall.

    phi(x) is the real ratio Z(x)/Z(v) there; phi(v) = 1 and phi(x) > 0
    exactly when Re(conj(Z(v)) * Z(x)) > 0.  phi is linear in x, so its
    denominators are cleared once: phi(x) = numerator(x) / den with an
    integer linear form numerator and a fixed integer den > 0 (den is 0
    when the charge of v vanishes at the point).  With b = p/q, t^2 = n/d
    and v = (r, c, s), the parts of Z(v) are RV/(2q^2 d) and MV/q, so the
    four coefficients of Re(conj(Z(v)) Z(x)) and |Z(v)|^2, times
    4q^4 d^2 > 0, are integers; dividing out their content gives the unique
    weights and den >= 0.
    """

    cfg: K3Config
    v: MukaiVector
    b: Fraction
    t2: Fraction
    weights: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b, t2 = Fraction(self.b), Fraction(self.t2)
        if t2 <= 0:
            raise ValueError("t^2 must be positive")
        p, q, n, d = b.numerator, b.denominator, t2.numerator, t2.denominator
        e, (r, c, s) = self.cfg.h2, self.v.as_tuple()
        b2 = p * p * d - n * q * q  # (b^2 - t^2) q^2 d
        rv = 2 * e * c * p * q * d - 2 * s * q * q * d - e * r * b2
        mv = e * (c * q - r * p)
        # Re(conj(Z(v)) Z(x)) = Re Z(v) Re Z(x) + t^2 Im-coeff Z(v) Im-coeff Z(x),
        # per coordinate of x, then |Z(v)|^2
        ints = (
            -rv * e * b2 - 4 * q * q * d * n * mv * e * p,
            2 * q * d * rv * e * p + 4 * q**3 * d * n * mv * e,
            -2 * q * q * d * rv,
            rv * rv + 4 * q * q * d * n * mv * mv,
        )
        # no sign to fix: ints[3] = rv^2 + 4q^2 d n mv^2 >= 0, as n, d > 0
        content = gcd(*ints) or 1
        *weights, den = (k // content for k in ints)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "den", den)

    def numerator(self, x: MukaiVector) -> int:
        wr, wc, ws = self.weights
        return wr * x.r + wc * x.c + ws * x.s

    def phi(self, x: MukaiVector) -> Fraction:
        if self.den == 0:
            raise ValueError("charge of v vanishes at the chosen point")
        return Fraction(self.numerator(x), self.den)


def _positive_floor_sqrt(x: Fraction, exceed: Fraction = Fraction(0)) -> Fraction:
    """Rational lower bound for sqrt(x) strictly above exceed (< sqrt(x))."""
    scale = 1
    for _ in range(256):
        r = frac_floor_sqrt(x * scale * scale) / scale
        if r > exceed:
            return r
        scale *= 4
    raise AssertionError("square-root lower bound failed to converge")


def alignment_candidates(
    cfg: K3Config, v: MukaiVector, a: MukaiVector, spherical
) -> list[AlignmentFunctional]:
    """One rational sample point per arc of the wall of <v, a>, each point once.

    The holes of spherical classes of <v, a> all lie on the wall and split
    it into arcs on which the sign data differs; one hole-free point is
    produced for every arc the search window can see, the apex first
    unless it is a hole, then the midpoints between breaks in order of
    first occurrence.  Every point has t^2 > 0, and a midpoint lies strictly
    between two breaks, so no midpoint is a hole.  The wall has no point
    exactly when <v, a> is not hyperbolic.
    spherical lists the spherical classes of <v, a> (spherical_members).
    """
    wall = numerical_wall(cfg, v, a)
    if wall.shape == "empty":
        return []
    hole_list = holes(cfg, spherical)
    if wall.shape == "semicircle":
        c, r2 = wall.center_b, wall.radius_sq
        # every hole lies strictly inside the circle; push the rational
        # radius bound past all of them so no arc goes unsampled
        max_offset = max((abs(b - c) for b, _, _ in hole_list), default=Fraction(0))
        r_lo = _positive_floor_sqrt(r2, exceed=max_offset)
        breaks = sorted({c - r_lo, c + r_lo, *(b for b, _, _ in hole_list)})
        # the holes lie on the wall, so a hole at b = c is the apex
        apex = [] if any(b == c for b, _, _ in hole_list) else [c]
        bs = dict.fromkeys(apex + [(b1 + b2) / 2 for b1, b2 in zip(breaks, breaks[1:])])
        pts = [(b, r2 - (b - c) ** 2) for b in bs]
    else:
        # every hole of a vertical wall lies on its line
        b = wall.line_b
        breaks = [Fraction(0), *sorted(t2 for _, t2, _ in hole_list)]
        breaks.append(breaks[-1] + 2)
        pts = [(b, (u + w) / 2) for u, w in zip(breaks, breaks[1:])]
    return [AlignmentFunctional(cfg, v, b, t2) for b, t2 in pts]


@dataclass(frozen=True)
class PathCrossing:
    t2: Fraction
    wall_index: int
    a: MukaiVector
    hole_collision: MukaiVector | None = None


def t_range(t_min=0, t_max=None) -> tuple[Fraction, Fraction | None]:
    """The range t_min < t <= t_max of a vertical path, as Fractions.

    t is a length: ValueError unless 0 <= t_min < t_max (t_max None is no
    upper bound).
    """
    t_min = Fraction(t_min)
    t_max = Fraction(t_max) if t_max is not None else None
    if t_min < 0:
        raise ValueError(f"t_min must be >= 0, got {t_min}")
    if t_max is not None and t_max <= t_min:
        raise ValueError(f"t_max must exceed t_min, got t_min = {t_min}, t_max = {t_max}")
    return t_min, t_max


def path_crossings(
    cfg: K3Config, walls: Sequence[WallLattice], b0, t_min=0, t_max=None
) -> list[PathCrossing]:
    """Crossings of the vertical path b = b0 with the numerical wall of each lattice.

    The cross-product polynomial is linear in t^2 along a vertical line, so
    each wall contributes at most one exact root; roots landing on a
    charge-vanishing point of a spherical class are flagged.  The range is
    t_min < t <= t_max, checked by t_range.
    """
    b0 = Fraction(b0)
    t_min, t_max = t_range(t_min, t_max)
    lo = t_min * t_min
    hi = t_max * t_max if t_max is not None else None
    out: list[PathCrossing] = []
    for idx, lattice in enumerate(walls):
        a = lattice.a
        wall = numerical_wall(cfg, lattice.v, a)
        if wall.alpha == 0:
            if wall.shape == "vertical" and wall.line_b == b0:
                raise ValueError(f"path b = {b0} lies on the wall of a = {a}")
            continue
        t2 = -(wall.alpha * b0 * b0 + wall.beta * b0 + wall.gamma) / wall.alpha
        if t2 <= 0 or t2 <= lo or (hi is not None and t2 > hi):
            continue
        collision = None
        for hb, ht2, s in holes(cfg, spherical_members(cfg, lattice)):
            if hb == b0 and ht2 == t2:
                collision = s
                break
        out.append(PathCrossing(t2, idx, a, collision))
    out.sort(key=lambda cr: (-cr.t2, cr.wall_index))
    return out
