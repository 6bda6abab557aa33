"""Exact geometry of the (b, t) half-plane of geometric stability data.

Charges are evaluated against exp((b + it)H); since every alignment locus
is a polynomial in b and t^2, the computations stay in Q throughout and t
itself is never materialized.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .intmath import frac_floor_sqrt
from .lattice import K3Config, MukaiVector, square
from .solvers import gram_of, spherical_classes

SPHERICAL_SEARCH_BOUND = 24


@dataclass(frozen=True)
class GeomCharge:
    """Central charge Z = re + i*t*im_coeff at a point with t^2 = t2."""

    re: Fraction
    im_coeff: Fraction
    t2: Fraction

    @property
    def vanishes(self) -> bool:
        return self.re == 0 and self.im_coeff == 0


def central_charge(cfg: K3Config, x: MukaiVector, b, t2) -> GeomCharge:
    b = Fraction(b)
    t2 = Fraction(t2)
    if t2 <= 0:
        raise ValueError("t^2 must be positive")
    re, mu = _charge_parts(cfg, x, b, t2)
    return GeomCharge(re, mu, t2)


def _charge_parts(cfg: K3Config, x: MukaiVector, b: Fraction, t2: Fraction):
    e = cfg.h2
    re = e * x.c * b - x.s - Fraction(e, 2) * x.r * (b * b - t2)
    mu = e * (x.c - x.r * b)
    return re, mu


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

    def cross_value(self, b, t2) -> Fraction:
        b = Fraction(b)
        t2 = Fraction(t2)
        return self.alpha * (b * b + t2) + self.beta * b + self.gamma

    def t2_at(self, b) -> Fraction | None:
        """Positive t^2 on the locus above b, if any."""
        b = Fraction(b)
        if self.shape == "semicircle":
            t2 = self.radius_sq - (b - self.center_b) ** 2
            return t2 if t2 > 0 else None
        return None


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
    re, mu = _charge_parts(cfg, s, b, t2)
    assert re == 0 and mu == 0
    return b, t2


def spherical_members(cfg: K3Config, v: MukaiVector, a: MukaiVector) -> list[MukaiVector]:
    """The (-2)-classes p*v + q*a of <v, a> with |q| <= SPHERICAL_SEARCH_BOUND.

    Solved once per wall and passed to every consumer; v^2 > 0, and a
    degenerate lattice holds no class of negative square.
    """
    out = []
    for p, q in spherical_classes(gram_of(cfg, v, a), SPHERICAL_SEARCH_BOUND):
        s = p * v + q * a
        if square(cfg, s) != -2:
            raise AssertionError("spherical search returned a non-spherical class")
        out.append(s)
    return out


def holes(cfg: K3Config, spherical) -> list[tuple[Fraction, Fraction, MukaiVector]]:
    """Charge-vanishing points of the spherical classes of a wall.

    spherical lists those classes (spherical_members).  Returns
    (b, t2, class) triples, one per +-pair, sorted by b.
    """
    out = []
    seen = set()
    for s in spherical:
        if s.r < 0 or (s.r == 0 and (s.c, s.s) < (0, 0)):
            s = -s
        pt = hole_point(cfg, s)
        if pt is None:
            continue
        key = (pt[0], pt[1], s.as_tuple())
        if key in seen:
            continue
        seen.add(key)
        out.append((pt[0], pt[1], s))
    out.sort(key=lambda h: (h[0], h[1]))
    return out


@dataclass(frozen=True)
class AlignmentFunctional:
    """Exact phase-comparison functional at a rational point on a wall.

    phi(x) is the real ratio Z(x)/Z(v) there; phi(v) = 1 and phi(x) > 0
    exactly when Re(conj(Z(v)) * Z(x)) > 0.  phi is linear in x, so its
    denominators are cleared once: phi(x) = numerator(x) / den with an
    integer linear form numerator and a fixed integer den > 0 (den is 0
    when the charge of v vanishes at the point).
    """

    cfg: K3Config
    v: MukaiVector
    b: Fraction
    t2: Fraction
    weights: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b, t2 = Fraction(self.b), Fraction(self.t2)
        e = self.cfg.h2
        rv, mv = _charge_parts(self.cfg, self.v, b, t2)
        # Re(conj(Z(v)) Z(x)) = rv*Re(Z(x)) + t2*mv*Im-coeff(Z(x)), per coordinate
        coeffs = (
            -rv * Fraction(e, 2) * (b * b - t2) - t2 * mv * e * b,
            rv * e * b + t2 * mv * e,
            -rv,
            rv * rv + t2 * mv * mv,
        )
        scale = lcm(*(q.denominator for q in coeffs))
        ints = [int(q * scale) for q in coeffs]
        content = gcd(*ints) or 1
        if ints[3] < 0:
            content = -content
        *weights, den = (n // content for n in ints)
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
    """One rational sample point per arc of the wall of <v, a>.

    The holes of spherical classes of <v, a> all lie on the wall and split
    it into arcs on which the sign data differs; one hole-free point is
    produced for every arc the search window can see, plus the apex.
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
        breaks = [c - r_lo, c + r_lo]
        breaks += [b for b, _, _ in hole_list]
        breaks = sorted(set(breaks))
        bs = [c] + [(b1 + b2) / 2 for b1, b2 in zip(breaks, breaks[1:])]
        pts = []
        for b in bs:
            t2 = wall.t2_at(b)
            if t2 is not None:
                pts.append((b, t2))
    else:
        b = wall.line_b
        hole_t2 = sorted(t2 for hb, t2, _ in hole_list if hb == b)
        breaks = [Fraction(0)] + hole_t2 + [(hole_t2[-1] if hole_t2 else Fraction(0)) + 2]
        pts = [(b, (u + w) / 2) for u, w in zip(breaks, breaks[1:]) if (u + w) > 0]
        if not pts:
            pts = [(b, Fraction(1))]
    return [
        AlignmentFunctional(cfg, v, b, t2)
        for b, t2 in pts
        if not any(hb == b and ht2 == t2 for hb, ht2, _ in hole_list)
    ]


@dataclass(frozen=True)
class PathCrossing:
    t2: Fraction
    wall_index: int
    a: MukaiVector
    hole_collision: MukaiVector | None = None


def path_crossings(
    cfg: K3Config,
    v: MukaiVector,
    wall_classes: list[MukaiVector],
    b0,
    t_min=0,
    t_max=None,
) -> list[PathCrossing]:
    """Crossings of the vertical path b = b0 with each wall <v, a_i>.

    The cross-product polynomial is linear in t^2 along a vertical line, so
    each wall contributes at most one exact root; roots landing on a
    charge-vanishing point of a spherical class are flagged.
    """
    b0 = Fraction(b0)
    lo = Fraction(t_min) ** 2
    hi = Fraction(t_max) ** 2 if t_max is not None else None
    out: list[PathCrossing] = []
    for idx, a in enumerate(wall_classes):
        wall = numerical_wall(cfg, v, a)
        if wall.alpha == 0:
            if wall.shape == "vertical" and wall.line_b == b0:
                raise ValueError(f"path b = {b0} lies on the wall of a = {a}")
            continue
        t2 = -(wall.alpha * b0 * b0 + wall.beta * b0 + wall.gamma) / wall.alpha
        if t2 <= 0 or t2 <= lo or (hi is not None and t2 > hi):
            continue
        assert wall.cross_value(b0, t2) == 0
        collision = None
        for hb, ht2, s in holes(cfg, spherical_members(cfg, v, a)):
            if hb == b0 and ht2 == t2:
                collision = s
                break
        out.append(PathCrossing(t2, idx, a, collision))
    out.sort(key=lambda cr: (-cr.t2, cr.wall_index))
    return out
