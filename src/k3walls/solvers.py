"""Constrained binary-quadratic solvers behind wall search and decompositions.

Every question about the classes of a wall lattice (its divisorial,
spherical and flopping classes, and the parts of its splittings) is one
question: which integer points of a binary quadratic form lie on a family
of parallel lines.  level_points answers it exactly, and the other
solvers here are single calls to it.  That includes
solve_square_with_pairing, the candidate search of the rank-three
lattice: it solves for the wall divisors v^2*a - (a,v)*v on the form of
v-perp, along the level lines of one coordinate, which a window bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .intmath import xgcd
from .lattice import K3Config, MukaiVector, pairing, square
from .nsgeom import NSBasis


@dataclass(frozen=True)
class GramForm2:
    """Gram matrix of a rank-two lattice in an ordered basis (v, a)."""

    q11: int
    q12: int
    q22: int

    @property
    def disc(self) -> int:
        return self.q11 * self.q22 - self.q12 * self.q12

    @property
    def disc_prime(self) -> int:
        # positive exactly for signature (1,1)
        return self.q12 * self.q12 - self.q11 * self.q22

    def value(self, p: int, q: int) -> int:
        return self.q11 * p * p + 2 * self.q12 * p * q + self.q22 * q * q


def gram_of(cfg: K3Config, v: MukaiVector, a: MukaiVector) -> GramForm2:
    return GramForm2(square(cfg, v), pairing(cfg, v, a), square(cfg, a))


def _free_index(v: MukaiVector) -> int:
    """Index of the coordinate of a that the window bounds: c, or r when v = (0, c, 0)."""
    return 0 if v.r == 0 == v.s else 1


def solve_square_with_pairing(
    cfg: K3Config,
    v: MukaiVector,
    d: int,
    m: int,
    window: int,
    basis: NSBasis,
) -> list[MukaiVector]:
    """All a with (a,a) = d and (a,v) = m whose free coordinate is within window.

    The free coordinate is c, or r when v = (0, c, 0); v is primitive with
    v^2 > 0, and basis is lambda_basis(cfg, v).  The wall divisors
    D = v^2*a - m*v solve D^2 = v^2*(v^2*d - m^2) in v-perp on the levels
    v^2*t - m*(free coordinate of v), |t| <= window, and a = (D + m*v)/v^2
    is kept when integral.  (d, m) = (0, 0), the null
    lines of v-perp, raises ValueError.
    """
    if d % 2 != 0 or d < -2:
        raise ValueError(f"square must be even and >= -2, got {d}")
    vsq = square(cfg, v)
    if not 0 <= 2 * m <= vsq:
        raise ValueError(f"pairing {m} outside [0, {vsq}/2]")
    if d == 0 == m:
        raise ValueError("(a,a) = 0 = (a,v) is a union of null lines, not a finite family")
    i = _free_index(v)
    e1, e2, vt = basis.e1.as_tuple(), basis.e2.as_tuple(), v.as_tuple()
    offset = -m * vt[i]
    levels = range(offset - window * vsq, offset + window * vsq + 1, vsq)
    form = GramForm2(*basis.gram(cfg))
    norm = vsq * (vsq * d - m * m)
    out: list[MukaiVector] = []
    for x, y in level_points(form, (e1[i], e2[i]), levels, norm, norm):
        num = [x * p + y * q + m * w for p, q, w in zip(e1, e2, vt)]
        if any(t % vsq for t in num):
            continue
        a = MukaiVector(*(t // vsq for t in num))
        # exact re-verification of both defining equations
        if square(cfg, a) != d or pairing(cfg, a, v) != m:
            raise AssertionError(f"solver produced invalid class {a}")
        out.append(a)
    out.sort(key=lambda a: a.as_tuple())
    return out


def level_points(
    form: GramForm2, line: tuple[int, int], levels, lo: int, hi: int | None
) -> list[tuple[int, int]]:
    """Integer (p, q) != (0, 0) with l1*p + l2*q in levels and lo <= Q(p, q) <= hi.

    The level line k is j*(x0, y0) + n*(dx, dy) from xgcd, j = k/g, so Q
    along it is A*n^2 + 2*j*b*n + j^2*Q(x0, y0), where A = Q(dx, dy) and the
    pairing b of the two vectors are shared by every level; their determinant
    is -1, so a quarter of the discriminant of Q - lo is Delta*j^2 + A*lo
    with Delta = q12^2 - q11*q22.  Either hi = lo (exact square root, or one
    linear root on null lines, A = 0; a line that solves throughout raises
    ValueError) or hi is None (Q >= lo, bounded only when A < 0; exact
    integer rounding of both roots).
    """
    if hi is not None and hi != lo:
        raise ValueError("only Q = lo or Q >= lo is supported")
    l1, l2 = line
    x0, y0, g = xgcd(l1, l2)
    if g == 0:
        raise ValueError("the level form (0, 0) has no level lines")
    dx, dy = l2 // g, -l1 // g
    A = form.value(dx, dy)
    if hi is None and A >= 0:
        raise ValueError(f"level lines of {line} carry no bounded point set")
    b = form.q11 * x0 * dx + form.q12 * (x0 * dy + y0 * dx) + form.q22 * y0 * dy
    q0 = form.value(x0, y0)
    delta = form.disc_prime
    out: set[tuple[int, int]] = set()
    for k in levels:
        if k % g:
            continue
        j = k // g
        jb = j * b
        if A == 0:
            # Q - lo = 2*jb*n + j^2*q0 - lo is linear in n
            const = j * j * q0 - lo
            if jb == 0:
                if const == 0:
                    raise ValueError(f"every point of the level line {k} of {line} solves")
                continue
            ns = [-const // (2 * jb)] if const % (2 * jb) == 0 else []
        else:
            # the roots of A*n^2 + 2*jb*n + C are (-jb -+ sqrt(quarter)) / A
            quarter = delta * j * j + A * lo
            if quarter < 0:
                continue
            root = isqrt(quarter)
            if hi is None:  # Q >= lo between the roots, as A < 0
                ns = range(-((root - jb) // -A), (jb + root) // -A + 1)
            elif root * root == quarter:
                ns = [num // A for num in (root - jb, -root - jb) if num % A == 0]
            else:
                continue
        for n in ns:
            out.add((j * x0 + n * dx, j * y0 + n * dy))
    out.discard((0, 0))
    return sorted(out)


def classes_in_rank2(
    form: GramForm2, d: int, pairing_with_v: int
) -> list[tuple[int, int]]:
    """All x = p*v + q*a with x^2 = d and (x, v) = pairing_with_v.

    The basis vector v must have positive square (q11 > 0).  On a degenerate
    lattice the pairing line is null: no solution, or ValueError if all solve.
    """
    if form.q11 <= 0:
        raise ValueError(f"v^2 = {form.q11} is not positive")
    return level_points(form, (form.q11, form.q12), (pairing_with_v,), d, d)


def spherical_classes(form: GramForm2, bound: int) -> list[tuple[int, int]]:
    """All (-2)-classes p*v + q*a with |q| <= bound (q11 > 0)."""
    return level_points(form, (0, 1), range(-bound, bound + 1), -2, -2)


def lattice_points_in_parallelogram(
    a: tuple[int, int], v: tuple[int, int]
) -> list[tuple[int, int]]:
    """Integer points of the closed parallelogram (0, a, v-a, v), vertices excluded.

    Exact barycentric test: x = s*a + t*(v-a) with s, t in [0, 1].  The
    engine decides refinability from the determinant instead; this scan is
    the reference the tests compare it with.
    """
    e1 = a
    e2 = (v[0] - a[0], v[1] - a[1])
    det = e1[0] * e2[1] - e1[1] * e2[0]
    if det == 0:
        raise ValueError("a and v are linearly dependent")
    verts = [(0, 0), a, e2, v]
    xs = [p[0] for p in verts]
    ys = [p[1] for p in verts]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            s = Fraction(x * e2[1] - y * e2[0], det)
            t = Fraction(e1[0] * y - e1[1] * x, det)
            if 0 <= s <= 1 and 0 <= t <= 1:
                if (s in (0, 1)) and (t in (0, 1)):
                    continue  # vertex
                out.append((x, y))
    out.sort()
    return out


def decomposition_solutions(
    cfg: K3Config, v: MukaiVector, a_i: MukaiVector
) -> list[tuple[int, int]]:
    """Integer (x, y) with u = x*a_i + y*v, u^2 >= -2 and 0 < (u,v) <= v^2/2.

    Each pairing level is a line in the (x, y)-plane on which the square is
    a downward quadratic, so the solution set is finite and found exactly.
    """
    vsq = square(cfg, v)
    m = pairing(cfg, a_i, v)
    form = GramForm2(square(cfg, a_i), m, vsq)
    if form.disc_prime <= 0:
        raise ValueError("lattice <v, a> is not of signature (1,1)")
    return level_points(form, (m, vsq), range(1, vsq // 2 + 1), -2, None)
