"""Constrained binary-quadratic solvers behind wall search and decompositions.

Every question about the classes of a wall lattice (its divisorial,
spherical and flopping classes, and the parts of its splittings) is one
question: which integer points of a binary quadratic form lie on a family
of parallel lines.  level_points answers it exactly, and the other
lattice solvers here are single calls to it.  solve_square_with_pairing,
the candidate search of the rank-three lattice, still scans its free
coordinate over a window.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .intmath import sqrt_exact, xgcd
from .lattice import K3Config, MukaiVector, pairing, square


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


def _window_range(window) -> range:
    if isinstance(window, int):
        return range(-window, window + 1)
    lo, hi = window
    return range(lo, hi + 1)


def solve_square_with_pairing(
    cfg: K3Config,
    v: MukaiVector,
    d: int,
    m: int,
    window,
) -> list[MukaiVector]:
    """All a with (a,a) = d and (a,v) = m, free coordinate inside window.

    The two constraints cut a conic in the rank-three lattice; one
    coordinate is eliminated exactly, the remaining free one is scanned
    over the window.  Degenerate eliminations fall back to a bounded scan.
    """
    if d % 2 != 0 or d < -2:
        raise ValueError(f"square must be even and >= -2, got {d}")
    vsq = square(cfg, v)
    if not 0 <= 2 * m <= vsq:
        raise ValueError(f"pairing {m} outside [0, {vsq}/2]")
    e = cfg.h2
    rv, cv, sv = v.as_tuple()
    out: list[MukaiVector] = []
    seen: set[tuple[int, int, int]] = set()

    def emit(r: int, c: int, s: int) -> None:
        a = MukaiVector(r, c, s)
        key = a.as_tuple()
        if key in seen:
            return
        # exact re-verification of both defining equations
        if square(cfg, a) != d or pairing(cfg, a, v) != m:
            raise AssertionError(f"solver produced invalid class {a}")
        seen.add(key)
        out.append(a)

    rng = _window_range(window)
    if rv != 0:
        # s = (e*cv*c - sv*r - m)/rv; substitute into e*c^2 - 2rs = d
        for c in rng:
            A = 2 * sv
            B = 2 * m - 2 * e * cv * c
            C = e * rv * c * c - d * rv
            if A != 0:
                disc = B * B - 4 * A * C
                root = sqrt_exact(disc)
                if root is None:
                    continue
                for num in (-B + root, -B - root):
                    if num % (2 * A):
                        continue
                    r = num // (2 * A)
                    snum = e * cv * c - sv * r - m
                    if snum % rv:
                        continue
                    emit(r, c, snum // rv)
            elif B != 0:
                if C % B:
                    continue
                r = -C // B
                snum = e * cv * c - sv * r - m
                if snum % rv == 0:
                    emit(r, c, snum // rv)
            else:
                if C != 0:
                    continue
                # equation independent of r: bounded triple scan
                for r in rng:
                    snum = e * cv * c - sv * r - m
                    if snum % rv == 0:
                        emit(r, c, snum // rv)
    elif cv != 0:
        if sv != 0:
            for c in rng:
                num = e * cv * c - m
                if num % sv:
                    continue
                r = num // sv
                if r != 0:
                    n2 = e * c * c - d
                    if n2 % (2 * r) == 0:
                        emit(r, c, n2 // (2 * r))
                else:
                    if e * c * c == d:
                        for s in rng:
                            emit(0, c, s)
        else:
            num = m
            den = e * cv
            if num % den == 0:
                c = num // den
                n2 = e * c * c - d
                if n2 == 0:
                    for r in rng:
                        if r != 0:
                            emit(r, c, 0)
                    for s in rng:
                        emit(0, c, s)
                else:
                    for r in rng:
                        if r != 0 and n2 % (2 * r) == 0:
                            emit(r, c, n2 // (2 * r))
    else:
        raise ValueError("v = (0, 0, s) spans no positive-square direction")
    out.sort(key=lambda a: a.as_tuple())
    return out


def level_points(
    form: GramForm2, line: tuple[int, int], levels, lo: int, hi: int | None
) -> list[tuple[int, int]]:
    """Integer (p, q) != (0, 0) with l1*p + l2*q in levels and lo <= Q(p, q) <= hi.

    Each level line is parametrised once from xgcd, so the square along it
    is A*n^2 + B*n + C with A = Q(direction) shared by every level.  The
    two bounds are either equal (Q = lo, solved through the exact square
    root of the discriminant) or hi is None (Q >= lo, only bounded when
    A < 0, solved by exact integer rounding of both roots).
    """
    if hi is not None and hi != lo:
        raise ValueError("only Q = lo or Q >= lo is supported")
    l1, l2 = line
    x0, y0, g = xgcd(l1, l2)
    if g == 0:
        raise ValueError("the level form (0, 0) has no level lines")
    dx, dy = l2 // g, -l1 // g
    A = form.value(dx, dy)
    if A == 0 or (hi is None and A > 0):
        raise ValueError(f"level lines of {line} carry no bounded point set")
    out: set[tuple[int, int]] = set()
    for k in levels:
        if k % g:
            continue
        p0, q0 = x0 * (k // g), y0 * (k // g)
        # Q(p0 + dx*n, q0 + dy*n) - lo = A*n^2 + B*n + C
        B = 2 * (form.q11 * p0 * dx + form.q12 * (p0 * dy + q0 * dx) + form.q22 * q0 * dy)
        C = form.value(p0, q0) - lo
        disc = B * B - 4 * A * C
        if hi is None:
            # -A*n^2 - B*n - C <= 0 between the roots (B -+ sqrt(disc)) / (-2A)
            if disc < 0:
                continue
            root, den = isqrt(disc), -2 * A
            ns = range(-((root - B) // den), (B + root) // den + 1)
        else:
            root = sqrt_exact(disc)
            if root is None:
                continue
            ns = [num // (2 * A) for num in (-B + root, -B - root) if num % (2 * A) == 0]
        for n in ns:
            out.add((p0 + dx * n, q0 + dy * n))
    out.discard((0, 0))
    return sorted(out)


def classes_in_rank2(
    form: GramForm2, d: int, pairing_with_v: int
) -> list[tuple[int, int]]:
    """All x = p*v + q*a with x^2 = d and (x, v) = pairing_with_v.

    The basis vector v must have positive square (q11 > 0).
    """
    k = pairing_with_v
    q11, q12 = form.q11, form.q12
    if q11 <= 0:
        raise ValueError(f"v^2 = {q11} is not positive")
    if form.disc_prime != 0:
        return level_points(form, (q11, q12), (k,), d, d)
    # degenerate lattice: q11 * value = (q11 p + q12 q)^2, so solutions
    # fill the pairing line when k^2 = d * q11 and are empty otherwise
    if k * k != d * q11:
        return []
    g = gcd(q11, q12)
    if k % g:
        return []
    p0, q0, _ = xgcd(q11, q12)
    p0 *= k // g
    q0 *= k // g
    dp_, dq_ = q12 // g, -q11 // g
    out = []
    for t in (-1, 0, 1):
        pq = (p0 + dp_ * t, q0 + dq_ * t)
        if pq != (0, 0) and form.value(*pq) == d:
            out.append(pq)
    out.sort()
    return out


def spherical_classes(form: GramForm2, bound: int) -> list[tuple[int, int]]:
    """All (-2)-classes p*v + q*a with |q| <= bound (q11 > 0)."""
    return level_points(form, (0, 1), range(-bound, bound + 1), -2, -2)


def lattice_points_in_parallelogram(
    form: GramForm2, a: tuple[int, int], v: tuple[int, int]
) -> list[tuple[int, int]]:
    """Integer points of the closed parallelogram (0, a, v-a, v), vertices excluded.

    Exact barycentric test: x = s*a + t*(v-a) with s, t in [0, 1].
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
