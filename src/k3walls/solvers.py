"""Constrained binary-quadratic solvers behind wall search and decompositions.

All solvers are exact: perfect-square tests use integer square roots and
window parameters bound only genuinely free coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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

    def pair(self, x: tuple[int, int], y: tuple[int, int]) -> int:
        return (
            self.q11 * x[0] * y[0]
            + self.q12 * (x[0] * y[1] + x[1] * y[0])
            + self.q22 * x[1] * y[1]
        )


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


def classes_in_rank2(
    form: GramForm2, d: int, pairing_with_v: int
) -> list[tuple[int, int]]:
    """All x = p*v + q*a with x^2 = d and (x, v) = pairing_with_v.

    Eliminating p via the linear condition leaves q^2 * disc' = k^2 - d*v^2,
    so solutions exist only when that ratio is a perfect square.
    """
    k = pairing_with_v
    q11, q12 = form.q11, form.q12
    dp = form.disc_prime
    out: list[tuple[int, int]] = []
    if dp > 0 and q11 != 0:
        num = k * k - d * q11
        if num < 0 or num % dp:
            return []
        root = sqrt_exact(num // dp)
        if root is None:
            return []
        for q in {root, -root}:
            pnum = k - q12 * q
            if pnum % q11 == 0:
                pq = (pnum // q11, q)
                if pq != (0, 0):
                    out.append(pq)
    elif dp == 0 and q11 != 0:
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
        for t in (-1, 0, 1):
            pq = (p0 + dp_ * t, q0 + dq_ * t)
            if pq != (0, 0) and form.value(*pq) == d:
                out.append(pq)
    else:
        # q11 == 0: scan bounded window exactly
        for p in range(-64, 65):
            for q in range(-64, 65):
                if (p, q) != (0, 0) and form.value(p, q) == d:
                    if form.q11 * p + form.q12 * q == k:
                        out.append((p, q))
    out.sort()
    return out


def spherical_classes(form: GramForm2, bound: int) -> list[tuple[int, int]]:
    """All (-2)-classes p*v + q*a with |q| <= bound, solved exactly per q."""
    return _classes_by_q(form, -2, bound)


def _classes_by_q(form: GramForm2, d: int, bound: int) -> list[tuple[int, int]]:
    out = []
    for q in range(-bound, bound + 1):
        A = form.q11
        B = 2 * form.q12 * q
        C = form.q22 * q * q - d
        if A != 0:
            disc = B * B - 4 * A * C
            root = sqrt_exact(disc)
            if root is None:
                continue
            for num in (-B + root, -B - root):
                if num % (2 * A) == 0:
                    pq = (num // (2 * A), q)
                    if pq != (0, 0) and pq not in out:
                        out.append(pq)
        elif B != 0:
            if C % B == 0:
                pq = (-C // B, q)
                if pq != (0, 0) and pq not in out:
                    out.append(pq)
        elif C == 0 and q != 0:
            # p free along a null direction; record the primitive choices
            for p in (-1, 0, 1):
                pq = (p, q)
                if pq not in out:
                    out.append(pq)
    out.sort()
    return out


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
    asq = square(cfg, a_i)
    if asq * vsq - m * m >= 0:
        raise ValueError("lattice <v, a> is not of signature (1,1)")
    out: list[tuple[int, int]] = []
    g = gcd(m, vsq)
    for k in range(1, vsq // 2 + 1):
        if k % g:
            continue
        # particular solution of m*x + vsq*y = k
        x0, y0, _ = xgcd(m, vsq)
        x0 *= k // g
        y0 *= k // g
        dx, dy = vsq // g, -m // g
        # square along the line: quadratic in n with negative leading term
        A = asq * dx * dx + 2 * m * dx * dy + vsq * dy * dy
        B = 2 * (asq * x0 * dx + m * (x0 * dy + y0 * dx) + vsq * y0 * dy)
        C = asq * x0 * x0 + 2 * m * x0 * y0 + vsq * y0 * y0
        if A >= 0:
            raise AssertionError("pairing-level line is not timelike")
        lo, hi = _quadratic_range_at_least(A, B, C + 2)
        if lo is None:
            continue
        for n in range(lo, hi + 1):
            x, y = x0 + dx * n, y0 + dy * n
            usq = asq * x * x + 2 * m * x * y + vsq * y * y
            if usq >= -2:
                out.append((x, y))
    out.sort()
    return out


def _quadratic_range_at_least(A: int, B: int, C: int):
    """Integer n-range with A n^2 + B n + C >= 0 for A < 0; (None, None) if empty."""
    disc = B * B - 4 * A * C
    if disc < 0:
        return None, None
    root_hi = _isqrt_upper(disc)
    # conservative symmetric bound on both real roots, then trim exactly
    bound = (abs(B) + root_hi) // (2 * abs(A)) + 2
    lo, hi = -bound, bound
    while lo <= hi and A * lo * lo + B * lo + C < 0:
        lo += 1
    while hi >= lo and A * hi * hi + B * hi + C < 0:
        hi -= 1
    if lo > hi:
        return None, None
    return lo, hi


def _isqrt_upper(n: int) -> int:
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else r + 1
