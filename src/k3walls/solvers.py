"""Constrained binary-quadratic solvers behind wall search and decompositions.

Every question about the classes of a wall lattice (its divisorial,
spherical and flopping classes, and the parts of its splittings) is one
question: which integer points of a binary quadratic form lie on a family
of parallel lines.  level_points answers it exactly, and the other
solvers here are single calls to it.  That includes
solve_square_with_pairing, the candidate search of the rank-three
lattice: it solves for the wall divisors v^2*a - (a,v)*v on the form of
v-perp, along the level lines of one coordinate.  The window picks the
level lines; inside it the solutions come from Pell orbits when that is
cheaper than testing each level.  Levels are tested in one sieved search:
on a run of at least _SIEVE_MIN levels, a level whose value is not a
square modulo one of 64, 63, 65, 11, 17, 19, 23 and 29 cannot be a square
and is dropped, by byte-table translations that cost a few passes in C
per modulus, not Python work per level.  The rest are confirmed with
isqrt, so no solution is lost.  Every form here is lattice.GramForm2,
the engine's one rank-two form: a wall lattice in the basis (v, a), or
v-perp in its NS basis.  decomposition_solutions alone works in the basis
(a, v): the split classes, and so the certificates, follow its sorted
points, and sorting them by the coefficient of v first changes them.
"""
from __future__ import annotations

from functools import cache
from math import gcd, isqrt

from .intmath import sqrt_exact, xgcd
from .lattice import GramForm2, K3Config, MukaiVector, pairing, square
from .nsgeom import NSBasis


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
    form = basis.gram
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
    form: GramForm2, line: tuple[int, int], levels: range, lo: int, hi: int | None
) -> list[tuple[int, int]]:
    """Integer (p, q) != (0, 0) with l1*p + l2*q in levels and lo <= Q(p, q) <= hi.

    The level line k is j*(x0, y0) + n*(dx, dy) from xgcd, j = k/g, so Q
    along it is A*n^2 + 2*j*b*n + j^2*Q(x0, y0), where A = Q(dx, dy) and the
    pairing b of the two vectors are shared by every level; their determinant
    is -1, so a quarter of the discriminant of Q - lo is Delta*j^2 + A*lo
    with Delta = q12^2 - q11*q22.  Either hi = lo (exact square roots, from
    _square_levels, or one linear root on null lines, A = 0; a line that
    solves throughout raises ValueError) or hi is None (Q >= lo, bounded
    only when A < 0; exact integer rounding of both roots).
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
    b = form.pair((x0, y0), (dx, dy))
    q0 = form.value(x0, y0)
    delta = form.disc_prime
    out: set[tuple[int, int]] = set()
    if hi is not None and A != 0:
        # the roots of A*n^2 + 2*j*b*n + C are (-j*b -+ X) / A
        for j, root in _square_levels(delta, A * lo, levels, g):
            for num in (root - j * b, -root - j * b):
                if num % A == 0:
                    out.add((j * x0 + num // A * dx, j * y0 + num // A * dy))
    else:  # null level lines, or Q >= lo
        for j in _level_indices(levels, g):
            jb = j * b
            if A == 0:
                # Q - lo = 2*jb*n + j^2*q0 - lo is linear in n
                const = j * j * q0 - lo
                if jb == 0:
                    if const == 0:
                        raise ValueError(f"every point of the level line {g * j} of {line} solves")
                    continue
                ns = [-const // (2 * jb)] if const % (2 * jb) == 0 else []
            else:
                # Q >= lo between the roots (-jb -+ sqrt(quarter)) / A, as A < 0
                quarter = delta * j * j + A * lo
                if quarter < 0:
                    continue
                root = isqrt(quarter)
                ns = range(-((root - jb) // -A), (jb + root) // -A + 1)
            for n in ns:
                out.add((j * x0 + n * dx, j * y0 + n * dy))
    out.discard((0, 0))
    return sorted(out)


def _level_indices(levels: range, g: int) -> range:
    """The j with g*j in levels (g > 0), as a range.

    On a range of step s, g*j is a level exactly when j lies in
    [levels[0]/g, levels[-1]/g] and g*j = levels[0] (mod s), one residue
    class modulo s/gcd(g, s) or none.
    """
    if levels.step < 0:
        levels = levels[::-1]
    h = gcd(g, levels.step)
    if not levels or levels[0] % h:
        return range(0)
    period = levels.step // h
    residue = levels[0] // h * pow(g // h, -1, period) % period
    first = -(-levels[0] // g)
    return range(first + (residue - first) % period, levels[-1] // g + 1, period)


# the sieve's moduli, pairwise coprime: a perfect square is a square modulo
# every q, and 1 integer in 1 585 is a square modulo all eight
_MODULI = (64, 63, 65, 11, 17, 19, 23, 29)


def _sieve_tables(q: int) -> tuple[bytes, bytes, bytes]:
    """The sieve's tables of modulus q <= 256: res, and sq and is_square for bytes.translate.

    res[k] = k mod q for k < 256*q, so the slice res[a : a + n*b : b]
    (0 <= a < q, 0 < b <= q, n <= 256) lists the residues of a + b*i,
    i < n.  sq[r] = r^2 mod q and is_square[x] = 1 exactly when x is a
    square modulo q, for r, x < q; the bytes past q are 0.
    """
    sq, is_square = bytearray(256), bytearray(256)
    for r in range(q):
        sq[r] = r * r % q
        is_square[sq[r]] = 1
    return bytes(range(q)) * 256, bytes(sq), bytes(is_square)


def _residues(res: bytes, q: int, a: int, b: int, n: int) -> bytes:
    """The residues modulo q of a + b*i, i < n <= 256, as n bytes of res.

    A step b = 0 mod q strides by q, which repeats the residue of a.
    """
    a, b = a % q, b % q or q
    return res[a : a + n * b : b]


_SIEVE = tuple((q, *_sieve_tables(q)) for q in _MODULI)
# the sieve costs a few slices and translations per modulus, about as much as
# testing 60 j with isqrt (measured on recorded search ranges, Python 3.11)
_SIEVE_MIN = 64


def _square_points(delta: int, M: int, js: range) -> list[tuple[int, int]]:
    """The (j, X), j in js, X >= 0, with X^2 = delta*j^2 + M.

    Every j is confirmed with isqrt.  On at least _SIEVE_MIN values, the j
    for which delta*j^2 + M is not a square modulo one of _MODULI are
    dropped first.  Along j = j0 + s*i the residue modulo q depends only
    on i mod q, so the mask of the range is that of its first q values,
    repeated: their residues r, translated by the tables
    r -> r^2, x -> delta*x + M and is_square.  Each modulus thus costs a
    few slices and translations of at most 256 bytes, all in C; the masks
    are ANDed as integers, the search stops once none is left, and only
    the survivors are visited in Python.  The sieve only drops j whose
    value cannot be a square, so it cannot lose a solution.
    """
    n = len(js)
    if n >= _SIEVE_MIN:
        j0, s = js.start, js.step
        keep = -1
        for q, res, sq, is_square in _SIEVE:
            values = _residues(res, q, j0, s, q).translate(sq)
            mask = values.translate(_residues(res, q, M, delta, 256)).translate(is_square)
            keep &= int.from_bytes((mask * (n // q + 1))[:n], "little")
            if not keep:
                return []
        flags = keep.to_bytes(n, "little")
        survivors = []
        k = flags.find(1)
        while k >= 0:
            survivors.append(j0 + s * k)
            k = flags.find(1, k + 1)
        js = survivors
    out = []
    for j in js:
        quarter = delta * j * j + M
        if quarter >= 0:
            root = isqrt(quarter)
            if root * root == quarter:
                out.append((j, root))
    return out


def _square_levels(delta: int, M: int, levels: range, g: int) -> set[tuple[int, int]]:
    """The pairs (j, X), X >= 0, with X^2 = delta*j^2 + M and g*j in levels.

    The j of the levels are tested by _square_points, unless Pell orbits
    are cheaper.  Let delta > 0 not be a square, M != 0 and (t, u) the least
    Pell unit.  Each class of solutions of X^2 - delta*j^2 = M is
    +-(X0 + j0*sqrt(delta)) times the powers of t + u*sqrt(delta), with
    0 <= j0 <= sqrt(|M|*(t+1)/(2*delta)) (Nagell, Introduction to Number
    Theory, Thm 108 and 108a; for M > 0 this bound is looser than his).  So
    the orbits are cheaper when fewer j lie under the bound than in the
    levels; the j under the bound are tested by _square_points too.  Walks
    forward from the four sign choices of (X0, j0) reach the whole class up
    to the sign of j, since conjugation turns a step back into a step
    forward.  Every solution under the bound starts a walk, which stops at
    the first |j| past the levels: along an orbit |j| falls, then rises, so
    a point a walk could reach after falling back into the levels has |j|
    below its start and starts a walk itself.
    """
    js = _level_indices(levels, g)
    # a walk needs bound + 1 < len(js), so one level skips the Pell set-up
    walk = len(js) > 1 and M != 0 and delta > 0 and sqrt_exact(delta) is None
    if walk:
        t, u = _pell_unit(delta)
        bound = isqrt(abs(M) * (t + 1) // (2 * delta))
        walk = bound + 1 < len(js)  # never on an empty range, so js[0] exists
    if not walk:
        return set(_square_points(delta, M, js))
    reach = max(abs(js[0]), abs(js[-1]))
    found: set[tuple[int, int]] = set()
    for j0, root in _square_points(delta, M, range(bound + 1)):
        for x, j in ((root, j0), (-root, j0), (root, -j0), (-root, -j0)):
            while abs(j) <= reach:
                if j in js:
                    found.add((j, abs(x)))
                x, j = t * x + delta * u * j, u * x + t * j
    return found


@cache
def _pell_unit(delta: int) -> tuple[int, int]:
    """The least (t, u), u > 0, with t^2 - delta*u^2 = 1: a convergent of sqrt(delta)."""
    a0 = isqrt(delta)
    m, d, a = 0, 1, a0
    t, t_prev, u, u_prev = a0, 1, 1, 0
    while t * t - delta * u * u != 1:
        m = d * a - m
        d = (delta - m * m) // d
        a = (a0 + m) // d
        t, t_prev, u, u_prev = a * t + t_prev, t, a * u + u_prev, u
    return t, u


def classes_in_rank2(
    form: GramForm2, d: int, pairing_with_v: int
) -> list[tuple[int, int]]:
    """All x = p*v + q*a with x^2 = d and (x, v) = pairing_with_v.

    The basis vector v must have positive square (q11 > 0).  On a degenerate
    lattice the pairing line is null: no solution, or ValueError if all solve.
    """
    if form.q11 <= 0:
        raise ValueError(f"v^2 = {form.q11} is not positive")
    k = pairing_with_v
    return level_points(form, (form.q11, form.q12), range(k, k + 1), d, d)


def spherical_classes(form: GramForm2, bound: int) -> list[tuple[int, int]]:
    """All (-2)-classes p*v + q*a with |q| <= bound (q11 > 0)."""
    return level_points(form, (0, 1), range(-bound, bound + 1), -2, -2)


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
