"""Reference scans and checks the tests compare the engine with; the engine never calls them."""
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt, lcm

from k3walls.intmath import (
    cross3,
    det2,
    kernel_basis_int,
    lex_sign,
    primitive_vector,
    unit_section,
    xgcd,
)
from k3walls.classify import Decomposition, _effective_atoms
from k3walls.lattice import GramForm2, Isometry, K3Config, MukaiVector, pairing, square
from k3walls.nsgeom import lambda_basis, orthogonal_line_generator
from k3walls.stability import _positive_floor_sqrt, holes, numerical_wall
from k3walls.walls import (
    EnumerationResult,
    SectorError,
    _candidate_walls,
    _normalize_in_basis,
    _null_rays,
    build_wall,
    default_window,
    movable_cone,
)


def coords_in_basis(
    b1: tuple[int, int, int], b2: tuple[int, int, int], x: tuple[int, int, int]
):
    """Exact (alpha, beta) with x = alpha*b1 + beta*b2, or None if outside.

    Solved on the first non-vanishing 2x2 minor of (b1, b2) and checked on
    all three coordinates; the engine reads coordinates off pairings
    instead (GramForm2.coords).
    """
    for i in range(3):
        for j in range(i + 1, 3):
            det = b1[i] * b2[j] - b1[j] * b2[i]
            if det:
                alpha = Fraction(x[i] * b2[j] - x[j] * b2[i], det)
                beta = Fraction(b1[i] * x[j] - b1[j] * x[i], det)
                for k in range(3):
                    if alpha * b1[k] + beta * b2[k] != x[k]:
                        return None
                return alpha, beta
    raise ValueError("basis vectors are dependent")


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


def exact_level_points_by_isqrt(form, line, levels, lo):
    """level_points(form, line, levels, lo, lo) for A != 0, one isqrt per level.

    Writes the level line k as j*(x0, y0) + n*(dx, dy) with j = k/g, and
    solves A*n^2 + 2*j*b*n + j^2*Q(x0, y0) = lo for n by the exact square
    root of a quarter of its discriminant, Delta*j^2 + A*lo.
    """
    l1, l2 = line
    x0, y0, g = xgcd(l1, l2)
    dx, dy = l2 // g, -l1 // g
    A = form.value(dx, dy)
    b = form.q11 * x0 * dx + form.q12 * (x0 * dy + y0 * dx) + form.q22 * y0 * dy
    out = set()
    for k in levels:
        if k % g:
            continue
        j = k // g
        quarter = form.disc_prime * j * j + A * lo
        root = isqrt(max(quarter, 0))
        if root * root != quarter:
            continue
        for num in (root - j * b, -root - j * b):
            if num % A == 0:
                out.add((j * x0 + num // A * dx, j * y0 + num // A * dy))
    out.discard((0, 0))
    return sorted(out)


def square_levels_by_isqrt(delta, M, levels, g):
    """solvers._square_levels(delta, M, levels, g), one isqrt per level: the
    (j, X), X >= 0, with X^2 = delta*j^2 + M and g*j in levels."""
    out = set()
    for k in levels:
        if k % g:
            continue
        quarter = delta * (k // g) ** 2 + M
        root = isqrt(max(quarter, 0))
        if root * root == quarter:
            out.add((k // g, root))
    return out


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
    """Z(x) against exp((b + it)H) as one value; the engine's
    AlignmentFunctional clears the denominators of its parts instead."""
    b = Fraction(b)
    t2 = Fraction(t2)
    if t2 <= 0:
        raise ValueError("t^2 must be positive")
    re, mu = _charge_parts(cfg, x, b, t2)
    return GeomCharge(re, mu, t2)


def cross_value(wall, b, t2) -> Fraction:
    """alpha*(b^2 + t^2) + beta*b + gamma of a NumericalWall at (b, t^2); 0 on the wall."""
    b = Fraction(b)
    return wall.alpha * (b * b + Fraction(t2)) + wall.beta * b + wall.gamma


def _charge_parts(cfg: K3Config, x: MukaiVector, b: Fraction, t2: Fraction):
    e = cfg.h2
    re = e * x.c * b - x.s - Fraction(e, 2) * x.r * (b * b - t2)
    mu = e * (x.c - x.r * b)
    return re, mu


def alignment_weights_by_fractions(cfg: K3Config, v: MukaiVector, b: Fraction, t2: Fraction):
    """(weights, den) of AlignmentFunctional(cfg, v, b, t2), computed in Q.

    The four coefficients of Re(conj(Z(v)) Z(x)) and |Z(v)|^2 as fractions,
    scaled by the lcm of their denominators, then divided by their content
    with den >= 0; the engine scales by 4q^4 d^2 instead.
    """
    e = cfg.h2
    rv, mv = _charge_parts(cfg, v, b, t2)
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
    return tuple(weights), den


def mat_det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mat_inverse_unimodular(m):
    """Inverse of an integer matrix with determinant +-1 (adjugate / det)."""
    d = mat_det3(m)
    if d not in (1, -1):
        raise ValueError(f"matrix determinant {d} is not a unit")
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            sub = [
                [m[r][c] for c in range(3) if c != j]
                for r in range(3) if r != i
            ]
            minor = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            cof[j][i] = ((-1) ** (i + j)) * minor * d
    return tuple(tuple(row) for row in cof)


def isometry_inverse(iso: Isometry) -> Isometry:
    return Isometry(mat_inverse_unimodular(iso.matrix))


def preserves_pairing(cfg: K3Config, iso: Isometry) -> bool:
    basis = [MukaiVector(1, 0, 0), MukaiVector(0, 1, 0), MukaiVector(0, 0, 1)]
    for i, x in enumerate(basis):
        for y in basis[i:]:
            if pairing(cfg, iso.apply(x), iso.apply(y)) != pairing(cfg, x, y):
                return False
    return True


def hnf_two_rows(rows) -> list[tuple[int, int, int]]:
    """Row Hermite form of an integer row span of rank two; deterministic."""
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(3):
        nz = [r for r in work if r[col] != 0]
        zero = [r for r in work if r[col] == 0]
        if not nz:
            work = zero
            continue
        pivot = nz[0]
        for r in nz[1:]:
            while r[col] != 0:
                if abs(pivot[col]) > abs(r[col]):
                    pivot[:], r[:] = r[:], pivot[:]
                q = r[col] // pivot[col]
                for j in range(3):
                    r[j] -= q * pivot[j]
        if pivot[col] < 0:
            pivot[:] = [-x for x in pivot]
        basis.append(pivot)
        work = zero + [r for r in nz[1:] if any(r)]
    if len(basis) != 2:
        raise ValueError(f"expected rank two, got rank {len(basis)}")
    b1, b2 = basis
    pc = next(j for j in range(3) if b2[j] != 0)
    q = b1[pc] // b2[pc]
    b1 = [b1[j] - q * b2[j] for j in range(3)]
    return [tuple(b1), tuple(b2)]


def kernel_basis_by_row_reduction(n: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """kernel_basis_int(n) by row reduction of a spanning set of the kernel.

    With the section u, n . u = 1, the projections e_i - n_i*u of the unit
    vectors span the kernel, and their row Hermite form is its basis; the
    engine reads the Hermite basis off one xgcd instead.
    """
    u = unit_section(n)
    if u is None:
        raise ValueError("normal vector must be primitive")
    rows = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        rows.append(tuple(e[j] - n[i] * u[j] for j in range(3)))
    return hnf_two_rows(rows)


def _kernel_of_cross(x: MukaiVector, y: MukaiVector):
    """A basis of the saturation of Zx + Zy: the kernel of their primitive normal."""
    normal = cross3(x.as_tuple(), y.as_tuple())
    if not any(normal):
        raise ValueError("v and a are proportional")
    return kernel_basis_int(primitive_vector(normal))


def wall_by_coordinates(cfg: K3Config, v: MukaiVector, a_seed: MukaiVector):
    """(a, gram, line, degenerate, u) of the wall of <v, a_seed>.

    The saturation is a kernel basis (b1, b2) of the normal of the plane,
    and u completes v by xgcd on the coordinates of v in that basis; the
    engine's build_wall saturates by cross products instead.  Raises the
    ValueError that build_wall raises.
    """
    vsq = square(cfg, v)
    if vsq <= 0:
        raise ValueError(f"v^2 = {vsq} is not positive")
    b1, b2 = _kernel_of_cross(v, a_seed)
    co = coords_in_basis(b1, b2, v.as_tuple())
    if co is None or co[0].denominator != 1 or co[1].denominator != 1:
        raise ValueError("v does not lie in the lattice")
    x, y, g = xgcd(int(co[0]), int(co[1]))
    if g != 1:
        raise ValueError("v is not primitive in the lattice")
    # det((m1, m2), (-y, x)) = m1*x + m2*y = 1
    u = -y * MukaiVector(*b1) + x * MukaiVector(*b2)
    vu = pairing(cfg, v, u)
    disc = vsq * square(cfg, u) - vu * vu
    if disc > 0:
        raise ValueError("lattice is positive definite, not a wall")
    if disc == 0:
        g = gcd(vsq, vu)
        a = MukaiVector(*lex_sign(((vsq // g) * u - (vu // g) * v).as_tuple()))
    else:
        a = _normalize_in_basis(cfg, v, u)
    gram = GramForm2(vsq, pairing(cfg, v, a), square(cfg, a))
    return a, gram, orthogonal_line_generator(cfg, v, a), disc == 0, u


def normalize_by_preference(cfg: K3Config, v: MukaiVector, u: MukaiVector):
    """Representative +-u + kv with pairing in [0, v^2/2], chosen by preference.

    Collects every candidate and takes the least by (square -2 first, then
    square 0, then |square|, square, tuple), then sign-fixes a class
    orthogonal to v; the engine's _normalize_in_basis drops the order by
    square, which never decides because the candidates share one square.
    """
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
    return a


def divisibility_by_coordinates(v: MukaiVector, d: MukaiVector) -> int:
    """Index of Zd + Zv in its saturation: the determinant of their
    coordinates in a basis of the saturation."""
    b1, b2 = _kernel_of_cross(d, v)
    c1 = coords_in_basis(b1, b2, d.as_tuple())
    c2 = coords_in_basis(b1, b2, v.as_tuple())
    det = c1[0] * c2[1] - c1[1] * c2[0]
    assert det.denominator == 1 and det != 0
    return abs(int(det))


def charge_direction(cfg: K3Config, v: MukaiVector, b0: Fraction, t2: Fraction):
    """The Mukai triple m*A - r*B at (b0, t^2), in v-perp, with (r, m) the
    parts of Z(v), A = Re exp((b0 + it)H) and B = Im exp((b0 + it)H) / t."""
    rv, mv = _charge_parts(cfg, v, b0, t2)
    e = cfg.h2
    A = (Fraction(1), b0, Fraction(e, 2) * (b0 * b0 - t2))
    B = (Fraction(0), Fraction(1), e * b0)
    return tuple(mv * A[i] - rv * B[i] for i in range(3))


def finite_volume_sector(cfg: K3Config, v: MukaiVector, pool, basis):
    """(start, end) of the movable sector around a finite-volume anchor.

    The anchor is the NS ray of the charge direction at b0 = mu(v) - 1 (0
    for rank 0), moved off every vertical wall, and t^2 above every seed's
    numerical wall; each side is bounded by its ray of least |slope|
    det(anchor, u) / q(anchor, u).  Raises the engine's SectorError
    messages; the engine reads the sector off the large-volume limit.
    """
    v_eff = MukaiVector(*lex_sign(v.as_tuple()))
    b0 = Fraction(v_eff.c, v_eff.r) - 1 if v_eff.r != 0 else Fraction(0)
    walls = [numerical_wall(cfg, v_eff, w.a) for w in pool]
    verticals = {w.line_b for w in walls if w.shape == "vertical"}
    for _ in range(32):
        if b0 not in verticals:
            break
        b0 -= 1
    else:
        raise SectorError("no vertical line avoids every candidate wall")
    # the positive t^2 of each semicircle above b0
    tops = [w.radius_sq - (b0 - w.center_b) ** 2 for w in walls if w.shape == "semicircle"]
    t2 = max([Fraction(4)] + [t for t in tops if t > 0]) + 1
    w = charge_direction(cfg, v_eff, b0, t2)
    den = lcm(*(x.denominator for x in w))
    anchor = primitive_vector(basis.int_coords(cfg, MukaiVector(*(int(x * den) for x in w))))
    gram = basis.gram

    def orient(ray):
        return ray if gram.pair(ray, anchor) > 0 else (-ray[0], -ray[1])

    def slope(ray):
        u = orient(ray)
        return Fraction(det2(anchor, u), gram.pair(anchor, u))

    rays = [
        (slope(w.ray), orient(w.ray), True, bool(w.divisorial[1]))
        for w in pool if any(w.divisorial)
    ]
    if any(r[0] == 0 for r in rays):
        raise SectorError("divisorial ray equals the anchor ray")
    rays += [(slope(n), orient(n), False, False) for n in _null_rays(gram)]
    plus = min((r for r in rays if r[0] > 0), key=lambda r: r[0], default=None)
    minus = max((r for r in rays if r[0] < 0), key=lambda r: r[0], default=None)
    if plus is None or minus is None:
        raise SectorError(
            "no divisorial wall and no rational null ray on one side; "
            "the movable sector cannot be bounded exactly"
        )
    start, end = sorted([plus, minus], key=lambda r: (not r[2], not r[3], r[1]))
    return start[1], end[1]


def decompositions_by_prefixes(cfg: K3Config, wall, verdict) -> list:
    """Every splitting effective_decompositions(cfg, wall, verdict) counts, listed.

    Enumerates every multiset of atoms, in atom order, whose phases stay
    below 1, and closes each with its complement v - total when that is
    admissible and not an atom of lower index than the last; the engine
    counts them by partial sums instead.  Sorted by (number of parts, part
    tuples).
    """
    func = verdict.func
    if func is None:
        return []
    v = wall.v
    den = func.den
    atoms = _effective_atoms(func, verdict.split_classes, verdict.spherical)
    index = {u.as_tuple(): i for i, (u, _) in enumerate(atoms)}
    results = []

    def admissible(u: MukaiVector, num: int) -> bool:
        if not 0 < num < den:
            return False
        usq = square(cfg, u)
        return usq == -2 or (usq >= 0 and pairing(cfg, u, v) > 0)

    def record(split):
        parts = tuple(u for u, _ in split)
        refinable = False
        if len(parts) == 2:
            u = parts[0]
            q = wall.gram.coords(pairing(cfg, u, v), pairing(cfg, u, wall.a))[1]
            refinable = abs(q) > 1
        results.append(Decomposition(parts, refinable))

    def extend(start: int, total: MukaiVector, num: int, chosen):
        if chosen:
            last = v - total
            if (not last.is_zero and index.get(last.as_tuple(), start) >= start
                    and admissible(last, den - num)):
                record(chosen + [(last, den - num)])
        for i in range(start, len(atoms)):
            u, n = atoms[i]
            if num + n >= den:
                continue
            extend(i, total + u, num + n, chosen + [atoms[i]])

    extend(0, MukaiVector(0, 0, 0), 0, [])
    results.sort(key=lambda d: (len(d.parts), tuple(p.as_tuple() for p in d.parts)))
    return results


def enumerate_two_pass(cfg: K3Config, v: MukaiVector, window: int | None = None) -> EnumerationResult:
    """enumerate_result by two movable-cone passes, every searched ray built.

    Builds a wall for each ray of the search at twice the window, bounds
    one sector with the rays of reach <= window and one with all of them,
    and calls the window stable when both keep the same rays; the engine
    bounds the window's sector once and checks that no ray beyond the
    window meets it.
    """
    if window is None:
        window = default_window(cfg, v)
    basis = lambda_basis(cfg, v)
    cands = {
        key: (reach, replace(build_wall(cfg, v, a), ray=key))
        for key, (reach, a) in _candidate_walls(cfg, v, 2 * window, basis).items()
    }
    passes = []
    for win in (window, 2 * window):
        pool = [w for reach, w in cands.values() if reach <= win]
        cone = movable_cone(cfg, v, pool, basis)
        passes.append((cone, {w.ray: p for w in pool if (p := cone.position(w.ray)) is not None}))
    (cone, kept), (_, kept2) = passes
    walls = tuple(replace(cands[ray][1], ray=cone.orient(ray)) for ray in sorted(kept, key=kept.get))
    return EnumerationResult(walls, cone, window, kept.keys() == kept2.keys())


def alignment_points_with_repeats(cfg: K3Config, v: MukaiVector, a: MukaiVector, spherical):
    """The (b, t^2) sample points of alignment_candidates, repeats kept.

    The apex and every midpoint between breaks, filtered on t^2 > 0 and
    against every hole, with a fallback point on a vertical wall; the
    engine samples each distinct point once, apex first.
    """
    wall = numerical_wall(cfg, v, a)
    if wall.shape == "empty":
        return []
    hole_list = holes(cfg, spherical)
    if wall.shape == "semicircle":
        c, r2 = wall.center_b, wall.radius_sq
        max_offset = max((abs(b - c) for b, _, _ in hole_list), default=Fraction(0))
        r_lo = _positive_floor_sqrt(r2, exceed=max_offset)
        breaks = sorted(set([c - r_lo, c + r_lo] + [b for b, _, _ in hole_list]))
        pts = []
        for b in [c] + [(b1 + b2) / 2 for b1, b2 in zip(breaks, breaks[1:])]:
            t2 = r2 - (b - c) ** 2
            if t2 > 0:
                pts.append((b, t2))
    else:
        b = wall.line_b
        hole_t2 = sorted(t2 for hb, t2, _ in hole_list if hb == b)
        breaks = [Fraction(0)] + hole_t2 + [(hole_t2[-1] if hole_t2 else Fraction(0)) + 2]
        pts = [(b, (u + w) / 2) for u, w in zip(breaks, breaks[1:]) if (u + w) > 0]
        if not pts:
            pts = [(b, Fraction(1))]
    return [
        (b, t2) for b, t2 in pts if not any(hb == b and ht2 == t2 for hb, ht2, _ in hole_list)
    ]
