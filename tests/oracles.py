"""Reference scans and checks the tests compare the engine with; the engine never calls them."""
from fractions import Fraction
from math import isqrt

from k3walls.intmath import mat_det3, xgcd
from k3walls.lattice import Isometry, K3Config, MukaiVector, pairing


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
    return Isometry(f"inv({iso.kind})", mat_inverse_unimodular(iso.matrix))


def preserves_pairing(cfg: K3Config, iso: Isometry) -> bool:
    basis = [MukaiVector(1, 0, 0), MukaiVector(0, 1, 0), MukaiVector(0, 0, 1)]
    for i, x in enumerate(basis):
        for y in basis[i:]:
            if pairing(cfg, iso.apply(x), iso.apply(y)) != pairing(cfg, x, y):
                return False
    return True
