"""Exact integer and rational helpers shared by the lattice modules.

Everything here is arbitrary precision; no floats anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def sqrt_exact(n: int) -> int | None:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def frac_sqrt(x: Fraction | int) -> Fraction | None:
    """Exact square root of a rational, or None if irrational."""
    x = Fraction(x)
    if x < 0:
        return None
    pn = sqrt_exact(x.numerator)
    pd = sqrt_exact(x.denominator)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


def frac_floor_sqrt(x: Fraction | int) -> Fraction:
    """A rational lower bound r <= sqrt(x) with r close to sqrt(x)."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    # floor(sqrt(n/d)) scaled: isqrt(n*d)/d <= sqrt(n/d)
    return Fraction(isqrt(x.numerator * x.denominator), x.denominator)


def vec_content(vec: tuple[int, ...]) -> int:
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def primitive_vector(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Divide out the content; zero vector is rejected."""
    g = vec_content(vec)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def lex_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Flip the overall sign so the first nonzero entry is positive."""
    for x in vec:
        if x > 0:
            return vec
        if x < 0:
            return tuple(-y for y in vec)
    return vec


def det2(u: tuple, v: tuple):
    return u[0] * v[1] - u[1] * v[0]


def cross3(u: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def mat_vec(m, vec):
    return tuple(sum(m[i][j] * vec[j] for j in range(3)) for i in range(3))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


MAT_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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


def kernel_basis_int(n: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Basis of the saturated rank-two lattice {x in Z^3 : n . x = 0}.

    Requires n primitive; uses the section u with n . u = 1 and the
    projection x -> x - (n . x) u, which maps Z^3 onto the kernel.
    """
    n1, n2, n3 = n
    x1, x2, g12 = xgcd(n1, n2)
    y, z, g = xgcd(g12, n3)
    if g != 1:
        raise ValueError("normal vector must be primitive")
    u = (x1 * y, x2 * y, z)
    rows = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        dot = n[i]
        rows.append(tuple(e[j] - dot * u[j] for j in range(3)))
    return hnf_two_rows(rows)


def coords_in_basis(
    b1: tuple[int, int, int], b2: tuple[int, int, int], x: tuple[int, int, int]
):
    """Exact (alpha, beta) with x = alpha*b1 + beta*b2, or None if outside."""
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


def frac_str(x) -> str:
    """Canonical string for an exact rational: '3', '-5/2'."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(text: str) -> Fraction:
    return Fraction(text.strip())


def sqrt_str(t2) -> str:
    """Display sqrt(t2) exactly: rational if possible, else 'sqrt(p/q)'."""
    t2 = Fraction(t2)
    root = frac_sqrt(t2)
    if root is not None:
        return frac_str(root)
    return f"sqrt({frac_str(t2)})"
