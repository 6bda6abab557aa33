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


MAT_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def unit_section(n: tuple[int, int, int]) -> tuple[int, int, int] | None:
    """An integer u with n . u = 1, or None when n is not primitive."""
    n1, n2, n3 = n
    x1, x2, g12 = xgcd(n1, n2)
    y, z, g = xgcd(g12, n3)
    return (x1 * y, x2 * y, z) if g == 1 else None


def kernel_basis_int(n: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Row Hermite basis of the saturated rank-two lattice {x in Z^3 : n . x = 0}.

    Requires n primitive.  With s*n2 + t*n3 = g = gcd(n2, n3), gcd(n1, g) = 1,
    so the first coordinates of the kernel are the multiples of g, reached by
    (g, -n1*s, -n1*t); the kernel rows with first coordinate 0 are the
    multiples of (0, n3, -n2)/g.  The first row is reduced modulo the pivot
    of the second; for g = 0 the kernel is x1 = 0.
    """
    if vec_content(n) != 1:
        raise ValueError("normal vector must be primitive")
    n1, n2, n3 = n
    s, t, g = xgcd(n2, n3)
    if g == 0:
        return [(0, 1, 0), (0, 0, 1)]
    b1 = (g, -n1 * s, -n1 * t)
    b2 = lex_sign((0, n3 // g, -n2 // g))
    p = 1 if b2[1] else 2
    k = b1[p] // b2[p]
    return [tuple(x - k * y for x, y in zip(b1, b2)), b2]


def frac_str(x) -> str:
    """Canonical string for an exact rational: '3', '-5/2'."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def sqrt_str(t2) -> str:
    """Display sqrt(t2) exactly: rational if possible, else 'sqrt(p/q)'."""
    t2 = Fraction(t2)
    root = frac_sqrt(t2)
    if root is not None:
        return frac_str(root)
    return f"sqrt({frac_str(t2)})"
