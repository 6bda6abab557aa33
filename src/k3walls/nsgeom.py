"""Neron-Severi geometry of the moduli space attached to a class v.

The orthogonal complement of v inside the rank-three algebraic lattice is
identified with NS of the moduli space; wall divisors, divisibilities and
curve classes are computed there with exact arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intmath import (
    coords_in_basis,
    cross3,
    frac_str,
    kernel_basis_int,
    lex_sign,
    primitive_vector,
    vec_content,
)
from .lattice import K3Config, MukaiVector, hilbert_n, pairing, square


def pairing_row(cfg: K3Config, v: MukaiVector) -> tuple[int, int, int]:
    """Row vector of the functional x -> (x, v) in coordinates (r, c, s)."""
    return (-v.s, cfg.h2 * v.c, -v.r)


@dataclass(frozen=True)
class NSBasis:
    """Integral basis (e1, e2) of the rank-two lattice v-perp."""

    v: MukaiVector
    e1: MukaiVector
    e2: MukaiVector
    labels: tuple[str, str]

    def gram(self, cfg: K3Config) -> tuple[int, int, int]:
        return (
            square(cfg, self.e1),
            pairing(cfg, self.e1, self.e2),
            square(cfg, self.e2),
        )

    def coords(self, x: MukaiVector) -> tuple[Fraction, Fraction]:
        co = coords_in_basis(self.e1.as_tuple(), self.e2.as_tuple(), x.as_tuple())
        if co is None:
            raise ValueError(f"{x} does not lie in the span of the basis")
        return co

    def int_coords(self, x: MukaiVector) -> tuple[int, int]:
        a, b = self.coords(x)
        if a.denominator != 1 or b.denominator != 1:
            raise ValueError(f"{x} is not integral in this basis")
        return int(a), int(b)

    def from_coords(self, x, y) -> MukaiVector:
        return x * self.e1 + y * self.e2


def lambda_basis(cfg: K3Config, v: MukaiVector) -> NSBasis:
    """Basis of v-perp; classes (1, 0, s) get the Hilbert-scheme convention.

    For v = (1, 0, 1-n) the basis is delta = (-1, 0, 1-n) (half the
    exceptional divisor) and H = (0, -1, 0) (the symmetric-product
    polarization); otherwise a deterministic Hermite-reduced basis.
    """
    if vec_content(v.as_tuple()) != 1:
        raise ValueError(f"v = {v} is not primitive")
    if square(cfg, v) <= 0:
        raise ValueError("v must have positive square")
    if v.r == 1 and v.c == 0 and v.s < 0:
        delta = MukaiVector(-1, 0, v.s)
        hclass = MukaiVector(0, -1, 0)
        return NSBasis(v, delta, hclass, ("delta", "H"))
    b1, b2 = (lex_sign(r) for r in kernel_basis_int(primitive_vector(pairing_row(cfg, v))))
    return NSBasis(v, MukaiVector(*b1), MukaiVector(*b2), ("e1", "e2"))


@dataclass(frozen=True)
class NSClass:
    """Divisor class in NS given by integer coordinates in an NSBasis."""

    coords: tuple[int, int]
    vec: MukaiVector
    bbf_square: int


@dataclass(frozen=True)
class CurveClass:
    """Curve class dual to a divisor: the divisor divided by its divisibility."""

    divisor: NSClass
    divisibility: int
    coords: tuple[Fraction, Fraction]
    bbf_square: Fraction


def orthogonal_line_generator(
    cfg: K3Config, v: MukaiVector, a: MukaiVector
) -> MukaiVector:
    """Primitive generator of the rank-one orthogonal complement of <v, a>."""
    w = cross3(pairing_row(cfg, v), pairing_row(cfg, a))
    return MukaiVector(*lex_sign(primitive_vector(w)))


def wall_divisor(
    cfg: K3Config, v: MukaiVector, a: MukaiVector, basis: NSBasis
) -> NSClass:
    """Primitive integral positive multiple of the v-perp projection of a."""
    vsq = square(cfg, v)
    av = pairing(cfg, a, v)
    raw = vsq * a - av * v  # vsq * proj: positive multiple of the projection
    if raw.is_zero:
        raise ValueError("a is proportional to v")
    g = vec_content(raw.as_tuple())
    vec = MukaiVector(*(x // g for x in raw.as_tuple()))
    return NSClass(basis.int_coords(vec), vec, square(cfg, vec))


def divisibility(cfg: K3Config, v: MukaiVector, d_vec: MukaiVector) -> int:
    """gcd of pairings of D against the orthogonal complement of v.

    Computed inside the full unimodular extended lattice, where it equals
    the index of Z*D + Z*v in its saturation.
    """
    if d_vec.is_zero:
        raise ValueError("zero divisor")
    normal = primitive_vector(cross3(d_vec.as_tuple(), v.as_tuple()))
    b1, b2 = kernel_basis_int(normal)
    c1 = coords_in_basis(b1, b2, d_vec.as_tuple())
    c2 = coords_in_basis(b1, b2, v.as_tuple())
    det = c1[0] * c2[1] - c1[1] * c2[0]
    assert det.denominator == 1 and det != 0
    return abs(int(det))


def curve_class(cfg: K3Config, v: MukaiVector, divisor: NSClass) -> CurveClass:
    div = divisibility(cfg, v, divisor.vec)
    coords = (Fraction(divisor.coords[0], div), Fraction(divisor.coords[1], div))
    return CurveClass(divisor, div, coords, Fraction(divisor.bbf_square, div * div))


def combo_str(coords, labels) -> str:
    """Human form of x*label1 + y*label2, e.g. '4H-3delta' or '-delta'."""
    parts = []
    for coef, label in zip(coords, labels):
        coef = Fraction(coef)
        if coef == 0:
            continue
        sign = "-" if coef < 0 else ("+" if parts else "")
        mag = abs(coef)
        if mag == 1:
            mag_str = ""
        elif mag.denominator == 1:
            mag_str = str(mag.numerator)
        else:
            mag_str = frac_str(mag) + "*"
        parts.append(f"{sign}{mag_str}{label}")
    if not parts:
        return "0"
    return "".join(parts)


def divisor_str(divisor: NSClass, basis: NSBasis) -> str:
    # print the polarization-type coordinate first, matching common usage
    x, y = divisor.coords
    if basis.labels == ("delta", "H"):
        return combo_str((y, x), ("H", "delta"))
    return combo_str((x, y), basis.labels)


def curve_str(curve: CurveClass, basis: NSBasis, cfg: K3Config) -> str:
    x, y = curve.coords
    if basis.labels == ("delta", "H"):
        n = hilbert_n(cfg, basis.v)
        dual_coef = x * (2 * n - 2)
        if dual_coef.denominator == 1 and y.denominator == 1:
            return combo_str((y, dual_coef), ("H", "deltav"))
        return combo_str((y, x), ("H", "delta"))
    return combo_str((x, y), basis.labels)
