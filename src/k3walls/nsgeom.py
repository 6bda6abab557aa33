"""Neron-Severi geometry of the moduli space attached to a class v.

The orthogonal complement of v inside the rank-three algebraic lattice is
identified with NS of the moduli space; wall divisors, divisibilities and
curve classes are computed there with exact arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intmath import (
    cross3,
    frac_str,
    kernel_basis_int,
    lex_sign,
    primitive_vector,
    vec_content,
)
from .lattice import GramForm2, K3Config, MukaiVector, hilbert_n, pairing, pairing_row, square


@dataclass(frozen=True)
class NSBasis:
    """Integral basis (e1, e2) of the rank-two lattice v-perp, with its Gram form."""

    v: MukaiVector
    e1: MukaiVector
    e2: MukaiVector
    labels: tuple[str, str]
    gram: GramForm2

    def int_coords(self, cfg: K3Config, x: MukaiVector) -> tuple[int, int]:
        """Coordinates of x in v-perp, read off its pairings with the basis."""
        if pairing(cfg, x, self.v) != 0:
            raise ValueError(f"{x} does not lie in v-perp")
        return self.gram.coords(pairing(cfg, x, self.e1), pairing(cfg, x, self.e2))

    def from_coords(self, x, y) -> MukaiVector:
        return x * self.e1 + y * self.e2


def lambda_basis(cfg: K3Config, v: MukaiVector) -> NSBasis:
    """Basis of v-perp; classes (1, 0, s) get the Hilbert-scheme convention.

    For v = (1, 0, 1-n) the basis is delta = (-1, 0, 1-n) (half the
    exceptional divisor) and H = (0, -1, 0) (the symmetric-product
    polarization); otherwise the row Hermite basis.
    """
    if vec_content(v.as_tuple()) != 1:
        raise ValueError(f"v = {v} is not primitive")
    if square(cfg, v) <= 0:
        raise ValueError("v must have positive square")
    if v.r == 1 and v.c == 0 and v.s < 0:
        e1, e2, labels = MukaiVector(-1, 0, v.s), MukaiVector(0, -1, 0), ("delta", "H")
    else:
        b1, b2 = kernel_basis_int(primitive_vector(pairing_row(cfg, v)))
        e1, e2, labels = MukaiVector(*b1), MukaiVector(*b2), ("e1", "e2")
    gram = GramForm2(square(cfg, e1), pairing(cfg, e1, e2), square(cfg, e2))
    return NSBasis(v, e1, e2, labels, gram)


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
    return NSClass(basis.int_coords(cfg, vec), vec, square(cfg, vec))


def divisibility(cfg: K3Config, v: MukaiVector, d_vec: MukaiVector) -> int:
    """gcd of pairings of D against the orthogonal complement of v.

    Computed inside the full unimodular extended lattice, where it equals
    the index of Z*D + Z*v in its saturation: the content of D x v, since
    the cross product of a basis of the saturation is primitive.
    """
    if d_vec.is_zero:
        raise ValueError("zero divisor")
    index = vec_content(cross3(d_vec.as_tuple(), v.as_tuple()))
    if index == 0:
        raise ValueError("D is proportional to v")
    return index


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
    """The curve in the NS basis; on the Hilbert side, in (H, delta-dual).

    There v = (1, 0, 1-n), D = x*delta + y*H = (-x, -y, (1-n)x) and
    D x v = (y(n-1), -(2n-2)x, y), whose content, the divisibility of D, is
    gcd(y, (2n-2)x): the coefficients y/div and (2n-2)x/div are integers.
    """
    x, y = curve.coords
    if basis.labels == ("delta", "H"):
        n = hilbert_n(cfg, basis.v)
        return combo_str((y, x * (2 * n - 2)), ("H", "deltav"))
    return combo_str((x, y), basis.labels)
