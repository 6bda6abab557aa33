"""Mukai-lattice arithmetic for a Picard-rank-one K3 surface.

A class is an integer triple (r, c, s): rank, degree in multiples of the
polarization H, and the degree-four component.  The pairing is the even
bilinear form (x, y) = c_x*c_y*H^2 - r_x*s_y - r_y*s_x of signature (2,1)
on the rank-three algebraic lattice.
"""
from __future__ import annotations

from dataclasses import dataclass

from .intmath import mat_mul, mat_vec


@dataclass(frozen=True)
class K3Config:
    """Polarized K3 surface of genus g >= 2 with Pic = Z*H, H^2 = 2g - 2."""

    genus: int = 2

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError(f"genus must be >= 2, got {self.genus}")

    @property
    def h2(self) -> int:
        return 2 * self.genus - 2


@dataclass(frozen=True)
class MukaiVector:
    r: int
    c: int
    s: int

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, self.c + other.c, self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r, self.c - other.c, self.s - other.s)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, -self.c, -self.s)

    def __rmul__(self, k: int) -> "MukaiVector":
        return MukaiVector(k * self.r, k * self.c, k * self.s)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.r, self.c, self.s)

    @property
    def is_zero(self) -> bool:
        return self.r == 0 and self.c == 0 and self.s == 0

    def __str__(self) -> str:
        return f"({self.r},{self.c},{self.s})"


def mv(r: int, c: int, s: int) -> MukaiVector:
    return MukaiVector(r, c, s)


def pairing(cfg: K3Config, x: MukaiVector, y: MukaiVector) -> int:
    return x.c * y.c * cfg.h2 - x.r * y.s - y.r * x.s


def pairing_row(cfg: K3Config, v: MukaiVector) -> tuple[int, int, int]:
    """Row vector of the functional x -> (x, v) in coordinates (r, c, s)."""
    return (-v.s, cfg.h2 * v.c, -v.r)


def square(cfg: K3Config, x: MukaiVector) -> int:
    return pairing(cfg, x, x)


@dataclass(frozen=True)
class GramForm2:
    """Gram matrix of a rank-two lattice in an ordered basis (b1, b2).

    Points are coordinate pairs (x, y) meaning x*b1 + y*b2.
    """

    q11: int
    q12: int
    q22: int

    @property
    def disc_prime(self) -> int:
        # positive exactly for signature (1,1)
        return self.q12 * self.q12 - self.q11 * self.q22

    def value(self, p: int, q: int) -> int:
        return self.q11 * p * p + 2 * self.q12 * p * q + self.q22 * q * q

    def pair(self, x: tuple[int, int], y: tuple[int, int]) -> int:
        return (self.q11 * x[0] * y[0] + self.q12 * (x[0] * y[1] + x[1] * y[0])
                + self.q22 * x[1] * y[1])

    def coords(self, p1: int, p2: int) -> tuple[int, int]:
        """The integer (x, y) whose pairings with b1 and b2 are p1 and p2.

        Cramer's rule on the Gram matrix; ValueError when the form is
        degenerate or the solution is not integral.
        """
        det = -self.disc_prime
        if det == 0:
            raise ValueError("the form is degenerate: pairings do not fix coordinates")
        x, rx = divmod(p1 * self.q22 - p2 * self.q12, det)
        y, ry = divmod(p2 * self.q11 - p1 * self.q12, det)
        if rx or ry:
            raise ValueError(f"pairings ({p1}, {p2}) have no integral coordinates")
        return x, y


def moduli_dim(cfg: K3Config, v: MukaiVector) -> int:
    """Dimension (v,v) + 2 of the moduli space of objects of class v."""
    sq = square(cfg, v)
    if sq < -2:
        raise ValueError(f"square {sq} < -2: no nonempty moduli space")
    return sq + 2


def hilbert_n(cfg: K3Config, v: MukaiVector) -> int:
    """The n with dim 2n = (v,v) + 2, i.e. the Hilbert-scheme size."""
    sq = square(cfg, v)
    if sq < 2 or sq % 2 != 0:
        raise ValueError(f"square must be a positive even integer, got {sq}")
    return sq // 2 + 1


def line_bundle_vector(cfg: K3Config, k: int) -> MukaiVector:
    """Class of the line bundle O(kH); always has square -2."""
    return MukaiVector(1, k, k * k * cfg.h2 // 2 + 1)


@dataclass(frozen=True)
class Isometry:
    """Lattice isometry as its 3x3 integer matrix, acting on column vectors (r, c, s)^T."""

    matrix: tuple[tuple[int, int, int], ...]

    def apply(self, x: MukaiVector) -> MukaiVector:
        return MukaiVector(*mat_vec(self.matrix, x.as_tuple()))

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(mat_mul(self.matrix, other.matrix))


def tensor_isometry(cfg: K3Config, k: int) -> Isometry:
    """Multiply by exp(kH): (r, c, s) -> (r, c + kr, s + H^2(kc + k^2 r/2))."""
    e = cfg.h2
    return Isometry(((1, 0, 0), (k, 1, 0), (e * k * k // 2, e * k, 1)))


def reflection_isometry(cfg: K3Config, w: MukaiVector) -> Isometry:
    """Reflection x -> x + (x,w)w at the hyperplane orthogonal to a (-2)-class."""
    if square(cfg, w) != -2:
        raise ValueError(f"reflection class must have square -2, got {square(cfg, w)}")
    row = pairing_row(cfg, w)
    return Isometry(tuple(
        tuple(int(i == j) + wi * rj for j, rj in enumerate(row))
        for i, wi in enumerate(w.as_tuple())
    ))


def dual_isometry() -> Isometry:
    """Derived dual on classes: (r, c, s) -> (r, -c, s)."""
    return Isometry(((1, 0, 0), (0, -1, 0), (0, 0, 1)))


def twist_T(cfg: K3Config) -> Isometry:
    """Reflection at the O(-2H)-class composed with tensoring by O(-2H).

    Exchanges the support-fibration side and the Hilbert-scheme side of the
    rank-two system; for genus two the matrix is [[0,0,-1],[0,1,2],[-1,-4,-4]].
    """
    return reflection_isometry(cfg, line_bundle_vector(cfg, -2)) @ tensor_isometry(cfg, -2)
