"""Mukai-lattice arithmetic for a Picard-rank-one K3 surface.

A class is an integer triple (r, c, s): rank, degree in multiples of the
polarization H, and the degree-four component.  The pairing is the even
bilinear form (x, y) = c_x*c_y*H^2 - r_x*s_y - r_y*s_x of signature (2,1)
on the rank-three algebraic lattice.
"""
from __future__ import annotations

from dataclasses import dataclass

from .intmath import MAT_IDENTITY, mat_det3, mat_mul, mat_vec


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


def square(cfg: K3Config, x: MukaiVector) -> int:
    return pairing(cfg, x, x)


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


def tensor_by(cfg: K3Config, k: int, x: MukaiVector) -> MukaiVector:
    """Multiply by exp(kH): (r, c, s) -> (r, c + kr, s + H^2(kc + k^2 r/2))."""
    e = cfg.h2
    return MukaiVector(x.r, x.c + k * x.r, x.s + e * k * x.c + e * k * k * x.r // 2)


def reflect_spherical(cfg: K3Config, w: MukaiVector, x: MukaiVector) -> MukaiVector:
    """Reflection x -> x + (x,w)w at the hyperplane orthogonal to a (-2)-class."""
    if square(cfg, w) != -2:
        raise ValueError(f"reflection class must have square -2, got {square(cfg, w)}")
    return x + pairing(cfg, x, w) * w


def dual_vector(x: MukaiVector) -> MukaiVector:
    """Derived dual on classes: (r, c, s) -> (r, -c, s)."""
    return MukaiVector(x.r, -x.c, x.s)


@dataclass(frozen=True)
class Isometry:
    """Lattice isometry carrying a symbolic kind and its 3x3 integer matrix.

    Matrices act on column vectors (r, c, s)^T; equality is matrix equality.
    """

    kind: str
    matrix: tuple[tuple[int, int, int], ...]

    def __eq__(self, other) -> bool:
        return isinstance(other, Isometry) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def apply(self, x: MukaiVector) -> MukaiVector:
        return MukaiVector(*mat_vec(self.matrix, x.as_tuple()))

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(f"{self.kind}*{other.kind}", mat_mul(self.matrix, other.matrix))

    @property
    def det(self) -> int:
        return mat_det3(self.matrix)


def _matrix_of(fn) -> tuple[tuple[int, int, int], ...]:
    basis = (MukaiVector(1, 0, 0), MukaiVector(0, 1, 0), MukaiVector(0, 0, 1))
    cols = [fn(b).as_tuple() for b in basis]
    return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))


def identity_isometry() -> Isometry:
    return Isometry("id", MAT_IDENTITY)


def tensor_isometry(cfg: K3Config, k: int) -> Isometry:
    return Isometry(f"tensor({k})", _matrix_of(lambda x: tensor_by(cfg, k, x)))


def reflection_isometry(cfg: K3Config, w: MukaiVector) -> Isometry:
    if square(cfg, w) != -2:
        raise ValueError(f"reflection class must have square -2, got {square(cfg, w)}")
    return Isometry(f"reflect{w}", _matrix_of(lambda x: reflect_spherical(cfg, w, x)))


def dual_isometry() -> Isometry:
    return Isometry("dual", _matrix_of(dual_vector))


def twist_T(cfg: K3Config) -> Isometry:
    """Reflection at the O(-2H)-class composed with tensoring by O(-2H).

    Exchanges the support-fibration side and the Hilbert-scheme side of the
    rank-two system; for genus two the matrix is [[0,0,-1],[0,1,2],[-1,-4,-4]].
    """
    w = line_bundle_vector(cfg, -2)
    iso = reflection_isometry(cfg, w) @ tensor_isometry(cfg, -2)
    return Isometry("twist_T", iso.matrix)
