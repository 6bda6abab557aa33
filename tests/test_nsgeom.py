from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from k3walls import K3Config, enumerate_result, mv, survey
from k3walls.analysis import chain_structure_check, transport_check
from k3walls.intmath import cross3, kernel_basis_int, vec_content
from k3walls.lattice import (
    GramForm2,
    hilbert_n,
    line_bundle_vector,
    pairing,
    reflection_isometry,
    square,
    tensor_isometry,
    twist_T,
)
from k3walls.nsgeom import combo_str, curve_class, divisibility, lambda_basis, wall_divisor
from k3walls.walls import SectorError
from oracles import coords_in_basis, divisibility_by_coordinates, kernel_basis_by_row_reduction

CFG = K3Config(2)
VP = mv(1, 0, -4)
VM = mv(0, 2, -1)


def test_lambda_basis_hilbert_convention():
    basis = lambda_basis(CFG, VP)
    assert basis.labels == ("delta", "H")
    assert basis.e1 == mv(-1, 0, -4)
    assert basis.e2 == mv(0, -1, 0)
    assert basis.gram == GramForm2(-8, 0, 2)


def test_lambda_basis_general():
    basis = lambda_basis(CFG, VM)
    for e in (basis.e1, basis.e2):
        assert pairing(CFG, e, VM) == 0
    assert basis.gram.disc_prime == 16  # same discriminant as the Hilbert side
    with pytest.raises(ValueError):
        lambda_basis(CFG, mv(2, 0, -8))
    with pytest.raises(ValueError):
        lambda_basis(CFG, mv(1, 0, 1))


def _check_kernel_basis(n):
    if vec_content(n) != 1:
        with pytest.raises(ValueError, match="primitive"):
            kernel_basis_int(n)
        return
    b1, b2 = kernel_basis_int(n)
    assert [b1, b2] == kernel_basis_by_row_reduction(n)
    # a basis of the saturated kernel: both rows solve n . x = 0, and their
    # cross product, the index-weighted normal, is +-n
    assert all(sum(x * y for x, y in zip(n, b)) == 0 for b in (b1, b2))
    assert cross3(b1, b2) in (n, tuple(-x for x in n))


def test_kernel_basis_matches_the_row_reduction_on_small_normals():
    # every n in [-6, 6]^3; the non-primitive ones raise
    for n in product(range(-6, 7), repeat=3):
        _check_kernel_basis(n)


@settings(max_examples=500, deadline=None)
@given(st.tuples(*[st.one_of(st.integers(-30, 30), st.integers(-10**9, 10**9))] * 3))
def test_kernel_basis_matches_the_row_reduction(n):
    _check_kernel_basis(n)


# expected wall table on the Hilbert side: (D in (H, delta)-coefficients,
# q(D), divisibility, q(R)); signs are fixed only up to the global flip
VP_TABLE = [
    ((0, -1), -8, 8, Fraction(-1, 8)),
    ((4, -3), -40, 4, Fraction(-5, 2)),
    ((8, -5), -72, 8, Fraction(-9, 8)),
    ((-16, 9), -136, 8, Fraction(-17, 8)),
    ((24, -13), -200, 8, Fraction(-25, 8)),
    ((-2, 1), 0, 2, Fraction(0)),
]


def test_wall_divisors_and_curves_hilbert_side():
    basis = lambda_basis(CFG, VP)
    walls = enumerate_result(CFG, VP).walls
    assert len(walls) == 6
    for wall, (hd, qd, div, qr) in zip(walls, VP_TABLE):
        d = wall_divisor(CFG, VP, wall.a, basis)
        # coords are stored as (delta, H); compare as (H, delta) up to sign
        got = (d.coords[1], d.coords[0])
        assert got == hd or got == (-hd[0], -hd[1])
        assert d.bbf_square == qd
        assert pairing(CFG, d.vec, VP) == 0
        cur = curve_class(CFG, VP, d)
        assert cur.divisibility == div
        assert cur.bbf_square == qr
        assert cur.bbf_square == Fraction(d.bbf_square, div * div)


VECTORS = st.tuples(*[st.integers(-9, 9)] * 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), VECTORS, VECTORS)
def test_divisibility_matches_coordinate_index(g, vt, at):
    # the content of D x v is the index the coordinate oracle computes, for
    # the wall divisor of <v, a> and for a itself
    cfg = K3Config(g)
    v, a = mv(*vt), mv(*at)
    assume(vec_content(vt) == 1 and square(cfg, v) > 0 and any(cross3(vt, at)))
    d = wall_divisor(cfg, v, a, lambda_basis(cfg, v)).vec
    for x in (d, a):
        assert divisibility(cfg, v, x) == divisibility_by_coordinates(v, x)


@pytest.mark.parametrize("g", range(2, 13), ids=lambda g: f"g{g}")
def test_divisibility_matches_delta_gcd_formula(g):
    # D = x*delta + y*H has divisibility gcd(y, (2n-2)*x), so the curve
    # D/div has integer coefficients y/div and (2n-2)*x/div in (H, delta-dual)
    cfg = K3Config(g)
    for v in (mv(1, 0, 1 - n) for n in range(2, 41)):
        try:
            walls = enumerate_result(cfg, v).walls
        except SectorError:
            continue
        basis = lambda_basis(cfg, v)
        n = hilbert_n(cfg, v)
        for wall in walls:
            d = wall_divisor(cfg, v, wall.a, basis)
            delta_coef, h_coef = d.coords
            assert divisibility(cfg, v, d.vec) == gcd(h_coef, (2 * n - 2) * delta_coef)
            x, y = curve_class(cfg, v, d).coords
            assert y.denominator == 1 and (x * (2 * n - 2)).denominator == 1


def test_divisors_pairwise_non_proportional():
    for v in (VP, VM):
        basis = lambda_basis(CFG, v)
        divisors = [wall_divisor(CFG, v, w.a, basis).coords for w in enumerate_result(CFG, v).walls]
        for i, d1 in enumerate(divisors):
            for d2 in divisors[i + 1 :]:
                assert d1[0] * d2[1] - d1[1] * d2[0] != 0


def test_curve_square_scaling_invariant():
    for v in (VP, VM, mv(1, 0, -1)):
        basis = lambda_basis(CFG, v)
        for wall in enumerate_result(CFG, v).walls:
            d = wall_divisor(CFG, v, wall.a, basis)
            cur = curve_class(CFG, v, d)
            assert cur.bbf_square * cur.divisibility**2 == d.bbf_square


def test_chamber_chain_counts():
    sv = survey(CFG, VP)
    interior = sv.records[1:-1]
    assert sv.chambers == 5
    assert len(interior) == 4
    assert all(r.verdict.is_flopping for r in interior)
    assert tuple(r.bundle.fiber_dim for r in interior if r.bundle) == (3, 2, 2, 4)
    small = survey(CFG, mv(1, 0, -1))
    assert small.chambers == 2
    assert len(small.records[1:-1]) == 1
    assert small.records[1].verdict.is_flopping


def test_chain_transport_under_twist():
    assert transport_check(CFG, VM, twist_T(CFG))


@pytest.mark.parametrize("genus", range(2, 13))
def test_chain_transport_under_twist_every_genus(genus):
    cfg = K3Config(genus)
    assert transport_check(cfg, mv(0, 2, -1), twist_T(cfg))


def test_chain_transport_under_tensor():
    assert transport_check(CFG, mv(1, 0, -1), tensor_isometry(CFG, 1))
    assert transport_check(CFG, VP, tensor_isometry(CFG, -1))


def test_chain_structure_survives_reflection():
    # a reflection moves the chain by the divisorial Weyl action: the walls
    # change representatives but counts, kinds and cell dimensions agree
    iso = reflection_isometry(CFG, line_bundle_vector(CFG, -1))
    assert chain_structure_check(CFG, mv(0, 1, -1), iso)
    assert chain_structure_check(CFG, VP, iso)


def test_combo_str():
    assert combo_str((4, -3), ("H", "delta")) == "4H-3delta"
    assert combo_str((0, -1), ("H", "delta")) == "-delta"
    assert combo_str((0, 0), ("H", "delta")) == "0"
    assert combo_str((Fraction(1), Fraction(-3, 4)), ("H", "delta")) == "H-3/4*delta"


TRIPLES = st.tuples(*[st.integers(-9, 9)] * 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.booleans(), st.integers(2, 40), TRIPLES, TRIPLES)
def test_int_coords_match_the_minor_oracle(g, hilbert, n, vt, yt):
    # y projects to the member w = v^2*y - (y, v)*v of v-perp, whose
    # coordinates in the Hilbert or the Hermite-reduced basis are integral;
    # a class off v-perp, such as w + v, has none
    cfg = K3Config(g)
    v = mv(1, 0, 1 - n) if hilbert else mv(*vt)
    assume(vec_content(v.as_tuple()) == 1 and square(cfg, v) > 0)
    basis = lambda_basis(cfg, v)
    assert (basis.labels == ("delta", "H")) == (v.r == 1 and v.c == 0 and v.s < 0)
    y = mv(*yt)
    w = square(cfg, v) * y - pairing(cfg, y, v) * v
    exact = coords_in_basis(basis.e1.as_tuple(), basis.e2.as_tuple(), w.as_tuple())
    assert basis.int_coords(cfg, w) == exact
    assert basis.from_coords(*basis.int_coords(cfg, w)) == w
    assert coords_in_basis(basis.e1.as_tuple(), basis.e2.as_tuple(), (w + v).as_tuple()) is None
    with pytest.raises(ValueError, match="v-perp"):
        basis.int_coords(cfg, w + v)
