import random
from fractions import Fraction

import pytest

from k3walls import K3Config, classify, mv
from k3walls.intmath import cross3
from k3walls.lattice import pairing, pairing_row, square
from k3walls.solvers import gram_of
from k3walls.stability import (
    AlignmentFunctional,
    hole_point,
    holes,
    numerical_wall,
    path_crossings,
    spherical_members,
)
from k3walls.walls import build_wall
from oracles import _charge_parts, alignment_weights_by_fractions, central_charge, cross_value

CFG = K3Config(2)
VP = mv(1, 0, -4)
VM = mv(0, 2, -1)

VP_WALL_CLASSES = [
    mv(0, 0, -1),
    mv(1, -1, 2),
    mv(1, -1, 1),
    mv(-1, 2, -5),
    mv(2, -3, 5),
    mv(1, -2, 4),
]


def test_central_charge_values():
    for t2 in (Fraction(1, 3), Fraction(5), Fraction(9, 2)):
        z = central_charge(CFG, VP, -2, t2)
        assert z.re == t2 and z.im_coeff == 4
    hole = central_charge(CFG, mv(1, -2, 5), -2, 1)
    assert hole.vanishes
    zero = central_charge(CFG, mv(0, 0, 0), Fraction(-7, 3), Fraction(2, 5))
    assert zero.re == 0 and zero.im_coeff == 0
    with pytest.raises(ValueError):
        central_charge(CFG, VP, 0, 0)


def test_alignment_functional_needs_positive_t2():
    for t2 in (0, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="positive"):
            AlignmentFunctional(CFG, VP, -2, t2)


def test_central_charge_additive():
    rng = random.Random(3)
    for _ in range(100):
        x = mv(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
        y = mv(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
        b, t2 = Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(1, 40), 8)
        zx = central_charge(CFG, x, b, t2)
        zy = central_charge(CFG, y, b, t2)
        zs = central_charge(CFG, x + y, b, t2)
        assert zs.re == zx.re + zy.re
        assert zs.im_coeff == zx.im_coeff + zy.im_coeff


def test_numerical_wall_shapes():
    w3 = numerical_wall(CFG, VP, mv(-1, 2, -5))
    assert w3.shape == "semicircle"
    assert w3.center_b == Fraction(-9, 4)
    assert w3.radius_sq == Fraction(17, 16)
    for k in (-3, 0, 2):
        assert numerical_wall(CFG, VM, mv(0, 1, k)).shape == "empty"
    w1 = numerical_wall(CFG, VP, mv(1, -1, 2))
    assert cross_value(w1, -2, 4) == 0
    w0 = numerical_wall(CFG, VP, mv(0, 0, -1))
    assert w0.shape == "vertical" and w0.line_b == 0
    # the degenerate boundary lattice gives a point circle, reported empty
    assert numerical_wall(CFG, VP, mv(1, -2, 4)).shape == "empty"


def test_radius_squared_equals_reduced_discriminant():
    for a in VP_WALL_CLASSES:
        wall = numerical_wall(CFG, VP, a)
        if wall.shape != "semicircle":
            continue
        g = gram_of(CFG, VP, a)
        assert wall.radius_sq == Fraction(g.disc_prime, int(4 * wall.alpha**2))


def holes_of(v, a):
    return holes(CFG, spherical_members(CFG, v, a))


def test_holes():
    got = holes_of(VP, mv(-1, 2, -5))
    assert (Fraction(-2), Fraction(1)) in [(b, t2) for b, t2, _ in got]
    assert any(s == mv(1, -2, 5) for _, _, s in got)
    assert holes_of(VP, mv(1, -1, 1)) == []  # no spherical classes at all
    h1 = [(b, t2) for b, t2, s in holes_of(VP, mv(1, -1, 2)) if s == mv(1, -1, 2)]
    assert h1 == [(Fraction(-1), Fraction(1))]


def test_hole_point_formula():
    assert hole_point(CFG, mv(1, -2, 5)) == (Fraction(-2), Fraction(1))
    assert hole_point(CFG, mv(0, 1, -5)) is None  # rank zero: no vanishing point
    assert hole_point(CFG, mv(1, 0, -1)) is None  # positive square


def test_path_crossings_hilbert_side():
    crossings = path_crossings(CFG, VP, VP_WALL_CLASSES, -2)
    got = {(cr.wall_index, cr.t2) for cr in crossings}
    assert got == {(1, Fraction(4)), (2, Fraction(2)), (3, Fraction(1)), (4, Fraction(2, 3))}
    t2s = [cr.t2 for cr in crossings]
    assert t2s == sorted(t2s, reverse=True)
    flagged = [cr for cr in crossings if cr.hole_collision is not None]
    assert len(flagged) == 1
    assert flagged[0].t2 == 1 and flagged[0].hole_collision == mv(1, -2, 5)
    for cr in crossings:
        assert cross_value(numerical_wall(CFG, VP, cr.a), -2, cr.t2) == 0


def test_path_crossings_fibration_side():
    classes = [mv(1, 0, 0), mv(-2, 1, -1), mv(-1, 1, -1), mv(1, 0, 1), mv(-1, 1, -2), mv(0, 0, 1)]
    crossings = path_crossings(CFG, VM, classes, 0, t_min=1)
    assert [(cr.wall_index, cr.t2) for cr in crossings] == [(4, Fraction(3, 2))]
    full = path_crossings(CFG, VM, classes, 0)
    hit3 = [cr for cr in crossings + full if cr.wall_index == 3]
    assert hit3 and hit3[0].t2 == 1 and hit3[0].hole_collision == mv(1, 0, 1)


def test_path_range_filters():
    # t in (1, 2]: keeps t^2 in (1, 4]
    crossings = path_crossings(CFG, VP, VP_WALL_CLASSES, -2, t_min=1, t_max=2)
    got = {(cr.wall_index, cr.t2) for cr in crossings}
    assert got == {(1, Fraction(4)), (2, Fraction(2))}


@pytest.mark.parametrize("t_min, t_max", [(-1, None), (0, -3), (3, 1), (2, 2)])
def test_path_range_rejects_bad_bounds(t_min, t_max):
    # t is a length: a negative bound or an empty range is an error, not a
    # bound squared into another range or an empty path
    with pytest.raises(ValueError, match="t_m"):
        path_crossings(CFG, VP, VP_WALL_CLASSES, -2, t_min=t_min, t_max=t_max)


def test_path_on_wall_signals():
    with pytest.raises(ValueError):
        path_crossings(CFG, VP, [mv(0, 0, -1)], 0)  # vertical wall at b = 0


def test_alignment_functional_properties():
    for v, a in [
        (VP, mv(1, -1, 2)),
        (VP, mv(-1, 2, -5)),
        (VP, mv(2, -3, 5)),
        (VM, mv(1, 0, 1)),
        (VM, mv(-1, 1, -2)),
    ]:
        func = classify(CFG, build_wall(CFG, v, a)).func
        assert func is not None
        assert func.phi(v) == 1
        assert func.phi(a) > 0
        b = v - a
        assert func.phi(a) + func.phi(b) == 1
        # linearity spot-check
        assert func.phi(a + v) == func.phi(a) + 1


def test_alignment_point_none_for_degenerate():
    assert classify(CFG, build_wall(CFG, VP, mv(1, -2, 4))).func is None
    assert classify(CFG, build_wall(CFG, VM, mv(0, 0, 1))).func is None


from hypothesis import assume, example, given, settings, strategies as st

small = st.integers(min_value=-9, max_value=9)


@given(small, small, small, small, small, small, small, small, st.integers(1, 60))
def test_wall_polynomial_matches_charge_cross_product(
    r1, c1, s1, r2, c2, s2, bn, bd_, t2n
):
    # the (alpha, beta, gamma) locus coefficients times H^2 must equal
    # Re(Z(v)) Im-coeff(Z(a)) - Re(Z(a)) Im-coeff(Z(v)) identically
    from fractions import Fraction as F

    v, a = mv(r1, c1, s1), mv(r2, c2, s2)
    b = F(bn, abs(bd_) + 1)
    t2 = F(t2n, 7)
    wall = numerical_wall(CFG, v, a)
    zv = central_charge(CFG, v, b, t2)
    za = central_charge(CFG, a, b, t2)
    cross = zv.re * za.im_coeff - za.re * zv.im_coeff
    assert CFG.h2 * cross_value(wall, b, t2) == cross


@given(
    st.integers(2, 12),
    small, small, small, small, small, small,
    st.integers(-40, 40), st.integers(1, 12), st.integers(1, 60), st.integers(1, 12),
)
def test_integer_phi_matches_charge_ratio(g, r1, c1, s1, r2, c2, s2, bn, bd, tn, td):
    # phi(x) = N(x)/D with integer N and fixed D > 0 must equal the exact
    # ratio Re(conj Z(v) Z(x)) / |Z(v)|^2 read off central_charge
    from fractions import Fraction as F

    from k3walls import K3Config
    from k3walls.stability import AlignmentFunctional

    cfg = K3Config(g)
    v, x = mv(r1, c1, s1), mv(r2, c2, s2)
    b, t2 = F(bn, bd), F(tn, td)
    func = AlignmentFunctional(cfg, v, b, t2)
    zv = central_charge(cfg, v, b, t2)
    zx = central_charge(cfg, x, b, t2)
    if zv.vanishes:
        with pytest.raises(ValueError):
            func.phi(x)
        return
    assert func.den > 0
    expected = (zv.re * zx.re + t2 * zv.im_coeff * zx.im_coeff) / (
        zv.re**2 + t2 * zv.im_coeff**2
    )
    assert func.phi(x) == expected
    assert func.phi(v) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 12),
    st.tuples(small, small, st.integers(-40, 40)),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
    st.fractions(min_value=0, max_value=200, max_denominator=40),
    st.booleans(),
)
@example(2, (1, 0, 1), Fraction(1), Fraction(1), True)  # v^2 = -2: its hole is (0, 1)
def test_integer_functional_matches_the_fraction_one(g, vt, b, t2, at_hole):
    # weights and den are unique, so scaling by 4q^4 d^2 and by the lcm of
    # the fractions' denominators must agree; at v's own hole den is 0
    cfg, v = K3Config(g), mv(*vt)
    hole = hole_point(cfg, v)
    if at_hole and hole is not None:
        b, t2 = hole
    assume(t2 > 0)
    func = AlignmentFunctional(cfg, v, b, t2)
    assert (func.weights, func.den) == alignment_weights_by_fractions(cfg, v, b, t2)
    if at_hole and hole is not None:
        assert func.den == 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(-20, 20).filter(bool),
    st.integers(-40, 40),
    st.integers(-200, 200),
)
def test_hole_point_charge_vanishes(g, r, c, d):
    # hole_point returns its closed form unchecked; the charge of every
    # negative-square class of nonzero rank vanishes there, at t^2 > 0
    cfg, s = K3Config(g), mv(r, c, d)
    assume(square(cfg, s) < 0)
    b, t2 = hole_point(cfg, s)
    assert t2 > 0
    assert _charge_parts(cfg, s, b, t2) == (0, 0)


@st.composite
def degenerate_planes(draw):
    """(cfg, v, a) spanning a plane whose Gram matrix has a null radical.

    n = (p^2, pq, (g - 1) q^2) is isotropic, x is orthogonal to n, and v, a
    are two independent members of the plane <x, n>.
    """
    g = draw(st.integers(2, 12))
    cfg = K3Config(g)
    p, q = draw(st.tuples(small, small))
    assume((p, q) != (0, 0))
    n = mv(p * p, p * q, (g - 1) * q * q)
    x = mv(*cross3(pairing_row(cfg, n), draw(st.tuples(small, small, small))))
    i, j, k, m = draw(st.tuples(small, small, small, small))
    assume(any(cross3(x.as_tuple(), n.as_tuple())) and i * m - j * k != 0)
    return cfg, i * x + j * n, k * x + m * n


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.tuples(small, small, small), st.tuples(small, small, small))
def test_wall_discriminant_is_the_square_of_the_orthogonal_line(g, vt, at):
    # H^2 (beta^2 - 4 alpha gamma) = (w0, w0) with w0 spanning the line
    # orthogonal to <v, a>, which is positive when <v, a> is hyperbolic:
    # then the numerical wall has a point, so every classified wall samples one
    cfg, v, a = K3Config(g), mv(*vt), mv(*at)
    wall = numerical_wall(cfg, v, a)
    w0 = mv(*cross3(pairing_row(cfg, v), pairing_row(cfg, a)))
    assert cfg.h2 * (wall.beta**2 - 4 * wall.alpha * wall.gamma) == square(cfg, w0)
    if square(cfg, v) * square(cfg, a) - pairing(cfg, v, a) ** 2 < 0:
        assert wall.shape != "empty"


@settings(max_examples=200, deadline=None)
@given(degenerate_planes())
def test_degenerate_planes_have_empty_numerical_walls(case):
    cfg, v, a = case
    assert square(cfg, v) * square(cfg, a) == pairing(cfg, v, a) ** 2
    wall = numerical_wall(cfg, v, a)
    assert wall.shape == "empty"
    assert cfg.h2 * (wall.beta**2 - 4 * wall.alpha * wall.gamma) == 0
