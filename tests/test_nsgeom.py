from fractions import Fraction

import pytest

from k3walls import K3Config, enumerate_result, mv, survey
from k3walls.analysis import chain_structure_check, transport_check
from k3walls.lattice import (
    hilbert_n,
    line_bundle_vector,
    pairing,
    reflection_isometry,
    tensor_isometry,
    twist_T,
)
from k3walls.nsgeom import combo_str, curve_class, divisibility, lambda_basis, wall_divisor

CFG = K3Config(2)
VP = mv(1, 0, -4)
VM = mv(0, 2, -1)


def test_lambda_basis_hilbert_convention():
    basis = lambda_basis(CFG, VP)
    assert basis.labels == ("delta", "H")
    assert basis.e1 == mv(-1, 0, -4)
    assert basis.e2 == mv(0, -1, 0)
    assert basis.gram(CFG) == (-8, 0, 2)


def test_lambda_basis_general():
    basis = lambda_basis(CFG, VM)
    for e in (basis.e1, basis.e2):
        assert pairing(CFG, e, VM) == 0
    g11, g12, g22 = basis.gram(CFG)
    assert g11 * g22 - g12 * g12 == -16  # same discriminant as the Hilbert side
    with pytest.raises(ValueError):
        lambda_basis(CFG, mv(2, 0, -8))
    with pytest.raises(ValueError):
        lambda_basis(CFG, mv(1, 0, 1))


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


def test_divisibility_matches_delta_gcd_formula():
    from math import gcd

    basis = lambda_basis(CFG, VP)
    n = hilbert_n(CFG, VP)
    for wall in enumerate_result(CFG, VP).walls:
        d = wall_divisor(CFG, VP, wall.a, basis)
        delta_coef, h_coef = d.coords
        expected = gcd(h_coef, (2 * n - 2) * delta_coef)
        assert divisibility(CFG, VP, d.vec) == expected


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


CELL_NOT_INVARIANT = pytest.mark.xfail(
    strict=True,
    reason="reported flop cell is `cells[0]`, not isometry-invariant (ROADMAP item 2)",
)


@pytest.mark.parametrize(
    "genus",
    [pytest.param(g, marks=CELL_NOT_INVARIANT) if g in (6, 7, 12) else g for g in range(2, 13)],
)
def test_chain_transport_under_twist_every_genus(genus):
    cfg = K3Config(genus)
    assert transport_check(cfg, mv(0, 2, -1), twist_T(cfg))


def test_chain_transport_under_tensor():
    assert transport_check(CFG, mv(1, 0, -1), tensor_isometry(CFG, 1))
    assert transport_check(CFG, VP, tensor_isometry(CFG, -1))


def test_chain_structure_survives_reflection():
    # a reflection moves the chain by the divisorial Weyl action: the walls
    # change representatives but counts, kinds and fiber dimensions agree
    iso = reflection_isometry(CFG, line_bundle_vector(CFG, -1))
    assert chain_structure_check(CFG, mv(0, 1, -1), iso)
    assert chain_structure_check(CFG, VP, iso)


def test_combo_str():
    assert combo_str((4, -3), ("H", "delta")) == "4H-3delta"
    assert combo_str((0, -1), ("H", "delta")) == "-delta"
    assert combo_str((0, 0), ("H", "delta")) == "0"
    assert combo_str((Fraction(1), Fraction(-3, 4)), ("H", "delta")) == "H-3/4*delta"
