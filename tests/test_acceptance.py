"""Acceptance suite: one test per shipping criterion, exact comparisons only.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""
import functools
import json
import random
from fractions import Fraction

from k3walls import (
    K3Config,
    classify,
    effective_decompositions,
    enumerate_result,
    flop_cells,
    mv,
    survey,
)
from k3walls.lattice import (
    dual_isometry,
    line_bundle_vector,
    pairing,
    reflection_isometry,
    tensor_isometry,
    twist_T,
)
from k3walls.report import render_json, walls_document_from_survey
from k3walls.stability import numerical_wall, path_crossings
from oracles import coords_in_basis, cross_value, lattice_points_in_parallelogram

CFG = K3Config(2)
VP = mv(1, 0, -4)
VM = mv(0, 2, -1)


def splits(wall):
    """The two-part effective splittings, as (a, b, dec) with a the smaller square."""
    decs = effective_decompositions(CFG, wall, classify(CFG, wall))
    return [(*dec.parts, dec) for dec in decs.two_part]


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except AssertionError:
                print(f"ACCEPTANCE {number} FAIL: {label}")
                raise
            print(f"ACCEPTANCE {number} PASS: {label}")

        return run

    return wrap


def _sign_matched(got, want):
    return got == want or got == tuple(-x for x in want)


@criterion(1, "Hilbert-side wall table reproduced column for column")
def test_criterion_1_hilbert_side_table():
    doc = walls_document_from_survey(survey(CFG, VP))
    walls = doc["walls"]
    assert len(walls) == 6
    expected_a = [(0, 0, 1), (1, -1, 2), (1, -1, 1), (-1, 2, -5), (2, -3, 5), (-1, 2, -4)]
    expected_sq = [0, -2, 0, -2, -2, 0]
    expected_av = [1, 2, 3, 1, 3, 0]
    expected_d = [(0, -1), (4, -3), (8, -5), (-16, 9), (24, -13), (-2, 1)]  # (H, delta)
    expected_qd = [-8, -40, -72, -136, -200, 0]
    expected_div = [8, 4, 8, 8, 8, 2]
    expected_qr = ["-1/8", "-5/2", "-9/8", "-17/8", "-25/8", "0"]
    for row, a, sq, av, d, qd, dv, qr in zip(
        walls, expected_a, expected_sq, expected_av, expected_d, expected_qd,
        expected_div, expected_qr,
    ):
        assert _sign_matched(tuple(row["a"]), a)
        assert row["a2"] == sq
        assert abs(row["av"]) == av
        got_d = (row["D"][1], row["D"][0])  # stored as (delta, H)
        assert _sign_matched(got_d, d)
        assert row["qD"] == qd
        assert row["div"] == dv
        assert row["qR"] == qr


@criterion(2, "fibration-side wall table and fiber dimensions in path order")
def test_criterion_2_fibration_side_table():
    doc = walls_document_from_survey(survey(CFG, VM))
    walls = doc["walls"]
    assert len(walls) == 6
    expected_a = [(-1, 0, 0), (-2, 1, -1), (-1, 1, -1), (1, 0, 1), (-1, 1, -2), (0, 0, 1)]
    for row, a in zip(walls, expected_a):
        assert _sign_matched(tuple(row["a"]), a)
    assert [row["r"] for row in walls[1:5]] == [3, 2, 2, 4]
    assert [row["a2"] for row in walls] == [0, -2, 0, -2, -2, 0]
    assert [abs(row["av"]) for row in walls] == [1, 2, 3, 1, 3, 0]


@criterion(3, "composite isometry matrix and table transport")
def test_criterion_3_twist():
    T = twist_T(CFG)
    assert T.matrix == ((0, 0, -1), (0, 1, 2), (-1, -4, -4))
    assert T.apply(VM) == VP
    pairs = [
        ((-1, 0, 0), (0, 0, 1)),
        ((-2, 1, -1), (1, -1, 2)),
        ((-1, 1, -1), (1, -1, 1)),
        ((1, 0, 1), (-1, 2, -5)),
        ((-1, 1, -2), (2, -3, 5)),
        ((0, 0, 1), (-1, 2, -4)),
    ]
    for a, a_prime in pairs:
        image = T.apply(mv(*a)).as_tuple()
        assert _sign_matched(image, a_prime)


@criterion(4, "five birational models, four flops, no total semistability inside")
def test_criterion_4_five_models():
    sv = survey(CFG, VP)
    assert sv.chambers == 5
    assert len(sv.records[1:-1]) == 4
    for rec in sv.records[1:-1]:
        assert rec.verdict.kind == "flopping"
        assert not rec.verdict.totally_semistable
    assert sv.records[0].verdict.kind == "divisorial"
    assert sv.records[-1].verdict.kind == "lagrangian"


@criterion(5, "exceptional-locus bundle data on every interior wall")
def test_criterion_5_bundles():
    expected = [
        (3, {0, 4}, 7, 3),
        (2, {2, 4}, 8, 2),
        (2, {0, 6}, 8, 2),
        (4, {0, 2}, 6, 4),
    ]
    for v in (VP, VM):
        walls = enumerate_result(CFG, v).walls
        for wall, (fiber, bases, total, codim) in zip(walls[1:5], expected):
            a, b, _ = splits(wall)[0]
            desc = flop_cells(CFG, effective_decompositions(CFG, wall, classify(CFG, wall)))[0]
            assert (desc.a, desc.b) == (a, b)
            assert desc.fiber_dim == fiber
            assert set(desc.base_dims) == bases
            # the locus has dimension base + fiber and codimension fiber
            assert sum(desc.base_dims) + desc.fiber_dim == total
            assert desc.fiber_dim == codim


@criterion(6, "stability-path crossings with exact parameters and hole flag")
def test_criterion_6_paths():
    crossings = path_crossings(CFG, enumerate_result(CFG, VP).walls, -2)
    by_wall = {cr.wall_index: cr for cr in crossings}
    assert by_wall[1].t2 == Fraction(4)
    assert by_wall[2].t2 == Fraction(2)
    assert by_wall[4].t2 == Fraction(2, 3)
    assert by_wall[3].t2 == Fraction(1)
    assert by_wall[3].hole_collision == mv(1, -2, 5)
    assert all(cr.hole_collision is None for i, cr in by_wall.items() if i != 3)

    narrowed = path_crossings(CFG, enumerate_result(CFG, VM).walls, 0, t_min=1)
    assert [(cr.wall_index, cr.t2) for cr in narrowed] == [(4, Fraction(3, 2))]


@criterion(7, "no interior decomposition admits a lattice refinement")
def test_criterion_7_no_refinement():
    for v in (VP, VM):
        for wall in enumerate_result(CFG, v).walls[1:5]:
            for a, b, dec in splits(wall):
                # vertex coordinates of (0, a, v-a, v) in the lattice basis (v, wall.a)
                p, q = coords_in_basis(v.as_tuple(), wall.a.as_tuple(), a.as_tuple())
                assert lattice_points_in_parallelogram((int(p), int(q)), (1, 0)) == []
                assert not dec.refinable


@criterion(8, "box-scan oracle finds no wall missing from the enumeration")
def test_criterion_8_oracle():
    from test_walls import _brute_mov_rays

    for v in (VP, VM, mv(1, 0, -1), mv(0, 1, -1)):
        brute, enumerated = _brute_mov_rays(v)
        assert brute <= enumerated, (v, brute - enumerated)
    small = enumerate_result(CFG, mv(1, 0, -1)).walls
    assert len(small) == 3
    assert classify(CFG, small[1]).kind == "flopping"


@criterion(9, "exact invariant suites: isometries, roots, curves, round trip")
def test_criterion_9_invariants():
    rng = random.Random(2026)
    isos = [
        twist_T(CFG),
        tensor_isometry(CFG, -2),
        reflection_isometry(CFG, line_bundle_vector(CFG, -2)),
        dual_isometry(),
    ]
    vecs = [
        mv(rng.randint(-60, 60), rng.randint(-60, 60), rng.randint(-60, 60))
        for _ in range(1000)
    ]
    w = line_bundle_vector(CFG, -1)
    for i in range(0, len(vecs), 2):
        x, y = vecs[i], vecs[i + 1]
        for iso in isos:
            assert pairing(CFG, iso.apply(x), iso.apply(y)) == pairing(CFG, x, y)
        assert reflection_isometry(CFG, w).apply(reflection_isometry(CFG, w).apply(x)) == x

    for v, b0 in ((VP, Fraction(-2)), (VM, Fraction(0)), (VM, Fraction(-1, 3))):
        for cr in path_crossings(CFG, enumerate_result(CFG, v).walls, b0):
            assert cross_value(numerical_wall(CFG, v, cr.a), b0, cr.t2) == 0

    for v in (VP, VM, mv(1, 0, -1)):
        doc = walls_document_from_survey(survey(CFG, v))
        for row in doc["walls"]:
            qr = Fraction(row["qR"])
            assert qr * row["div"] ** 2 == row["qD"]
        assert json.loads(render_json(doc)) == doc
