import importlib
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from k3walls import (
    K3Config,
    classify,
    effective_decompositions,
    enumerate_result,
    flop_cells,
    mv,
    survey,
    two_part_splits,
)
from k3walls.classify import DIVISORIAL_HC, bundle_descriptor
from k3walls.intmath import coords_in_basis
from k3walls.lattice import pairing, square
from k3walls.walls import build_wall
from oracles import lattice_points_in_parallelogram

CFG = K3Config(2)
VP = mv(1, 0, -4)
VM = mv(0, 2, -1)


def walls_for(v):
    return enumerate_result(CFG, v).walls


def decompositions(wall):
    return effective_decompositions(CFG, wall, classify(CFG, wall))


def splits(wall):
    """The two-part effective splittings, as (a, b, dec) with a the smaller square."""
    return two_part_splits(CFG, decompositions(wall))


def test_hilbert_chow_wall():
    wall = walls_for(VP)[0]
    verdict = classify(CFG, wall)
    assert verdict.kind == "divisorial"
    assert verdict.subtype == DIVISORIAL_HC
    assert verdict.totally_semistable
    isotropic = [c for c in verdict.certificates if c.role == "isotropic_pairing_one"]
    assert isotropic
    w = isotropic[0].cls
    assert square(CFG, w) == 0 and abs(pairing(CFG, w, VP)) == 1
    assert w == mv(0, 0, 1) or w == mv(0, 0, -1)


def test_spherical_flop_wall():
    wall = walls_for(VP)[1]
    verdict = classify(CFG, wall)
    assert verdict.kind == "flopping" and verdict.subtype == "spherical"
    assert not verdict.totally_semistable
    certs = [c.cls for c in verdict.certificates if c.role == "spherical_flop"]
    assert mv(1, -1, 2) in certs


def test_positive_sum_flop_wall():
    wall = walls_for(VP)[2]
    verdict = classify(CFG, wall)
    assert verdict.kind == "flopping" and verdict.subtype == "positive_sum"
    certs = {c.cls.as_tuple() for c in verdict.certificates if c.role == "positive_part"}
    assert certs == {(1, -1, 1), (0, 1, -5)}


def test_lagrangian_boundary():
    for v in (VP, VM):
        wall = walls_for(v)[-1]
        verdict = classify(CFG, wall)
        assert verdict.kind == "lagrangian"
        assert not verdict.totally_semistable


def test_interior_walls_never_totally_semistable():
    for v in (VP, VM):
        for wall in walls_for(v)[1:-1]:
            verdict = classify(CFG, wall)
            assert verdict.kind == "flopping"
            assert not verdict.totally_semistable
            assert not verdict.proxy_flag


def test_certificates_satisfy_their_equations():
    for v in (VP, VM, mv(1, 0, -1)):
        for wall in walls_for(v):
            verdict = classify(CFG, wall)
            for cert in verdict.certificates:
                sq = square(CFG, cert.cls)
                pv = pairing(CFG, cert.cls, v)
                if cert.role == "spherical_orthogonal":
                    assert sq == -2 and pv == 0
                elif cert.role == "isotropic_pairing_one":
                    assert sq == 0 and abs(pv) == 1
                elif cert.role == "isotropic_pairing_two":
                    assert sq == 0 and abs(pv) == 2
                elif cert.role == "spherical_flop":
                    assert sq == -2 and 0 < pv <= square(CFG, v) // 2
                elif cert.role == "positive_part":
                    assert sq >= 0 and pv > 0
                elif cert.role == "isotropic_fibration":
                    assert sq == 0 and pv == 0
                elif cert.role == "semistability_isotropic":
                    assert sq == 0 and abs(pv) == 1
                elif cert.role == "semistability_spherical":
                    assert sq == -2 and pv < 0


EXPECTED_SPLITS = {
    (VP.as_tuple(), 1): {(1, -1, 2), (0, 1, -6)},
    (VP.as_tuple(), 2): {(1, -1, 1), (0, 1, -5)},
    (VP.as_tuple(), 3): {(-1, 2, -5), (2, -2, 1)},
    (VP.as_tuple(), 4): {(2, -3, 5), (-1, 3, -9)},
    (VM.as_tuple(), 1): {(-2, 1, -1), (2, 1, 0)},
    (VM.as_tuple(), 2): {(-1, 1, -1), (1, 1, 0)},
    (VM.as_tuple(), 3): {(1, 0, 1), (-1, 2, -2)},
    (VM.as_tuple(), 4): {(-1, 1, -2), (1, 1, 1)},
}


def test_effective_decompositions_unique_and_exact():
    for v in (VP, VM):
        walls = walls_for(v)
        for idx in (1, 2, 3, 4):
            decs = decompositions(walls[idx])
            assert len(decs) == 1, (v, idx, decs)
            parts = {p.as_tuple() for p in decs[0].parts}
            assert parts == EXPECTED_SPLITS[(v.as_tuple(), idx)]
            assert not decs[0].refinable
            assert sum(decs[0].phases) == 1
            for ph in decs[0].phases:
                assert 0 < ph < 1


def test_phase_sum_on_two_term_splits():
    for v in (VP, VM):
        for wall in walls_for(v)[1:-1]:
            func = classify(CFG, wall).func
            for a, b, dec in splits(wall):
                assert a + b == v
                assert func.phi(a) + func.phi(b) == 1


small = st.integers(-4, 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), small, st.integers(0, 2), small, st.tuples(small, small, small))
def test_refinable_matches_parallelogram_scan(g, r, c, s, at):
    # the determinant rule for two-part splittings against the point scan of
    # the parallelogram (0, a, v - a, v) in the basis (v, wall.a); r*s <= 0
    # keeps v^2 = h2*c^2 - 2*r*s nonnegative
    cfg = K3Config(g)
    v = mv(r, c, -abs(s) if r >= 0 else abs(s))
    assume(square(cfg, v) > 0)
    try:
        wall = build_wall(cfg, v, mv(*at))
    except ValueError:  # proportional classes or a definite lattice
        assume(False)
    for dec in effective_decompositions(cfg, wall, classify(cfg, wall)):
        if len(dec.parts) == 2:
            p, q = coords_in_basis(v.as_tuple(), wall.a.as_tuple(), dec.parts[0].as_tuple())
            assert p.denominator == q.denominator == 1
            scan = lattice_points_in_parallelogram((int(p), int(q)), (1, 0))
            assert dec.refinable == bool(scan)


BUNDLES = [
    (VP, 1, 3, (0, 4), 7),
    (VP, 2, 2, (2, 4), 8),
    (VP, 3, 2, (0, 6), 8),
    (VP, 4, 4, (0, 2), 6),
    (VM, 1, 3, (0, 4), 7),
    (VM, 2, 2, (2, 4), 8),
    (VM, 3, 2, (0, 6), 8),
    (VM, 4, 4, (0, 2), 6),
]


def test_bundle_descriptors():
    for v, idx, fiber, bases, total in BUNDLES:
        wall = walls_for(v)[idx]
        a, b, _ = splits(wall)[0]
        desc = bundle_descriptor(CFG, v, a)
        assert desc.fiber_dim == fiber
        assert desc.base_dims == bases
        assert desc.total_dim == total
        assert desc.codim == fiber
        assert desc.codim + desc.total_dim == square(CFG, v) + 2


def test_bundle_fiber_multiset():
    dims = sorted(
        bundle_descriptor(CFG, VP, splits(w)[0][0]).fiber_dim
        for w in walls_for(VP)[1:-1]
    )
    assert dims == [2, 2, 3, 4]


def test_bundle_descriptor_rejects_flat_fiber():
    with pytest.raises(ValueError):
        bundle_descriptor(CFG, VP, VP)  # r = (0, v) - 1 = -1


def test_mukai_flop_descriptor_for_small_hilbert():
    v = mv(1, 0, -1)
    wall = walls_for(v)[1]
    a, b, _ = splits(wall)[0]
    desc = bundle_descriptor(CFG, v, a)
    # the plane flop: a plane of dimension two inside a fourfold
    assert desc.fiber_dim == 2
    assert desc.base_dims == (0, 0)
    assert desc.total_dim == 2 and desc.codim == 2
    assert desc.describe() == "P^2-bundle over a point"


def test_arc_sensitivity_is_reported_but_not_the_verdict():
    # the spherical wall has sub-arcs beyond its holes where a negative
    # spherical turns effective; the verdict comes from the generic arc
    wall = walls_for(VP)[1]
    verdict = classify(CFG, wall)
    assert verdict.arc_sensitive
    assert not verdict.totally_semistable
    assert not verdict.proxy_flag


def test_flop_cell_found_despite_thin_generic_arc():
    # both-effective arcs of this wall are thin slivers between accumulating
    # spherical holes; the plane flop must still be located exactly
    v = mv(-3, -2, -1)
    wall = enumerate_result(CFG, v).walls[1]
    verdict = classify(CFG, wall)
    assert verdict.kind == "flopping" and not verdict.totally_semistable
    cells = flop_cells(CFG, effective_decompositions(CFG, wall, verdict))
    assert len(cells) == 1
    a, b, _ = cells[0]
    assert {a.as_tuple(), b.as_tuple()} == {(-5, -3, -2), (2, 1, 1)}
    assert bundle_descriptor(CFG, v, a).fiber_dim == 2


def test_classify_unsaturated_seed_is_hilbert_chow():
    wall = build_wall(CFG, mv(0, 1, -1), mv(-2, 1, -1))
    verdict = classify(CFG, wall)
    assert verdict.kind == "divisorial"
    assert verdict.subtype == DIVISORIAL_HC
    assert verdict.totally_semistable


def test_survey_analyses_each_wall_once(monkeypatch):
    # survey, and the standalone path of classify followed by
    # effective_decompositions on its verdict, each select every wall's arc
    # once, solve its spherical classes once and run the split search once
    # per flopping wall; the modules are imported by name because the
    # package re-exports the classify function under the classify module's
    # name
    classify_mod = importlib.import_module("k3walls.classify")
    analysis_mod = importlib.import_module("k3walls.analysis")
    stability_mod = importlib.import_module("k3walls.stability")
    v = mv(3, 1, -7)
    arcs = Counter()
    searches = Counter()
    sphericals = Counter()
    select_arc = classify_mod._select_arc
    search = classify_mod.effective_decompositions
    solve_spherical = stability_mod.spherical_classes

    def counted_select_arc(cfg, wall, *args):
        arcs[wall.a.as_tuple()] += 1
        return select_arc(cfg, wall, *args)

    def counted_spherical(form, bound):
        sphericals[form] += 1
        return solve_spherical(form, bound)

    def counted_search(cfg, wall, *args):
        searches[wall.a.as_tuple()] += 1
        return search(cfg, wall, *args)

    def take_counts():
        counts = (arcs.copy(), searches.copy(), sphericals.copy())
        for counter in (arcs, searches, sphericals):
            counter.clear()
        return counts

    monkeypatch.setattr(classify_mod, "_select_arc", counted_select_arc)
    monkeypatch.setattr(stability_mod, "spherical_classes", counted_spherical)
    for mod in (classify_mod, analysis_mod):
        monkeypatch.setattr(mod, "effective_decompositions", counted_search)
    sv = survey(CFG, v)
    survey_counts = take_counts()
    standalone = []
    for rec in sv.records:
        verdict = classify(CFG, rec.wall)
        decs = classify_mod.effective_decompositions(CFG, rec.wall, verdict) if verdict.is_flopping else []
        standalone.append((verdict, decs))
    standalone_counts = take_counts()
    monkeypatch.undo()

    flopping = {r.a.as_tuple() for r in sv.records if r.verdict.is_flopping}
    assert flopping
    generic = [r.wall for r in sv.records if not r.wall.degenerate]
    for walk_arcs, walk_searches, walk_sphericals in (survey_counts, standalone_counts):
        assert walk_searches == Counter(dict.fromkeys(flopping, 1))
        assert walk_sphericals == Counter(w.gram for w in generic)
        assert walk_arcs == Counter(w.a.as_tuple() for w in generic)
    for rec, (verdict, decs) in zip(sv.records, standalone):
        assert verdict == rec.verdict
        if not rec.verdict.is_flopping:
            assert rec.decompositions == () and rec.bundle is None
            continue
        assert list(rec.decompositions) == decs
        cells = flop_cells(CFG, decs)
        expected = bundle_descriptor(CFG, v, cells[0][0]) if cells else None
        assert rec.bundle == expected
