import importlib
import sys
from collections import Counter
from functools import lru_cache
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from k3walls import (
    K3Config,
    classify,
    effective_decompositions,
    enumerate_result,
    flop_cells,
    mv,
    survey,
)
from k3walls.classify import DIVISORIAL_HC, Decomposition, Splittings
from k3walls.lattice import pairing, square
from k3walls.stability import AlignmentFunctional, alignment_candidates, spherical_members
from k3walls.walls import SectorError, build_wall
from oracles import (
    alignment_points_with_repeats,
    coords_in_basis,
    decompositions_by_prefixes,
    lattice_points_in_parallelogram,
)

CFG = K3Config(2)
VP = mv(1, 0, -4)
VM = mv(0, 2, -1)


def walls_for(v):
    return enumerate_result(CFG, v).walls


def decompositions(wall):
    return effective_decompositions(CFG, wall, classify(CFG, wall))


def splits(wall):
    """The two-part effective splittings, as (a, b, dec) with a the smaller square."""
    return [(*dec.parts, dec) for dec in decompositions(wall).two_part]


def cells(wall):
    return flop_cells(CFG, decompositions(wall))


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
            verdict = classify(CFG, walls[idx])
            decs = effective_decompositions(CFG, walls[idx], verdict)
            assert len(decs) == 1 and decs.counts == {2: 1}, (v, idx, decs)
            (dec,) = decs.two_part
            parts = {p.as_tuple() for p in dec.parts}
            assert parts == EXPECTED_SPLITS[(v.as_tuple(), idx)]
            assert not dec.refinable
            phases = [verdict.func.phi(p) for p in dec.parts]
            assert sum(phases) == 1
            for ph in phases:
                assert 0 < ph < 1


def test_phase_sum_on_two_term_splits():
    for v in (VP, VM):
        for wall in walls_for(v)[1:-1]:
            func = classify(CFG, wall).func
            for a, b, dec in splits(wall):
                assert a + b == v
                assert func.phi(a) + func.phi(b) == 1


LADDER = [mv(1, 0, -4), mv(0, 2, -1), mv(3, 1, -7), mv(1, 0, -49), mv(5, 2, -9), mv(4, 1, -11)]


def assert_matches_prefix_search(cfg, wall, verdict):
    # the counts per number of parts are the lengths of the plain prefix
    # search's uncapped listing, in increasing order, the two-part list is
    # its two-part members, in order and with their flags, and len() is
    # the number of splittings
    listed = decompositions_by_prefixes(cfg, wall, verdict)
    got = effective_decompositions(cfg, wall, verdict)
    assert got.counts == Counter(len(dec.parts) for dec in listed), wall.a
    assert list(got.counts) == sorted(got.counts)
    assert list(got.two_part) == [dec for dec in listed if len(dec.parts) == 2], wall.a
    assert len(got) == sum(got.counts.values()) == len(listed)
    return got


# splittings of every length, and those into at most 8 parts
LADDER_SPLITTINGS = {(5, 2, -9): (1275, 1081), (4, 1, -11): (7778, 5992)}


def test_decompositions_match_the_prefix_search_on_the_ladder():
    # every flopping wall of the genus-2 ladder, (5,2,-9) and (4,1,-11)
    # included, against the plain prefix search
    flops = 0
    for v in LADDER:
        counts = Counter()
        for wall in walls_for(v):
            verdict = classify(CFG, wall)
            if verdict.is_flopping:
                flops += 1
                counts.update(assert_matches_prefix_search(CFG, wall, verdict).counts)
        short = sum(n for parts, n in counts.items() if parts <= 8)
        if v.as_tuple() in LADDER_SPLITTINGS:
            assert (counts.total(), short) == LADDER_SPLITTINGS[v.as_tuple()]
            assert max(counts) > 8
    assert flops == 180


def ladder_points():
    """(wall, spherical classes, engine points, reference points) per ladder wall."""
    for v in LADDER:
        for wall in walls_for(v):
            spherical = spherical_members(CFG, wall)
            points = [(f.b, f.t2) for f in alignment_candidates(CFG, v, wall.a, spherical)]
            yield wall, spherical, points, alignment_points_with_repeats(CFG, v, wall.a, spherical)


def test_no_arc_point_is_sampled_twice_on_the_ladder():
    for wall, _, points, _ in ladder_points():
        assert len(points) == len(set(points)), wall.a


def test_arc_sampler_drops_only_repeats_on_the_ladder(monkeypatch):
    # the engine's points are the reference sampler's in first-occurrence
    # order, and the first of equal candidates wins, so the verdicts, their
    # phase points and arc flags are those of the reference sampler
    classify_mod = importlib.import_module("k3walls.classify")
    dropped = 0
    for wall, spherical, points, reference in ladder_points():
        assert points == list(dict.fromkeys(reference)), wall.a
        dropped += len(reference) - len(points)
        verdict = classify(CFG, wall)
        with monkeypatch.context() as patch:
            patch.setattr(classify_mod, "alignment_candidates", lambda cfg, v, a, sph: [
                AlignmentFunctional(cfg, v, b, t2) for b, t2 in alignment_points_with_repeats(cfg, v, a, sph)
            ])
            assert classify(CFG, wall) == verdict, wall.a
        assert (verdict.func is None) == wall.degenerate
    assert dropped > 0


@lru_cache(maxsize=None)
def flopping_walls(g, vt):
    """(wall, verdict) for the flopping walls of enumerate_result, or None on a SectorError."""
    cfg = K3Config(g)
    try:
        walls = enumerate_result(cfg, mv(*vt)).walls
    except SectorError:
        return None
    return [(w, verdict) for w in walls if (verdict := classify(cfg, w)).is_flopping]


# primitive v with 0 < v^2 <= 60 over g 2-12
V_SMALL = st.tuples(st.integers(2, 12), st.integers(-5, 5), st.integers(-3, 3), st.integers(-30, 30)).filter(
    lambda t: gcd(gcd(t[1], t[2]), t[3]) == 1 and 0 < (2 * t[0] - 2) * t[2] ** 2 - 2 * t[1] * t[3] <= 60
)


@settings(max_examples=100, deadline=None)
@given(V_SMALL)
def test_decompositions_match_the_prefix_search_across_genus(gv):
    g, *vt = gv
    walls = flopping_walls(g, tuple(vt))
    assume(walls is not None)
    cfg = K3Config(g)
    for wall, verdict in walls:
        assert_matches_prefix_search(cfg, wall, verdict)


@settings(max_examples=100, deadline=None)
@given(V_SMALL)
def test_decomposition_invariants_across_genus(gv):
    # every splitting the prefix search lists, of any length, has parts
    # summing to v with phases in (0, 1) summing to 1, and no multiset of
    # parts is listed twice; the engine counts as many of each length, and
    # a two-part split lists the part of smaller (square, tuple) first
    g, *vt = gv
    walls = flopping_walls(g, tuple(vt))
    assume(walls is not None)
    cfg, v = K3Config(g), mv(*vt)
    for wall, verdict in walls:
        listed = decompositions_by_prefixes(cfg, wall, verdict)
        seen = set()
        for dec in listed:
            assert len(dec.parts) >= 2
            assert sum(dec.parts, mv(0, 0, 0)) == v
            phases = [verdict.func.phi(p) for p in dec.parts]
            assert sum(phases) == 1 and all(0 < ph < 1 for ph in phases)
            multiset = tuple(sorted(p.as_tuple() for p in dec.parts))
            assert multiset not in seen
            seen.add(multiset)
        decs = effective_decompositions(cfg, wall, verdict)
        assert decs.counts == Counter(len(dec.parts) for dec in listed)
        for dec in decs.two_part:
            a, b = dec.parts
            assert a + b == v
            assert (square(cfg, a), a.as_tuple()) < (square(cfg, b), b.as_tuple())
        assert decs.counts.get(2, 0) == len(decs.two_part)


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
    for dec in effective_decompositions(cfg, wall, classify(cfg, wall)).two_part:
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
        desc = cells(wall)[0]
        assert (desc.a, desc.b) == (a, b)
        assert desc.fiber_dim == fiber
        assert desc.base_dims == bases
        # the locus has dimension base + fiber and codimension fiber
        locus = sum(desc.base_dims) + desc.fiber_dim
        assert locus == total
        assert locus + desc.fiber_dim == square(CFG, v) + 2


def test_bundle_fiber_multiset():
    dims = sorted(cells(w)[0].fiber_dim for w in walls_for(VP)[1:-1])
    assert dims == [2, 2, 3, 4]


def test_flop_cells_skip_flat_fibers():
    # v = v + 0 has fiber dimension (0, v) - 1 = -1: listed, but no cell
    flat = Splittings((Decomposition((VP, mv(0, 0, 0)), False),), {2: 1})
    assert flop_cells(CFG, flat) == []


def test_mukai_flop_descriptor_for_small_hilbert():
    v = mv(1, 0, -1)
    wall = walls_for(v)[1]
    a, b, _ = splits(wall)[0]
    desc = cells(wall)[0]
    assert (desc.a, desc.b) == (a, b)
    # the plane flop: a plane of dimension two inside a fourfold
    assert desc.fiber_dim == 2
    assert desc.base_dims == (0, 0)
    assert sum(desc.base_dims) + desc.fiber_dim == 2
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
    (cell,) = flop_cells(CFG, effective_decompositions(CFG, wall, verdict))
    assert {cell.a.as_tuple(), cell.b.as_tuple()} == {(-5, -3, -2), (2, 1, 1)}
    assert cell.fiber_dim == 2


def test_classify_unsaturated_seed_is_hilbert_chow():
    wall = build_wall(CFG, mv(0, 1, -1), mv(-2, 1, -1))
    verdict = classify(CFG, wall)
    assert verdict.kind == "divisorial"
    assert verdict.subtype == DIVISORIAL_HC
    assert verdict.totally_semistable


def test_survey_analyses_each_wall_once(monkeypatch):
    # survey, and the standalone path of classify followed by
    # effective_decompositions on its verdict, each select every wall's arc
    # once, solve its spherical classes once, search its pairing levels once
    # and run the split search once per flopping wall; the divisorial
    # classes are solved three times per non-degenerate build_wall and
    # nowhere else, so the standalone path, which builds nothing, solves
    # none.  The modules are imported by name because the package
    # re-exports the classify function under the classify module's name
    classify_mod = importlib.import_module("k3walls.classify")
    analysis_mod = importlib.import_module("k3walls.analysis")
    stability_mod = importlib.import_module("k3walls.stability")
    walls_mod = importlib.import_module("k3walls.walls")
    v = mv(3, 1, -7)
    arcs = Counter()
    searches = Counter()
    sphericals = Counter()
    levels = Counter()
    built = Counter()
    divisorial = Counter()
    select_arc = classify_mod._select_arc
    search = classify_mod.effective_decompositions
    solve_spherical = stability_mod.spherical_classes
    solve_levels = classify_mod.decomposition_solutions
    solve_divisorial = walls_mod.classes_in_rank2
    build = walls_mod.build_wall

    def counted_select_arc(cfg, wall, *args):
        arcs[wall.a.as_tuple()] += 1
        return select_arc(cfg, wall, *args)

    def counted_spherical(form, bound):
        sphericals[form] += 1
        return solve_spherical(form, bound)

    def counted_search(cfg, wall, *args):
        searches[wall.a.as_tuple()] += 1
        return search(cfg, wall, *args)

    def counted_levels(cfg, v, a):
        levels[a.as_tuple()] += 1
        return solve_levels(cfg, v, a)

    def counted_divisorial(form, *args):
        divisorial[form] += 1
        return solve_divisorial(form, *args)

    def counted_build(cfg, v, a):
        wall = build(cfg, v, a)
        if not wall.degenerate:
            built[wall.gram] += 3
        return wall

    counters = (arcs, searches, sphericals, levels, built, divisorial)

    def take_counts():
        counts = tuple(counter.copy() for counter in counters)
        for counter in counters:
            counter.clear()
        return counts

    monkeypatch.setattr(classify_mod, "_select_arc", counted_select_arc)
    monkeypatch.setattr(stability_mod, "spherical_classes", counted_spherical)
    monkeypatch.setattr(walls_mod, "build_wall", counted_build)
    for mod in (classify_mod, analysis_mod):
        monkeypatch.setattr(mod, "effective_decompositions", counted_search)
    # every module binding a solver name gets the counted one, so a call
    # from anywhere else is counted too
    for name, counted in (
        ("decomposition_solutions", counted_levels),
        ("classes_in_rank2", counted_divisorial),
    ):
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("k3walls") and hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
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
    assert survey_counts[4] and not standalone_counts[4]
    for walk_arcs, walk_searches, walk_sphericals, walk_levels, walk_built, walk_divisorial in (
        survey_counts, standalone_counts
    ):
        assert walk_searches == Counter(dict.fromkeys(flopping, 1))
        assert walk_sphericals == Counter(w.gram for w in generic)
        assert walk_arcs == Counter(w.a.as_tuple() for w in generic)
        # once per wall, so never again from the split search
        assert walk_levels == Counter(w.a.as_tuple() for w in generic)
        assert walk_divisorial == walk_built
    for rec, (verdict, decs) in zip(sv.records, standalone):
        assert verdict == rec.verdict
        assert verdict.split_classes == rec.verdict.split_classes
        if not rec.verdict.is_flopping:
            assert len(rec.decompositions) == 0 and rec.bundle is None
            continue
        assert rec.decompositions == decs
        fibers = flop_cells(CFG, decs)
        # the cell of least (fiber_dim, base_dims), the first on a tie
        expected = min(fibers, key=lambda desc: (desc.fiber_dim, desc.base_dims)) if fibers else None
        assert rec.bundle == expected


def test_survey_breaks_fiber_dimension_ties_on_base_dimensions():
    # the wall (1,0,-1) of g=3 (2,1,-5) has two cells of fiber dimension 2,
    # over bases of dimensions (2, 20) and (0, 22), listed in that order;
    # base dimensions follow the squares of the parts, which isometries
    # keep, so the reported cell does not depend on the listing order
    cfg = K3Config(3)
    (rec,) = [r for r in survey(cfg, mv(2, 1, -5)).records if r.a == mv(1, 0, -1)]
    shapes = flop_cells(cfg, rec.decompositions)
    assert [(d.fiber_dim, d.base_dims) for d in shapes if d.fiber_dim == 2] == [(2, (2, 20)), (2, (0, 22))]
    assert (rec.bundle.fiber_dim, rec.bundle.base_dims) == (2, (0, 22))
