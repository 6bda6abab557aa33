from dataclasses import replace
from fractions import Fraction
from math import lcm
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3walls import K3Config, enumerate_result, mv
from k3walls import walls as walls_mod
from k3walls.intmath import cross3, det2, lex_sign, primitive_vector, vec_content
from k3walls.lattice import GramForm2, pairing, square
from k3walls.nsgeom import lambda_basis, orthogonal_line_generator
from k3walls.stability import numerical_wall
from k3walls.walls import (
    MovableCone,
    SectorError,
    _candidate_walls,
    _large_volume_limit,
    _normalize_in_basis,
    build_wall,
    default_window,
    movable_cone,
)
from oracles import (
    charge_direction,
    coords_in_basis,
    enumerate_two_pass,
    SlopeSector,
    finite_volume_sector,
    normalize_by_preference,
    wall_by_coordinates,
)

CFG = K3Config(2)
VP = mv(1, 0, -4)
VM = mv(0, 2, -1)

VP_TABLE = [mv(0, 0, 1), mv(1, -1, 2), mv(1, -1, 1), mv(-1, 2, -5), mv(2, -3, 5), mv(-1, 2, -4)]
VM_TABLE = [mv(-1, 0, 0), mv(-2, 1, -1), mv(-1, 1, -1), mv(1, 0, 1), mv(-1, 1, -2), mv(0, 0, 1)]


def same_up_to_sign(x, y):
    return x == y or x == -y


def test_normalize_coset_recovery():
    assert build_wall(CFG, VP, mv(2, -1, -2)).a == mv(1, -1, 2)
    assert build_wall(CFG, VP, mv(-1, 1, -2)).a == mv(1, -1, 2)


def test_normalize_table_rows_fixed():
    for v, table in ((VP, VP_TABLE), (VM, VM_TABLE)):
        for a in table:
            got = build_wall(CFG, v, a).a
            assert same_up_to_sign(got, a), (v, a, got)
            assert 0 <= pairing(CFG, got, v) <= square(CFG, v) // 2
            assert square(CFG, got) in (-2, 0)


def test_normalize_saturates():
    # (0,1,-1) and (-2,1,-1) span an index-two sublattice of the
    # Hilbert-Chow lattice; normalization must land in the saturation
    v = mv(0, 1, -1)
    got = build_wall(CFG, v, mv(-2, 1, -1)).a
    assert square(CFG, got) == 0 and abs(pairing(CFG, got, v)) == 1


def test_enumerate_counts():
    assert len(enumerate_result(CFG, VP).walls) == 6
    assert len(enumerate_result(CFG, VM).walls) == 6
    assert len(enumerate_result(CFG, mv(1, 0, -1)).walls) == 3
    assert len(enumerate_result(CFG, mv(0, 1, -1)).walls) == 3


def test_enumerate_matches_tables():
    for v, table in ((VP, VP_TABLE), (VM, VM_TABLE)):
        walls = enumerate_result(CFG, v).walls
        assert len(walls) == len(table)
        for wall, expected in zip(walls, table):
            assert same_up_to_sign(wall.a, expected), (v, expected, wall.a)


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_result(CFG, mv(0, 0, 0))
    with pytest.raises(ValueError):
        enumerate_result(CFG, mv(2, 0, -8))  # not primitive
    with pytest.raises(ValueError):
        enumerate_result(CFG, mv(1, 0, 1))  # negative square


def test_enumerate_window_stable():
    for v in (VP, VM, mv(1, 0, -1), mv(0, 1, -1)):
        assert enumerate_result(CFG, v).stable


def test_walls_pairwise_non_proportional():
    for v in (VP, VM, mv(1, 0, -1)):
        walls = enumerate_result(CFG, v).walls
        lines = [w.line.as_tuple() for w in walls]
        assert len(set(lines)) == len(lines)
        for i, l1 in enumerate(lines):
            for l2 in lines[i + 1 :]:
                assert any(cross3(l1, l2))


def test_wall_lattice_invariants():
    for v in (VP, VM):
        for wall in enumerate_result(CFG, v).walls:
            g = wall.gram
            assert g.disc_prime >= 0
            assert (g.disc_prime == 0) == wall.degenerate
            assert g.q22 in (-2, 0)
            assert 0 <= g.q12 <= g.q11 // 2
            # v sits in the lattice and the basis completion spans it
            assert pairing(CFG, wall.v, v) == square(CFG, v)


def test_boundary_walls_are_divisorial_and_isotropic():
    for v in (VP, VM, mv(1, 0, -1), mv(0, 1, -1)):
        walls = enumerate_result(CFG, v).walls
        first, last = walls[0], walls[-1]
        assert not first.degenerate
        assert last.degenerate
        assert square(CFG, last.a) == 0 and pairing(CFG, last.a, v) == 0


def _carries_wall_class(v, seed, scan=60, cfg=CFG):
    """Brute scan of the saturation of <v, seed>, in the oracle's basis
    (v, u), for a class with square -2 or 0 and pairing against v inside
    the window; such a class is what makes the orthogonal line an actual
    wall rather than a crossing-free line."""
    from math import isqrt

    u = wall_by_coordinates(cfg, v, seed)[4]
    vsq = square(cfg, v)
    g11 = vsq
    g12 = pairing(cfg, v, u)
    g22 = square(cfg, u)
    for q in range(-scan, scan + 1):
        if q == 0:
            continue  # multiples of v span no new lattice direction
        for d in (-2, 0):
            disc = (g12 * q) ** 2 - g11 * (g22 * q * q - d)
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc:
                continue
            for num in (-g12 * q + root, -g12 * q - root):
                if num % g11 == 0:
                    p = num // g11
                    if 2 * abs(g11 * p + g12 * q) <= vsq:
                        return True
    return False


def _brute_mov_rays(v, bound=12, cfg=CFG, window=None):
    """Independent oracle: box-scan every rank-two lattice through v and keep
    those that both carry a wall class and meet the movable sector."""
    res = enumerate_result(cfg, v, window=window)
    cone = res.cone
    basis = cone.basis
    lines = set()
    for r in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            for s in range(-bound, bound + 1):
                a = mv(r, c, s)
                if not any(cross3(v.as_tuple(), a.as_tuple())):
                    continue
                gram_disc = square(cfg, v) * square(cfg, a) - pairing(cfg, v, a) ** 2
                if gram_disc > 0:
                    continue
                lines.add(orthogonal_line_generator(cfg, v, a).as_tuple())
    rays = set()
    for line in lines:
        ray = lex_sign(basis.int_coords(cfg, mv(*line)))
        if not cone.meets(ray):
            continue
        if _carries_wall_class(v, mv(*_seed_from_line(v, line, cfg)), cfg=cfg):
            rays.add(ray)
    return rays, {lex_sign(basis.int_coords(cfg, w.line)) for w in res.walls}


def _seed_from_line(v, line, cfg=CFG):
    """Any lattice class independent of v inside the orthogonal plane of line."""
    from k3walls.intmath import kernel_basis_int
    from k3walls.lattice import pairing_row

    row = primitive_vector(pairing_row(cfg, mv(*line)))
    b1, b2 = kernel_basis_int(row)
    for cand in (b1, b2):
        if any(cross3(v.as_tuple(), cand)):
            return cand
    raise AssertionError("degenerate plane")


@pytest.mark.parametrize("v", [VP, VM, mv(1, 0, -1), mv(0, 1, -1)])
def test_box_scan_finds_no_missing_wall(v):
    brute, enumerated = _brute_mov_rays(v)
    assert brute <= enumerated, brute - enumerated


def test_sanity_one_interior_flop_for_small_hilbert():
    walls = enumerate_result(CFG, mv(1, 0, -1)).walls
    assert len(walls) == 3
    interior = walls[1]
    assert square(CFG, interior.a) == -2
    assert pairing(CFG, interior.a, mv(1, 0, -1)) == 1


def test_build_wall_from_unsaturated_seed():
    wall = build_wall(CFG, mv(0, 1, -1), mv(-2, 1, -1))
    assert square(CFG, wall.a) == 0
    assert wall.gram.disc_prime == 1  # saturated Hilbert-Chow lattice


def test_higher_genus_enumeration():
    # with no rational isotropic direction the sector closes on a second
    # divisorial wall instead of a fibration ray
    cfg3 = K3Config(3)
    res = enumerate_result(cfg3, mv(1, 0, -1), window=64)
    assert res.stable and len(res.walls) == 2
    assert not any(w.degenerate for w in res.walls)
    res2 = enumerate_result(cfg3, mv(1, 0, -2), window=64)
    assert res2.stable and res2.walls[-1].degenerate


def test_higher_genus_oracle():
    cfg3 = K3Config(3)
    brute, enumerated = _brute_mov_rays(mv(1, 0, -2), bound=8, cfg=cfg3, window=64)
    assert brute <= enumerated


def test_isotropic_walls_come_from_every_null_ray():
    # the classes with a^2 = 0 = (a, v) are multiples of the null rays of
    # v-perp; a window scan of that family misses the ray of (50, 35, 98)
    cfg, v = K3Config(5), mv(5, 3, 7)
    seeds = _candidate_walls(cfg, v, 32, lambda_basis(cfg, v))
    pool = [build_wall(cfg, v, a) for _, a in seeds.values()]
    lines = {w.line.as_tuple() for w in pool if w.degenerate}
    assert lines == {(2, 1, 2), (50, 35, 98)}
    # (50, 35, 98) lies outside the movable sector
    assert [w.line.as_tuple() for w in enumerate_result(cfg, v).walls] == [(24, 17, 48), (2, 1, 2)]


def cone_of_form(gram, start, end):
    # meets reads only the two boundary rays; the tests read the form off the basis
    return MovableCone(SimpleNamespace(gram=gram), start, end)


def test_end_ray_sorts_after_every_interior_ray():
    # the reference sector's slope key, which orders enumerate_two_pass
    sector = SlopeSector(SimpleNamespace(gram=GramForm2(0, 1, 0)), (1, 1), (1, 0), (0, 1))
    steep = (1, 10**31)
    assert sector.position(steep) is not None
    assert sector.position((1, 0)) < sector.position(steep) < sector.position((0, 1))


def test_window_below_one_is_rejected():
    # window 0 doubles to itself, so no ray beyond it could test stability
    for window in (0, -5):
        with pytest.raises(ValueError, match="window"):
            enumerate_result(CFG, VP, window=window)


def test_each_candidate_line_is_built_once(monkeypatch):
    # one solver call per (a^2, (a, v)) family, all at twice the window, one
    # movable-cone pass, and one build per returned wall, all of reach <= window
    windows, built, cones = [], [], []
    real_solve, real_build = walls_mod.solve_square_with_pairing, walls_mod.build_wall

    def counting_solve(cfg, v, d, m, window, basis):
        windows.append(window)
        return real_solve(cfg, v, d, m, window, basis)

    def counting_build(cfg, v, a):
        wall = real_build(cfg, v, a)
        built.append(wall.line.as_tuple())
        return wall

    null_forms = []
    real_null_rays = walls_mod._null_rays

    def counting_null_rays(form):
        null_forms.append(form)
        return real_null_rays(form)

    real_cone = walls_mod.movable_cone

    def counting_cone(*args):
        cones.append(args)
        return real_cone(*args)

    # the lines a search at the window itself reaches
    v = mv(3, 1, -7)
    basis, window = lambda_basis(CFG, v), default_window(CFG, v)
    seeds = [
        a
        for d in (-2, 0)
        for m in range(1 if d == 0 else 0, square(CFG, v) // 2 + 1)
        for a in real_solve(CFG, v, d, m, window, basis)
    ]
    seeds += [basis.from_coords(x, y) for x, y in real_null_rays(basis.gram)]
    within = {real_build(CFG, v, a).line.as_tuple() for a in seeds}
    monkeypatch.setattr(walls_mod, "solve_square_with_pairing", counting_solve)
    monkeypatch.setattr(walls_mod, "build_wall", counting_build)
    monkeypatch.setattr(walls_mod, "_null_rays", counting_null_rays)
    monkeypatch.setattr(walls_mod, "movable_cone", counting_cone)
    res = enumerate_result(CFG, v)
    assert len(windows) == square(CFG, v) + 1
    assert set(windows) == {2 * window} == {2 * res.window}
    assert sorted(built) == sorted(w.line.as_tuple() for w in res.walls)
    assert set(built) < within
    assert len(cones) == 1
    # the null rays are solved once; the walk reads them off the seeds
    assert len(null_forms) == 1
    # the sector comes from the large-volume limit, not from stability
    assert not hasattr(walls_mod, "numerical_wall")


def test_each_window_keeps_the_lines_it_reaches():
    # on (1, 0, -4) windows 1, 2 and 3 each reach one more wall; a line
    # whose reach equals the window belongs to that window
    results = [enumerate_result(CFG, VP, window=w) for w in (1, 2, 3)]
    assert [len(res.walls) for res in results] == [4, 5, 6]
    assert [res.stable for res in results] == [False, False, True]


def _orient(gram, anchor, ray):
    """Sign-fix a positive-or-null ray into the anchor's component."""
    return ray if gram.pair(ray, anchor) > 0 else (-ray[0], -ray[1])


def _between_det2(cone, u):
    """Oracle for meets: u, sign-fixed into the sector's component, lies
    between start and end by det2 signs."""
    d1, d2 = det2(cone.start, u), det2(u, cone.end)
    if det2(cone.start, cone.end) > 0:
        return d1 >= 0 and d2 >= 0
    return d1 <= 0 and d2 <= 0


def _cramer_key(cone, u):
    """Oracle for the order from start to end: u, sign-fixed into the
    sector's component, is x*start + y*end, keyed by y/x (the end ray last)."""
    x, y = coords_in_basis((*cone.start, 0), (*cone.end, 0), (*u, 0))
    assert x >= 0 and y >= 0
    return (True, Fraction(0)) if x == 0 else (False, y / x)


@st.composite
def sectors(draw):
    """A form of signature (1,1), a positive anchor, and rays of its closed
    positive component (start, end, then probes), some of them null."""
    small = st.integers(-9, 9)
    nulls = []
    if draw(st.booleans()):
        # the product of two independent linear forms: rational null rays
        a1, b1, a2, b2 = draw(st.tuples(small, small, small, small))
        assume(a1 * b2 - a2 * b1 != 0)
        gram = GramForm2(2 * a1 * a2, a1 * b2 + a2 * b1, 2 * b1 * b2)
        nulls = [(b1, -a1), (b2, -a2)]
    else:
        gram = GramForm2(*draw(st.tuples(small, small, small)))
        assume(gram.disc_prime > 0)
    vecs = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=12))
    positive = [x for x in vecs if gram.value(*x) > 0]
    assume(positive)
    anchor = primitive_vector(positive[0])
    # rays of either sign; the test sign-fixes each into the anchor's component
    rays = draw(st.permutations(positive[1:] + nulls))
    assume(len(rays) >= 2)
    start, end = (_orient(gram, anchor, x) for x in rays[:2])
    assume(det2(start, end) != 0)
    return cone_of_form(gram, start, end), anchor, rays


@settings(max_examples=300, deadline=None)
@given(sectors())
# an interior ray far steeper than either boundary still meets the sector
@example((cone_of_form(GramForm2(0, 1, 0), (1, 0), (0, 1)), (1, 1), [(1, 0), (1, 10**31), (0, 1)]))
def test_meets_places_rays_as_det2_does(case):
    # meets takes a ray of either sign
    cone, anchor, rays = case
    gram = cone.basis.gram
    inside = []
    for ray in rays:
        assert cone.meets(ray) == _between_det2(cone, _orient(gram, anchor, ray)), ray
        if cone.meets(ray):
            inside.append(ray)
    assert len(inside) >= 2  # start and end


@settings(max_examples=300, deadline=None)
@given(sectors())
def test_slope_places_rays_as_det2_and_cramer_do(case):
    # the reference sector's slope key: defined exactly on the rays
    # between start and end, and growing from start to end
    cone, anchor, rays = case
    sector = SlopeSector(cone.basis, anchor, cone.start, cone.end)
    inside = []
    for ray in rays:
        u = sector.orient(ray)
        assert (sector.position(ray) is not None) == _between_det2(cone, u), ray
        if sector.position(ray) is not None:
            inside.append(ray)
    assert len(inside) >= 2  # start and end
    for r1 in inside:
        for r2 in inside:
            assert (sector.position(r1) < sector.position(r2)) == (
                _cramer_key(cone, sector.orient(r1)) < _cramer_key(cone, sector.orient(r2))
            ), (r1, r2)


VECTORS = st.tuples(*[st.integers(-9, 9)] * 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), VECTORS, VECTORS)
def test_build_wall_matches_coordinate_saturation(g, vt, at):
    # the cross-product saturation gives the coordinate oracle's wall, or
    # its error, and (v, a) spans the saturated plane unless a spans the
    # radical of a degenerate wall
    cfg = K3Config(g)
    v, seed = mv(*vt), mv(*at)
    assume(vec_content(vt) == 1 and square(cfg, v) > 0)
    try:
        expected = wall_by_coordinates(cfg, v, seed)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            build_wall(cfg, v, seed)
        assert str(info.value) == str(exc)
        return
    wall = build_wall(cfg, v, seed)
    assert (wall.a, wall.gram, wall.line, wall.degenerate) == expected[:4]
    normal = primitive_vector(cross3(vt, at))
    if not wall.degenerate:
        assert cross3(vt, wall.a.as_tuple()) in (normal, tuple(-x for x in normal))


@st.composite
def positive_vectors(draw):
    """(cfg, v): genus 2-12 and a primitive v with 0 < v^2 <= 120."""
    g = draw(st.integers(2, 12))
    e = 2 * g - 2
    r, c = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    if r:
        # v^2 = e*c^2 - 2*r*s = 2*half
        half = draw(st.integers(1, 60))
        assume((e * c * c // 2 - half) % r == 0)
        s = (e * c * c // 2 - half) // r
    else:
        assume(0 < e * c * c <= 120)
        s = draw(st.integers(-9, 9))
    assume(vec_content((r, c, s)) == 1)
    return K3Config(g), mv(r, c, s)


@settings(max_examples=500, deadline=None)
@given(positive_vectors(), st.tuples(*[st.integers(-9, 9)] * 3))
def test_normalization_matches_preference_reference(case, ut):
    # the candidates share one square, so dropping the preference order by
    # square keeps the class it picks, on ties 2*(u, v) = v^2 (mod 2*v^2) too
    cfg, v = case
    assume(any(cross3(v.as_tuple(), ut)))
    u = mv(*ut)
    assert _normalize_in_basis(cfg, v, u) == normalize_by_preference(cfg, v, u)


def _sector_or_message(sector, *args):
    try:
        return sector(*args)
    except SectorError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(positive_vectors())
def test_movable_cone_matches_finite_volume_oracle(case):
    # on the seeds of the window and of twice the window, the large-volume
    # limit bounds the sector as the finite-volume anchor above every
    # seed's wall does
    cfg, v = case
    basis = lambda_basis(cfg, v)
    window = default_window(cfg, v)
    seeds = _candidate_walls(cfg, v, 2 * window, basis)
    for win in (window, 2 * window):
        within = {key: a for key, (reach, a) in seeds.items() if reach <= win}
        pool = [replace(build_wall(cfg, v, a), ray=key) for key, a in within.items()]
        cone = _sector_or_message(lambda *args: movable_cone(*args)[0], cfg, v, within, basis)
        got = cone if isinstance(cone, str) else (cone.start, cone.end)
        assert got == _sector_or_message(finite_volume_sector, cfg, v, pool, basis)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(positive_vectors())
def test_walk_builds_each_wall_once_in_order(case):
    # an input that enumerates builds exactly its walls, and their rays
    # run from start to end in the order of their coordinates in the
    # basis (start, end)
    cfg, v = case
    with patch.object(walls_mod, "build_wall", wraps=build_wall) as counted:
        try:
            res = enumerate_result(cfg, v)
        except SectorError:
            assume(False)
    assert counted.call_count == len(res.walls)
    assert (res.walls[0].ray, res.walls[-1].ray) == (res.cone.start, res.cone.end)
    keys = [_cramer_key(res.cone, w.ray) for w in res.walls]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


WINDOWS = st.sampled_from([1, 2, 3, 5, 8, None])


def _enumeration_or_message(enumerate_walls, cfg, v, window):
    try:
        res = enumerate_walls(cfg, v, window=window)
    except SectorError as exc:
        return str(exc)
    walls = [(w.a, w.ray, w.line, w.divisorial, w.degenerate) for w in res.walls]
    return walls, (res.cone.start, res.cone.end), res.window, res.stable


@settings(max_examples=300, deadline=None, derandomize=True)
@given(positive_vectors(), WINDOWS)
def test_one_cone_pass_matches_two(case, window):
    # the window is stable exactly when the doubled window's pass keeps the
    # same rays, so one pass gives the two-pass walls, cone, flag or error
    cfg, v = case
    assert _enumeration_or_message(enumerate_result, cfg, v, window) == _enumeration_or_message(
        enumerate_two_pass, cfg, v, window
    )


@settings(max_examples=60, deadline=None)
@given(positive_vectors())
def test_every_wall_ray_pairs_positively_with_the_anchor(case):
    # the anchor start + end is timelike, and every wall ray is positive or
    # null and sign-fixed into the anchor's component
    cfg, v = case
    try:
        res = enumerate_result(cfg, v)
    except SectorError:
        assume(False)
    gram, (start, end) = res.cone.basis.gram, (res.cone.start, res.cone.end)
    anchor = primitive_vector((start[0] + end[0], start[1] + end[1]))
    assert gram.value(*anchor) > 0
    for wall in res.walls:
        assert gram.value(*wall.ray) >= 0 and gram.pair(wall.ray, anchor) > 0


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@settings(max_examples=200, deadline=None)
@given(positive_vectors(), RATIONALS, st.fractions(min_value=0, max_value=10**6, max_denominator=30))
def test_charge_direction_is_linear_in_t2(case, b0, t2):
    # along b = b0 the charge direction is w(b0, 0) - t^2 (e/2) L, L in v-perp
    cfg, v = case
    assume(t2 > 0)
    big = mv(0, v.r, cfg.h2 * v.c)
    assert pairing(cfg, big, v) == 0
    w0 = charge_direction(cfg, v, b0, Fraction(0))
    expected = tuple(x - t2 * Fraction(cfg.h2, 2) * y for x, y in zip(w0, big.as_tuple()))
    assert charge_direction(cfg, v, b0, t2) == expected


@settings(max_examples=200, deadline=None)
@given(positive_vectors(), VECTORS, st.integers(-5, 5), st.integers(-9, 9))
def test_vertical_numerical_walls_lie_at_the_slope(case, at, k, s):
    # b = mu(v) is the only vertical numerical wall when r != 0; rank 0 has none
    cfg, v = case
    for a in (mv(*at), mv(k * v.r, k * v.c, s)):
        wall = numerical_wall(cfg, v, a)
        if wall.shape == "vertical":
            assert v.r != 0 and wall.line_b == Fraction(v.c, v.r)
    # a class whose rank and degree are proportional to v's, off v's line
    if v.r != 0 and s != k * v.s:
        assert numerical_wall(cfg, v, mv(k * v.r, k * v.c, s)).shape == "vertical"


@settings(max_examples=200, deadline=None)
@given(positive_vectors(), st.fractions(min_value=0, max_value=20, max_denominator=30))
def test_large_volume_limit_reads_the_charge_side(case, depth):
    # for every b0 < mu(v) the stand-in w lies on the side of l where
    # w(b0, 0) lies, so the limit -l + eps*w is the charge's
    cfg, v = case
    assume(depth > 0)
    vv = mv(*lex_sign(v.as_tuple()))
    basis = lambda_basis(cfg, v)
    ell, omega = _large_volume_limit(cfg, v, basis)
    assert ell == basis.int_coords(cfg, mv(0, vv.r, cfg.h2 * vv.c))
    b0 = Fraction(vv.c, vv.r) - depth if vv.r else depth - 10
    w0 = charge_direction(cfg, vv, b0, Fraction(0))
    den = lcm(*(x.denominator for x in w0))
    w0_coords = basis.int_coords(cfg, mv(*(int(x * den) for x in w0)))
    side = det2(omega, ell)
    assert side != 0
    assert (side > 0) == (det2(w0_coords, ell) > 0)
