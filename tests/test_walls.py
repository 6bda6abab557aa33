from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from k3walls import K3Config, enumerate_result, mv
from k3walls import walls as walls_mod
from k3walls.intmath import coords_in_basis, cross3, det2, primitive_vector
from k3walls.lattice import pairing, square
from k3walls.nsgeom import lambda_basis, orthogonal_line_generator
from k3walls.walls import MovableCone, _candidate_walls, _ray_coords, build_wall, default_window

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
            assert g.disc <= 0
            assert (g.disc == 0) == wall.degenerate
            assert wall.square_normalized
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


def _carries_wall_class(v, wall, scan=60, cfg=CFG):
    """Brute scan of the saturated lattice for a class with square -2 or 0
    and pairing against v inside the window; such a class is what makes the
    orthogonal line an actual wall rather than a crossing-free line."""
    from math import isqrt

    vsq = square(cfg, v)
    g11 = vsq
    g12 = pairing(cfg, v, wall.u)
    g22 = square(cfg, wall.u)
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
        ray = _ray_coords(basis, mv(*line))
        if not cone.contains_line(ray):
            continue
        wall = build_wall(cfg, v, mv(*_seed_from_line(v, line, cfg)))
        if _carries_wall_class(v, wall, cfg=cfg):
            rays.add(ray)
    return rays, {_ray_coords(basis, w.line) for w in res.walls}


def _seed_from_line(v, line, cfg=CFG):
    """Any lattice class independent of v inside the orthogonal plane of line."""
    from k3walls.intmath import kernel_basis_int
    from k3walls.nsgeom import pairing_row

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
    assert wall.gram.disc == -1  # saturated Hilbert-Chow lattice


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
    cands = _candidate_walls(cfg, v, 32, lambda_basis(cfg, v))
    lines = {w.line.as_tuple() for _, w in cands.values() if w.degenerate}
    assert lines == {(2, 1, 2), (50, 35, 98)}
    # (50, 35, 98) lies outside the movable sector
    assert [w.line.as_tuple() for w in enumerate_result(cfg, v).walls] == [(24, 17, 48), (2, 1, 2)]


def test_end_ray_sorts_after_every_interior_ray():
    # position reads only the form, the anchor and the two boundary rays
    cone = MovableCone(None, (0, 1, 0), (1, 1), (1, 0), (0, 1), "null", "null")
    steep = (1, 10**31)
    assert cone.contains_line(steep)
    assert cone.position((1, 0)) < cone.position(steep) < cone.position((0, 1))


def test_window_below_one_is_rejected():
    # the stability pass at twice the window would compare a pass with itself
    for window in (0, -5):
        with pytest.raises(ValueError, match="window"):
            enumerate_result(CFG, VP, window=window)


def test_each_candidate_line_is_built_once(monkeypatch):
    # one solver call per (a^2, (a, v)) family, all at twice the window, and
    # one build per line over the whole enumeration
    windows, built = [], []
    real_solve, real_build = walls_mod.solve_square_with_pairing, walls_mod.build_wall

    def counting_solve(cfg, v, d, m, window, basis):
        windows.append(window)
        return real_solve(cfg, v, d, m, window, basis)

    def counting_build(cfg, v, a):
        wall = real_build(cfg, v, a)
        built.append(wall.line.as_tuple())
        return wall

    monkeypatch.setattr(walls_mod, "solve_square_with_pairing", counting_solve)
    monkeypatch.setattr(walls_mod, "build_wall", counting_build)
    v = mv(3, 1, -7)
    res = enumerate_result(CFG, v)
    assert len(windows) == square(CFG, v) + 1
    assert set(windows) == {2 * default_window(CFG, v)} == {2 * res.window}
    assert len(built) == len(set(built))


def test_each_window_keeps_the_lines_it_reaches():
    # on (1, 0, -4) windows 1, 2 and 3 each reach one more wall; a line
    # whose reach equals the window belongs to that window
    results = [enumerate_result(CFG, VP, window=w) for w in (1, 2, 3)]
    assert [len(res.walls) for res in results] == [4, 5, 6]
    assert [res.stable for res in results] == [False, False, True]


def _gram_q(gram, x, y):
    g11, g12, g22 = gram
    return g11 * x[0] * y[0] + g12 * (x[0] * y[1] + x[1] * y[0]) + g22 * x[1] * y[1]


def _between_det2(cone, ray):
    """Oracle for contains_line: the ray lies between start and end by det2 signs."""
    u = cone.orient(ray)
    d1, d2 = det2(cone.start, u), det2(u, cone.end)
    if det2(cone.start, cone.end) > 0:
        return d1 >= 0 and d2 >= 0
    return d1 <= 0 and d2 <= 0


def _cramer_key(cone, ray):
    """Oracle for position: u = x*start + y*end, keyed by y/x (the end ray last)."""
    u = cone.orient(ray)
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
        gram = (2 * a1 * a2, a1 * b2 + a2 * b1, 2 * b1 * b2)
        nulls = [(b1, -a1), (b2, -a2)]
    else:
        gram = draw(st.tuples(small, small, small))
        assume(gram[1] ** 2 - gram[0] * gram[2] > 0)
    vecs = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=12))
    positive = [x for x in vecs if _gram_q(gram, x, x) > 0]
    assume(positive)
    anchor = primitive_vector(positive[0])
    # rays of either sign: MovableCone.orient moves each into the anchor's component
    rays = draw(st.permutations(positive[1:] + nulls))
    assume(len(rays) >= 2)
    start, end = (x if _gram_q(gram, x, anchor) > 0 else (-x[0], -x[1]) for x in rays[:2])
    assume(det2(start, end) != 0)
    return MovableCone(None, gram, anchor, start, end, "", ""), rays


@settings(max_examples=300, deadline=None)
@given(sectors())
def test_slope_places_rays_as_det2_and_cramer_do(case):
    cone, rays = case
    inside = []
    for ray in rays:
        assert cone.contains_line(ray) == _between_det2(cone, ray), ray
        if cone.contains_line(ray):
            inside.append(ray)
    assert len(inside) >= 2  # start and end
    for r1 in inside:
        for r2 in inside:
            assert (cone.position(r1) < cone.position(r2)) == (
                _cramer_key(cone, r1) < _cramer_key(cone, r2)
            ), (r1, r2)
