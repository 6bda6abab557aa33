from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3walls import K3Config, mv
from k3walls import solvers
from k3walls.intmath import lex_sign
from k3walls.lattice import GramForm2, pairing, square
from k3walls.nsgeom import lambda_basis, orthogonal_line_generator
from k3walls.solvers import (
    _pell_unit,
    classes_in_rank2,
    decomposition_solutions,
    level_points,
    solve_square_with_pairing,
    spherical_classes,
)
from k3walls.walls import _candidate_walls, _null_rays, build_wall, enumerate_result

from oracles import (
    exact_level_points_by_isqrt,
    lattice_points_in_parallelogram,
    square_levels_by_isqrt,
)

CFG = K3Config(2)
VP = mv(1, 0, -4)
VM = mv(0, 2, -1)

H1 = GramForm2(8, 2, -2)
H2 = GramForm2(8, 3, 0)
H3 = GramForm2(8, 1, -2)
H4 = GramForm2(8, 3, -2)
H5 = GramForm2(8, 0, 0)
HC = GramForm2(8, 1, 0)


def test_solve_square_examples():
    sols = solve_square_with_pairing(CFG, VP, -2, 2, 8, lambda_basis(CFG, VP))
    assert mv(1, -1, 2) in sols
    with pytest.raises(ValueError):
        solve_square_with_pairing(CFG, VP, 0, 0, 8, lambda_basis(CFG, VP))  # the null rays of v-perp
    with pytest.raises(ValueError):
        solve_square_with_pairing(CFG, VP, -2, 7, 8, lambda_basis(CFG, VP))
    with pytest.raises(ValueError):
        solve_square_with_pairing(CFG, VP, -3, 1, 8, lambda_basis(CFG, VP))


def test_solve_square_verifies_equations():
    for v in (VP, VM, mv(1, 0, -1), mv(0, 1, -1)):
        vsq = square(CFG, v)
        for d in (-2, 0):
            for m in range(1 if d == 0 else 0, vsq // 2 + 1):
                for a in solve_square_with_pairing(CFG, v, d, m, 20, lambda_basis(CFG, v)):
                    assert square(CFG, a) == d
                    assert pairing(CFG, a, v) == m


def test_solve_square_torsion_vector_families():
    # rank-zero v: the level lines of c are null in v-perp
    assert mv(1, 0, 0) in solve_square_with_pairing(CFG, VM, 0, 1, 6, lambda_basis(CFG, VM))
    # v = (0, 1, 0): the free coordinate is r
    v = mv(0, 1, 0)
    assert solve_square_with_pairing(CFG, v, -2, 0, 3, lambda_basis(CFG, v)) == [mv(-1, 0, -1), mv(1, 0, 1)]


def _brute_classes(form, d, k, bound=50):
    out = set()
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) == (0, 0):
                continue
            if form.value(p, q) == d and form.q11 * p + form.q12 * q == k:
                out.add((p, q))
    return out


@pytest.mark.parametrize("form", [H1, H2, H3, H4, HC])
@pytest.mark.parametrize("d,k", [(-2, 0), (-2, 1), (-2, 2), (0, 0), (0, 1), (0, 2), (0, 3)])
def test_classes_in_rank2_matches_brute_force(form, d, k):
    exact = {pq for pq in classes_in_rank2(form, d, k) if max(abs(pq[0]), abs(pq[1])) <= 50}
    assert exact == _brute_classes(form, d, k)


def test_classes_in_rank2_examples():
    assert classes_in_rank2(H1, 0, 0) == []
    assert classes_in_rank2(H1, 0, 1) == []
    assert classes_in_rank2(H1, 0, 5) == []
    assert (0, 1) in classes_in_rank2(H1, -2, 2)
    with pytest.raises(ValueError):
        classes_in_rank2(H5, 0, 0)  # degenerate: the whole pairing line solves


def test_spherical_classes_brute():
    for form in (H1, H2, H3, H4, HC):
        got = set(spherical_classes(form, 20))
        want = {
            (p, q)
            for p in range(-200, 201)
            for q in range(-20, 21)
            if (p, q) != (0, 0) and form.value(p, q) == -2
        }
        assert got == want


def test_parallelogram_examples():
    # normalized wall basis: only the four vertices
    assert lattice_points_in_parallelogram((0, 1), (1, 0)) == []
    assert lattice_points_in_parallelogram((1, 0), (1, 1)) == []
    pts = lattice_points_in_parallelogram((2, 0), (2, 2))
    assert (1, 1) in pts
    assert len(pts) == 5


@settings(max_examples=150)
@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
)
def test_parallelogram_matches_bounding_box_scan(a, v):
    if a[0] * v[1] - a[1] * v[0] == 0:
        return
    got = set(lattice_points_in_parallelogram(a, v))
    verts = [(0, 0), a, (v[0] - a[0], v[1] - a[1]), v]
    xs = [p[0] for p in verts]
    ys = [p[1] for p in verts]
    det = a[0] * (v[1] - a[1]) - a[1] * (v[0] - a[0])
    brute = set()
    from fractions import Fraction

    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            s = Fraction(x * (v[1] - a[1]) - y * (v[0] - a[0]), det)
            t = Fraction(a[0] * y - a[1] * x, det)
            if 0 <= s <= 1 and 0 <= t <= 1 and not (s in (0, 1) and t in (0, 1)):
                brute.add((x, y))
    assert got == brute


def gram_in_basis(v, a, cfg=CFG):
    """The Gram form of (v, a), the basis decomposition_solutions reads."""
    return GramForm2(square(cfg, v), pairing(cfg, v, a), square(cfg, a))


def test_decomposition_solutions_unique_splits():
    # each interior wall of the rank-two system admits exactly one window
    # part, a itself
    assert decomposition_solutions(gram_in_basis(VM, mv(-2, 1, -1))) == [(0, 1)]
    assert decomposition_solutions(gram_in_basis(VM, mv(-1, 1, -2))) == [(0, 1)]
    assert decomposition_solutions(gram_in_basis(VM, mv(1, 0, 1))) == [(0, 1)]
    assert decomposition_solutions(gram_in_basis(VM, mv(-1, 1, -1))) == [(0, 1)]


def test_decomposition_solutions_window_bound():
    # the trivial split u = v is always outside the pairing window
    for a in (mv(-2, 1, -1), mv(1, 0, 1)):
        for p, q in decomposition_solutions(gram_in_basis(VM, a)):
            u = p * VM + q * a
            assert 0 < pairing(CFG, u, VM) <= square(CFG, VM) // 2
            assert u != VM


def test_decomposition_solutions_rejects_rank_one():
    with pytest.raises(ValueError):
        decomposition_solutions(gram_in_basis(VM, VM))


def test_gram_of():
    # the wall's form in the basis (v, a), the one spherical_members solves on
    g = build_wall(CFG, VP, mv(1, -1, 2)).gram
    assert (g.q11, g.q12, g.q22) == (8, 2, -2)
    assert g.disc_prime == 20


def _brute_level_points(form, line, levels, lo, hi, bound):
    out = set()
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            val = form.value(p, q)
            if ((p, q) != (0, 0) and line[0] * p + line[1] * q in levels
                    and lo <= val and (hi is None or val <= hi)):
                out.add((p, q))
    return out


BOX = 40
FORMS = st.tuples(st.integers(1, 12), st.integers(-8, 8), st.integers(-12, 12)).filter(
    lambda f: f[1] * f[1] - f[0] * f[2] > 0
)
LINES = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda l: l != (0, 0))


@settings(max_examples=150, deadline=None)
@given(FORMS, LINES, st.sets(st.integers(-12, 12), max_size=6), st.integers(-12, 12),
       st.booleans())
# null level lines (A = 0): one point per level, and a whole solving line
@example((1, 1, 0), (1, 0), {0, 1, 2, 3}, -3, True)
@example((1, 1, 0), (1, 0), {0, 1}, 0, True)
def test_level_points_match_box_scan(coeffs, line, levels, lo, equality):
    # the roots along most level lines are irrational, so the lower-bound
    # mode exercises the integer rounding at both ends of each interval
    form = GramForm2(*coeffs)
    l1, l2 = line
    g = gcd(l1, l2)
    A = form.value(l2 // g, -l1 // g)
    hi = lo if equality else None
    # the form is non-degenerate, so a null level line solves Q = lo
    # throughout only through the origin, and only for lo = 0
    # level_points takes a range of levels, so the set is passed one level at a time
    per_level = [range(k, k + 1) for k in sorted(levels)]
    if (not equality and A >= 0) or (A == 0 and lo == 0 and 0 in levels):
        with pytest.raises(ValueError):
            for one in per_level or [range(0)]:
                level_points(form, line, one, lo, hi)
        return
    got = []
    for one in per_level:
        part = level_points(form, line, one, lo, hi)
        assert part == sorted(set(part))
        got += part
    for p, q in got:
        assert (p, q) != (0, 0) and l1 * p + l2 * q in levels
        assert form.value(p, q) == lo if equality else form.value(p, q) >= lo
    inside = {pq for pq in got if max(abs(pq[0]), abs(pq[1])) <= BOX}
    assert inside == _brute_level_points(form, line, levels, lo, hi, BOX)


HYPERBOLIC = st.tuples(st.integers(-12, 12), st.integers(-8, 8), st.integers(-12, 12)).filter(
    lambda f: f[1] * f[1] - f[0] * f[2] > 0
)
# (first level, step, number of levels)
PROGRESSIONS = st.tuples(st.integers(-3000, 3000), st.integers(1, 7), st.integers(200, 2000))


@settings(max_examples=300, deadline=None)
@given(HYPERBOLIC, LINES, PROGRESSIONS, st.integers(-12, 12).filter(bool))
# A*lo < 0: the least member of one class sits exactly on Nagell's bound
@example((12, 1, -7), (2, 0), (-838, 4, 419), 7)
# A*lo > 0: along one orbit |j| runs 26, 10, 66, 254, 950, all in the window
@example((-3, 6, -11), (-4, -1), (-1692, 2, 1727), -8)
# A*lo > 0: a solution on the last level that only a walk reaches
@example((-9, -1, 1), (0, 4), (-2292, 3, 1528), -6)
@example((12, 1, -7), (2, 0), (0, 1, 0), 7)  # no levels at all
def test_exact_level_points_match_a_per_level_scan(coeffs, line, progression, lo):
    # on long progressions the solutions come from Pell orbits, not one isqrt per level
    form = GramForm2(*coeffs)
    g = gcd(*line)
    assume(form.value(line[1] // g, -line[0] // g) != 0)
    start, step, count = progression
    levels = range(start, start + step * count, step)
    want = exact_level_points_by_isqrt(form, line, levels, lo)
    assert level_points(form, line, levels, lo, lo) == want


CUT = solvers._SIEVE_MIN
MODULI = solvers._MODULI
# X^2 = delta*j^2 + M with delta < 0, = 0, a square, or not a square, or
# delta = 0 modulo one of the sieve's moduli
DELTAS = st.one_of(
    st.integers(-40, 40),
    st.integers(0, 30).map(lambda x: x * x),
    st.sampled_from(MODULI).map(lambda q: -q),
)
# small steps, and steps = 0 modulo one of the sieve's moduli
STEPS = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(lambda q, k: k * q, st.sampled_from(MODULI), st.sampled_from([-2, -1, 1, 2])),
)
# (first level, step, number of levels), on both sides of the sieve's cut-over
LEVEL_RANGES = st.builds(
    lambda start, step, count: range(start, start + step * count, step),
    st.integers(-3000, 3000),
    STEPS,
    st.integers(0, 3 * CUT),
)
LEVELS = st.one_of(LEVEL_RANGES, st.lists(st.integers(-400, 400), max_size=8).map(tuple))


@pytest.mark.parametrize("q, res, sq, is_square", solvers._SIEVE, ids=str)
def test_sieve_tables_are_the_squares_modulo_each_modulus(q, res, sq, is_square):
    # the sieve drops a j only when these tables say its value is not a
    # square modulo q, so a perfect square is never dropped
    assert q <= 256 and len(sq) == len(is_square) == 256
    squares = {r * r % q for r in range(q)}
    assert {x for x in range(256) if is_square[x]} == squares
    assert list(sq) == [r * r % q for r in range(q)] + [0] * (256 - q)
    for a in range(q):
        for b in range(q):  # b = 0: the residue of a, repeated
            assert list(solvers._residues(res, q, a, b, q)) == [(a + b * i) % q for i in range(q)]
    # the longest strides the sieve takes: the map x -> b*x + a on 256 bytes
    for a, b in [(q - 1, b) for b in range(q)] + [(a, 0) for a in range(q)] + [(-7, -3)]:
        assert list(solvers._residues(res, q, a, b, 256)) == [(a + b * i) % q for i in range(256)]


@settings(max_examples=400, deadline=None)
@given(DELTAS, st.integers(-600, 600), LEVELS, st.integers(1, 9))
@example(-3, 500, range(-40, 41), 1)  # delta < 0, plain loop
@example(-7, 10**4, range(-300, 301), 1)  # delta < 0, sieved
@example(0, 49, range(-250, 250), 1)  # delta = 0: every level solves
@example(0, 0, range(-600, 600, 3), 1)  # delta = 0 = M: X = 0 throughout
@example(16, 0, range(-900, 900, 2), 2)  # square delta, M = 0: every level solves
@example(13, 0, range(-900, 900), 1)  # M = 0: only j = 0
@example(25, -144, range(-1000, 1000, 3), 2)  # square delta, M < 0
@example(13, -4, range(-3000, 3000), 1)  # Pell orbits, Nagell scan sieved
@example(13, 12, range(3000, -3000, -7), 3)  # Pell orbits on a falling range
@example(5, 4, range(10, 10), 1)  # no levels
@example(5, 4, range(7, 8), 7)  # one level, one j
@example(5, 4, range(3, 3 + 5 * 300, 5), 10)  # no level is a multiple of g
@example(5, 4, (0, 12, -12, 7), 3)  # tuple levels
@example(0, 1, range(0, CUT - 1), 1)  # one short of the cut-over
@example(0, 1, range(0, CUT), 1)  # at the cut-over
# delta = 0 = M modulo 11, 17, 19, 23 and 29, steps = 0 modulo 64 and 65:
# every level solves
@example(0, (11 * 17 * 19 * 23 * 29) ** 2, range(0, 64 * 65 * 100, 64 * 65), 1)
@example(64, 9 * 65, range(1000, -1000, -7), 1)  # square delta = 0 mod 64, M = 0 mod 65
@example(-63, 0, range(-63 * 150, 63 * 150, 63), 1)  # delta = M = step = 0 mod 63
# CUT levels, fewer than the largest modulus: the mask of 65 is cut short
@example(-1, 50 * 50, range(-(CUT // 2), CUT - CUT // 2), 1)
def test_square_levels_match_one_isqrt_per_level(delta, M, levels, g):
    # the sieve only drops j whose value is not a square modulo one of MODULI;
    # _square_levels takes a range, so a tuple of levels is passed one level at a time
    ranges = [levels] if isinstance(levels, range) else [range(k, k + 1) for k in levels]
    got = set().union(*(solvers._square_levels(delta, M, one, g) for one in ranges))
    assert got == square_levels_by_isqrt(delta, M, levels, g)


@settings(max_examples=300, deadline=None)
@given(DELTAS, st.integers(-600, 600), LEVEL_RANGES)
@example(13, -4, range(3000, -3000, -7))  # falling range, sieved
@example(-65, 4 * 65 * 65, range(65 * 40, -65 * 40, -65))  # falling, delta = M = step = 0 mod 65
def test_square_points_match_one_isqrt_per_j(delta, M, js):
    # _square_levels passes rising ranges only; the sieve takes both directions
    want = [(j, isqrt(x)) for j in js if (x := delta * j * j + M) >= 0 and isqrt(x) ** 2 == x]
    assert solvers._square_points(delta, M, js) == want


def test_pell_unit_matches_sympy():
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    for D in range(2, 501):
        if isqrt(D) ** 2 != D:
            assert [_pell_unit(D)] == diophantine.diop_DN(D, 1)


def test_orbits_replace_most_of_the_level_scan(monkeypatch):
    # one isqrt per level of every family made 127 102 calls here
    calls = []
    monkeypatch.setattr(solvers, "isqrt", lambda n: calls.append(n) or isqrt(n))
    enumerate_result(K3Config(2), mv(3, 1, -7))
    assert 0 < len(calls) < 40_000


def test_sieve_keeps_isqrt_off_most_levels(monkeypatch):
    # one isqrt per level left after the Pell orbits made 694 851 calls here,
    # the sieve modulo 64, 63, 65 and 11 made 15 335, and all eight moduli 1 838
    calls = []
    monkeypatch.setattr(solvers, "isqrt", lambda n: calls.append(n) or isqrt(n))
    enumerate_result(K3Config(5), mv(1, 0, -53))
    assert 0 < len(calls) < 4_000


def test_level_points_rejects_unsupported_bounds():
    with pytest.raises(ValueError):
        level_points(H1, (1, 0), [1], -2, 0)  # a band, not Q = lo or Q >= lo
    with pytest.raises(ValueError):
        level_points(H1, (0, 0), [0], -2, -2)
    with pytest.raises(ValueError):
        level_points(H1, (0, 1), [1], -2, None)  # A = 8 > 0: unbounded
    with pytest.raises(ValueError):
        classes_in_rank2(GramForm2(0, 1, 2), 0, 1)  # v^2 must be positive


def test_decomposition_solutions_keep_irrational_root_ends():
    # on this wall the square along the level lines has irrational roots;
    # (3, -5) sits at the end of its interval; the points come by (q, p)
    sols = decomposition_solutions(gram_in_basis(mv(3, 2, -6), mv(1, 1, -4), K3Config(9)))
    assert sols == [(3, -5), (2, -3), (1, -1), (0, 1), (-1, 3), (-2, 5)]


VECS = st.tuples(st.integers(-4, 4), st.integers(-3, 3), st.integers(-6, 6))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), VECS, VECS)
def test_decomposition_solutions_match_box_scan(g, vt, at):
    cfg = K3Config(g)
    v, a = mv(*vt), mv(*at)
    vsq, m, asq = square(cfg, v), pairing(cfg, a, v), square(cfg, a)
    if vsq <= 0:
        return
    if m * m - asq * vsq <= 0:
        with pytest.raises(ValueError):
            decomposition_solutions(gram_in_basis(v, a, cfg))
        return
    got = decomposition_solutions(gram_in_basis(v, a, cfg))
    assert got == sorted(got, key=lambda pq: (pq[1], pq[0]))
    brute = set()
    for p in range(-BOX, BOX + 1):
        for q in range(-BOX, BOX + 1):
            u = p * v + q * a
            if square(cfg, u) >= -2 and 0 < pairing(cfg, u, v) <= vsq // 2:
                brute.add((p, q))
    assert {pq for pq in got if max(abs(pq[0]), abs(pq[1])) <= BOX} == brute
    for p, q in got:
        u = p * v + q * a
        assert square(cfg, u) >= -2 and 0 < pairing(cfg, u, v) <= vsq // 2


V_SHAPES = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-3, 3), st.integers(-6, 6)),
    # the shapes whose level lines are null in v-perp
    st.tuples(st.integers(-4, 4), st.integers(-3, 3), st.just(0)),
    st.tuples(st.just(0), st.integers(-3, 3), st.integers(-6, 6)),
    st.tuples(st.just(0), st.sampled_from([-1, 1]), st.just(0)),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), V_SHAPES, st.sampled_from([-2, 0]), st.integers(0, 6), st.data())
def test_solve_square_matches_box_scan(g, vt, d, window, data):
    cfg = K3Config(g)
    v = mv(*vt)
    vsq = square(cfg, v)
    assume(gcd(gcd(*vt[:2]), vt[2]) == 1 and vsq > 0)
    m = data.draw(st.integers(1 if d == 0 else 0, vsq // 2), label="m")
    got = solve_square_with_pairing(cfg, v, d, m, window, lambda_basis(cfg, v))
    free = 0 if v.r == 0 == v.s else 1
    assert got == sorted(set(got), key=lambda a: a.as_tuple())
    for a in got:
        assert abs(a.as_tuple()[free]) <= window
        assert square(cfg, a) == d and pairing(cfg, a, v) == m
    # box scan: the free coordinate over the window, a second one over the
    # box, and the third solved from (a, v) = m
    row = (-v.s, cfg.h2 * v.c, -v.r)
    k = max(i for i in range(3) if i != free and row[i])
    other = 3 - free - k
    brute = set()
    for x in range(-window, window + 1):
        for y in range(-BOX, BOX + 1):
            rest = m - row[free] * x - row[other] * y
            if rest % row[k] or abs(rest // row[k]) > BOX:
                continue
            coords = [0, 0, 0]
            coords[free], coords[other], coords[k] = x, y, rest // row[k]
            a = mv(*coords)
            if square(cfg, a) == d:
                brute.add(a)
    assert {a for a in got if max(map(abs, a.as_tuple())) <= BOX} == brute


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), V_SHAPES, st.integers(1, 6))
def test_reach_filter_matches_a_direct_search(g, vt, window):
    # one search at twice the window, filtered on reach, finds the lines of
    # a search at the window itself
    cfg = K3Config(g)
    v = mv(*vt)
    vsq = square(cfg, v)
    assume(gcd(gcd(*vt[:2]), vt[2]) == 1 and vsq > 0)
    basis = lambda_basis(cfg, v)
    cands = _candidate_walls(cfg, v, 2 * window, basis)
    hits = [
        a
        for d in (-2, 0)
        for m in range(1 if d == 0 else 0, vsq // 2 + 1)
        for a in solve_square_with_pairing(cfg, v, d, m, window, basis)
    ]
    hits += [basis.from_coords(x, y) for x, y in _null_rays(basis.gram)]
    direct = {lex_sign(basis.int_coords(cfg, orthogonal_line_generator(cfg, v, a))) for a in hits}
    assert {key for key, (reach, _) in cands.items() if reach <= window} == direct
