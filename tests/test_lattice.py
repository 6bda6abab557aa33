import random

import pytest
from hypothesis import given, strategies as st

from k3walls import K3Config, mv
from k3walls.lattice import (
    dual_isometry,
    hilbert_n,
    identity_isometry,
    line_bundle_vector,
    moduli_dim,
    pairing,
    reflect_spherical,
    reflection_isometry,
    square,
    tensor_by,
    tensor_isometry,
    twist_T,
)
from oracles import isometry_inverse, preserves_pairing

CFG = K3Config(2)

ints = st.integers(min_value=-40, max_value=40)


def test_genus_validation():
    with pytest.raises(ValueError):
        K3Config(1)
    assert K3Config(3).h2 == 4


def test_pairing_values():
    assert pairing(CFG, mv(1, -1, 2), mv(1, -1, 2)) == -2
    assert pairing(CFG, mv(1, -1, 1), mv(1, 0, -4)) == 3
    assert pairing(CFG, mv(0, 0, 0), mv(5, 7, -3)) == 0
    assert pairing(CFG, mv(0, 2, -1), mv(0, 2, -1)) == 8


def test_pairing_signature_2_1():
    # explicit orthogonal triple: two positive directions, one negative
    plus1, plus2, minus = mv(1, 0, -1), mv(0, 1, 0), mv(1, 0, 1)
    assert square(CFG, plus1) == 2
    assert square(CFG, plus2) == CFG.h2
    assert square(CFG, minus) == -2
    assert pairing(CFG, plus1, plus2) == 0
    assert pairing(CFG, plus1, minus) == 0
    assert pairing(CFG, plus2, minus) == 0


@given(ints, ints, ints, ints, ints, ints)
def test_pairing_symmetric_even_diagonal(r1, c1, s1, r2, c2, s2):
    x, y = mv(r1, c1, s1), mv(r2, c2, s2)
    assert pairing(CFG, x, y) == pairing(CFG, y, x)
    assert square(CFG, x) % 2 == 0


def test_moduli_dim():
    assert moduli_dim(CFG, mv(0, 2, -1)) == 10
    assert moduli_dim(CFG, mv(1, 0, -4)) == 10
    assert moduli_dim(CFG, mv(1, 0, 1)) == 0
    with pytest.raises(ValueError):
        moduli_dim(CFG, mv(2, 0, 1))  # square -4


def test_hilbert_n():
    assert hilbert_n(CFG, mv(1, 0, -4)) == 5
    assert hilbert_n(CFG, mv(0, 1, -1)) == 2
    assert hilbert_n(CFG, mv(0, 2, -1)) == 5
    with pytest.raises(ValueError):
        hilbert_n(CFG, mv(1, 0, 1))  # square -2
    with pytest.raises(ValueError):
        hilbert_n(CFG, mv(0, 0, 1))  # square 0


def test_tensor_matrix_minus_two():
    assert tensor_by(CFG, -2, mv(1, 0, 0)) == mv(1, -2, 4)
    assert tensor_by(CFG, -2, mv(0, 0, 1)) == mv(0, 0, 1)
    assert tensor_by(CFG, -2, mv(0, 1, 0)) == mv(0, 1, -4)
    assert tensor_isometry(CFG, -2).matrix == ((1, 0, 0), (-2, 1, 0), (4, -4, 1))


def test_tensor_identity_and_isometry():
    x = mv(3, -5, 7)
    assert tensor_by(CFG, 0, x) == x
    for k in (-3, -1, 1, 4):
        iso = tensor_isometry(CFG, k)
        assert preserves_pairing(CFG, iso)
        assert iso.det == 1


def test_reflection():
    w = mv(1, -2, 5)
    assert square(CFG, w) == -2
    assert reflect_spherical(CFG, w, mv(1, 0, 0)) == mv(-4, 10, -25)
    assert reflect_spherical(CFG, w, w) == -w
    # matrix-column cross-check of a derived value
    assert reflect_spherical(CFG, w, mv(0, 1, 2)) == mv(-6, 13, -28)
    with pytest.raises(ValueError):
        reflect_spherical(CFG, mv(1, 0, 0), mv(0, 1, 0))


def test_reflection_matrix():
    w = mv(1, -2, 5)
    assert reflection_isometry(CFG, w).matrix == (
        (-4, -4, -1),
        (10, 9, 2),
        (-25, -20, -4),
    )


def test_reflection_involution_randomized():
    rng = random.Random(7)
    w = mv(1, -2, 5)
    for _ in range(200):
        x = mv(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(-30, 30))
        assert reflect_spherical(CFG, w, reflect_spherical(CFG, w, x)) == x


def test_twist_matrix_and_action():
    T = twist_T(CFG)
    assert T.matrix == ((0, 0, -1), (0, 1, 2), (-1, -4, -4))
    assert T.apply(mv(0, 2, -1)) == mv(1, 0, -4)
    assert T.apply(mv(-2, 1, -1)) == mv(1, -1, 2)
    assert (isometry_inverse(T) @ T).matrix == identity_isometry().matrix


TABLE_PAIRS = [
    (mv(-1, 0, 0), mv(0, 0, 1)),
    (mv(-2, 1, -1), mv(1, -1, 2)),
    (mv(-1, 1, -1), mv(1, -1, 1)),
    (mv(1, 0, 1), mv(-1, 2, -5)),
    (mv(-1, 1, -2), mv(2, -3, 5)),
    (mv(0, 0, 1), mv(-1, 2, -4)),
]


def test_twist_maps_table_rows():
    T = twist_T(CFG)
    for a, a_prime in TABLE_PAIRS:
        image = T.apply(a)
        assert image == a_prime or image == -a_prime


def test_isometries_preserve_pairing_randomized():
    rng = random.Random(11)
    isos = [
        twist_T(CFG),
        tensor_isometry(CFG, 3),
        reflection_isometry(CFG, line_bundle_vector(CFG, -1)),
        dual_isometry(),
    ]
    vecs = [
        mv(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
        for _ in range(1000)
    ]
    for iso in isos:
        for i in range(0, len(vecs), 2):
            x, y = vecs[i], vecs[i + 1]
            assert pairing(CFG, iso.apply(x), iso.apply(y)) == pairing(CFG, x, y)


def test_line_bundle_vector_spherical():
    for g in (2, 3, 5):
        cfg = K3Config(g)
        for k in (-3, -2, 0, 1):
            assert square(cfg, line_bundle_vector(cfg, k)) == -2


def test_isometry_determinants_are_units():
    assert twist_T(CFG).det == -1
    assert tensor_isometry(CFG, -2).det == 1
    assert reflection_isometry(CFG, mv(1, -2, 5)).det == -1
    assert dual_isometry().det == -1


def test_isometry_equality_is_matrix_equality():
    composite = reflection_isometry(CFG, line_bundle_vector(CFG, -2)) @ tensor_isometry(
        CFG, -2
    )
    assert composite == twist_T(CFG)
    assert twist_T(CFG) != tensor_isometry(CFG, -2)
