"""Hyperbolicity estimates, translation lengths and displacement."""

import math
import random

import pytest

from loxgrow.hypcore import (
    displacement,
    estimate_delta,
    four_point_defect,
    gromov_product,
    min_displacement_search,
    translation_length_bracket,
)
from loxgrow.spaces.base import Point
from loxgrow.words import make_generating_set


def random_tree_point(backend, rng, max_len=8):
    letters = "xyXY"
    w = "".join(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
    return backend.apply(backend.element(w), backend.origin())


def random_hp_point(rng):
    return complex(rng.uniform(-4, 4), math.exp(rng.uniform(-1.5, 1.5)))


def test_gromov_product_examples(ft2):
    o = ft2.origin()
    x = ft2.apply(ft2.element("xy"), o)
    y = ft2.apply(ft2.element("xx"), o)
    assert gromov_product(x, y, o) == 1.0
    assert gromov_product(x, x, o) == ft2.dist(o, x)
    mid = ft2.apply(ft2.element("x"), o)
    assert gromov_product(o, y, mid) == 0.0


def test_gromov_product_nonnegative_seeded(ft2, hp):
    rng = random.Random(5)
    for _ in range(50):
        x = random_tree_point(ft2, rng)
        y = random_tree_point(ft2, rng)
        o = random_tree_point(ft2, rng)
        p = gromov_product(x, y, o)
        assert 0.0 <= p <= min(ft2.dist(o, x), ft2.dist(o, y)) + 1e-9
    for _ in range(50):
        x = Point(hp, random_hp_point(rng))
        y = Point(hp, random_hp_point(rng))
        o = Point(hp, random_hp_point(rng))
        p = gromov_product(x, y, o)
        assert -1e-9 <= p <= min(hp.dist(o, x), hp.dist(o, y)) + 1e-9


def test_four_point_defect_respects_delta(ft2, pt23, hp):
    rng = random.Random(11)
    for backend, sampler in (
        (ft2, lambda: random_tree_point(ft2, rng)),
        (hp, lambda: Point(hp, random_hp_point(rng))),
    ):
        for _ in range(1000):
            x, y, z, o = sampler(), sampler(), sampler(), sampler()
            assert four_point_defect(x, y, z, o) <= backend.delta + 1e-9


def _three_product_defect(x, y, z, o):
    # the defect as three calls of gromov_product: nine distances
    return min(gromov_product(x, z, o), gromov_product(z, y, o)) - gromov_product(x, y, o)


@pytest.mark.parametrize("seed", range(50))
def test_four_point_defect_is_bit_identical_to_three_products(seed, ft2, pt23, hp):
    for backend in (ft2, pt23, hp):
        calls = []
        dist = backend.dist

        def counted(a, b):
            calls.append(1)
            return dist(a, b)

        rng = random.Random(seed)
        for _ in range(4):
            x, y, z, o = backend.sample_points(rng, 4)
            want = _three_product_defect(x, y, z, o)
            backend.dist = counted
            try:
                got = four_point_defect(x, y, z, o)
            finally:
                del backend.dist
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert len(calls) == 6 * 4


def test_estimate_delta_trees_exact(ft2, pt23):
    assert estimate_delta(ft2, 200, seed=3) == 0.0
    assert estimate_delta(pt23, 200, seed=3) == 0.0


def test_estimate_delta_half_plane(hp):
    val = estimate_delta(hp, 500, seed=7)
    assert 0.0 < val <= 1.0


def test_estimate_delta_sample_size_validation(ft2):
    with pytest.raises(ValueError):
        estimate_delta(ft2, 3, 0)


def test_translation_bracket_tree(ft2):
    br = translation_length_bracket(ft2.element("x"), ft2.origin())
    assert br.upper == br.estimate == 1.0


def test_translation_bracket_half_plane(hpf):
    g = hpf.element([[2.0, 0.0], [0.0, 0.5]])
    tau = 2.0 * math.log(2.0)
    br = translation_length_bracket(g, hpf.origin())
    assert br.upper == pytest.approx(tau, abs=1e-12)
    assert br.estimate == pytest.approx(tau, abs=1e-12)
    off = translation_length_bracket(g, Point(hpf, 1 + 1j), N=64)
    assert abs(off.estimate - tau) <= 1e-6
    assert off.upper >= tau - 1e-12


def test_translation_bracket_monotone_and_sound(hpf):
    g = hpf.element([[3.0, 2.0], [1.0, 1.0]])
    x = Point(hpf, 0.5 + 2j)
    uppers = [translation_length_bracket(g, x, N=n).upper for n in (4, 8, 16, 32, 64)]
    assert all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))
    tau = hpf.translation_length(g)
    assert all(u >= tau - 1e-9 for u in uppers)


def test_displacement_values(ft2, pt23, hp, S_f2, S_pt, S_sanov):
    rec = displacement(S_f2, ft2.origin())
    assert rec.value == 1.0
    avert = pt23.origin()
    assert displacement(S_pt, avert).value == 2.0
    assert displacement(S_sanov, hp.origin()).value == pytest.approx(math.acosh(3.0))


def test_min_displacement_search(ft2, pt23, S_f2, S_pt):
    best = min_displacement_search(S_f2)
    assert best.value == 1.0
    assert displacement(S_f2, best.point).value == best.value
    assert min_displacement_search(S_pt).value == 2.0


def test_displacement_equivariance(ft2, S_f2):
    rng = random.Random(17)
    for _ in range(20):
        w = "".join(rng.choice("xyXY") for _ in range(rng.randint(0, 5)))
        g = ft2.element(w)
        x = random_tree_point(ft2, rng)
        conj = make_generating_set(
            ft2,
            [ft2.compose(ft2.compose(g, s), ft2.invert(g)) for s in S_f2],
        )
        assert displacement(conj, ft2.apply(g, x)).value == displacement(S_f2, x).value

