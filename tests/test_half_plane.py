"""Upper half-plane backend and the PSL(2,Z) matrix/syllable bridge."""

import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from loxgrow.errors import ConfigError, NotInGroup
from loxgrow.spaces import (
    FreeProductTree,
    HalfPlane,
    Point,
    psl2z_normal_form,
    syllables_to_matrix,
)
from loxgrow.spaces.half_plane import EPS_ID

from conftest import power

LOG2 = math.log(2.0)


def test_projective_sign_normalization(hp):
    assert hp.element([[-1, 0], [0, -1]]).canonical == (1, 0, 0, 1)
    assert hp.is_identity(hp.element([[-1, 0], [0, -1]]))
    assert hp.element([[-1, -1], [0, -1]]).canonical == (1, 1, 0, 1)


def test_det_must_be_one(hp):
    with pytest.raises(NotInGroup):
        hp.element([[2, 0], [0, 2]])


def test_float_mode_det_tolerance(hpf):
    hpf.element([[2.0, 0.0], [0.0, 0.5]])
    with pytest.raises(NotInGroup):
        hpf.element([[2.0, 0.0], [0.0, 0.6]])


def test_dist_vertical(hp):
    i = hp.origin()
    i2 = Point(hp, 2j)
    assert abs(hp.dist(i, i2) - LOG2) <= 1e-12
    assert abs(hp.dist(i2, i) - LOG2) <= 1e-12


def test_apply_translation(hp):
    T = hp.element([[1, 2], [0, 1]])
    assert hp.apply(T, hp.origin()).data == 2 + 1j


def test_apply_matches_exact_rational_arithmetic(hp):
    # entries around 1e6: naive complex division loses Im to cancellation
    g = hp.element([[1, 2], [0, 1]])
    h = hp.element([[1, 0], [2, 1]])
    big = power(hp.compose(g, h), 8)
    assert max(abs(v) for v in big.canonical) > 10**5
    z = hp.apply(big, hp.origin()).data
    a, b, c, d = (Fraction(v) for v in big.canonical)
    den = c * c + d * d
    re_exact, im_exact = (b * d + a * c) / den, 1 / den
    assert im_exact > 0
    assert abs(z.imag - im_exact) <= 1e-15 * float(im_exact)
    assert abs(z.real - re_exact) <= 1e-9 * max(1.0, abs(float(re_exact)))


def test_apply_overflow_raises(hp):
    g = hp.element([[1, -2], [-2, 5]])
    with pytest.raises(OverflowError):
        hp.apply(power(g, 500), hp.origin())


def test_dist_degenerate_height_raises(hp):
    lo = Point(hp, complex(0.0, 5e-200))
    lo2 = Point(hp, complex(1.0, 5e-200))
    with pytest.raises(OverflowError):
        hp.dist(lo, lo2)


def test_geodesic_point_vertical(hp):
    i, i4 = hp.origin(), Point(hp, 4j)
    assert abs(hp.geodesic_point(i, i4, LOG2).data - 2j) <= 1e-12
    with pytest.raises(ValueError):
        hp.geodesic_point(i, i4, 2 * LOG2 + 1)


def test_geodesic_point_additive_on_arc(hp):
    x, y = hp.origin(), Point(hp, 2 + 1j)
    d = hp.dist(x, y)
    for t in (0.25 * d, 0.5 * d, 0.8 * d):
        p = hp.geodesic_point(x, y, t)
        assert abs(hp.dist(x, p) - t) <= 1e-9
        assert abs(hp.dist(p, y) - (d - t)) <= 1e-9


def test_trace_classification(hp):
    assert hp.classify(hp.element([[1, 1], [0, 1]])).kind == "parabolic"
    assert hp.classify(hp.element([[0, -1], [1, 0]])).kind == "elliptic"
    assert hp.classify(hp.element([[2, 1], [1, 1]])).kind == "loxodromic"
    assert hp.classify(hp.element([[1, 0], [0, 1]])).kind == "identity"


def test_float_boundary_flag(hpf):
    # a float trace within EPS_ID of 2 lies on the parabolic line
    near = hpf.element([[1.0 + 4e-10, 1.0], [0.0, 1.0 / (1.0 + 4e-10)]])
    cls = hpf.classify(near)
    assert cls.kind == "parabolic"


def test_translation_length_from_trace(hpf):
    g = hpf.element([[2.0, 0.0], [0.0, 0.5]])
    # tau = 2 arccosh(|tr|/2) and dist(i, g^n i)/n converge together
    tau = hpf.translation_length(g)
    assert abs(tau - 2 * LOG2) <= 1e-12
    i = hpf.origin()
    n = 16
    assert abs(hpf.dist(i, hpf.apply(power(g, n), i)) / n - tau) <= 1e-9


def test_axis_apex_is_on_axis(hp):
    g = hp.element([[2, 1], [1, 1]])
    apex = hp.axis_apex(g)
    tau = hp.translation_length(g)
    assert abs(hp.dist(apex, hp.apply(g, apex)) - tau) <= 1e-9


def test_isometry_invariance(hp):
    rng = random.Random(17)
    mats = [[[1, 2], [0, 1]], [[1, 0], [2, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 0]]]
    for _ in range(200):
        x, y = hp.sample_points(rng, 2)
        g = hp.element(rng.choice(mats))
        if rng.random() < 0.5:
            g = hp.invert(g)
        assert abs(hp.dist(hp.apply(g, x), hp.apply(g, y)) - hp.dist(x, y)) <= 1e-9


def test_arithmetic_mode_validation():
    with pytest.raises(ConfigError):
        HalfPlane(arithmetic="decimal")


def test_float_det_tolerance_scales_with_the_products(hpf):
    # [[N, N-1], [N+1, N]] has det 1; cast to float, ad = 1e16 and
    # bc = 1e16 - 1 round to the same value, so det computes as 0.0
    N = 10**8
    m = [[float(N), float(N - 1)], [float(N + 1), float(N)]]
    a, b, c, d = (v for row in m for v in row)
    assert a * d - b * c == 0.0
    assert hpf.element(m).canonical == (a, b, c, d)
    for bad in ([[2.0, 0.0], [0.0, 0.6]],
                [[1.0 + 1e-11, 0.0], [0.0, 1.0]],
                [[math.nan, 0.0], [0.0, 1.0]],
                [[math.inf, 0.0], [0.0, 1.0]],
                [[1e200, 0.0], [0.0, 1e200]],
                [["1", True], [0.0, 1.0]],
                [[True, 0.0], [0.0, 1.0]],
                [[10**400, 0.0], [0.0, 1.0]]):
        with pytest.raises(NotInGroup):
            hpf.element(bad)


def test_exact_compose_normalizes_by_the_sign_of_a_then_b(hp):
    # against the generic first-nonzero-entry rule, on products that land
    # on a = 0 (either sign of b) as well as on both signs of a
    rng = random.Random(41)
    gens = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1), (0, 1, -1, 0)]
    seen = set()
    for _ in range(500):
        m = hp._identity_canonical()
        for _ in range(rng.randint(1, 8)):
            g = rng.choice(gens)
            a1, b1, c1, d1 = m
            a2, b2, c2, d2 = g
            raw = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
            m = hp._compose(m, g)
            assert m == hp._normalize(*raw)
            seen.add((raw[0] > 0, raw[0] == 0, raw[1] > 0))
    assert seen >= {(True, False, True), (False, False, False), (False, True, True),
                    (False, True, False)}


# -- matrix <-> (2,3) syllable bridge ----------------------------------------


def test_translation_is_ab(hp):
    assert psl2z_normal_form([[1, 1], [0, 1]]) == ((0, 1), (1, 1))


def test_order_two_generator(hp):
    assert psl2z_normal_form([[0, -1], [1, 0]]) == ((0, 1),)


def test_identity_is_empty_word():
    assert psl2z_normal_form([[1, 0], [0, 1]]) == ()
    assert psl2z_normal_form([[-1, 0], [0, -1]]) == ()


def test_normal_form_round_trip():
    pt = FreeProductTree((2, 3))
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 30)
        w = "".join(rng.choice("ab") for _ in range(n))
        syll = pt.syllables(pt.element(w).canonical)
        assert psl2z_normal_form(syllables_to_matrix(syll)) == syll


def test_normal_form_rejects_bad_input():
    with pytest.raises(NotInGroup):
        psl2z_normal_form([[1, 1], [1, 1]])
    with pytest.raises(NotInGroup):
        psl2z_normal_form([[1.5, 0], [0, 1]])


def test_normal_form_checks_as_the_exact_half_plane():
    # one rule for integer matrices: the bridge raises the half-plane's messages
    for bad, message in (
        ([[1.0, 0], [0, 1]], "exact_integer arithmetic needs int entries, got 1.0"),
        ((2, 0, 0, 1), "determinant 2 != 1"),
    ):
        with pytest.raises(NotInGroup, match=f"^{re.escape(message)}$"):
            psl2z_normal_form(bad)
    with pytest.raises(NotInGroup, match="^exact_integer arithmetic needs int entries"):
        HalfPlane().element([[1.0, 0], [0, 1]])


def _float_pool(rng):
    """Seeded float entries: dyadics on both sides of 9 binary fractional
    digits, integers past 2**53, non-dyadics, near-ties of the 9th decimal,
    signed zeros, subnormals, infinities and NaN."""
    dyadic = [rng.randint(-10**6, 10**6) / 2.0 ** rng.randint(0, 12) for _ in range(200)]
    big = [float(2**53 + 2 * rng.randint(0, 10**6)) for _ in range(20)] + [2.0**60, -1e300]
    other = [rng.uniform(-10.0, 10.0) for _ in range(100)] + [0.1, 1 / 3, -2.2]
    ties = [(rng.randint(-10**6, 10**6) + 0.5) * 1e-9 for _ in range(100)]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, math.inf, -math.inf, math.nan,
               0.0009765625, 3 * 0.0009765625]
    return dyadic, dyadic + big + other + ties + special


def test_growth_key_rounds_like_round(hpf):
    # the key skips round() on entries with at most 9 binary fractional
    # digits; it must equal rounding every entry, bit for bit (repr puts NaN
    # in its position and tells -0.0 from 0.0)
    rng = random.Random(11)
    dyadic, mixed = _float_pool(rng)
    quads = [tuple(rng.choice(pool) for _ in range(4))
             for pool in (dyadic, mixed) for _ in range(3000)]
    # 2**-10 has ten decimals: a test of v * 1024 instead of v * 512 passes it
    quads += [(1.0, 0.0009765625, 0.0, 1.0), (0.0009765625,) * 4, (2.0**60, 0.5, -0.0, 3.0)]
    for c in quads:
        assert [repr(v) for v in hpf._growth_key(c)] == [repr(round(v, 9)) for v in c], c


def test_integer_valued_growth_key_is_the_canonical(hpf):
    c = hpf.element([[3.0, 2.0], [1.0, 1.0]]).canonical
    assert hpf._growth_key(c) is c
    assert HalfPlane()._growth_key is None


def _raw_product(ca, cb):
    a1, b1, c1, d1 = ca
    a2, b2, c2, d2 = cb
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def test_float_compose_normalizes_like_normalize(hpf):
    # the compose and its batch write the sign rule inline; they must pick
    # the sign _normalize picks, also at +-EPS_ID, with every entry tiny,
    # and past NaN and inf
    eps = EPS_ID
    edge = [eps, -eps, math.nextafter(eps, 1.0), -math.nextafter(eps, 1.0),
            math.nextafter(eps, 0.0), 0.0, -0.0, 1e-12, -1e-12, math.nan, math.inf,
            -math.inf, 3.0, -2.0, 0.5]
    rng = random.Random(5)
    one = (1.0, 0.0, 0.0, 1.0)
    pairs = [(one, tuple(rng.choice(edge) for _ in range(4))) for _ in range(3000)]
    pairs += [(tuple(rng.uniform(-3, 3) for _ in range(4)), tuple(rng.choice(edge) for _ in range(4)))
              for _ in range(1000)]
    pairs += [(one, (1e-12, -1e-12, 0.0, -0.0)), (one, (-eps, -eps, -eps, -eps)),
              (one, (math.nan, -eps, -3.0, 1.0)), (one, (-0.0, -math.inf, 1.0, 0.0))]
    for ca, cb in pairs:
        want = hpf._normalize(*_raw_product(ca, cb))
        assert repr(hpf._compose(ca, cb)) == repr(want), (ca, cb)
    # chunks of edge matrices and products of them, against one edge g
    pool = [cb for _, cb in pairs] + [hpf._compose(ca, cb) for ca, cb in pairs]
    for _ in range(300):
        chunk = rng.sample(pool, rng.randint(1, 64))
        g = tuple(rng.choice(edge) for _ in range(4))
        want = [hpf._normalize(*_raw_product(w, g)) for w in chunk]
        assert repr(hpf._compose_batch(chunk, g)) == repr(want), g
