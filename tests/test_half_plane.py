"""Upper half-plane backend and the PSL(2,Z) matrix/syllable bridge."""

import math
import random
import re
from fractions import Fraction

import pytest

from loxgrow.errors import ConfigError, NotInGroup
from loxgrow.spaces import (
    FreeProductTree,
    GroupElement,
    HalfPlane,
    Point,
    psl2z_normal_form,
    syllables_to_matrix,
)
from loxgrow.spaces.half_plane import _at_least, _ping_pong

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


def test_trace_classification(hp):
    assert hp.classify(hp.element([[1, 1], [0, 1]])).kind == "parabolic"
    assert hp.classify(hp.element([[0, -1], [1, 0]])).kind == "elliptic"
    assert hp.classify(hp.element([[2, 1], [1, 1]])).kind == "loxodromic"
    assert hp.classify(hp.element([[1, 0], [0, 1]])).kind == "identity"


def test_translation_length_from_trace(hpf):
    g = hpf.element([[2.0, 0.0], [0.0, 0.5]])
    # tau = 2 arccosh(|tr|/2) and dist(i, g^n i)/n converge together
    tau = hpf.translation_length(g)
    assert abs(tau - 2 * LOG2) <= 1e-12
    i = hpf.origin()
    n = 16
    assert abs(hpf.dist(i, hpf.apply(power(g, n), i)) / n - tau) <= 1e-9


def test_translation_length_past_float_range(hp, hpf):
    # a trace past float range: tau = 2 log|tr| - log det, from the ints
    big = 10**400
    g = hp.element([[big, 1], [big - 1, 1]])
    assert hp.translation_length(g) == 2.0 * math.log(big + 1)
    # det 2, as the float spelling can store a canonical
    g = GroupElement(hpf, (big, 1, big - 2, 1))
    assert hpf.translation_length(g) == pytest.approx(2.0 * math.log(big + 1) - LOG2, rel=1e-15)
    # within range the trace formula holds as before, and the log form
    # agrees with it where |tr| nears the end of float range
    near = 10**300
    g = hp.element([[near, 1], [near - 1, 1]])
    assert hp.translation_length(g) == 2.0 * math.acosh((near + 1) / 2.0)
    assert hp.translation_length(g) == pytest.approx(2.0 * math.log(near + 1), rel=1e-15)


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


def _raw_product(ca, cb):
    a1, b1, c1, d1 = ca
    a2, b2, c2, d2 = cb
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _projective(m):
    """The class of the matrix m up to scale: its entries over its first
    nonzero entry, as Fractions."""
    lead = next(v for v in m if v)
    return tuple(Fraction(v) / lead for v in m)


def test_float_compose_normalizes_like_normalize(hpf):
    # float-spelled matrices load as integer canonicals in lowest terms;
    # their compose and batch pick what _normalize picks on the raw
    # product, both for a g of det 1 (the batch's sign-only loop) and for
    # any other g (the gcd), and stay the product's class up to scale
    rng = random.Random(5)
    entries = [0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, -0.25, 1.1, -2.2, 0.1]
    pool = [(1, 1, 0, 1), (1, -1, 0, 1), (0, 1, -1, 0), (2, 1, 1, 1), (1, 0, -3, 1)]
    while len(pool) < 60:
        a, b, c = (rng.choice(entries) for _ in range(3))
        if a:
            pool.append(hpf.element([[a, b], [c, (1.0 + b * c) / a]]).canonical)
    dets = {a * d - b * c for a, b, c, d in pool}
    assert 1 in dets and len(dets) > 5
    for ca in pool:
        assert math.gcd(*ca) == 1 and (ca[0] > 0 or ca[0] == 0 and ca[1] > 0)
        for cb in pool:
            raw = _raw_product(ca, cb)
            got = hpf._compose(ca, cb)
            assert got == hpf._normalize(*raw) and _projective(got) == _projective(raw)
    for _ in range(300):
        chunk = rng.sample(pool, rng.randint(1, 40))
        g = rng.choice(pool)
        assert hpf._compose_batch(chunk, g) == [hpf._normalize(*_raw_product(w, g)) for w in chunk]


def test_float_entries_load_exactly(hp, hpf):
    # every float is a binary rational: a float matrix loads as its integer
    # multiple in lowest terms, so both spellings of an integer matrix give
    # one canonical, and a matrix near the identity is not the identity
    assert hpf.element([[1.0, 2.0], [0.0, 1.0]]).canonical == hp.element([[1, 2], [0, 1]]).canonical
    assert hpf.element([[-1.0, -2.0], [-0.0, -1.0]]).canonical == (1, 2, 0, 1)
    assert hpf.element([[2.0, 0.0], [0.0, 0.5]]).canonical == (4, 0, 0, 1)
    assert hpf.element([[1.0, 0.75], [0.0, 1.0]]).canonical == (4, 3, 0, 4)
    near = hpf.element([[1.0, 1e-10], [0.0, 1.0]])
    assert not hpf.is_identity(near) and hpf.classify(near).kind == "parabolic"
    scale, b = near.canonical[0], near.canonical[1]
    assert Fraction(b, scale) == Fraction(1e-10)
    # the exact det must be positive too: these pass the float check, whose
    # tolerance grows with the products, with an exact det of -1.6e18 and 0
    for bad in ([[1e17, 1e17], [1e17 + 16, 1e17]], [[10**17, 10**17], [10**17, 10**17]]):
        with pytest.raises(NotInGroup, match="not positive"):
            hpf.element(bad)


def test_float_plane_geometry_reads_the_det(hpf):
    # canonicals of det != 1 act, classify and translate as the matrix over
    # the root of its det does, checked in exact rationals
    g = hpf.element([[1.5, 0.25], [0.5, 0.75]])
    a, b, c, d = g.canonical
    det = a * d - b * c
    assert det != 1
    z = hpf.apply(g, Point(hpf, complex(0.5, 2.0))).data
    u, v = Fraction(0.5), Fraction(2)
    den = (c * u + d) ** 2 + (c * v) ** 2
    assert abs(z.real - float(((a * u + b) * (c * u + d) + a * c * v * v) / den)) <= 1e-15
    assert abs(z.imag - float(det * v / den)) <= 1e-15
    tr = (a + d) / math.sqrt(det)
    assert hpf.classify(g).kind == "loxodromic"
    assert abs(hpf.translation_length(g) - 2 * math.acosh(tr / 2)) <= 1e-12
    for spec, kind in (([[0.5, 0.0], [0.0, 2.0]], "loxodromic"), ([[1.0, 0.5], [0.0, 1.0]],
                       "parabolic"), ([[0.0, -0.5], [2.0, 0.0]], "elliptic")):
        assert hpf.classify(hpf.element(spec)).kind == kind


def test_apply_shifts_entries_past_float_range(hpf):
    # products of non-dyadic letters gain about 52 bits of denominator per
    # letter: at 24 letters the integer entries pass float range while the
    # map moves i only a bounded distance. apply shifts the four entries
    # right by one number of bits, which keeps the map, before taking
    # floats, and agrees with the exact rational image
    x = hpf.element([[1.0, 1.1], [0.0, 1.0]])
    y = hpf.element([[1.0, 0.0], [1.1, 1.0]])
    g = power(hpf.compose(x, y), 12)
    a, b, c, d = g.canonical
    assert max(abs(v) for v in g.canonical).bit_length() > 1100
    z = hpf.apply(g, hpf.origin()).data
    den = c * c + d * d
    re, im = Fraction(b * d + a * c, den), Fraction(a * d - b * c, den)
    assert abs(z.real - float(re)) <= 1e-12 * abs(float(re))
    assert abs(z.imag - float(im)) <= 1e-12 * float(im)


# -- the exact comparison under the ping-pong test ------------------------------


def _oracle_at_least(L, u, D1, v, D2):
    """L >= u sqrt(D1) + v sqrt(D2) from integer roots: with s = 2^300,
    r = isqrt(D s^2) gives r <= s sqrt(D) < r + 1, which decides every case
    but a sum within u + v of s L; there the sum equals L, which for
    u, v > 0 happens only when both D are squares, and is checked so."""
    s = 1 << 300
    r1, r2 = math.isqrt(D1 * s * s), math.isqrt(D2 * s * s)
    if s * L >= u * (r1 + 1) + v * (r2 + 1):
        return True
    if s * L < u * r1 + v * r2:
        return False
    p, q = math.isqrt(D1), math.isqrt(D2)
    assert (u == 0 or p * p == D1) and (v == 0 or q * q == D2), (L, u, D1, v, D2)
    return L >= u * p + v * q


def test_at_least_matches_the_integer_root_oracle():
    rng = random.Random(34)
    cases = []
    for bits in (4, 12, 60, 200):
        for _ in range(300):
            u, v = rng.randrange(1 << bits), rng.randrange(1 << bits)
            D1, D2 = rng.randrange(1, 1 << bits), rng.randrange(1, 1 << bits)
            rhs = u * math.isqrt(D1) + v * math.isqrt(D2)
            cases.append((rhs + rng.randrange(-3, 4 + 2 * (u + v)), u, D1, v, D2))
            # exact tangency, and one below it, on square dets
            p, q = rng.randrange(1, 1 << bits), rng.randrange(1, 1 << bits)
            cases += [(u * p + v * q, u, p * p, v, q * q), (u * p + v * q - 1, u, p * p, v, q * q)]
    cases += [(-1, 0, 1, 0, 1), (0, 0, 5, 0, 7), (0, 1, 1, 0, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1)]
    for case in cases:
        assert _at_least(*case) == _oracle_at_least(*case), case
    # both outcomes occur, tangency (equality) counting as disjoint
    assert {_at_least(*c) for c in cases} == {True, False}
    assert _at_least(5, 1, 4, 1, 9) and not _at_least(4, 1, 4, 1, 9)


def test_ping_pong_disks_of_any_det_may_touch_but_not_overlap():
    # a disk (a, c, det) has center a/c and radius sqrt(det)/c: det 4 and
    # centers 0 and 4 touch, centers 0 and 3 overlap; Sanov's U^2 and U^-2
    # touch at 0 with det 1, while U and U^-1 overlap
    assert _at_least(4, 1, 4, 1, 4) and not _at_least(3, 1, 4, 1, 4)
    assert _ping_pong([(1, 0, 2, 1), (1, 0, -2, 1), (1, 2, 0, 1), (1, -2, 0, 1)])
    assert not _ping_pong([(1, 0, 1, 1), (1, 0, -1, 1), (1, 1, 0, 1), (1, -1, 0, 1)])
    # (1, 0, 4, 4) of det 4 has the disk [-1/4, 3/4], its inverse
    # (4, 0, -4, 1) the disk [-3/2, -1/2]: a strip of width 9/4 holds both,
    # so the translation z -> z + b/a with a = d = 2 passes at b/a = 5/2
    # and fails at 3/2
    disks = [(1, 0, 4, 4), (4, 0, -4, 1)]
    assert _ping_pong(disks + [(2, 5, 0, 2), (2, -5, 0, 2)])
    assert not _ping_pong(disks + [(2, 3, 0, 2), (2, -3, 0, 2)])
    # a letter with c = 0 and a != d has no region
    assert not _ping_pong([(4, 0, 0, 1), (1, 0, 0, 4)])
