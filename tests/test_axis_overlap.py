"""The axis-overlap test against its all-pairs reference sweep.

``hypcore.axis_overlap_diameter`` measures, on the half-plane, only the
translated samples inside a height window and a width window around each
sample. These tests keep the all-pairs sweep it replaced and require the
same diameter (compared with ``==``) or the same exception, on the calls a
float-Sanov search makes, on seeded random loxodromics and on cases placed
at the edge of the windows.
"""

import math
import random
import warnings

import pytest

import loxgrow.freebasis as fb
from loxgrow import hypcore
from loxgrow.errors import HeuristicOnly, NotLoxodromic
from loxgrow.hypcore import _near_samples, axis_overlap_diameter
from loxgrow.spaces import HalfPlane
from loxgrow.spaces.base import Point
from loxgrow.words import make_generating_set

from conftest import SANOV


def reference_axis_overlap(b, f, o, theta=1.0, window=8):
    """The all-pairs sweep: every sample against every translated sample."""
    backend = o.backend
    if backend.classify(b).kind != "loxodromic":
        raise NotLoxodromic("axis sampling needs a loxodromic b")
    R = theta * backend.dist(o, backend.apply(b, o))
    orbit = [o]
    cur_f, cur_b = o, o
    binv = backend.invert(b)
    for _ in range(window):
        cur_f = backend.apply(b, cur_f)
        orbit.append(cur_f)
        cur_b = backend.apply(binv, cur_b)
        orbit.insert(0, cur_b)
    samples = []
    for p, q in zip(orbit, orbit[1:]):
        samples.append(p)
        d = backend.dist(p, q)
        if d > 0:
            for j in range(1, 4):
                samples.append(backend.geodesic_point(p, q, d * j / 4.0))
    samples.append(orbit[-1])
    translated = [backend.apply(f, p) for p in samples]
    near = [
        p for p in samples if any(backend.dist(p, q) <= R + 1e-12 for q in translated)
    ]
    best = 0.0
    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            best = max(best, backend.dist(near[i], near[j]))
    return best


def reference_near(backend, samples, translated, L):
    return [p for p in samples if any(backend.dist(p, q) <= L for q in translated)]


def outcome(fn, *args, **kwargs):
    """("value", diameter) or (exception type, message)."""
    try:
        return "value", fn(*args, **kwargs)
    except (OverflowError, NotLoxodromic) as exc:
        return type(exc).__name__, str(exc)


def assert_same(*args, **kwargs):
    got = outcome(axis_overlap_diameter, *args, **kwargs)
    assert got == outcome(reference_axis_overlap, *args, **kwargs)
    return got


@pytest.fixture(scope="module")
def sanov_float_calls():
    """The (b, f, o, options) of every axis-overlap call in a float-Sanov
    search (the certify-kappa config: memory cap 20,000)."""
    calls = []
    inner = fb.axis_overlap_diameter

    def capture(b, f, o, **kwargs):
        calls.append((b, f, o, kwargs))
        return inner(b, f, o, **kwargs)

    hpf = HalfPlane(arithmetic="float")
    S = make_generating_set(hpf, [[[float(v) for v in row] for row in m] for m in SANOV])
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", HeuristicOnly)
        mp.setattr(fb, "axis_overlap_diameter", capture)
        fb.build_free_basis(S, memory_cap=20000)
    return calls


def test_float_sanov_calls_match_the_sweep(sanov_float_calls):
    kinds = [assert_same(b, f, o, **kw)[0] for b, f, o, kw in sanov_float_calls]
    # 37 diameters and 3 overflows, all three inside the near sweep
    assert len(kinds) == 40
    assert kinds.count("value") == 37
    assert kinds.count("OverflowError") == 3


def test_float_sanov_search_measures_few_pairs(monkeypatch):
    # the all-pairs sweep made 157,766 dist calls in these 40 calls
    counted = {"inside": False, "dist": 0}
    inner_dist = HalfPlane.dist
    inner_axis = fb.axis_overlap_diameter

    def dist(self, x, y):
        counted["dist"] += counted["inside"]
        return inner_dist(self, x, y)

    def axis(*args, **kwargs):
        counted["inside"] = True
        try:
            return inner_axis(*args, **kwargs)
        finally:
            counted["inside"] = False

    monkeypatch.setattr(HalfPlane, "dist", dist)
    monkeypatch.setattr(fb, "axis_overlap_diameter", axis)
    hpf = HalfPlane(arithmetic="float")
    S = make_generating_set(hpf, [[[float(v) for v in row] for row in m] for m in SANOV])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeuristicOnly)
        fb.build_free_basis(S, memory_cap=20000)
    assert 0 < counted["dist"] <= 12000


def _random_sl2(rng, hpf, scale):
    """A float det-1 matrix with entries of size up to e^scale."""
    while True:
        a, b, c = (rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-scale, scale))
                   for _ in range(3))
        if rng.random() < 0.2:
            b = 0.0
        d = (1.0 + b * c) / a
        try:
            return hpf.element([[a, b], [c, d]])
        except Exception:
            continue


def test_random_float_loxodromics_match_the_sweep():
    rng = random.Random(20261019)
    hpf = HalfPlane(arithmetic="float")
    kinds = []
    for _ in range(400):
        scale = rng.choice((1, 3, 10, 40, 200, 600))
        b = _random_sl2(rng, hpf, scale)
        f = _random_sl2(rng, hpf, scale)
        if rng.random() < 0.5:
            o = hpf.origin()
        else:
            o = Point(hpf, complex(rng.uniform(-1e3, 1e3), math.exp(rng.uniform(-30, 30))))
        theta = rng.choice((1.0, 1.0, 0.5, 2.0, 1e-9))
        window = rng.choice((8, 8, 2, 4))
        kinds.append(assert_same(b, f, o, theta=theta, window=window)[0])
    # every outcome occurs, huge entries supply the overflows
    assert {"value", "OverflowError", "NotLoxodromic"} <= set(kinds)
    assert kinds.count("value") > 100


def test_exact_sanov_pairs_match_the_sweep(hp):
    S = make_generating_set(hp, SANOV)
    o = hp.origin()
    for b in S:
        for f in S:
            assert_same(b, f, o)
            assert_same(b, hp.compose(f, b), Point(hp, complex(0.3, 2.0)))


def test_half_plane_axis_overlap_values(hpf):
    o = hpf.origin()
    b = hpf.element([[2.0, 0.0], [0.0, 0.5]])
    # f = b maps the sampled axis onto itself: all 65 samples are near
    full = axis_overlap_diameter(b, b, o)
    assert full == pytest.approx(16 * math.log(4.0))
    # a far parabolic keeps only the high samples
    shifted = assert_same(b, hpf.element([[1.0, 100.0], [0.0, 1.0]]), o)[1]
    assert 0.0 < shifted < full
    # z -> -1/(z + 40) sends the high samples near the low ones
    assert assert_same(b, hpf.element([[0.0, -1.0], [1.0, 40.0]]), o)[0] == "value"
    with pytest.raises(NotLoxodromic):
        axis_overlap_diameter(hpf.element([[1.0, 1.0], [0.0, 1.0]]), b, o)


# -- window edges -------------------------------------------------------------

_DIAG = [[2.0, 0.0], [0.0, 0.5]]  # axis: the imaginary axis; d(i, b i) = ln 4


@pytest.mark.parametrize("delta", [-1e-9, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-9])
def test_vertical_translate_at_distance_R(hpf, delta):
    # theta = 1e-3 keeps R far below the sample spacing ln(4)/4, so each
    # sample's nearest translate is its own, straight above it at R + delta
    o = hpf.origin()
    b = hpf.element(_DIAG)
    theta = 1e-3
    R = theta * math.log(4.0)
    mu = math.exp((R + delta) / 2.0)
    f = hpf.element([[mu, 0.0], [0.0, 1.0 / mu]])
    assert_same(b, f, o, theta=theta)


@pytest.mark.parametrize("delta", [-1e-9, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-9])
def test_horizontal_translate_at_distance_R(hpf, delta):
    # a shift by c puts i's translate at R + delta; higher samples are
    # nearer their translates, lower ones farther
    o = hpf.origin()
    b = hpf.element(_DIAG)
    theta = 1e-3
    R = theta * math.log(4.0)
    c = math.sqrt(2.0 * (math.cosh(R + delta) - 1.0))
    assert_same(b, hpf.element([[1.0, c], [0.0, 1.0]]), o, theta=theta)


def test_translate_below_distance_roundoff(hpf):
    # d(p, fp) = ln(1 + 1e-9) is computed as 0 <= R ~ 1e-12: every sample is
    # near, although v/y = 1 + 1e-9 lies far outside [e^-R, e^R]
    o = hpf.origin()
    b = hpf.element(_DIAG)
    mu = math.sqrt(1.0 + 1e-9)
    f = hpf.element([[mu, 0.0], [0.0, 1.0 / mu]])
    kind, diam = assert_same(b, f, o, theta=1e-12)
    assert kind == "value" and diam == pytest.approx(16 * math.log(4.0))


def test_windows_are_the_documented_ones(hpf, monkeypatch):
    # p = 3 + 2i measures a translated q only inside y/E <= v <= y*E and
    # |u - x| <= y*E*(1 + 1e-6); q beyond them are never measured
    L = 0.75
    E = math.exp(L * (1.0 + 1e-9) + 1e-6)
    x, y = 3.0, 2.0
    inside = [
        complex(x + y * E * (1.0 + 5e-7), y),
        complex(x - y * E * (1.0 + 5e-7), y),
        complex(x, y * E * (1.0 - 1e-12)),
        complex(x, y / E * (1.0 + 1e-12)),
    ]
    outside = [
        complex(x + y * E * (1.0 + 2e-6), y),
        complex(x, y * E * (1.0 + 1e-9)),
        complex(x, y / E * (1.0 - 1e-9)),
    ]
    measured = []
    inner = HalfPlane.dist

    def dist(self, p, q):
        measured.append(q.data)
        return inner(self, p, q)

    monkeypatch.setattr(HalfPlane, "dist", dist)
    translated = [Point(hpf, z) for z in inside + outside]
    assert _near_samples(hpf, [Point(hpf, complex(x, y))], translated, L) == []
    assert sorted(measured, key=lambda z: (z.real, z.imag)) == sorted(
        inside, key=lambda z: (z.real, z.imag))


# -- samples that fall back to the full scan ----------------------------------


def test_fallback_samples_keep_the_sweep_order(hpf):
    L = 1.0
    p = Point(hpf, complex(0.0, 1e-10))
    near = Point(hpf, complex(0.0, 1.5e-10))
    # 2 * 1e-10 * 1e-320 underflows to 0: dist raises on this pair
    bad = Point(hpf, complex(0.0, 1e-320))
    far = Point(hpf, complex(5.0, 1.0))
    # the sweep stops at p's first near q, so a bad pair after it is never met
    assert _near_samples(hpf, [p], [near, bad], L) == [p]
    with pytest.raises(OverflowError, match="too close to the real axis"):
        reference_near(hpf, [p], [bad, near], L)
    with pytest.raises(OverflowError, match="too close to the real axis"):
        _near_samples(hpf, [p], [bad, near], L)
    # the sweep's answer and error do not depend on which samples come first
    q = Point(hpf, complex(0.0, 1.0))
    for samples in ([q, p], [p, q], [q]):
        for translated in ([far, bad, near], [near, far, bad], [far, near]):
            expected = outcome(reference_near, hpf, samples, translated, L)
            assert outcome(_near_samples, hpf, samples, translated, L) == expected


@pytest.mark.parametrize("points", [
    # 2yv > 0 but the bound passes 1e300: measured in full, no overflow
    [complex(0.0, 1.0), complex(0.0, 1e-305), complex(0.5, 1.2)],
    # a real part past 1e150 fails the guard before its square overflows
    [complex(0.0, 1.0), complex(2e150, 1.0), complex(0.1, 1.0)],
    # a translate of height 1e160: max height past 1e150
    [complex(0.0, 1.0), complex(0.0, 1e160), complex(0.0, 1.1)],
    # |z - w|^2 overflows: dist raises "distance exceeds float range"
    [complex(0.0, 1.0), complex(1e200, 1.0), complex(0.0, 2.0)],
])
def test_guard_failures_scan_every_translate(hpf, points):
    pts = [Point(hpf, z) for z in points]
    for L in (0.1, 1.0, 5.0):
        for samples in (pts, pts[::-1]):
            for translated in (pts, pts[::-1], pts[1:]):
                expected = outcome(reference_near, hpf, samples, translated, L)
                assert outcome(_near_samples, hpf, samples, translated, L) == expected


def test_huge_radius_scans_everything(hpf):
    # exp overflows past L ~ 709: no window is formed, the sweep runs as is
    pts = [Point(hpf, complex(0.0, 1.0)), Point(hpf, complex(3.0, 1e-3))]
    for L in (800.0, math.inf, math.nan):
        assert _near_samples(hpf, pts, pts, L) == reference_near(hpf, pts, pts, L)


def test_module_keeps_the_name():
    # freebasis and the benchmark's tracer reach the test by this name
    assert fb.axis_overlap_diameter is hypcore.axis_overlap_diameter
