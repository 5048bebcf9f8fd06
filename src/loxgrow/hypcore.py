"""Coarse-geometry primitives: Gromov products, delta estimates, the
loxodromic criterion, translation lengths, displacement and axis overlap.

Everything here works through the backend protocol only, so the same
inequalities run on exact tree metrics and on float plane distances;
only axis sampling needs the half-plane, for its ``geodesic_point``.  The
Gromov product is <x, y>_o = (d(x,o) + d(y,o) - d(x,y)) / 2; a space is
delta-hyperbolic when <x,y>_o >= min(<x,z>_o, <z,y>_o) - delta for all
quadruples (the four-point inequality).
"""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .errors import NotLoxodromic
from .spaces.base import Point, basepoint_candidates


def gromov_product(x: Point, y: Point, o: Point) -> float:
    backend = o.backend
    return 0.5 * (backend.dist(x, o) + backend.dist(y, o) - backend.dist(x, y))


def four_point_defect(x, y, z, o) -> float:
    return min(gromov_product(x, z, o), gromov_product(z, y, o)) - gromov_product(x, y, o)


def estimate_delta(backend, sample_size: int, seed: int) -> float:
    """Empirical lower bound for a valid four-point delta.

    Draws ``sample_size`` seeded quadruples from the backend's sampling window
    and returns the worst defect (clamped at 0).  A lower bound only; it never
    certifies hyperbolicity, but it catches a configured delta that is too
    small for the space.
    """
    if sample_size < 4:
        raise ValueError("sample_size must be >= 4")
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(sample_size):
        x, y, z, o = backend.sample_points(rng, 4)
        worst = max(worst, four_point_defect(x, y, z, o))
    return worst


# -- loxodromicity criterion --------------------------------------------------


def loxodromic_criterion(g, o: Point, delta=None) -> bool:
    """Sufficient displacement test: d(o, go) >= 2 <o, g^2 o>_{go} + 6 delta.

    True certifies that g is loxodromic; False says nothing.
    """
    backend = o.backend
    if delta is None:
        delta = backend.delta
    go = backend.apply(g, o)
    ggo = backend.apply(g, go)
    lhs = backend.dist(o, go)
    rhs = 2.0 * gromov_product(o, ggo, go) + 6.0 * delta
    # at delta = 0 equality certifies nothing: the orbit lower bound
    # degenerates to tau >= 0 and a fixed point passes 0 >= 0
    return lhs >= rhs if delta > 0 else lhs > rhs


# -- translation length -------------------------------------------------------


@dataclass(frozen=True)
class Bracket:
    upper: float
    estimate: float


def translation_length_bracket(g, o: Point, N: int = 32) -> Bracket:
    """Subadditive upper bound min_m d(o, g^m o)/m and the difference estimate
    (d(o, g^2N o) - d(o, g^N o)) / N for the stable translation length."""
    if N < 1:
        raise ValueError("N must be >= 1")
    backend = o.backend
    upper = float("inf")
    cur = o
    d_n = d_2n = None
    for m in range(1, 2 * N + 1):
        cur = backend.apply(g, cur)
        d = backend.dist(o, cur)
        if m <= N:
            upper = min(upper, d / m)
        if m == N:
            d_n = d
        if m == 2 * N:
            d_2n = d
    return Bracket(upper=upper, estimate=(d_2n - d_n) / N)


# -- displacement -------------------------------------------------------------


@dataclass
class DisplacementRecord:
    point: Point
    value: float


def displacement(S, x: Point) -> DisplacementRecord:
    """max_{s in S} d(x, sx)."""
    backend = S.backend
    per = []
    for g in S:
        try:
            per.append(backend.dist(x, backend.apply(g, x)))
        except OverflowError:
            per.append(math.inf)
    return DisplacementRecord(point=x, value=max(per))


def min_displacement_search(S, budget: int = 64) -> DisplacementRecord:
    """Upper bound for inf_x max_{s in S} d(x, sx) over the candidate pool.

    Deterministic: candidates come in a fixed order and ties keep the first.
    """
    best = None
    for x in basepoint_candidates(S, budget):
        rec = displacement(S, x)
        if best is None or rec.value < best.value:
            best = rec
    return best


# -- axis overlap -------------------------------------------------------------


def axis_overlap_diameter(b, f, o: Point, theta: float = 1.0, window: int = 8) -> float:
    """Diameter of the part of the sampled axis of b that stays theta*d(o,bo)
    close to its f-translate.

    Proxy for |E(b)|-style tests on the half-plane, where axis sampling
    runs: a conjugating f maps the axis near itself, so a large overlap
    diameter flags a likely elementary pair, a bounded one certifies nothing
    but suggests independence.

    A sample p is near when ``dist(p, q) <= L`` for some translated sample
    q, with L = R + 1e-12 and R = theta*d(o,bo). Each sample
    p = x + iy calls ``dist`` only on the q = u + iv inside two windows, so
    the near samples are exactly those of the all-pairs sweep. If
    d(p, q) <= L then
    * |ln(v/y)| <= L, since height is a 1-Lipschitz Busemann function;
    * |u - x| <= y*(e^L - 1), since cosh d - 1 >= (u - x)^2/(2yv) and
      v <= y*e^L.
    With E = exp(L*(1 + 1e-9) + 1e-6) the windows are y/E <= v <= y*E and
    |u - x| <= y*E*(1 + 1e-6). The margin in E is far above the float
    error of ``dist``, a few 1e-8 at worst as d -> 0, and rounding is
    monotone, so no q that the sweep finds near falls outside them.

    A pair raises OverflowError when 2yv underflows or the distance leaves
    float range, and the sweep raises at the first such pair that comes
    before p's first near q. The windows therefore serve only a p none of
    whose pairs can raise (such a p may scan its window in height order):
    2*y*min(v) > 0 and (max|x - u|^2 + max(y, max v)^2) / (2*y*min(v))
    < 1e300, with both maxima below 1e150 so that the bound itself cannot
    overflow. Every other p scans all translated samples in order, as the
    sweep does, so the same call raises the same error.
    """
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
    near = _near_samples(backend, samples, translated, R + 1e-12)
    best = 0.0
    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            best = max(best, backend.dist(near[i], near[j]))
    return best


def _near_samples(backend, samples, translated, L):
    """The samples p with ``dist(p, q) <= L`` for some translated q, in
    order; ``axis_overlap_diameter`` documents the windows and the guard."""
    dist = backend.dist
    try:
        E = math.exp(L * (1.0 + 1e-9) + 1e-6)
    except OverflowError:
        E = math.inf
    if not math.isfinite(E):
        return [p for p in samples if any(dist(p, q) <= L for q in translated)]
    by_height = sorted(((q.data.imag, q.data.real, q) for q in translated), key=itemgetter(0))
    heights = [v for v, _, _ in by_height]
    u_lo = min(u for _, u, _ in by_height)
    u_hi = max(u for _, u, _ in by_height)
    v_lo, v_hi = heights[0], heights[-1]
    near = []
    for p in samples:
        x, y = p.data.real, p.data.imag
        mx = max(abs(x - u_lo), abs(x - u_hi))
        mh = max(y, v_hi)
        den = 2.0 * y * v_lo
        # written so that NaN fails every test
        if mx < 1e150 and mh < 1e150 and den > 0.0 and (mx * mx + mh * mh) / den < 1e300:
            # no pair of p can raise, so the scan order cannot change the answer
            width = y * E * (1.0 + 1e-6)
            window = by_height[bisect_left(heights, y / E):bisect_right(heights, y * E)]
            hit = any(abs(u - x) <= width and dist(p, q) <= L for _, u, q in window)
        else:
            hit = any(dist(p, q) <= L for q in translated)
        if hit:
            near.append(p)
    return near
