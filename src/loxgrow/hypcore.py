"""Coarse-geometry primitives: Gromov products, delta estimates,
translation-length brackets and displacement.

Everything here works through the backend protocol only, so the same
inequalities run on exact tree metrics and on float plane distances.  The
Gromov product is <x, y>_o = (d(x,o) + d(y,o) - d(x,y)) / 2; a space is
delta-hyperbolic when <x,y>_o >= min(<x,z>_o, <z,y>_o) - delta for all
quadruples (the four-point inequality).
"""

import math
import random
from dataclasses import dataclass

from .spaces.base import Point, basepoint_candidates


def gromov_product(x: Point, y: Point, o: Point) -> float:
    backend = o.backend
    return 0.5 * (backend.dist(x, o) + backend.dist(y, o) - backend.dist(x, y))


def four_point_defect(x, y, z, o) -> float:
    """min(<x,z>_o, <z,y>_o) - <x,y>_o, each product in gromov_product's
    expression; the three share d(x,o), d(y,o) and d(z,o), so six distances
    are measured, not nine."""
    dist = o.backend.dist
    xo, yo, zo = dist(x, o), dist(y, o), dist(z, o)
    xz = 0.5 * (xo + zo - dist(x, z))
    zy = 0.5 * (zo + yo - dist(z, y))
    return min(xz, zy) - 0.5 * (xo + yo - dist(x, y))


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
    """Upper bound for inf_x max_{s in S} d(x, sx): the least value at a
    point of ``basepoint_candidates(S, budget)``, the backend's seeds and,
    on the plane, the axis apexes of S's loxodromic entries.

    Deterministic: candidates come in a fixed order and ties keep the first.
    """
    best = None
    for x in basepoint_candidates(S, budget):
        rec = displacement(S, x)
        if best is None or rec.value < best.value:
            best = rec
    return best
