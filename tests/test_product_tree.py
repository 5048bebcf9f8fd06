"""Bass-Serre tree of Z/2 * Z/3: normal forms and tree distances.

The distance oracle here is an adjacency BFS built from scratch: a vertex is
a coset g<A> or g<B>, represented by the normal form with any trailing
syllable of its own factor stripped, and g<A> neighbors g·a<B> for a in A.
Only the group algebra is shared with the implementation under test.
"""

import random

import pytest

from loxgrow.errors import ConfigError
from loxgrow.spaces import FreeProductTree, Point


def _strip(backend, canon, side):
    if canon and canon[-1] >> 6 == side:
        return canon[:-1]
    return canon


def _neighbors(backend, vert):
    rep, side = vert
    other = 1 - side
    out = []
    for exp in range(backend.orders[side]):
        g = backend._compose(rep, bytes(((side << 6) | exp,)) if exp else b"")
        out.append((_strip(backend, g, other), other))
    return out


def bfs_dist(backend, u, v, limit=24):
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    for depth in range(1, limit + 1):
        nxt = []
        for w in frontier:
            for nb in _neighbors(backend, w):
                if nb == v:
                    return depth
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    raise AssertionError("BFS limit hit")


def test_factor_relations(pt23):
    b = pt23.element("b")
    assert pt23.is_identity(pt23.compose(b, pt23.element("bb")))
    a = pt23.element("a")
    assert pt23.is_identity(pt23.compose(a, a))


def test_rejects_dihedral_orders():
    with pytest.raises(ConfigError):
        FreeProductTree((2, 2))


def test_classify_by_cyclic_syllable_length(pt23):
    assert pt23.classify(pt23.element("ab")).kind == "loxodromic"
    assert pt23.classify(pt23.element("a")).kind == "elliptic"
    assert pt23.classify(pt23.element("b")).kind == "elliptic"
    # aba is conjugate to the elliptic b
    assert pt23.classify(pt23.element("aba")).kind == "elliptic"
    assert pt23.classify(pt23.element("")).kind == "identity"


def test_elliptic_fixes_its_vertex(pt23):
    a = pt23.element("a")
    vA = pt23.vertex(pt23.identity(), 0)
    assert pt23.apply(a, vA).data == vA.data


def test_dist_against_adjacency_bfs(pt23):
    vA = (b"", 0)
    ab = pt23.element("ab")
    moved = pt23.apply(ab, Point(pt23, vA))
    assert pt23.dist(Point(pt23, vA), moved) == 2
    assert bfs_dist(pt23, vA, moved.data) == 2

    rng = random.Random(3)
    for _ in range(60):
        g = pt23.element("".join(rng.choice("ab") for _ in range(rng.randint(0, 6))))
        side = rng.randint(0, 1)
        u = (b"", side)
        v = pt23.apply(g, Point(pt23, u)).data
        assert pt23.dist(Point(pt23, u), Point(pt23, v)) == bfs_dist(pt23, u, v)


def test_translation_length_via_orbit_minimum(pt23):
    ab = pt23.element("ab")
    assert pt23.translation_length(ab) == 2
    # tau is the orbit-displacement minimum over vertices near the origin
    best = min(
        pt23.dist(v, pt23.apply(ab, v))
        for g in ["", "a", "b", "bb", "ab", "ba", "bba", "abb"]
        for v in [pt23.vertex(pt23.element(g), 0), pt23.vertex(pt23.element(g), 1)]
    )
    assert best == 2
    assert pt23.translation_length(pt23.element("a")) == 0
    assert pt23.translation_length(pt23.element("abab")) == 4


def test_geodesic_point_midpoints(pt23):
    x = Point(pt23, (b"", 0))
    y = pt23.apply(pt23.element("abab"), x)
    d = pt23.dist(x, y)
    for t in range(d + 1):
        p = pt23.geodesic_point(x, y, t)
        assert pt23.dist(x, p) == t
        assert pt23.dist(p, y) == d - t


def test_isometry_exact(pt23):
    rng = random.Random(9)
    for _ in range(200):
        x, y = pt23.sample_points(rng, 2)
        g = pt23.element("".join(rng.choice("ab") for _ in range(rng.randint(0, 8))))
        assert pt23.dist(pt23.apply(g, x), pt23.apply(g, y)) == pt23.dist(x, y)


def test_candidate_seeds_are_both_factor_vertices(pt23):
    seeds = pt23._candidate_seeds()
    assert {p.data for p in seeds} == {(b"", 0), (b"", 1)}


def _random_rep(backend, rng, length, start=None):
    factor = rng.randint(0, 1) if start is None else start
    word = []
    for _ in range(length):
        word.append((factor << 6) | rng.randint(1, backend.orders[factor] - 1))
        factor = 1 - factor
    return bytes(word)


def _push_compose(backend, ca, cb):
    # the syllable-by-syllable merge that the junction compose replaced, on
    # (factor, exp) pairs; returns the canonical, one (f << 6) | e byte each
    out = list(ca)
    for factor, exp in cb:
        exp %= backend.orders[factor]
        if out and out[-1][0] == factor:
            exp = (out[-1][1] + exp) % backend.orders[factor]
            out.pop()
        if exp:
            out.append((factor, exp))
    return bytes((f << 6) | e for f, e in out)


@pytest.mark.parametrize("orders", [(2, 3), (3, 3), (2, 4), (2, 7), (5, 5)])
def test_junction_compose_matches_the_push_loop(orders):
    backend = FreeProductTree(orders)
    rng = random.Random(f"junction/{orders}")
    cascades = 0
    for _ in range(400):
        u = _random_rep(backend, rng, rng.randint(0, 8))
        if rng.random() < 0.25:
            v = _random_rep(backend, rng, rng.randint(0, 8))
        else:
            # v undoes the last j syllables of u, then its tail meets the
            # syllable of u before them: a merge, or one more cancellation
            j = rng.randint(0, len(u))
            undo = backend._invert(u[len(u) - j:])
            if j < len(u):
                s = u[len(u) - j - 1]
                f, e = s >> 6, s & 63
                tail = _random_rep(backend, rng, rng.randint(1, 4), start=f)
                if rng.random() < 0.3:
                    tail = bytes(((f << 6) | (backend.orders[f] - e),)) + tail[1:]
            else:
                start = 1 - (undo[-1] >> 6) if undo else None
                tail = _random_rep(backend, rng, rng.randint(0, 4), start=start)
            v = undo + tail
        syl = backend.syllables
        assert backend.is_normal(syl(u)) and backend.is_normal(syl(v))
        got = backend._compose(u, v)
        assert got == _push_compose(backend, syl(u), syl(v)) == backend.normalize(syl(u + v))
        assert backend.is_normal(syl(got))
        cascades += len(u) + len(v) - len(got) >= 4
    assert cascades >= 40


def test_normalize_and_is_normal(pt23):
    rng = random.Random(31)
    for _ in range(200):
        seq = tuple((rng.randint(0, 1), rng.randint(-4, 4)) for _ in range(rng.randint(0, 7)))
        got = pt23.normalize(seq)
        assert got == _push_compose(pt23, (), seq)
        assert pt23.is_normal(pt23.syllables(got))
        assert pt23.is_normal(seq) == (seq == pt23.syllables(got) and all(0 < e for _, e in seq))
    for bad in (((2, 1),), ((-1, 1),), ((0, 0),), ((0, 2),), ((1, 3),), ((1, 1), (1, 1))):
        assert not pt23.is_normal(bad)
    assert pt23.is_normal(((0, 1), (1, 2), (0, 1)))


def _vertex(backend, canon, side):
    return Point(backend, (_strip(backend, canon, side), side))


def _assert_bfs(backend, x, y):
    d = backend.dist(x, y)
    assert d == backend.dist(y, x)
    assert d == bfs_dist(backend, x.data, y.data), (x.data, y.data)


@pytest.mark.parametrize("orders", [(2, 3), (2, 4), (3, 3), (2, 7)])
def test_dist_between_arbitrary_vertices(orders):
    # pairs away from the origin: dist reads the common syllable prefix
    backend = FreeProductTree(orders)
    rng = random.Random(sum(orders))
    for _ in range(40):
        # a long shared prefix, then short tails (possibly empty)
        prefix = _random_rep(backend, rng, rng.randint(6, 12))
        nxt = 1 - (prefix[-1] >> 6)
        tails = [_random_rep(backend, rng, rng.randint(0, 4), start=rng.choice((nxt, None)))
                 for _ in range(2)]
        u, v = (backend._compose(prefix, tail) for tail in tails)
        _assert_bfs(backend, _vertex(backend, u, rng.randint(0, 1)),
                    _vertex(backend, v, rng.randint(0, 1)))
        # one rep a prefix of the other
        x = _vertex(backend, prefix, rng.randint(0, 1))
        y = _vertex(backend, backend._compose(x.data[0], tails[0]), rng.randint(0, 1))
        _assert_bfs(backend, x, y)
        # the two cosets of one element, and equal reps on opposite sides
        _assert_bfs(backend, _vertex(backend, u, 0), _vertex(backend, u, 1))
    _assert_bfs(backend, Point(backend, (b"", 0)), Point(backend, (b"", 1)))

    pts = backend.sample_points(rng, 12, max_syllables=4)
    moves = [backend.element("".join(rng.choice("aAbB") for _ in range(rng.randint(0, 3))))
             for _ in range(6)]
    far = backend.element("ab" * 5)
    for x in pts:
        for y in pts:
            _assert_bfs(backend, x, y)
            # a long common translation leaves only the prefix to skip
            _assert_bfs(backend, backend.apply(far, x), backend.apply(far, y))
        for g in moves:
            _assert_bfs(backend, x, backend.apply(g, x))
    for x, y in zip(pts, pts[1:]):
        for t in range(backend.dist(x, y) + 1):
            p = backend.geodesic_point(x, y, t)
            _assert_bfs(backend, x, p)
            _assert_bfs(backend, p, y)
