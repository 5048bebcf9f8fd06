"""The breadth-first spheres against the loop they replaced, and the
composes they skip."""

import math
import random
from itertools import islice
from operator import attrgetter

import pytest

import loxgrow.growth._engine_py as engine_py
import loxgrow.words as words
from loxgrow.growth import ball_sizes
from loxgrow.spaces import FreeGroupTree, FreeProductTree, HalfPlane
from loxgrow.words import make_generating_set, product_ball_set, spheres, word_length_in_S

from conftest import PSL2Z_ELLIPTIC, SANOV

TU = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
CAPS = (1, 2, 3, 5, 17, 100, 1000, 20_000)
RADII = 8


def reference_spheres(identity, gens, compose, cap, key=None):
    """``spheres`` as it was before it skipped composes: every element of a
    sphere is composed with every generator."""
    seen = {identity if key is None else key(identity)}
    frontier = [identity]
    while True:
        sphere = []
        for w in frontier:
            for g in gens:
                c = compose(w, g)
                k = c if key is None else key(c)
                if k not in seen:
                    seen.add(k)
                    sphere.append(c)
                    if len(seen) > cap:
                        yield sphere
                        return
        if not sphere:
            return
        yield sphere
        frontier = sphere


def _same_spheres(identity, gens, compose, key=None, caps=CAPS, radii=RADII):
    for cap in caps:
        got = list(islice(spheres(identity, gens, compose, cap, key), radii))
        want = list(islice(reference_spheres(identity, gens, compose, cap, key), radii))
        assert got == want, cap


def _encoded(S):
    """(identity, gens, compose, key) of S as ball_sizes walks it."""
    backend = S.backend
    enc = backend.growth_encoding()
    if enc is None:
        return (backend._identity_canonical(), [g.canonical for g in S],
                backend._compose, backend._growth_key)
    if enc[0] == "int_matrix":
        return engine_py._MAT_ID, [g.canonical for g in S], engine_py._mat_compose, None
    gens = [backend.canonical_bytes(g.canonical) for g in S]
    if enc[0] == "free_words":
        return b"", gens, engine_py._free_compose, None
    return b"", gens, engine_py._product_compose_fn(enc[1], enc[2]), None


def _conjugated(mats, t):
    """mats conjugated by diag(t, 1/t): the same group, non-integer floats."""
    return [[[a, b * t * t], [c / (t * t), d]] for (a, b), (c, d) in mats]


F2 = FreeGroupTree(2, letters="xy")
HP = HalfPlane()
HPF = HalfPlane(arithmetic="float")
SETS = {
    "f2 {x,y}": (F2, ["x", "y"]),
    "f2 {x,y,xy}": (F2, ["x", "y", "xy"]),
    "f2 {xx,y,xy}": (F2, ["xx", "y", "xy"]),
    "c2c3 {a,b}": (FreeProductTree((2, 3)), ["a", "b"]),
    "c2c3 {a,b,ab}": (FreeProductTree((2, 3)), ["a", "b", "ab"]),
    "c2c7 {a,b}": (FreeProductTree((2, 7)), ["a", "b"]),
    "c2c4 {a,b,bb}": (FreeProductTree((2, 4)), ["a", "b", "bb"]),
    "sanov": (HP, SANOV),
    "elliptic": (HP, PSL2Z_ELLIPTIC),
    "{T,U}": (HP, TU),
    "float sanov": (HPF, SANOV),
    "float sanov, non-integer": (HPF, _conjugated(SANOV, 1.1)),
    "float elliptic, non-integer": (HPF, _conjugated(PSL2Z_ELLIPTIC, 2 ** 0.5)),
    "float {T,U}, non-integer": (HPF, _conjugated(TU, 0.37)),
}


@pytest.mark.parametrize("name", SETS)
def test_spheres_match_the_reference_on_every_encoding(name):
    backend, inputs = SETS[name]
    S = make_generating_set(backend, inputs)
    _same_spheres(*_encoded(S))


@pytest.mark.parametrize("name", [name for name in SETS if "non-integer" not in name])
def test_spheres_match_the_reference_on_group_elements(name):
    backend, inputs = SETS[name]
    S = make_generating_set(backend, inputs)
    _same_spheres(backend.identity(), list(S), backend.compose, attrgetter("canonical"),
                  caps=(3, 100, 2000), radii=5)


@pytest.mark.parametrize("name", ["float sanov, non-integer", "float elliptic, non-integer"])
def test_raw_float_keys_skip_roundoff_copies(name):
    # raw float canonicals do not respect compose: (p g) h and p (g h) can
    # differ in the last bits. The full loop kept such copies of walked
    # elements as new ones; the skipping walk drops those it skips, which on
    # these sets are all of them, so its spheres are the rounded-key spheres
    backend, inputs = SETS[name]
    S = make_generating_set(backend, inputs)
    ident, gens, compose, key = _encoded(S)
    rounded = list(islice(spheres(ident, gens, compose, 10**6, key), 7))
    raw = list(islice(spheres(ident, gens, compose, 10**6), 7))
    assert [[key(c) for c in sphere] for sphere in raw] == \
        [[key(c) for c in sphere] for sphere in rounded]
    full = list(islice(reference_spheres(ident, gens, compose, 10**6), 7))
    assert sum(map(len, full)) > sum(map(len, raw))


def test_spheres_with_odd_generator_lists():
    free = engine_py._free_compose
    x, X, y, Y = b"\x00", b"\x01", b"\x02", b"\x03"
    _same_spheres(b"", [x, X, y, Y, x, y], free)  # duplicates
    _same_spheres(b"", [x, b"", X, y, Y], free)  # the identity among the generators
    _same_spheres(b"", [b"", b""], free)
    _same_spheres(b"", [x, y], free)  # not symmetric: a positive monoid
    _same_spheres(b"", [x, y + X, Y], free)
    _same_spheres(b"", [], free)
    c23 = engine_py._product_compose_fn(2, 3)
    _same_spheres(b"", [b"\x41", b"\x01", b"\x41"], c23)  # b, a, b again: not symmetric
    mat = engine_py._mat_compose
    _same_spheres(engine_py._MAT_ID, [(1, 2, 0, 1), (1, 0, 2, 1), engine_py._MAT_ID], mat)


def test_spheres_with_many_relations():
    # commuting generators and a finite group: many composes land in the
    # sphere being built, not in the walked ball, and none of those is skipped
    def add(w, g):
        return tuple(a + b for a, b in zip(w, g))

    _same_spheres((0, 0), [(1, 0), (0, 1), (-1, 0), (0, -1)], add)
    _same_spheres((0, 0), [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)], add)
    _same_spheres((0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], add)

    def permute(w, g):
        return tuple(w[i] for i in g)

    _same_spheres((0, 1, 2, 3, 4), [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0), (4, 0, 1, 2, 3)],
                  permute)
    _same_spheres((0, 1, 2, 3), [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)], permute)


def test_spheres_with_colliding_keys():
    def add(w, g):
        return (w + g) % 12

    # keys that lump elements together but respect compose
    _same_spheres(0, [1, 11], add, key=lambda w: w % 4)
    _same_spheres(0, [5, 7, 5], add, key=lambda w: w % 3)
    _same_spheres(0, [1, 11], add, key=lambda w: 0)
    # reduced free words by length parity and by exponent sums
    x, X, y, Y = b"\x00", b"\x01", b"\x02", b"\x03"
    free = engine_py._free_compose
    _same_spheres(b"", [x, X, y, Y], free, key=lambda w: len(w) % 2)

    def exponents(w):
        return (w.count(0) - w.count(1), w.count(2) - w.count(3))

    _same_spheres(b"", [x, X, y, Y, x + y, Y + X], free, key=exponents)


def _random_free_word(rng, rank, length):
    word = []
    for _ in range(length):
        word.append(rng.choice([c for c in range(2 * rank) if not (word and c ^ word[-1] == 1)]))
    return bytes(word)


def test_spheres_on_random_small_sets():
    rng = random.Random(9)
    free = engine_py._free_compose
    for _ in range(30):
        gens = [_random_free_word(rng, 2, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.6:
            gens += [bytes(c ^ 1 for c in reversed(g)) for g in gens]
        rng.shuffle(gens)
        _same_spheres(b"", gens, free, caps=(7, 500, 5000), radii=6)
    for _ in range(20):
        p, q = rng.choice(((2, 3), (2, 5), (3, 3), (3, 4)))
        backend = FreeProductTree((p, q))
        words = ["".join(rng.choice("abAB") for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
        if any(backend.element(w).canonical for w in words):
            S = make_generating_set(backend, words)
            _same_spheres(*_encoded(S), caps=(7, 500, 5000), radii=6)
    for _ in range(20):
        mats = []
        for _ in range(rng.randint(1, 3)):
            m = engine_py._MAT_ID
            for _ in range(rng.randint(1, 3)):
                m = engine_py._mat_compose(m, rng.choice(((1, 1, 0, 1), (1, 0, 1, 1),
                                                          (1, -1, 0, 1), (1, 0, -1, 1))))
            mats.append(m)
        _same_spheres(engine_py._MAT_ID, mats, engine_py._mat_compose, caps=(7, 500, 5000),
                      radii=6)


def _counting(fn, calls):
    def counted(*args):
        calls.append(1)
        return fn(*args)

    return counted


@pytest.mark.parametrize("backend, inputs, n", [
    (F2, ["x", "y"], 9),
    (FreeProductTree((2, 3)), ["a", "b"], 20),
])
def test_tree_balls_compose_only_into_new_elements(backend, inputs, n, monkeypatch):
    # normal forms over these sets form a tree, so past radius 1 the only
    # duplicates are steps back to the parent, and those are skipped
    calls = []
    monkeypatch.setattr(engine_py, "_free_compose", _counting(engine_py._free_compose, calls))
    product_fn = engine_py._product_compose_fn
    monkeypatch.setattr(engine_py, "_product_compose_fn",
                        lambda p, q: _counting(product_fn(p, q), calls))
    S = make_generating_set(backend, inputs)
    table = ball_sizes(S, n)
    # radius 0 and radius 1 compose with every generator; after that, each
    # compose finds an element of spheres 3..n
    assert len(calls) == len(S) + len(S) ** 2 + table.ball(n) - table.ball(2)


def test_skips_exactly_the_steps_into_the_radius_one_ball():
    # on Z^2 with the unit steps, g h lies in the radius-1 ball only for
    # h = -g: each element past radius 1 takes the other three steps, even
    # where two of them commute into one element
    calls = []

    def add(w, g):
        calls.append(1)
        return (w[0] + g[0], w[1] + g[1])

    walk = spheres((0, 0), [(1, 0), (0, 1), (-1, 0), (0, -1)], add, 10**6)
    sizes = [len(next(walk)), len(next(walk))]
    assert len(calls) == 4 + 4 * 4
    for _ in range(6):
        calls.clear()
        sizes.append(len(next(walk)))
        assert len(calls) == 3 * sizes[-2]
    assert sizes == [4 * n for n in range(1, 9)]


@pytest.mark.parametrize("name", ["f2 {x,y}", "f2 {xx,y,xy}", "c2c3 {a,b,ab}", "c2c4 {a,b,bb}",
                                  "elliptic", "float sanov, non-integer"])
def test_product_ball_set_composes_no_more_than_before(name, monkeypatch):
    backend, inputs = SETS[name]
    S = make_generating_set(backend, inputs)
    compose = backend.compose
    before = []
    list(islice(reference_spheres(backend.identity(), list(S), _counting(compose, before),
                                  10**6, attrgetter("canonical")), 2))
    calls = []
    monkeypatch.setattr(backend, "compose", _counting(compose, calls))
    S2 = product_ball_set(S, 2)
    assert len(calls) <= len(before) == len(S) + len(S) ** 2
    # and once more from the radius-2 set, as escalation does
    before.clear()
    list(islice(reference_spheres(backend.identity(), list(S2), _counting(compose, before),
                                  10**6, attrgetter("canonical")), 2))
    calls.clear()
    product_ball_set(S2, 2)
    assert len(calls) <= len(before)


@pytest.mark.parametrize("name", ["float {T,U}, non-integer", "float sanov, non-integer",
                                  "float elliptic, non-integer", "float sanov"])
def test_kappa_walks_the_spheres_ball_sizes_counts(name, monkeypatch):
    # the word-length walk dedups float canonicals by _growth_key, as
    # ball_sizes does; with raw keys its {T,U} spheres 4..6 held 60, 166
    # and 448 roundoff copies against 48, 96 and 192 elements
    backend, inputs = SETS[name]
    S = make_generating_set(backend, inputs)
    radii = 6
    table = ball_sizes(S, radii)
    sizes = []

    def recorded(*args):
        for sphere in spheres(*args):
            sizes.append(len(sphere))
            yield sphere

    monkeypatch.setattr(words, "spheres", recorded)
    # trace e + 1/e is no trace of these sets, so the walk runs to its cap
    e = math.e
    far = backend.element([[e, 0.0], [0.0, 1 / e]])
    near = backend.compose(backend.compose(S[0], S[1]), S[0])
    far_word, near_word, one_word = word_length_in_S(
        S, [(far, radii), (near, radii), (backend.identity(), radii)])
    assert sizes == [table.sphere(n) for n in range(1, radii + 1)]
    assert far_word is None and one_word == ()
    by_symbol = {s.word[0]: s for s in S}
    spelled = backend.identity()
    for sym in near_word:
        spelled = backend.compose(spelled, by_symbol[sym])
    key = backend._growth_key
    assert key(spelled.canonical) == key(near.canonical) and len(near_word) <= 3
