"""The breadth-first spheres against the loop they replaced, and the
composes they skip."""

import math
import random
from itertools import islice
from operator import attrgetter

import pytest

import loxgrow.words as words
from loxgrow.growth import ball_sizes
from loxgrow.spaces import FreeGroupTree, FreeProductTree, HalfPlane
from loxgrow.words import make_generating_set, product_ball_set, spheres, word_length_in_S

from conftest import PSL2Z_ELLIPTIC, SANOV

TU = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
CAPS = (1, 2, 3, 5, 17, 100, 1000, 20_000)
RADII = 8


def reference_spheres(identity, gens, compose, cap, key=None):
    """``spheres`` without its skips and batches: every generator, in order,
    is composed with every element of a sphere, one at a time."""
    seen = {identity if key is None else key(identity)}
    frontier = [identity]
    while True:
        sphere = []
        for g in gens:
            for w in frontier:
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


def _same_spheres(identity, gens, compose, key=None, batch=None, caps=CAPS, radii=RADII):
    for cap in caps:
        got = list(islice(spheres(identity, gens, compose, cap, key, batch=batch), radii))
        want = list(islice(reference_spheres(identity, gens, compose, cap, key), radii))
        assert got == want, cap


def _encoded(S):
    """(identity, gens, compose, key, batch) of S as ball_sizes walks it."""
    backend = S.backend
    return (backend._identity_canonical(), [g.canonical for g in S], backend._compose,
            None if backend.exact_words else backend._growth_key, backend._compose_batch)


def _conjugated(mats, t):
    """mats conjugated by diag(t, 1/t): the same group, non-integer floats."""
    return [[[a, b * t * t], [c / (t * t), d]] for (a, b), (c, d) in mats]


F2 = FreeGroupTree(2, letters="xy")
HP = HalfPlane()
HPF = HalfPlane(arithmetic="float")
SETS = {
    "f2 {x,y}": (F2, ["x", "y"]),
    "f2 {x,y,xy}": (F2, ["x", "y", "xy"]),
    "f2 {x,y,Xy}": (F2, ["x", "y", "Xy"]),
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
    ident, gens, compose, key, _ = _encoded(S)
    rounded = list(islice(spheres(ident, gens, compose, 10**6, key), 7))
    raw = list(islice(spheres(ident, gens, compose, 10**6), 7))
    assert [[key(c) for c in sphere] for sphere in raw] == \
        [[key(c) for c in sphere] for sphere in rounded]
    full = list(islice(reference_spheres(ident, gens, compose, 10**6), 7))
    assert sum(map(len, full)) > sum(map(len, raw))


def test_spheres_with_odd_generator_lists():
    free = F2._compose
    x, X, y, Y = b"\x00", b"\x01", b"\x02", b"\x03"
    _same_spheres(b"", [x, X, y, Y, x, y], free)  # duplicates
    _same_spheres(b"", [x, b"", X, y, Y], free)  # the identity among the generators
    _same_spheres(b"", [b"", b""], free)
    _same_spheres(b"", [x, y], free)  # not symmetric: a positive monoid
    _same_spheres(b"", [x, y + X, Y], free)
    _same_spheres(b"", [], free)
    c23 = FreeProductTree((2, 3))._compose
    _same_spheres(b"", [b"\x41", b"\x01", b"\x41"], c23)  # b, a, b again: not symmetric
    one = HP._identity_canonical()
    _same_spheres(one, [(1, 2, 0, 1), (1, 0, 2, 1), one], HP._compose)


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
    free = F2._compose
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
    free = F2._compose
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
            m = HP._identity_canonical()
            for _ in range(rng.randint(1, 3)):
                m = HP._compose(m, rng.choice(((1, 1, 0, 1), (1, 0, 1, 1),
                                               (1, -1, 0, 1), (1, 0, -1, 1))))
            mats.append(m)
        _same_spheres(HP._identity_canonical(), mats, HP._compose, caps=(7, 500, 5000),
                      radii=6)


def _counting(fn, calls):
    def counted(*args):
        calls.append(1)
        return fn(*args)

    return counted


def _counting_batch(batch, calls):
    """``batch`` counting one product per chunk element, whether it
    concatenates or composes; the composes it calls are not counted twice."""
    def counted(chunk, g):
        before = len(calls)
        out = batch(chunk, g)
        del calls[before:]
        calls.extend([1] * len(chunk))
        return out

    return counted


@pytest.mark.parametrize("backend, inputs, n", [
    (F2, ["x", "y"], 9),
    (FreeProductTree((2, 3)), ["a", "b"], 20),
])
def test_tree_balls_compose_only_into_new_elements(backend, inputs, n, monkeypatch):
    # normal forms over these sets form a tree, so past radius 1 the only
    # duplicates are steps back to the parent, and those are skipped; a
    # product counts once, made by a compose or in a batch
    calls = []
    S = make_generating_set(backend, inputs)
    monkeypatch.setattr(backend, "_compose", _counting(backend._compose, calls))
    monkeypatch.setattr(backend, "_compose_batch", _counting_batch(backend._compose_batch, calls))
    table = ball_sizes(S, n)
    # radius 0 and radius 1 compose with every generator; after that, each
    # compose finds an element of spheres 3..n
    assert len(calls) == len(S) + len(S) ** 2 + table.ball(n) - table.ball(2)


def _free_inverse(w):
    return bytes(c ^ 1 for c in reversed(w))


def _product_word(rng, orders, length, last):
    """A random normal form of ``length`` syllables ending in factor ``last``."""
    word, fac = [], last
    for _ in range(length):
        word.append((fac << 6) | rng.randrange(1, orders[fac]))
        fac ^= 1
    return bytes(reversed(word))


def _product_inverse(w, orders):
    return bytes((s & 64) | (orders[s >> 6] - (s & 63)) for s in reversed(w))


def _byte_batch_cases(rng):
    """(compose, batch, g, chunk of elements whose junction with g does not
    reduce, elements whose junction does), on both trees' byte canonicals."""
    for g in (b"\x00\x02", b"\x03", b"\x01\x01\x02"):
        pool = [_random_free_word(rng, 2, rng.randint(1, 6)) for _ in range(400)]
        plain = [w for w in pool if w[-1] != g[0] ^ 1][:40]
        # partly cancelled, and cancelled down to the identity
        reducing = [w for w in pool if w[-1] == g[0] ^ 1][:4] + [_free_inverse(g)]
        yield F2._compose, F2._compose_batch, g, plain, reducing
    for orders, g in (((2, 7), b"\x41"), ((2, 7), b"\x01\x43"), ((3, 4), b"\x42\x01"),
                      ((3, 4), b"\x02")):
        backend = FreeProductTree(orders)
        fac = g[0] >> 6
        plain = [_product_word(rng, orders, rng.randint(1, 5), 1 - fac) for _ in range(40)]
        # merged into one syllable, a syllable cancelled, and the identity
        reducing = [_product_word(rng, orders, rng.randint(1, 5), fac) for _ in range(4)]
        reducing += [w + _product_inverse(g[:1], orders) for w in plain[:2]]
        reducing.append(_product_inverse(g, orders))
        yield backend._compose, backend._compose_batch, g, plain, reducing


def test_byte_batches_are_compose_on_every_element():
    rng = random.Random(16)
    for compose, batch, g, plain, reducing in _byte_batch_cases(rng):
        assert batch(plain, g) == [w + g for w in plain]
        for r in reducing:
            assert compose(r, g) != r + g
            for i in (0, len(plain) // 2, len(plain)):
                chunk = plain[:i] + [r] + plain[i:]
                assert batch(chunk, g) == [compose(w, g) for w in chunk], (g, r, i)


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

    def recorded(*args, **kwargs):
        for sphere in spheres(*args, **kwargs):
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


def test_kappa_walk_keys_each_float_element_once(monkeypatch):
    # one _growth_key call per composed element, walked or spelled, one for
    # the walk's identity, and one for each target and the identity they
    # are matched against: the walk matches and spells by the keys its
    # dedup computed
    backend, inputs = SETS["float sanov"]
    S = make_generating_set(backend, inputs)
    e = math.e
    targets = [(backend.element([[e, 0.0], [0.0, 1 / e]]), 6),
               (backend.compose(backend.compose(S[0], S[1]), S[0]), 6)]
    calls = {"key": 0, "compose": 0}
    key, compose = backend._growth_key, backend._compose

    def counted_key(canonical):
        calls["key"] += 1
        return key(canonical)

    def counted_compose(a, b):
        calls["compose"] += 1
        return compose(a, b)

    monkeypatch.setattr(backend, "_growth_key", counted_key)
    monkeypatch.setattr(backend, "_compose", counted_compose)
    far_word, near_word = word_length_in_S(S, targets)
    assert far_word is None and len(near_word) == 3
    assert calls["compose"] > 100
    assert calls["key"] <= calls["compose"] + 1 + len(targets) + 1


def _add(w, g):
    return tuple(a + b for a, b in zip(w, g))


def _walked(name):
    """(identity, gens, compose, key, batch) of a set of ``SETS`` or of a few more:
    Z^2 with its unit steps and the elliptic set after one escalation round."""
    if name == "z2":
        return (0, 0), [(1, 0), (0, 1), (-1, 0), (0, -1)], _add, None, None
    if name == "elliptic squared":
        return _encoded(product_ball_set(make_generating_set(HP, PSL2Z_ELLIPTIC), 2))
    return _encoded(make_generating_set(*SETS[name]))


@pytest.mark.parametrize("name, radius", [("f2 {x,y}", 8), ("f2 {x,y,Xy}", 6), ("c2c3 {a,b}", 9),
                                          ("z2", 8), ("sanov", 7)])
def test_spheres_list_elements_in_reverse_shortlex_order(name, radius):
    # every word over the generators up to the radius, by brute force: an
    # element's place in its sphere is that of its least geodesic word,
    # comparing words right to left as generator indices
    ident, gens, compose, key, batch = _walked(name)
    assert key is None
    least = {ident: ()}  # element -> its least geodesic word, reversed
    level = [((), ident)]  # every word of one length, reversed, and its element
    for _ in range(radius):
        level = [((h,) + rev, compose(w, g)) for rev, w in level for h, g in enumerate(gens)]
        new = {}
        for rev, c in level:
            if c not in least and (c not in new or rev < new[c]):
                new[c] = rev
        least.update(new)
    got = list(islice(spheres(ident, gens, compose, 10**7, batch=batch), radius))
    by_radius = [[] for _ in range(radius)]
    for c, rev in least.items():
        if rev:
            by_radius[len(rev) - 1].append(c)
    assert got == [sorted(cs, key=least.__getitem__) for cs in by_radius]


def _cap_edges(sizes, chunk):
    """Caps that end a walk inside the last sphere of ``sizes``: inside and
    at the edges of its first chunks, and one short of the whole sphere."""
    base = 1 + sum(sizes[:-1])
    cuts = {1, words._SMALL - 1, words._SMALL, chunk - 1, chunk, chunk + 1, 2 * chunk,
            2 * chunk + 7, sizes[-1] - 1}
    return sorted(base + c for c in cuts if 0 < c < sizes[-1])


@pytest.mark.parametrize("chunk", [None, 100])
def test_batches_match_the_reference_at_caps_and_chunk_edges(chunk, monkeypatch):
    # F2 at radius 10: each generator's slices of sphere 9 are 4,921
    # elements long, more than one chunk of the default size; a cap on a
    # chunk's edge ends a batch, one past it starts the element loop
    if chunk is not None:
        monkeypatch.setattr(words, "_CHUNK", chunk)
    chunk = words._CHUNK
    ident, gens, compose, key, batch = _walked("f2 {x,y}")
    radius = 10 if chunk > 100 else 7
    full = list(islice(reference_spheres(ident, gens, compose, 10**7), radius))
    assert list(islice(spheres(ident, gens, compose, 10**7, batch=batch), radius)) == full
    for cap in _cap_edges([len(s) for s in full], chunk):
        got = list(spheres(ident, gens, compose, cap, batch=batch))
        assert got == list(reference_spheres(ident, gens, compose, cap)), cap
        assert len(got) == radius and 1 + sum(map(len, got)) == cap + 1


@pytest.mark.parametrize("name, radius", [("c2c7 {a,b}", 15), ("elliptic squared", 9),
                                          ("z2", 60)])
def test_batches_that_meet_the_walked_ball_match_the_reference(name, radius, monkeypatch):
    # relations make whole batches land partly on seen elements, and those
    # fall back to the element loop over the pairs they composed
    ident, gens, compose, key, batch = _walked(name)
    full = list(islice(reference_spheres(ident, gens, compose, 10**7), radius))
    met = []
    isdisjoint = set.isdisjoint

    class Watched(set):
        def isdisjoint(self, other):
            met.append(not isdisjoint(self, other))
            return not met[-1]

    # the batch's key set is built by the module's name ``set``
    monkeypatch.setattr(words, "set", Watched, raising=False)
    assert list(islice(spheres(ident, gens, compose, 10**7, batch=batch), radius)) == full
    assert any(met) and not all(met)
    monkeypatch.undo()
    for cap in _cap_edges([len(s) for s in full], words._CHUNK):
        got = list(spheres(ident, gens, compose, cap, batch=batch))
        assert got == list(reference_spheres(ident, gens, compose, cap)), cap


@pytest.mark.parametrize("small", [1, 2, 3])
def test_batches_with_repeated_products_match_the_reference(small, monkeypatch):
    # a group never maps two elements of one batch to one key, but a monoid
    # can: sums that saturate at a bound repeat within a batch while none
    # of them was seen, and the element loop then adds only the first
    monkeypatch.setattr(words, "_SMALL", small)
    for bound, gens in [(7, [3, 1, 2]), (8, [1, 3, 2]), (9, [3, 1, 4]), (20, [1, 2, 3])]:
        _same_spheres(0, gens, lambda w, g: min(w + g, bound), radii=12)


def test_keyed_float_batches_match_the_reference():
    # a non-integer float set rounds every key; keyed spheres are the key ->
    # element maps of the plain ones, in the reference's order
    ident, gens, compose, key, _ = _walked("float sanov, non-integer")
    radius = 7
    full = list(islice(reference_spheres(ident, gens, compose, 10**7, key), radius))
    for cap in (10**7, *_cap_edges([len(s) for s in full], words._CHUNK)):
        want = list(islice(reference_spheres(ident, gens, compose, cap, key), radius))
        assert list(islice(spheres(ident, gens, compose, cap, key), radius)) == want, cap
        keyed = list(islice(spheres(ident, gens, compose, cap, key, keyed=True), radius))
        assert keyed == [dict(zip(map(key, sphere), sphere)) for sphere in want]
        assert [list(sphere.values()) for sphere in keyed] == want
