"""The breadth-first spheres against the loop they replaced, and the
composes they skip."""

import gc
import math
import random
import tracemalloc
from itertools import islice
from operator import attrgetter

import pytest

import loxgrow.words as words
from loxgrow.growth import ball_sizes
from loxgrow.growth._engine_py import generic_ball_counts
from loxgrow.spaces import FreeGroupTree, FreeProductTree, HalfPlane
from loxgrow.words import make_generating_set, product_ball_set, spheres, word_length_in_S

from conftest import PSL2Z_ELLIPTIC, SANOV, reference_spheres

TU = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
# Lyndon-Ullman mu = 1/2: dyadic, with no integer form
LYNDON_ULLMAN = [[[1, 0.5], [0, 1]], [[1, 0], [0.5, 1]]]
CAPS = (1, 2, 3, 5, 17, 100, 1000, 20_000)
RADII = 8


def _sizes(records):
    return [len(sphere) for sphere, _, _ in records]


def _same_spheres(identity, gens, compose, key=None, batch=None, caps=CAPS, radii=RADII):
    for cap in caps:
        got = list(islice(spheres(identity, gens, compose, cap, key, batch=batch), radii))
        want = list(islice(reference_spheres(identity, gens, compose, cap, key), radii))
        assert got == want, cap


def _reference_counts(identity, gens, compose, n_max, cap):
    """(counts, truncated) of ``reference_spheres``, as a walk is counted."""
    counts = [1]
    for sphere, _, _ in islice(reference_spheres(identity, gens, compose, cap), n_max):
        counts.append(counts[-1] + len(sphere))
        if counts[-1] > cap:
            return counts[:-1], True
    return counts + counts[-1:] * (n_max + 1 - len(counts)), False


def _same_counts(identity, gens, compose, caps, n_max):
    """The slice recurrence counts what the reference walks, at every cap."""
    for cap in caps:
        for n in range(n_max + 1):
            got = generic_ball_counts(identity, gens, compose, n, cap, free=True)
            assert got == _reference_counts(identity, gens, compose, n, cap), (cap, n)


def _encoded(S):
    """(identity, gens, compose, key, batch) of S as ball_sizes walks it;
    the key is None, as canonicals are their own keys on every backend."""
    backend = S.backend
    gens = [g.canonical for g in S]
    return backend._identity_canonical(), gens, backend._compose, None, backend._compose_batch


def _conjugated(mats, t):
    """mats conjugated by diag(t, 1/t): the same group, non-integer floats."""
    return [[[a, b * t * t], [c / (t * t), d]] for (a, b), (c, d) in mats]


def _conjugated_by(mats, m):
    """mats conjugated by the SL(2, Z) matrix m: the same group, new entries."""
    (p, q), (r, s) = m
    out = []
    for (a, b), (c, d) in mats:
        # (m x) m^-1, with m^-1 = [[s, -q], [-r, p]]
        a1, b1, c1, d1 = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        out.append([[a1 * s - b1 * r, b1 * p - a1 * q], [c1 * s - d1 * r, d1 * p - c1 * q]])
    return out


def _sanov(k):
    """Sanov's pair for k; k >= 2 is a free basis, k = 1 is {T, U}."""
    return [[[1, k], [0, 1]], [[1, 0], [k, 1]]]


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
    "c2c4 {a,b}": (FreeProductTree((2, 4)), ["a", "b"]),
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
    _same_spheres(*_encoded(make_generating_set(backend, inputs)))


@pytest.mark.parametrize("name", [name for name in SETS if "non-integer" not in name])
def test_spheres_match_the_reference_on_group_elements(name):
    backend, inputs = SETS[name]
    S = make_generating_set(backend, inputs)
    _same_spheres(backend.identity(), list(S), backend.compose, attrgetter("canonical"),
                  caps=(3, 100, 2000), radii=5)


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
    # a set its backend's predicate allows is also counted by the recurrence
    rng = random.Random(9)
    free_sets = 0
    for _ in range(30):
        gens = [_random_free_word(rng, 2, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.6:
            gens += [bytes(c ^ 1 for c in reversed(g)) for g in gens]
        rng.shuffle(gens)
        _same_spheres(b"", gens, F2._compose, caps=(7, 500, 5000), radii=6)
        if F2._free_walk(gens):
            free_sets += 1
            _same_counts(b"", gens, F2._compose, caps=(7, 500, 5000), n_max=6)
    for _ in range(20):
        p, q = rng.choice(((2, 3), (2, 5), (3, 3), (3, 4)))
        backend = FreeProductTree((p, q))
        words = ["".join(rng.choice("abAB") for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
        if any(backend.element(w).canonical for w in words):
            S = make_generating_set(backend, words)
            ident, gens, compose, _, _ = encoded = _encoded(S)
            _same_spheres(*encoded, caps=(7, 500, 5000), radii=6)
            if backend._free_walk(gens):
                free_sets += 1
                _same_counts(ident, gens, compose, caps=(7, 500, 5000), n_max=6)
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
    assert free_sets >= 5


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
    # duplicates are steps back to the parent, and the walk skips those; a
    # product counts once, made by a compose or in a batch
    calls = []
    S = make_generating_set(backend, inputs)
    monkeypatch.setattr(backend, "_compose", _counting(backend._compose, calls))
    monkeypatch.setattr(backend, "_compose_batch", _counting_batch(backend._compose_batch, calls))
    ident, gens, compose, key, batch = _encoded(S)
    sizes = _sizes(islice(spheres(ident, gens, compose, 10**7, key, batch=batch), n))
    # radius 0 and radius 1 compose with every generator; after that, each
    # compose finds an element of spheres 3..n
    assert len(calls) == len(S) + len(S) ** 2 + sum(sizes[2:])
    # ball_sizes walks nothing: it composes each pair of generators once
    del calls[:]
    monkeypatch.setattr(backend, "_compose_batch", _never)
    assert ball_sizes(S, n).balls == [1 + sum(sizes[:r]) for r in range(n + 1)]
    assert len(calls) == len(S) ** 2


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


def test_exact_half_plane_batches_are_compose_on_every_element():
    # the batch (and so _compose, its one-element call) writes the sign
    # rule inline; it must match _normalize on the raw products. Its chunks
    # hit a = 0 with b of either sign (the elliptic [[0,-1],[1,0]] reaches
    # it), a negative a, and entries past 2**64
    rng = random.Random(20)
    gens = [g.canonical for inputs in (PSL2Z_ELLIPTIC, SANOV, TU)
            for g in make_generating_set(HP, inputs)]
    grow = HP._compose((2, 1, 1, 1), (2, 1, 1, 1))
    pool = [grow]
    for _ in range(60):
        pool.append(HP._compose(pool[-1], grow))
    for _ in range(400):
        w = HP._identity_canonical()
        for _ in range(rng.randint(1, 10)):
            w = HP._compose(w, rng.choice(gens))
        pool.append(w)
    assert max(max(map(abs, w)) for w in pool) > 2**64
    signs = set()
    for g in gens + [grow]:
        for _ in range(8):
            chunk = rng.sample(pool, rng.randint(1, 64))
            raws = [(a1 * g[0] + b1 * g[2], a1 * g[1] + b1 * g[3],
                     c1 * g[0] + d1 * g[2], c1 * g[1] + d1 * g[3]) for a1, b1, c1, d1 in chunk]
            want = [HP._normalize(*raw) for raw in raws]
            assert repr(HP._compose_batch(chunk, g)) == repr(want), g
            assert [HP._compose(w, g) for w in chunk] == want, g
            for a, b, _, _ in raws:
                signs.add((a > 0, a == 0, b > 0))
    assert signs >= {(True, False, True), (True, False, False), (False, False, True),
                     (False, False, False), (False, True, True), (False, True, False)}


def test_skips_exactly_the_steps_into_the_radius_one_ball():
    # on Z^2 with the unit steps, g h lies in the radius-1 ball only for
    # h = -g: each element past radius 1 takes the other three steps, even
    # where two of them commute into one element
    calls = []

    def add(w, g):
        calls.append(1)
        return (w[0] + g[0], w[1] + g[1])

    walk = spheres((0, 0), [(1, 0), (0, 1), (-1, 0), (0, -1)], add, 10**6)
    sizes = [len(next(walk)[0]), len(next(walk)[0])]
    assert len(calls) == 4 + 4 * 4
    for _ in range(6):
        calls.clear()
        sizes.append(len(next(walk)[0]))
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
    # the word-length walk dedups the float spelling's canonicals, which
    # are exact, as ball_sizes does
    backend, inputs = SETS[name]
    S = make_generating_set(backend, inputs)
    radii = 6
    table = ball_sizes(S, radii)
    sizes = []

    def recorded(*args, **kwargs):
        for record in spheres(*args, **kwargs):
            sizes.append(len(record[0]))
            yield record

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
    assert spelled.canonical == near.canonical and len(near_word) <= 3


INTEGER_FLOAT_SETS = {
    "float sanov": SANOV,
    "float {T,U}": TU,
    "-0.0 entries": [[[1, 2], [-0.0, 1]], [[1, -0.0], [2, 1]]],
    # past 2**53 at radius 2, and past float range at 3
    "past 2**53": [[[1, 2**30], [0, 1]], [[1, 0], [2**30, 1]]],
    "past float range": [[[1, 2**500], [0, 1]], [[1, 0], [2**500, 1]]],
}


@pytest.mark.parametrize("name", INTEGER_FLOAT_SETS)
def test_integer_valued_float_sets_walk_with_no_key(name):
    # an integer-valued float set loads as the integer matrices it spells,
    # so it walks with no key, as the exact plane does: the same
    # canonicals, records and counts at every cap, with integer entries
    # past 2**53 and past float range
    inputs = [[[float(v) for v in row] for row in m] for m in INTEGER_FLOAT_SETS[name]]
    S = make_generating_set(HPF, inputs)
    S_exact = make_generating_set(HP, [[[int(v) for v in row] for row in m] for m in inputs])
    assert [s.canonical for s in S] == [s.canonical for s in S_exact]
    ident, gens, compose, key, batch = _encoded(S)
    full = list(islice(spheres(ident, gens, compose, 10**5, batch=batch), 7))
    entries = [v for sphere, _, _ in full for c in sphere for v in c]
    assert all(type(v) is int for v in entries)
    if name.startswith("past"):
        assert max(map(abs, entries)) > 2**53
    if name == "past float range":
        assert max(map(abs, entries)) > 2**1024
    exact = _encoded(S_exact)
    for cap in (1, 2, 5, 100, *(1 + sum(_sizes(full[:n])) + d for n in (3, 6) for d in (-1, 0))):
        got = list(islice(spheres(ident, gens, compose, cap, batch=batch), 7))
        assert got == list(islice(spheres(*exact[:3], cap, batch=exact[4]), 7)), cap
        for n in (0, 1, 5, 9):
            table, want = ball_sizes(S, n, cap), ball_sizes(S_exact, n, cap)
            assert (table.balls, table.truncated) == (want.balls, want.truncated), (cap, n)


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
    assert [sphere for sphere, _, _ in got] == \
        [sorted(cs, key=least.__getitem__) for cs in by_radius]
    # and the slice of generator j holds the elements whose least word ends in j
    for sphere, keys, slices in got:
        assert keys is sphere and len(slices) == len(gens)
        assert slices[0][0] == 0 and slices[-1][1] == len(sphere)
        for j, (lo, hi) in enumerate(slices):
            assert lo <= hi and (j == 0 or slices[j - 1][1] == lo)
            assert all(least[c][0] == j for c in sphere[lo:hi])


def _cap_edges(sizes, chunk):
    """Caps that end a walk inside the last sphere of ``sizes``: inside and
    at the edges of its first chunks, and one short of the whole sphere."""
    base = 1 + sum(sizes[:-1])
    cuts = {1, 31, 32, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 7, sizes[-1] - 1}
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
    for cap in _cap_edges(_sizes(full), chunk):
        got = list(spheres(ident, gens, compose, cap, batch=batch))
        assert got == list(reference_spheres(ident, gens, compose, cap)), cap
        assert len(got) == radius and 1 + sum(_sizes(got)) == cap + 1


@pytest.mark.parametrize("name, radius", [("c2c7 {a,b}", 15), ("elliptic squared", 9),
                                          ("z2", 60)])
def test_batches_that_meet_the_walked_ball_match_the_reference(name, radius):
    # relations make whole batches land partly on seen elements, and those
    # fall back to the element loop over the pairs they composed
    ident, gens, compose, key, batch = _walked(name)
    full = list(islice(reference_spheres(ident, gens, compose, 10**7), radius))
    step = batch or (lambda chunk, g: [compose(w, g) for w in chunk])
    # the walk visits the identity, sphere 1 (composed without a batch) and
    # every batch product, so a batch meets the walked ball exactly when
    # one of its products lies in an earlier one of these
    visited = {ident, *(compose(ident, g) for g in gens)}
    met = []

    def watched(chunk, g):
        cs = step(chunk, g)
        met.append(not visited.isdisjoint(cs))
        visited.update(cs)
        return cs

    assert list(islice(spheres(ident, gens, compose, 10**7, batch=watched), radius)) == full
    assert any(met) and not all(met)
    for cap in _cap_edges(_sizes(full), words._CHUNK):
        got = list(spheres(ident, gens, compose, cap, batch=batch))
        assert got == list(reference_spheres(ident, gens, compose, cap)), cap


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_batches_with_repeated_products_match_the_reference(chunk, monkeypatch):
    # a group never maps two elements of one batch to one key, but a monoid
    # can: sums that saturate at a bound repeat within a batch while none
    # of them was seen, and the loop over the pairs then adds only the
    # first; chunks of one to three elements split the repeats apart
    cases = [(7, [3, 1, 2]), (8, [1, 3, 2]), (9, [3, 1, 4]), (20, [1, 2, 3])]
    for bound, gens in cases:
        _same_spheres(0, gens, lambda w, g: min(w + g, bound), radii=12)
    monkeypatch.setattr(words, "_CHUNK", chunk)
    for bound, gens in cases:
        _same_spheres(0, gens, lambda w, g: min(w + g, bound), radii=12)


FREE_SETS = {
    "f2 {x,y}": (F2, ["x", "y"]),
    "f3 {a,b}": (FreeGroupTree(3), ["a", "b"]),
    "c2c3 {a}": (FreeProductTree((2, 3)), ["a"]),
    "c2c3 {a,b}": (FreeProductTree((2, 3)), ["a", "b"]),
    "c2c4 {a,b,bb}": (FreeProductTree((2, 4)), ["a", "b", "bb"]),
    "c2c4 {a,bb}": (FreeProductTree((2, 4)), ["a", "bb"]),
    "c3c3 {a,b}": (FreeProductTree((3, 3)), ["a", "b"]),
    "sanov": (HP, SANOV),
    "sanov, conjugated by [[2,1],[1,1]]": (HP, _conjugated_by(SANOV, [[2, 1], [1, 1]])),
    "sanov, conjugated by [[3,-1],[7,-2]]": (HP, _conjugated_by(SANOV, [[3, -1], [7, -2]])),
}


@pytest.mark.parametrize("chunk", [None, 100])
@pytest.mark.parametrize("name", FREE_SETS)
def test_free_walks_match_the_reference_at_every_cap(name, chunk, monkeypatch):
    # the recurrence counts what the reference walks up to radius 7, with
    # the cap in sphere 1, just past it, and on either side of each ball;
    # the deduplicating walk, at either chunk size, counts the same (c2c3
    # {a} is the finite group C2: its spheres run out after radius 1)
    if chunk is not None:
        monkeypatch.setattr(words, "_CHUNK", chunk)
    backend, inputs = FREE_SETS[name]
    ident, gens, compose, key, batch = _encoded(make_generating_set(backend, inputs))
    assert key is None and backend._free_walk(gens)
    balls, _ = _reference_counts(ident, gens, compose, 7, 10**7)
    caps = {1, 2, 1 + len(gens), *(b + d for b in balls for d in (-1, 0, 1) if b + d > 0)}
    _same_counts(ident, gens, compose, sorted(caps), n_max=7)
    for cap in sorted(caps):
        assert generic_ball_counts(ident, gens, compose, 7, cap, batch=batch) == \
            generic_ball_counts(ident, gens, compose, 7, cap, free=True), cap


def _standard_sets():
    """Each tree's standard set, on which ``subgroup_word_exact`` answers."""
    for rank in (1, 2, 3, 5):
        backend = FreeGroupTree(rank)
        yield backend, list(backend.letters)
    for p, q in ((2, 3), (2, 4), (3, 3), (2, 7), (5, 6)):
        backend = FreeProductTree((p, q))
        yield backend, ["a" * e for e in range(1, p)] + ["b" * e for e in range(1, q)]


def _never(*args):
    raise AssertionError("the predicate composed")


def test_free_walk_predicate(monkeypatch):
    for backend, inputs in _standard_sets():
        S = make_generating_set(backend, inputs)
        g = backend.compose(S[0], S[-1])
        assert backend.subgroup_word_exact(S, g) is not None
        monkeypatch.setattr(backend, "_compose", _never)
        monkeypatch.setattr(backend, "_compose_batch", _never)
        assert backend._free_walk([s.canonical for s in S]), backend.config()
    for backend in (HP, HPF):
        monkeypatch.setattr(backend, "_compose", _never)
        monkeypatch.setattr(backend, "_compose_batch", _never)
    # Sanov, in either spelling, passes the ping-pong test in its own
    # frame, but not without its inverses
    assert HP._free_walk([s.canonical for s in make_generating_set(HP, SANOV)])
    assert HPF._free_walk([s.canonical for s in make_generating_set(*SETS["float sanov"])])
    assert not HP._free_walk([(1, 2, 0, 1), (1, 0, 2, 1)])
    not_free = {name: SETS[name] for name in [
        "f2 {x,y,xy}", "c2c3 {a,b,ab}", "c2c4 {a,b}", "c2c7 {a,b}", "elliptic", "{T,U}"]}
    # a letter of det != 1 is outside the test's integer regions
    not_free["float sanov, non-integer"] = SETS["float sanov, non-integer"]
    not_free["sanov k=1"] = (HP, _sanov(1))
    # an order-2 element is its own inverse: not a free basis, though the
    # regions of {S, T^3} are disjoint
    not_free["order 2 and T^3"] = (HP, [[[0, -1], [1, 0]], [[1, 3], [0, 1]]])
    for name, (backend, inputs) in not_free.items():
        S = make_generating_set(backend, inputs)
        assert not backend._free_walk([s.canonical for s in S]), name


@pytest.mark.parametrize("name", ["f2 {xx,y,xy}", "c2c3 {a,b,ab}", "c2c7 {a,b}", "c2c4 {a,b}"])
def test_a_free_walk_where_the_predicate_says_no_goes_wrong(name):
    # these sets repeat elements past sphere 2, so the recurrence counts
    # repeats (the predicate is only sufficient: f2 {x,y,xy} happens to
    # count right)
    backend, inputs = SETS[name]
    ident, gens, compose, _, _ = _encoded(make_generating_set(backend, inputs))
    assert not backend._free_walk(gens)
    forced = generic_ball_counts(ident, gens, compose, 6, 10**6, free=True)
    assert forced != _reference_counts(ident, gens, compose, 6, 10**6)


def _tu_word(rng, length, k=1):
    """A product of ``length`` random letters T^k, U^k and their inverses,
    as a matrix; never the identity."""
    steps = ((1, k, 0, 1), (1, -k, 0, 1), (1, 0, k, 1), (1, 0, -k, 1))
    m = HP._identity_canonical()
    while m == HP._identity_canonical():
        for _ in range(length):
            m = HP._compose(m, rng.choice(steps))
    a, b, c, d = m
    return [[a, b], [c, d]]


def test_certified_half_plane_sets_count_what_they_walk():
    # wherever the ping-pong test holds on a random exact set (Sanov k =
    # 2..4 conjugated by a T/U word, sets of T/U words, sets of words in
    # Sanov's letters, which pass far more often, and single T/U words),
    # ball_sizes counts what the walk counts, at each radius and cap
    rng = random.Random(28)
    cases = [_conjugated_by(_sanov(rng.randint(2, 4)), _tu_word(rng, rng.randint(1, 5)))
             for _ in range(25)]
    cases += [[_tu_word(rng, rng.randint(1, 6)) for _ in range(rng.randint(2, 3))]
              for _ in range(40)]
    for _ in range(60):
        k = rng.randint(2, 3)
        cases.append([_tu_word(rng, rng.randint(1, 4), k) for _ in range(rng.randint(2, 3))])
    cases += [[_tu_word(rng, rng.randint(1, 8))] for _ in range(25)]
    certified = 0
    for mats in cases:
        S = make_generating_set(HP, mats)
        ident, gens, compose, _, batch = _encoded(S)
        if not HP._free_walk(gens):
            continue
        certified += 1
        for cap in (1, 2, 1 + len(gens), 100, 10**6):
            for n in (0, 1, 3, 6):
                table = ball_sizes(S, n, memory_cap=cap)
                walked = generic_ball_counts(ident, gens, compose, n, cap, batch=batch)
                assert (table.balls, table.truncated) == walked, (mats, cap, n)
    assert certified >= 60, certified


def test_free_walk_frees_as_it_counts():
    # the recurrence holds one count per radius and one per generator: no
    # element, and no garbage left for the cyclic collector, which the
    # benchmark's calibration runs untimed
    backend = FreeGroupTree(2, letters="xy")
    S = make_generating_set(backend, ["x", "y"])
    gc.collect()
    table = ball_sizes(S, 10)
    assert gc.collect() == 0
    tracemalloc.start()
    try:
        assert ball_sizes(S, 10) == table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8192
