"""GroupElement and Point semantics, and the basepoint pool against a
reference that builds a GroupElement per pair product."""

import random

import pytest

from loxgrow.spaces import GroupElement, Point, make_backend
from loxgrow.spaces.base import basepoint_candidates, word_str
from loxgrow.words import GeneratingSet, make_generating_set

from conftest import SANOV
from test_freebasis import _CHECK_CASES, _searched_T_sets

_TREE = {"kind": "free_group_tree", "rank": 2, "letters": "xy"}


# -- element and point semantics ------------------------------------------------


def test_element_equality_ignores_the_word():
    backend = make_backend(_TREE)
    c = backend.element("xY").canonical
    spelled = GroupElement(backend, c, (("x", 1), ("y", -1)))
    other = GroupElement(backend, c, (("g", 1),))
    bare = GroupElement(backend, c)
    assert bare.word is None
    assert spelled == other == bare
    assert hash(spelled) == hash(other) == hash(bare)
    assert GroupElement(backend=backend, canonical=c, word=spelled.word) == spelled
    assert spelled != GroupElement(backend, backend.element("x").canonical, spelled.word)
    assert spelled != c and not spelled == c


def test_equal_canonicals_of_two_backends_are_unequal():
    one, two = make_backend(_TREE), make_backend(_TREE)
    assert one.config() == two.config()
    a, b = one.element("xy"), two.element("xy")
    assert a.canonical == b.canonical and a != b
    assert one.origin() != two.origin()
    assert one.origin() == one.origin() and hash(one.origin()) == hash(one.origin())


def test_a_set_of_elements_deduplicates_by_canonical():
    backend = make_backend(_TREE)
    x, y = backend.element("x").canonical, backend.element("y").canonical
    elems = {GroupElement(backend, x, (("x", 1),)), GroupElement(backend, x, (("a", 1),)),
             GroupElement(backend, x), GroupElement(backend, y)}
    assert {e.canonical for e in elems} == {x, y} and len(elems) == 2


def test_points_compare_by_data():
    hp = make_backend({"kind": "half_plane"})
    p, q = Point(hp, complex(0.5, 2.0)), Point(hp, complex(0.5, 2.0))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != Point(hp, complex(0.5, 3.0))
    assert p != complex(0.5, 2.0)


def test_reprs_are_unchanged():
    backend = make_backend(_TREE)
    c = backend.element("xY").canonical
    word = (("x", 1), ("y", -1))
    assert repr(GroupElement(backend, c, word)) == f"<xY|{c}>" == f"<{word_str(word)}|{c}>"
    assert repr(GroupElement(backend, c)) == f"<?|{c}>"
    assert repr(backend.identity()) == "<1|b''>"
    hp = make_backend({"kind": "half_plane"})
    assert repr(hp.origin()) == "Point(1j)"
    assert repr(Point(backend, b"x")) == "Point(b'x')"


# -- the basepoint pool ----------------------------------------------------------


def _reference_candidates(S, budget=64):
    """The reference pool: a GroupElement and an is_identity call per pair
    product."""
    backend = S.backend
    seeds = backend._candidate_seeds()
    pts = []
    seen = set()

    def push(p):
        key = backend._point_key(p)
        if key not in seen:
            seen.add(key)
            pts.append(p)

    for p in seeds:
        push(p)
    elems = list(S)
    heads = [g.canonical for g in elems[:budget]]
    prods = []
    known = {g.canonical for g in elems}
    for a in heads:
        if len(prods) >= budget:
            break
        for b in heads:
            ab = GroupElement(backend, backend._compose(a, b))
            if ab.canonical not in known and not backend.is_identity(ab):
                known.add(ab.canonical)
                prods.append(ab)
                if len(prods) >= budget:
                    break
    prods.sort(key=backend.sort_key)
    for g in elems + prods:
        for p in seeds:
            try:
                push(backend.apply(g, p))
            except OverflowError:
                continue
        if len(pts) >= budget:
            break
    for p in backend._extra_candidates(elems):
        if len(pts) >= budget:
            break
        push(p)
    return pts[:budget]


def _assert_same_pool(T, budget=64):
    got, want = basepoint_candidates(T, budget), _reference_candidates(T, budget)
    assert got == want
    # point for point, with the float coordinates bit for bit
    assert [repr(p.data) for p in got] == [repr(p.data) for p in want]


def _new_products(T):
    """The distinct pair products of T outside T and the identity."""
    backend = T.backend
    known = {t.canonical for t in T} | {backend._identity_canonical()}
    return {backend._compose(a.canonical, b.canonical) for a in T for b in T} - known


_CERTIFY = ["elliptic", "sanov", "sanov-float", "c2c7", "c2c3", "c2c4", "c3c3"]


@pytest.mark.parametrize("case", _CERTIFY)
def test_pool_matches_the_reference_on_every_searched_T(case, monkeypatch):
    config, gens, cap = _CHECK_CASES[case]
    S = make_generating_set(make_backend(config), gens)
    searched = _searched_T_sets(S, monkeypatch, cap)
    assert searched
    for T, _ in searched:
        _assert_same_pool(T)


@pytest.mark.parametrize("config", [
    _TREE,
    {"kind": "free_product_tree", "orders": [2, 3]},
    {"kind": "free_product_tree", "orders": [3, 3]},
])
def test_pool_matches_the_reference_on_random_tree_sets(config):
    backend = make_backend(config)
    letters = "xyXY" if config["kind"] == "free_group_tree" else "aAbB"
    rng = random.Random(f"pool/{config}")
    for _ in range(40):
        words = {"".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 9))}
        elems = [backend.element(w) for w in sorted(words)]
        T = GeneratingSet(backend, [g for g in elems if g.canonical])
        if len(T):
            for budget in (4, 16, 64):
                _assert_same_pool(T, budget)


@pytest.mark.parametrize("arithmetic", ["exact_integer", "float"])
def test_pool_matches_the_reference_on_random_plane_sets(arithmetic):
    backend = make_backend({"kind": "half_plane", "arithmetic": arithmetic})
    letters = [((1, 2), (0, 1)), ((1, -2), (0, 1)), ((1, 0), (2, 1)), ((1, 0), (-2, 1)),
               ((0, -1), (1, 0)), ((1, 1), (0, 1))]
    rng = random.Random(f"pool/{arithmetic}")
    for _ in range(30):
        elems = []
        for _ in range(rng.randint(1, 6)):
            m = ((1, 0), (0, 1))
            for _ in range(rng.randint(1, 7)):
                g = rng.choice(letters)
                m = tuple(tuple(sum(m[i][j] * g[j][c] for j in range(2)) for c in range(2))
                          for i in range(2))
            elems.append(backend.element([list(r) for r in m]))
        T = GeneratingSet(backend, elems)
        for budget in (8, 64):
            _assert_same_pool(T, budget)


def test_pool_matches_the_reference_with_an_involution():
    # a*a = 1: the product that is the identity is left out of the pool
    tree = make_backend({"kind": "free_product_tree", "orders": [2, 3]})
    plane = make_backend({"kind": "half_plane"})
    for T in (GeneratingSet(tree, [tree.element(w) for w in ("a", "b", "ab", "bab")]),
              GeneratingSet(plane, [plane.element(m) for m in ([[0, -1], [1, 0]], *SANOV)])):
        backend = T.backend
        a = T[0].canonical
        assert backend._compose(a, a) == backend._identity_canonical()
        _assert_same_pool(T)


def test_pool_matches_the_reference_past_the_product_budget():
    backend = make_backend(_TREE)
    words = ["x", "y", "xy", "xY", "yx", "xxy", "yyx", "xYx", "yXy", "xxx", "yyy", "xyxy"]
    T = GeneratingSet(backend, [backend.element(w) for w in words])
    assert len(_new_products(T)) > 64
    _assert_same_pool(T)
    _assert_same_pool(T, 16)
