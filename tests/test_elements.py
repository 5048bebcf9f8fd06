"""GroupElement and Point semantics, and the basepoint pool: the seeds,
which certify on the trees what the larger reference pool certifies, and
which the half-plane, whose certificates hold no point, never reads."""

import functools
import json
import random

import pytest

import loxgrow.freebasis as freebasis
from loxgrow.errors import LoxgrowError
from loxgrow.freebasis import SearchBudgets, build_free_basis, certificate_to_json
from loxgrow.spaces import GroupElement, Point, make_backend
from loxgrow.spaces.base import basepoint_candidates, word_str
from loxgrow.words import GeneratingSet, make_generating_set

from conftest import SANOV, mat_mul, random_generating_set
from test_freebasis import _CHECK_CASES

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
    """The reference pool: the seeds, then their orbit under S and under up
    to ``budget`` pair products of S, deduplicated and cut at ``budget``.
    It builds a GroupElement and makes an is_identity call per pair
    product. Tree points only: their data is hashable and exact."""
    backend = S.backend
    seeds = backend._candidate_seeds()
    pts = []
    seen = set()

    def push(p):
        if p.data not in seen:
            seen.add(p.data)
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
            push(backend.apply(g, p))
        if len(pts) >= budget:
            break
    return pts[:budget]


def _no_pool(S, budget=64):
    raise AssertionError("the half-plane search read the basepoint pool")


def _outcomes(S, monkeypatch, memory_cap, budgets=None):
    """certificate_to_json of build_free_basis, or the error's type and
    message, with the pool and then with the reference pool in its place:
    on the half-plane, a pool that fails when read."""
    def outcome():
        try:
            return certificate_to_json(build_free_basis(S, budgets, memory_cap=memory_cap))
        except LoxgrowError as exc:
            return f"{type(exc).__name__}: {exc}"

    pool = freebasis.basepoint_candidates
    new = outcome()
    reference = _no_pool if S.backend.kind == "half_plane" else _reference_candidates
    monkeypatch.setattr(freebasis, "basepoint_candidates", reference)
    old = outcome()
    monkeypatch.setattr(freebasis, "basepoint_candidates", pool)
    return new, old


_CERTIFY = ["elliptic", "sanov", "sanov-float", "c2c7", "c2c3", "c2c4", "c3c3"]


@pytest.mark.parametrize("case", _CERTIFY)
def test_certify_configs_write_the_reference_pools_certificate(case, monkeypatch):
    config, gens, cap = _CHECK_CASES[case]
    S = make_generating_set(make_backend(config), gens)
    new, old = _outcomes(S, monkeypatch, cap)
    assert new == old and new.startswith("{")


@pytest.mark.parametrize("kind, count", [("f2", 15), ("c2c3", 15), ("c3c3", 15), ("plane", 15),
                                         ("plane-float", 4), ("conjugate", 4)])
def test_random_sets_end_as_with_the_reference_pool(kind, count, monkeypatch):
    # the same certificate, byte for byte, or the same error
    rng = random.Random(f"pool/{kind}")
    certified = 0
    for _ in range(count):
        S = random_generating_set(kind, rng)
        new, old = _outcomes(S, monkeypatch, 5_000, SearchBudgets(max_n=6, max_k=8))
        assert new == old, S
        certified += new.startswith("{")
    assert certified >= count // 3


def _plane_words(*words):
    """The matrices of words over T^2, U^2 and their inverses (t, u, T, U)."""
    letters = {"t": ((1, 2), (0, 1)), "T": ((1, -2), (0, 1)),
               "u": ((1, 0), (2, 1)), "U": ((1, 0), (-2, 1))}
    return [[list(row) for row in functools.reduce(mat_mul, map(letters.get, w))]
            for w in words]


def test_a_T_past_the_reference_budget_writes_its_certificate(monkeypatch):
    # nine entries give a first T of 18, more letters than any pool of
    # seeds and axis points covered; integer ping-pong proves a T free with
    # no point, so the certificate is written with an unreadable pool and
    # stores no basepoint
    hp = make_backend({"kind": "half_plane"})
    S = make_generating_set(hp, _plane_words("t", "u", "tu", "ut", "tU", "Ut", "ttu", "uut", "tut"))
    new, old = _outcomes(S, monkeypatch, 20_000)
    assert new == old and new.startswith("{")
    cert = json.loads(new)
    assert cert["mode"] == "ping-pong" and "basepoint" not in cert


def _no_compose(*args):
    raise AssertionError("the basepoint pool composed an element")


@pytest.mark.parametrize("arithmetic", ["exact_integer", "float"])
def test_plane_pool_is_the_origin(arithmetic, monkeypatch):
    hp = make_backend({"kind": "half_plane", "arithmetic": arithmetic})
    # loxodromic, parabolic and elliptic entries: none adds a point
    specs = _plane_words("tu", "u", "Ut", "tuu", "t") + [[[0, -1], [1, 0]], [[2, 1], [1, 1]]]
    if arithmetic == "float":
        specs = [[[float(v) for v in row] for row in m] for m in specs]
    T = GeneratingSet(hp, [hp.element(m) for m in specs])
    monkeypatch.setattr(hp, "_compose", _no_compose)
    assert basepoint_candidates(T) == [hp.origin()]
    assert basepoint_candidates(T, 0) == []


@pytest.mark.parametrize("config, seeds", [
    (_TREE, [b""]),
    ({"kind": "free_product_tree", "orders": [2, 3]}, [(b"", 0), (b"", 1)]),
], ids=["free", "product"])
def test_tree_pool_is_the_seeds(config, seeds, monkeypatch):
    backend = make_backend(config)
    words = ["xy", "x", "yyx"] if config is _TREE else ["ab", "a", "bab"]
    T = GeneratingSet(backend, [backend.element(w) for w in words])
    monkeypatch.setattr(backend, "_compose", _no_compose)
    assert [p.data for p in basepoint_candidates(T)] == seeds
    assert basepoint_candidates(T, 1) == [backend.origin()]
