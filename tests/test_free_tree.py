"""Cayley-tree backend: reduction, metric, classification."""

import random

import pytest

from loxgrow.errors import BackendMismatch, ConfigError
from loxgrow.spaces import FreeGroupTree, Point


def test_compose_reduces(ft2):
    xy = ft2.element("xy")
    yinv = ft2.element("Y")
    assert ft2.compose(xy, yinv).canonical == ft2.element("x").canonical


def test_inverse_composes_to_identity(ft2):
    g = ft2.element("xyxxY")
    assert ft2.is_identity(ft2.compose(g, ft2.invert(g)))
    assert not ft2.is_identity(g)


def test_backend_mismatch_rejected(ft2):
    other = FreeGroupTree(2, letters="xy")
    with pytest.raises(BackendMismatch):
        ft2.compose(ft2.element("x"), other.element("y"))


def test_unknown_letter(ft2):
    with pytest.raises(ConfigError):
        ft2.element("z")


def test_rank_validation():
    with pytest.raises(ConfigError):
        FreeGroupTree(0)
    with pytest.raises(ConfigError):
        FreeGroupTree(2, letters="xx")


def test_dist_is_word_length(ft2):
    assert ft2.dist(ft2.origin(), Point(ft2, ft2.element("xy").canonical)) == 2


def test_apply_left_translates(ft2):
    v = Point(ft2, ft2.element("y").canonical)
    assert ft2.apply(ft2.element("x"), v).data == ft2.element("xy").canonical


def test_classification(ft2):
    assert ft2.classify(ft2.element("x")).kind == "loxodromic"
    assert ft2.classify(ft2.element("xX")).kind == "identity"


def test_translation_length_is_cyclic_length(ft2):
    # conjugation cancels: tau(x y x^-1) = tau(y) = 1
    assert ft2.translation_length(ft2.element("xyX")) == 1
    assert ft2.translation_length(ft2.element("xy")) == 2
    assert ft2.translation_length(ft2.element("")) == 0


def test_evaluating_canonical_matches_word(ft2):
    rng = random.Random(11)
    letters = "xyXY"
    for _ in range(100):
        w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 20)))
        g = ft2.element(w)
        spelled = "".join(
            (ft2.letters[abs(v) - 1] if v > 0 else ft2.letters[abs(v) - 1].upper())
            for v in ft2.canonical_payload(g.canonical)
        )
        assert ft2.element(spelled).canonical == g.canonical


def test_isometry_exact(ft2):
    rng = random.Random(5)
    for _ in range(200):
        x, y = ft2.sample_points(rng, 2)
        g = ft2.element("".join(rng.choice("xyXY") for _ in range(rng.randint(0, 8))))
        assert ft2.dist(ft2.apply(g, x), ft2.apply(g, y)) == ft2.dist(x, y)


def test_sort_key_is_shortlex(ft2):
    elems = [ft2.element(w) for w in ("y", "x", "Y", "xx", "X")]
    elems.sort(key=ft2.sort_key)
    assert [e.canonical for e in elems] == [
        ft2.element(w).canonical for w in ("x", "X", "y", "Y", "xx")
    ]
