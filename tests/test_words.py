"""Generating-set construction, product balls, exact word length."""

import itertools
import random

import pytest

from loxgrow.errors import (
    BudgetExceeded,
    ConfigError,
    EmptyAfterReduction,
    NotSymmetric,
)
from loxgrow.words import make_generating_set, product_ball_set, spheres, word_length_in_S

PSL2Z_GENS = [[[0, -1], [1, 0]], [[0, -1], [1, 1]], [[-1, -1], [1, 0]]]


def test_symmetrize_f2(ft2):
    S = make_generating_set(ft2, ["x", "y"])
    assert len(S) == 4
    canon = {g.canonical for g in S}
    assert canon == {ft2.element(w).canonical for w in ("x", "X", "y", "Y")}


def test_deterministic_order(ft2):
    S1 = make_generating_set(ft2, ["y", "x"])
    S2 = make_generating_set(ft2, ["x", "y"])
    assert [g.canonical for g in S1] == [g.canonical for g in S2]


def test_self_inverse_dedup(pt23):
    S = make_generating_set(pt23, ["a", "a"])
    assert len(S) == 1


def test_identity_only_rejected(ft2):
    with pytest.raises(EmptyAfterReduction):
        make_generating_set(ft2, ["xX"])


def test_unsymmetric_input_rejected(ft2):
    with pytest.raises(NotSymmetric):
        make_generating_set(ft2, ["x"], symmetrize=False)
    make_generating_set(ft2, ["x", "X"], symmetrize=False)


def test_ball_sets_f2(S_f2):
    assert len(product_ball_set(S_f2, 1)) == 4
    # 2*3^2 - 1 elements in the radius-2 ball, minus the identity
    assert len(product_ball_set(S_f2, 2)) == 16


def test_ball_set_psl_tree(pt23, S_pt):
    ball2 = product_ball_set(S_pt, 2)
    expect = {pt23.element(w).canonical for w in ("a", "b", "bb", "ab", "abb", "ba", "bba")}
    assert {g.canonical for g in ball2} == expect


def test_ball_set_cap(S_f2):
    with pytest.raises(BudgetExceeded):
        product_ball_set(S_f2, 6, memory_cap=100)
    with pytest.raises(ConfigError):
        product_ball_set(S_f2, 0)


def test_word_length_basics(ft2, S_f2):
    assert word_length_in_S(S_f2, ft2.element("xyX"), 5) == 3
    assert word_length_in_S(S_f2, ft2.element("xx"), 5) == 2
    assert word_length_in_S(S_f2, ft2.element(""), 5) == 0
    assert word_length_in_S(S_f2, ft2.element("xxxx"), 3) is None


def test_word_length_memory_cap(ft2):
    # a non-basis set so the free-tree shortcut does not kick in
    S = make_generating_set(ft2, ["xx", "y"])
    assert word_length_in_S(S, ft2.element("xxxx"), 4) == 2
    with pytest.raises(BudgetExceeded):
        word_length_in_S(S, ft2.element("x" * 16), 8, memory_cap=20)


def test_word_length_partial_sphere_at_memory_cap(ft2):
    # the search stops at the element that passes the cap: S[0] and S[1]
    # fill the cap of 2, so S[1] is still found and S[2] is not
    S = make_generating_set(ft2, ["x", "xy"])
    assert S.labels() == ["x", "X", "xy", "xy^-1"]
    assert word_length_in_S(S, S[1], 4, memory_cap=2) == 1
    with pytest.raises(BudgetExceeded) as exc:
        word_length_in_S(S, S[2], 4, memory_cap=2)
    assert exc.value.completed == 0


def test_spheres_order_and_cap():
    def compose(w, g):
        return (w + g) % 6

    assert list(spheres(0, [1, 5], compose, 100)) == [[1, 5], [2, 4], [3]]
    assert list(spheres(0, [1, 5], compose, 4)) == [[1, 5], [2, 4]]
    assert list(spheres(0, [1, 5], compose, 3)) == [[1, 5], [2]]
    assert list(spheres(0, [1, 5], compose, 2, key=lambda w: w % 3)) == [[1, 5]]


def test_word_length_symmetric_in_inverse(ft2, S_f2):
    rng = random.Random(31)
    for _ in range(40):
        w = "".join(rng.choice("xyXY") for _ in range(rng.randint(0, 6)))
        g = ft2.element(w)
        assert word_length_in_S(S_f2, g, 8) == word_length_in_S(S_f2, ft2.invert(g), 8)


def test_matrix_word_length_against_brute_force(hp):
    S = make_generating_set(hp, PSL2Z_GENS)
    target = hp.element([[-2, -1], [-1, -1]])

    # scan all products of length <= 4 by plain multiplication
    def mul(m1, m2):
        (a1, b1), (c1, d1) = m1
        (a2, b2), (c2, d2) = m2
        return ((a1 * a2 + b1 * c2, a1 * b2 + b1 * d2),
                (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2))

    def norm(m):
        (a, b), (c, d) = m
        for v in (a, b, c, d):
            if v:
                return (a, b, c, d) if v > 0 else (-a, -b, -c, -d)
        return (a, b, c, d)

    gens = [tuple(map(tuple, g)) for g in PSL2Z_GENS]
    gens += [((d, -b), (-c, a)) for (a, b), (c, d) in gens]
    best = None
    for length in range(1, 5):
        for combo in itertools.product(gens, repeat=length):
            m = ((1, 0), (0, 1))
            for f in combo:
                m = mul(m, f)
            if norm(m) == target.canonical and best is None:
                best = length
        if best is not None:
            break
    assert best == 4
    assert word_length_in_S(S, target, 6) == 4


def test_ball_sizes_consistency(S_f2, S_pt):
    from loxgrow.growth import ball_sizes

    for S in (S_f2, S_pt):
        table = ball_sizes(S, 4)
        for n in range(1, 5):
            assert len(product_ball_set(S, n)) + 1 == table.ball(n)


def test_empty_inputs_rejected(ft2):
    with pytest.raises(EmptyAfterReduction):
        make_generating_set(ft2, [])
