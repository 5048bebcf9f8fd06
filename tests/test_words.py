"""Generating-set construction, product balls, shortest words over S."""

import itertools
import random

import pytest

import loxgrow.words as words
from loxgrow.errors import (
    BudgetExceeded,
    ConfigError,
    EmptyAfterReduction,
    NotSymmetric,
)
from loxgrow.growth import ball_sizes
from loxgrow.spaces import FreeProductTree, GroupElement, make_backend
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


def _evaluate(S, word):
    """The canonical form of a word over the symbols of S."""
    backend = S.backend
    letters = {}
    for s in S:
        [(label, sign)] = s.word
        letters[(label, sign)] = s.canonical
        letters[(label, -sign)] = backend._invert(s.canonical)
    value = backend._identity_canonical()
    for sym in word:
        value = backend._compose(value, letters[sym])
    return value


def _search(S, targets, memory_cap=words.DEFAULT_MEMORY_CAP):
    """word_length_in_S with each returned word checked to spell its target
    and replaced by its length; None and BudgetExceeded pass through."""
    return _lengths(S, targets, word_length_in_S(S, targets, memory_cap))


def _lengths(S, targets, outcomes):
    out = []
    for (g, _), d in zip(targets, outcomes):
        if isinstance(d, tuple):
            assert _evaluate(S, d) == g.canonical, (g, d)
            d = len(d)
        out.append(d)
    return out


def test_word_length_basics(ft2, S_f2):
    targets = [(ft2.element(w), cap) for w, cap in (("xyX", 5), ("xx", 5), ("", 5), ("xxxx", 3))]
    assert _search(S_f2, targets) == [3, 2, 0, None]


def test_word_length_memory_cap(ft2):
    # a non-basis set so the free-tree shortcut does not kick in
    S = make_generating_set(ft2, ["xx", "y"])
    assert word_length_in_S(S, [(ft2.element("xxxx"), 4)]) == [(("xx", 1), ("xx", 1))]
    [bust] = word_length_in_S(S, [(ft2.element("x" * 16), 8)], memory_cap=20)
    assert isinstance(bust, BudgetExceeded)


def test_word_length_partial_sphere_at_memory_cap(ft2):
    # the search stops at the element that passes the cap: S[0] and S[1]
    # fill the cap of 2, so S[1] is still found and S[2] is not
    S = make_generating_set(ft2, ["x", "xy"])
    assert S.labels() == ["x", "X", "xy", "xy^-1"]
    found, bust = _search(S, [(S[1], 4), (S[2], 4)], memory_cap=2)
    assert found == 1
    assert isinstance(bust, BudgetExceeded) and bust.completed == 0


def _one_target(S, g, cap, memory_cap):
    """The search for one target alone, as it ran before all targets shared
    one walk; a busted search gives ("budget", completed)."""
    backend = S.backend
    ident = backend._identity_canonical()
    if g.canonical == ident:
        return 0
    exact = backend.subgroup_word_exact(S, g)
    if exact is not None:
        return len(exact) if len(exact) <= cap else None
    visited = 1
    ball = spheres(ident, [s.canonical for s in S], backend._compose, memory_cap)
    for radius, (sphere, _, _) in enumerate(itertools.islice(ball, cap), 1):
        if g.canonical in sphere:
            return radius
        visited += len(sphere)
        if visited > memory_cap:
            return ("budget", radius - 1)
    return None


def _least_word(S, g, d):
    """The word for g, at radius d over an exact S, that stepping back by
    trial spells: from g to g s^-1 for the first s in S that lands one
    sphere lower, down to the identity."""
    backend = S.backend
    ident = backend._identity_canonical()
    ball = spheres(ident, [s.canonical for s in S], backend._compose, 10**7)
    below = [{ident}] + [set(sphere) for sphere, _, _ in itertools.islice(ball, d - 1)]
    c, steps = g.canonical, []
    for layer in reversed(below):
        s, c = next((s, prev) for s in S
                    if (prev := backend._compose(c, backend._invert(s.canonical))) in layer)
        steps.append(s.word)
    return tuple(sym for word in reversed(steps) for sym in word)


def _agrees_with_one_target_searches(S, targets, memory_cap=words.DEFAULT_MEMORY_CAP):
    """Outcomes as the one-target searches give them, and each walked word
    the one that trying every step back spells."""
    outcomes = word_length_in_S(S, targets, memory_cap)
    got = [("budget", d.completed) if isinstance(d, BudgetExceeded) else d
           for d in _lengths(S, targets, outcomes)]
    assert got == [_one_target(S, g, cap, memory_cap) for g, cap in targets]
    for (g, _), w in zip(targets, outcomes):
        if isinstance(w, tuple) and w and S.backend.subgroup_word_exact(S, g) is None:
            assert w == _least_word(S, g, len(w)), (g, w)
    return got


def _count_walks(monkeypatch):
    """Count the walks of word_length_in_S; the oracle's walks go through
    this module's own ``spheres`` name and are not counted."""
    walks = []

    def counted(*args, **kwargs):
        walks.append(1)
        return spheres(*args, **kwargs)

    monkeypatch.setattr(words, "spheres", counted)
    return walks


def test_multi_target_radii_and_caps(ft2, monkeypatch):
    # {xx, y} generates a free subgroup, so its ball is a 4-regular tree:
    # spheres of 4, 12, 36, ... elements
    S = make_generating_set(ft2, ["xx", "y"])
    walks = _count_walks(monkeypatch)
    e = ft2.element
    targets = [(e("y"), 5), (e("xxxxy"), 5), (e("xxY"), 5), (e("x"), 6),
               (e("x" * 8), 1), (e("x" * 6 + "y"), 5)]
    # found at radii 1, 3 and 2; x is not in the subgroup; x^8 is past its
    # cap of 1 while the others are still searched
    assert _agrees_with_one_target_searches(S, targets) == [1, 3, 2, None, None, 4]
    assert len(walks) == 1


def test_multi_target_bust_at_the_cap_radius(ft2):
    S = make_generating_set(ft2, ["xx", "y"])
    e = ft2.element
    # the visited set reaches 1 + 4 + 12 = 17 > 16 at the end of radius 2:
    # a target with cap 2 that is not in sphere 2 busts instead of giving None
    targets = [(e("xx"), 2), (e("xxY"), 2), (e("x"), 2), (e("x"), 1), (e("y" * 5), 6)]
    got = _agrees_with_one_target_searches(S, targets, memory_cap=16)
    assert got == [1, 2, ("budget", 1), None, ("budget", 1)]
    # one element more and radius 2 completes: the cap-2 miss is a plain None
    assert _agrees_with_one_target_searches(S, targets, memory_cap=17)[2:4] == [None, None]


def test_multi_target_cap_inside_the_last_sphere(ft2):
    # S sorts as y, Y, xx, XX, and sphere 2 lists words by last letter, then
    # by the sphere below: yy, xxy, XXy, YY, xxY, XXY, yxx, Yxx, xxxx, ...
    # At memory_cap 10 the visited set passes the cap at XXY, the sixth:
    # XXY is found, and yxx, one later, busts with radius 1 completed
    S = make_generating_set(ft2, ["xx", "y"])
    e = ft2.element
    targets = [(e("XXY"), 3), (e("yxx"), 3), (e("yy"), 2)]
    assert _agrees_with_one_target_searches(S, targets, memory_cap=10) == [2, ("budget", 1), 2]
    assert _agrees_with_one_target_searches(S, targets, memory_cap=11) == [2, 2, 2]


def test_multi_target_duplicates(ft2):
    S = make_generating_set(ft2, ["xx", "y"])
    g = ft2.element("xxyy")
    targets = [(g, 3), (g, 3), (g, 1), (ft2.element("yy"), 4), (g, 2)]
    assert _agrees_with_one_target_searches(S, targets) == [3, 3, None, 2, None]
    got = word_length_in_S(S, [(g, 4), (g, 4)], memory_cap=10)
    assert [d.completed for d in got] == [1, 1]


def test_multi_target_shortcuts_per_entry(ft2, S_f2, monkeypatch):
    walks = _count_walks(monkeypatch)
    e = ft2.element
    # a free basis: every entry is answered by the tree shortcut, no walk
    targets = [(e(""), 0), (e("xyX"), 3), (e("xyX"), 2), (e("YY"), 5)]
    assert _agrees_with_one_target_searches(S_f2, targets) == [0, 3, None, 2]
    assert walks == []

    # the shortcut answers one entry of a non-basis set; the rest are walked
    S = make_generating_set(ft2, ["xx", "y"])
    special = e("xxxxxx").canonical
    monkeypatch.setattr(ft2, "subgroup_word_exact",
                        lambda S, g: (("xx", 1),) * 3 if g.canonical == special else None)
    targets = [(e("y"), 3), (e(""), 2), (e("xxxxxx"), 4), (e("xxxxxx"), 2), (e("xxy"), 3)]
    assert _agrees_with_one_target_searches(S, targets) == [1, 0, 3, None, 2]
    assert len(walks) == 1


def test_multi_target_finite_ball_runs_out(hp, pt23):
    # ST has order 3: its ball {1, ST, (ST)^-1} ends after radius 1
    S = make_generating_set(hp, [[[0, -1], [1, 1]]])
    targets = [(S[1], 50), (hp.element([[1, 1], [0, 1]]), 50), (S[0], 1)]
    assert _agrees_with_one_target_searches(S, targets) == [1, None, 1]
    # {a} in C2*C3 is the finite group {1, a}
    S = make_generating_set(pt23, ["a"])
    targets = [(pt23.element("a"), 9), (pt23.element("b"), 9), (pt23.element("ab"), 3)]
    assert _agrees_with_one_target_searches(S, targets) == [1, None, None]


def test_multi_target_agrees_with_one_target_searches_at_random(ft2, pt23):
    rng = random.Random(7)
    sets = [(ft2, make_generating_set(ft2, ["xx", "y", "xy"]), "xyXY"),
            (pt23, make_generating_set(pt23, ["a", "bab"]), "ab")]
    for backend, S, letters in sets:
        for _ in range(30):
            targets = []
            for _ in range(rng.randint(1, 6)):
                w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 7)))
                targets.append((backend.element(w), rng.randint(0, 6)))
            if rng.random() < 0.3:
                targets.append(targets[0])
            _agrees_with_one_target_searches(S, targets, memory_cap=rng.choice((3, 40, 300, 5000)))


def test_tree_shortcuts_spell_the_normal_form(ft2, pt23, S_f2, S_pt, monkeypatch):
    walks = _count_walks(monkeypatch)
    e = ft2.element
    targets = [(e("xyX"), 3), (e("YYx"), 3)]
    assert word_length_in_S(S_f2, targets) == [
        (("x", 1), ("y", 1), ("x", -1)), (("y", -1), ("y", -1), ("x", 1))]
    # bb is its own symbol in S_pt, so b^2 a b is three letters
    assert word_length_in_S(S_pt, [(pt23.element("bbab"), 3)]) == [
        (("bb", 1), ("a", 1), ("b", 1))]
    assert walks == []


def test_tree_shortcuts_need_exactly_the_standard_set(ft2, pt23):
    # over a larger S the normal form need not be shortest: xy is one letter
    # of {x, y, xy}, ab one of {a, b, ab}
    for backend, standard, larger, g in [
        (ft2, ["x", "y"], ["x", "y", "xy"], "xyxy"),
        (pt23, ["a", "b"], ["a", "b", "ab"], "abab"),
        (FreeProductTree((2, 4)), ["a", "b", "bb"], ["a", "b", "bb", "ab"], "abab"),
    ]:
        g = backend.element(g)
        assert len(backend.subgroup_word_exact(make_generating_set(backend, standard), g)) == 4
        S = make_generating_set(backend, larger)
        assert backend.subgroup_word_exact(S, g) is None
        assert _evaluate(S, backend.normal_form_word(S, g)) == g.canonical
        assert _search(S, [(g, 4)]) == [2]
    # a set missing a factor element has no shortcut either
    c24 = FreeProductTree((2, 4))
    assert c24.subgroup_word_exact(make_generating_set(c24, ["a", "b"]), c24.element("ab")) is None


def test_float_words_step_back_through_the_spheres(hp, hpf):
    # Sanov conjugated by diag(1.1, 1/1.1): the entries are not integers,
    # so a step back g s^-1 lands on its sphere element only up to roundoff
    c = 1.1
    gens = [[[1.0, 2.0 * c * c], [0.0, 1.0]], [[1.0, 0.0], [2.0 / (c * c), 1.0]]]
    S = make_generating_set(hpf, gens)
    S_exact = make_generating_set(hp, [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
    # both sets sort as a^-1, b^-1, b, a: S[3 - i] inverts S[i]
    assert [s.word for s in S] == [s.word for s in S_exact]
    rng = random.Random(5)
    targets, exact_targets = [], []
    for _ in range(40):
        # reduced words: the walk composes the same letters in the same order
        length, picks = rng.randint(1, 7), [rng.randrange(4)]
        while len(picks) < length:
            picks.append(rng.choice([i for i in range(4) if i != 3 - picks[-1]]))
        g, g_exact = hpf.identity(), hp.identity()
        for i in picks:
            g, g_exact = hpf.compose(g, S[i]), hp.compose(g_exact, S_exact[i])
        targets.append((g, 8))
        exact_targets.append((g_exact, 8))
    got = word_length_in_S(S, targets, 100_000)
    assert [len(w) for w in got] == _search(S_exact, exact_targets, 100_000)
    for (g, _), w in zip(targets, got):
        value = _evaluate(S, w)
        tol = 1e-9 * max(1.0, max(abs(x) for x in g.canonical))
        assert max(abs(v - x) for v, x in zip(value, g.canonical)) <= tol


def test_spheres_order_and_cap():
    def compose(w, g):
        return (w + g) % 6

    def walk(cap, key=None):
        return [sphere for sphere, _, _ in spheres(0, [1, 5], compose, cap, key)]

    assert walk(100) == [[1, 5], [2, 4], [3]]
    assert walk(4) == [[1, 5], [2, 4]]
    assert walk(3) == [[1, 5], [2]]
    assert walk(2, key=lambda w: w % 3) == [[1, 5]]
    # each record: the sphere, its keys in order (the sphere itself without
    # a key) and the slice each generator found; a partial sphere's slices
    # stop at the generator that passed the cap
    halves = [(0, 1), (1, 2)]
    for cap, want, slices in ((100, [[1, 5], [2, 4], [3]], [halves, halves, [(0, 1), (1, 1)]]),
                              (3, [[1, 5], [2]], [halves, [(0, 1)]])):
        got = list(spheres(0, [1, 5], compose, cap, key=lambda w: -w))
        assert got == [(s, [-w for w in s], f) for s, f in zip(want, slices)]
        for sphere, keys, _ in spheres(0, [1, 5], compose, cap):
            assert keys is sphere


def test_word_length_symmetric_in_inverse(ft2, S_f2):
    rng = random.Random(31)
    for _ in range(40):
        w = "".join(rng.choice("xyXY") for _ in range(rng.randint(0, 6)))
        g = ft2.element(w)
        d, d_inv = _search(S_f2, [(g, 8), (ft2.invert(g), 8)])
        assert d == d_inv


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
    assert _search(S, [(target, 6)]) == [4]


def test_ball_sizes_consistency(S_f2, S_pt):
    for S in (S_f2, S_pt):
        table = ball_sizes(S, 4)
        for n in range(1, 5):
            assert len(product_ball_set(S, n)) + 1 == table.ball(n)


def test_empty_inputs_rejected(ft2):
    with pytest.raises(EmptyAfterReduction):
        make_generating_set(ft2, [])


_PREWALK_SETS = {
    # exact integer keys, rounded float keys and byte keys
    "sanov": ({"kind": "half_plane"}, [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]),
    "sanov-float": ({"kind": "half_plane", "arithmetic": "float"},
                    [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]]),
    "elliptic": ({"kind": "half_plane"}, PSL2Z_GENS),
    "c2c7": ({"kind": "free_product_tree", "orders": [2, 7]}, ["a", "b"]),
}


@pytest.mark.parametrize("depth", ["table", "past the targets"])
@pytest.mark.parametrize("bust", [False, True], ids=["no-bust", "bust-at-4"])
@pytest.mark.parametrize("case", sorted(_PREWALK_SETS))
def test_pre_walked_ball_answers_as_a_fresh_walk(case, bust, depth):
    # verify_theorem's kappa search reads the Ball its growth table walked,
    # whose visited set already runs past the radius the search is at:
    # every outcome must be what a fresh walk gives
    config, gens = _PREWALK_SETS[case]
    backend = make_backend(config)
    S = make_generating_set(backend, gens)
    n_max = 5
    reference = words.Ball(S, 10**5)
    list(itertools.islice(reference, n_max + 2))
    spheres_of = [sphere for sphere, _, _ in reference.records]  # radii 0..n_max + 2
    below = sum(map(len, spheres_of[:4]))
    # with a bust, the visited set passes the cap at place k of sphere 4
    k = len(spheres_of[4]) // 2
    memory_cap = below + k if bust else 10**5

    tagged = [(0, 0, 0), (0, 0, 4)]  # (radius, place in its sphere, cap)
    for d in range(1, n_max + 1):
        tagged += [(d, 0, d), (d, len(spheres_of[d]) - 1, n_max + 2)]
    tagged += [(n_max + 2, 0, n_max + 2),  # beyond the table
               (4, 1, 2),  # past its own cap
               (4, k, 4), (4, k + 1, 4)]  # the one that passed the cap, and the next
    targets = [(GroupElement(backend, spheres_of[d][place]), cap) for d, place, cap in tagged]

    ball = words.Ball(S, memory_cap)
    table = ball_sizes(S, n_max, memory_cap, ball=ball)
    assert table.truncated == bust
    if depth == "past the targets":
        list(itertools.islice(ball, n_max + 3))
    assert len(ball.seen) == sum(len(sphere) for sphere, _, _ in ball.records)

    def outcomes(found):
        return [("budget", d.completed, str(d)) if isinstance(d, BudgetExceeded) else d
                for d in found]

    fresh = word_length_in_S(S, targets, memory_cap)
    assert outcomes(word_length_in_S(S, targets, memory_cap, ball=ball)) == outcomes(fresh)

    def expected(d, place, cap):
        if d > cap:
            return None if not bust or cap < 4 else ("budget", 3)
        if bust and (d > 4 or (d == 4 and place > k)):
            return ("budget", 3)
        return d

    got = [("budget", d.completed) if isinstance(d, BudgetExceeded) else d
           for d in _lengths(S, targets, fresh)]
    assert got == [expected(*t) for t in tagged]
