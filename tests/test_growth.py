"""Ball counting, growth brackets, theta ratios."""

import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from loxgrow import __version__
from loxgrow.errors import ConfigError
from loxgrow.freebasis import verify_theorem
from loxgrow.growth import (
    GrowthTable,
    _engine_py,
    ball_sizes,
    growth_brackets,
)
from loxgrow.spaces import FreeGroupTree, FreeProductTree, HalfPlane, half_plane
from loxgrow.words import make_generating_set, product_ball_set

from conftest import NON_INTEGER_FLOAT_SETS, SANOV

PSL_TREE_BALLS = [1, 4, 8, 14, 22, 34, 50, 74, 106]


def f2_closed_form(n):
    return 2 * 3**n - 1


def test_f2_closed_form_all_engines(S_f2):
    table = ball_sizes(S_f2, 9)
    assert table.balls == [f2_closed_form(n) for n in range(10)]
    assert not table.truncated
    assert table.engine == "generic"


def test_each_encoding_calls_its_engine_counter_once(monkeypatch, S_f2, S_pt, S_sanov, hpf):
    # every backend counts through _engine_py.generic_ball_counts, which
    # ball_sizes looks up at call time, so wrapping it there sees every call
    # (perfbench's growth spans rely on this)
    calls = []
    orig = _engine_py.generic_ball_counts

    def wrapper(*args, **kwargs):
        calls.append(args[2])
        return orig(*args, **kwargs)

    monkeypatch.setattr(_engine_py, "generic_ball_counts", wrapper)
    S_float = make_generating_set(hpf, [[[float(v) for v in row] for row in g] for g in SANOV])
    for S in (S_f2, S_pt, S_sanov, S_float):
        calls.clear()
        table = ball_sizes(S, 4)
        assert table.engine == "generic"
        # one call, with the backend's own compose
        assert calls == [S.backend._compose]


def test_rank_one_linear():
    z = FreeGroupTree(1, letters="t")
    S = make_generating_set(z, ["t"])
    table = ball_sizes(S, 12)
    assert table.balls == [2 * n + 1 for n in range(13)]


def test_psl_tree_balls(pt23, S_pt):
    table = ball_sizes(S_pt, 8)
    assert table.balls == PSL_TREE_BALLS
    for n in range(1, 5):
        assert table.ball(n) == len(product_ball_set(S_pt, n)) + 1


def test_sanov_matches_free_group(S_sanov):
    table = ball_sizes(S_sanov, 6)
    assert table.balls == [f2_closed_form(n) for n in range(7)]


def test_float_backend_generic_engine(hpf):
    S = make_generating_set(hpf, [[[2.0, 0.0], [0.0, 0.5]], [[1.0, 1.0], [0.0, 1.0]]])
    table = ball_sizes(S, 5)
    assert table.engine == "generic"
    exact = make_generating_set(
        HalfPlane(), [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]
    )
    assert ball_sizes(exact, 5).engine == "generic"


def test_truncation_consistent_across_engines(S_f2, S_sanov, hpf):
    table = ball_sizes(S_f2, 10, memory_cap=200)
    assert table.truncated
    assert table.balls == [f2_closed_form(n) for n in range(len(table.balls))]

    # the generic float path truncates exactly like the exact encodings,
    # including caps that fall inside a sphere (53 < 100 < 161) and on its end
    S_float = make_generating_set(hpf, [[[float(v) for v in row] for row in g] for g in SANOV])
    for cap in (1, 4, 5, 100, 161, 162, 1000):
        exact = ball_sizes(S_sanov, 8, memory_cap=cap)
        approx = ball_sizes(S_float, 8, memory_cap=cap)
        assert approx.engine == "generic"
        assert (approx.balls, approx.truncated) == (exact.balls, exact.truncated)
        assert exact.truncated == (cap < f2_closed_form(8))
        assert exact.balls == [f2_closed_form(n) for n in range(len(exact.balls))]
        assert exact.balls[-1] <= cap


def _cyclic_sphere_sizes(steps, order, radius):
    """Sphere sizes 0..radius of the cyclic group of ``order`` (None: Z)
    with the symmetric steps +-e for e in ``steps``, by breadth-first search."""
    seen, frontier, sizes = {0}, [0], [1]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for e in steps:
                for y in (x + e, x - e):
                    y = y if order is None else y % order
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        sizes.append(len(nxt))
        frontier = nxt
    return sizes


def _mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _free_product_denominator(wa, wb):
    """D = W_A + W_B - W_A W_B, as far as both sphere series go."""
    return [x + y - z for x, y, z in zip(wa, wb, _mul(wa, wb))]


def _free_product_spheres(wa, wb):
    """Sphere sizes of A * B over S_A u S_B from those of the factors, as
    far as both go: W = W_A W_B / D for D = W_A + W_B - W_A W_B, which has
    constant term 1, so the quotient stays in the integers."""
    num = _mul(wa, wb)
    den = _free_product_denominator(wa, wb)
    out = []
    for k in range(len(num)):
        out.append(num[k] - sum(den[i] * out[k - i] for i in range(1, k + 1)))
    return out


def _product_oracle_case(rng, finite=False):
    """(backend, generator words, sphere sizes of A and B to radius 60)
    for a random free product of two cyclic groups, C_p or Z (C_p only
    when ``finite``), each generated by some powers of its letter in
    random order and sign."""
    def factor(letter, order):
        top = 4 if order is None else order - 1
        exps = rng.sample(range(1, top + 1), rng.randint(1, min(3, top)))
        words = [(letter if rng.random() < 0.5 else letter.upper()) * e for e in exps]
        return words, _cyclic_sphere_sizes(exps, order, 60)

    if not finite and rng.random() < 0.25:
        backend, orders = FreeGroupTree(2, letters="xy"), (None, None)
        letters = "xy"
    else:
        orders = rng.choice([(p, q) for p in range(2, 10) for q in range(2, 10)
                             if (p, q) != (2, 2)])
        backend, letters = FreeProductTree(orders), "ab"
    words_a, wa = factor(letters[0], orders[0])
    words_b, wb = factor(letters[1], orders[1])
    words = words_a + words_b
    rng.shuffle(words)
    return backend, words, wa, wb


def test_free_product_balls_match_the_growth_series():
    # the growth series of a free product is a rational function of the
    # factors' series; Z's is (1 + z) / (1 - z), so F2 = Z * Z over {x, y}
    # is 2 3^n - 1 in balls, and the other sets take powers of one letter
    z = [1] + [2] * 60
    assert _cyclic_sphere_sizes([1], None, 60) == z
    cases = [(FreeGroupTree(2, letters="xy"), ["x", "y"], z, z)]
    rng = random.Random(2021)
    cases += [_product_oracle_case(rng) for _ in range(40)]
    for backend, words, wa, wb in cases:
        balls = list(accumulate(_free_product_spheres(wa, wb)))
        n = max(k for k, ball in enumerate(balls) if ball <= 50_000)
        S = make_generating_set(backend, words)
        assert ball_sizes(S, n).balls == balls[: n + 1], (backend.config(), words)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _remainder(a, b):
    """a mod b, polynomials as coefficient lists, constant term first."""
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        for i, c in enumerate(b, len(a) - len(b)):
            a[i] -= f * c
        _trim(a)
    return a


def _sturm_roots(coeffs, lo, hi):
    """The distinct real roots in (lo, hi) of the integer polynomial
    ``coeffs`` (constant term first), which must not vanish at lo or hi,
    counted exactly: the sign changes of its Sturm sequence at lo less
    those at hi."""
    p = _trim([Fraction(c) for c in coeffs])
    seq = [p, _trim([i * c for i, c in enumerate(p)][1:])]
    while seq[-1] and (r := _remainder(seq[-2], seq[-1])):
        seq.append([-c for c in r])

    def changes(x):
        values = [sum(c * x ** i for i, c in enumerate(q)) for q in seq if q]
        assert values[0], x
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


def test_sturm_count_on_known_roots():
    # (1 - 2z)(1 - 3z)^2 = 1 - 8z + 21z^2 - 18z^3: roots 1/3 (double) and 1/2
    p = [1, -8, 21, -18]
    assert _sturm_roots(p, 0, Fraction(1, 4)) == 0
    assert _sturm_roots(p, 0, Fraction(17, 50)) == 1
    assert _sturm_roots(p, 0, Fraction(2, 5)) == 1
    assert _sturm_roots(p, 0, 1) == 2
    assert _sturm_roots([1, -1, -1], 0, 1) == 1  # 1 - z - z^2: (sqrt 5 - 1)/2


def test_free_product_bracket_holds_the_exact_rate():
    # omega = -log z0 for the least positive root z0 of D, a polynomial with
    # D(0) = 1 when both factors are finite. No root of D in (0, y_hi)
    # proves omega <= -log y_hi < omega_upper, and one in (0, y_lo) proves
    # omega > -log y_lo > omega_lower; the 1e-12 margins absorb the
    # roundoff of exp
    rng = random.Random(18)
    eps = Fraction(1, 10**12)
    for _ in range(10):
        backend, words, wa, wb = _product_oracle_case(rng, finite=True)
        report = verify_theorem(make_generating_set(backend, words), 8, memory_cap=50_000)
        den = _free_product_denominator(wa, wb)
        y_hi = Fraction(math.exp(-report.omega_upper)) * (1 + eps)
        y_lo = Fraction(math.exp(-report.omega_lower)) * (1 - eps)
        assert _sturm_roots(den, 0, y_hi) == 0, (backend.config(), words)
        assert _sturm_roots(den, 0, y_lo) >= 1, (backend.config(), words)


def test_submultiplicative_and_step_bound(S_pt, S_sanov):
    for S in (S_pt, S_sanov):
        t = ball_sizes(S, 7)
        a = t.balls
        for m in range(1, 7):
            for n in range(1, 8 - m):
                assert a[m + n] <= a[m] * a[n]
        for n in range(1, 8):
            assert a[n] <= a[n - 1] * (len(S) + 1)


def test_upper_bound_nonincreasing(S_pt):
    t = ball_sizes(S_pt, 8)
    uppers = [t.upper(n) for n in range(1, 9)]
    assert all(a >= b - 1e-15 for a, b in zip(uppers, uppers[1:]))
    assert all(t.ratio(n) <= t.upper(n) * len(t.balls) for n in range(1, 9))


def test_csv_format(S_f2):
    table = ball_sizes(S_f2, 3)
    lines = table.to_csv().splitlines()
    assert lines[0] == f"# loxgrow {__version__}"
    assert lines[1] == "n,ball,sphere,upper_bound,ratio_estimate"
    assert lines[2] == "0,1,1,,"
    assert lines[3] == f"1,5,4,{format(math.log(5), '.9g')},{format(math.log(5), '.9g')}"
    assert table.to_csv().endswith("\n")
    assert len(lines) == 6


def test_growth_brackets_and_fit(S_f2):
    table = ball_sizes(S_f2, 10)
    br = growth_brackets(table)
    assert br.omega_upper == table.upper(10)
    assert br.omega_hat == pytest.approx(math.log(3), abs=1e-4)
    with pytest.raises(ConfigError):
        growth_brackets(ball_sizes(S_f2, 1))


def _theta(table, S):
    # omega_hat normalized by log #S; free groups on #S/2 letters approach 1
    return growth_brackets(table).omega_hat / math.log(len(S))


def test_theta_ratio_f2(S_f2):
    table = ball_sizes(S_f2, 10)
    theta = _theta(table, S_f2)
    assert theta == pytest.approx(math.log(3) / math.log(4), abs=1e-4)


def test_theta_ratio_cyclic_shrinks():
    z = FreeGroupTree(1, letters="t")
    S = make_generating_set(z, ["t"])
    thetas = [_theta(ball_sizes(S, n), S) for n in (10, 25, 50)]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    assert thetas[-1] < 0.03


def test_big_matrix_entries_count_exactly(hp):
    # products of these matrices pass 2**63 by radius 4; Python ints stay exact
    big = 10**6
    S = make_generating_set(hp, [[[1, big], [0, 1]], [[1, 0], [big, 1]]])
    table = ball_sizes(S, 6)
    assert table.balls == [f2_closed_form(n) for n in range(7)]
    assert table.engine == "generic"


def _counting_round(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return round(*args)

    monkeypatch.setattr(half_plane, "round", counted, raising=False)
    return calls


def test_integer_valued_float_balls_round_nothing(monkeypatch, hpf):
    # every entry of an integer-valued float ball is its own key
    S = make_generating_set(hpf, [[[float(v) for v in row] for row in m] for m in SANOV])
    calls = _counting_round(monkeypatch)
    table = ball_sizes(S, 6)
    assert table.balls == [f2_closed_form(n) for n in range(7)]
    assert calls == []


def test_dyadic_float_balls_round_nothing(monkeypatch, hpf):
    # the Lyndon-Ullman group for mu = 1/2 has no integer form, but its
    # entries keep at most 9 fractional bits through radius 8, so no key
    # rounds; the counts are the ones that rounding every entry gives
    S = make_generating_set(hpf, [[[1, 0.5], [0, 1]], [[1, 0], [0.5, 1]]])
    calls = _counting_round(monkeypatch)
    table = ball_sizes(S, 8)
    assert table.balls == [1, 5, 17, 53, 161, 465, 1290, 3514, 9382]
    assert calls == []


def test_float_generator_near_the_identity_is_kept():
    # [[1, 1e-10], [0, 1]] lies within 1e-9 of the identity, but it loads
    # exactly, as a parabolic of its own that generates Z
    S = make_generating_set(HalfPlane(arithmetic="float"), [[[1.0, 1e-10], [0.0, 1.0]]])
    assert len(S) == 2
    assert ball_sizes(S, 4).balls == [1, 3, 5, 7, 9]


def _fraction_balls(mats, n_max):
    """Ball sizes 0..n_max of the group that the 2x2 matrices ``mats`` and
    their inverses generate, walked breadth-first over Fraction matrices,
    each scaled so that its first nonzero entry is 1."""
    def scaled(m):
        lead = next(v for v in m if v)
        return tuple(v / lead for v in m)

    gens = [scaled(tuple(Fraction(v) for row in m for v in row)) for m in mats]
    gens += [scaled((d, -b, -c, a)) for a, b, c, d in gens]
    one = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    seen, frontier, balls = {one}, [one], [1]
    for _ in range(n_max):
        sphere = []
        for a1, b1, c1, d1 in frontier:
            for a2, b2, c2, d2 in gens:
                m = scaled((a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2))
                if m not in seen:
                    seen.add(m)
                    sphere.append(m)
        balls.append(balls[-1] + len(sphere))
        frontier = sphere
    return balls


@pytest.mark.parametrize("name", sorted(NON_INTEGER_FLOAT_SETS))
def test_non_integer_float_balls_match_the_rational_walk(name):
    # the float spelling loads each float as the binary rational it is, so
    # its counts are those of the rational matrices; for Sanov's conjugate
    # that is not 2 * 3^n - 1 by assumption: the rational walk decides
    mats = NON_INTEGER_FLOAT_SETS[name]
    S = make_generating_set(HalfPlane(arithmetic="float"), mats)
    assert ball_sizes(S, 7).balls == _fraction_balls(mats, 7)


def test_table_validation():
    with pytest.raises(ValueError):
        GrowthTable([2, 4])
    table = GrowthTable([1, 5])
    assert table.upper(0) is None and table.ratio(0) is None
    assert table.sphere(1) == 4 and table.n_max == 1


def test_bad_arguments(S_f2):
    with pytest.raises(ConfigError):
        ball_sizes(S_f2, -1)
    with pytest.raises(ConfigError):
        ball_sizes(S_f2, 3, memory_cap=0)
