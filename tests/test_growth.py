"""Ball counting across engines, growth brackets, theta ratios."""

import math
import statistics

import pytest

from loxgrow import __version__
from loxgrow.errors import ConfigError
from loxgrow.growth import (
    KERNEL_AVAILABLE,
    GrowthTable,
    ball_sizes,
    growth_brackets,
    theta_ratio,
)
from loxgrow.spaces import FreeGroupTree, HalfPlane
from loxgrow.words import make_generating_set, product_ball_set

from conftest import SANOV

PSL_TREE_BALLS = [1, 4, 8, 14, 22, 34, 50, 74, 106]


def f2_closed_form(n):
    return 2 * 3**n - 1


def test_f2_closed_form_all_engines(S_f2):
    engines = ["python"] + (["kernel"] if KERNEL_AVAILABLE else [])
    for engine in engines:
        table = ball_sizes(S_f2, 9, engine=engine)
        assert table.balls == [f2_closed_form(n) for n in range(10)]
        assert not table.truncated
        assert table.engine == engine
    auto = ball_sizes(S_f2, 9)
    assert auto.balls == [f2_closed_form(n) for n in range(10)]


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
    with pytest.raises(ConfigError):
        ball_sizes(S, 5, engine="kernel")
    assert ball_sizes(exact, 5).balls == ball_sizes(exact, 5, engine="python").balls


def test_truncation_consistent_across_engines(S_f2, S_sanov, hpf):
    tables = [ball_sizes(S_f2, 10, memory_cap=200, engine="python")]
    if KERNEL_AVAILABLE:
        tables.append(ball_sizes(S_f2, 10, memory_cap=200, engine="kernel"))
    for table in tables:
        assert table.truncated
        assert table.balls == [f2_closed_form(n) for n in range(len(table.balls))]
    assert len({tuple(t.balls) for t in tables}) == 1

    # the generic float path truncates exactly like the exact encodings,
    # including caps that fall inside a sphere (53 < 100 < 161) and on its end
    S_float = make_generating_set(hpf, [[[float(v) for v in row] for row in g] for g in SANOV])
    for cap in (1, 4, 5, 100, 161, 162, 1000):
        exact = ball_sizes(S_sanov, 8, memory_cap=cap, engine="python")
        approx = ball_sizes(S_float, 8, memory_cap=cap)
        assert approx.engine == "generic"
        assert (approx.balls, approx.truncated) == (exact.balls, exact.truncated)
        assert exact.truncated == (cap < f2_closed_form(8))
        assert exact.balls == [f2_closed_form(n) for n in range(len(exact.balls))]
        assert exact.balls[-1] <= cap


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
    br = growth_brackets(table, fit=True)
    assert br.omega_upper == table.upper(10)
    assert br.omega_hat == pytest.approx(math.log(3), abs=1e-4)
    xs = list(range(5, 11))
    ys = [math.log(table.balls[m]) for m in xs]
    assert br.omega_fit == pytest.approx(statistics.linear_regression(xs, ys).slope)
    assert abs(br.omega_fit - math.log(3)) < 1e-3
    with pytest.raises(ConfigError):
        growth_brackets(ball_sizes(S_f2, 1))


def test_theta_ratio_f2(S_f2):
    table = ball_sizes(S_f2, 10)
    theta = theta_ratio(table, S_f2)
    assert theta == pytest.approx(math.log(3) / math.log(4), abs=1e-4)


def test_theta_ratio_cyclic_shrinks():
    z = FreeGroupTree(1, letters="t")
    S = make_generating_set(z, ["t"])
    thetas = [theta_ratio(ball_sizes(S, n), S) for n in (10, 25, 50)]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    assert thetas[-1] < 0.03


def test_kernel_overflow_falls_back(hp):
    big = 10**6
    S = make_generating_set(hp, [[[1, big], [0, 1]], [[1, 0], [big, 1]]])
    auto = ball_sizes(S, 6)
    py = ball_sizes(S, 6, engine="python")
    assert auto.balls == py.balls == [f2_closed_form(n) for n in range(7)]
    if KERNEL_AVAILABLE:
        assert auto.engine == "python"
        with pytest.raises(OverflowError):
            ball_sizes(S, 6, engine="kernel")


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
        ball_sizes(S_f2, 3, engine="rust")
    with pytest.raises(ConfigError):
        ball_sizes(S_f2, 3, memory_cap=0)
