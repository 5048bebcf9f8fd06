"""Ball counting, growth brackets, theta ratios."""

import math
import os
import sys

import pytest

from loxgrow import __version__
from loxgrow.errors import ConfigError
from loxgrow.growth import (
    GrowthTable,
    _engine_py,
    ball_sizes,
    growth_brackets,
    theta_ratio,
)
from loxgrow.growth.table import HEURISTIC_NOTE
from loxgrow.spaces import FreeGroupTree, HalfPlane, half_plane
from loxgrow.words import make_generating_set, product_ball_set

from conftest import SANOV

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from gate import read_csv_balls  # noqa: E402

PSL_TREE_BALLS = [1, 4, 8, 14, 22, 34, 50, 74, 106]


def f2_closed_form(n):
    return 2 * 3**n - 1


def test_f2_closed_form_all_engines(S_f2):
    table = ball_sizes(S_f2, 9)
    assert table.balls == [f2_closed_form(n) for n in range(10)]
    assert not table.truncated
    assert table.engine == "python"


def test_each_encoding_calls_its_engine_counter_once(monkeypatch, S_f2, S_pt, S_sanov, hpf):
    # ball_sizes looks the counters up on _engine_py, so wrapping them there
    # sees every call (perfbench's growth spans rely on this)
    calls = []

    def counted(name, orig):
        def wrapper(*args):
            calls.append(name)
            return orig(*args)

        return wrapper

    S_float = make_generating_set(hpf, [[[float(v) for v in row] for row in g] for g in SANOV])
    cases = [
        (S_f2, "free_ball_counts", "python"),
        (S_pt, "product_ball_counts", "python"),
        (S_sanov, "matrix_ball_counts", "python"),
        (S_float, "generic_ball_counts", "generic"),
    ]
    for _, name, _ in cases:
        monkeypatch.setattr(_engine_py, name, counted(name, getattr(_engine_py, name)))
    for S, name, tag in cases:
        calls.clear()
        assert ball_sizes(S, 4).engine == tag
        assert calls == [name]


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
    assert ball_sizes(exact, 5).engine == "python"


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


def test_float_csv_carries_the_heuristic_note():
    # the float half-plane merges matrices by rounding, so its table says so
    # in one comment line after the version; the rows and every exact CSV
    # stay as they were, and the benchmark gate's reader skips the note
    exact = ball_sizes(make_generating_set(HalfPlane(), SANOV), 4)
    floated = ball_sizes(make_generating_set(HalfPlane(arithmetic="float"), SANOV), 4)
    assert not exact.heuristic and floated.heuristic
    assert not ball_sizes(make_generating_set(FreeGroupTree(2), ["a", "b"]), 2).heuristic
    lines = floated.to_csv().splitlines()
    assert lines[:2] == [f"# loxgrow {__version__}", HEURISTIC_NOTE]
    assert HEURISTIC_NOTE.startswith("# ") and "9 decimals" in HEURISTIC_NOTE
    assert [lines[0]] + lines[2:] == exact.to_csv().splitlines()
    assert read_csv_balls(floated.to_csv()) == floated.balls == exact.balls


def test_growth_brackets_and_fit(S_f2):
    table = ball_sizes(S_f2, 10)
    br = growth_brackets(table)
    assert br.omega_upper == table.upper(10)
    assert br.omega_hat == pytest.approx(math.log(3), abs=1e-4)
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


def test_big_matrix_entries_count_exactly(hp):
    # products of these matrices pass 2**63 by radius 4; Python ints stay exact
    big = 10**6
    S = make_generating_set(hp, [[[1, big], [0, 1]], [[1, 0], [big, 1]]])
    table = ball_sizes(S, 6)
    assert table.balls == [f2_closed_form(n) for n in range(7)]
    assert table.engine == "python"


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


def test_non_dyadic_float_balls_still_round(monkeypatch, hpf):
    # Sanov conjugated by diag(1.1, 1/1.1): entries that are not dyadic go
    # through round(), and the counts stay the free group's
    t2 = 1.1 * 1.1
    S = make_generating_set(hpf, [[[a, b * t2], [c / t2, d]] for (a, b), (c, d) in SANOV])
    calls = _counting_round(monkeypatch)
    table = ball_sizes(S, 6)
    assert table.balls == [1, 5, 17, 53, 161, 485, 1457]
    assert len(calls) > 0


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
