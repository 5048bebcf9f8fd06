"""End-to-end command tests through cli.main(argv)."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import loxgrow
from loxgrow import __version__
from loxgrow.cli import main
from loxgrow.errors import ConfigError
from loxgrow.freebasis import backend_hash
from loxgrow.growth.table import CSV_HEADER, GrowthTable
from loxgrow.spaces import make_backend
from loxgrow.words import make_generating_set

from conftest import NON_INTEGER_FLOAT_SETS, PSL2Z_ELLIPTIC, SANOV, reference_spheres

F2_BACKEND = {"kind": "free_group_tree", "rank": 2, "letters": "xy"}


@pytest.fixture
def write_config(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def f2_config(write_config):
    return write_config("f2.json", {
        "backend": F2_BACKEND,
        "generators": ["x", "y"],
        "budgets": {"n_max": 5},
    })


def test_growth_csv_frozen(f2_config, capsys):
    assert main(["growth", f2_config, "--max-radius", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == f"# loxgrow {__version__}"
    assert lines[1] == "n,ball,sphere,upper_bound,ratio_estimate"
    assert [l.split(",")[:3] for l in lines[2:]] == [
        ["0", "1", "1"],
        ["1", "5", "4"],
        ["2", "17", "12"],
        ["3", "53", "36"],
    ]


def test_growth_out_file(f2_config, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["growth", f2_config, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 6  # header rows + radii 0..5
    assert lines[-1].startswith("5,485,")


def test_growth_deterministic_across_reruns_and_engines(f2_config, capsys):
    main(["growth", f2_config])
    base = capsys.readouterr().out
    main(["growth", f2_config])
    assert capsys.readouterr().out == base
    main(["growth", f2_config, "--engine", "python"])
    assert capsys.readouterr().out == base


def test_growth_truncation_exit(write_config, capsys):
    cfg = write_config("trunc.json", {
        "backend": F2_BACKEND,
        "generators": ["x", "y"],
        "budgets": {"n_max": 10, "memory_cap": 100},
    })
    assert main(["growth", cfg]) == 3
    captured = capsys.readouterr()
    assert "truncated" in captured.err
    # the completed radii are still emitted
    rows = captured.out.splitlines()[2:]
    assert rows[0] == "0,1,1,,"
    assert all(int(r.split(",")[1]) <= 101 for r in rows)


@pytest.mark.parametrize("backend, generators, cap", [
    (F2_BACKEND, ["x", "y"], 1000),
    ({"kind": "free_product_tree", "orders": [2, 3]}, ["a", "b"], 200),
])
def test_growth_truncated_past_radius_two(write_config, backend, generators, cap, capsys):
    # the walk stops deduplicating after sphere 2, and the cap still cuts
    # the growth table where the deduplicating walk cut it
    cfg = write_config("trunc.json", {
        "backend": backend, "generators": generators,
        "budgets": {"n_max": 12, "memory_cap": cap},
    })
    S = make_generating_set(make_backend(backend), generators)
    balls = [1]
    for sphere, _, _ in reference_spheres(S.backend._identity_canonical(),
                                          [g.canonical for g in S], S.backend._compose, cap):
        balls.append(balls[-1] + len(sphere))
    assert len(balls) > 4 and balls[-1] == cap + 1
    assert main(["growth", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == GrowthTable(balls[:-1], truncated=True).to_csv()
    assert captured.err == f"growth table truncated at radius {len(balls) - 2}\n"


def test_growth_truncated_at_the_default_cap(write_config, capsys):
    # ball 13 of F2 (4,782,968 elements) passes the default memory_cap of
    # 2,000,000, so the table stops at radius 12, counted without a walk
    cfg = write_config("f2.json", {
        "backend": F2_BACKEND, "generators": ["x", "y"], "budgets": {"n_max": 14},
    })
    assert main(["growth", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == "growth table truncated at radius 12\n"
    assert captured.out.splitlines()[-1].startswith("12,1062881,708588,")
    assert captured.out == GrowthTable([2 * 3**n - 1 for n in range(13)],
                                       truncated=True).to_csv()


def test_verify_bound_truncation_exits_three(write_config, f2_config, tmp_path, capsys):
    # the growth table stops at radius 3 of the requested 10: the report is
    # still written, and the exit code says the budget ran out
    cfg = write_config("trunc.json", {
        "backend": F2_BACKEND,
        "generators": ["x", "y"],
        "budgets": {"n_max": 10, "memory_cap": 100},
    })
    out = tmp_path / "trunc.out.json"
    assert main(["verify-bound", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "growth table truncated at radius 3\n"
    rep = json.loads(out.read_text())
    assert main(["verify-bound", f2_config, "--max-radius", "3"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert rep.keys() == full.keys()
    assert (rep["omega_upper"], rep["omega_hat"]) == (full["omega_upper"], full["omega_hat"])
    assert rep["elementary"] is None and rep["certificate"] is not None


def test_verify_bound_truncated_below_radius_two_exits_three(write_config, capsys):
    # radius 2 of the elliptic set holds 8 elements, past a cap of 7
    cfg = write_config("tight.json", {
        "backend": {"kind": "half_plane"},
        "generators": PSL2Z_ELLIPTIC,
        "budgets": {"memory_cap": 7},
    })
    assert main(["verify-bound", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: growth table truncated at radius 1")


def test_bad_inputs_exit_four(write_config, tmp_path, capsys):
    good = {"backend": F2_BACKEND, "generators": ["x"]}
    unknown_top = write_config("a.json", {**good, "extra": 1})
    unknown_budget = write_config("b.json", {**good, "budgets": {"fuel": 3}})
    bad_budget = write_config("c.json", {**good, "budgets": {"n_max": 0}})
    not_json = tmp_path / "d.json"
    not_json.write_text("{nope", encoding="utf-8")

    assert main(["growth", unknown_top]) == 4
    assert main(["growth", unknown_budget]) == 4
    assert main(["growth", bad_budget]) == 4
    assert main(["growth", str(not_json)]) == 4
    assert main(["growth", str(tmp_path / "missing.json")]) == 4
    capsys.readouterr()


def test_usage_error_exits_four_not_two(capsys):
    assert main(["no-such-command"]) == 4
    assert "error" in capsys.readouterr().err


def test_classify_psl2z(write_config, capsys):
    cfg = write_config("cls.json", {
        "backend": {"kind": "half_plane"},
        "generators": PSL2Z_ELLIPTIC + [[[1, 1], [0, 1]], [[2, 1], [3, 2]]],
    })
    assert main(["classify", cfg]) == 0
    rows = json.loads(capsys.readouterr().out)["elements"]
    kinds = [r["kind"] for r in rows]
    assert kinds == ["elliptic", "elliptic", "elliptic", "parabolic", "loxodromic"]
    assert rows[3]["translation_length"] == 0.0
    assert rows[4]["translation_length"] == pytest.approx(2.0 * math.acosh(2.0))


@pytest.mark.parametrize("matrix", [[["1", True], [0.0, 1.0]], [[True, 0.0], [0.0, 1.0]]])
def test_float_matrix_entries_must_be_numbers(write_config, capsys, matrix):
    # float() would read the first as the parabolic [[1, 1], [0, 1]], the
    # second as the identity
    cfg = write_config("cls.json", {
        "backend": {"kind": "half_plane", "arithmetic": "float"},
        "generators": [matrix],
    })
    assert main(["classify", cfg]) == 4
    assert "float arithmetic needs number entries" in capsys.readouterr().err


def test_delta_half_plane(write_config, capsys):
    cfg = write_config("delta.json", {"backend": {"kind": "half_plane"}, "seed": 0})
    assert main(["delta", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_configured"] == 1.0
    assert 0.0 < payload["delta_empirical"] <= 1.0
    assert payload["samples"] == 1000


@pytest.mark.parametrize("kind", ["free_group_tree", "free_product_tree"])
def test_delta_on_a_tree_reports_zero_configured(write_config, capsys, kind):
    # a tree is 0-hyperbolic and takes no delta key; the command reports 0
    cfg = write_config("delta.json", {"backend": _SHAPE_CONFIGS[kind]["backend"], "seed": 0})
    assert main(["delta", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_configured"] == 0.0 and type(payload["delta_configured"]) is float
    assert payload["delta_empirical"] == 0.0 and "delta" not in payload["backend"]


def test_free_basis_check_cert_round_trip(f2_config, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["free-basis", f2_config, "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    assert payload["format"] == "loxgrow-cert/2"
    assert payload["kappa"] == 11
    assert payload["r"] == 4
    assert main(["check-cert", str(cert_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["valid"] is True
    assert result["omega_lower"] == pytest.approx(math.log(7) / 11)


def test_check_cert_tamper_exits_five(f2_config, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    main(["free-basis", f2_config, "--out", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    payload["kappa"] = payload["kappa"] + 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["check-cert", str(bad)]) == 5
    assert "kappa mismatch" in capsys.readouterr().err
    assert main(["check-cert", str(tmp_path / "nowhere.json")]) == 4


def test_check_cert_rejects_an_empty_basis(f2_config, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["free-basis", f2_config, "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({**payload, "r": 0, "T": []}), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-cert", str(empty)]) == 5
    assert "rank 0: the bound needs a free basis of rank r >= 2" in capsys.readouterr().err


def test_check_cert_rejects_a_rank_one_basis(f2_config, tmp_path, capsys):
    # one T entry passes every other check, but log(2r - 1) = 0 bounds nothing
    cert_path = tmp_path / "cert.json"
    assert main(["free-basis", f2_config, "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    one = tmp_path / "one.json"
    t = payload["T"][0]
    one.write_text(json.dumps({**payload, "r": 1, "T": [t], "kappa": len(t["symbols"]),
                               "omega_lower": 0.0}), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-cert", str(one)]) == 5
    assert "rank 1: the bound needs a free basis of rank r >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("kind, edit, message", [
    # a mode on the other backend kind
    ("half_plane", {"mode": "geometric"}, "whose certificates have mode 'ping-pong'"),
    ("free_group_tree", {"mode": "ping-pong"}, "whose certificates have mode 'geometric'"),
    ("half_plane", {"mode": "geometric", "basepoint": [0.0, 1.0], "m": 1.0, "p_max": 0.0,
                    "margin": 0.0}, "whose certificates have mode 'ping-pong'"),
    # evidence keys that do not match the mode
    ("half_plane", {"basepoint": [0.0, 1.0]}, "this certificate ['basepoint']"),
    ("half_plane", {"m": 1.0, "p_max": 0.0, "margin": 0.0}, "this certificate ['m'"),
    ("free_group_tree", {"margin": None}, "this certificate ['basepoint', 'm', 'p_max']"),
    ("free_product_tree", {"basepoint": None, "m": None}, "this certificate ['p_max'"),
], ids=["plane-geometric", "tree-ping-pong", "plane-geometric-evidence", "plane-basepoint",
        "plane-margins", "tree-no-margin", "tree-no-basepoint"])
def test_check_cert_refuses_a_mode_or_evidence_of_the_other_kind(shape_certs, tmp_path, capsys,
                                                                  kind, edit, message):
    # None drops the key
    payload = dict(shape_certs[kind], **edit)
    payload = {key: value for key, value in payload.items() if value is not None}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-cert", str(bad)]) == 5
    assert message in capsys.readouterr().err


def test_check_cert_refuses_a_plane_T_that_is_not_free(shape_certs, tmp_path, capsys):
    # T's second entry swapped for the square of its first, with its word,
    # kappa and omega_lower to match: every check but the ping-pong passes
    payload = json.loads(json.dumps(shape_certs["half_plane"]))
    backend = make_backend(payload["backend"])
    t = payload["T"][0]
    square = backend._compose(tuple(t["canonical"]), tuple(t["canonical"]))
    payload["T"][1] = {"word": t["word"] * 2, "canonical": list(square),
                       "symbols": t["symbols"] * 2}
    kappa = max(len(e["symbols"]) for e in payload["T"])
    payload.update(kappa=kappa, omega_lower=math.log(2 * payload["r"] - 1) / kappa)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-cert", str(bad)]) == 5
    assert "fail the integer ping-pong test" in capsys.readouterr().err


def test_plane_certificates_hold_no_float_but_omega_lower(shape_certs):
    # beside the backend config (its delta, which the checker does not read)
    def floats(node, path=()):
        if isinstance(node, float):
            yield path
        elif isinstance(node, dict):
            for key, value in node.items():
                yield from floats(value, path + (key,))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from floats(value, path + (i,))

    payload = shape_certs["half_plane"]
    assert payload["mode"] == "ping-pong"
    assert sorted(floats(payload)) == [("backend", "delta"), ("omega_lower",)]


@pytest.mark.parametrize("target, value, message", [
    ("b", [[2, 1], [1, 1]], "non-normal syllable word"),
    ("b", [[-1, 1], [1, 1]], "non-normal syllable word"),
    ("b", [[0, 1], [1, 0]], "non-normal syllable word"),
    ("b", [[0, 1], [1, 3]], "non-normal syllable word"),
    ("b", [[0, 1], [0, 1]], "non-normal syllable word"),
    ("basepoint", [[[2, 1]], 0], "invalid coset representative"),
    ("basepoint", [[[-1, 1]], 0], "invalid coset representative"),
    ("basepoint", [[[1, 1], [1, 2]], 0], "invalid coset representative"),
])
def test_check_cert_rejects_bad_syllables_exits_five(write_config, tmp_path, capsys,
                                                     target, value, message):
    # factors outside {0, 1} (negative ones included), exps outside
    # 1 .. order - 1 and syllables of one factor side by side, in the
    # stored S entry of the generator b or in the basepoint
    cfg = write_config("c2c3.json", {
        "backend": {"kind": "free_product_tree", "orders": [2, 3]},
        "generators": ["a", "b"],
        "budgets": {"n_max": 4},
    })
    cert_path = tmp_path / "cert.json"
    assert main(["free-basis", cfg, "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    if target == "b":
        next(s for s in payload["S"] if s["word"] == "b")["canonical"] = value
    else:
        payload["basepoint"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-cert", str(bad)]) == 5
    assert message in capsys.readouterr().err


_SHAPE_CONFIGS = {
    "free_group_tree": {"backend": F2_BACKEND, "generators": ["x", "y"],
                        "budgets": {"n_max": 5}},
    "free_product_tree": {"backend": {"kind": "free_product_tree", "orders": [2, 3]},
                          "generators": ["a", "b"], "budgets": {"n_max": 4}},
    "half_plane": {"backend": {"kind": "half_plane"}, "generators": SANOV,
                   "budgets": {"n_max": 4, "memory_cap": 50000}},
}


@pytest.fixture(scope="module")
def shape_certs(tmp_path_factory):
    # one honest certificate per backend kind, tampered per test
    out = {}
    for kind, config in _SHAPE_CONFIGS.items():
        base = tmp_path_factory.mktemp(kind)
        cfg = base / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["free-basis", str(cfg), "--out", str(base / "cert.json")]) == 0
        out[kind] = json.loads((base / "cert.json").read_text())
    return out


_DROP = object()


@pytest.mark.parametrize("kind, path, value", [
    ("free_group_tree", ("T", 0, "canonical"), 5),
    ("free_group_tree", ("T", 0, "canonical"), [[1]]),
    ("free_group_tree", ("T", 0, "canonical"), ["x"]),
    ("free_group_tree", ("T", 0, "canonical"), [1.5]),
    ("free_group_tree", ("basepoint",), [None]),
    ("free_group_tree", ("T", 0), 5),
    ("free_group_tree", ("T", 0), {"word": "x"}),
    ("free_product_tree", ("T", 0, "canonical"), [[0, 1, 2]]),
    ("free_product_tree", ("T", 0, "canonical"), [[0]]),
    ("free_product_tree", ("T", 0, "canonical"), [["x", 1]]),
    ("free_product_tree", ("T", 0, "canonical"), 5),
    ("free_product_tree", ("T", 0, "canonical"), [[True, 1]]),
    ("free_product_tree", ("basepoint",), [[[0, 1]]]),
    ("free_product_tree", ("basepoint",), 7),
    ("free_product_tree", ("basepoint",), [[[0, 1]], "1"]),
    ("free_product_tree", ("basepoint",), _DROP),
    ("free_product_tree", ("T", 0, "symbols"), [["a"]]),
    ("free_product_tree", ("T", 0, "symbols"), [[1, 1]]),
    ("half_plane", ("T", 0, "canonical"), 5),
    ("half_plane", ("T", 0, "canonical"), [[1, 2], [0, 1]]),
    ("half_plane", ("T", 0, "canonical"), ["1", 2, 0, 1]),
    ("half_plane", ("T", 0, "canonical"), [1.0, 2, 0, 1]),
    ("half_plane", ("T", 0, "canonical"), [2, 2, 0, 1]),
    ("half_plane", ("T", 0, "canonical"), [None, 2, 0, 1]),
    ("half_plane", ("basepoint",), [0.0]),
    ("half_plane", ("basepoint",), ["0", 1.0]),
    ("half_plane", ("basepoint",), [0.0, 10**400]),
    ("half_plane", ("T", 0, "symbols"), 5),
    ("half_plane", ("S",), 5),
    ("half_plane", ("n",), "x"),
    ("half_plane", ("n",), 1.5),
    ("half_plane", ("n",), float),
    # a half-plane certificate stores no m: its one float is omega_lower
    ("half_plane", ("omega_lower",), str),
    ("half_plane", ("T",), _DROP),
    ("free_group_tree", ("kappa",), str),
    ("free_group_tree", ("escalation_rounds",), True),
    ("free_group_tree", ("mode",), 5),
    ("free_product_tree", ("membership_heuristic",), "false"),
    ("free_product_tree", ("membership_heuristic",), 0),
    # json reads NaN and Infinity; NaN compares false with any tolerance
    ("free_group_tree", ("m",), math.nan),
    ("free_group_tree", ("p_max",), math.nan),
    ("free_group_tree", ("margin",), math.nan),
])
def test_check_cert_shape_errors_exit_five(shape_certs, tmp_path, capsys, kind, path, value):
    # a field of the wrong shape or type, or a missing one, makes an invalid
    # certificate, not a traceback; a retyped value is refused even where
    # int(), float() or bool() would give back the stored one
    payload = json.loads(json.dumps(shape_certs[kind]))
    *parents, last = path
    node = payload
    for field in parents:
        node = node[field]
    if value is _DROP:
        del node[last]
    elif callable(value):
        # the stored value retyped: float 4.0 for 4, "0.25" for 0.25
        node[last] = value(node[last])
    else:
        node[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-cert", str(bad)]) == 5
    assert "invalid certificate" in capsys.readouterr().err


# torsion_bound, and delta on a tree, are no backend keys: whatever the
# value, they exit 4 as unknown keys, as in
# test_torsion_bound_is_an_unknown_backend_key; the half-plane's delta
# entries test the type rule
_BAD_BACKEND_FIELDS = [
    ("half_plane", "delta", "x"),
    ("half_plane", "torsion_bound", "x"),
    ("free_product_tree", "orders", 5),
    ("free_group_tree", "rank", 2.5),
    ("free_group_tree", "kind", []),
    # values that int() or float() would turn into a valid parameter
    ("half_plane", "torsion_bound", 2.7),
    ("half_plane", "torsion_bound", True),
    ("half_plane", "delta", "1.5"),
    ("half_plane", "delta", True),
    ("free_group_tree", "rank", True),
    ("free_group_tree", "rank", 2.0),
    ("free_group_tree", "delta", False),
    ("free_group_tree", "letters", ["x", "y"]),
    ("free_product_tree", "orders", [2.0, 3]),
    ("free_product_tree", "orders", [2, True]),
    ("free_product_tree", "torsion_bound", 1.0),
    ("half_plane", "delta", math.nan),
    ("free_group_tree", "delta", math.inf),
    ("half_plane", "delta", False),
    ("half_plane", "delta", math.inf),
]


@pytest.mark.parametrize("kind, field, value", _BAD_BACKEND_FIELDS)
def test_check_cert_unbuildable_backend_exits_four(shape_certs, tmp_path, capsys,
                                                   kind, field, value):
    # a stored backend config of the wrong type is a config error, as in a
    # run config, even when its hash matches
    payload = json.loads(json.dumps(shape_certs[kind]))
    payload["backend"][field] = value
    payload["backend_hash"] = backend_hash(payload["backend"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-cert", str(bad)]) == 4
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("kind, field, value", _BAD_BACKEND_FIELDS)
def test_unbuildable_backend_in_a_run_config_exits_four(write_config, capsys,
                                                        kind, field, value):
    backend = dict(_SHAPE_CONFIGS[kind]["backend"])
    backend[field] = value
    cfg = write_config("bad.json", {**_SHAPE_CONFIGS[kind], "backend": backend})
    assert main(["growth", cfg]) == 4
    assert "error" in capsys.readouterr().err


def test_rank_true_is_not_rank_one(write_config, capsys):
    # with default letters, rank true used to build a rank-1 tree whose
    # config still said rank: true
    cfg = write_config("bad.json", {"backend": {"kind": "free_group_tree", "rank": True},
                                    "generators": ["a"]})
    assert main(["growth", cfg]) == 4
    assert "rank must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("backend", [{"kind": "free_group_tree", "rank": 2},
                                     {"kind": "free_product_tree", "orders": [2, 3]}])
@pytest.mark.parametrize("generators", [[1, "a"], [None], [["a"], "b"]])
def test_tree_generators_must_be_word_strings(write_config, capsys, backend, generators):
    # an int or null used to end in a TypeError (exit 1), and ["a"] was read
    # as the word "a" under the label g0
    cfg = write_config("bad.json", {"backend": backend, "generators": generators})
    for command in ("growth", "classify"):
        assert main([command, cfg]) == 4
        err = capsys.readouterr().err
        assert "generator must be a string" in err and "Traceback" not in err


def _lowercase_letters(count):
    return "".join([c for c in map(chr, range(ord("a"), 0x3000))
                    if c.isalpha() and c.islower() and len(c.upper()) == 1
                    and c.upper().isupper() and c.upper().lower() == c][:count])


def test_free_group_rank_stops_at_128(write_config, capsys):
    # two codes per generator in one byte; rank 129 used to load and then
    # fail in the ball count with a ValueError (exit 1)
    letters = _lowercase_letters(129)
    cfg = write_config("r129.json", {
        "backend": {"kind": "free_group_tree", "rank": 129, "letters": letters},
        "generators": [letters[0]],
    })
    assert main(["growth", cfg]) == 4
    assert "ranks above 128" in capsys.readouterr().err
    cfg = write_config("r128.json", {
        "backend": {"kind": "free_group_tree", "rank": 128, "letters": letters[:128]},
        "generators": list(letters[:128]),
        "budgets": {"n_max": 2},
    })
    assert main(["growth", cfg]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [int(row.split(",")[1]) for row in rows] == [1, 1 + 256, 1 + 256 + 256 * 255]


@pytest.mark.parametrize("letter", ["ß", "ı", "ª"])
def test_free_group_letters_need_an_uppercase_that_reads_back(letter, write_config, capsys):
    # ß upper-cases to "SS", which would read back as s^-1 s^-1; the dotless
    # ı to "I", which reads back as i^-1; ª to itself, which reads back as ª
    with pytest.raises(ConfigError, match="uppercase"):
        make_backend({"kind": "free_group_tree", "rank": 2, "letters": "s" + letter})
    cfg = write_config("letters.json", {
        "backend": {"kind": "free_group_tree", "rank": 2, "letters": "s" + letter},
        "generators": ["s", letter],
    })
    assert main(["growth", cfg]) == 4
    assert repr(letter) in capsys.readouterr().err


def test_nan_delta_exits_four_before_any_search(write_config, capsys):
    # a NaN delta fails every loxodromic test, so escalation would square
    # the ball until the memory cap
    cfg = write_config("nan.json", {
        "backend": {"kind": "half_plane", "arithmetic": "float", "delta": math.nan},
        "generators": [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]],
        "budgets": {"n_max": 4, "memory_cap": 1000},
    })
    assert main(["verify-bound", cfg]) == 4
    assert "delta must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("kind, field, value", [
    ("half_plane", "delta", 1),
    # the delta of the benchmark's elliptic config, read by this command only
    ("half_plane", "delta", 0.7),
])
def test_int_and_float_backend_parameters_still_run(write_config, capsys, kind, field, value):
    # delta takes an int or a float and is reported as a float
    backend = dict(_SHAPE_CONFIGS[kind]["backend"])
    backend[field] = value
    cfg = write_config("ok.json", {**_SHAPE_CONFIGS[kind], "backend": backend})
    assert main(["delta", cfg]) == 0
    reported = json.loads(capsys.readouterr().out)["backend"][field]
    assert reported == value and type(reported) is type(float(value) if field == "delta" else value)


@pytest.mark.parametrize("kind", sorted(_SHAPE_CONFIGS))
def test_torsion_bound_is_an_unknown_backend_key(write_config, capsys, kind):
    # the keys were read by nothing, or by a margin that a 0-hyperbolic
    # tree does not need; a config that sets one now exits 4
    for key in ["torsion_bound"] + (["delta"] if kind != "half_plane" else []):
        backend = dict(_SHAPE_CONFIGS[kind]["backend"], **{key: 1})
        cfg = write_config("old.json", {**_SHAPE_CONFIGS[kind], "backend": backend})
        assert main(["growth", cfg]) == 4
        assert f"unknown backend keys for {kind}: ['{key}']" in capsys.readouterr().err
        assert key not in make_backend(_SHAPE_CONFIGS[kind]["backend"]).config()


def test_check_cert_refuses_a_tree_certificate_that_stores_a_delta(tmp_path, capsys):
    # T = {a, a^2} in Z = F1 has m 1 and p_max 1. A stored delta of -2 used
    # to enter the margin, 1/8 + 1 - 1 = 0.125, and the certificate checked
    # valid for omega >= log 3 / 2, where the true rate is 0. A tree takes
    # no delta, so the stored config is refused as unbuildable.
    backend = {"kind": "free_group_tree", "rank": 1, "letters": "a", "delta": -2.0}
    a = {"canonical": [1], "symbols": [["a", 1]], "word": "a"}
    payload = {
        "format": "loxgrow-cert/2", "mode": "geometric",
        "backend": backend, "backend_hash": backend_hash(backend),
        "S": [a, {"canonical": [-1], "symbols": [["a", -1]], "word": "A"}],
        "T": [a, {"canonical": [1, 1], "symbols": [["a", 1], ["a", 1]], "word": "aa"}],
        "r": 2, "n": 1, "k": 1, "kappa": 2, "kappa_mode": "exact", "escalation_rounds": 0,
        "basepoint": [], "m": 1.0, "p_max": 1.0, "margin": 0.125,
        "omega_lower": math.log(3) / 2, "membership_heuristic": False,
    }
    path = tmp_path / "negative_delta.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-cert", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown backend keys for free_group_tree: ['delta']" in captured.err


@pytest.mark.parametrize("text", ["{nope", "[1, 2]", "5", ""])
def test_check_cert_non_object_exits_five(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["check-cert", str(bad)]) == 5
    assert "invalid certificate" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [50, 200, 1000])
def test_check_cert_accepts_certificates_built_under_a_small_cap(write_config, tmp_path,
                                                                 cap, capsys):
    # C2*C4 {a, b, bb, ab} has a two-syllable entry, so no closed form
    # spells T: under these caps the builder's walk passes memory_cap before
    # it meets any T entry, T keeps its words and kappa is 21 word-upper.
    # On C2*C7 {a, b} every entry is one syllable, and the closed form
    # spells T whatever the cap: 14 exact. The checker only evaluates the
    # words, whatever the builder's cap
    for orders, gens, pinned in [
        ([2, 4], ["a", "b", "bb", "ab"], (21, "word-upper")),
        ([2, 7], ["a", "b"], (14, "exact")),
    ]:
        cfg = write_config("cfg.json", {
            "backend": {"kind": "free_product_tree", "orders": orders},
            "generators": gens,
            "budgets": {"n_max": 4, "memory_cap": cap},
        })
        cert_path = tmp_path / "cert.json"
        assert main(["free-basis", cfg, "--out", str(cert_path)]) == 0
        payload = json.loads(cert_path.read_text())
        assert (payload["kappa"], payload["kappa_mode"]) == pinned
        capsys.readouterr()
        assert main(["check-cert", str(cert_path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["valid"], result["kappa"]) == (True, pinned[0])


def test_verify_bound_f2(f2_config, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify-bound", f2_config, "--out", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert rep["version"] == __version__
    assert rep["omega_lower"] == pytest.approx(math.log(7) / 11)
    assert rep["omega_upper"] >= rep["omega_lower"]
    assert rep["elementary"] is None
    assert rep["certificate"]["r"] == 4


def test_verify_bound_elementary_exits_two(write_config, tmp_path, capsys):
    cfg = write_config("cyc.json", {
        "backend": F2_BACKEND,
        "generators": ["x"],
        "budgets": {"n_max": 4},
    })
    out = tmp_path / "cyc.out.json"
    assert main(["verify-bound", cfg, "--out", str(out)]) == 2
    assert "elementary" in capsys.readouterr().err
    rep = json.loads(out.read_text())
    assert rep["elementary"] == "AllElementary"
    assert rep["certificate"] is None
    assert rep["omega_lower"] == 0.0


def test_free_basis_parabolic_exits_two(write_config, capsys):
    cfg = write_config("par.json", {
        "backend": {"kind": "half_plane"},
        "generators": [[[1, 1], [0, 1]]],
        "budgets": {"max_rounds": 2},
    })
    assert main(["free-basis", cfg]) == 2
    assert "elementary" in capsys.readouterr().err


def test_verify_bound_parabolic_reports_rounds(write_config, tmp_path, capsys):
    cfg = write_config("par.json", {
        "backend": {"kind": "half_plane"},
        "generators": [[[1, 1], [0, 1]]],
        "budgets": {"max_rounds": 2},
    })
    out = tmp_path / "par.json.out"
    assert main(["verify-bound", cfg, "--out", str(out)]) == 2
    assert "after 2 ball escalations" in capsys.readouterr().err
    rep = json.loads(out.read_text())
    assert rep["elementary"] == "LikelyElementary"
    assert rep["escalation_rounds"] == 2
    assert rep["certificate"] is None


def test_budget_blowup_exits_three(write_config, capsys):
    # the elliptic set needs one escalation round; radius-2 ball has 8
    # distinct products, so a cap of 7 trips during the escalation
    cfg = write_config("tight.json", {
        "backend": {"kind": "half_plane"},
        "generators": PSL2Z_ELLIPTIC,
        "budgets": {"memory_cap": 7, "max_rounds": 4},
    })
    assert main(["free-basis", cfg]) == 3
    assert "budget" in capsys.readouterr().err


def test_verify_bound_escalates_elliptic(write_config, tmp_path, capsys):
    cfg = write_config("c7.json", {
        "backend": {"kind": "half_plane"},
        "generators": PSL2Z_ELLIPTIC,
        "budgets": {"n_max": 3, "memory_cap": 50000},
    })
    out = tmp_path / "c7.json.out"
    assert main(["verify-bound", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert rep["escalation_rounds"] == 1
    assert rep["elementary"] is None
    assert 0.0 < rep["omega_lower"] <= rep["omega_upper"]
    # free-basis escalates the same way and writes the same certificate
    cert_out = tmp_path / "c7.cert.json"
    assert main(["free-basis", cfg, "--out", str(cert_out)]) == 0
    assert json.loads(cert_out.read_text()) == rep["certificate"]


@pytest.mark.parametrize("orders, search", [
    ([2, 3], {"max_n": 2, "max_k": 3}),
    ([3, 3], {"max_n": 1, "max_k": 2}),
    ([2, 7], {"max_n": 2, "max_k": 1}),
], ids=["c2c3", "c3c3", "c2c7"])
def test_no_geometric_certificate_exits_three(write_config, capsys, orders, search):
    # these budgets admit no geometrically valid (n, k); no relation of
    # bounded length would stand in for the ping-pong certificate
    cfg = write_config("small.json", {
        "backend": {"kind": "free_product_tree", "orders": orders},
        "generators": ["a", "b"],
        "budgets": {"n_max": 8, **search},
    })
    expect = f"no certificate with n <= {search['max_n']}, k <= {search['max_k']}"
    for command in ("free-basis", "verify-bound"):
        assert main([command, cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert expect in captured.err


def test_check_cert_accepts_only_geometric_mode(f2_config, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["free-basis", f2_config, "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    assert payload["mode"] == "geometric"
    assert "exact_check_len" not in payload
    # a payload from an older build still carries the key; it is ignored
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({**payload, "exact_check_len": 6}), encoding="utf-8")
    assert main(["check-cert", str(legacy)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    downgraded = tmp_path / "exact_only.json"
    downgraded.write_text(json.dumps({**payload, "mode": "exact_only", "exact_check_len": 6}),
                          encoding="utf-8")
    assert main(["check-cert", str(downgraded)]) == 5
    assert "unknown mode" in capsys.readouterr().err


def test_exact_check_len_budget_exits_four(write_config, capsys):
    cfg = write_config("old.json", {
        "backend": F2_BACKEND,
        "generators": ["x", "y"],
        "budgets": {"n_max": 5, "exact_check_len": 6},
    })
    for command in ("growth", "free-basis", "verify-bound"):
        assert main([command, cfg]) == 4
        assert "unknown budget keys: ['exact_check_len']" in capsys.readouterr().err


def test_max_radius_override(f2_config, capsys):
    assert main(["growth", f2_config, "--max-radius", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 3


@pytest.mark.parametrize("command", ["growth", "verify-bound"])
@pytest.mark.parametrize("radius", ["0", "-3", "two"])
def test_max_radius_must_be_a_positive_integer(f2_config, capsys, command, radius):
    # the rule of budgets.n_max, with a message that names the flag
    assert main([command, f2_config, "--max-radius", radius]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: loxgrow ")
    assert (f"error: argument --max-radius: must be a positive integer, got '{radius}'"
            in captured.err)


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_parser_is_built_once_per_process(f2_config, capsys, monkeypatch):
    main(["growth", f2_config])
    built = _count_parsers(monkeypatch)
    for argv in (["growth", f2_config], ["verify-bound", f2_config, "--max-radius", "3"],
                 ["classify", f2_config], ["no-such-command"]):
        main(argv)
    assert built == []
    capsys.readouterr()


def test_cached_parser_reports_to_the_streams_of_each_call(f2_config):
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["growth", f2_config, "--out", os.devnull]) == 0
    for argv, message in ((["no-such-command"], "invalid choice: 'no-such-command'"),
                          (["growth"], "the following arguments are required: config"),
                          (["no-such-command"], "invalid choice: 'no-such-command'")):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 4
        # this call's usage and error, and nothing left from an earlier call
        assert err.getvalue().startswith("usage: loxgrow ")
        assert err.getvalue().count("usage:") == 1 and err.getvalue().count("error:") == 1
        assert message in err.getvalue()
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert out.getvalue() == f"loxgrow {__version__}\n"


def test_commands_rerun_byte_identical_in_one_process(write_config, tmp_path, capsys):
    cfg = write_config("c23.json", {
        "backend": {"kind": "free_product_tree", "orders": [2, 3]},
        "generators": ["a", "b"],
        "budgets": {"n_max": 8},
    })
    runs = []
    for run in range(2):
        outs = {}
        for command in ("growth", "verify-bound", "free-basis"):
            outs[command] = tmp_path / f"{command}.{run}"
            assert main([command, cfg, "--out", str(outs[command])]) == 0
        outs["check-cert"] = tmp_path / f"check-cert.{run}"
        assert main(["check-cert", str(outs["free-basis"]), "--out", str(outs["check-cert"])]) == 0
        runs.append({command: path.read_bytes() for command, path in outs.items()})
    assert runs[0] == runs[1]
    assert capsys.readouterr() == ("", "")


def _run_python(*args):
    # a fresh interpreter that imports this checkout's loxgrow
    src = os.path.dirname(os.path.dirname(os.path.abspath(loxgrow.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_one_shot_help_names_every_command():
    proc = _run_python("-m", "loxgrow.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: loxgrow ")
    for command in ("growth", "free-basis", "verify-bound", "delta", "classify", "check-cert"):
        assert re.search(rf"^ +{command} ", proc.stdout, re.M), command


def test_parser_is_not_built_at_import():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), "
            "init(self, *a, **k))[1]\n"
            "import loxgrow.cli\n"
            "print(len(built))\n")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_verify_bound_reruns_byte_identical(write_config, tmp_path):
    cfg = write_config("sanov.json", {
        "backend": {"kind": "half_plane"},
        "generators": SANOV,
        "budgets": {"n_max": 6, "memory_cap": 50000},
    })
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-bound", cfg, "--out", str(a)]) == 0
    assert main(["verify-bound", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.strip() == f"loxgrow {__version__}"


# det 1 and trace 10**400 + 1, past float range: the translation length
# comes from the logs of the ints, 2 log|tr| - log det
_HUGE = [[10**400, 1], [10**400 - 1, 1]]


def test_classify_reads_a_trace_past_float_range(write_config, capsys):
    cfg = write_config("huge.json", {"backend": {"kind": "half_plane"}, "generators": [_HUGE]})
    assert main(["classify", cfg]) == 0
    out, err = capsys.readouterr()
    [row] = json.loads(out)["elements"]
    assert row["kind"] == "loxodromic"
    assert row["translation_length"] == 2.0 * math.log(10**400 + 1)
    assert err == ""


def test_verify_bound_with_a_trace_past_float_range_exits_documented(write_config, tmp_path,
                                                                   capsys):
    # the loxodromic pick measures the huge letter; the integer ping-pong
    # test, which measures no distance, then certifies T at (n, k) = (1, 2)
    # within the default search budgets. With n and k held to 1 the search
    # finds no certificate and exits 3, as documented
    config = {"backend": {"kind": "half_plane"}, "generators": [_HUGE, [[1, 0], [2, 1]]],
              "budgets": {"n_max": 3, "memory_cap": 2000}}
    out = tmp_path / "report.json"
    assert main(["verify-bound", write_config("huge.json", config), "--out", str(out)]) == 0
    cert = json.loads(out.read_text(encoding="utf-8"))["certificate"]
    assert (cert["mode"], cert["n"], cert["k"], cert["r"]) == ("ping-pong", 1, 2, 4)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["check-cert", str(path)]) == 0
    capsys.readouterr()
    config["budgets"].update(max_n=1, max_k=1)
    assert main(["verify-bound", write_config("huge.json", config)]) == 3
    assert capsys.readouterr().err == "budget exceeded: no certificate with n <= 1, k <= 1\n"


# the float-Sanov config of the benchmark's certify-kappa workload (seed 0)
_SANOV_FLOAT = {
    "backend": {"kind": "half_plane", "arithmetic": "float"},
    "generators": [[[1, 2], [0, 1]], [[1, 0], [-2, 1]]],
    "budgets": {"n_max": 7, "memory_cap": 20000},
}


def _reprs(values):
    return [repr(v) for v in values]


def test_float_sanov_certificate_is_pinned_bit_for_bit(write_config, tmp_path, capsys):
    # every number of the float spelling's certificate, by repr (so an int
    # entry, -0.0 and the last digit count): a rank-4 T at (n, k) = (1, 3),
    # as on exact Sanov, whose integer canonicals the float input loads as,
    # proved free by integer ping-pong, with no basepoint or margin
    cfg = write_config("sanov-float.json", _SANOV_FLOAT)
    capsys.readouterr()
    assert main(["verify-bound", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    cert = out["certificate"]
    assert [_reprs(t["canonical"]) for t in cert["T"]] == [
        ["881", "-396", "-198", "89"],
        ["1891", "1188", "-4554", "-2861"],
        ["2861", "-1188", "4554", "-1891"],
        ["89", "-396", "-198", "881"]]
    assert (cert["mode"], cert["n"], cert["k"], cert["r"]) == ("ping-pong", 1, 3, 4)
    assert (cert["kappa"], cert["kappa_mode"]) == (11, "exact")
    assert not {"basepoint", "m", "p_max", "margin", "epsilon_margin"} & set(cert)
    assert _reprs([out["omega_lower"], out["omega_hat"], out["omega_upper"],
                   out["theta_hat"]]) == [
        "0.17690092264139212", "1.0990697452177152", "1.1976006502018457",
        "0.7928112355083471"]
    assert out["heuristic"] is False
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["check-cert", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert {k: repr(v) for k, v in summary.items()} == {
        "kappa": "11",
        "membership_heuristic": "False",
        "mode": "'ping-pong'",
        "omega_lower": "0.17690092264139212",
        "r": "4",
        "valid": "True",
        "version": repr(__version__),
    }


@pytest.mark.parametrize("arithmetic, heuristic", [("float", False), ("exact_integer", False)])
def test_verify_bound_says_whether_its_counts_are_heuristic(write_config, capsys,
                                                            arithmetic, heuristic):
    # both spellings load exactly, so the summary's flag stays false and
    # the growth CSV has no comment line past the version; the
    # certificate inside is what free-basis writes
    cfg = write_config("sanov.json", dict(_SANOV_FLOAT, backend={
        "kind": "half_plane", "arithmetic": arithmetic}))
    capsys.readouterr()
    assert main(["verify-bound", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["heuristic"] is heuristic
    assert main(["growth", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [f"# loxgrow {__version__}", CSV_HEADER]
    assert main(["free-basis", cfg]) == 0
    assert json.loads(capsys.readouterr().out) == out["certificate"]


@pytest.mark.parametrize("name", sorted(NON_INTEGER_FLOAT_SETS))
def test_non_integer_float_sets_certify_or_exit_cleanly(write_config, tmp_path, capsys, name):
    # float sets whose canonicals are integer matrices of det != 1, whose
    # entries grow by up to 53 bits a letter: verify-bound ends in a
    # documented exit code, and check-cert accepts what it certifies
    cfg = write_config("cfg.json", {
        "backend": {"kind": "half_plane", "arithmetic": "float"},
        "generators": NON_INTEGER_FLOAT_SETS[name],
        "budgets": {"n_max": 7, "memory_cap": 20000},
    })
    out = tmp_path / "report.json"
    assert main(["verify-bound", cfg, "--out", str(out)]) in (0, 2, 3)
    cert = json.loads(out.read_text(encoding="utf-8"))["certificate"]
    if cert is not None:
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert), encoding="utf-8")
        assert main(["check-cert", str(path)]) == 0
    capsys.readouterr()


def test_certificates_past_the_int_text_limit_round_trip(write_config, tmp_path, capsys):
    # a generator of trace 10**4300 + 1: its entries, and T's, pass the 4300
    # digits that Python converts between int and text by default, so the
    # CLI lifts that limit while a command runs (the config's load
    # included), and restores it
    big = 10**4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        cfg = write_config("cfg.json", {
            "backend": {"kind": "half_plane"},
            "generators": [[[big, 1], [big - 1, 1]], [[1, 0], [2, 1]]],
            "budgets": {"n_max": 2, "memory_cap": 100},
        })
    finally:
        sys.set_int_max_str_digits(limit)
    out = tmp_path / "report.json"
    assert main(["verify-bound", cfg, "--out", str(out)]) == 0
    assert sys.get_int_max_str_digits() == limit
    text = out.read_text(encoding="utf-8")
    assert max(map(len, re.findall(r"\d+", text))) > 4300
    sys.set_int_max_str_digits(0)
    try:
        cert = json.loads(text)["certificate"]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert), encoding="utf-8")
    finally:
        sys.set_int_max_str_digits(limit)
    assert main(["check-cert", str(path)]) == 0
    capsys.readouterr()


# SHA-256 of the verify-bound JSON on the certify-kappa configs at their
# benchmark budgets and on the certify-pingpong configs: the report's bytes
# must not drift with how verify_theorem gets its balls and words
@pytest.mark.parametrize("backend, gens, budgets, digest", [
    ({"kind": "half_plane", "delta": 0.7}, PSL2Z_ELLIPTIC, {"n_max": 3, "memory_cap": 5000},
     "a17114802d35e07dfd0eb0c82f652af929175bfd4ded04a75845ca560703b7ac"),
    ({"kind": "half_plane"}, SANOV, {"n_max": 8, "memory_cap": 50000},
     "e06a29db1041fec11969416247b4f53f78bc498adba92deec4b1648932caae21"),
    ({"kind": "half_plane", "arithmetic": "float"},
     [[[float(v) for v in row] for row in g] for g in SANOV], {"n_max": 7, "memory_cap": 20000},
     "54ba3eb04bf9d5953149c374820a890cf0719096eaa86373ee184cc33dd2f5f3"),
    ({"kind": "free_product_tree", "orders": [2, 7]}, ["a", "b"], {"n_max": 10},
     "64caf959ed7059b39caa8cce313d5b51b9153b8f3e60fd8bef91865ef515a4f4"),
    ({"kind": "free_product_tree", "orders": [2, 3]}, ["a", "b"], {"n_max": 12},
     "96530af66454a494b37603e4b14342536b117bf20c0674c44c18be214ba583f0"),
    ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb"], {"n_max": 10},
     "82f215593b1dcf5d2fbfa6c6bdb3ed00c611a5af172d75e412728ce6e8cce87f"),
    ({"kind": "free_product_tree", "orders": [3, 3]}, ["a", "b"], {"n_max": 8},
     "b20ae3e79676d83c9c60a057a0f77d1de60c5b6c8f3bb794f06452f015841033"),
], ids=["elliptic", "sanov", "sanov-float", "c2c7", "c2c3", "c2c4", "c3c3"])
def test_verify_bound_bytes_are_pinned(write_config, tmp_path, capsys, backend, gens, budgets,
                                       digest):
    path = write_config("cfg.json", {"backend": backend, "generators": gens,
                                     "budgets": budgets})
    out = tmp_path / "report.json"
    assert main(["verify-bound", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
