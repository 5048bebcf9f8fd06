"""End-to-end command tests through cli.main(argv)."""

import hashlib
import json
import math
import re
import sys

import pytest

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
    ("half_plane", ("m",), str),
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
    ("half_plane", "torsion_bound", 3),
    ("free_product_tree", "delta", 0),
    ("free_group_tree", "delta", 0.5),
])
def test_int_and_float_backend_parameters_still_run(write_config, capsys, kind, field, value):
    # delta takes an int or a float and is reported as a float
    backend = dict(_SHAPE_CONFIGS[kind]["backend"])
    backend[field] = value
    cfg = write_config("ok.json", {**_SHAPE_CONFIGS[kind], "backend": backend})
    assert main(["delta", cfg]) == 0
    reported = json.loads(capsys.readouterr().out)["backend"][field]
    assert reported == value and type(reported) is type(float(value) if field == "delta" else value)


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


def test_verify_bound_with_a_trace_past_float_range_exits_documented(write_config, capsys):
    # the loxodromic pick measures the huge letter; the (n, k) search then
    # finds no certificate within these budgets and exits 3, as documented
    cfg = write_config("huge.json", {
        "backend": {"kind": "half_plane"},
        "generators": [_HUGE, [[1, 0], [2, 1]]],
        "budgets": {"n_max": 3, "memory_cap": 2000, "max_n": 2, "max_k": 2},
    })
    assert main(["verify-bound", cfg]) == 3
    assert capsys.readouterr().err == "budget exceeded: no certificate with n <= 2, k <= 2\n"


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
    # entry, -0.0 and the last digit count): a rank-4 T at (n, k) = (1, 8),
    # as on exact Sanov, whose integer canonicals the float input loads as
    cfg = write_config("sanov-float.json", _SANOV_FLOAT)
    capsys.readouterr()
    assert main(["verify-bound", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    cert = out["certificate"]
    assert [_reprs(t["canonical"]) for t in cert["T"]] == [
        ["83739041", "-37639840", "-18819920", "8459361"],
        ["179739839", "112919520", "-432858160", "-271938241"],
        ["271938241", "-112919520", "432858160", "-179739839"],
        ["8459361", "-37639840", "-18819920", "83739041"]]
    assert (cert["n"], cert["k"], cert["r"]) == (1, 8, 4)
    assert (cert["kappa"], cert["kappa_mode"]) == (26, "exact")
    assert _reprs(cert["basepoint"]) == ["0.0", "1.0"]
    assert _reprs([cert["m"], cert["p_max"], cert["margin"]]) == [
        "36.7197287074991", "3.5456110011537234", "0.5443550872836642"]
    assert _reprs([out["omega_lower"], out["omega_hat"], out["omega_upper"],
                   out["theta_hat"]]) == [
        "0.07484269804058898", "1.0990697452177152", "1.1976006502018457",
        "0.7928112355083471"]
    assert out["heuristic"] is False
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["check-cert", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert {k: repr(v) for k, v in summary.items()} == {
        "kappa": "26",
        "margin": "0.5443550872836642",
        "membership_heuristic": "False",
        "mode": "'geometric'",
        "omega_lower": "0.07484269804058898",
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
    # {T, U} conjugated in floats by diag(0.37, 1/0.37): T's entries pass the
    # 4300 digits that Python converts between int and text by default,
    # so the CLI lifts that limit while a command runs, and restores it
    cfg = write_config("cfg.json", {
        "backend": {"kind": "half_plane", "arithmetic": "float"},
        "generators": [[[1, 0.1369], [0.0, 1]], [[1, 0.0], [7.304601899196494, 1]]],
        "budgets": {"n_max": 2, "memory_cap": 1000},
    })
    limit = sys.get_int_max_str_digits()
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
     "b6338961922d96c94d2bbb5eaf7504533327c350d71d0ac0e301490dfc762500"),
    ({"kind": "half_plane"}, SANOV, {"n_max": 8, "memory_cap": 50000},
     "783fa55964ba01920c1263470c65056cb1ba90d299f2f9d94d6e211d518e538b"),
    ({"kind": "half_plane", "arithmetic": "float"},
     [[[float(v) for v in row] for row in g] for g in SANOV], {"n_max": 7, "memory_cap": 20000},
     "0c25d7fe0c4ab99b563390be381790031b03e0be0b6ede392c3ae86e617fec1d"),
    ({"kind": "free_product_tree", "orders": [2, 7]}, ["a", "b"], {"n_max": 10},
     "ce94029a20715d77e4499f1836faf3cafb3c29dc310f6cf49aeed54e3c842baa"),
    ({"kind": "free_product_tree", "orders": [2, 3]}, ["a", "b"], {"n_max": 12},
     "a947faf51079adb686811e1bbd60952535ccb827446ff7c38ea33a5df51656da"),
    ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb"], {"n_max": 10},
     "09608ca6076c0ca363f2c3237911df6ec41e651a11516363f2bb75375e81e65b"),
    ({"kind": "free_product_tree", "orders": [3, 3]}, ["a", "b"], {"n_max": 8},
     "cbf0b0fd90eb2c1ee5a194d0aae9dd641594d3a0454b086037f219cb951e0faf"),
], ids=["elliptic", "sanov", "sanov-float", "c2c7", "c2c3", "c2c4", "c3c3"])
def test_verify_bound_bytes_are_pinned(write_config, tmp_path, capsys, backend, gens, budgets,
                                       digest):
    path = write_config("cfg.json", {"backend": backend, "generators": gens,
                                     "budgets": budgets})
    out = tmp_path / "report.json"
    assert main(["verify-bound", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
