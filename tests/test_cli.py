"""End-to-end command tests through cli.main(argv)."""

import json
import math

import pytest

from loxgrow import __version__
from loxgrow.cli import main
from loxgrow.freebasis import backend_hash

from conftest import PSL2Z_ELLIPTIC, SANOV

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
    assert payload["format"] == "loxgrow-cert/1"
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
    empty.write_text(json.dumps({**payload, "r": 0, "T": [], "S0": []}), encoding="utf-8")
    capsys.readouterr()
    assert main(["check-cert", str(empty)]) == 5
    assert "T is empty" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
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
                                                     field, value, message):
    # factors outside {0, 1} (negative ones included), exps outside
    # 1 .. order - 1 and syllables of one factor side by side
    cfg = write_config("c2c3.json", {
        "backend": {"kind": "free_product_tree", "orders": [2, 3]},
        "generators": ["a", "b"],
        "budgets": {"n_max": 4},
    })
    cert_path = tmp_path / "cert.json"
    assert main(["free-basis", cfg, "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    if field == "b":
        payload["b"]["canonical"] = value
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
    ("free_group_tree", ("b", "canonical"), 5),
    ("free_group_tree", ("b", "canonical"), [[1]]),
    ("free_group_tree", ("b", "canonical"), ["x"]),
    ("free_group_tree", ("b", "canonical"), [1.5]),
    ("free_group_tree", ("basepoint",), [None]),
    ("free_group_tree", ("b",), 5),
    ("free_group_tree", ("b",), {"word": "x"}),
    ("free_product_tree", ("b", "canonical"), [[0, 1, 2]]),
    ("free_product_tree", ("b", "canonical"), [[0]]),
    ("free_product_tree", ("b", "canonical"), [["x", 1]]),
    ("free_product_tree", ("b", "canonical"), 5),
    ("free_product_tree", ("b", "canonical"), [[True, 1]]),
    ("free_product_tree", ("basepoint",), [[[0, 1]]]),
    ("free_product_tree", ("basepoint",), 7),
    ("free_product_tree", ("basepoint",), [[[0, 1]], "1"]),
    ("free_product_tree", ("basepoint",), _DROP),
    ("free_product_tree", ("b", "symbols"), [["a"]]),
    ("free_product_tree", ("b", "symbols"), [[1, 1]]),
    ("half_plane", ("b", "canonical"), 5),
    ("half_plane", ("b", "canonical"), [[1, 2], [0, 1]]),
    ("half_plane", ("b", "canonical"), ["1", 2, 0, 1]),
    ("half_plane", ("b", "canonical"), [1.0, 2, 0, 1]),
    ("half_plane", ("b", "canonical"), [2, 2, 0, 1]),
    ("half_plane", ("b", "canonical"), [None, 2, 0, 1]),
    ("half_plane", ("basepoint",), [0.0]),
    ("half_plane", ("basepoint",), ["0", 1.0]),
    ("half_plane", ("basepoint",), [0.0, 10**400]),
    ("half_plane", ("b", "symbols"), 5),
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


@pytest.mark.parametrize("text", ["{nope", "[1, 2]", "5", ""])
def test_check_cert_non_object_exits_five(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["check-cert", str(bad)]) == 5
    assert "invalid certificate" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [50, 200, 1000])
def test_check_cert_accepts_certificates_built_under_a_small_cap(write_config, tmp_path,
                                                                 cap, capsys):
    # under these caps the builder's walk passes memory_cap before it meets
    # any T entry, so T keeps its carried words and kappa is 22 word-upper;
    # the checker only evaluates those words, whatever the builder's cap
    cfg = write_config("c2c7.json", {
        "backend": {"kind": "free_product_tree", "orders": [2, 7]},
        "generators": ["a", "b"],
        "budgets": {"n_max": 4, "memory_cap": cap},
    })
    cert_path = tmp_path / "cert.json"
    assert main(["free-basis", cfg, "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    assert (payload["kappa"], payload["kappa_mode"]) == (22, "word-upper")
    capsys.readouterr()
    assert main(["check-cert", str(cert_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["valid"], result["kappa"]) == (True, 22)


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
