"""The benchmark tracer still finds the pipeline's functions by name.

``perfbench/tracing.py`` patches module attributes (``loxgrow.cli.*``,
``loxgrow.freebasis.*``); a refactor that moves a call away from those
names would silently drop its spans from ``--trace 1`` runs.
"""

import json
import os
import sys

import loxgrow.cli as cli
import loxgrow.freebasis as fb
import loxgrow.words as words
from loxgrow.spaces.base import Backend

from conftest import PSL2Z_ELLIPTIC

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from tracing import Tracer  # noqa: E402


def test_tracer_records_escalation_spans_and_uninstalls(tmp_path, capsys):
    # the benchmark's elliptic escalation case: one round, cheap at delta 0.7
    cfg = tmp_path / "elliptic.json"
    cfg.write_text(json.dumps({
        "backend": {"kind": "half_plane", "delta": 0.7},
        "generators": PSL2Z_ELLIPTIC,
        "budgets": {"n_max": 3, "memory_cap": 5000},
    }))
    names = ("find_short_loxodromic", "product_ball_set", "build_free_basis", "verify_theorem")
    before = {(mod.__name__, n): getattr(mod, n) for mod in (cli, fb) for n in names}
    before[("words", "product_ball_set")] = words.product_ball_set
    compose = Backend.__dict__["compose"]

    tracer = Tracer()
    tracer.install(False)
    try:
        assert cli.main(["free-basis", str(cfg), "--out", str(tmp_path / "cert.json")]) == 0
        assert cli.main(["verify-bound", str(cfg), "--out", str(tmp_path / "rep.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    recorded = {row[0] for row in tracer.spans}
    for span in ("freebasis.find_short_loxodromic", "words.product_ball_set",
                 "freebasis.build_free_basis", "freebasis.verify_theorem"):
        assert span in recorded
    assert tracer.counts["freebasis.find_short_loxodromic_misses"] == 2
    assert json.loads((tmp_path / "rep.json").read_text())["escalation_rounds"] == 1

    after = {(mod.__name__, n): getattr(mod, n) for mod in (cli, fb) for n in names}
    after[("words", "product_ball_set")] = words.product_ball_set
    assert after == before
    assert Backend.__dict__["compose"] is compose


def test_tracer_records_the_geometric_check(tmp_path, capsys):
    # the ping-pong check calls dist directly, not through gromov_product:
    # its span and the per-backend dist counter must both record
    cfg = tmp_path / "c2c3.json"
    cfg.write_text(json.dumps({
        "backend": {"kind": "free_product_tree", "orders": [2, 3]},
        "generators": ["a", "b"],
    }))
    check = fb.certify_free_geometric
    tracer = Tracer()
    tracer.install(False)
    try:
        assert cli.main(["free-basis", str(cfg), "--out", str(tmp_path / "cert.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert "freebasis.certify_free_geometric" in {row[0] for row in tracer.spans}
    assert tracer.counts["spaces.dist_calls"] > 0
    assert fb.certify_free_geometric is check


def test_tracer_records_one_kappa_search_per_command(tmp_path, capsys):
    # C2*C7 {a, b} misses b^2..b^5, so kappa needs the breadth-first search;
    # all three T entries share one walk in verify-bound, and check-cert
    # only evaluates the stored words
    cfg = tmp_path / "c2c7.json"
    cfg.write_text(json.dumps({
        "backend": {"kind": "free_product_tree", "orders": [2, 7]},
        "generators": ["a", "b"],
    }))
    search = fb.word_length_in_S
    tracer = Tracer()
    tracer.install(False)

    def kappa_spans():
        return sum(row[0] == "words.word_length_in_S" for row in tracer.spans)

    try:
        assert cli.main(["verify-bound", str(cfg), "--out", str(tmp_path / "rep.json")]) == 0
        assert kappa_spans() == 1
        cert = json.loads((tmp_path / "rep.json").read_text())["certificate"]
        assert (cert["r"], cert["kappa"], cert["kappa_mode"]) == (3, 14, "exact")
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        assert cli.main(["check-cert", str(tmp_path / "cert.json")]) == 0
        assert kappa_spans() == 1
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert tracer.counts["words.word_length_in_S_calls"] == 1
    assert fb.word_length_in_S is search


def test_tracer_records_the_generic_ball_count(tmp_path, capsys):
    # float half-plane balls run the generic counter; growth.generic_s
    # measures it only while that counter keeps its span
    cfg = tmp_path / "sanov-float.json"
    cfg.write_text(json.dumps({
        "backend": {"kind": "half_plane", "arithmetic": "float"},
        "generators": [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]],
        "budgets": {"n_max": 5},
    }))
    tracer = Tracer()
    tracer.install(False)
    try:
        assert cli.main(["growth", str(cfg), "--out", str(tmp_path / "balls.csv")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    recorded = [row[0] for row in tracer.spans]
    assert recorded.count("growth.generic") == 1
    assert "growth.engine_python" not in recorded
