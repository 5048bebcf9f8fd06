"""Checks of the benchmark's own correctness gate.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_gate.py
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, setup  # noqa: E402


def _runner(tmp_path, workload):
    cli, paths = setup(workload, str(tmp_path))
    return Runner(cli, workload, paths, str(tmp_path))


def _small_pingpong(seed=0):
    wl = workloads.build("certify-pingpong", seed)
    wl.configs = [c for c in wl.configs if c.name == "c2c4"]
    return wl


def test_reference_counts():
    assert workloads.c23_balls(32) == workloads.C23_BALL_32
    assert [workloads.free_rank2_balls(n) for n in range(4)] == [1, 5, 17, 53]


def test_honest_run_passes(tmp_path):
    runner = _runner(tmp_path, _small_pingpong())
    summary = runner.run_pass()
    assert sorted(summary["kind_s"]) == ["check-cert", "free-basis", "verify-bound"]
    assert len(summary["calib_s"]) == 4 and summary["wall_scaled_s"] > 0
    assert runner.attempted == 3 and runner.failed == 0, runner.failures


def test_tampered_certificate_counts_as_failed(tmp_path):
    runner = _runner(tmp_path, _small_pingpong())
    runner.run_pass()
    cfg = runner.workload.configs[0]
    with open(os.path.join(str(tmp_path), "c2c4.free-basis.json"), encoding="utf-8") as fh:
        cert = json.load(fh)
    # a smaller kappa with a consistent omega_lower: only re-deriving kappa catches it
    cert["kappa"] -= 1
    cert["omega_lower"] = math.log(2 * cert["r"] - 1) / cert["kappa"]
    ok, _fp, why, _dt = runner.check_step(cfg, cert)
    assert not ok and "exit code 5" in why
    runner.record(cfg, "check-cert", None, ok, None, why)
    assert runner.failed == 1 and runner.attempted == 4


def test_changed_answer_between_passes_counts_as_failed(tmp_path):
    runner = _runner(tmp_path, _small_pingpong())
    cfg = runner.workload.configs[0]
    runner.record(cfg, "free-basis", None, True, {"kappa": 11}, "")
    runner.record(cfg, "free-basis", None, True, {"kappa": 10}, "")
    assert runner.failed == 1 and "answer changed" in runner.failures[0]


def test_growth_counts_match_reference_on_several_seeds(tmp_path):
    for seed in range(4):
        wl = workloads.build("growth-balls", seed)
        for cfg in wl.configs:
            cfg.payload["budgets"]["n_max"] = 6
        (tmp_path / str(seed)).mkdir()
        runner = _runner(tmp_path / str(seed), wl)
        runner.run_pass()
        assert runner.failed == 0, (seed, runner.failures)


def test_seed_changes_presentation_not_answers(tmp_path):
    prints = []
    for seed in (0, 1, 2):
        wl = workloads.build("certify-kappa", seed)
        wl.configs = [c for c in wl.configs if c.name in ("c2c7", "sanov-float")]
        (tmp_path / str(seed)).mkdir()
        runner = _runner(tmp_path / str(seed), wl)
        runner.run_pass()
        assert runner.failed == 0, runner.failures
        prints.append(runner.fingerprints())
    assert prints[0] == prints[1] == prints[2]


def test_wrong_ball_count_fails(tmp_path):
    cfg = workloads.build("growth-balls", 0).configs[0]
    cfg.payload["budgets"]["n_max"] = 2
    path = tmp_path / "t.csv"
    path.write_text("# loxgrow\nn,ball,sphere,upper_bound,ratio_estimate\n0,1,1,,\n1,5,4,,\n2,18,13,,\n")
    ok, _fp, why = gate.check_growth(cfg, 0, str(path))
    assert not ok and "ball 2" in why
