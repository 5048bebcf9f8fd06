"""One benchmark run inside a fresh interpreter.

Started by run.py with PYTHONPATH=src. It sets up (imports the CLI, writes
and parses the seeded configs, builds the generating sets), then runs
passes over the workload's CLI commands until --seconds have elapsed and
writes result.json into --dir. With --setup-only it prints its set-up time
and the calibration time measured right after it, and exits.

With --trace 1 it alternates an untraced and a traced pass, so per-layer
numbers and the tracing overhead come from the same process.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import gate
import workloads
from calibrate import calibrate, scale
from tracing import Tracer

# set-up is timed from here: the interpreter is up, loxgrow is not imported
_STARTED = time.perf_counter()


def setup(workload, run_dir):
    """Everything a run pays before its first command."""
    import loxgrow.cli as cli
    from loxgrow.spaces import make_backend
    from loxgrow.words import make_generating_set

    paths = {}
    for cfg in workload.configs:
        path = os.path.join(run_dir, f"{cfg.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg.payload, fh, indent=2, sort_keys=True)
        parsed = cli.load_config(path)
        make_generating_set(make_backend(parsed["backend"]), parsed["generators"],
                            symmetrize=parsed.get("symmetrize", True))
        paths[cfg.name] = path
    return cli, paths


class Runner:
    def __init__(self, cli, workload, paths, run_dir):
        self.cli = cli
        self.workload = workload
        self.paths = paths
        self.run_dir = run_dir
        self.first_fingerprints = {}
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def _out(self, cfg, step, suffix):
        return os.path.join(self.run_dir, f"{cfg.name}.{step}.{suffix}")

    def _timed_main(self, argv, tracer):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                rc = tracer.call(f"cli.main:{argv[0]}", self.cli.main, argv)
        except Exception:
            # a crash is a failed command; the run goes on and reports it
            traceback.print_exc()
            rc = -1
        return rc, time.perf_counter() - t0

    def check_step(self, cfg, cert, tracer=None):
        """Check a certificate; returns (ok, fingerprint, reason, seconds)."""
        if cfg.check_memory_cap is not None:
            from loxgrow.errors import LoxgrowError
            from loxgrow.freebasis import check_certificate

            t0 = time.perf_counter()
            try:
                if tracer is None:
                    summary = check_certificate(cert, memory_cap=cfg.check_memory_cap)
                else:
                    summary = tracer.call("freebasis.check_certificate", check_certificate,
                                          cert, memory_cap=cfg.check_memory_cap)
                rc = 0
            except LoxgrowError as exc:
                summary, rc = {"error": str(exc)}, 5
            except Exception:
                traceback.print_exc()
                summary, rc = None, -1
            dt = time.perf_counter() - t0
            return (*gate.check_cert_summary(rc, summary, cert), dt)
        cert_path = self._out(cfg, "cert", "json")
        dest = self._out(cfg, "check-cert", "json")
        with open(cert_path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh, indent=2, sort_keys=True)
        rc, dt = self._timed_main(["check-cert", cert_path, "--out", dest], tracer)
        return (*gate.check_cert_output(rc, dest, cert), dt)

    def record(self, cfg, step, engine, ok, fp, why):
        """Count one command; an answer that differs from the first pass fails."""
        key = (cfg.name, step, engine if step == "growth" else None)
        if ok:
            first = self.first_fingerprints.setdefault(key, fp)
            if fp != first:
                ok, why = False, f"answer changed between passes: {fp} != {first}"
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{cfg.name} {step}: {why}")
        return ok

    def run_config(self, cfg, tracer=None, engine=None, calib=None):
        """Run cfg's steps once; returns [(kind, seconds, ok)]."""
        path = self.paths[cfg.name]
        cert = None
        out = []
        for step in cfg.steps:
            dest = self._out(cfg, step, "csv" if step == "growth" else "json")
            if step == "growth":
                argv = ["growth", path, "--out", dest]
                if engine is not None:
                    argv += ["--engine", engine]
                rc, dt = self._timed_main(argv, tracer)
                ok, fp, why = gate.check_growth(cfg, rc, dest)
            elif step == "verify-bound":
                rc, dt = self._timed_main(["verify-bound", path, "--out", dest], tracer)
                ok, fp, why = gate.check_verify_bound(cfg, rc, dest)
                if ok:
                    with open(dest, encoding="utf-8") as fh:
                        cert = json.load(fh)["certificate"]
            elif step == "free-basis":
                rc, dt = self._timed_main(["free-basis", path, "--out", dest], tracer)
                ok, fp, why = gate.check_free_basis(rc, dest, cert)
                if ok:
                    with open(dest, encoding="utf-8") as fh:
                        cert = json.load(fh)
            elif step == "check-cert":
                if cert is None:
                    ok, fp, why, dt = False, None, "no certificate to check", 0.0
                else:
                    ok, fp, why, dt = self.check_step(cfg, cert, tracer)
            else:
                raise ValueError(f"unknown step {step!r}")
            if calib is not None:
                calib.append(calibrate())
            out.append((step, dt, self.record(cfg, step, engine, ok, fp, why)))
        return out

    def run_pass(self, tracer=None, engine=None):
        """All configs once, with the calibration loop between commands."""
        steps, calib = [], [calibrate()]
        for cfg in self.workload.configs:
            steps += self.run_config(cfg, tracer, engine, calib)
        return pass_summary(steps, calib)

    def fingerprints(self):
        return {f"{name} {step}" + (f" --engine {eng}" if eng else ""): fp
                for (name, step, eng), fp in self.first_fingerprints.items()}


def pass_summary(steps, calib):
    """Times of one pass; calib[i] and calib[i + 1] bracket command i.

    Each command is scaled by the median of the four calibrations nearest
    to it, so one disturbed calibration does not move the result.
    """
    kinds = {}
    for kind, dt, _ok in steps:
        kinds[kind] = kinds.get(kind, 0.0) + dt
    scaled = [scale(dt, statistics.median(calib[max(0, i - 1):i + 3]))
              for i, (_kind, dt, _ok) in enumerate(steps)]
    return {
        "wall_s": sum(dt for _k, dt, _ok in steps),
        "wall_scaled_s": sum(scaled),
        "cmd_s": [dt for _k, dt, _ok in steps],
        "calib_s": calib,
        "kind_s": kinds,
    }


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def layer_metrics(tracer, kernel_available):
    total, own = tracer.times()
    c = tracer.counts
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    ratio = lambda num, den: c[num] / c[den] if c[den] else 0.0  # noqa: E731
    m = {
        "growth.ball_sizes_s": t("growth.ball_sizes"),
        "growth.elements": c["growth.elements"],
        "growth.generic_s": t("growth.generic"),
        "growth.engine_python_s": t("growth.engine_python"),
        "words.word_length_in_S_s": t("words.word_length_in_S"),
        "words.word_length_in_S_calls": c["words.word_length_in_S_calls"],
        "words.word_length_in_S_found_ratio": ratio("words.word_length_in_S_found",
                                                    "words.word_length_in_S_calls"),
        "words.product_ball_set_s": t("words.product_ball_set"),
        "words.product_ball_set_elements": c["words.product_ball_set_elements"],
        "freebasis.find_short_loxodromic_s": t("freebasis.find_short_loxodromic"),
        "freebasis.find_short_loxodromic_misses": c["freebasis.find_short_loxodromic_misses"],
        "freebasis.find_independent_s": t("freebasis.find_independent"),
        "freebasis.build_free_basis_self_s": own.get("freebasis.build_free_basis", 0.0),
        "freebasis.certify_free_geometric_s": t("freebasis.certify_free_geometric"),
        "freebasis.certify_free_geometric_calls": c["freebasis.certify_free_geometric_calls"],
        "freebasis.certify_free_geometric_valid_ratio": ratio(
            "freebasis.certify_free_geometric_valid", "freebasis.certify_free_geometric_calls"),
        "freebasis.check_certificate_self_s": own.get("freebasis.check_certificate", 0.0),
        "spaces.basepoint_candidates_s": t("spaces.basepoint_candidates"),
        "spaces.basepoint_candidates_calls": c["spaces.basepoint_candidates_calls"],
        "spaces.compose_calls": c["spaces.compose_calls"],
        "spaces.apply_calls": c["spaces.apply_calls"],
        "spaces.dist_calls": c["spaces.dist_calls"],
        "hypcore.gromov_product_calls": c["hypcore.gromov_product_calls"],
        "hypcore.min_displacement_search_s": t("hypcore.min_displacement_search"),
        "hypcore.estimate_delta_s": t("hypcore.estimate_delta"),
        "cli.load_config_s": t("cli.load_config"),
        "cli.main_self_s": sum(v for k, v in own.items() if k.startswith("cli.main:")),
    }
    if kernel_available:
        m["growth.engine_kernel_s"] = t("growth.engine_kernel")
    return m, own


def answer_metrics(runner):
    """Certificates that fell back to word-upper kappa, and the mean bracket width."""
    answers = runner.first_fingerprints.items()
    gaps = [fp["omega_upper"] - fp["omega_lower"]
            for (_n, step, _e), fp in answers if step == "verify-bound"]
    return {
        "freebasis.kappa_word_upper": sum(
            1 for (_n, step, _e), fp in answers
            if step == "check-cert" and fp["kappa_mode"] == "word-upper"),
        "freebasis.bracket_gap": statistics.mean(gaps) if gaps else 0.0,
    }


def traced_passes(runner, seconds, kernel_available):
    """Alternate untraced and traced passes over identical command lines."""
    tracer = Tracer()
    plain, traced, layers, self_times = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while not traced or keep_going(start, seconds, last):
        t0 = time.perf_counter()
        plain.append(runner.run_pass(engine="python"))
        tracer.reset()
        tracer.install(kernel_available)
        try:
            summary = runner.run_pass(tracer, engine="python")
            if kernel_available:
                for cfg in runner.workload.configs:
                    if "growth" in cfg.steps:
                        runner.run_config(cfg, tracer, engine="kernel")
        finally:
            tracer.uninstall()
        traced.append(summary)
        last = time.perf_counter() - t0
        m, own = layer_metrics(tracer, kernel_available)
        layers.append(m)
        self_times.append(own)
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics.update(answer_metrics(runner))
    metrics["trace_overhead_ratio"] = (median_of(traced, "wall_scaled_s")
                                       / median_of(plain, "wall_scaled_s"))
    names = set().union(*self_times)
    self_s = {n: statistics.median(s.get(n, 0.0) for s in self_times) for n in names}
    return metrics, {"plain": plain, "traced": traced, "self_s": self_s, "spans": tracer.spans,
                     "engine_tags": dict(tracer.engine_tags)}


def keep_going(start, seconds, last_pass_s):
    """Start another pass only if it should end by seconds + half a pass."""
    return time.perf_counter() - start + 0.5 * last_pass_s < seconds


def plain_passes(runner, seconds):
    passes = []
    start = time.perf_counter()
    last = 0.0
    while not passes or keep_going(start, seconds, last):
        t0 = time.perf_counter()
        passes.append(runner.run_pass())
        last = time.perf_counter() - t0
    return passes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed)
    cli, paths = setup(workload, args.dir)
    setup_s = time.perf_counter() - _STARTED
    calib = statistics.median(calibrate() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calib_s": calib}))
        return 0

    from loxgrow.growth import KERNEL_AVAILABLE

    runner = Runner(cli, workload, paths, args.dir)
    result = {"setup_s": setup_s, "calib_s": calib, "kernel_available": KERNEL_AVAILABLE}
    if args.trace:
        metrics, detail = traced_passes(runner, args.seconds, KERNEL_AVAILABLE)
        spans = detail.pop("spans")
        with open(os.path.join(args.dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
        result.update(metrics=metrics, passes=detail["traced"], untraced_passes=detail["plain"],
                      self_s=detail["self_s"], engine_tags=detail["engine_tags"])
    else:
        passes = plain_passes(runner, args.seconds)
        kinds = sorted({k for p in passes for k in p["kind_s"]})
        result.update(
            metrics={"wall_scaled_s": median_of(passes, "wall_scaled_s")},
            wall_s=median_of(passes, "wall_s"),
            kind_s={k: statistics.median(p["kind_s"][k] for p in passes) for k in kinds},
            passes=passes,
        )
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures[:20],
        fingerprints=runner.fingerprints(),
        inputs={cfg.name: {"steps": cfg.steps, "notes": cfg.notes, "config": cfg.payload}
                for cfg in workload.configs},
    )
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
