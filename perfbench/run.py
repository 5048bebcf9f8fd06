"""Stage-by-stage benchmark of the loxgrow CLI.

Run from the repository root:

    python3 perfbench/run.py --workload certify-kappa --seed 0 --seconds 30 --trace 0

Each run starts fresh single-threaded worker processes (perfbench/worker.py)
that import loxgrow from src/, write the seeded config files and call
``loxgrow.cli.main`` in a closed loop: one client, each command after the
previous one finished. Every output is checked (perfbench/gate.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last line of stdout is one JSON object; the lines
before it repeat the numbers with their units, the untraced time per
command kind, the answer fingerprints and, when traced, the largest self
times. Run files go to .perfbench/<workload>-seed<n>-trace<t>-<pid>/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import REFERENCE_S, scale  # noqa: E402

# set-up is the noisiest number; take the median of this many fresh processes
SETUP_SAMPLES = 9
# the whole run, set-up included, must end well inside three minutes
DEADLINE_S = 170.0


def worker_env():
    env = dict(os.environ)
    env.pop("LOXGROW_WORKERS", None)
    env["PYTHONPATH"] = "src"
    # fixed hashing keeps set layouts, and so timings, equal between runs
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, run_dir, deadline, setup_only):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", str(run_dir)]
    if setup_only:
        cmd.append("--setup-only")
    with open(run_dir / "worker.stderr", "a", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=worker_env(),
                                text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"perfbench: worker passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        tail = (run_dir / "worker.stderr").read_text(encoding="utf-8")[-2000:]
        raise SystemExit(f"perfbench: worker exited {proc.returncode}\n{tail}")
    return out


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = time.monotonic()
    deadline = begin + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "loxgrow" / "cli.py").is_file():
        print("perfbench: src/loxgrow/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_raw, setup_scaled = [], []

    def add_setup(sample):
        setup_raw.append(sample["setup_s"])
        setup_scaled.append(scale(sample["setup_s"], sample["calib_s"]))

    for _ in range(SETUP_SAMPLES - 1):
        add_setup(json.loads(run_worker(args, run_dir, deadline, setup_only=True)))
    run_worker(args, run_dir, deadline, setup_only=False)
    with open(run_dir / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    add_setup(result)

    metrics = dict(result["metrics"])
    metrics["setup_s"] = statistics.median(setup_scaled)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: worker did not measure {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])}  kernel_available {result['kernel_available']}")
    for m in wanted:
        print(f"  {m['name']:<44} {fmt(metrics[m['name']]):>14} {m['unit']}")
    if "growth.engine_kernel_s" in metrics:
        print(f"  {'growth.engine_kernel_s':<44} {fmt(metrics['growth.engine_kernel_s']):>14} s")
    if "wall_s" in result:
        print(f"  unscaled: wall_s {fmt(result['wall_s'])} s, setup_s "
              f"{fmt(statistics.median(setup_raw))} s, calibration loop "
              f"{fmt(statistics.median(c for p in result['passes'] for c in p['calib_s']))} s "
              f"(reference {REFERENCE_S} s)")
    for kind, secs in sorted(result.get("kind_s", {}).items()):
        print(f"  command {kind:<36} {fmt(secs):>14} s (median per pass, untraced)")
    if "engine_tags" in result:
        print(f"  growth engine tags: {result['engine_tags']}")
    if "self_s" in result:
        top = sorted(result["self_s"].items(), key=lambda kv: -kv[1])[:8]
        print("  largest self times (s, median per traced pass):")
        for name, secs in top:
            print(f"    {name:<42} {secs:.4f}")
    for key, fp in sorted(result["fingerprints"].items()):
        print(f"  fingerprint {key}: {json.dumps(fp, sort_keys=True)}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(f"  run files: {run_dir.relative_to(root)}  ({time.monotonic() - begin:.1f} s)")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
