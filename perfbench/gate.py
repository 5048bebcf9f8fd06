"""Correctness gate: every CLI output is checked before it counts as done.

Each check returns (ok, fingerprint, reason). The fingerprint holds the
answer (ball counts, r, n, k, kappa, kappa_mode, omega), so a pass whose
answer differs from the first pass of the same run counts as failed, and a
changed answer between commits is visible in the run report.
"""

import json

from workloads import LOG3

# certified bounds are logs of integers divided by integers; allow roundoff
_TOL = 1e-12


def read_csv_balls(text):
    balls = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("n,"):
            continue
        n, ball = line.split(",")[:2]
        if int(n) != len(balls):
            raise ValueError(f"radius {n} out of order")
        balls.append(int(ball))
    return balls


def check_growth(cfg, rc, out_path):
    if rc != 0:
        return False, None, f"exit code {rc}"
    try:
        with open(out_path, encoding="utf-8") as fh:
            balls = read_csv_balls(fh.read())
    except (OSError, ValueError) as exc:
        return False, None, f"unreadable CSV: {exc}"
    n_max = cfg.payload["budgets"]["n_max"]
    if len(balls) != n_max + 1:
        return False, None, f"CSV stops at radius {len(balls) - 1}, expected {n_max}"
    for n, ball in enumerate(balls):
        if ball != cfg.reference(n):
            return False, None, f"ball {n} is {ball}, reference {cfg.reference(n)}"
    return True, {"balls": balls[-1], "n_max": n_max}, ""


def cert_fingerprint(cert):
    return {k: cert[k] for k in ("r", "n", "k", "kappa", "kappa_mode", "omega_lower", "mode")}


def check_verify_bound(cfg, rc, out_path):
    if rc != 0:
        return False, None, f"exit code {rc}"
    try:
        with open(out_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return False, None, f"unreadable summary: {exc}"
    lo, hi = summary.get("omega_lower"), summary.get("omega_upper")
    cert = summary.get("certificate")
    if not isinstance(lo, float) or not isinstance(hi, float) or cert is None:
        return False, None, "summary lacks omega_lower, omega_upper or a certificate"
    if lo > hi:
        return False, None, f"omega_lower {lo} > omega_upper {hi}"
    if cfg.free_rank2 and lo > LOG3 + _TOL:
        return False, None, f"omega_lower {lo} exceeds log 3"
    if cert.get("omega_lower") != lo:
        return False, None, "summary and certificate disagree on omega_lower"
    fp = dict(cert_fingerprint(cert), omega_upper=hi)
    return True, fp, ""


def check_free_basis(rc, out_path, verified_cert=None):
    if rc != 0:
        return False, None, f"exit code {rc}"
    try:
        with open(out_path, encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, ValueError) as exc:
        return False, None, f"unreadable certificate: {exc}"
    if verified_cert is not None and cert != verified_cert:
        return False, None, "free-basis certificate differs from verify-bound's"
    return True, cert_fingerprint(cert), ""


def check_cert_summary(rc, summary, cert):
    """The checker must accept the certificate and restate its numbers."""
    if rc != 0:
        return False, None, f"exit code {rc}"
    if not isinstance(summary, dict) or summary.get("valid") is not True:
        return False, None, "checker did not report valid: true"
    for key in ("r", "kappa", "omega_lower"):
        if summary.get(key) != cert.get(key):
            return False, None, f"checker {key} {summary.get(key)!r} != certificate {cert.get(key)!r}"
    return True, {"valid": True, "kappa_mode": cert.get("kappa_mode")}, ""


def check_cert_output(rc, out_path, cert):
    if rc != 0:
        return False, None, f"exit code {rc}"
    try:
        with open(out_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return False, None, f"unreadable checker output: {exc}"
    return check_cert_summary(rc, summary, cert)
