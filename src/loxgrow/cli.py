"""Batch front end: one JSON config in, CSV/JSON out, exit codes as contract.

Commands
--------
growth        ball counts as CSV (n, ball, sphere, upper_bound, ratio_estimate)
free-basis    run the pipeline and write the free-basis certificate JSON
verify-bound  growth brackets + certificate summary JSON
delta         empirical four-point defect of the configured backend
classify      isometry type of each configured generator
check-cert    re-verify a certificate file produced by free-basis

Exit codes: 0 success, 2 elementary subgroup detected, 3 budget exceeded,
4 configuration error, 5 invalid certificate.  Diagnostics go to stderr;
results go to --out or stdout.
"""

import argparse
import json
import sys

from . import __version__
from .errors import (
    BudgetExceeded,
    ConfigError,
    ElementaryDetected,
    InvalidCertificate,
    LoxgrowError,
    SearchExhausted,
)
from .freebasis import (
    SearchBudgets,
    build_free_basis,
    certificate_payload,
    check_certificate,
    verify_theorem,
)
from .growth import ball_sizes
from .hypcore import estimate_delta
from .spaces import make_backend, word_str
from .words import DEFAULT_MEMORY_CAP, make_generating_set

# unused here; perfbench/tracing.py patches these two names on this module
from .freebasis import find_short_loxodromic  # noqa: F401
from .words import product_ball_set  # noqa: F401

_TOP_KEYS = {"backend", "generators", "symmetrize", "seed", "budgets"}
_BUDGET_KEYS = {"n_max", "memory_cap", "max_n", "max_k", "exact_check_len", "max_rounds"}
_DEFAULT_N_MAX = 8


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means "elementary" here, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def load_config(path, need_generators=True):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "backend" not in data:
        raise ConfigError("config needs a 'backend' section")
    gens = data.get("generators")
    if need_generators and not gens:
        raise ConfigError("config needs a nonempty 'generators' list")
    if gens is not None and not isinstance(gens, list):
        raise ConfigError("'generators' must be a list")
    if not isinstance(data.get("symmetrize", True), bool):
        raise ConfigError("'symmetrize' must be a boolean")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("'seed' must be an integer")
    budgets = data.get("budgets", {})
    if not isinstance(budgets, dict):
        raise ConfigError("'budgets' must be an object")
    unknown = set(budgets) - _BUDGET_KEYS
    if unknown:
        raise ConfigError(f"unknown budget keys: {sorted(unknown)}")
    for key, val in budgets.items():
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise ConfigError(f"budget {key} must be a positive integer, got {val!r}")
    return data


def _search_budgets(budgets: dict) -> SearchBudgets:
    kwargs = {k: budgets[k] for k in ("max_n", "max_k", "exact_check_len", "max_rounds")
              if k in budgets}
    return SearchBudgets(**kwargs)


def _generating_set(config):
    backend = make_backend(config["backend"])
    return make_generating_set(backend, config["generators"],
                               symmetrize=config.get("symmetrize", True))


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_growth(args) -> int:
    config = load_config(args.config)
    S = _generating_set(config)
    budgets = config.get("budgets", {})
    n_max = args.max_radius if args.max_radius is not None else budgets.get("n_max", _DEFAULT_N_MAX)
    table = ball_sizes(S, n_max, memory_cap=budgets.get("memory_cap", DEFAULT_MEMORY_CAP))
    _emit(table.to_csv(), args.out)
    if table.truncated:
        print(f"growth table truncated at radius {table.n_max}", file=sys.stderr)
        return 3
    return 0


def cmd_free_basis(args) -> int:
    config = load_config(args.config)
    S = _generating_set(config)
    budgets = config.get("budgets", {})
    cert = build_free_basis(S, _search_budgets(budgets),
                            memory_cap=budgets.get("memory_cap", DEFAULT_MEMORY_CAP))
    _emit(_json(certificate_payload(cert)), args.out)
    return 0


def cmd_verify_bound(args) -> int:
    config = load_config(args.config)
    S = _generating_set(config)
    budgets = config.get("budgets", {})
    n_max = args.max_radius if args.max_radius is not None else budgets.get("n_max", _DEFAULT_N_MAX)
    rep = verify_theorem(
        S,
        n_max,
        _search_budgets(budgets),
        memory_cap=budgets.get("memory_cap", DEFAULT_MEMORY_CAP),
        seed=config.get("seed", 0),
    )
    summary = {
        "version": __version__,
        "omega_lower": rep.omega_lower,
        "omega_hat": rep.omega_hat,
        "omega_upper": rep.omega_upper,
        "log_card_S": rep.log_card_S,
        "theta_hat": rep.theta_hat,
        "escalation_rounds": rep.escalation_rounds,
        "elementary": rep.elementary,
        "elementary_reason": rep.elementary_reason,
        "certificate": certificate_payload(rep.cert) if rep.cert is not None else None,
    }
    _emit(_json(summary), args.out)
    if rep.elementary is not None:
        print(f"elementary subgroup: {rep.elementary_reason}", file=sys.stderr)
        return 2
    if rep.table.truncated:
        print(f"growth table truncated at radius {rep.table.n_max}", file=sys.stderr)
        return 3
    return 0


def cmd_delta(args) -> int:
    config = load_config(args.config, need_generators=False)
    backend = make_backend(config["backend"])
    seed = config.get("seed", 0)
    samples = 1000
    est = estimate_delta(backend, samples, seed)
    payload = {
        "version": __version__,
        "backend": backend.config(),
        "delta_configured": backend.delta,
        "delta_empirical": est,
        "samples": samples,
        "seed": seed,
    }
    _emit(_json(payload), args.out)
    return 0


def cmd_classify(args) -> int:
    config = load_config(args.config)
    backend = make_backend(config["backend"])
    rows = []
    for spec in config["generators"]:
        g = backend.element(spec)
        cls = backend.classify(g)
        rows.append({
            "input": spec,
            "word": word_str(g.word),
            "kind": cls.kind,
            "translation_length": backend.translation_length(g),
        })
    _emit(_json({"version": __version__, "elements": rows}), args.out)
    return 0


def cmd_check_cert(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read certificate {args.certificate}: {exc}") from exc
    summary = check_certificate(blob)
    _emit(_json({"version": __version__, **summary}), args.out)
    return 0


def _add_ignored_engine(p):
    # there is one engine; older command lines (and perfbench's traced runs)
    # still pass --engine auto|python, which is accepted and ignored
    p.add_argument("--engine", default="auto", choices=("auto", "python"), help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="loxgrow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"loxgrow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, config_arg=True):
        p = sub.add_parser(name, help=help_text)
        if config_arg:
            p.add_argument("config", help="path to the run-config JSON")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.set_defaults(func=func)
        return p

    g = add("growth", cmd_growth, "ball counts as CSV")
    g.add_argument("--max-radius", type=int, default=None, help="override budgets.n_max")
    _add_ignored_engine(g)

    add("free-basis", cmd_free_basis, "free-subgroup certificate JSON")

    v = add("verify-bound", cmd_verify_bound, "growth brackets + certificate summary")
    v.add_argument("--max-radius", type=int, default=None, help="override budgets.n_max")
    _add_ignored_engine(v)

    add("delta", cmd_delta, "empirical four-point defect")
    add("classify", cmd_classify, "isometry type per generator")

    c = sub.add_parser("check-cert", help="re-verify a certificate file")
    c.add_argument("certificate", help="path to the certificate JSON")
    c.add_argument("--out", default=None, help="write output here instead of stdout")
    c.set_defaults(func=cmd_check_cert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ElementaryDetected as exc:
        print(f"elementary subgroup detected: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, SearchExhausted) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InvalidCertificate as exc:
        print(f"invalid certificate: {exc}", file=sys.stderr)
        return 5
    except (ConfigError, LoxgrowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
