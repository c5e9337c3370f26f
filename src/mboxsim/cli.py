"""Command-line front end: experiments, verification suites, oracle queries.

Exit codes: 0 success, 1 verification failure (a FAIL line, or a report that
fails its schema self-check), 2 usage, config or output-file error.  Every
subcommand is deterministic given its flags; there are no environment knobs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
from jsonschema.validators import validator_for

from .geometry import Completion
from .protocols import symmetrize
from .quantum import EntanglementParam
from .runtime import ExperimentConfig, load_settings_csv, run_experiment, write_report
from .verify import (
    DEFAULT_SEED,
    branch_correlation_claim,
    exact_mu_average,
    suite_epr2,
    suite_flip,
    suite_kernel,
    suite_mbox,
    suite_oracle,
)

__all__ = ["build_parser", "main", "report_schema"]

_COMPLETION_TAGS = tuple(c.value for c in Completion)


def report_schema() -> dict:
    """The JSON schema every written report is validated against."""
    text = resources.files("mboxsim").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


@functools.cache
def _report_validator():
    # Built on the first simulate, not at import.  The schema itself is
    # checked against its metaschema once, in the tests, not on every run.
    schema = report_schema()
    return validator_for(schema)(schema)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mboxsim",
        description="Classical simulation of two-qubit measurement statistics "
        "from shared randomness, one cbit, and one comparison-box call per round.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment and write a report")
    sim.add_argument("--protocol", required=True, choices=("p1", "p2", "tb"))
    sim.add_argument("--gamma", required=True, type=float, help="state angle in radians")
    sim.add_argument(
        "--settings",
        required=True,
        help="settings CSV path, or random:N for a seeded draw",
    )
    sim.add_argument("--rounds", required=True, type=int, help="rounds per setting")
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--completion", required=True, choices=_COMPLETION_TAGS)
    sim.add_argument("--out", required=True, help="JSON report path")
    sim.add_argument("--csv", default=None, help="optional flat CSV report path")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite", choices=("kernel", "flip", "epr2", "mbox", "oracle"))
    ver.add_argument("--gamma", type=float, default=None, help="epr2 and oracle only")
    ver.add_argument("--grid", type=int, default=None, help="epr2 only (default 20)")
    ver.add_argument("--rounds", type=int, default=None, help="every suite but epr2")
    ver.add_argument("--seed", type=int, default=None, help="every suite but epr2")
    ver.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="query the exact enumeration oracle")
    orc.add_argument("query", choices=("mu-average",))
    orc.add_argument("--protocol", required=True, choices=("p1", "p2"))
    orc.add_argument("--gamma", required=True, type=float)
    orc.add_argument("--a", required=True, help="Alice setting as x,y,z")
    orc.add_argument("--b", required=True, help="Bob setting as x,y,z")
    orc.add_argument("--branch", dest="branch_label", required=True, choices=("pq+", "pq-"))
    orc.add_argument("--completion", default=Completion.NORMALIZE.value, choices=_COMPLETION_TAGS)
    orc.set_defaults(func=cmd_oracle)

    return parser


def _parse_vec(parser: argparse.ArgumentParser, text: str, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        parser.error(f"{flag} must be three comma-separated numbers, got {text!r}")
    try:
        v = np.array([float(x) for x in parts])
    except ValueError:
        parser.error(f"{flag} must be three comma-separated numbers, got {text!r}")
    norm = float(np.linalg.norm(v))
    if not math.isfinite(norm) or norm <= 0.0:
        parser.error(f"{flag} is not a direction: {text!r}")
    return v / norm


def _parse_gamma(parser: argparse.ArgumentParser, gamma: float, entangled: bool, who: str):
    try:
        param = EntanglementParam(gamma)
    except ValueError as exc:
        parser.error(str(exc))
    if entangled and param.sin2g <= 0.0:
        parser.error(f"{who} requires gamma > 0")
    return param


def cmd_simulate(args, parser) -> int:
    if args.csv is not None and Path(args.csv).resolve() == Path(args.out).resolve():
        parser.error(f"--csv and --out name the same file: {args.csv!r}")
    if args.settings.startswith("random:"):
        try:
            n = int(args.settings.split(":", 1)[1])
        except ValueError:
            n = 0
        if n < 1:
            parser.error(f"--settings random:N needs integer N >= 1, got {args.settings!r}")
        source = {"random_settings": n}
    else:
        try:
            source = {"settings": load_settings_csv(args.settings)}
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        config = ExperimentConfig(
            protocol=args.protocol,
            gamma=args.gamma,
            rounds=args.rounds,
            seed=args.seed,
            completion=args.completion,
            **source,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run_experiment(config)
    try:
        payload = write_report(report, args.out, args.csv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _report_validator().validate(payload)
    except jsonschema.ValidationError as exc:
        print(f"internal error: report failed schema self-check: {exc.message}", file=sys.stderr)
        return 1
    print(
        f"wrote {args.out}: {len(report.records)} settings x {config.rounds} rounds, "
        f"max TV distance {report.max_tv:.6f}"
    )
    return 0


# The flags each suite reads; giving it any other is a usage error.
_SUITE_FLAGS = {
    "mbox": ("rounds", "seed"),
    "kernel": ("rounds", "seed"),
    "flip": ("rounds", "seed"),
    "epr2": ("gamma", "grid"),
    "oracle": ("gamma", "rounds", "seed"),
}


def cmd_verify(args, parser) -> int:
    for flag in ("gamma", "grid", "rounds", "seed"):
        if getattr(args, flag) is not None and flag not in _SUITE_FLAGS[args.suite]:
            parser.error(f"the {args.suite} suite does not read --{flag}")
    # A standard error needs two rounds; the kernel and oracle suites estimate one.
    min_rounds = 2 if args.suite in ("kernel", "oracle") else 1
    if args.rounds is not None and args.rounds < min_rounds:
        parser.error(
            f"--rounds must be >= {min_rounds} for the {args.suite} suite, got {args.rounds}"
        )
    if args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error(f"--seed must fit in 64 bits, got {args.seed}")
    if args.grid is not None and args.grid < 10:
        parser.error(f"--grid must be >= 10, got {args.grid}")
    if args.gamma is not None:
        # epr2 and oracle run the nonlocal-part protocol or its decomposition
        _parse_gamma(parser, args.gamma, True, f"the {args.suite} suite")
    if args.rounds is not None:
        rounds = args.rounds
    else:
        rounds = 1000 if args.suite == "flip" else 200_000
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.suite == "mbox":
        checks = suite_mbox(rounds=rounds, seed=seed)
    elif args.suite == "kernel":
        checks = suite_kernel(rounds=rounds, seed=seed)
    elif args.suite == "flip":
        checks = suite_flip(trials=rounds, seed=seed)
    elif args.suite == "epr2":
        checks = suite_epr2(gamma=args.gamma, grid_n=20 if args.grid is None else args.grid)
    else:
        checks = suite_oracle(
            gamma=args.gamma if args.gamma is not None else math.pi / 8,
            rounds=rounds,
            seed=seed,
        )
    for check in checks:
        print(check)
    return 0 if all(c.passed for c in checks) else 1


def cmd_oracle(args, parser) -> int:
    a = _parse_vec(parser, args.a, "--a")
    b = _parse_vec(parser, args.b, "--b")
    param = _parse_gamma(parser, args.gamma, args.protocol == "p2", "protocol 2")
    # The branch average lives in the reflected frame (both z >= 0).
    a, b, sign_a, sign_b = symmetrize(a, b)
    reflected = [name for name, sign in (("a", sign_a), ("b", sign_b)) if sign < 0]
    if reflected:
        print(f"note: reflected {', '.join(reflected)} into the upper hemisphere")
    p, q = (1, 1) if args.branch_label == "pq+" else (1, -1)
    oracle = exact_mu_average(param, a, b, Completion(args.completion), p, q, args.protocol)
    claim = branch_correlation_claim(param, a, b, p, q, args.protocol)
    print(f"oracle ({args.completion}): {oracle!r}")
    print(f"claimed scalar product: {claim!r}")
    print(f"residual: {abs(oracle - claim)!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
