"""Command-line front end: experiments, verification suites, oracle queries.

Exit codes: 0 success, 1 verification failure (a FAIL line, or a report that
fails its schema self-check), 2 usage, config or output-file error.  Every
subcommand is deterministic given its flags; there are no environment knobs.

verify and oracle only map flags onto the library: the suites and the oracle
hold their own defaults and rules, and a ValueError from them exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import operator
import re
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
from jsonschema import SchemaError, ValidationError

from .geometry import Completion
from .protocols import PROTOCOL_IDS, symmetrize
from .quantum import DegenerateAxisError, EntanglementParam
from .runtime import (
    ExperimentConfig,
    load_settings_csv,
    run_experiment,
    write_report,
)
from .verify import (
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
    # Compiled on the first simulate, not at import.  The schema itself is
    # checked against its metaschema once, in the tests, not on every run.
    return _compile(report_schema())


# ---------------------------------------------------------------------------
# The report check, compiled once from the schema file into nested closures.
# It follows jsonschema's draft 2020-12 semantics for the keywords the schema
# uses, and refuses any other keyword or form when it compiles, so the file
# stays the one statement of the rules and no part of it goes unchecked.
# ---------------------------------------------------------------------------

_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_ANNOTATIONS = frozenset({"title", "description", "$defs"})


class _Invalid(Exception):
    """A violation; path collects the keys and indices above it, innermost first."""

    def __init__(self, keyword: str, message: str):
        super().__init__(message)
        self.keyword = keyword
        self.path = []


def _is_number(x) -> bool:
    # a bool is not a number; the exact-type tests are the fast path
    return type(x) is float or type(x) is int or (
        not isinstance(x, bool) and isinstance(x, numbers.Number)
    )


def _is_integer(x) -> bool:
    # 1.0 is an integer, True is not
    return (isinstance(x, int) and not isinstance(x, bool)) or (
        isinstance(x, float) and x.is_integer()
    )


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": _is_integer,
}


def _compile(schema: dict):
    """check(instance) for a schema; it raises ValidationError on the first violation.

    Raises SchemaError for a keyword or a form the checker does not implement.
    """
    if not isinstance(schema, dict) or schema.get("$schema") != _DRAFT:
        raise SchemaError(f"the schema must declare $schema {_DRAFT!r}")
    refs: dict = {}
    root = _node({k: v for k, v in schema.items() if k != "$schema"}, schema, refs)

    def check(instance) -> None:
        try:
            root(instance)
        except _Invalid as exc:
            path = exc.path[::-1]
            where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
            raise ValidationError(
                f"{where}: {exc.keyword}: {exc}", validator=exc.keyword, path=path
            ) from None

    return check


def _need(ok: bool, keyword: str, value) -> None:
    if not ok:
        raise SchemaError(f"unsupported form {keyword}: {value!r}")


def _node(schema, root: dict, refs: dict):
    """One subschema as check(x), raising _Invalid; its keywords run in file order."""
    _need(isinstance(schema, dict), "subschema", schema)
    checks = []
    for keyword, value in schema.items():
        if keyword in _ANNOTATIONS:
            continue
        make = _KEYWORDS.get(keyword)
        if make is None:
            raise SchemaError(f"unsupported keyword {keyword!r}")
        checks.append(make(value, schema, root, refs))
    if len(checks) == 1:
        return checks[0]

    def node(x) -> None:
        for check in checks:
            check(x)

    return node


def _type(value, schema, root, refs):
    # one name, or a non-empty list of distinct names
    names = [value] if isinstance(value, str) else value
    known = isinstance(names, list) and all(isinstance(n, str) and n in _TYPES for n in names)
    _need(known and 0 < len(set(names)) == len(names), "type", value)
    tests = [_TYPES[n] for n in names]
    # a single name keeps its own test, with no loop over alternatives
    test = tests[0] if len(tests) == 1 else lambda x: any(t(x) for t in tests)
    label = ", ".join(map(repr, names))

    def check(x):
        if not test(x):
            raise _Invalid("type", f"{x!r} is not of type {label}")

    return check


def _enum(values, schema, root, refs):
    _need(isinstance(values, list) and values, "enum", values)
    values = tuple(values)
    _need(all(v is None or type(v) in (str, int, float) for v in values), "enum", values)

    def check(x):
        # jsonschema's equal() on scalars: True and False never equal 1 and 0
        if x is True or x is False or x not in values:
            raise _Invalid("enum", f"{x!r} is not one of {list(values)!r}")

    return check


def _bound(keyword, fails, relation):
    def make(limit, schema, root, refs):
        _need(_is_number(limit), keyword, limit)

        def check(x):
            # Only numbers are bounded; NaN compares false and passes.
            if _is_number(x) and fails(x, limit):
                raise _Invalid(keyword, f"{x!r} is {relation} the {keyword} of {limit!r}")

        return check

    return make


def _pattern(text, schema, root, refs):
    _need(isinstance(text, str), "pattern", text)
    search = re.compile(text).search

    def check(x):
        if isinstance(x, str) and not search(x):
            raise _Invalid("pattern", f"{x!r} does not match {text!r}")

    return check


def _required(names, schema, root, refs):
    _need(isinstance(names, list) and all(isinstance(n, str) for n in names), "required", names)

    def check(x):
        if isinstance(x, dict):
            for name in names:
                if name not in x:
                    raise _Invalid("required", f"{name!r} is a required property")

    return check


def _properties(props, schema, root, refs):
    _need(isinstance(props, dict), "properties", props)
    pairs = tuple((name, _node(sub, root, refs)) for name, sub in props.items())

    def check(x):
        if isinstance(x, dict):
            for name, sub in pairs:
                if name in x:
                    try:
                        sub(x[name])
                    except _Invalid as exc:
                        exc.path.append(name)
                        raise

    return check


def _additional_properties(value, schema, root, refs):
    _need(value is False, "additionalProperties", value)
    known = frozenset(schema.get("properties", ()))

    def check(x):
        if isinstance(x, dict) and not known.issuperset(x):
            extra = ", ".join(sorted(repr(k) for k in x if k not in known))
            raise _Invalid("additionalProperties", f"unexpected {extra}")

    return check


def _items(sub, schema, root, refs):
    item = _node(sub, root, refs)

    def check(x):
        if isinstance(x, list):
            for i, v in enumerate(x):
                try:
                    item(v)
                except _Invalid as exc:
                    exc.path.append(i)
                    raise

    return check


def _length(keyword, fails, relation):
    def make(limit, schema, root, refs):
        _need(type(limit) is int and limit >= 0, keyword, limit)

        def check(x):
            if isinstance(x, list) and fails(len(x), limit):
                raise _Invalid(keyword, f"{len(x)} items is {relation} the {keyword} of {limit}")

        return check

    return make


def _ref(ref, schema, root, refs):
    # A flat local pointer (#/$defs/name), compiled once however often it is
    # referenced.  A self-referring definition recurses here at compile time.
    _need(isinstance(ref, str) and ref.startswith("#/"), "$ref", ref)
    if ref not in refs:
        target = root
        for part in ref[2:].split("/"):
            _need(isinstance(target, dict) and part in target, "$ref", ref)
            target = target[part]
        refs[ref] = _node(target, root, refs)
    return refs[ref]


_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "minimum": _bound("minimum", operator.lt, "less than"),
    "maximum": _bound("maximum", operator.gt, "greater than"),
    "pattern": _pattern,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _length("minItems", operator.lt, "fewer than"),
    "maxItems": _length("maxItems", operator.gt, "more than"),
    "$ref": _ref,
}


# Each suite and the keyword each flag it reads maps onto; any other flag is a
# usage error.
_SUITES = {
    "kernel": (suite_kernel, {"rounds": "rounds", "seed": "seed"}),
    "flip": (suite_flip, {"rounds": "trials", "seed": "seed"}),
    "epr2": (suite_epr2, {"gamma": "gamma", "grid": "grid_n"}),
    "mbox": (suite_mbox, {"rounds": "rounds", "seed": "seed"}),
    "oracle": (suite_oracle, {"gamma": "gamma", "rounds": "rounds", "seed": "seed"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mboxsim",
        description="Classical simulation of two-qubit measurement statistics "
        "from shared randomness, one cbit, and one comparison-box call per round.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment and write a report")
    sim.add_argument("--protocol", required=True, choices=PROTOCOL_IDS)
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
    ver.add_argument("suite", choices=tuple(_SUITES))
    ver.add_argument("--gamma", type=float, default=None, help="epr2 and oracle only")
    ver.add_argument("--grid", type=int, default=None, help="epr2 only")
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


def cmd_simulate(args, parser) -> int:
    if args.csv is not None and Path(args.csv).resolve() == Path(args.out).resolve():
        parser.error(f"--csv and --out name the same file: {args.csv!r}")
    source = None
    if args.settings.startswith("random:"):
        try:
            n = int(args.settings.split(":", 1)[1])
        except ValueError:
            n = 0
        if n < 1:
            parser.error(f"--settings random:N needs integer N >= 1, got {args.settings!r}")
        source = {"random_settings": n}
    # A settings-file, config, target or output-file error exits 2 on one line;
    # a report that fails its own schema exits 1 and is never written.
    try:
        if source is None:
            source = {"settings": load_settings_csv(args.settings)}
        config = ExperimentConfig(
            protocol=args.protocol,
            gamma=args.gamma,
            rounds=args.rounds,
            seed=args.seed,
            completion=args.completion,
            **source,
        )
        report = run_experiment(config)
        _report_validator()(report)
        write_report(report, args.out, args.csv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except jsonschema.ValidationError as exc:
        print(f"internal error: report failed schema self-check: {exc.message}", file=sys.stderr)
        return 1
    print(
        f"wrote {args.out}: {len(report['records'])} settings x {config.rounds} rounds, "
        f"max TV distance {report['summary']['max_tv']:.6f}"
    )
    return 0


def cmd_verify(args, parser) -> int:
    suite, keywords = _SUITES[args.suite]
    kwargs = {}
    for flag in ("gamma", "grid", "rounds", "seed"):
        value = getattr(args, flag)
        if value is not None:
            if flag not in keywords:
                parser.error(f"the {args.suite} suite does not read --{flag}")
            kwargs[keywords[flag]] = value
    try:
        checks = suite(**kwargs)
    except ValueError as exc:
        # name the flag the user typed, not the suite's keyword behind it
        flags = {keyword: f"--{flag}" for flag, keyword in keywords.items()}
        parser.error(re.sub(rf"\b({'|'.join(flags)})\b", lambda m: flags[m[1]], str(exc)))
    for check in checks:
        print(check)
    return 0 if all(c.passed for c in checks) else 1


def cmd_oracle(args, parser) -> int:
    a = _parse_vec(parser, args.a, "--a")
    b = _parse_vec(parser, args.b, "--b")
    # The branch average lives in the reflected frame (both z >= 0).
    a, b, sign_a, sign_b = symmetrize(a, b)
    p, q = (1, 1) if args.branch_label == "pq+" else (1, -1)
    try:
        param = EntanglementParam(args.gamma)
        oracle = exact_mu_average(param, a, b, Completion(args.completion), p, q, args.protocol)
    except ValueError as exc:
        parser.error(str(exc))
    reflected = [name for name, sign in (("a", sign_a), ("b", sign_b)) if sign < 0]
    if reflected:
        print(f"note: reflected {', '.join(reflected)} into the upper hemisphere")
    print(f"oracle ({args.completion}): {oracle!r}")
    try:
        claim = branch_correlation_claim(param, a, b, p, q, args.protocol)
    except DegenerateAxisError as exc:
        # The engine falls back to the setting there, so only the claim is undefined.
        print(f"claimed scalar product: undefined ({exc})")
        return 0
    print(f"claimed scalar product: {claim!r}")
    print(f"residual: {abs(oracle - claim)!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
