"""Command-line interface.

Subcommands: ``closed-form``, ``compare``, ``sweep``, ``convergence``,
``verify``.  Exit codes: 0 success, 1 usage error, 2 validation error,
3 verification failure.

A flat ``key = value`` config file can pre-set any value flag; explicit
flags override it.  Seeds are accepted in decimal or 0x-prefixed hex.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import IndexOverflowError, ParameterError, WealthOverflowError
from .market import validate_params
from .report import (
    closed_form_csv,
    closed_form_json,
    comparison_csv,
    comparison_json,
    convergence_csv,
    convergence_json,
    run_compare,
    run_convergence,
    run_sweep,
)
from .closedform import compare_closed_form
from .verify import DEFAULT_SEED, run_verify

USAGE_ERROR, VALIDATION_ERROR, VERIFY_FAILURE = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; argparse's default would exit 2, which is
    # reserved for validation errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


# The type functions below raise ArgumentTypeError, whose message argparse
# prints as is; for a ValueError it would print the function's name instead.


def parse_seed(text: str) -> int:
    text = text.strip()
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be a decimal or 0x-hex integer, got {text!r}"
        ) from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 unsigned bits, got {text!r}")
    return value


def _split(text: str, convert, what: str) -> tuple:
    try:
        return tuple(convert(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated {what}, got {text!r}"
        ) from None


def _parse_grid(text: str) -> tuple[float, ...]:
    return _split(text, float, "numbers")


def _parse_steps(text: str) -> tuple[int, ...]:
    return _split(text, int, "integers")


def _convert(action: argparse.Action, text: str):
    # What argparse does to the flag's own value: its type, then its choices.
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"invalid choice {value!r} (choose from {choices})")
    return value


def load_config(path: str, actions: dict[str, argparse.Action]) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment.  A key names
    the dest of a value flag in ``actions``, which converts its value."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in actions:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _convert(actions[key], value.strip())
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ParameterError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _add_market_flags(parser):
    parser.add_argument("--M", type=float, default=1.0, help="total initial wealth")
    parser.add_argument("--rho", type=float, default=0.0, help="bond rate")
    parser.add_argument("--mu", type=float, default=0.5, help="stock drift")
    parser.add_argument("--sigma", type=float, default=1.0, help="stock volatility")
    parser.add_argument("--T", type=float, default=1.0, help="horizon")


def _add_common_flags(parser, draws=True, report=True):
    # Each command takes only the flags it reads: closed-form draws nothing,
    # verify writes no report format.
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", default="-", help="output file, '-' for stdout")
    if draws:
        parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED,
                            help="64-bit seed, decimal or 0x-hex")
        parser.add_argument("--chunks", type=int, default=os.cpu_count() or 1,
                            help="worker count (default: every core)")
    if report:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
        parser.add_argument("--no-timestamp", action="store_true",
                            help="omit the timestamp from JSON metadata")
    if draws and report:
        parser.add_argument("--samples", type=int, default=100_000,
                            help="Monte Carlo sample count")


def build_parser() -> _Parser:
    parser = _Parser(prog="insidermc",
                     description="Insider wealth under Skorokhod vs forward noise "
                                 "interpretations: closed forms and Monte Carlo checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    command_parsers = {}

    p = command_parsers["closed-form"] = sub.add_parser(
        "closed-form", help="closed-form expectations only")
    _add_market_flags(p)
    _add_common_flags(p, draws=False)

    p = command_parsers["compare"] = sub.add_parser(
        "compare", help="closed forms vs the three estimators")
    _add_market_flags(p)
    _add_common_flags(p)

    p = command_parsers["sweep"] = sub.add_parser(
        "sweep", help="compare across a one-parameter grid")
    _add_market_flags(p)
    _add_common_flags(p)
    p.add_argument("--sweep-field", dest="sweep_field",
                   choices=("rho", "mu", "sigma", "T"), default="sigma")
    p.add_argument("--grid", type=_parse_grid, default=(0.1, 0.2, 0.4),
                   help="comma-separated grid values")

    p = command_parsers["convergence"] = sub.add_parser(
        "convergence", help="Euler weak-convergence study")
    _add_market_flags(p)
    _add_common_flags(p)
    p.add_argument("--steps", type=_parse_steps, default=(16, 64, 256),
                   help="comma-separated step counts")

    p = command_parsers["verify"] = sub.add_parser(
        "verify", help="run the acceptance battery")
    _add_common_flags(p, report=False)

    parser.command_parsers = command_parsers
    return parser


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _apply_config(parser: _Parser, argv: list[str]) -> None:
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if known.config:
        # Every value flag of any subcommand but --config, so one file can
        # serve them all; a dest is the same flag wherever it appears.
        actions = {
            a.dest: a
            for command_parser in parser.command_parsers.values()
            for a in command_parser._actions
            if a.nargs != 0 and a.dest != "config"
        }
        config = load_config(known.config, actions)
        for command_parser in parser.command_parsers.values():
            known_dests = {a.dest for a in command_parser._actions}
            command_parser.set_defaults(
                **{k: v for k, v in config.items() if k in known_dests}
            )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
    except (ParameterError, OSError) as exc:
        print(f"insidermc: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except (ParameterError, WealthOverflowError, IndexOverflowError, OSError) as exc:
        print(f"insidermc: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


def _dispatch(args) -> int:
    if args.command == "verify":
        summary = run_verify(args.seed, args.chunks)
        _emit(summary.render(), args.out)
        return 0 if summary.passed else VERIFY_FAILURE

    p = validate_params(args.M, args.rho, args.mu, args.sigma, args.T)
    if args.command == "closed-form":
        rows, emitters = [compare_closed_form(p)], (closed_form_csv, closed_form_json)
    elif args.command == "compare":
        rows = [run_compare(p, args.samples, args.seed, args.chunks)]
        emitters = comparison_csv, comparison_json
    elif args.command == "sweep":
        rows = run_sweep(p, args.sweep_field, args.grid, args.samples, args.seed, args.chunks)
        emitters = comparison_csv, comparison_json
    else:
        rows = run_convergence(p, list(args.steps), args.samples, args.seed, args.chunks)
        emitters = convergence_csv, convergence_json
    to_csv, to_json = emitters
    # Closed forms draw nothing, so their JSON carries no seed or sample count.
    json_meta = () if args.command == "closed-form" else (args.seed, args.samples)
    timestamp = not args.no_timestamp
    _emit(to_csv(rows) if args.format == "csv" else to_json(rows, *json_meta, timestamp),
          args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
