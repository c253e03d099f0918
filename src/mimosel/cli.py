"""Command-line front end.

Subcommands: ``mc`` runs the Monte Carlo experiment from a config file,
with overrides from the command line, ``cost`` prints the closed-form
cost-model table, and ``oracle-check`` compares the heuristics against the
exhaustive oracle on a small instance.

Exit status is 0 on success and nonzero with a single-line error message
on stderr otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys

from .channel import _AT_LEAST_1, _UNIT_OPEN
from .complexity import _COST_COLUMNS, _MODELED, CostQuery, relative_cost
from .harness import (
    _ORACLE_COLUMNS,
    ExperimentConfig,
    _typed,
    emit,
    oracle_check,
    parse_value,
    run_monte_carlo,
    table_text,
    write_text,
)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line and exit status 1.

    A token that starts like a negative number is a value, not an option,
    as ``--p0 -90,-95`` needs: no option name starts with a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _flag(kind: type, check=None):
    """argparse type: flag text parsed and checked like a config value."""

    def parse(text: str):
        try:
            return _typed("value", kind, check, parse_value(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _config_list(text: str) -> list:
    return parse_value(f"[{text}]")


# Flags of ``mc`` that override the config key they name:
# (flag, config key, parser of the flag text, help).
_RUN_OVERRIDES = (
    ("--seed", "master_seed", parse_value, "override the master seed"),
    ("--trials", "trials", parse_value, "override the trial count"),
    ("--workers", "workers", parse_value,
     "parallel worker processes, capped at the CPUs this process may use"),
    ("--format", "output.format", str, "output format: csv or json"),
    ("--out", "output.path", str, "output path (default: config output.path or stdout)"),
    ("--m", "grid.m", _config_list, "override antenna counts, e.g. 4,8"),
    ("--u", "grid.u", _config_list, "override user-pool sizes"),
    ("--p0", "grid.p0_dbm", _config_list, "override target powers in dBm"),
    ("--l", "ssus.l", _config_list, "override basis counts"),
    ("--alpha", "ssus.alpha", _config_list, "override correlation thresholds"),
)


def _cmd_run(args) -> int:
    keys = ["timing"] + [key for _, key, _, _ in _RUN_OVERRIDES]
    overrides = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    cfg = ExperimentConfig.from_file(args.config, overrides)
    rows = run_monte_carlo(cfg)
    text = emit(rows, cfg.output_format, cfg.output_path)
    if cfg.output_path is None:
        sys.stdout.write(text)
    return 0


def _cmd_cost(args) -> int:
    queries = []
    for m in args.m:
        k = max(1, m // 2) if args.k_mode == "half" else m
        for method in _MODELED:
            queries.append(CostQuery(method=method, u=args.u, m=m, k=k, l=args.l))
    _write(table_text(relative_cost(queries), _COST_COLUMNS, args.format), args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    rows = oracle_check(
        m=args.m,
        u=args.u,
        trials=args.trials,
        master_seed=args.seed,
        k_max=args.k_max,
        num_bases=args.l,
        alpha=args.alpha,
    )
    _write(table_text(rows, _ORACLE_COLUMNS, args.format), args.out)
    violations = sum(r["violations"] for r in rows)
    if violations:
        print(f"error: {violations} trials beat the exhaustive oracle", file=sys.stderr)
        return 1
    return 0


def _write(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        write_text(text, path)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mimosel",
        description="MU-MIMO uplink user-selection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mc = sub.add_parser("mc", help="Monte Carlo run over a config file")
    p_mc.add_argument("--config", required=True, help="experiment config file")
    p_mc.add_argument("--timing", dest="timing", action="store_true", default=None,
                      help="emit measured wall times (off by default so "
                           "outputs are reproducible byte for byte)")
    for flag, key, parse, help_text in _RUN_OVERRIDES:
        p_mc.add_argument(flag, dest=key, type=parse, metavar=flag[2:].upper(), help=help_text)
    p_mc.set_defaults(func=_cmd_run)

    p_cost = sub.add_parser("cost", help="closed-form cost-model table")
    count = _flag(int, _AT_LEAST_1)
    p_cost.add_argument("--u", type=count, default=100, help="candidate pool size")
    p_cost.add_argument("--m", type=lambda text: tuple(map(count, text.split(","))),
                        default=(2, 4, 8, 16),
                        help="antenna counts, e.g. 2,4,8,16")
    p_cost.add_argument("--l", type=count, default=1, help="basis count for the split method")
    p_cost.add_argument("--k-mode", choices=("half", "full"), default="half",
                        help="selected users per scenario: K=M/2 or K=M")
    p_cost.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cost.add_argument("--out", help="output path (default stdout)")
    p_cost.set_defaults(func=_cmd_cost)

    p_oracle = sub.add_parser("oracle-check",
                              help="compare heuristics to the exhaustive oracle")
    p_oracle.add_argument("--m", type=count, default=4)
    p_oracle.add_argument("--u", type=count, default=8)
    p_oracle.add_argument("--trials", type=count, default=50)
    p_oracle.add_argument("--seed", type=_flag(int), default=1234)
    p_oracle.add_argument("--k-max", type=count, default=None)
    p_oracle.add_argument("--l", type=count, default=10, help="basis count")
    p_oracle.add_argument("--alpha", type=_flag(float, _UNIT_OPEN), default=0.45)
    p_oracle.add_argument("--format", choices=("csv", "json"), default="csv")
    p_oracle.add_argument("--out", help="output path (default stdout)")
    p_oracle.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle-check" and args.k_max is not None and args.k_max > args.m:
        parser.error(f"argument --k-max: value must be <= --m ({args.m}), got {args.k_max}")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
