"""Command-line front end.

Subcommands: saddle, partition, sample, tvd, limits, clt, oracle, spcheck.
Scalar reports are JSON, per-sample/per-row data is CSV. Every artifact
embeds the resolved configuration, the tool version, and (when sampling is
involved) the seed and RNG algorithm identifier, and contains no timestamps,
so identical invocations produce byte-identical files. Files are written
atomically (temp file in the target directory, then rename).

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4
regime-guard refusal.

A config file (--config, JSON object of flag names to values) supplies
defaults; explicit flags override it. List flags (--grid, --s-grid,
--triple) take finite numbers only. --workers is deprecated and will be
removed in the next release; it is accepted and has no effect: sampling runs
in one process, since a draw costs far less than the coefficient table each
worker process would rebuild, and per-index stream derivation makes results
independent of how a batch is split.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, CycleCapError, NumericalError, RegimeError
from .exact import (
    brute_force_distribution,
    exact_tv_distance,
    partition_function,
)
from .limits import (
    _cutoffs,
    _flatten,
    _process_counts,
    _top_lengths,
    _validated_grid,
    check_longest_critical,
    check_longest_diverging,
    clt_battery,
    poisson_process_battery,
    tightness_moment_estimate,
)
from .model import ConstraintModel, WeightArray
from .saddle import (
    admissibility_report,
    asymptotic_x,
    clt_h_calculus,
    mu_alpha_of,
    regime_report,
    saddle_point_coefficient,
    solve_model_saddle,
)
from .sampler import RNG_ID, sample_lengths


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=False, help="number of elements")
    p.add_argument("--alpha", type=int, default=None, help="explicit cycle-length cap")
    p.add_argument("--beta", type=float, default=None, help="cap exponent: alpha = floor(n^beta)")
    p.add_argument("--theta", type=float, default=1.0, help="cycle weight parameter")


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, default=None, help="JSON file of flag defaults")
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p.add_argument("--workers", type=int, default=None, help="deprecated; has no effect")


def _apply_config_file(args: argparse.Namespace, parser_defaults: dict):
    """Fill flags that are still at their parser default from the config file."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config file {args.config}: {e}")
    if not isinstance(file_values, dict):
        raise ConfigError("config file must hold a JSON object of flag values")
    for key, value in file_values.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"config file key {key!r} is not a flag of this subcommand")
        if getattr(args, attr) == parser_defaults.get(attr):
            setattr(args, attr, value)


def _model_from_args(args) -> ConstraintModel:
    if args.n is None:
        raise ConfigError("--n is required")
    n = int(args.n)
    alpha = getattr(args, "alpha", None)
    beta = getattr(args, "beta", None)
    if (alpha is None) == (beta is None):
        raise ConfigError("exactly one of --alpha / --beta must be given")
    if beta is not None:
        return ConstraintModel.from_exponent(n, float(beta), float(args.theta))
    return ConstraintModel(n=n, alpha=int(alpha), theta=float(args.theta))


def _resolved_config(args, skip=("config", "out", "workers", "func")) -> dict:
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and not k.startswith("_")
    }


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cyclecap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, data: str) -> None:
    if getattr(args, "out", None):
        _atomic_write(args.out, data)
    else:
        sys.stdout.write(data)


def _emit_json(args, result: dict, with_rng: bool = False) -> None:
    artifact = {
        "version": __version__,
        "config": _resolved_config(args),
        "result": result,
    }
    if with_rng:
        artifact["rng"] = RNG_ID
    # Reports arrive as dataclasses.asdict dicts; arrays and numpy scalars leave via .tolist().
    text = json.dumps(
        artifact, indent=2, sort_keys=True, allow_nan=True, default=lambda o: o.tolist()
    )
    _emit(args, text + "\n")


def _csv_header_lines(args, with_rng: bool) -> List[str]:
    lines = [
        f"# cyclecap {__version__}",
        f"# config: {json.dumps(_resolved_config(args), sort_keys=True)}",
    ]
    if with_rng:
        lines.append(f"# rng: {RNG_ID}")
    return lines


def _emit_csv(args, header: Sequence[str], rows, with_rng: bool = False) -> None:
    lines = _csv_header_lines(args, with_rng)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    _emit(args, "\n".join(lines) + "\n")


def _parse_float_list(text: str, flag: str) -> List[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"{flag} expects comma-separated numbers: {e}")
    if not values:
        raise ConfigError(f"{flag} expects at least one number, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{flag} expects finite numbers, got {text!r}")
    return values


def _parse_int_list(text: str, flag: str) -> List[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"{flag} expects comma-separated integers: {e}")
    if not values:
        raise ConfigError(f"{flag} expects at least one integer, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands


def _cmd_saddle(args) -> int:
    model = _model_from_args(args)
    sol = solve_model_saddle(model, c=args.c)
    report = regime_report(model)
    result = {
        "x": sol.x,
        "residual": sol.residual,
        "lambda": list(sol.log_lambdas),
        "mu_alpha": report.mu_alpha,
        "regime": report.classification,
        "regime_thresholds": list(report.thresholds),
    }
    try:
        result["asymptotic_x"] = asymptotic_x(args.c, model.n, model.alpha, model.theta).x
    except RegimeError:
        result["asymptotic_x"] = None
    _emit_json(args, result)
    return 0


def _cmd_partition(args) -> int:
    model = _model_from_args(args)
    logz = partition_function(model)
    result = {
        "log_z": logz.logval,
        "z": math.exp(logz.logval) if abs(logz.logval) < 700 else None,
    }
    _emit_json(args, result)
    return 0


def _cmd_sample(args) -> int:
    model = _model_from_args(args)
    if args.count is None:
        raise ConfigError("--count is required")
    if args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    if args.seed is None:
        raise ConfigError("--seed is required when sampling")
    if args.emit == "process":
        if not args.grid:
            raise ConfigError("--grid is required for --emit process")
        mu_a = mu_alpha_of(model)
        grid = _validated_grid(_parse_float_list(args.grid, "--grid"))  # before any draw
        d = _cutoffs(grid, mu_a, model.alpha)
    batch = sample_lengths(model, args.count, args.seed)
    if args.emit == "types":
        rows = []
        for i, lengths in enumerate(batch):
            uniq, cnt = np.unique(lengths, return_counts=True)
            type_str = " ".join(f"{j}^{c}" for j, c in zip(uniq, cnt))
            rows.append((i, len(lengths), type_str))
        _emit_csv(args, ("index", "n_cycles", "type"), rows, with_rng=True)
    elif args.emit == "longest":
        rows = [(i, *top) for i, top in enumerate(_top_lengths(*_flatten(batch), len(batch), 3))]
        _emit_csv(args, ("index", "ell1", "ell2", "ell3"), rows, with_rng=True)
    else:  # process
        rows = [(i, *counts) for i, counts in enumerate(_process_counts(batch, d))]
        _emit_csv(
            args,
            ("index", *(f"P_{t:g}" for t in grid)),
            rows,
            with_rng=True,
        )
    return 0


def _cmd_tvd(args) -> int:
    model = _model_from_args(args)
    if args.b is None:
        raise ConfigError("--b is required")
    report = exact_tv_distance(model, args.b)
    _emit_json(args, report.to_json())
    return 0


def _cmd_oracle(args) -> int:
    model = _model_from_args(args)
    dist = brute_force_distribution(model)
    logz = partition_function(model)
    rows = []
    for t in sorted(dist, key=lambda t: t.key()):
        lp = dist[t].logval
        rows.append((repr(t), f"{lp!r}", f"{math.exp(lp)!r}"))
    lines = _csv_header_lines(args, with_rng=False)
    lines.append(f"# log_z: {logz.logval!r}")
    lines.append("type,log_p,p")
    lines.extend(",".join(r) for r in rows)
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_spcheck(args) -> int:
    model = _model_from_args(args)
    q = WeightArray.for_model(model)
    approx = saddle_point_coefficient(q, model.n)
    exact_log = partition_function(model).logval
    result = {
        "log_exact": exact_log,
        "log_approx": approx.logval,
        "ratio": math.exp(approx.logval - exact_log),
        "admissibility": dataclasses.asdict(admissibility_report(q, model.n)),
    }
    _emit_json(args, result)
    return 0


def _cmd_limits(args) -> int:
    model = _model_from_args(args)
    if args.check is None:
        raise ConfigError("--check is required")
    if args.samples is None:
        raise ConfigError("--samples is required")
    if args.seed is None:
        raise ConfigError("--seed is required when sampling")
    check = args.check
    # List flags are parsed before any draw.
    if check == "process":
        if not args.grid:
            raise ConfigError("--grid is required for the process battery")
        grid = _parse_float_list(args.grid, "--grid")
    elif check == "tightness":
        triple = _parse_float_list(args.triple, "--triple")
        if len(triple) != 3:
            raise ConfigError("--triple expects 't1,t,t2'")
    elif check == "clt":
        if not args.m_list:
            raise ConfigError("--m-list is required for the clt battery")
        m_list = _parse_int_list(args.m_list, "--m-list")
    batch = sample_lengths(model, args.samples, args.seed)
    if check == "diverging":
        fields = {"K": args.K, "fraction": check_longest_diverging(batch, model, args.K)}
    else:
        if check == "critical":
            report = check_longest_critical(batch, model, args.k, args.d_max)
        elif check == "process":
            report = poisson_process_battery(batch, model, grid, subbatches=args.subbatches)
        elif check == "tightness":
            report = tightness_moment_estimate(batch, model, *triple)
        else:  # clt
            report = clt_battery(model, m_list, args.samples, seed=args.seed, samples=batch)
        fields = dataclasses.asdict(report)
    result = {"check": check, **fields, "regime": regime_report(model).classification}
    _emit_json(args, result, with_rng=True)
    return 0


def _cmd_clt(args) -> int:
    model = _model_from_args(args)
    if args.m_list is None:
        raise ConfigError("--m-list is required")
    m_list = _parse_int_list(args.m_list, "--m-list")
    s_grid = _parse_float_list(args.s_grid, "--s-grid")
    entries = [
        {"m": m, **dataclasses.asdict(clt_h_calculus(model, m, s))} for m in m_list for s in s_grid
    ]
    result = {"h_calculus": entries}
    if args.samples:
        if args.seed is None:
            raise ConfigError("--seed is required when sampling")
        battery = clt_battery(model, m_list, args.samples, seed=args.seed)
        result["battery"] = dataclasses.asdict(battery)
        _emit_json(args, result, with_rng=True)
    else:
        _emit_json(args, result)
    return 0


# ---------------------------------------------------------------------------
# dispatch


def _build_parser() -> _Parser:
    parser = _Parser(prog="cyclecap", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("saddle", help="tilt equation, lambdas, regime", parents=[])
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--c", type=float, default=1.0, help="target multiplier: sum q_j x^j = c*n")
    p.set_defaults(func=_cmd_saddle)

    p = sub.add_parser("partition", help="log of the normalizing constant Z")
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("sample", help="exact cycle-type samples as CSV")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--emit", choices=("types", "longest", "process"), default="types")
    p.add_argument("--grid", type=str, default=None, help="t values for --emit process")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("tvd", help="exact TV distance to independent Poissons")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--b", type=int, default=None, help="prefix length")
    p.set_defaults(func=_cmd_tvd)

    p = sub.add_parser("limits", help="limit-theorem batteries")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument(
        "--check",
        choices=("diverging", "critical", "process", "tightness", "clt"),
        default=None,
    )
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", type=str, default=None)
    p.add_argument("--K", type=int, default=5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d-max", dest="d_max", type=int, default=30)
    p.add_argument("--subbatches", type=int, default=1)
    p.add_argument("--triple", type=str, default="0,1,2")
    p.add_argument("--m-list", dest="m_list", type=str, default=None)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("clt", help="h(s) calculus and normal-limit battery")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--m-list", dest="m_list", type=str, default=None)
    p.add_argument("--s-grid", dest="s_grid", type=str, default="0")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("oracle", help="brute-force distribution (n <= 12) as CSV")
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("spcheck", help="saddle-point approximation vs exact coefficient")
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_spcheck)

    parser.subcommands = dict(sub.choices)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, dispatch, map errors to exit codes (0/2/3/4)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 2
        defaults = {
            a.dest: a.default for a in parser.subcommands[args.command]._actions
        }
        _apply_config_file(args, defaults)
        return args.func(args)
    except SystemExit as e:  # argparse --help
        code = e.code if isinstance(e.code, int) else 0
        return code
    except RegimeError as e:
        print(f"regime guard: {e}", file=sys.stderr)
        return 4
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except CycleCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
