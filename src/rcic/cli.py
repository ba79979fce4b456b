"""Command line front end: experiment runs, oracle checks, scalability slices.

Every flag of `run` and `scalability` except --config can also come from a
key=value config file (--config); flags given on the command line win.  File
keys are the command's own flag names with underscores, e.g.
`rumor_size = 150`, `algo = topk,bab`; a key the command has no flag for is
an error.  The library only computes report rows; this module writes them to
--out (stdout when absent) in --format, also the rows computed before a
solver error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    ALGORITHMS,
    SWEEP_AXES,
    ExperimentConfig,
    run_experiment,
    run_scalability,
    write_rows,
)
from .blocking import LogisticParams
from .exact import check_envelope_dominance, find_submodularity_violation


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _load_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    """The file's values for `parser`'s flags, converted and checked like the
    flags."""
    actions = {a.dest: a for a in parser._actions
               if a.dest not in ("config", "help")}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in actions:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            action = actions[key]
            convert = (_parse_bool if isinstance(action, argparse._StoreTrueAction)
                       else action.type or str)
            value = convert(text.strip())
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{path}:{lineno}: {key} must be one of "
                                 f"{', '.join(action.choices)}, got {value!r}")
            values[key] = value
    return values


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config",
                   help="key=value file supplying any of this command's flags")
    p.add_argument("--graph", help="edge-list file path")
    p.add_argument("--directed", action="store_true", default=False,
                   help="treat edges as directed (undirected by default)")
    p.add_argument("--algo", help="comma-separated subset of: "
                                  + ",".join(ALGORITHMS))
    p.add_argument("--k", type=int, help="protector budget")
    p.add_argument("--rumor-size", type=int, dest="rumor_size")
    p.add_argument("--rumor-seed", type=int, dest="rumor_seed")
    p.add_argument("-T", type=int, dest="T", help="walk length threshold")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--samples", type=int, help="walks per start node (X)")
    p.add_argument("--rho", type=float, help="progressive threshold decay")
    p.add_argument("--epsilon", type=float,
                   help="with --delta, derive X from the sampling bound")
    p.add_argument("--delta", type=float)
    p.add_argument("--sweep", help="AXIS=v1,v2,... with AXIS one of: "
                                   + ",".join(SWEEP_AXES))
    p.add_argument("--node-cap", type=int, dest="node_cap",
                   help="branch-and-bound expansion cap")
    p.add_argument("--time-cap", type=float, dest="time_cap",
                   help="branch-and-bound wall-time cap in seconds")
    p.add_argument("--seed", type=int, help="walk sampling seed")
    p.add_argument("--threads", type=int,
                   help="worker threads for the walk pass")
    p.add_argument("--out", help="report path; stdout when omitted")
    p.add_argument("--format", choices=("csv", "json"))


def _add_scalability_flags(p: argparse.ArgumentParser) -> None:
    _add_run_flags(p)
    p.add_argument("--fractions",
                   help="ascending node fractions, e.g. 0.2,0.4,0.6,0.8,1.0")


def _parse_sweep(text: str):
    axis, sep, values = text.partition("=")
    axis = axis.strip().replace("-", "_")
    if not sep or not values:
        raise ValueError(f"bad sweep spec {text!r}; expected AXIS=v1,v2,...")
    return axis, tuple(float(v) for v in values.split(","))


def _build_config(args) -> ExperimentConfig:
    if args.graph is None:
        raise ValueError("no graph given (--graph or config file)")

    kwargs = {"graph_path": args.graph, "directed": args.directed}
    if args.algo is not None:
        kwargs["algorithms"] = tuple(a.strip() for a in args.algo.split(",")
                                     if a.strip())
    if args.sweep is not None:
        kwargs["sweep_axis"], kwargs["sweep_values"] = _parse_sweep(args.sweep)
    if args.samples is not None:
        kwargs["X"] = args.samples
    for key in ("k", "rumor_size", "rumor_seed", "T", "alpha", "beta", "rho",
                "epsilon", "delta", "node_cap", "time_cap", "seed", "threads"):
        if getattr(args, key) is not None:
            kwargs[key] = getattr(args, key)
    return ExperimentConfig(**kwargs)


def _run_and_emit(args, run) -> int:
    """Call run(rows), then write its rows to --out (stdout when absent) in
    --format, also the rows computed before an error."""
    rows = []
    try:
        run(rows)
    finally:
        fmt = args.format or "csv"
        if rows and args.out is None:
            write_rows(rows, sys.stdout, fmt)
        elif rows:
            with open(args.out, "w") as fh:
                write_rows(rows, fh, fmt)
            print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = _build_config(args)
    return _run_and_emit(args, lambda rows: run_experiment(config, rows))


def _cmd_scalability(args) -> int:
    config = _build_config(args)
    if args.fractions is None:
        raise ValueError("--fractions is required")
    return _run_and_emit(args, lambda rows: run_scalability(
        config, [float(f) for f in args.fractions.split(",")], rows))


def _cmd_oracle(args) -> int:
    params = LogisticParams(args.alpha, args.beta)
    rng = np.random.default_rng(args.seed)
    if args.check == "dominance":
        bad = check_envelope_dominance(params, args.trials, rng)
        if bad is None:
            print(f"dominance: pass ({args.trials} probes)")
            return 0
        print(f"dominance: FAIL {bad}")
        return 1
    if args.check == "submodularity":
        witness = find_submodularity_violation(params, args.trials, rng)
        if witness is not None:
            print("objective is not submodular: "
                  f"gain {witness.gain_given_B:.6g} given B={sorted(witness.B)} "
                  f"> gain {witness.gain_given_A:.6g} given A={sorted(witness.A)} "
                  f"for node {witness.v}")
            return 0
        print(f"no violation found in {args.trials} trials")
        return 1
    witness = find_submodularity_violation(params, args.trials, rng,
                                           envelope=True)
    if witness is None:
        print(f"envelope submodularity: pass ({args.trials} probes)")
        return 0
    print(f"envelope submodularity: FAIL {witness}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcic",
        description="Rumor containment benchmarks: random-walk sampling, "
                    "logistic influence block, bound-driven protector selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment or sweep")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run, parser=p_run)

    p_scal = sub.add_parser("scalability",
                            help="repeat a run on nested BFS slices")
    _add_scalability_flags(p_scal)
    p_scal.set_defaults(func=_cmd_scalability, parser=p_scal)

    p_or = sub.add_parser("oracle", help="randomized property checks")
    p_or.add_argument("--check", required=True,
                      choices=("dominance", "submodularity",
                               "envelope-submodularity"))
    p_or.add_argument("--trials", type=int, default=10_000)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--alpha", type=float, default=3.0)
    p_or.add_argument("--beta", type=float, default=1.0)
    p_or.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values become the command's defaults, so any flag
            # given on the command line wins, also one given as 0
            args.parser.set_defaults(**_load_config_file(args.config,
                                                         args.parser))
            args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:  # any failure of a command is reported, exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
