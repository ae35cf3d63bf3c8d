"""Command-line front end for the experiments and probes.

One subcommand per experiment. Options resolve in three layers: built-in
defaults, then a flat JSON config file given with --config, then explicit
flags, which always win. Every command honors --seed and is run-to-run
deterministic. Each command is a build step and a run: the build step makes
every object the command needs (model spec, initializer, stop rule, sweep
config, quadrature rule, probe grid) and runs every check that needs no
data; the run computes and writes the files. --dry-run runs the build step
and prints the resolved plan, so it exits 1 exactly where the run would
before computing, with the same message, and creates nothing. Only this
module writes files. All floating-point output is printed with 17
significant digits so values round-trip exactly.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import deviation as dev
from . import experiments as exp
from .initializers import InitSpec, make_init
from .model import ModelSpec, SampleStream, sample_dataset
from .population import (PopulationState, _check_sandwich, _check_trajectory, build_rule,
                         invert_q, population_trajectory, sandwich_sequences)
from .rng import derive_seed
from .sample_em import StopRule, run_em
from .svg import write_json, write_line_chart, write_table

__all__ = ["main", "run", "CliError"]


class CliError(Exception):
    """Invalid flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; funnel everything through
    # CliError instead so the documented exit codes hold.
    def error(self, message):
        raise CliError(f"{message}\n{self.format_usage()}")


_UNSET = "\x00unset"


@dataclass(frozen=True)
class _Opt:
    typ: str  # int | float | str | ints | floats | vec
    default: object
    help: str


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


# scalar option type -> (conversion, JSON/flag value types it accepts), and
# list option type -> the scalar type of its items
_SCALARS = {"int": (int, (int, str)), "float": (float, (int, float, str)), "str": (str, (str,))}
_ITEMS = {"ints": "int", "floats": "float", "vec": "float"}


def _coerce(name: str, typ: str, value):
    """Coerce a flag string or a JSON value to the option's type. A list
    option takes a comma-separated string or a JSON list, and each item
    follows the scalar rule of its item type."""
    try:
        if typ in _SCALARS:
            return _scalar(typ, value)
        if not isinstance(value, (str, list)):
            raise ValueError
        items = value.split(",") if isinstance(value, str) else value
        return tuple(_scalar(_ITEMS[typ], v) for v in items)
    except (TypeError, ValueError):
        raise CliError(f"invalid value for '{name}': {value!r} (expected {typ})") from None


def _scalar(typ: str, value):
    # a float is no int and a boolean no number, though Python converts them
    convert, accepted = _SCALARS[typ]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError
    return convert(value)


_COMMON = {
    "seed": _Opt("int", 0, "master seed; every command is deterministic in it"),
    "out": _Opt("str", "out", "output directory, created if missing"),
}

# Initializer names; "fixed" is accepted only by commands that take --theta0,
# and the MLE probe takes no zero start, which is a fixed point of the EM map.
_INITS = ("random", "spectral", "fixed", "zero")
_INITS_NO_FIXED = ("random", "spectral", "zero")
_INITS_MLE = ("random", "spectral")
_INIT_KINDS = {"random": "random_sphere", "random_sphere": "random_sphere",
               "spectral": "spectral", "fixed": "fixed", "zero": "zero"}

# Options several commands take: one type and help each, defaults per command.
_SHARED = {
    "d": ("int", "dimension"),
    "s": ("float", "norm of the true center"),
    "n": ("int", "sample size"),
    "order": ("int", "quadrature order"),
    "replicates": ("int", "Monte Carlo replicates per grid point"),
    "dtype": ("str", "EM inner-loop dtype: float64|float32"),
    "c0": ("float", "scale constant of the random-sphere initializer"),
    # only the sweeps take it; the other commands reject --threads
    "threads": ("int", "sweep worker threads, each running BLAS on one thread; "
                "0 = number of cores"),
}


def _opts(**defaults) -> dict[str, _Opt]:
    return {name: _Opt(_SHARED[name][0], v, _SHARED[name][1]) for name, v in defaults.items()}


def _init_opt(default: str, names: tuple[str, ...]) -> _Opt:
    return _Opt("str", default, "initializer: " + "|".join(names))


_EM_OPTS = {
    "init": _init_opt("fixed", _INITS),
    **_opts(c0=1.0),
    "theta0": _Opt("vec", (1.0,), "comma-separated start vector for --init fixed"),
    "max_iters": _Opt("int", 0, "iteration cap; 0 = ceil(c_iter * sqrt(n))"),
    "c_iter": _Opt("float", 10.0, "budget constant in ceil(c_iter * sqrt(n))"),
    "rel_tol": _Opt("float", 1e-8, "relative step tolerance of the stop rule"),
}

_SPECS: dict[str, dict[str, _Opt]] = {
    "trajectory": {**_opts(d=1, s=0.0, n=10_000), **_EM_OPTS, **_COMMON},
    "rate-sweep": {
        **_opts(d=1, s=0.0),
        "n_grid": _Opt("ints", (1_000, 10_000, 100_000), "sample sizes, comma-separated"),
        **_opts(replicates=20, dtype="float64", threads=0),
        **_EM_OPTS,
        **_COMMON,
    },
    "risk-compare": {
        **_opts(d=10),
        "s_grid": _Opt("floats", (0.1, 0.3, 1.0), "center norms, comma-separated"),
        **_opts(n=100_000, replicates=20),
        "estimators": _Opt("str", "em,spectral,zero", "estimators to score"),
        **_opts(dtype="float64", threads=0),
        **{k: v for k, v in _EM_OPTS.items() if k != "theta0"},
        # without --theta0 a fixed start cannot be expressed
        "init": _init_opt("random", _INITS_NO_FIXED),
        **_COMMON,
    },
    "population": {
        "alpha0": _Opt("float", 0.1, "initial signal coordinate"),
        "beta0": _Opt("float", 0.7, "initial orthogonal coordinate"),
        **_opts(s=0.35),
        "iters": _Opt("int", 60, "number of population steps"),
        **_opts(order=80),
        **_COMMON,
    },
    "sandwich": {
        "theta0": _Opt("float", 0.5, "common start of both envelopes"),
        **_opts(s=1.0),
        "w": _Opt("float", 0.05, "relative perturbation of the envelopes"),
        "iters": _Opt("int", 200, "number of steps"),
        **_opts(order=80),
        **_COMMON,
    },
    "deviation": {
        **_opts(d=2, s=1.0, n=100_000),
        "directions": _Opt("int", 32, "random probe directions"),
        "radii": _Opt("int", 24, "log-spaced probe radii"),
        **_opts(order=80),
        **_COMMON,
    },
    "mle-probe": {
        **_opts(d=2, s=1.0, n=100_000),
        "burn_in": _Opt("int", 200, "steps before the observation window"),
        "extra": _Opt("int", 20, "length of the observation window"),
        "init": _init_opt("random", _INITS_MLE),
        **_opts(c0=1.0),
        **_COMMON,
    },
    "figure2": {**_opts(order=80), **_COMMON},
    "sublinear": {
        "iters": _Opt("int", 10_000, "number of population steps"),
        **_opts(order=80),
        **_COMMON,
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="em2gm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for cmd, opts in _SPECS.items():
        p = sub.add_parser(cmd, help=f"run the {cmd} experiment")
        for name, opt in opts.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           default=_UNSET, metavar=opt.typ.upper(), help=opt.help)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat JSON file with the keys above; flags override it")
        p.add_argument("--dry-run", dest="dry_run", action="store_true",
                       help="validate and print the resolved plan, then exit")
    return parser


def _resolve(cmd: str, args: argparse.Namespace) -> dict:
    opts = _SPECS[cmd]
    resolved = {name: opt.default for name, opt in opts.items()}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError(f"malformed JSON in config file {args.config}: {e}") from None
        if not isinstance(loaded, dict):
            raise CliError(f"config file {args.config} must hold a JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_")
            if norm not in opts:
                raise CliError(f"unknown config key '{key}' for command '{cmd}'")
            resolved[norm] = _coerce(norm, opts[norm].typ, value)
    for name, opt in opts.items():
        value = getattr(args, name)
        if value is not _UNSET:
            resolved[name] = _coerce(name, opt.typ, value)
    # 0 threads or max_iters picks the default; a deviation grid needs a
    # direction and a radius, a sample two rows (as every sweep cell does, and
    # the random start's radius needs log n > 0); anything less is a typo
    for name, least in (("threads", 0), ("max_iters", 0), ("directions", 1), ("radii", 1),
                        ("n", 2)):
        if resolved.get(name, least) < least:
            raise CliError(f"--{name.replace('_', '-')} must be >= {least}, got {resolved[name]}")
    # the seed keys a Philox stream directly
    if not 0 <= resolved["seed"] < 2**64:
        raise CliError(f"--seed must be in [0, 2**64), got {resolved['seed']}")
    return resolved


def _init_spec(cfg: dict, names: tuple[str, ...]) -> InitSpec:
    kind = _INIT_KINDS.get(cfg["init"])
    if kind not in {_INIT_KINDS[name] for name in names}:
        raise CliError(f"unknown init '{cfg['init']}'; expected one of {', '.join(names)}")
    if kind != "fixed":
        return InitSpec(kind=kind, c0=cfg["c0"])
    if len(cfg["theta0"]) != cfg["d"]:
        raise CliError(f"--theta0 has length {len(cfg['theta0'])}, expected d={cfg['d']}")
    return InitSpec(kind="fixed", fixed_value=cfg["theta0"], c0=cfg["c0"])


def _sweep_config(cfg: dict, n_grid, s_grid, inits) -> exp.ExperimentConfig:
    return exp.ExperimentConfig.from_product(
        n_grid, [cfg["d"]], s_grid,
        replicates=cfg["replicates"], init=_init_spec(cfg, inits),
        master_seed=cfg["seed"], rel_tol=cfg["rel_tol"],
        c_iter=cfg["c_iter"], max_iters=cfg["max_iters"], dtype=cfg["dtype"],
        threads=cfg["threads"] or os.cpu_count() or 1)  # 0 means one per core


def _write_states(path: Path, states) -> None:
    write_table(path, ("t", "alpha", "beta"), range(len(states)),
                [st.alpha for st in states], [st.beta for st in states])


# Each _cmd_* is a command's build step: it makes the command's objects,
# runs its data-free checks and returns the run, which computes, writes its
# files into the output directory and returns the line to print.
_Run = Callable[[Path], str]


def _cmd_trajectory(cfg: dict) -> _Run:
    spec = ModelSpec.along_axis(cfg["s"], cfg["d"])
    init = _init_spec(cfg, _INITS)
    stop = StopRule.for_n(cfg["n"], cfg["c_iter"], cfg["rel_tol"], cfg["max_iters"])

    def run(out: Path) -> str:
        data = sample_dataset(spec, cfg["n"], cfg["seed"])
        theta0 = make_init(init, data, seed=derive_seed(cfg["seed"], 1))
        traj = run_em(data, theta0, stop, keep_iterates=True)
        path = out / "trajectory.csv"
        traj.to_csv(path)
        t = np.arange(len(traj))
        write_line_chart(out / "trajectory.svg", t,
                         {"loss": traj.loss, "alpha": traj.alpha, "beta": traj.beta},
                         title="EM trajectory", xlabel="t", ylabel="value")
        return f"final_loss={_fmt(traj.loss[-1])} stop={traj.stop_reason.value} -> {path}"

    return run


def _cmd_rate_sweep(cfg: dict) -> _Run:
    config = _sweep_config(cfg, cfg["n_grid"], [cfg["s"]], _INITS)

    def run(out: Path) -> str:
        result = exp.rate_sweep(config)
        path = out / "rate_sweep.csv"
        result.to_csv(path)
        result.summary_to_json(out / "rate_sweep.summary.json")
        summary = result.summaries[0]
        write_line_chart(out / "rate_sweep.svg", summary.n_values,
                         {"mean loss": summary.mean_loss},
                         title="mean final loss vs n", xlabel="n", ylabel="loss",
                         logx=True, logy=True)
        slope = "nan" if summary.slope is None else _fmt(summary.slope)
        return f"slope={slope} -> {path}"

    return run


def _cmd_risk_compare(cfg: dict) -> _Run:
    estimators = tuple(e.strip() for e in cfg["estimators"].split(",") if e.strip())
    config = _sweep_config(cfg, [cfg["n"]], cfg["s_grid"], _INITS_NO_FIXED)
    exp._check_estimators(estimators)

    def run(out: Path) -> str:
        comparison = exp.risk_compare(config, estimators)
        results = comparison.results
        for name, result in results.items():
            result.to_csv(out / f"risk_{name}.csv")
        write_json(out / "risk.summary.json",
                   {name: [s.to_dict() for s in result.summaries]
                    for name, result in results.items()})
        losses = {name: [comparison.mean_loss(name, cfg["n"], cfg["d"], s) for s in cfg["s_grid"]]
                  for name in estimators}
        write_line_chart(out / "risk.svg", cfg["s_grid"], losses,
                         title="mean loss vs s", xlabel="s", ylabel="loss")
        stats = " ".join(f"{name}={_fmt(np.mean(losses[name]))}" for name in estimators)
        return f"mean_loss[{estimators[0]} first] {stats} -> {out / 'risk.summary.json'}"

    return run


def _cmd_population(cfg: dict) -> _Run:
    rule = build_rule(cfg["order"])
    init = PopulationState(cfg["alpha0"], cfg["beta0"])
    _check_trajectory(cfg["s"], cfg["iters"])

    def run(out: Path) -> str:
        states = population_trajectory(init, cfg["s"], cfg["iters"], rule)
        path = out / "population.csv"
        _write_states(path, states)
        write_line_chart(out / "population.svg", np.arange(len(states)),
                         {"alpha": [st.alpha for st in states],
                          "beta": [st.beta for st in states]},
                         title="population EM", xlabel="t", ylabel="coordinate")
        return (f"final_alpha={_fmt(states[-1].alpha)} "
                f"final_beta={_fmt(states[-1].beta)} -> {path}")

    return run


def _cmd_sandwich(cfg: dict) -> _Run:
    rule = build_rule(cfg["order"])
    theta0, s, w = cfg["theta0"], cfg["s"], cfg["w"]
    _check_sandwich(theta0, s, w, cfg["iters"])

    def run(out: Path) -> str:
        upper, lower = sandwich_sequences(theta0, s, w, cfg["iters"], rule)
        path = out / "sandwich.csv"
        write_table(path, ("t", "lower", "upper"), range(len(upper)), lower, upper)
        write_line_chart(out / "sandwich.svg", np.arange(len(upper)),
                         {"upper": upper, "lower": lower},
                         title="sandwich envelopes", xlabel="t", ylabel="theta")
        lim_hi = invert_q(1.0 - w, s, rule) if w < 1.0 else math.nan
        return (f"final_lower={_fmt(lower[-1])} final_upper={_fmt(upper[-1])} "
                f"upper_limit={_fmt(lim_hi)} -> {path}")

    return run


def _cmd_deviation(cfg: dict) -> _Run:
    rule = build_rule(cfg["order"])
    spec = ModelSpec.along_axis(cfg["s"], cfg["d"])
    data = SampleStream(spec, cfg["n"], cfg["seed"])
    grid = dev.default_probe_grid(spec, derive_seed(cfg["seed"], 1),
                                  n_directions=cfg["directions"], n_radii=cfg["radii"])

    def run(out: Path) -> str:
        probe = dev.relative_lipschitz_probe(data, grid, rule)
        path = out / "deviation.csv"
        probe.to_csv(path)
        return f"sup_ratio={_fmt(probe.sup_ratio)} -> {path}"

    return run


def _cmd_mle_probe(cfg: dict) -> _Run:
    spec = ModelSpec.along_axis(cfg["s"], cfg["d"])
    init = _init_spec(cfg, _INITS_MLE)
    exp._check_window(cfg["burn_in"], cfg["extra"])

    def run(out: Path) -> str:
        data = sample_dataset(spec, cfg["n"], cfg["seed"])
        theta0 = make_init(init, data, seed=derive_seed(cfg["seed"], 1))
        probe = exp.mle_contraction_probe(data, theta0, cfg["burn_in"], cfg["extra"])
        path = out / "mle_probe.csv"
        probe.to_csv(path)
        max_r = "none" if probe.max_ratio is None else _fmt(probe.max_ratio)
        return f"max_ratio={max_r} window={probe.ratios.size} -> {path}"

    return run


def _cmd_figure2(cfg: dict) -> _Run:
    rule = build_rule(cfg["order"])

    def run(out: Path) -> str:
        result = exp.figure2_reproduction(rule)
        _write_states(out / "figure2_nonmonotone.csv", result.non_monotone_run)
        _write_states(out / "figure2_monotone.csv", result.monotone_run)
        path = out / "figure2_flags.json"
        write_json(path, {"non_monotone_pass": result.non_monotone_pass,
                          "monotone_pass": result.monotone_pass,
                          "beta_decreasing_after_first": result.beta_decreasing_after_first})
        write_line_chart(out / "figure2.svg",
                         np.arange(len(result.non_monotone_run)),
                         {"alpha (0.1,0.7)": [st.alpha for st in result.non_monotone_run],
                          "alpha (0.1,0.1)": [st.alpha for st in result.monotone_run]},
                         title="population signal coordinate, s=0.35",
                         xlabel="t", ylabel="alpha")
        return (f"non_monotone_pass={result.non_monotone_pass} "
                f"monotone_pass={result.monotone_pass} -> {path}")

    return run


def _cmd_sublinear(cfg: dict) -> _Run:
    rule = build_rule(cfg["order"])
    exp._check_sublinear(cfg["iters"])

    def run(out: Path) -> str:
        probe = exp.sublinear_rate_probe(rule, T=cfg["iters"])
        path = out / "sublinear.csv"
        write_table(path, ("t", "theta"), range(len(probe.thetas)), probe.thetas)
        t = np.arange(1, len(probe.thetas))
        write_line_chart(out / "sublinear.svg", t, {"theta_t": probe.thetas[1:]},
                         title="signal-free population decay", xlabel="t",
                         ylabel="theta", logx=True, logy=True)
        return f"slope={_fmt(probe.slope)} -> {path}"

    return run


_HANDLERS = {
    "trajectory": _cmd_trajectory,
    "rate-sweep": _cmd_rate_sweep,
    "risk-compare": _cmd_risk_compare,
    "population": _cmd_population,
    "sandwich": _cmd_sandwich,
    "deviation": _cmd_deviation,
    "mle-probe": _cmd_mle_probe,
    "figure2": _cmd_figure2,
    "sublinear": _cmd_sublinear,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError(parser.format_usage())
        cfg = _resolve(args.command, args)
        command = _HANDLERS[args.command](cfg)
        if args.dry_run:
            plan = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
            print(f"dry-run {args.command}: {plan}")
            return 0
        out = Path(cfg["out"])
        os.makedirs(out, exist_ok=True)
        print(command(out))
        return 0
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
