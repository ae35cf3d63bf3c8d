"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed sequence of operations made from the seed. An
operation is one command through the public entry point ``em2gm.cli.main``,
or one probe through the public library where the CLI has no command. Each
operation writes its outputs into its own directory; its check reads them
back and returns the problems it finds, an empty list when the output is
correct.

Why these workloads:

* ``sweep-1d-null``: criterion 02's configuration, the sweep that misses its
  wall-clock budget. Single-threaded and bound by the d=1 EM kernel; its n
  grid runs from cells dominated by Python overhead (8 steps at n=1e3) to a
  4 MB float32 dataset. With rel_tol 0 every cell runs its full budget, so
  the work does not depend on the seed.
* ``risk-10d``: the command users run by default, on the d>=2 matvec kernel,
  with sampling, the random and spectral starts and sweep threads on top of
  BLAS threads (``--threads`` left at its default). ``--c-iter 2`` instead of
  the default 10: at 10 the s=0.1 cell stops anywhere between 988 and 3163
  steps depending on the seed, which spreads the time by about 30% from seed
  to seed; at 2 that cell always runs its 633-step budget, while the s=0.3
  and s=1 cells still stop early after a data-dependent count (about 230 and
  26 steps).
* ``diag-2d``: the diagnostics. ``sample_em`` is used as a float64 batch over
  192 probe points and as a full-diagnostic ``run_em``, while ``iterate_em``
  does no work; it covers the quadrature, the W1 probe and many small CSV and
  SVG writes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import em2gm.cli as cli
import em2gm.deviation as deviation
import em2gm.model as model
import em2gm.population as population
import em2gm.rng as rng
import em2gm.sample_em as sample_em

SWEEP_REPLICATES = 2
RISK_REPLICATES = 2
# Slope tolerance of the sweep check: 3.7 standard deviations of the fitted
# slope at 2 replicates (0.027, measured over 25 seeds).
SWEEP_SLOPE_TOL = 0.1


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[Path], str]                  # out dir -> printed summary
    check: Callable[[Path, str], list[str]]      # out dir, summary -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    sweep_threads: int | None   # resolved sweep thread count; None without a sweep


def _cli(*argv: str) -> Callable[[Path], str]:
    def call(out: Path) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"em2gm {argv[0]} exited with code {code}")
        return buf.getvalue()
    return call


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a numeric CSV file by header name."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    return {name: values[:, j] for j, name in enumerate(header)}


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON value {token}")


def output_problems(out: Path) -> list[str]:
    """Problems common to every operation: unreadable or non-finite values."""
    problems = []
    for path in sorted(out.rglob("*")):
        try:
            if path.suffix == ".csv":
                cols = read_csv(path)
                bad = sum(int(np.count_nonzero(~np.isfinite(c))) for c in cols.values())
                if bad:
                    problems.append(f"{path.name}: {bad} non-finite values")
            elif path.suffix == ".json":
                with open(path, encoding="utf-8") as fh:
                    json.load(fh, parse_constant=_reject_constant)
        except ValueError as e:
            problems.append(f"{path.name}: {e}")
    return problems


def _no_check(out: Path, text: str) -> list[str]:
    return []


def _check_sweep(out: Path, text: str) -> list[str]:
    rows = read_csv(out / "rate_sweep.csv")
    problems = []
    if rows["n"].size != 4 * SWEEP_REPLICATES:
        problems.append(f"rate_sweep.csv has {rows['n'].size} rows")
    for n, iters in zip(rows["n"], rows["iters"]):
        if iters != math.ceil(0.25 * math.sqrt(n)):
            problems.append(f"cell n={n:g} stopped after {iters:g} steps, before its budget")
    with open(out / "rate_sweep.summary.json", encoding="utf-8") as fh:
        slope = json.load(fh)[0]["slope"]
    if slope is None or abs(slope + 0.25) > SWEEP_SLOPE_TOL:
        problems.append(f"slope {slope} is not -0.25 +/- {SWEEP_SLOPE_TOL}")
    return problems


def _check_risk(out: Path, text: str) -> list[str]:
    em, zero = read_csv(out / "risk_em.csv"), read_csv(out / "risk_zero.csv")
    problems = []
    for s in (0.3, 1.0):
        em_loss = em["final_loss"][np.isclose(em["s"], s)].mean()
        zero_loss = zero["final_loss"][np.isclose(zero["s"], s)].mean()
        if not em_loss < zero_loss:
            problems.append(f"s={s}: EM mean loss {em_loss} is not below "
                            f"the zero baseline {zero_loss}")
    return problems


def _check_deviation(out: Path, text: str) -> list[str]:
    ratios = read_csv(out / "deviation.csv")["ratio"]
    if ratios.size != 16 * 12 or np.any(ratios < 0.0):
        return [f"deviation.csv: {ratios.size} ratios, expected 192 nonnegative"]
    return []


def _check_mle(out: Path, text: str) -> list[str]:
    ratios = read_csv(out / "mle_probe.csv")["ratio"]
    if ratios.size == 0 or not ratios.max() < 1.0:
        return [f"MLE window of {ratios.size} ratios, max {ratios.max(initial=math.nan)}"]
    return []


def _check_sandwich(out: Path, text: str) -> list[str]:
    cols = read_csv(out / "sandwich.csv")
    if np.any(cols["lower"] > cols["upper"]):
        return ["sandwich.csv: lower envelope above the upper one"]
    return []


def _check_figure2(out: Path, text: str) -> list[str]:
    with open(out / "figure2_flags.json", encoding="utf-8") as fh:
        flags = json.load(fh)
    return [f"figure2 flag {k} is {v}" for k, v in flags.items() if v is not True]


def _check_sublinear(out: Path, text: str) -> list[str]:
    match = re.search(r"slope=(\S+)", text)
    slope = float(match.group(1)) if match else math.nan
    if not abs(slope + 0.5) <= 0.05:
        return [f"sublinear slope {slope} is not -0.5 +/- 0.05"]
    return []


def _bracket(seed: int) -> Callable[[Path], str]:
    """Criterion 10's measured-width bracket for one dataset at n=1e4."""
    def call(out: Path) -> str:
        spec = model.ModelSpec.along_axis(1.0, 1)
        data = model.sample_dataset(spec, 10_000, rng.derive_seed(seed, 10))
        w = deviation.w1_squared_empirical(data)
        upper, lower = population.sandwich_sequences(0.5, 1.0, w, 60, population.build_rule(80))
        traj = sample_em.run_em(data, np.array([0.5]), sample_em.StopRule(60, 0.0), spec)
        # a run that reaches an exact fixed point early stays there
        alpha = np.concatenate([traj.alpha, np.full(upper.size - traj.alpha.size, traj.alpha[-1])])
        with open(out / "bracket.csv", "w", encoding="utf-8") as fh:
            fh.write("t,lower,alpha,upper\n")
            for t in range(upper.size):
                fh.write(f"{t},{lower[t]:.17g},{alpha[t]:.17g},{upper[t]:.17g}\n")
        return f"w1={w:.17g}\n"
    return call


def _check_bracket(out: Path, text: str) -> list[str]:
    cols = read_csv(out / "bracket.csv")
    excursion = max(float(np.max(cols["alpha"] - cols["upper"])),
                    float(np.max(cols["lower"] - cols["alpha"])))
    if not excursion <= 1e-12:
        return [f"EM leaves the sandwich envelopes by {excursion:.3g} (> 1e-12)"]
    return []


def build(name: str, seed: int) -> Workload:
    """The named workload's operations for the given seed."""
    s = str(seed)
    if name == "sweep-1d-null":
        ops = (Op("rate-sweep", _cli(
            "rate-sweep", "--d", "1", "--s", "0", "--n-grid", "1000,10000,100000,1000000",
            "--init", "fixed", "--theta0", "1", "--c-iter", "0.25", "--rel-tol", "0",
            "--dtype", "float32", "--threads", "1",
            "--replicates", str(SWEEP_REPLICATES), "--seed", s), _check_sweep),)
        return Workload(name, ops, sweep_threads=1)
    if name == "risk-10d":
        ops = (Op("risk-compare", _cli(
            "risk-compare", "--d", "10", "--n", "100000", "--s-grid", "0.1,0.3,1.0",
            "--c-iter", "2", "--replicates", str(RISK_REPLICATES), "--seed", s), _check_risk),)
        # the CLI's default --threads 0 means one sweep thread per core
        return Workload(name, ops, sweep_threads=os.cpu_count() or 1)
    if name == "diag-2d":
        ops = (
            Op("deviation", _cli("deviation", "--d", "2", "--s", "1", "--n", "1000000",
                                 "--directions", "16", "--radii", "12", "--seed", s),
               _check_deviation),
            # the default --burn-in 200 leaves an empty window at s=1
            Op("mle-probe", _cli("mle-probe", "--d", "2", "--s", "1", "--n", "100000",
                                 "--burn-in", "20", "--extra", "20", "--seed", s), _check_mle),
            Op("trajectory", _cli("trajectory", "--d", "1", "--s", "0", "--n", "10000",
                                  "--init", "fixed", "--theta0", "1", "--seed", s), _no_check),
            Op("sandwich", _cli("sandwich", "--seed", s), _check_sandwich),
            Op("population", _cli("population", "--seed", s), _no_check),
            Op("figure2", _cli("figure2", "--seed", s), _check_figure2),
            Op("sublinear", _cli("sublinear", "--seed", s), _check_sublinear),
            Op("bracket", _bracket(seed), _check_bracket),
        )
        return Workload(name, ops, sweep_threads=None)
    raise ValueError(f"unknown workload {name!r}")


def digest(out: Path) -> str:
    """SHA-256 over the names and bytes of every file under ``out``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed, and each operation's first digest."""

    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)


def run_once(workload: Workload, out: Path, tally: Tally) -> float:
    """Run the workload's operations once into ``out``, check them, delete
    the outputs and return the wall time of the operations alone."""
    dirs = [out / f"{i:02d}-{op.name}" for i, op in enumerate(workload.ops)]
    for d in dirs:
        d.mkdir(parents=True)
    texts: list[str | None] = []
    gc.collect()
    t0 = time.perf_counter()
    for op, d in zip(workload.ops, dirs):
        try:
            texts.append(op.call(d))
        except Exception:
            # an operation that raises fails; the rest of the workload still runs
            traceback.print_exc()
            texts.append(None)
    wall = time.perf_counter() - t0
    for op, d, text in zip(workload.ops, dirs, texts):
        tally.attempted += 1
        problems = ["raised an exception"] if text is None else output_problems(d)
        if not problems:
            try:
                problems = op.check(d, text)
            except (OSError, ValueError, KeyError) as e:
                problems = [f"unreadable output: {e!r}"]
        if not problems:
            sha = digest(d)
            if tally.digests.setdefault(op.name, sha) != sha:
                problems = ["output bytes differ from the first run"]
        if problems:
            tally.failed += 1
            for p in problems:
                print(f"FAILED {workload.name}/{op.name}: {p}", file=sys.stderr)
    shutil.rmtree(out)
    return wall
