"""Monte Carlo harness: rate sweeps, risk comparisons, and dynamics probes.

The statistical claims under test are order-of-growth statements, so the
harness turns them into slope fits: run EM over a grid of sample sizes,
average the final loss over replicates, and regress log mean loss on log n.
Every replicate draws its seeds from a SeedSequence fan-out keyed by
(master_seed, grid index, replicate, stream), so results are bit-identical
across reruns and across any parallel schedule; rows are merged in task-key
order, never completion order. Every em2gm pass computes with numpy's BLAS
on one thread (model._one_blas_thread), so ``threads`` sweep workers use that
many cores and no output depends on the BLAS thread count. The cells run
through sample_em's _map_in_order, as do the blocks of the batch map behind
the deviation probe, which uses all cores the same way. The workers are threads:
tanh and the f_n kernel's reduction (model._reductions) run without the GIL,
as does its projection at d = 1, but at d >= 2 the projection of one theta is a
matrix-vector np.matmul, which holds the GIL, so the workers take turns on it.
A sweep returns its results: rate_sweep one ExperimentResult, risk_compare
one per estimator by name. A result's rows are its CSV, and its summaries,
one SlopeSummary per (d, s) in grid order, carry every aggregate: the JSON
summary is each one's dataclasses.asdict, so a new aggregate is one field.
No grid repeats an (n, d, s) cell, so a summary's mean at each n pools the
rows of one cell. The MLE contraction probe takes a dataset and the start
vector its caller made with make_init, and reads the truth from the
dataset's spec. Nothing here writes a file: the results carry their CSV and
JSON writers, which the CLI calls. The _check_* validators hold the checks
that need no data, so the CLI runs them before it computes anything.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .initializers import InitSpec, make_init, spectral_init
from .model import Dataset, ModelSpec, log_likelihood, loss, sample_dataset
from .population import PopulationState, QuadratureRule, f_pop, population_trajectory
from .rng import derive_seed
from .sample_em import StopRule, _iterates, _map_in_order, iterate_em
from .svg import write_json, write_table

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "Row",
    "SlopeSummary",
    "fit_loglog_slope",
    "rate_sweep",
    "risk_compare",
    "ContractionProbe",
    "mle_contraction_probe",
    "Figure2Result",
    "figure2_reproduction",
    "SublinearProbe",
    "sublinear_rate_probe",
]

_STREAM_DATA = 0
_STREAM_INIT = 1


class Row(NamedTuple):
    n: int
    d: int
    s: float
    replicate: int
    final_loss: float
    iters: int
    final_loglik: float


@dataclass(frozen=True)
class SlopeSummary:
    """Per-(d, s) aggregate: losses by n and the fitted log-log slope. The
    JSON summary is its fields in this order (dataclasses.asdict)."""

    d: int
    s: float
    n: tuple[int, ...]
    mean_loss: tuple[float, ...]
    median_loss: tuple[float, ...]
    slope: float | None
    slope_stderr: float | None


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a grid of (n, d, s) cells, repeated, from one master seed.

    Each cell stops by StopRule.for_n: after max_iters steps, or when it is
    0 (the default) after ceil(c_iter sqrt(n)), or earlier by rel_tol.
    ``dtype`` is the precision in which each cell's dataset is held and
    iterated: a float32 cell samples straight into float32 (the float64
    samples rounded) and holds no float64 copy, and its estimators, spectral
    start and log-likelihood read those samples. float32 is the documented
    fast path for the large worst-case sweeps, where the iteration noise
    sits far below the statistical error.
    ``threads`` is the number of sweep workers; each runs BLAS on one
    thread, so the sweep uses that many cores.
    """

    grid: tuple[tuple[int, int, float], ...]
    replicates: int
    init: InitSpec
    master_seed: int
    rel_tol: float = 1e-8
    c_iter: float = 10.0
    max_iters: int = 0
    dtype: str = "float64"
    threads: int = 1

    def __post_init__(self):
        grid = tuple((int(n), int(d), float(s)) for n, d, s in self.grid)
        if not grid:
            raise ValueError("grid must be non-empty")
        for i, (n, d, s) in enumerate(grid):
            if n < 2:
                raise ValueError("all n must be >= 2")
            if d < 1:
                raise ValueError("all d must be >= 1")
            if not (math.isfinite(s) and s >= 0.0):
                raise ValueError("all s must be finite and nonnegative")
            # a summary pools the rows of one (n, d, s)
            if (n, d, s) in grid[:i]:
                raise ValueError(f"grid repeats the cell (n={n}, d={d}, s={s})")
        object.__setattr__(self, "grid", grid)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")
        if self.dtype == "float32" and 0.0 < self.rel_tol < np.finfo(np.float32).eps:
            raise ValueError(f"rel_tol={self.rel_tol:g} is below float32 eps 1.19e-07; "
                             "use 0 or more")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0 (0 = ceil(c_iter sqrt(n)))")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        for n, _, _ in grid:
            self.stop_for(n)  # StopRule's checks, before any cell runs

    @classmethod
    def from_product(cls, n_grid, d_grid, s_grid, **kwargs) -> "ExperimentConfig":
        """Grid ordered (d, s)-major so each summary group sweeps n."""
        grid = [(n, d, s) for d in d_grid for s in s_grid for n in n_grid]
        return cls(grid=tuple(grid), **kwargs)

    def stop_for(self, n: int) -> StopRule:
        return StopRule.for_n(n, self.c_iter, self.rel_tol, self.max_iters)

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[Row, ...]
    summaries: tuple[SlopeSummary, ...]

    def to_csv(self, path) -> None:
        write_table(path, Row._fields, *zip(*self.rows))

    def summary_to_json(self, path) -> None:
        write_json(path, [asdict(s) for s in self.summaries])


def fit_loglog_slope(x, y) -> tuple[float | None, float | None]:
    """OLS slope of log y on log x, with its standard error.

    Points with nonpositive y are dropped (a zero mean loss carries no rate
    information). Returns (None, None) with fewer than two usable points and
    (slope, None) with exactly two. A non-finite x or y raises ValueError:
    it marks a broken cell, which must not drop silently out of the fit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    if bad.size:
        raise ValueError(f"non-finite x or y at points {bad.tolist()} of the log-log fit")
    keep = y > 0.0
    x, y = x[keep], y[keep]
    m = x.size
    if m < 2:
        return None, None
    lx, ly = np.log(x), np.log(y)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    if m == 2:
        return slope, None
    resid = ly - (ly.mean() + slope * (lx - lx.mean()))
    sigma2 = float(np.sum(resid ** 2)) / (m - 2)
    return slope, math.sqrt(sigma2 / sxx)


def _summarize(rows: list[Row]) -> tuple[SlopeSummary, ...]:
    groups: dict[tuple[int, float], dict[int, list[float]]] = {}
    for r in rows:
        groups.setdefault((r.d, r.s), {}).setdefault(r.n, []).append(r.final_loss)
    out = []
    for (d, s), by_n in groups.items():
        ns = sorted(by_n)
        means = [float(np.mean(by_n[n])) for n in ns]
        medians = [float(np.median(by_n[n])) for n in ns]
        slope, stderr = fit_loglog_slope(ns, means)
        out.append(SlopeSummary(d=d, s=s, n=tuple(ns), mean_loss=tuple(means),
                                median_loss=tuple(medians), slope=slope, slope_stderr=stderr))
    return tuple(out)


def _em(data: Dataset, config: ExperimentConfig, gi: int, k: int) -> tuple[np.ndarray, int]:
    theta0 = make_init(config.init, data,
                       seed=derive_seed(config.master_seed, gi, k, _STREAM_INIT))
    return iterate_em(data.samples, theta0, config.stop_for(data.n), dtype=config.np_dtype)


# Estimator name -> (data, config, grid index, replicate) -> (theta, iters).
# "em" runs the full iteration from config.init and reports the stopped
# iterate; "spectral" scores the spectral estimator itself; "zero" is the
# trivial baseline whose loss is exactly s.
_ESTIMATORS = {
    "em": _em,
    "spectral": lambda data, config, gi, k: (spectral_init(data), 0),
    "zero": lambda data, config, gi, k: (np.zeros(data.d), 0),
}


def _check_estimators(estimators: tuple[str, ...]) -> None:
    """The checks of risk_compare's names: some, none twice, each one known."""
    if not estimators:
        raise ValueError("estimators must be non-empty")
    if len(set(estimators)) != len(estimators):
        raise ValueError("duplicate estimator names")
    for name in estimators:
        if name not in _ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; expected subset of {tuple(_ESTIMATORS)}")


def _em_cell(config: ExperimentConfig, gi: int, k: int, estimators) -> tuple[Row, ...]:
    """One replicate of one grid cell: a Row per estimator, all on one dataset."""
    n, d, s = config.grid[gi]
    spec = ModelSpec.along_axis(s, d)
    data = sample_dataset(spec, n, derive_seed(config.master_seed, gi, k, _STREAM_DATA),
                          config.np_dtype)
    rows = []
    for name in estimators:
        theta, iters = _ESTIMATORS[name](data, config, gi, k)
        rows.append(Row(n=n, d=d, s=spec.s, replicate=k,
                        final_loss=loss(theta, spec.theta_star), iters=iters,
                        final_loglik=log_likelihood(data, theta)))
    return tuple(rows)


def _sweep(config: ExperimentConfig, estimators: tuple[str, ...]) -> dict[str, ExperimentResult]:
    """Every (grid index, replicate) cell in task order on config.threads
    workers, BLAS on one thread; the result of each estimator by name."""
    tasks = [(gi, k) for gi in range(len(config.grid)) for k in range(config.replicates)]
    cells = _map_in_order(lambda t: _em_cell(config, *t, estimators), tasks, config.threads)
    return {name: ExperimentResult(rows=rows, summaries=_summarize(rows))
            for name, rows in zip(estimators, zip(*cells))}


def rate_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Final EM loss over the grid; slope of log mean loss vs log n per (d, s).

    The "em" result of risk_compare(config, ("em",)), which the CLI writes
    as the row CSV and its summary JSON.
    """
    return _sweep(config, ("em",))["em"]


def risk_compare(config: ExperimentConfig,
                 estimators=("em", "spectral", "zero")) -> dict[str, ExperimentResult]:
    """Monte Carlo risk of each estimator on identical datasets (see _ESTIMATORS):
    the result of each estimator by name, in the order given.

    The CLI writes one row CSV per estimator and one combined summary JSON.
    """
    estimators = tuple(estimators)
    _check_estimators(estimators)
    return _sweep(config, estimators)


@dataclass(frozen=True)
class ContractionProbe:
    """Contraction ratios toward the long-run EM limit.

    The proxy for the likelihood maximizer is the last iterate of a run 50
    steps longer than the observation window; ratios compare successive
    distances to it. c_hat solves geo_mean = exp(-c_hat s^2), the fitted
    per-step contraction exponent.
    """

    ratios: np.ndarray
    max_ratio: float | None
    geo_mean: float | None
    c_hat: float | None

    def to_csv(self, path) -> None:
        write_table(path, ("t", "ratio"), range(self.ratios.size), self.ratios)


def _check_window(burn_in: int, extra: int) -> None:
    """The data-free check of mle_contraction_probe."""
    if burn_in < 1 or extra < 1:
        raise ValueError("burn_in and extra must be >= 1")


def mle_contraction_probe(data: Dataset, theta0, burn_in: int, extra: int) -> ContractionProbe:
    """Ratios |theta_{t+1} - theta_inf| / |theta_t - theta_inf| after burn-in.

    Runs EM from the start vector theta0 (the caller's make_init) for
    burn_in + extra + 50 steps with the relative stop disabled, takes the
    final iterate as theta_inf, and reports the ratio sequence for t in the
    ``extra`` window; c_hat is fitted at the norm of ``data.spec``. The window
    ends once an iterate is within 1e-10 max(1, |theta_inf|) of theta_inf, so
    that m ulps of rounding in the iterates move a ratio r by at most about
    2 m eps (1 + 1/r) / 1e-10 relative (1.4e-5 m at r = 0.45); with a
    fast-contracting run it can come back empty. An all-zero start (the zero
    kind, a fixed start of zeros, or a spectral start that found no signal)
    is rejected: 0 is a fixed point of the sample EM map, so the run never
    moves and the window is always empty.
    """
    spec = data.spec
    _check_window(burn_in, extra)
    if not np.any(theta0):
        raise ValueError("a zero start is a fixed point of the EM map; "
                         "the contraction probe needs a nonzero start")
    scale = (data.d * math.log(data.n) ** 3 / data.n) ** 0.25
    if spec.s < scale:
        warnings.warn(
            f"s={spec.s:.4g} is below the contraction scale {scale:.4g}; "
            "the MLE proxy may not contract", stacklevel=2)
    # run_em's iterates without its log-likelihood pass, which nothing here reads
    iters = np.array([theta for theta, _ in _iterates(
        data.samples, theta0, StopRule(max_iters=burn_in + extra + 50, rel_tol=0.0))])
    theta_inf = iters[-1]
    dist = np.linalg.norm(iters - theta_inf[None, :], axis=1)
    cutoff = 1e-10 * max(1.0, float(np.linalg.norm(theta_inf)))
    ratios = []
    for t in range(burn_in, min(burn_in + extra, len(iters) - 1)):
        if dist[t] < cutoff:
            break
        ratios.append(dist[t + 1] / dist[t])
    ratios = np.array(ratios)
    if ratios.size == 0:
        return ContractionProbe(ratios=ratios, max_ratio=None, geo_mean=None, c_hat=None)
    geo = float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))
    c_hat = -math.log(geo) / (spec.s ** 2) if spec.s > 0.0 else None
    return ContractionProbe(ratios=ratios, max_ratio=float(ratios.max()),
                            geo_mean=geo, c_hat=c_hat)


@dataclass(frozen=True)
class Figure2Result:
    """Two population runs at s = 0.35: one overshooting start, one small one.

    ``non_monotone_pass``: the (0.1, 0.7) run dips below its initial signal
    before recovering and lands within 1e-2 of s. ``monotone_pass``: the
    (0.1, 0.1) run increases its signal every step (1e-9 slack) and lands
    within 1e-2 of s. ``beta_decreasing_after_first`` records the observed
    (not asserted) monotone decay of the orthogonal part from t = 1 on.
    """

    non_monotone_run: list[PopulationState]
    monotone_run: list[PopulationState]
    non_monotone_pass: bool
    monotone_pass: bool
    beta_decreasing_after_first: bool


def figure2_reproduction(rule: QuadratureRule) -> Figure2Result:
    """Reproduce the two reference population trajectories (s=0.35, T=60)."""
    s, T = 0.35, 60
    run_a = population_trajectory(PopulationState(0.1, 0.7), s, T, rule)
    run_b = population_trajectory(PopulationState(0.1, 0.1), s, T, rule)
    alpha_a = np.array([st.alpha for st in run_a])
    alpha_b = np.array([st.alpha for st in run_b])
    flag_a = bool(alpha_a.min() < alpha_a[0] and abs(alpha_a[-1] - s) < 1e-2)
    flag_b = bool(np.all(np.diff(alpha_b) >= -1e-9) and abs(alpha_b[-1] - s) < 1e-2)
    beta_obs = all(bool(np.all(np.diff([st.beta for st in run[1:]]) <= 1e-9))
                   for run in (run_a, run_b))
    return Figure2Result(non_monotone_run=run_a, monotone_run=run_b,
                         non_monotone_pass=flag_a, monotone_pass=flag_b,
                         beta_decreasing_after_first=beta_obs)


@dataclass(frozen=True)
class SublinearProbe:
    """1-D population iterates at s = 0 and the fitted decay slope."""

    slope: float
    thetas: np.ndarray


_FIT_FROM = 100  # first step of the sublinear probe's fit, past the start's transient


def _check_sublinear(T: int) -> None:
    """The check of sublinear_rate_probe: the run reaches past _FIT_FROM."""
    if T <= _FIT_FROM:
        raise ValueError(f"T must exceed {_FIT_FROM}, the first step of the fit")


def sublinear_rate_probe(rule: QuadratureRule, T: int = 10_000) -> SublinearProbe:
    """Slope of log theta_t vs log t for the signal-free population map.

    With no signal the map contracts only through its cubic term, so the
    iterates from theta_0 = 1 decay like t^{-1/2}; the fit over t in
    [_FIT_FROM, T] (_FIT_FROM = 100) recovers that exponent.
    """
    _check_sublinear(T)
    thetas = np.empty(T + 1)
    thetas[0] = 1.0
    for t in range(T):
        thetas[t + 1] = f_pop(thetas[t], 0.0, rule)
    ts = np.arange(_FIT_FROM, T + 1)
    slope, _ = fit_loglog_slope(ts, thetas[_FIT_FROM:])
    return SublinearProbe(slope=slope, thetas=thetas)
