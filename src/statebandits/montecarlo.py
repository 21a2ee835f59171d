"""Monte Carlo estimation of identification error, simple regret and
pseudo-regret, with closed-form bounds evaluated alongside.

Estimators exploit the fact that the rotation strategies are
reward-independent (uniform rotation always, successive elimination within a
phase given the active set): per-cell reward sums are Binomial draws, which
lets whole run batches be sampled at once. Pull counts, recommendation,
the elimination sampler and optimism-index play all come from ``strategies``;
exact-enumeration tests pin the batched sampling to the same distribution.

Parallelism is per environment only. Every random quantity derives from
(master_seed, env_index, ...) substreams, so results are byte-identical for
any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .bounds import thm1_bound, thm2_bounds, thm3_bounds, thm4_bounds
from .divergence import BOUNDED_UNIT
from .env import (
    STATE_MODES, Environment, EnvironmentSpec, _check_bernoulli, _check_distinct, _check_steps, _visits, gaps,
    instantiate, make_state_sequence,
)
from .errors import ConfigurationError, _check_integer, _warn
from .rng import substream
from .strategies import _eba_pick, cell_means, optimism_play, rotation_counts, sr_schedule, successive_rejects

__all__ = [
    "SweepConfig",
    "BAIEstimate",
    "SweepRecord",
    "SRRecord",
    "RegretCurve",
    "random_env",
    "estimate_bai",
    "tightness_sweep",
    "sr_compare",
    "estimate_pseudoregret",
    "write_table",
    "write_sweep_csv",
    "write_sr_csv",
    "TIGHTNESS_HEADER",
    "SR_HEADER",
]

@dataclass(frozen=True)
class SweepConfig:
    """Randomized-environment study configuration.

    ``horizon=None`` means 50*K*S per environment. Ranges are inclusive for
    K and S; sigma2 is drawn uniformly from [sigma2_min, sigma2_max) and
    floored at 1e-12.
    Rewards must be Bernoulli: the batched estimators sample Binomial cell
    sums.
    """

    num_envs: int = 200
    runs_per_env: int = 100
    master_seed: int = 0
    horizon: int | None = None
    k_min: int = 3
    k_max: int = 10
    s_min: int = 1
    s_max: int = 10
    sigma2_min: float = 0.0
    sigma2_max: float = 0.3
    reward_family: str = "bernoulli"
    state_mode: str = "iid_uniform"

    def __post_init__(self):
        for name in ("num_envs", "master_seed", "k_min", "k_max", "s_min", "s_max"):
            _check_integer(getattr(self, name), name)  # an int64, as random_env draws K and S up to the max
        if self.num_envs < 0:
            raise ConfigurationError("num_envs must be non-negative")
        _check_integer(self.runs_per_env, "runs_per_env", low=1)
        if not 2 <= self.k_min <= self.k_max:
            raise ConfigurationError("need 2 <= k_min <= k_max")
        if not 1 <= self.s_min <= self.s_max:
            raise ConfigurationError("need 1 <= s_min <= s_max")
        if not 0.0 <= self.sigma2_min < self.sigma2_max < np.inf:
            raise ConfigurationError("need 0 <= sigma2_min < sigma2_max, both finite")
        if self.horizon is not None:
            _check_integer(self.horizon, "horizon")
            if self.horizon < 1:
                raise ConfigurationError("horizon must be positive")
        if self.reward_family != "bernoulli":
            raise ConfigurationError(f"reward_family must be 'bernoulli', got {self.reward_family!r}")
        if self.state_mode not in STATE_MODES:
            raise ConfigurationError(f"state_mode must be one of {STATE_MODES}, got {self.state_mode!r}")


def random_env(config: SweepConfig, env_index: int) -> EnvironmentSpec:
    """Draw one environment spec from the sweep distribution."""
    rng = substream(config.master_seed, env_index, "envgen")
    K = int(rng.integers(config.k_min, config.k_max + 1))
    S = int(rng.integers(config.s_min, config.s_max + 1))
    sigma2 = max(float(rng.uniform(config.sigma2_min, config.sigma2_max)), 1e-12)
    mu = tuple(rng.random(K).tolist())
    n = config.horizon if config.horizon is not None else 50 * K * S
    if config.state_mode == "iid_uniform":
        seq = rng.integers(0, S, size=n)
    else:
        seq = make_state_sequence(S, n, mode=config.state_mode)
    seed = int(rng.integers(0, 2**62))
    return EnvironmentSpec(
        K=K, S=S, mu=mu, sigma2=sigma2, state_sequence=seq, seed=seed,
        reward_family=config.reward_family,
    )


@dataclass(frozen=True)
class BAIEstimate:
    """Monte Carlo estimates of identification error and simple regret."""

    e: float
    e_se: float
    e_hat: float
    e_hat_se: float
    r: float
    r_se: float
    r_hat: float
    r_hat_se: float


def _binomial_cell_means(counts, m, runs, rng):
    """Sample per-run cell means: Binomial(counts, m)/counts, 0 where 0, (K, S, runs)
    in draw order. One call draws the cells in row-major order; unpulled ones draw nothing."""
    sums = rng.binomial(counts[:, :, None], m[:, :, None], size=counts.shape + (runs,))
    return cell_means(counts[:, :, None], sums)


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """``np.mean(x)`` and ``np.std(x, ddof=1) / sqrt(n)`` (0 for one value), by their ufunc steps."""
    n = len(x)
    mean = float(np.add.reduce(x) / n)
    if n < 2:
        return mean, 0.0
    d = x - mean
    return mean, math.sqrt(float(np.add.reduce(np.multiply(d, d, out=d)) / (n - 1))) / math.sqrt(n)


def estimate_bai(env: Environment, strategy: str, runs: int, n: int | None = None) -> BAIEstimate:
    """Estimate identification error and simple regret for one environment.

    ``strategy`` is ``uniform_eba``, ``sr_uniform`` or ``sr_reference``.
    Randomness derives from (env.spec.seed, "bai", strategy); successive
    elimination strategies share a stream root so that identical schedules
    replay identical draws. Cell reward sums are sampled as Binomials, so the
    environment's rewards must be Bernoulli.
    """
    spec = env.spec
    n = spec.horizon if n is None else n
    _check_steps(n, spec.horizon)
    _check_integer(runs, "runs", low=1)
    if strategy == "uniform_eba":
        _check_bernoulli(spec)
        rng = substream(spec.seed, "bai", "uniform_eba")
        counts = rotation_counts(_visits(env, n), spec.K)
        picks = _eba_pick(_binomial_cell_means(counts, env.m, runs, rng), counts)
    elif strategy in ("sr_uniform", "sr_reference"):
        schedule = sr_schedule(strategy.removeprefix("sr_"), spec.K, n)
        rng = substream(spec.seed, "bai", "sr")
        picks, _ = successive_rejects(env, schedule, runs, rng)
    else:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    g = gaps(env)
    mu = np.array(spec.mu)
    row_means = np.add.reduce(env.m, axis=1) / spec.S  # env.m.mean(axis=1)
    e = float(np.count_nonzero(picks != g.j_star) / runs)
    e_hat = float(np.count_nonzero(picks != g.j_hat_star) / runs)
    r, r_se = _mean_se(mu[g.j_star] - mu[picks])
    r_hat, r_hat_se = _mean_se(row_means[g.j_hat_star] - row_means[picks])
    return BAIEstimate(
        e=e, e_se=math.sqrt(e * (1.0 - e) / runs), e_hat=e_hat, e_hat_se=math.sqrt(e_hat * (1.0 - e_hat) / runs),
        r=r, r_se=r_se, r_hat=r_hat, r_hat_se=r_hat_se,
    )


@dataclass(frozen=True)
class SweepRecord:
    """One tightness-study row: estimates plus raw bound values."""

    env_index: int
    K: int
    S: int
    n: int
    min_state_visits: int
    delta_sigma_min: float
    e_hat: float
    e_hat_se: float
    e: float
    e_se: float
    r: float
    r_se: float
    r_hat: float
    r_hat_se: float
    b21: float
    b22: float
    b31: float
    b32: float


TIGHTNESS_HEADER = [f.name for f in fields(SweepRecord)]


def _tightness_record(env: Environment, env_index: int, runs: int) -> SweepRecord:
    spec = env.spec
    n = spec.horizon
    est = estimate_bai(env, "uniform_eba", runs, n)
    b21, b22 = thm2_bounds(env, n, BOUNDED_UNIT)
    b31, b32 = thm3_bounds(env, n)
    return SweepRecord(
        env_index=env_index, K=spec.K, S=spec.S, n=n,
        min_state_visits=int(np.minimum.reduce(_visits(env, n))),
        delta_sigma_min=float(np.minimum.reduce(gaps(env).delta_sigma)),
        e_hat=est.e_hat, e_hat_se=est.e_hat_se, e=est.e, e_se=est.e_se,
        r=est.r, r_se=est.r_se, r_hat=est.r_hat, r_hat_se=est.r_hat_se,
        b21=b21.raw_value, b22=b22.raw_value, b31=b31.raw_value, b32=b32.raw_value,
    )


def _env_task(args):
    """(index, record, None, warnings) or, if any step raised, (index, None,
    "Type: message", warnings); warnings as (message, category)."""
    record, config, env_index = args
    with warnings.catch_warnings(record=True) as caught:
        try:
            env = instantiate(random_env(config, env_index))
            row, err = record(env, env_index, config.runs_per_env), None
        except Exception as exc:  # noqa: BLE001 - sweep must survive bad rows
            row, err = None, f"{type(exc).__name__}: {exc}"
    return env_index, row, err, [(str(w.message), w.category) for w in caught]


def _run_tasks(record, config, workers: int):
    """Run every environment; re-issue their warnings here in index order,
    named by this module rather than by a source file and line, so stderr
    shows each warning once per sweep at any worker count and from any
    checkout."""
    args = [(record, config, i) for i in range(config.num_envs)]
    workers = min(workers, config.num_envs)  # a pool starts every worker it is given
    if workers <= 1:
        results = [_env_task(a) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor  # deferred: a serial run skips multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_env_task, args))  # in submission order
    registry = {}  # the default action shows each (message, category) once per sweep
    for message, category in (w for *_, caught in results for w in caught):
        _warn(message, __name__, registry, category)
    records = [rec for _, rec, err, _ in results if err is None]
    failures = [(idx, err) for idx, _, err, _ in results if err is not None]
    return records, failures


def tightness_sweep(config: SweepConfig, workers: int = 1):
    """Run the uniform-rotation tightness study.

    Returns (records, summary, failures); the summary holds the row count and
    each bound's violation rate: the share of rows whose estimate exceeds the
    bound, clamped to 1, by more than 3 standard errors.
    """
    records, failures = _run_tasks(_tightness_record, config, workers)
    checks = {"thm2.1": ("e", "b21"), "thm2.2": ("e_hat", "b22"), "thm3.1": ("r", "b31"), "thm3.2": ("r_hat", "b32")}
    rates = {name: sum(getattr(r, est) > min(getattr(r, bound), 1.0) + 3.0 * getattr(r, f"{est}_se")
                       for r in records) / len(records) if records else 0.0
             for name, (est, bound) in checks.items()}
    return records, {"rows": len(records), "violation_rate": rates}, failures


@dataclass(frozen=True)
class SRRecord:
    """One paired successive-elimination comparison row (plus extras kept
    out of the pinned CSV: global-best error and its bound per schedule)."""

    env_index: int
    K: int
    S: int
    n: int
    e_hat_uniform: float
    e_hat_reference: float
    b41_uniform: float
    b41_reference: float
    e_hat_se_uniform: float = 0.0
    e_hat_se_reference: float = 0.0
    e_uniform: float = 0.0
    e_reference: float = 0.0
    e_se_uniform: float = 0.0
    e_se_reference: float = 0.0
    b42_uniform: float = 0.0
    b42_reference: float = 0.0


SR_HEADER = [f.name for f in fields(SRRecord) if f.default is MISSING]


def _sr_record(env: Environment, env_index: int, runs: int) -> SRRecord:
    spec = env.spec
    n = spec.horizon
    cols = {}
    for kind in ("uniform", "reference"):
        est = estimate_bai(env, f"sr_{kind}", runs, n)
        b42, b41 = thm4_bounds(env, sr_schedule(kind, spec.K, n))
        cols.update({f"e_hat_{kind}": est.e_hat, f"e_hat_se_{kind}": est.e_hat_se,
                     f"e_{kind}": est.e, f"e_se_{kind}": est.e_se,
                     f"b41_{kind}": b41.raw_value, f"b42_{kind}": b42.raw_value})
    return SRRecord(env_index=env_index, K=spec.K, S=spec.S, n=n, **cols)


def _sign_test_p(n_pos: int, n_neg: int) -> float:
    """The one-sided sign test's P(Binomial(n, 1/2) >= n_pos), n = n_pos + n_neg:
    the exact integer tail over 2**n, rounded once. The shorter side is summed
    with C(n, j + 1) = C(n, j) (n - j) / (j + 1); the upper tail is its mirror
    j <= n_neg, and a lower side k < n_pos is taken from 2**n."""
    n = n_pos + n_neg
    m = min(n_neg + 1, n_pos)
    head, term = 0, 1
    for j in range(m):
        head += term
        term = term * (n - j) // (j + 1)
    return (head if m == n_neg + 1 else (1 << n) - head) / (1 << n)


def sr_compare(config: SweepConfig, workers: int = 1):
    """Paired comparison of the two elimination schedules.

    Returns (records, summary, failures); the summary carries the mean
    per-schedule error, the mean paired difference (reference - uniform), a
    one-sided sign test that reference errs more, and a direction tag. A
    fixed horizon is checked against both schedules for every K in range
    before any environment runs, so a schedule error raises here.
    """
    if config.horizon is not None:
        for K in range(config.k_min, config.k_max + 1):
            for kind in ("uniform", "reference"):
                sr_schedule(kind, K, config.horizon)
    records, failures = _run_tasks(_sr_record, config, workers)
    diffs = np.array([r.e_hat_reference - r.e_hat_uniform for r in records])
    n_pos = int(np.sum(diffs > 0))
    n_neg = int(np.sum(diffs < 0))
    mean_u = float(np.mean([r.e_hat_uniform for r in records])) if records else 0.0
    mean_r = float(np.mean([r.e_hat_reference for r in records])) if records else 0.0
    summary = {
        "num_envs": len(records),
        "mean_e_hat_uniform": mean_u,
        "mean_e_hat_reference": mean_r,
        "mean_paired_diff": float(np.mean(diffs)) if records else 0.0,
        "sign_test": {"n_pos": n_pos, "n_neg": n_neg, "n_tie": len(records) - n_pos - n_neg,
                      "p_value": _sign_test_p(n_pos, n_neg)},
        "direction": "uniform_leq_reference" if mean_u <= mean_r else "reference_lt_uniform",
    }
    return records, summary, failures


@dataclass(frozen=True)
class RegretCurve:
    """Pseudo-regret estimates at checkpoints, with the closed-form bound."""

    checkpoints: tuple[int, ...]
    mean: np.ndarray
    se: np.ndarray
    bound: np.ndarray = field(repr=False)


def _check_checkpoints(checkpoints) -> tuple[int, ...]:
    """Regret checkpoints: a non-empty list of distinct integers of at least 1, returned sorted as ints."""
    checkpoints = tuple(sorted(checkpoints))
    if not checkpoints:
        raise ConfigurationError("checkpoints must list at least one horizon")
    checkpoints = tuple(_check_integer(c, "checkpoints", low=1) for c in checkpoints)
    _check_distinct(checkpoints, "checkpoints")
    return checkpoints


def estimate_pseudoregret(env: Environment, alpha: float, checkpoints, runs: int) -> RegretCurve:
    """Monte Carlo pseudo-regret of the optimism-index strategy, and its thm1
    bound; both use the bounded-unit envelope, the one for rewards on [0, 1].

    All runs are advanced in lockstep by ``optimism_play``; run r consumes
    the substream (spec.seed, r, "rewards") one variate per step, so a run's
    choices do not depend on how many runs share the batch.
    """
    spec = env.spec
    _check_integer(runs, "runs", low=1)
    checkpoints = _check_checkpoints(checkpoints)
    for c in checkpoints:
        _check_steps(c, spec.horizon, "checkpoints")
    streams = [substream(spec.seed, r, "rewards") for r in range(runs)]
    m_star = gaps(env).m_star_per_state
    regret = np.zeros(runs)
    curve = []
    for t, s, _, mean in optimism_play(env, alpha, streams, checkpoints[-1]):
        regret += m_star[s] - mean
        if t in checkpoints:
            curve.append(_mean_se(regret))
    mu, se = np.array(curve).T
    bound = np.array([thm1_bound(env, alpha, c).raw_value for c in checkpoints])
    return RegretCurve(checkpoints=checkpoints, mean=mu, se=se, bound=bound)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(header, rows, path, fmt: str = "csv") -> None:
    """Write ``rows`` (sequences aligned with ``header``) to ``path``.

    ``csv`` writes a header line and floats in repr form; ``json`` writes a
    sorted-key array of objects.
    """
    with open(path, "w", newline="" if fmt == "csv" else None, encoding="utf-8") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
        else:
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=2, sort_keys=True)
            fh.write("\n")


def record_rows(records, header) -> list[list]:
    """Table rows of dataclass records: the fields named in ``header``."""
    return [[getattr(rec, name) for name in header] for rec in records]


def write_sweep_csv(records, path) -> None:
    """Write tightness rows with the pinned 18-column header."""
    write_table(TIGHTNESS_HEADER, record_rows(records, TIGHTNESS_HEADER), path)


def write_sr_csv(records, path) -> None:
    """Write schedule-comparison rows with the pinned 8-column header."""
    write_table(SR_HEADER, record_rows(records, SR_HEADER), path)
