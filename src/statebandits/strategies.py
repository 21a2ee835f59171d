"""Allocation strategies and recommendation rules.

Three allocation rules are provided: an optimism index rule with per-state
statistics (for cumulative reward), deterministic uniform rotation, and
phased successive elimination (for best-arm identification). Recommendation
is by empirical best state-average. All tie-breaks are toward the lowest arm
index, and forced exploration always picks the lowest-index unpulled arm.

Each rule is written once: the single runs here and the batched
estimators in ``montecarlo`` share the count, recommendation, elimination and
index functions, and ``run_sb_ucb`` is the lockstep engine with one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import PsiFamily, _psi_star_inv
from .env import Environment, _check_steps, _rewards, _variates
from .errors import ConfigurationError, RecommendationError, ScheduleError

__all__ = [
    "PullStats",
    "cell_means",
    "optimism_play",
    "rotation_counts",
    "eliminate",
    "log_bar",
    "SRSchedule",
    "sr_schedule",
    "phase_visits",
    "sr_counts",
    "SRResult",
    "successive_rejects",
    "run_sb_ucb",
]


class PullStats:
    """Per-(arm, state) pull counts and reward sums for K arms and S states."""

    def __init__(self, K: int, S: int):
        if K < 1 or S < 1:
            raise ConfigurationError("need K >= 1 and S >= 1")
        self.K = K
        self.S = S
        self.counts = np.zeros((K, S), dtype=np.int64)
        self.sums = np.zeros((K, S), dtype=float)


def cell_means(counts: np.ndarray, sums: np.ndarray, fill: float) -> np.ndarray:
    """Per-cell sample means, ``fill`` where a cell has no pulls."""
    return np.where(counts > 0, sums / np.maximum(counts, 1), fill)


def _check_alpha(alpha: float) -> None:
    if not alpha > 2:
        raise ConfigurationError(f"alpha must exceed 2, got {alpha}")


def _optimism_pick(counts, sums, visit: int, alpha_log_t: float, family: PsiFamily, score, bonus):
    """Arms played at the ``visit``-th earlier visit to a state, given its (runs,
    K) float tables. Visit v < K is forced exploration: arm v, the lowest
    unpulled one, in every run. After that every cell has pulls, and the arm
    with the best sample mean plus the bonus on alpha*ln(t)/count (>= 0 as
    t >= 1) is played, ties to the lowest; the index is written into the
    scratch tables ``score`` and ``bonus``."""
    if visit < counts.shape[1]:
        return np.full(counts.shape[0], visit)
    _psi_star_inv(family, np.divide(alpha_log_t, counts, out=bonus), out=bonus)
    return np.argmax(np.add(np.divide(sums, counts, out=score), bonus, out=score), axis=1)


_BLOCK_VARIATES = 1 << 18  # reward variates optimism_play holds at once: 2 MiB of float64


def optimism_play(env: Environment, alpha: float, family: PsiFamily, streams, n: int, counts=None, sums=None):
    """Play the optimism-index rule for n steps, one run per stream, in lockstep.

    Run r draws its reward variates from ``streams[r]`` in blocks of about
    ``_BLOCK_VARIATES / runs`` steps; they equal one draw of n. The engine
    keeps each state's counts and sums as contiguous float64 (runs, K) tables,
    adds a one-hot mask of the chosen arms to them and, when ``counts`` and
    ``sums`` of shape (runs, K, S) are given, writes them there once all n
    steps are played. Yields (t, state, choice, mean) per step, the chosen
    arms and their local means being (runs,) arrays.
    """
    _check_alpha(alpha)
    spec = env.spec
    runs, K = len(streams), spec.K
    c, tot = np.zeros((2, spec.S, runs, K))
    mask, score, bonus = np.empty((3, runs, K))
    visits, means, onehot = [0] * spec.S, env.m.T, np.eye(K)
    block = max(1, _BLOCK_VARIATES // runs)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        variates = np.empty((hi - lo, runs))
        for r, stream in enumerate(streams):
            variates[:, r] = _variates(spec, stream, hi - lo)
        alpha_log_t = (alpha * np.log(np.arange(lo + 1, hi + 1))).tolist()
        states = spec.state_sequence[lo:hi].tolist()
        for t, s, u, a in zip(range(lo + 1, hi + 1), states, variates, alpha_log_t):
            choice = _optimism_pick(c[s], tot[s], visits[s], a, family, score, bonus)
            visits[s] += 1
            mean = means[s][choice]
            np.take(onehot, choice, axis=0, out=mask)
            c[s] += mask
            tot[s] += np.multiply(mask, _rewards(spec, mean, u)[:, None], out=mask)
            yield t, s, choice, mean
    if counts is not None:
        counts[...], sums[...] = c.transpose(1, 2, 0), tot.transpose(1, 2, 0)


def rotation_counts(visits, A: int) -> np.ndarray:
    """Pulls per (rank, state) when each state's visits rotate over A ranks.

    The v-th visit to a state goes to rank v mod A, so after V visits rank r
    holds floor(V/A) pulls plus one when 1 <= r <= V mod A. Per-state counts
    therefore differ by at most one. Returns shape (A, len(visits)).
    """
    q, rem = np.divmod(np.asarray(visits, dtype=np.int64), A)
    ranks = np.arange(A)[:, None]
    return q + ((1 <= ranks) & (ranks <= rem))


def _eba_pick(means: np.ndarray) -> np.ndarray:
    """Arm with the best average of per-state sample means, for each run of
    (runs, K, S) cell means, ties to the lowest index.

    Cells with no pulls are NaN and left out of their arm's average. An arm
    with no pulls at all cannot be scored and raises RecommendationError; the
    runs share one pull pattern, so the first run is checked.
    """
    unpulled = np.flatnonzero(np.all(np.isnan(means[0]), axis=1))
    if unpulled.size:
        raise RecommendationError(f"arm {int(unpulled[0])} has no pulls in any state")
    return np.argmax(np.nanmean(means, axis=2), axis=1)


def eliminate(scores: np.ndarray, *tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """Drop each run's lowest-scoring active position from every table.

    ``scores`` is (runs, A) and each table (runs, A, ...), column j of both
    belonging to one arm. Positions hold arms in ascending order, so ties go
    to the lowest arm index. Returns each run's dropped position, then each
    table without that column, (runs, A-1, ...).
    """
    runs, A = scores.shape
    pos = np.argmin(scores, axis=1)
    keep = np.arange(A) != pos[:, None]
    return (pos, *(t[keep].reshape(runs, A - 1, *t.shape[2:]) for t in tables))


def log_bar(K: int) -> float:
    """The half-plus-harmonic normalizer used by the reference schedule."""
    if K < 2:
        raise ConfigurationError("need K >= 2")
    return 0.5 + sum(1.0 / i for i in range(2, K + 1))


@dataclass(frozen=True)
class SRSchedule:
    """Phase boundaries for successive elimination: K-1 strictly increasing
    rejection times, the last equal to the horizon."""

    kind: str
    t_k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "t_k", tuple(int(t) for t in self.t_k))
        if len(self.t_k) < 1:
            raise ScheduleError("need at least one phase boundary", field="t_k")
        prev = 0
        for t in self.t_k:
            if t <= prev:
                raise ScheduleError(f"boundaries must be strictly increasing, got {self.t_k}", field="t_k")
            prev = t

    @property
    def K(self) -> int:
        return len(self.t_k) + 1

    @property
    def n(self) -> int:
        return self.t_k[-1]


def sr_schedule(kind: str, K: int, n: int) -> SRSchedule:
    """Build a named schedule.

    ``uniform`` splits the horizon evenly: t_k = ceil(k*n/(K-1)). ``reference``
    is the classical elimination budget: with per-arm targets
    n_j = ceil((n-K) / (log_bar(K) * (K+1-j))), phase j pulls each of the
    K+1-j active arms n_j - n_{j-1} more times, so
    t_j = sum_{i<=j} (K+1-i)*(n_i - n_{i-1}), capped at the horizon with the
    last boundary forced to it. When n is close to K that leaves a phase with
    no steps, and the schedule is rejected.
    """
    if K < 2:
        raise ScheduleError("need K >= 2", field="K")
    if n < K:
        raise ScheduleError(f"horizon {n} cannot cover {K} arms", field="n")
    if kind == "uniform":
        t_k = [math.ceil(k * n / (K - 1)) for k in range(1, K)]
    elif kind == "reference":
        bar = log_bar(K)
        t_k, total, prev = [], 0, 0
        for j in range(1, K):
            per_arm = math.ceil((n - K) / (bar * (K + 1 - j)))
            total += (K + 1 - j) * (per_arm - prev)
            prev = per_arm
            t_k.append(min(total, n))
        t_k[-1] = n
        if any(hi <= lo for lo, hi in zip([0] + t_k, t_k)):
            raise ScheduleError(
                f"horizon n={n} is too short for the reference schedule with K={K} arms: "
                f"a phase would be empty (boundaries {tuple(t_k)})", field="n")
    else:
        raise ScheduleError(f"unknown schedule kind {kind!r}", field="kind")
    return SRSchedule(kind=kind, t_k=tuple(t_k))


def phase_visits(state_sequence, t_k, S: int) -> np.ndarray:
    """Visits to each state within each phase, shape (len(t_k), S): row k-1
    counts steps t_{k-1}+1..t_k, with t_0 = 0."""
    edges = (0,) + tuple(t_k)
    return np.array([np.bincount(state_sequence[lo:hi], minlength=S)
                     for lo, hi in zip(edges, edges[1:])], dtype=np.int64)


def sr_counts(state_sequence, schedule: SRSchedule, K: int, S: int | None = None) -> np.ndarray:
    """Evenly-allocated per-arm pull counts n_{s,k} through each phase.

    Entry [s, k-1] accumulates floor(phase-k visits to s / active arms in
    phase k), the pulls of the lowest rotation rank; this is exactly the
    table a successive-elimination run reports. States that are never
    visited keep all-zero rows. ``S`` defaults to the largest state in the
    sequence plus one.
    """
    if schedule.K != K:
        raise ScheduleError(f"schedule is for {schedule.K} arms, got K={K}", field="t_k")
    if schedule.n > len(state_sequence):
        raise ScheduleError(
            f"schedule horizon {schedule.n} exceeds sequence length {len(state_sequence)}", field="t_k"
        )
    if S is None:
        S = int(np.max(state_sequence)) + 1
    active = np.arange(K, 1, -1)[:, None]
    return np.cumsum(phase_visits(state_sequence, schedule.t_k, S) // active, axis=0).T


@dataclass
class SRResult:
    """Outcome of a successive-elimination run.

    ``steps`` holds one (t, state, arm, reward, phase) tuple per pull;
    ``n_table[s, k-1]`` is the evenly-allocated per-arm pull count for state
    s through phase k (the quantity the closed-form counters reproduce).
    """

    winner: int
    rejected: list[int]
    steps: list[tuple[int, int, int, float, int]]
    n_table: np.ndarray
    stats: PullStats = field(repr=False)


def successive_rejects(env: Environment, schedule: SRSchedule, rng: np.random.Generator) -> SRResult:
    """Run phased elimination on ``env`` and return the surviving arm.

    Within a phase the active arms (ascending order) are rotated per state:
    the v-th visit to a state within the phase goes to arms[v mod len(arms)],
    which is what ``rotation_counts`` counts. The phase is drawn as one batch
    of variates, the same values as one draw per step, and recorded in step
    order. At each boundary the active arm with the lowest sum of per-state
    sample means is dropped (unpulled cells count as 0, ties to the lowest
    index).
    """
    spec = env.spec
    n_table = sr_counts(spec.state_sequence, schedule, spec.K, spec.S)
    stats = PullStats(spec.K, spec.S)
    active = np.arange(spec.K)[None, :]
    steps: list[tuple[int, int, int, float, int]] = []
    rejected: list[int] = []
    t_prev = 0
    for k, t_k in enumerate(schedule.t_k, start=1):
        states = spec.state_sequence[t_prev:t_k]
        # 1-based visit number of each step to its state: rank within a stable sort by state
        order = np.argsort(states, kind="stable")
        visits = np.bincount(states, minlength=spec.S)
        visit = np.empty_like(order)
        visit[order] = np.arange(1, len(states) + 1) - np.repeat(np.cumsum(visits) - visits, visits)
        arms = active[0][visit % active.shape[1]]
        rewards = _rewards(spec, env.m[arms, states], _variates(spec, rng, len(states)))
        np.add.at(stats.counts, (arms, states), 1)
        np.add.at(stats.sums, (arms, states), rewards)
        steps += zip(range(t_prev + 1, t_k + 1), states.tolist(), arms.tolist(), rewards.tolist(),
                     [k] * len(states))
        scores = cell_means(stats.counts, stats.sums, 0.0).sum(axis=1)
        pos, remaining = eliminate(scores[active], active)
        rejected.append(int(active[0, pos[0]]))
        active, t_prev = remaining, t_k
    return SRResult(winner=int(active[0, 0]), rejected=rejected, steps=steps, n_table=n_table, stats=stats)


def run_sb_ucb(
    env: Environment,
    n: int,
    alpha: float,
    family: PsiFamily,
    rng: np.random.Generator,
) -> tuple[PullStats, list[int]]:
    """Optimism-index allocation for ``n`` steps; returns stats and choices.

    This is ``optimism_play`` with one run.
    """
    spec = env.spec
    _check_steps(n, spec.horizon)
    stats = PullStats(spec.K, spec.S)
    play = optimism_play(env, alpha, family, [rng], n, stats.counts[None], stats.sums[None])
    return stats, [int(choice[0]) for _, _, choice, _ in play]
