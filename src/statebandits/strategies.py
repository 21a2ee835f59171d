"""Allocation strategies and recommendation rules.

Three allocation rules are provided: an optimism index rule with per-state
statistics (for cumulative reward), deterministic uniform rotation, and
phased successive elimination (for best-arm identification). Recommendation
is by empirical best state-average. All tie-breaks are toward the lowest arm
index, and forced exploration always picks the lowest-index unpulled arm.

Each rule is written once: the step-by-step runs here and the batched
estimators in ``montecarlo`` share the count, recommendation, elimination and
index functions, and ``run_sb_ucb`` is the lockstep engine with one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import PsiFamily, _psi_star_inv
from .env import Environment, pull
from .errors import ConfigurationError, RecommendationError, ScheduleError

__all__ = [
    "PullStats",
    "cell_means",
    "sb_ucb_select",
    "optimism_play",
    "rotation_counts",
    "eba_recommend",
    "eliminate",
    "log_bar",
    "SRSchedule",
    "sr_schedule",
    "phase_visits",
    "sr_counts",
    "SRResult",
    "successive_rejects",
    "run_uniform_eba",
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

    @property
    def t(self) -> int:
        """Total number of recorded pulls."""
        return int(self.counts.sum())

    @property
    def means(self) -> np.ndarray:
        """Per-cell sample means; cells with no pulls are NaN."""
        return cell_means(self.counts, self.sums, np.nan)

    def update(self, arm: int, state: int, reward: float) -> None:
        self.counts[arm, state] += 1
        self.sums[arm, state] += reward


def cell_means(counts: np.ndarray, sums: np.ndarray, fill: float) -> np.ndarray:
    """Per-cell sample means, ``fill`` where a cell has no pulls."""
    return np.where(counts > 0, sums / np.maximum(counts, 1), fill)


def _check_alpha(alpha: float) -> None:
    if not alpha > 2:
        raise ConfigurationError(f"alpha must exceed 2, got {alpha}")


def _optimism_index(counts, sums, t: int, alpha: float, family: PsiFamily) -> np.ndarray:
    """Sample mean plus the unchecked bonus on alpha*ln(t)/count (>= 0 as t >= 1);
    an arm never pulled scores +inf, so argmax plays it first."""
    with np.errstate(invalid="ignore", divide="ignore"):
        score = sums / counts + _psi_star_inv(family, alpha * np.log(t) / counts)
    return np.where(counts == 0, np.inf, score)


def sb_ucb_select(stats: PullStats, state: int, t: int, alpha: float, family: PsiFamily) -> int:
    """Arm to pull at 1-based time ``t`` in the given state.

    Any arm never pulled in this state is played first (lowest index);
    otherwise the arm maximizing sample mean plus the inverted-conjugate
    bonus on alpha*ln(t)/count wins, ties to the lowest index. alpha must
    exceed 2 for the associated regret guarantee to hold.
    """
    _check_alpha(alpha)
    if t < 1 or not 0 <= state < stats.S:
        raise ConfigurationError(f"need t >= 1 and state in [0, {stats.S}), got t={t}, state={state}")
    return int(np.argmax(_optimism_index(stats.counts[:, state], stats.sums[:, state], t, alpha, family)))


_BLOCK_VARIATES = 1 << 18  # reward variates optimism_play holds at once: 2 MiB of float64


def optimism_play(env: Environment, alpha: float, family: PsiFamily, streams, n: int, counts, sums):
    """Play the optimism-index rule for n steps, one run per stream, in lockstep.

    Run r draws its reward variates from ``streams[r]`` in blocks of about
    ``_BLOCK_VARIATES / runs`` steps; they equal one draw of n, the values n
    calls of ``pull`` would draw. ``counts`` and ``sums`` of shape (runs, K,
    S) are updated in place. Yields (t, state, choice, mean) per step, the
    chosen arms and their local means being (runs,) arrays.
    """
    _check_alpha(alpha)
    spec = env.spec
    bernoulli = spec.reward_family == "bernoulli"
    block = max(1, _BLOCK_VARIATES // len(streams))
    rows = np.arange(len(streams))
    scale = np.sqrt(spec.reward_sigma2)
    for lo in range(0, n, block):
        size = min(block, n - lo)
        variates = np.empty((size, len(streams)))
        for r, stream in enumerate(streams):
            variates[:, r] = stream.random(size) if bernoulli else stream.standard_normal(size)
        states = spec.state_sequence[lo:lo + size].tolist()
        for t, s, u in zip(range(lo + 1, lo + size + 1), states, variates):
            choice = np.argmax(_optimism_index(counts[:, :, s], sums[:, :, s], t, alpha, family), axis=1)
            mean = env.m[choice, s]
            reward = (u < mean).astype(float) if bernoulli else np.clip(mean + scale * u, 0.0, 1.0)
            counts[rows, choice, s] += 1
            sums[rows, choice, s] += reward
            yield t, s, choice, mean


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
    """``eba_recommend`` for each run of (runs, K, S) cell means, NaN where
    unpulled; the runs share one pull pattern, so the first run is checked."""
    unpulled = np.flatnonzero(np.all(np.isnan(means[0]), axis=1))
    if unpulled.size:
        raise RecommendationError(f"arm {int(unpulled[0])} has no pulls in any state")
    return np.argmax(np.nanmean(means, axis=2), axis=1)


def eba_recommend(stats: PullStats) -> int:
    """Arm with the best average of per-state sample means.

    States with no pulls for an arm are left out of that arm's average. An
    arm with no pulls at all cannot be scored and raises RecommendationError.
    """
    return int(_eba_pick(stats.means[None])[0])


def eliminate(scores: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the lowest-scoring active arm of each run, ties to the lowest index.

    ``scores`` is (runs, K); ``active`` is (runs, A) with each row's arms in
    ascending order. Returns the remaining (runs, A-1) arms and the dropped
    arm of each run.
    """
    runs, A = active.shape
    pos = np.argmin(np.take_along_axis(scores, active, axis=1), axis=1)
    keep = np.arange(A) != pos[:, None]
    return active[keep].reshape(runs, A - 1), active[np.arange(runs), pos]


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


def _rotate(env: Environment, t_lo: int, t_hi: int, arms, stats: PullStats, rng) -> list:
    """Pull ``arms`` in rotation over steps t_lo+1..t_hi, recording into ``stats``.

    The v-th visit to a state within the span goes to arms[v mod len(arms)],
    which is what ``rotation_counts`` counts. Returns one (t, state, arm,
    reward) tuple per step.
    """
    visits = [0] * env.spec.S
    steps = []
    for t, s in enumerate(env.spec.state_sequence[t_lo:t_hi].tolist(), start=t_lo + 1):
        visits[s] += 1
        arm = arms[visits[s] % len(arms)]
        reward = pull(env, arm, t, rng)
        stats.update(arm, s, reward)
        steps.append((t, s, arm, reward))
    return steps


def successive_rejects(env: Environment, schedule: SRSchedule, rng: np.random.Generator) -> SRResult:
    """Run phased elimination on ``env`` and return the surviving arm.

    Within a phase the active arms (ascending order) are rotated per state:
    the phase-local visit rank of the current state, mod the number of active
    arms, picks the arm. At each boundary the active arm with the lowest sum
    of per-state sample means is dropped (unpulled cells count as 0, ties to
    the lowest index).
    """
    spec = env.spec
    n_table = sr_counts(spec.state_sequence, schedule, spec.K, spec.S)
    stats = PullStats(spec.K, spec.S)
    active = np.arange(spec.K)[None, :]
    steps: list[tuple[int, int, int, float, int]] = []
    rejected: list[int] = []
    t_prev = 0
    for k, t_k in enumerate(schedule.t_k, start=1):
        phase = _rotate(env, t_prev, t_k, active[0].tolist(), stats, rng)
        steps += [(t, s, arm, reward, k) for t, s, arm, reward in phase]
        scores = cell_means(stats.counts, stats.sums, 0.0).sum(axis=1)
        active, dropped = eliminate(scores[None], active)
        rejected.append(int(dropped[0]))
        t_prev = t_k
    return SRResult(winner=int(active[0, 0]), rejected=rejected, steps=steps, n_table=n_table, stats=stats)


def run_uniform_eba(env: Environment, n: int, rng: np.random.Generator) -> tuple[int, PullStats]:
    """Uniform rotation for ``n`` steps, then recommend by best state-average."""
    spec = env.spec
    if n > spec.horizon:
        raise ConfigurationError(f"n {n} exceeds environment horizon {spec.horizon}")
    stats = PullStats(spec.K, spec.S)
    _rotate(env, 0, n, range(spec.K), stats, rng)
    return eba_recommend(stats), stats


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
    if n > spec.horizon:
        raise ConfigurationError(f"n {n} exceeds environment horizon {spec.horizon}")
    stats = PullStats(spec.K, spec.S)
    play = optimism_play(env, alpha, family, [rng], n, stats.counts[None], stats.sums[None])
    return stats, [int(choice[0]) for _, _, choice, _ in play]
