"""Allocation strategies and recommendation rules.

Three allocation rules are provided: an optimism index rule with per-state
statistics (for cumulative reward), deterministic uniform rotation, and
phased successive elimination (for best-arm identification). Recommendation
is by empirical best state-average. All tie-breaks are toward the lowest arm
index, and forced exploration always picks the lowest-index unpulled arm.

Each rule is written once, as one engine over a batch of runs:
``optimism_play`` plays the optimism index in lockstep, one run per stream,
and ``successive_rejects`` samples elimination phase by phase. A single run
is a batch of one, and the estimators in ``montecarlo`` call the same
engines and share the count, recommendation and elimination functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import BOUNDED_UNIT
from .env import Environment, _check_bernoulli, _check_steps, _rewards, _variates
from .errors import ConfigurationError, RecommendationError, ScheduleError, _check_integer

__all__ = [
    "cell_means",
    "optimism_play",
    "rotation_counts",
    "eliminate",
    "log_bar",
    "SRSchedule",
    "sr_schedule",
    "phase_visits",
    "sr_counts",
    "successive_rejects",
]


def cell_means(counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Per-cell sample means, 0 where a cell has no pulls and so a sum of 0 (``counts`` broadcasts)."""
    return sums / np.maximum(counts, 1)


def _check_alpha(alpha: float) -> None:
    if not 2 < alpha < math.inf:  # at inf, alpha/(alpha - 2) in thm1 is nan
        raise ConfigurationError(f"alpha must be finite and exceed 2, got {alpha}")


def _optimism_pick(counts, sums, visit: int, alpha_log_t: float, score, bonus, weights=None):
    """Arms played at the ``visit``-th earlier visit to a state, given its (runs,
    K) tables. Visit v < K is forced exploration: arm v, the lowest unpulled
    one, in every run. After that every cell has pulls, and the arm with the
    best mean ``sums / weights`` (the sample mean when ``weights`` is None)
    plus the bounded-unit bonus sqrt((2 sigma^2 alpha*ln(t))/count) (>= 0 as
    t >= 1) is played, ties to the lowest; the index is written into the
    scratch tables ``score`` and ``bonus``."""
    if visit < counts.shape[1]:
        return np.full(counts.shape[0], visit)
    np.sqrt(np.divide(2.0 * BOUNDED_UNIT.sigma2 * alpha_log_t, counts, out=bonus), out=bonus)
    mean = np.divide(sums, counts if weights is None else weights, out=score)
    return np.add(mean, bonus, out=score).argmax(axis=1)


_BLOCK_VARIATES = 1 << 18  # variates in optimism_play's one buffer, refilled each block: 2 MiB of float64


def optimism_play(env: Environment, alpha: float, streams, n: int):
    """Play the optimism-index rule for n steps, one run per stream, in lockstep.

    Run r draws its reward variates from ``streams[r]`` in blocks of about
    ``_BLOCK_VARIATES / runs`` steps, filled in place into row r of one
    (runs, block) buffer that every block reuses; they equal one draw of n.
    The engine keeps each state's counts and sums as contiguous float64
    (runs, K) tables and adds each pull at its flat position in them. Yields
    (t, state, choice, mean) per step, the chosen arms and their local means
    being (runs,) arrays.
    """
    spec = env.spec
    _check_steps(n, spec.horizon)
    _check_alpha(alpha)
    runs, K = len(streams), spec.K
    _check_integer(runs, "runs", low=1)
    c, tot = np.zeros((2, spec.S, runs, K))
    score, bonus = np.empty((2, runs, K))
    visits, means = [0] * spec.S, env.m.T
    # in these C-order tables the cell of run r's arm k in state s is (s * runs + r) * K + k
    c_flat, tot_flat = c.reshape(-1), tot.reshape(-1)
    bases = [(s * runs + np.arange(runs)) * K for s in range(spec.S)]
    block = max(1, _BLOCK_VARIATES // runs)
    buf = np.empty((runs, min(block, n)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        for row, stream in zip(buf, streams):
            _variates(spec, stream, row[:hi - lo])
        alpha_log_t = (alpha * np.log(np.arange(lo + 1, hi + 1))).tolist()
        states = spec.state_sequence[lo:hi].tolist()
        for t, s, u, a in zip(range(lo + 1, hi + 1), states, buf[:, :hi - lo].T, alpha_log_t):
            choice = _optimism_pick(c[s], tot[s], visits[s], a, score, bonus)
            visits[s] += 1
            mean = means[s][choice]
            cell = bases[s] + choice
            c_flat[cell] += 1.0
            tot_flat[cell] += _rewards(spec, mean, u)
            yield t, s, choice, mean


def rotation_counts(visits, A: int) -> np.ndarray:
    """Pulls per (rank, state) when each state's visits rotate over A ranks.

    The v-th visit to a state goes to rank v mod A, so after V visits rank r
    holds floor(V/A) pulls plus one when 1 <= r <= V mod A: floor((V + (-r
    mod A)) / A). Per-state counts therefore differ by at most one. Returns
    shape (A, len(visits)).
    """
    return (np.asarray(visits, dtype=np.int64) + (-np.arange(A) % A)[:, None]) // A


def _eba_pick(means: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Arm with the best average of per-state sample means, for each run of
    (K, S, runs) cell means, ties to the lowest index.

    ``counts`` is the (K, S) pull table the runs share: an arm averages its
    pulled states only, and an arm with no pulls at all cannot be scored and
    raises RecommendationError.
    """
    pulled = np.count_nonzero(counts, axis=1)
    if not pulled.all():
        raise RecommendationError(f"arm {int(pulled.argmin())} has no pulls in any state")
    return (_state_sum(means.transpose(1, 0, 2)) / pulled[:, None]).argmax(axis=0)


def eliminate(scores: np.ndarray, *tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """Drop each run's lowest-scoring active position from every table.

    ``scores`` is (A, runs) and each table (..., A, runs), position j of both
    belonging to one arm. Positions hold arms in ascending order, so ties go
    to the lowest arm index. Returns each run's dropped position, then each
    table with the later positions moved down one, (..., A-1, runs).
    """
    pos = scores.argmin(axis=0)
    shift = np.arange(len(scores) - 1)[:, None] >= pos
    return (pos, *(np.where(shift, t[..., 1:, :], t[..., :-1, :]) for t in tables))


def _state_sum(x: np.ndarray) -> np.ndarray:
    """``x`` summed over its leading (state) axis in the order numpy adds a contiguous
    row: one by one below 8 states; from 8, eight running partial sums, paired, then
    the rest one by one; past 128, two halves split at a multiple of 8, each so."""
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _state_sum(x[:half]) + _state_sum(x[half:])
    if n < 8:
        acc, whole = x[0].copy(), 1
    else:
        lanes, whole = x[:8].copy(), n - n % 8
        for i in range(8, whole, 8):
            lanes += x[i:i + 8]
        acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for row in x[whole:]:
        acc += row
    return acc


def log_bar(K: int) -> float:
    """The half-plus-harmonic normalizer used by the reference schedule."""
    if K < 2:
        raise ConfigurationError("need K >= 2")
    return 0.5 + sum(1.0 / i for i in range(2, K + 1))


@dataclass(frozen=True)
class SRSchedule:
    """Phase boundaries for successive elimination: K-1 strictly increasing
    integer rejection times, the last equal to the horizon."""

    t_k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "t_k", tuple(_check_integer(t, "a boundary") for t in self.t_k))
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
    _check_integer(K, "K")
    _check_integer(n, "n")
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
    return SRSchedule(tuple(t_k))


def phase_visits(state_sequence, t_k, S: int) -> np.ndarray:
    """Visits to each state within each phase, shape (len(t_k), S): row k-1
    counts steps t_{k-1}+1..t_k, with t_0 = 0."""
    edges = (0,) + tuple(t_k)
    return np.array([np.bincount(state_sequence[lo:hi], minlength=S)
                     for lo, hi in zip(edges, edges[1:])], dtype=np.int64)


def _check_schedule(schedule: SRSchedule, K: int, horizon: int) -> None:
    """A schedule must be for K arms and end within the horizon."""
    if schedule.K != K:
        raise ScheduleError(f"schedule is for {schedule.K} arms, got K={K}", field="t_k")
    if schedule.n > horizon:
        raise ScheduleError(f"schedule horizon {schedule.n} exceeds sequence length {horizon}", field="t_k")


def sr_counts(state_sequence, schedule: SRSchedule, K: int, S: int) -> np.ndarray:
    """Evenly-allocated per-arm pull counts n_{s,k} through each phase.

    Entry [s, k-1] accumulates floor(phase-k visits to s / active arms in
    phase k), the pulls of the lowest rotation rank; this is exactly the
    table a successive-elimination run reports. States that are never
    visited keep all-zero rows.
    """
    _check_schedule(schedule, K, len(state_sequence))
    active = np.arange(K, 1, -1)[:, None]
    return np.cumsum(phase_visits(state_sequence, schedule.t_k, S) // active, axis=0).T


def successive_rejects(env: Environment, schedule: SRSchedule, runs: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``runs`` runs of successive elimination phase-wise: each run's
    surviving arm, shape (runs,), and its rejected arms in order, (runs, K-1).

    Within a phase the v-th visit to a state goes to active position v mod A,
    which is what ``rotation_counts`` counts. Tables are (state, active
    position, run), the draw order: position j of run r is arm ``active[j, r]``,
    ascending in j, with local means ``p``. Each phase draws all (state,
    rotation rank) cells in one binomial call; a cell without pulls draws
    nothing, so the values are those of one call per cell. ``eliminate`` then
    drops the lowest sum of per-state means (unpulled cells 0, ties to the
    lowest arm). Cell sums are Binomials, so rewards must be Bernoulli.
    """
    spec = env.spec
    _check_bernoulli(spec)
    _check_schedule(schedule, spec.K, spec.horizon)
    _check_integer(runs, "runs", low=1)
    K, S = spec.K, spec.S
    active = np.repeat(np.arange(K)[:, None], runs, axis=1)
    p = np.repeat(env.m.T[:, :, None], runs, axis=2)
    counts, sums = np.zeros((2, S, K, runs))
    rows = np.arange(runs)
    rejected = np.empty((K - 1, runs), dtype=np.int64)
    for k, visits in enumerate(phase_visits(spec.state_sequence, schedule.t_k, S)):
        pulls = rotation_counts(visits, len(active)).T[:, :, None]
        counts += pulls
        sums += rng.binomial(pulls, p)
        scores = _state_sum(cell_means(counts, sums))
        pos, remaining, counts, sums, p = eliminate(scores, active, counts, sums, p)
        rejected[k], active = active[pos, rows], remaining
    return active[0], rejected.T
