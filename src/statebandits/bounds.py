"""Closed-form error and regret bounds.

Each bound takes a realized environment and returns a BoundReport holding the
raw sum and the value clamped to [0, 1] (every probability bound is
trivially valid at 1). Raw values are what tightness studies plot; validity
checks compare against the clamped value.

Bound catalogue (names used in reports and CSV output):

* ``thm1``: cumulative pseudo-regret of the optimism-index strategy.
* ``thm2.1`` / ``thm2.2``: misidentification probability of the global /
  empiric best arm under uniform rotation with best-state-average
  recommendation.
* ``thm3.1`` / ``thm3.2``: expected global / empiric simple regret, same
  strategy pair.
* ``thm4.1`` / ``thm4.2``: misidentification probability of the empiric /
  global best arm under successive elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import PsiFamily, psi_star
from .env import Environment, _check_steps, gaps, state_counts
from .strategies import SRSchedule, _check_alpha, sr_counts

__all__ = [
    "BoundReport",
    "normal_cdf",
    "thm1_bound",
    "thm2_bounds",
    "thm3_bounds",
    "thm4_bounds",
]


def normal_cdf(x):
    """Standard normal CDF, accurate to ~1e-16 relative; scalar or array."""
    from scipy.special import ndtr  # deferred: start-up of the studies that never call it skips scipy

    out = ndtr(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with its clamped form."""

    name: str
    raw_value: float
    clamped_value: float


def _report(name: str, raw: float) -> BoundReport:
    return BoundReport(name=name, raw_value=float(raw), clamped_value=float(min(raw, 1.0)))


def _per_state_floor(env: Environment, n: int) -> np.ndarray:
    """floor(visits to s within n / K) for each state."""
    _check_steps(n, env.spec.horizon)
    return state_counts(env.spec.state_sequence, env.spec.S, n) // env.spec.K


def thm1_bound(env: Environment, alpha: float, n: int, family: PsiFamily) -> BoundReport:
    """Pseudo-regret bound: sum over cells with a positive per-state gap of
    gap * (alpha ln n / psi_star(gap/2) + alpha/(alpha-2))."""
    _check_alpha(alpha)
    _check_steps(n, env.spec.horizon)
    delta = gaps(env).delta_m
    positive = delta[delta > 0]
    total = float(
        np.sum(positive * (alpha * math.log(n) / psi_star(family, positive / 2.0) + alpha / (alpha - 2.0)))
    )
    # Not a probability; the clamp is kept for interface uniformity only.
    return _report("thm1", total)


def thm2_bounds(env: Environment, n: int, family: PsiFamily) -> tuple[BoundReport, BoundReport]:
    """Misidentification bounds under uniform rotation, as (global, empiric).

    The global-best bound adds a prior mass term 2*S*Phi(-delta_mu/(4*sigma2))
    per arm, with sigma2 the spec's local-mean prior variance. Both sums run
    over every arm, the best one entering through its smallest rival gap.
    """
    g = gaps(env)
    floors = _per_state_floor(env, n)
    e_hat_raw = float(
        np.sum(2.0 * np.exp(-np.outer(psi_star(family, g.delta_sigma / 2.0), floors)))
    )
    e_raw = float(
        np.sum(2.0 * np.exp(-np.outer(psi_star(family, g.delta_sigma / 4.0), floors)))
        + np.sum(2.0 * env.spec.S * normal_cdf(-g.delta_mu / (4.0 * env.spec.sigma2)))
    )
    return _report("thm2.1", e_raw), _report("thm2.2", e_hat_raw)


def thm3_bounds(env: Environment, n: int) -> tuple[BoundReport, BoundReport]:
    """Expected simple-regret bounds under uniform rotation, as (global, empiric).

    The bounds assume rewards and local means supported on [0, 1], so they
    take no reward family.
    """
    g = gaps(env)
    floors = _per_state_floor(env, n)
    m = env.m

    def total(best: int, delta: np.ndarray) -> float:
        expo = np.exp(-(m[best][None, :] - m) ** 2 * floors[None, :])
        return float(np.sum(delta[:, None] * expo))

    return (
        _report("thm3.1", total(g.j_star, g.delta_mu)),
        _report("thm3.2", total(g.j_hat_star, g.delta_sigma)),
    )


def _elimination_ordering(best: int, delta: np.ndarray) -> list[int]:
    rest = [i for i in range(len(delta)) if i != best]
    rest.sort(key=lambda i: (delta[i], i))
    return [best] + rest


def thm4_bounds(env: Environment, schedule: SRSchedule) -> tuple[BoundReport, BoundReport]:
    """Misidentification bounds under successive elimination, as (global, empiric).

    Both statements share one elimination ranking: arms best-first by
    state-averaged local mean, then ascending gap, ties to the lower index.
    Phase k contributes k * exp(-n_{s,k} * (m[anchor, s] - m[rank K+1-k, s])^2)
    per state. The empiric bound anchors at the local-mean leader, the global
    bound at the top true-utility arm; when those differ, the global sum picks
    up a zero-gap rival term of size k*S and saturates past 1 (the bound is
    vacuous rather than wrong whenever the prior flips the leader).
    """
    g = gaps(env)
    table = sr_counts(env.spec.state_sequence, schedule, env.spec.K, env.spec.S)
    m = env.m
    K = env.spec.K
    order = _elimination_ordering(g.j_hat_star, g.delta_sigma)

    def total(anchor: int) -> float:
        acc = 0.0
        for k in range(1, K):
            rival = order[K - k]
            diff2 = (m[anchor] - m[rival]) ** 2
            acc += k * float(np.sum(np.exp(-table[:, k - 1] * diff2)))
        return acc

    return _report("thm4.2", total(g.j_star)), _report("thm4.1", total(g.j_hat_star))
