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

The normal CDF in thm2.1's prior-mass term is a port of Cephes' ``ndtr``,
``erf`` and ``erfc`` (Moshier's coefficients and branches, the algorithm
``scipy.special.ndtr`` runs) in IEEE double arithmetic with libm's ``exp``, so
it gives scipy's bits without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import BOUNDED_UNIT, PsiFamily, _psi_star
from .env import Environment, _check_steps, _visits, gaps
from .strategies import SRSchedule, _check_alpha, sr_counts

__all__ = [
    "BoundReport",
    "normal_cdf",
    "thm1_bound",
    "thm2_bounds",
    "thm3_bounds",
    "thm4_bounds",
]


# Cephes erf (T/U) and erfc (P/Q below 8, R/S above) rational coefficients,
# highest power first. Q, S and U carry Cephes' implicit leading 1, so one
# Horner loop runs both polevl and p1evl in the same order of operations.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # ln(DBL_MAX): erfc underflows to 0 past exp(-_MAXLOG)


def _horner(x: float, coef: tuple[float, ...]) -> float:
    acc = 0.0  # 0*x + c0 == c0 exactly, as polevl starts; 1*x + c0 == x + c0, as p1evl starts
    for c in coef:
        acc = acc * x + c
    return acc


def _erf(x: float) -> float:
    """Cephes erf for |x| < 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U)


def _ndtr(a: float) -> float:
    """Cephes ndtr: (1 + erf(a/sqrt2))/2 near 0, else from erfc(|a|/sqrt2)."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
    elif z * z > _MAXLOG:
        y = 0.0
    else:
        p, q = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
        y = 0.5 * (math.exp(-z * z) * _horner(z, p) / _horner(z, q))
    return 1.0 - y if x > 0 else y


def normal_cdf(x):
    """Standard normal CDF, bit for bit ``scipy.special.ndtr``: a float for a
    scalar, else an array of the input's shape."""
    arr = np.asarray(x, dtype=float)
    if not arr.ndim:
        return _ndtr(float(arr))
    return np.array([_ndtr(v) for v in arr.ravel().tolist()], dtype=float).reshape(arr.shape)


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
    return _visits(env, n) // env.spec.K


def thm1_bound(env: Environment, alpha: float, n: int) -> BoundReport:
    """Pseudo-regret bound: sum over cells with a positive per-state gap of
    gap * (alpha ln n / psi_star(gap/2) + alpha/(alpha-2)), psi_star being the
    bounded-unit envelope's, as rewards lie in [0, 1]."""
    _check_alpha(alpha)
    _check_steps(n, env.spec.horizon)
    delta = gaps(env).delta_m
    positive = delta[delta > 0]
    total = float(
        np.sum(positive * (alpha * math.log(n) / _psi_star(BOUNDED_UNIT, positive / 2.0) + alpha / (alpha - 2.0)))
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
    # thm2.1's and thm2.2's (arm, state) terms; psi_star unchecked, as the gaps are non-negative
    eps = g.delta_sigma / np.array([[4.0], [2.0]])
    terms = 2.0 * np.exp(-(_psi_star(family, eps)[:, :, None] * _per_state_floor(env, n)))
    e_raw, e_hat_raw = np.add.reduce(terms.reshape(2, -1), axis=1)  # np.sum of each statement's table
    prior = np.add.reduce(2.0 * env.spec.S * normal_cdf(-g.delta_mu / (4.0 * env.spec.sigma2)))
    return _report("thm2.1", e_raw + prior), _report("thm2.2", e_hat_raw)


def _pick_terms(m: np.ndarray, anchor: int, rivals, counts) -> np.ndarray:
    """exp(-(m[anchor, s] - m[j, s])^2 * counts) for each rival j (a row) and
    state s: the per-state terms whose sum over s bounds P(J = j). ``counts``
    is one row of per-state pull counts for every rival, or a row per rival."""
    return np.exp(-(m[anchor] - m[rivals]) ** 2 * counts)


def thm3_bounds(env: Environment, n: int) -> tuple[BoundReport, BoundReport]:
    """Expected simple-regret bounds under uniform rotation, as (global, empiric).

    The recommendation J converges to the local-mean leader j_hat_star, so
    both sums anchor there. Simple regret is r = sum_j delta_mu_j * P(J = j)
    (the best arm's delta_mu, its smallest rival gap, only adds), and each
    P(J = j) <= sum_s exp(-(m[j_hat_star, s] - m[j, s])^2 * floor_s), the
    leader's own term being S >= 1. thm3.2 is the same sum weighted by the
    state-averaged gaps delta_sigma. The bounds assume rewards and local means
    supported on [0, 1], so they take no reward family.
    """
    g = gaps(env)
    pick = _pick_terms(env.m, g.j_hat_star, slice(None), _per_state_floor(env, n))  # (arm, state)
    return (
        _report("thm3.1", np.add.reduce(g.delta_mu[:, None] * pick, axis=None)),
        _report("thm3.2", np.add.reduce(g.delta_sigma[:, None] * pick, axis=None)),
    )


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
    K = env.spec.K
    table = sr_counts(env.spec.state_sequence, schedule, K, env.spec.S)
    # phase k's rival is rank K+1-k: the arms other than the leader, largest gap (then index) first
    rivals = sorted(set(range(K)) - {g.j_hat_star}, key=lambda i: (g.delta_sigma[i], i), reverse=True)

    def total(anchor: int) -> float:
        acc = 0.0
        for k, phase in enumerate(_pick_terms(env.m, anchor, rivals, table.T).sum(axis=1).tolist(), start=1):
            acc += k * phase
        return acc

    return _report("thm4.2", total(g.j_star)), _report("thm4.1", total(g.j_hat_star))
