"""Bandit environments with per-state local means.

An environment has ``K`` arms and ``S`` states. Each arm ``i`` carries a
global utility ``mu[i]`` in [0, 1]; instantiation draws a local mean
``m[i, s]`` for every state from a Normal(mu[i], sigma2) prior clamped to
[0, 1]. Pulling arm ``i`` at time ``t`` returns a reward with mean
``m[i, state_sequence[t-1]]`` from the configured reward family. The state
sequence is known in advance and shared by every strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ValidationError, _check_integer, _check_integers, _warn
from .rng import substream

__all__ = [
    "EnvironmentSpec",
    "Environment",
    "GapReport",
    "make_state_sequence",
    "instantiate",
    "state_counts",
    "gaps",
]

REWARD_FAMILIES = ("bernoulli", "truncated_gaussian")
STATE_MODES = ("iid_uniform", "round_robin", "blocks")


@dataclass(frozen=True)
class EnvironmentSpec:
    """Declarative description of an environment; fully determines it with seed.

    ``state_sequence`` is stored as a private read-only int64 array: a copy of
    the input, so later changes to the caller's array do not reach the spec.
    Specs compare equal field by field; they are not hashable.
    """

    K: int
    S: int
    mu: tuple[float, ...]
    sigma2: float
    state_sequence: np.ndarray
    seed: int = 0
    reward_family: str = "bernoulli"
    reward_sigma2: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(map(float, self.mu)))
        for name in ("K", "S", "seed"):
            _check_integer(getattr(self, name), name)
        if self.K < 2:
            raise ValidationError("need at least 2 arms", field="K")
        if self.S < 1:
            raise ValidationError("need at least 1 state", field="S")
        if len(self.mu) != self.K:
            raise ValidationError(f"expected {self.K} entries, got {len(self.mu)}", field="mu")
        if any(not (0.0 <= u <= 1.0) for u in self.mu):
            raise ValidationError("entries must lie in [0, 1]", field="mu")
        if not 0 < self.sigma2 < np.inf:  # at inf every local mean is clamped to 0 or 1
            raise ValidationError("must be positive and finite", field="sigma2")
        seq = _check_integers(self.state_sequence, "state_sequence")
        if seq.ndim != 1 or seq.size == 0:
            raise ValidationError("must be a non-empty 1-d sequence", field="state_sequence")
        if np.minimum.reduce(seq) < 0 or np.maximum.reduce(seq) >= self.S:
            raise ValidationError(f"entries must lie in [0, {self.S})", field="state_sequence")
        seq.setflags(write=False)
        object.__setattr__(self, "state_sequence", seq)
        if self.reward_family not in REWARD_FAMILIES:
            raise ValidationError(f"must be one of {REWARD_FAMILIES}", field="reward_family")
        if self.reward_family == "truncated_gaussian" and not 0 < self.reward_sigma2 < np.inf:
            raise ValidationError("must be positive and finite", field="reward_sigma2")
        if self.horizon < self.K * self.S:
            _warn(f"horizon {self.horizon} is shorter than K*S = {self.K * self.S}; "
                  "some (arm, state) cells cannot be visited", __name__)

    def __eq__(self, other):
        if not isinstance(other, EnvironmentSpec):
            return NotImplemented
        scalars = ("K", "S", "mu", "sigma2", "seed", "reward_family", "reward_sigma2")
        return (all(getattr(self, f) == getattr(other, f) for f in scalars)
                and np.array_equal(self.state_sequence, other.state_sequence))

    @property
    def horizon(self) -> int:
        return len(self.state_sequence)


def make_state_sequence(S: int, n: int, mode: str = "iid_uniform", seed: int = 0) -> np.ndarray:
    """Generate a length-n int64 state sequence: iid_uniform, round_robin or
    blocks (S equal blocks, the last one taking the remainder)."""
    for value, name in ((S, "S"), (n, "n"), (seed, "seed")):
        _check_integer(value, name)
    if S < 1 or n < 1:
        raise ValidationError("need S >= 1 and n >= 1", field="state_sequence")
    if mode == "iid_uniform":
        return substream(seed, "state-sequence").integers(0, S, size=n)
    if mode == "round_robin":
        return np.arange(n) % S
    if mode == "blocks":
        block = n // S
        return np.repeat(np.arange(S), [block] * (S - 1) + [n - block * (S - 1)])
    raise ValidationError(f"unknown mode {mode!r}", field="state_sequence")


@dataclass(frozen=True)
class Environment:
    """A spec plus its realized local-mean matrix ``m`` of shape (K, S); its
    gap quantities and its visits to each state over the horizon are
    computed once, here, and read through ``gaps`` and ``_visits``. ``m`` is a
    private read-only copy of the input; environments compare equal by spec and
    by the values of ``m``, and are not hashable."""

    spec: EnvironmentSpec
    m: np.ndarray = field(repr=False)
    _gaps: GapReport = field(init=False, repr=False, compare=False)
    _horizon_visits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = self.spec
        m = np.array(self.m, dtype=float)
        if m.shape != (spec.K, spec.S):
            raise ValidationError(f"expected shape {(spec.K, spec.S)}, got {m.shape}", field="m")
        m_star = np.maximum.reduce(m, axis=0)
        if not (np.minimum.reduce(m, axis=None) >= 0.0 and np.maximum.reduce(m_star) <= 1.0):  # nan fails too
            raise ValidationError("entries must lie in [0, 1]", field="m")
        state_means = np.add.reduce(m, axis=1) / spec.S  # m.mean(axis=1)
        delta_sigma, j_hat_star = _gap_vector(state_means)
        delta_mu, j_star = _gap_vector(np.array(spec.mu))
        report = GapReport(delta_m=m_star - m, delta_sigma=delta_sigma, delta_mu=delta_mu, j_star=j_star,
                           j_hat_star=j_hat_star, m_star_per_state=m_star, state_means=state_means)
        visits = state_counts(spec.state_sequence, spec.S)
        for a in (m, report.delta_m, delta_sigma, delta_mu, m_star, state_means, visits):
            a.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_gaps", report)
        object.__setattr__(self, "_horizon_visits", visits)

    def __eq__(self, other):
        if not isinstance(other, Environment):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.m, other.m)


def instantiate(spec: EnvironmentSpec) -> Environment:
    """Draw the local means for a spec; deterministic in spec.seed.

    Standard normals are drawn first and then shifted by mu, so raising any
    mu pointwise (same seed) never lowers a local mean after clamping.
    """
    rng = substream(spec.seed, "instantiate")
    z = rng.standard_normal((spec.K, spec.S))
    m = np.clip(np.asarray(spec.mu)[:, None] + np.sqrt(spec.sigma2) * z, 0.0, 1.0)
    return Environment(spec=spec, m=m)


def _check_bernoulli(spec: EnvironmentSpec) -> None:
    """Cell reward sums drawn as Binomials need Bernoulli rewards."""
    if spec.reward_family != "bernoulli":
        raise ConfigurationError(f"binomial cell sums need bernoulli rewards, got {spec.reward_family!r}")


def _check_distinct(values, name: str) -> None:
    """A list whose entries each select one output must not repeat any."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigurationError(f"{name} must be distinct; repeated: {repeated}")


def _check_steps(n: int, horizon: int, name: str = "n") -> None:
    """A run or bound of ``n`` steps must be an integer that fits the horizon."""
    _check_integer(n, name)
    if not 1 <= n <= horizon:
        raise ConfigurationError(f"{name} {n} outside [1, {horizon}]")


def _variates(spec: EnvironmentSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 ``out`` in place with the reward variates of
    its pulls, the values a draw of its size gives, and return it: uniforms for
    bernoulli rewards, standard normals for truncated_gaussian ones."""
    return rng.random(out=out) if spec.reward_family == "bernoulli" else rng.standard_normal(out=out)


def _rewards(spec: EnvironmentSpec, mean, u) -> np.ndarray:
    """Rewards of pulls with local means ``mean`` and variates ``u``: ``u < mean``
    (bernoulli) or ``mean + sqrt(reward_sigma2) * u`` clipped to [0, 1]."""
    if spec.reward_family == "bernoulli":
        return (u < mean).astype(float)
    return np.clip(mean + np.sqrt(spec.reward_sigma2) * u, 0.0, 1.0)


def state_counts(state_sequence, S: int, n: int | None = None) -> np.ndarray:
    """Visit counts per state over the first ``n`` steps (default: all)."""
    return np.bincount(state_sequence[:n], minlength=S)


def _visits(env: Environment, n: int) -> np.ndarray:
    """``state_counts`` of the first ``n`` steps; the environment keeps the horizon's."""
    if n == env.spec.horizon:
        return env._horizon_visits
    return state_counts(env.spec.state_sequence, env.spec.S, n)


@dataclass(frozen=True)
class GapReport:
    """All gap quantities of an environment under the min-gap convention.

    * ``delta_m[i, s]``: per-state gap to the state's best local mean.
    * ``delta_sigma[i]``: gap of arm i's state-average ``state_means[i]``
      (``m.mean(axis=1)``) to the best one; the best arm gets the smallest rival gap.
    * ``delta_mu[i]``: same for global utilities.
    * ``j_star`` / ``j_hat_star``: best arm by mu / by state-average of m.
    """

    delta_m: np.ndarray
    delta_sigma: np.ndarray
    delta_mu: np.ndarray
    j_star: int
    j_hat_star: int
    m_star_per_state: np.ndarray
    state_means: np.ndarray


def _gap_vector(values: np.ndarray) -> tuple[np.ndarray, int]:
    best = int(values.argmax())
    delta = values[best] - values
    delta[best] = np.inf  # the best arm's gap is then the smallest rival gap
    delta[best] = np.minimum.reduce(delta)
    return delta, best


def gaps(env: Environment) -> GapReport:
    """Every gap quantity of a realized environment, as read-only arrays."""
    return env._gaps

