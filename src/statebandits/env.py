"""Bandit environments with per-state local means.

An environment has ``K`` arms and ``S`` states. Each arm ``i`` carries a
global utility ``mu[i]`` in [0, 1]; instantiation draws a local mean
``m[i, s]`` for every state from a Normal(mu[i], sigma2) prior clamped to
[0, 1]. Pulling arm ``i`` at time ``t`` returns a reward with mean
``m[i, state_sequence[t-1]]`` from the configured reward family. The state
sequence is known in advance and shared by every strategy.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ValidationError
from .rng import substream

__all__ = [
    "EnvironmentSpec",
    "Environment",
    "GapReport",
    "make_state_sequence",
    "instantiate",
    "state_counts",
    "gaps",
    "save_environment",
    "load_environment",
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
        object.__setattr__(self, "mu", tuple(float(u) for u in self.mu))
        if self.K < 2:
            raise ValidationError("need at least 2 arms", field="K")
        if self.S < 1:
            raise ValidationError("need at least 1 state", field="S")
        if len(self.mu) != self.K:
            raise ValidationError(f"expected {self.K} entries, got {len(self.mu)}", field="mu")
        if any(not (0.0 <= u <= 1.0) for u in self.mu):
            raise ValidationError("entries must lie in [0, 1]", field="mu")
        if not self.sigma2 > 0:
            raise ValidationError("must be positive", field="sigma2")
        seq = np.array(self.state_sequence)
        if seq.ndim != 1 or seq.size == 0:
            raise ValidationError("must be a non-empty 1-d sequence", field="state_sequence")
        if not np.issubdtype(seq.dtype, np.integer):
            raise ValidationError(f"entries must be integers, got dtype {seq.dtype}", field="state_sequence")
        if seq.min() < 0 or seq.max() >= self.S:
            raise ValidationError(f"entries must lie in [0, {self.S})", field="state_sequence")
        seq = seq.astype(np.int64, copy=False)
        seq.setflags(write=False)
        object.__setattr__(self, "state_sequence", seq)
        if self.reward_family not in REWARD_FAMILIES:
            raise ValidationError(f"must be one of {REWARD_FAMILIES}", field="reward_family")
        if self.reward_family == "truncated_gaussian" and not self.reward_sigma2 > 0:
            raise ValidationError("must be positive", field="reward_sigma2")
        if self.horizon < self.K * self.S:
            warnings.warn(
                f"horizon {self.horizon} is shorter than K*S = {self.K * self.S}; "
                "some (arm, state) cells cannot be visited",
                stacklevel=3,
            )

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
    gap quantities are computed once, here, and read through ``gaps``."""

    spec: EnvironmentSpec
    m: np.ndarray = field(repr=False)
    _gaps: GapReport = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (self.spec.K, self.spec.S):
            raise ValidationError(
                f"expected shape {(self.spec.K, self.spec.S)}, got {m.shape}", field="m"
            )
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise ValidationError("entries must lie in [0, 1]", field="m")
        m_star = m.max(axis=0)
        delta_sigma, j_hat_star = _gap_vector(m.mean(axis=1))
        delta_mu, j_star = _gap_vector(np.asarray(self.spec.mu))
        report = GapReport(delta_m=m_star[None, :] - m, delta_sigma=delta_sigma, delta_mu=delta_mu,
                           j_star=j_star, j_hat_star=j_hat_star, m_star_per_state=m_star)
        for a in (m, report.delta_m, delta_sigma, delta_mu, m_star):
            a.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_gaps", report)


def instantiate(spec: EnvironmentSpec) -> Environment:
    """Draw the local means for a spec; deterministic in spec.seed.

    Standard normals are drawn first and then shifted by mu, so raising any
    mu pointwise (same seed) never lowers a local mean after clamping.
    """
    rng = substream(spec.seed, "instantiate")
    z = rng.standard_normal((spec.K, spec.S))
    m = np.clip(np.asarray(spec.mu)[:, None] + np.sqrt(spec.sigma2) * z, 0.0, 1.0)
    return Environment(spec=spec, m=m)


def _check_steps(n: int, horizon: int, name: str = "n") -> None:
    """A run or bound of ``n`` steps must be an integer, not a bool, that fits the horizon."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {n!r}")
    if not 1 <= n <= horizon:
        raise ConfigurationError(f"{name} {n} outside [1, {horizon}]")


def _variates(spec: EnvironmentSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """The reward variates of ``size`` pulls: uniforms for bernoulli rewards,
    standard normals for truncated_gaussian ones."""
    return rng.random(size) if spec.reward_family == "bernoulli" else rng.standard_normal(size)


def _rewards(spec: EnvironmentSpec, mean, u) -> np.ndarray:
    """Rewards of pulls with local means ``mean`` and variates ``u``: ``u < mean``
    (bernoulli) or ``mean + sqrt(reward_sigma2) * u`` clipped to [0, 1]."""
    if spec.reward_family == "bernoulli":
        return (u < mean).astype(float)
    return np.clip(mean + np.sqrt(spec.reward_sigma2) * u, 0.0, 1.0)


def state_counts(state_sequence, S: int, n: int | None = None) -> np.ndarray:
    """Visit counts per state over the first ``n`` steps (default: all)."""
    return np.bincount(state_sequence[:n], minlength=S)


@dataclass(frozen=True)
class GapReport:
    """All gap quantities of an environment under the min-gap convention.

    * ``delta_m[i, s]``: per-state gap to the state's best local mean.
    * ``delta_sigma[i]``: gap of arm i's state-average to the best
      state-average; the best arm gets the smallest rival gap.
    * ``delta_mu[i]``: same for global utilities.
    * ``j_star`` / ``j_hat_star``: best arm by mu / by state-average of m.
    """

    delta_m: np.ndarray
    delta_sigma: np.ndarray
    delta_mu: np.ndarray
    j_star: int
    j_hat_star: int
    m_star_per_state: np.ndarray


def _gap_vector(values: np.ndarray) -> tuple[np.ndarray, int]:
    best = int(np.argmax(values))
    delta = values[best] - values
    delta[best] = float(np.min(np.delete(delta, best)))
    return delta, best


def gaps(env: Environment) -> GapReport:
    """Every gap quantity of a realized environment, as read-only arrays."""
    return env._gaps


def save_environment(env: Environment, path) -> None:
    """Write spec + realized means as JSON text; floats round-trip exactly."""
    payload = {
        "spec": {
            "K": env.spec.K,
            "S": env.spec.S,
            "mu": list(env.spec.mu),
            "sigma2": env.spec.sigma2,
            "state_sequence": env.spec.state_sequence.tolist(),
            "seed": env.spec.seed,
            "reward_family": env.spec.reward_family,
            "reward_sigma2": env.spec.reward_sigma2,
        },
        "m": [list(row) for row in env.m],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_environment(path) -> Environment:
    """Inverse of save_environment."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    spec = EnvironmentSpec(**payload["spec"])
    return Environment(spec=spec, m=np.asarray(payload["m"], dtype=float))
