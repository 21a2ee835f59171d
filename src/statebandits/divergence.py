"""Moment-generating-function envelopes and their convex conjugates.

The exploration bonus and the closed-form bounds in this package are
written in terms of a convex envelope ``psi`` dominating the centered reward
log-MGF, its Legendre transform ``psi_star`` and that transform's inverse.
The envelope is the sigma^2-sub-Gaussian one, psi(l) = sigma^2 l^2/2, so
psi_star(e) = e^2/(2 sigma^2) and psi_star_inv(x) = sqrt(2 sigma^2 x).
Rewards supported on [0, 1] take ``BOUNDED_UNIT``, sigma^2 = 1/4, and every
reward the package draws is so: the optimism bonus and thm1 use it alone,
while thm2 takes a family.

All three maps accept scalars or numpy arrays and are defined on the
non-negative half-line only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PsiFamily", "BOUNDED_UNIT", "psi", "psi_star", "psi_star_inv"]


@dataclass(frozen=True)
class PsiFamily:
    """The sigma^2-sub-Gaussian envelope psi(l) = sigma^2 l^2/2."""

    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError(f"envelope needs sigma2 > 0, got {self.sigma2!r}")


# Hoeffding's lemma: a reward supported on [0, 1] is 1/4-sub-Gaussian.
BOUNDED_UNIT = PsiFamily(0.25)


def _check_nonneg(x, name: str):
    if np.any(np.asarray(x) < 0):
        raise ValueError(f"{name} must be non-negative")


def psi(family: PsiFamily, lam):
    """Envelope value psi(lam) for lam >= 0."""
    _check_nonneg(lam, "lam")
    lam = np.asarray(lam, dtype=float)
    out = family.sigma2 * lam * lam / 2.0
    return out if out.ndim else float(out)


def _psi_star(family: PsiFamily, eps: np.ndarray) -> np.ndarray:
    """``psi_star`` of a float array known to be non-negative, unchecked."""
    return eps * eps / (2.0 * family.sigma2)


def psi_star(family: PsiFamily, eps):
    """Conjugate psi_star(eps) = sup_{lam >= 0} (lam * eps - psi(lam))."""
    _check_nonneg(eps, "eps")
    out = _psi_star(family, np.asarray(eps, dtype=float))
    return out if out.ndim else float(out)


def psi_star_inv(family: PsiFamily, x):
    """Inverse of the conjugate on [0, inf): psi_star_inv(psi_star(e)) = e."""
    _check_nonneg(x, "x")
    out = np.sqrt(2.0 * family.sigma2 * np.asarray(x, dtype=float))
    return out if out.ndim else float(out)
