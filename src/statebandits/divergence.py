"""Moment-generating-function envelopes and their convex conjugates.

Exploration bonuses and all closed-form error bounds in this package are
written in terms of a convex envelope ``psi`` dominating the centered reward
log-MGF, its Legendre transform ``psi_star`` and that transform's inverse.
Both supported families are sub-Gaussian envelopes, psi(l) = sigma^2 l^2/2,
so psi_star(e) = e^2/(2 sigma^2) and psi_star_inv(x) = sqrt(2 sigma^2 x):

* ``gaussian``: sigma^2-sub-Gaussian rewards, sigma^2 given;
* ``bounded_unit``: rewards supported on [0, 1], which are 1/4-sub-Gaussian
  by Hoeffding's lemma, so sigma^2 = 1/4 (psi(l) = l^2/8).

All three maps accept scalars or numpy arrays and are defined on the
non-negative half-line only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PsiFamily", "BOUNDED_UNIT", "psi", "psi_star", "psi_star_inv"]


@dataclass(frozen=True)
class PsiFamily:
    """A named envelope family; ``sigma2`` is given for ``gaussian`` only and
    set to 1/4 for ``bounded_unit``."""

    kind: str
    sigma2: float | None = None

    def __post_init__(self):
        if self.kind not in ("bounded_unit", "gaussian"):
            raise ValueError(f"unknown psi family {self.kind!r}")
        if self.kind == "gaussian":
            if self.sigma2 is None or not self.sigma2 > 0:
                raise ValueError("gaussian family needs sigma2 > 0")
        elif self.sigma2 is not None:
            raise ValueError("bounded_unit takes no sigma2")
        else:
            object.__setattr__(self, "sigma2", 0.25)

    @staticmethod
    def bounded_unit() -> "PsiFamily":
        return PsiFamily("bounded_unit")

    @staticmethod
    def gaussian(sigma2: float) -> "PsiFamily":
        return PsiFamily("gaussian", float(sigma2))


BOUNDED_UNIT = PsiFamily.bounded_unit()


def _check_nonneg(x, name: str):
    if np.any(np.asarray(x) < 0):
        raise ValueError(f"{name} must be non-negative")


def psi(family: PsiFamily, lam):
    """Envelope value psi(lam) for lam >= 0."""
    _check_nonneg(lam, "lam")
    lam = np.asarray(lam, dtype=float)
    out = family.sigma2 * lam * lam / 2.0
    return out if out.ndim else float(out)


def psi_star(family: PsiFamily, eps):
    """Conjugate psi_star(eps) = sup_{lam >= 0} (lam * eps - psi(lam))."""
    _check_nonneg(eps, "eps")
    eps = np.asarray(eps, dtype=float)
    out = eps * eps / (2.0 * family.sigma2)
    return out if out.ndim else float(out)


def _psi_star_inv(family: PsiFamily, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``psi_star_inv`` of a float array known to be non-negative, unchecked;
    written into ``out`` when it is given."""
    return np.sqrt(np.multiply(2.0 * family.sigma2, x, out=out), out=out)


def psi_star_inv(family: PsiFamily, x):
    """Inverse of the conjugate on [0, inf): psi_star_inv(psi_star(e)) = e."""
    _check_nonneg(x, "x")
    out = _psi_star_inv(family, np.asarray(x, dtype=float))
    return out if out.ndim else float(out)
