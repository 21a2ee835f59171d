import numpy as np
import pytest
from hypothesis import given, strategies as st

from statebandits import BOUNDED_UNIT, PsiFamily, psi, psi_star, psi_star_inv

from _oracles import bisect_increasing, numeric_sup_conjugate

GAUSS = PsiFamily(0.25)


def test_psi_closed_forms():
    assert psi(BOUNDED_UNIT, 0.0) == 0.0
    assert psi(BOUNDED_UNIT, 4.0) == 2.0
    assert psi(GAUSS, 2.0) == 0.5


def test_psi_star_closed_forms():
    assert psi_star(BOUNDED_UNIT, 0.0) == 0.0
    assert psi_star(BOUNDED_UNIT, 0.5) == 0.5
    assert psi_star(BOUNDED_UNIT, 1.0) == 2.0
    assert psi_star(GAUSS, 0.5) == 0.5


def test_psi_star_inv_closed_forms():
    assert psi_star_inv(BOUNDED_UNIT, 2.0) == 1.0
    assert psi_star_inv(BOUNDED_UNIT, 0.5) == 0.5
    assert psi_star_inv(BOUNDED_UNIT, 8.0) == 2.0


def test_bounded_unit_is_quarter_sub_gaussian():
    # Hoeffding's lemma: a reward on [0, 1] is 1/4-sub-Gaussian, bit for bit
    assert BOUNDED_UNIT.sigma2 == 0.25
    grid = np.concatenate([np.linspace(0.0, 50.0, 5001), np.geomspace(1e-150, 1e150, 601)])
    for fn in (psi, psi_star, psi_star_inv):
        assert fn(BOUNDED_UNIT, grid).tobytes() == fn(GAUSS, grid).tobytes()


def test_arrays_pass_through():
    eps = np.array([0.0, 0.1, 0.5])
    out = psi_star(BOUNDED_UNIT, eps)
    assert out.shape == eps.shape
    assert np.allclose(out, 2.0 * eps**2)


@pytest.mark.parametrize("family", [BOUNDED_UNIT, GAUSS], ids=["bounded", "gaussian"])
def test_negative_inputs_rejected(family):
    with pytest.raises(ValueError, match="non-negative"):
        psi(family, -0.1)
    with pytest.raises(ValueError, match="non-negative"):
        psi_star(family, -1e-9)
    with pytest.raises(ValueError, match="non-negative"):
        psi_star_inv(family, np.array([0.0, -0.5]))


def test_family_validation():
    with pytest.raises(ValueError, match="sigma2 > 0"):
        PsiFamily(0.0)


@pytest.mark.parametrize(
    "family,lam_hi",
    [(BOUNDED_UNIT, 16.0), (GAUSS, 32.0), (PsiFamily(0.04), 128.0)],
    ids=["bounded", "gauss-quarter", "gauss-small"],
)
def test_conjugate_matches_numeric_sup(family, lam_hi):
    grid = np.linspace(0.0, 1.0, 100)
    for eps in grid:
        numeric = numeric_sup_conjugate(lambda lam: psi(family, lam), float(eps), lam_hi=lam_hi)
        assert abs(psi_star(family, float(eps)) - numeric) <= 1e-6


@pytest.mark.parametrize("family", [BOUNDED_UNIT, GAUSS], ids=["bounded", "gaussian"])
def test_inverse_matches_bisection(family):
    for x in np.linspace(0.0, 4.0, 100):
        numeric = bisect_increasing(lambda e: psi_star(family, e), float(x))
        assert abs(psi_star_inv(family, float(x)) - numeric) <= 1e-6


@pytest.mark.parametrize("family", [BOUNDED_UNIT, GAUSS], ids=["bounded", "gaussian"])
def test_round_trip_on_grid(family):
    eps = np.linspace(0.0, 1.0, 100)
    back = psi_star_inv(family, psi_star(family, eps))
    assert np.max(np.abs(back - eps)) <= 1e-12


@pytest.mark.parametrize("family", [BOUNDED_UNIT, GAUSS], ids=["bounded", "gaussian"])
def test_fenchel_young_inequality(family):
    lams = np.linspace(0.0, 12.0, 61)
    for eps in np.linspace(0.0, 1.0, 21):
        lhs = lams * eps - psi(family, lams)
        assert np.all(lhs <= psi_star(family, eps) + 1e-9)
        maximizer = eps / family.sigma2
        at_max = maximizer * eps - psi(family, maximizer)
        assert abs(at_max - psi_star(family, eps)) <= 1e-9


@pytest.mark.parametrize("family", [BOUNDED_UNIT, GAUSS], ids=["bounded", "gaussian"])
def test_strict_monotonicity(family):
    grid = np.linspace(1e-6, 2.0, 100)
    assert np.all(np.diff(psi_star(family, grid)) > 0)
    assert np.all(np.diff(psi_star_inv(family, grid)) > 0)


@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_round_trip_property(x):
    for family in (BOUNDED_UNIT, GAUSS):
        eps = psi_star_inv(family, x)
        assert psi_star(family, eps) == pytest.approx(x, abs=1e-9, rel=1e-9)


@given(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_fenchel_young_property(lam, eps):
    for family in (BOUNDED_UNIT, GAUSS):
        assert lam * eps - psi(family, lam) <= psi_star(family, eps) + 1e-12
