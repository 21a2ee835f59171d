import math

import numpy as np
import pytest

from statebandits import (
    BOUNDED_UNIT,
    ConfigurationError,
    Environment,
    EnvironmentSpec,
    PsiFamily,
    gaps,
    instantiate,
    make_state_sequence,
    normal_cdf,
    psi_star,
    sr_counts,
    sr_schedule,
    thm1_bound,
    thm2_bounds,
    thm3_bounds,
    thm4_bounds,
)

from _oracles import quad_normal_cdf


def env_of(m, n=None, mu=None, sigma2=0.05):
    m = np.asarray(m, dtype=float)
    K, S = m.shape
    n = n if n is not None else 10 * K * S
    mu = tuple(float(v) for v in (m.mean(axis=1) if mu is None else np.asarray(mu)))
    spec = EnvironmentSpec(K=K, S=S, mu=mu, sigma2=sigma2,
                           state_sequence=make_state_sequence(S, n, "round_robin"))
    return Environment(spec=spec, m=m)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_limits(self):
        assert normal_cdf(-60.0) == pytest.approx(0.0, abs=1e-300)
        assert normal_cdf(60.0) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self):
        assert normal_cdf(-1.0) == pytest.approx(0.1586552539, abs=1e-9)

    def test_matches_quadrature(self):
        for x in (-3.0, -1.0, -0.25, 0.5, 2.0):
            assert normal_cdf(x) == pytest.approx(quad_normal_cdf(x), abs=1e-10)

    def test_vectorized(self):
        out = normal_cdf(np.array([0.0, -1.0]))
        assert out.shape == (2,)


class TestPseudoRegretBound:
    def test_no_gaps_no_regret(self):
        env = env_of(np.full((3, 2), 0.4))
        assert thm1_bound(env, 3.0, 50, BOUNDED_UNIT).raw_value == 0.0

    def test_hand_value(self):
        env = env_of([[0.5], [0.3]], n=100)
        got = thm1_bound(env, 3.0, 100, BOUNDED_UNIT).raw_value
        assert got == pytest.approx(0.2 * (3.0 * math.log(100) / 0.02 + 3.0), abs=1e-9)
        assert got == pytest.approx(138.755, abs=1e-3)

    def test_doubling_adds_log_two_terms(self):
        env = env_of([[0.9, 0.6], [0.5, 0.4], [0.2, 0.1]], n=400)
        delta = gaps(env).delta_m
        positive = delta[delta > 0]
        expected = float(np.sum(positive * 3.0 * math.log(2.0) / psi_star(BOUNDED_UNIT, positive / 2.0)))
        diff = thm1_bound(env, 3.0, 200, BOUNDED_UNIT).raw_value - thm1_bound(env, 3.0, 100, BOUNDED_UNIT).raw_value
        assert diff == pytest.approx(expected, rel=1e-12)

    def test_alpha_validation(self):
        env = env_of([[0.5], [0.3]])
        with pytest.raises(ConfigurationError, match="alpha"):
            thm1_bound(env, 2.0, 10, BOUNDED_UNIT)

    def test_report_identity(self):
        env = env_of([[0.5], [0.3]], n=100)
        rep = thm1_bound(env, 3.0, 100, BOUNDED_UNIT)
        assert rep.name == "thm1"
        assert rep.clamped_value == min(rep.raw_value, 1.0)


class TestIdentificationBounds:
    def test_hand_value_empiric(self):
        env = env_of([[0.5], [0.3]], n=100)
        _, e_hat_bound = thm2_bounds(env, 100, BOUNDED_UNIT)
        assert e_hat_bound.raw_value == pytest.approx(4.0 / math.e, rel=1e-12)
        assert e_hat_bound.clamped_value == 1.0

    def test_global_adds_prior_mass_term(self):
        env = env_of([[0.5], [0.3]], n=100, mu=(0.5, 0.3), sigma2=0.05)
        e_bound, _ = thm2_bounds(env, 100, BOUNDED_UNIT)
        floors = np.array([50])
        dsig = gaps(env).delta_sigma
        expected = float(
            np.sum(2.0 * np.exp(-np.outer(psi_star(BOUNDED_UNIT, dsig / 4.0), floors)))
            + np.sum(2.0 * 1 * normal_cdf(-gaps(env).delta_mu / (4.0 * 0.05)))
        )
        assert e_bound.raw_value == pytest.approx(expected, rel=1e-12)

    def test_zero_gap_is_vacuous(self):
        env = env_of(np.array([[0.4, 0.6], [0.6, 0.4]]))
        _, e_hat_bound = thm2_bounds(env, env.spec.horizon, BOUNDED_UNIT)
        assert e_hat_bound.raw_value >= 2 * 2
        assert e_hat_bound.clamped_value == 1.0

    def test_wide_utility_gap_kills_prior_term(self):
        near = env_of([[0.6], [0.4]], n=200, mu=(0.6, 0.4), sigma2=0.001)
        e_near, _ = thm2_bounds(near, 200, BOUNDED_UNIT)
        dsig = gaps(near).delta_sigma
        pure = float(np.sum(2.0 * np.exp(-psi_star(BOUNDED_UNIT, dsig / 4.0) * 100)))
        assert e_near.raw_value == pytest.approx(pure, abs=1e-12)

    def test_names(self):
        env = env_of([[0.5], [0.3]], n=100)
        e_bound, e_hat_bound = thm2_bounds(env, 100, BOUNDED_UNIT)
        assert (e_bound.name, e_hat_bound.name) == ("thm2.1", "thm2.2")


class TestSimpleRegretBounds:
    def test_hand_value_empiric(self):
        env = env_of([[0.6], [0.4]], n=50)
        _, r_hat_bound = thm3_bounds(env, 50)
        assert r_hat_bound.raw_value == pytest.approx(0.2 * (1.0 + math.exp(-1.0)), rel=1e-12)

    def test_self_term_floor(self):
        env = env_of([[0.9, 0.8], [0.5, 0.4], [0.3, 0.2]])
        g = gaps(env)
        _, r_hat_bound = thm3_bounds(env, env.spec.horizon)
        assert r_hat_bound.raw_value >= g.delta_sigma[g.j_hat_star] * env.spec.S

    def test_names_and_clamp(self):
        env = env_of([[0.6], [0.4]], n=50)
        r_bound, r_hat_bound = thm3_bounds(env, 50)
        assert (r_bound.name, r_hat_bound.name) == ("thm3.1", "thm3.2")
        assert r_bound.clamped_value <= 1.0


class TestEliminationCounts:
    def test_single_state_example(self):
        seq = (0,) * 10
        table = sr_counts(seq, sr_schedule("uniform", 2, 10), 2, 1)
        assert table.tolist() == [[5]]

    def test_unvisited_state_row_zero(self):
        seq = (0,) * 30
        table = sr_counts(seq, sr_schedule("uniform", 3, 30), 3, 2)
        assert np.all(table[1] == 0)
        assert table[0].tolist() == [5, 12]

    def test_floor_accumulation(self):
        seq = (0, 1, 0, 1, 0, 1, 0, 1)
        sched = sr_schedule("uniform", 3, 8)
        assert sched.t_k == (4, 8)
        table = sr_counts(seq, sched, 3, 2)
        assert table.tolist() == [[0, 1], [0, 1]]

    def test_schedule_k_mismatch(self):
        from statebandits import ScheduleError

        with pytest.raises(ScheduleError):
            sr_counts((0,) * 10, sr_schedule("uniform", 3, 10), 2, 1)


class TestEliminationBounds:
    def test_two_arm_single_term(self):
        env = env_of([[0.7], [0.4]], n=20)
        sched = sr_schedule("uniform", 2, 20)
        _, e_hat_bound = thm4_bounds(env, sched)
        assert e_hat_bound.raw_value == pytest.approx(math.exp(-10 * 0.09), rel=1e-12)

    def test_all_equal_vacuous(self):
        env = env_of(np.full((3, 2), 0.5), n=60)
        e_bound, e_hat_bound = thm4_bounds(env, sr_schedule("uniform", 3, 60))
        assert e_hat_bound.raw_value == pytest.approx(1 * 2 + 2 * 2)
        assert e_bound.clamped_value == 1.0

    def test_hand_value_three_arms(self):
        env = env_of([[0.8], [0.5], [0.2]], n=90)
        sched = sr_schedule("uniform", 3, 90)
        table = sr_counts(env.spec.state_sequence, sched, 3, 1)
        assert table.tolist() == [[15, 37]]
        e_bound, e_hat_bound = thm4_bounds(env, sched)
        expected = math.exp(-15 * 0.36) + 2.0 * math.exp(-37 * 0.09)
        assert e_hat_bound.raw_value == pytest.approx(expected, rel=1e-12)
        assert e_bound.raw_value == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0761, abs=5e-4)

    def test_flipped_leader_saturates_global_bound(self):
        # mu ranks arm 0 on top but the drawn local means rank arm 1 on top,
        # so the global-anchor sum must contain the k=2 zero-gap term (2*S)
        # while the empiric bound stays informative.
        env = env_of([[0.7], [0.8], [0.2]], n=90, mu=(0.9, 0.85, 0.2))
        sched = sr_schedule("uniform", 3, 90)
        e_bound, e_hat_bound = thm4_bounds(env, sched)
        table = sr_counts(env.spec.state_sequence, sched, 3, 1)
        n1, n2 = table[0]
        expected_hat = math.exp(-n1 * 0.36) + 2.0 * math.exp(-n2 * 0.01)
        assert e_hat_bound.raw_value == pytest.approx(expected_hat, rel=1e-12)
        expected_global = math.exp(-n1 * 0.25) + 2.0
        assert e_bound.raw_value == pytest.approx(expected_global, rel=1e-12)
        assert e_bound.raw_value > 1.0
        assert e_bound.clamped_value == 1.0

    def test_names(self):
        env = env_of([[0.7], [0.4]], n=20)
        e_bound, e_hat_bound = thm4_bounds(env, sr_schedule("uniform", 2, 20))
        assert (e_bound.name, e_hat_bound.name) == ("thm4.2", "thm4.1")


class TestMonotonicity:
    def test_identification_bounds_shrink_with_horizon(self):
        spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 600, "round_robin"), seed=3)
        env = instantiate(spec)
        prev2 = prev3 = math.inf
        for n in (60, 120, 300, 600):
            _, e_hat_bound = thm2_bounds(env, n, BOUNDED_UNIT)
            _, r_hat_bound = thm3_bounds(env, n)
            assert e_hat_bound.raw_value <= prev2 + 1e-12
            assert r_hat_bound.raw_value <= prev3 + 1e-12
            prev2, prev3 = e_hat_bound.raw_value, r_hat_bound.raw_value

    def test_elimination_bound_shrinks_with_horizon(self):
        spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 300, "round_robin"), seed=3)
        env = instantiate(spec)
        prev = math.inf
        for n in (30, 90, 180, 300):
            _, e_hat_bound = thm4_bounds(env, sr_schedule("uniform", 3, n))
            assert e_hat_bound.raw_value <= prev + 1e-12
            prev = e_hat_bound.raw_value


class TestGaussianFamilyBounds:
    def test_family_changes_rates(self):
        env = env_of([[0.6], [0.4]], n=100)
        _, bounded = thm2_bounds(env, 100, BOUNDED_UNIT)
        _, gauss = thm2_bounds(env, 100, PsiFamily.gaussian(0.5))
        assert gauss.raw_value > bounded.raw_value
