import csv
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

from statebandits import (
    BOUNDED_UNIT,
    ConfigurationError,
    Environment,
    EnvironmentSpec,
    PsiFamily,
    SweepConfig,
    gaps,
    instantiate,
    make_state_sequence,
    normal_cdf,
    psi_star,
    random_env,
    sr_counts,
    sr_schedule,
    thm1_bound,
    thm2_bounds,
    thm3_bounds,
    thm4_bounds,
)

from statebandits.cli import main

from _oracles import exact_sr_two_arms, exact_uniform_eba, quad_normal_cdf


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

    @pytest.mark.parametrize("shape", [(2,), (0,), (2, 3), (1, 2, 1)])
    def test_vectorized(self, shape):
        x = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
        out = normal_cdf(x)
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64

    @pytest.mark.parametrize("x", [0, -1.0, np.float64(2.5), np.array(-0.5)])
    def test_scalar_gives_float(self, x):
        assert type(normal_cdf(x)) is float


def _neighbours(center: float, count: int = 200) -> list[float]:
    """center and its ``count`` nearest doubles on each side."""
    out, lo, hi = [center], center, center
    for _ in range(count):
        lo, hi = float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf))
        out += [lo, hi]
    return out


class TestNormalCdfIsScipyNdtr:
    """normal_cdf ports Cephes ndtr; scipy.special.ndtr is the oracle, bit for bit."""

    @staticmethod
    def assert_bitwise(x):
        x = np.asarray(x, dtype=float)
        got, want = normal_cdf(x), ndtr(x)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, f"{bad.size} of {x.size} differ, e.g. x={x[bad[:3]]}: {got[bad[:3]]} vs {want[bad[:3]]}"

    def test_a_million_random_and_log_spaced(self):
        rng = np.random.default_rng(20260521)
        mags = np.concatenate([rng.uniform(0.0, 40.0, 250_000), np.abs(rng.normal(0.0, 4.0, 175_000)),
                               np.logspace(-320.0, 308.0, 75_000)])
        x = np.concatenate([mags, -mags])
        assert x.size >= 1_000_000
        self.assert_bitwise(x)

    def test_branch_edges(self):
        # |x|/sqrt2 crosses 1/sqrt2 (erf to erfc), 1 (erfc's 1 - erf), 8 (P/Q to R/S),
        # and the exp underflow at x^2/2 = MAXLOG, near the 37.68 of Cephes' docs
        centers = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.68, math.sqrt(2.0 * 7.09782712893383996843e2)]
        x = [v for c in centers for sign in (1.0, -1.0) for v in _neighbours(sign * c)]
        self.assert_bitwise(x)

    def test_special_values(self):
        tiny = np.finfo(float).smallest_subnormal
        x = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 1e-310, -1e-310,
             np.finfo(float).tiny, 1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]
        self.assert_bitwise(x)


class TestPseudoRegretBound:
    def test_no_gaps_no_regret(self):
        env = env_of(np.full((3, 2), 0.4))
        assert thm1_bound(env, 3.0, 50).raw_value == 0.0

    def test_hand_value(self):
        env = env_of([[0.5], [0.3]], n=100)
        got = thm1_bound(env, 3.0, 100).raw_value
        assert got == pytest.approx(0.2 * (3.0 * math.log(100) / 0.02 + 3.0), abs=1e-9)
        assert got == pytest.approx(138.755, abs=1e-3)

    def test_doubling_adds_log_two_terms(self):
        env = env_of([[0.9, 0.6], [0.5, 0.4], [0.2, 0.1]], n=400)
        delta = gaps(env).delta_m
        positive = delta[delta > 0]
        expected = float(np.sum(positive * 3.0 * math.log(2.0) / psi_star(BOUNDED_UNIT, positive / 2.0)))
        diff = thm1_bound(env, 3.0, 200).raw_value - thm1_bound(env, 3.0, 100).raw_value
        assert diff == pytest.approx(expected, rel=1e-12)

    # at alpha = inf the alpha/(alpha - 2) term is inf/inf, a nan bound
    @pytest.mark.parametrize("alpha", [2.0, math.inf, math.nan])
    def test_alpha_validation(self, alpha):
        env = env_of([[0.5], [0.3]])
        with pytest.raises(ConfigurationError, match=f"alpha must be finite and exceed 2, got {alpha}"):
            thm1_bound(env, alpha, 10)

    def test_report_identity(self):
        env = env_of([[0.5], [0.3]], n=100)
        rep = thm1_bound(env, 3.0, 100)
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

    # seed 5's environments whose prior flips the local leader (j_star != j_hat_star);
    # anchored at j_star, b31 read 0.189 against an exact r of 0.423 in env 7
    @pytest.mark.parametrize("env_index", [0, 7, 8, 10, 11])
    def test_global_bound_holds_when_the_prior_flips_the_leader(self, env_index):
        config = SweepConfig(master_seed=5, k_min=2, k_max=3, s_min=1, s_max=1, num_envs=12)
        env = instantiate(random_env(config, env_index))
        assert gaps(env).j_star != gaps(env).j_hat_star
        n = env.spec.horizon
        r_bound, _ = thm3_bounds(env, n)
        assert exact_uniform_eba(env, n)["r"] <= r_bound.raw_value + 1e-12

    def test_global_bound_holds_on_two_state_flips(self):
        flips = 0
        for seed in range(10):
            config = SweepConfig(master_seed=seed, k_min=2, k_max=3, s_min=2, s_max=2, num_envs=10)
            for env_index in range(10):
                env = instantiate(random_env(config, env_index))
                if gaps(env).j_star == gaps(env).j_hat_star:
                    continue
                flips += 1
                for n in (4 * env.spec.K, 6 * env.spec.K):
                    r_bound, _ = thm3_bounds(env, n)
                    assert exact_uniform_eba(env, n)["r"] <= r_bound.raw_value + 1e-12, (seed, env_index, n)
        assert flips >= 10


# tightness sweeps of s_max = 2 environments at the default K range; with S <= 2 the exact
# laws of all 1,000 environments of a seed take a few seconds
EXACT_SWEEP = SweepConfig(num_envs=1000, runs_per_env=1, s_max=2)

# (seed, env_index) where b31 is below the exact simple regret. Each has a flipped leader and a
# rival whose per-state gaps to it change sign while its state-averaged gap is small, so the
# per-state pick term undercounts P(J = j): the defect of ROADMAP item 1.
B31_BELOW_EXACT_R = [(4, 696), (6, 610)]


class TestBoundsAgainstExactLawsAtSweepScale:
    @pytest.mark.parametrize("seed", [4, 6])
    def test_tightness_bounds_hold_against_exact_laws(self, tmp_path, seed):
        """Every bound a tightness run writes holds against its environment's
        exact e, e_hat, r and r_hat, with no Monte Carlo slack, apart from the
        two b31 cases of B31_BELOW_EXACT_R."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("num_envs = 1000\nruns_per_env = 1\ns_max = 2\n")  # EXACT_SWEEP
        assert main(["tightness", "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "tightness.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["env_index"]) for row in rows] == list(range(EXACT_SWEEP.num_envs))
        config = dataclasses.replace(EXACT_SWEEP, master_seed=seed)
        for i, row in enumerate(rows):
            env = instantiate(random_env(config, i))
            exact = exact_uniform_eba(env, int(row["n"]))
            for bound, key in (("b21", "e"), ("b22", "e_hat"), ("b31", "r"), ("b32", "r_hat")):
                if bound != "b31" or (seed, i) not in B31_BELOW_EXACT_R:
                    assert exact[key] <= float(row[bound]) + 1e-12, (seed, i, bound)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the per-state pick term misses a rival "
                                           "whose per-state gaps change sign")
    @pytest.mark.parametrize("seed, env_index", B31_BELOW_EXACT_R)
    def test_b31_holds_where_per_state_gaps_change_sign(self, seed, env_index):
        env = instantiate(random_env(dataclasses.replace(EXACT_SWEEP, master_seed=seed), env_index))
        b31, _ = thm3_bounds(env, env.spec.horizon)
        assert exact_uniform_eba(env, env.spec.horizon)["r"] <= b31.raw_value + 1e-12

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: the per-state pick term misses a rival whose per-state gaps "
                              "change sign")
    def test_b41_holds_against_the_exact_two_arm_law(self, tmp_path):
        """Every row of a two-arm sr-compare run has b41_uniform at or above
        its environment's exact e_hat, with no slack. Both schedules are one
        phase with two arms, so the factored law is exact for both."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("num_envs = 2000\nruns_per_env = 1\nk_min = 2\nk_max = 2\ns_max = 2\n")
        assert main(["sr-compare", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "sr_compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["env_index"]) for row in rows] == list(range(2000))
        config = SweepConfig(num_envs=2000, runs_per_env=1, k_min=2, k_max=2, s_max=2, master_seed=1)
        below = [i for i, row in enumerate(rows)
                 if float(row["b41_uniform"]) < exact_sr_two_arms(instantiate(random_env(config, i)),
                                                                  int(row["n"]))["e_hat"]]
        assert not below, f"b41_uniform is below the exact e_hat in {len(below)} rows, first {below[:5]}"

    @pytest.mark.parametrize("seed, env_index", B31_BELOW_EXACT_R)
    def test_sorted_and_dense_pick_laws_agree(self, seed, env_index):
        # the sorted-CDF law the sweep test uses, against comparing every score value pair
        env = instantiate(random_env(dataclasses.replace(EXACT_SWEEP, master_seed=seed), env_index))
        n = env.spec.horizon
        assert np.allclose(exact_uniform_eba(env, n)["pick_pmf"], exact_uniform_eba(env, n, dense=True)["pick_pmf"],
                           rtol=0.0, atol=1e-14)


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

    def test_tied_gaps_take_rivals_by_index(self):
        # arms 1 and 2 tie on delta_sigma; ties rank the lower index higher, so phase 1 (rank 3)
        # is against arm 2 and phase 2 (rank 2) against arm 1, each in its own states' counts
        m = np.array([[0.8, 0.8], [0.6, 0.4], [0.4, 0.6]])
        seq = np.array([0] * 60 + [1] * 30)
        spec = EnvironmentSpec(K=3, S=2, mu=tuple(m.mean(axis=1)), sigma2=0.05, state_sequence=seq)
        env = Environment(spec=spec, m=m)
        sched = sr_schedule("uniform", 3, 90)
        table = sr_counts(seq, sched, 3, 2)
        assert gaps(env).delta_sigma[1] == gaps(env).delta_sigma[2]
        assert table[0, 0] != table[1, 0]
        expected = sum(k * math.exp(-table[s, k - 1] * (m[0, s] - m[rival, s]) ** 2)
                       for k, rival in ((1, 2), (2, 1)) for s in range(2))
        _, e_hat_bound = thm4_bounds(env, sched)
        assert e_hat_bound.raw_value == pytest.approx(expected, rel=1e-12)

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
        _, gauss = thm2_bounds(env, 100, PsiFamily(0.5))
        assert gauss.raw_value > bounded.raw_value
