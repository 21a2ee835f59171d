import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import binomtest, chisquare

from statebandits import (
    BOUNDED_UNIT,
    ConfigurationError,
    Environment,
    EnvironmentSpec,
    RecommendationError,
    ScheduleError,
    SweepConfig,
    estimate_bai,
    estimate_pseudoregret,
    gaps,
    instantiate,
    make_state_sequence,
    random_env,
    run_sb_ucb,
    sr_compare,
    sr_schedule,
    state_counts,
    substream,
    tightness_sweep,
    write_sweep_csv,
)
from statebandits import montecarlo, strategies
from statebandits.env import STATE_MODES
from statebandits.montecarlo import TIGHTNESS_HEADER

from _oracles import binomial_cell_means_per_cell, exact_sr, exact_uniform_eba, sr_sample_per_cell


class TestRandomEnv:
    def test_deterministic(self):
        config = SweepConfig(master_seed=5)
        assert random_env(config, 3) == random_env(config, 3)
        assert random_env(config, 3) != random_env(config, 4)

    def test_k_distribution_uniform(self):
        config = SweepConfig(master_seed=1)
        ks = [random_env(config, i).K for i in range(10_000)]
        observed = np.bincount(ks, minlength=11)[3:11]
        assert chisquare(observed).pvalue > 0.001

    def test_s_range_forced(self):
        config = SweepConfig(master_seed=2, s_min=1, s_max=1)
        assert all(random_env(config, i).S == 1 for i in range(20))

    def test_ranges_respected(self):
        config = SweepConfig(master_seed=3, k_min=4, k_max=6, s_min=2, s_max=3,
                             sigma2_min=0.1, sigma2_max=0.2)
        for i in range(30):
            spec = random_env(config, i)
            assert 4 <= spec.K <= 6
            assert 2 <= spec.S <= 3
            assert 0.1 <= spec.sigma2 <= 0.2
            assert spec.horizon == 50 * spec.K * spec.S
            assert all(0.0 <= u <= 1.0 for u in spec.mu)

    def test_single_arm_config_rejected(self):
        with pytest.raises(ConfigurationError, match="k_min"):
            SweepConfig(k_min=1)

    def test_bad_sigma_range_rejected(self):
        with pytest.raises(ConfigurationError, match="sigma2"):
            SweepConfig(sigma2_min=0.4, sigma2_max=0.3)

    def test_keys_the_estimators_cannot_honour_rejected(self):
        with pytest.raises(ConfigurationError, match="reward_family"):
            SweepConfig(reward_family="truncated_gaussian")
        with pytest.raises(ConfigurationError, match="state_mode"):
            SweepConfig(state_mode="nope")
        for mode in ("iid_uniform", "round_robin", "blocks"):
            SweepConfig(state_mode=mode)


def fixed_env(m, mu, n, state_mode="round_robin", seed=0):
    m = np.asarray(m, dtype=float)
    K, S = m.shape
    spec = EnvironmentSpec(K=K, S=S, mu=mu, sigma2=0.05,
                           state_sequence=make_state_sequence(S, n, state_mode, seed=seed),
                           seed=seed)
    return Environment(spec=spec, m=m)


class TestEstimateBAI:
    def test_noiseless_separated_arms(self):
        env = fixed_env([[1.0, 1.0], [0.0, 0.0]], mu=(1.0, 0.0), n=40)
        est = estimate_bai(env, "uniform_eba", 500)
        assert est.e == 0.0 and est.e_hat == 0.0
        assert est.r == 0.0 and est.r_hat == 0.0

    def test_reproducible(self):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=20)
        assert estimate_bai(env, "uniform_eba", 300) == estimate_bai(env, "uniform_eba", 300)

    def test_se_formula(self):
        env = fixed_env([[0.6], [0.5]], mu=(0.6, 0.5), n=10)
        est = estimate_bai(env, "uniform_eba", 400)
        assert est.e_se == pytest.approx(math.sqrt(est.e * (1 - est.e) / 400))
        assert est.e_hat_se == pytest.approx(math.sqrt(est.e_hat * (1 - est.e_hat) / 400))

    def test_unknown_strategy(self):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=20)
        with pytest.raises(ConfigurationError, match="strategy"):
            estimate_bai(env, "thompson", 10)

    def test_non_bernoulli_rewards_rejected(self):
        m = np.array([[0.55], [0.45]])
        spec = EnvironmentSpec(K=2, S=1, mu=(0.55, 0.45), sigma2=0.05, state_sequence=(0,) * 40,
                               reward_family="truncated_gaussian", reward_sigma2=1e-4)
        with pytest.raises(ConfigurationError, match="bernoulli"):
            estimate_bai(Environment(spec=spec, m=m), "uniform_eba", 10)

    def test_n_out_of_range(self):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=20)
        with pytest.raises(ConfigurationError, match="outside"):
            estimate_bai(env, "uniform_eba", 10, n=21)

    def test_matches_enumeration_uniform(self):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=6)
        exact = exact_uniform_eba(env, 6)
        runs = 10_000
        est = estimate_bai(env, "uniform_eba", runs)
        for key in ("e", "e_hat"):
            se = math.sqrt(exact[key] * (1 - exact[key]) / runs)
            assert abs(getattr(est, key) - exact[key]) <= 3.0 * se
        mu_gap = 0.3
        assert abs(est.r - exact["r"]) <= 3.0 * mu_gap * math.sqrt(0.25 / runs) + 1e-12

    def test_matches_enumeration_two_state(self):
        env = fixed_env([[0.8, 0.6], [0.5, 0.4]], mu=(0.7, 0.45), n=10)
        exact = exact_uniform_eba(env, 10)
        runs = 10_000
        est = estimate_bai(env, "uniform_eba", runs)
        se = math.sqrt(exact["e_hat"] * (1 - exact["e_hat"]) / runs)
        assert abs(est.e_hat - exact["e_hat"]) <= 3.0 * se

    def test_matches_enumeration_elimination(self):
        env = fixed_env([[0.8], [0.5], [0.3]], mu=(0.8, 0.5, 0.3), n=12)
        pmf = exact_sr(env, (6, 12))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        j_hat = gaps(env).j_hat_star
        exact_e_hat = 1.0 - pmf[j_hat]
        runs = 20_000
        est = estimate_bai(env, "sr_uniform", runs)
        se = math.sqrt(exact_e_hat * (1 - exact_e_hat) / runs)
        assert abs(est.e_hat - exact_e_hat) <= 3.0 * se

    def test_two_arm_schedules_coincide(self):
        env = fixed_env([[0.7, 0.5], [0.5, 0.3]], mu=(0.6, 0.4), n=30, state_mode="iid_uniform")
        a = estimate_bai(env, "sr_uniform", 400)
        b = estimate_bai(env, "sr_reference", 400)
        assert a == b


def _within_se(estimate: float, exact: float, runs: int) -> bool:
    """Five standard errors of a frequency over ``runs``, plus one count of
    slack for exact probabilities near 0 or 1."""
    return abs(estimate - exact) <= 5.0 * math.sqrt(max(exact * (1.0 - exact), 0.0) / runs) + 1.0 / runs


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(derandomize=True, max_examples=60, deadline=None)
@given(K=st.integers(2, 3), S=st.integers(1, 2), extra=st.integers(0, 6),
       mode=st.sampled_from(STATE_MODES), seed=st.integers(0, 2**16))
def test_batched_estimators_match_exact_laws(K, S, extra, mode, seed):
    n, runs = K + extra, 4000
    spec = EnvironmentSpec(K=K, S=S, mu=tuple(substream(seed, "mu").random(K)), sigma2=0.05,
                           state_sequence=make_state_sequence(S, n, mode, seed=seed), seed=seed)
    env = instantiate(spec)
    g = gaps(env)
    try:
        exact = exact_uniform_eba(env, n)
    except ValueError:
        # an arm is never pulled, so no recommendation exists
        with pytest.raises(RecommendationError):
            estimate_bai(env, "uniform_eba", runs)
    else:
        est = estimate_bai(env, "uniform_eba", runs)
        assert _within_se(est.e, exact["e"], runs) and _within_se(est.e_hat, exact["e_hat"], runs)
    for kind in ("uniform", "reference"):
        try:
            sched = sr_schedule(kind, K, n)
        except ScheduleError:
            assume(False)
        pmf = exact_sr(env, sched.t_k)
        est = estimate_bai(env, f"sr_{kind}", runs)
        assert _within_se(est.e, 1.0 - pmf[g.j_star], runs)
        assert _within_se(est.e_hat, 1.0 - pmf[g.j_hat_star], runs)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(derandomize=True, max_examples=60, deadline=None)
@given(K=st.integers(2, 8), S=st.integers(1, 10), extra=st.integers(0, 400),
       mode=st.sampled_from(STATE_MODES), runs=st.integers(1, 50), seed=st.integers(0, 2**16))
def test_batched_draws_equal_one_call_per_cell(K, S, extra, mode, runs, seed):
    """The one-call-per-phase and one-call-per-environment draws give the
    values, not just the law, of one binomial call per cell."""
    n = K + extra
    spec = EnvironmentSpec(K=K, S=S, mu=tuple(substream(seed, "mu").random(K)), sigma2=0.05,
                           state_sequence=make_state_sequence(S, n, mode, seed=seed), seed=seed)
    env = instantiate(spec)
    counts = strategies.rotation_counts(state_counts(spec.state_sequence, S, n), K)
    batched = montecarlo._binomial_cell_means(counts, env.m, runs, substream(seed, "cells"))
    per_cell = binomial_cell_means_per_cell(counts, env.m, runs, substream(seed, "cells"))
    assert np.array_equal(batched, per_cell, equal_nan=True)
    # the state sums behind the recommendation add in the same order (at S >= 9 the layout decides it)
    assert np.array_equal(np.nansum(batched, axis=2), np.nansum(per_cell, axis=2))
    for kind in ("uniform", "reference"):
        try:
            sched = sr_schedule(kind, K, n)
        except ScheduleError:
            assert kind == "reference"
            continue
        picks = montecarlo._sr_sample(env, sched, runs, substream(seed, "sr"))
        assert np.array_equal(picks, sr_sample_per_cell(env, sched.t_k, runs, substream(seed, "sr")))


class TestSweeps:
    def test_empty_sweep(self, tmp_path):
        records, failures = tightness_sweep(SweepConfig(num_envs=0))
        assert records == [] and failures == []
        path = tmp_path / "tightness.csv"
        write_sweep_csv(records, path)
        assert path.read_text().strip() == ",".join(TIGHTNESS_HEADER)

    def test_reproducible_and_worker_invariant(self):
        config = SweepConfig(num_envs=6, runs_per_env=40, master_seed=11, k_max=4, s_max=3)
        a, fa = tightness_sweep(config, workers=1)
        b, fb = tightness_sweep(config, workers=3)
        assert a == b and fa == fb
        assert [r.env_index for r in a] == list(range(6))

    def test_pool_is_capped_at_num_envs(self, monkeypatch):
        started = []

        class SerialPool:
            """Records the pool size it is given and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                return map(fn, args)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        config = SweepConfig(num_envs=3, runs_per_env=10, master_seed=11, k_max=4, s_max=3)
        assert tightness_sweep(config, workers=64) == tightness_sweep(config, workers=1)
        assert sr_compare(config, workers=8)[0] == sr_compare(config, workers=1)[0]
        assert started == [3, 3]

    def test_estimates_are_probabilities(self):
        config = SweepConfig(num_envs=5, runs_per_env=30, master_seed=4, k_max=4, s_max=2)
        records, failures = tightness_sweep(config)
        assert not failures
        for rec in records:
            for value in (rec.e, rec.e_hat):
                assert 0.0 <= value <= 1.0
            assert rec.min_state_visits >= 0
            assert rec.b22 >= 0.0

    def test_failures_are_recorded_not_raised(self):
        config = SweepConfig(num_envs=3, runs_per_env=10, master_seed=0,
                             k_min=3, k_max=3, s_min=2, s_max=2, horizon=1)
        with pytest.warns(UserWarning):
            records, failures = tightness_sweep(config)
        assert records == []
        assert len(failures) == 3
        assert all("RecommendationError" in msg for _, msg in failures)

    def test_sr_compare_two_arm_diff_exactly_zero(self):
        config = SweepConfig(num_envs=8, runs_per_env=50, master_seed=9,
                             k_min=2, k_max=2, s_max=3)
        records, summary, failures = sr_compare(config)
        assert not failures
        assert all(r.e_hat_uniform == r.e_hat_reference for r in records)
        assert summary["mean_paired_diff"] == 0.0
        assert summary["sign_test"]["n_pos"] == 0
        assert summary["sign_test"]["n_neg"] == 0
        assert summary["sign_test"]["p_value"] == 1.0

    def test_sign_test_p_value_is_binomtest(self):
        # sr_compare's betainc(k, n - k + 1, 1/2) against scipy.stats, bit for bit:
        # every 1 <= k <= n <= 120, then larger n on a stride
        pairs = [(k, n) for n in range(1, 121) for k in range(1, n + 1)]
        pairs += [(k, n) for n in range(401, 2001, 97) for k in range(1, n + 1, 7)]
        mismatched = [(k, n) for k, n in pairs if betainc(k, n - k + 1, 0.5)
                      != binomtest(k, n, 0.5, alternative="greater").pvalue]
        assert not mismatched

    def test_sr_compare_summary_fields(self):
        config = SweepConfig(num_envs=10, runs_per_env=40, master_seed=2, k_max=4, s_max=3)
        records, summary, _ = sr_compare(config)
        assert summary["num_envs"] == len(records) == 10
        assert summary["direction"] in ("uniform_leq_reference", "reference_lt_uniform")
        diffs = [r.e_hat_reference - r.e_hat_uniform for r in records]
        assert summary["mean_paired_diff"] == pytest.approx(np.mean(diffs))


class TestPseudoRegret:
    def test_all_equal_arms_zero_regret(self):
        env = fixed_env(np.full((3, 2), 0.5), mu=(0.5, 0.5, 0.5), n=200)
        curve = estimate_pseudoregret(env, 3.0, (50, 100, 200), 40)
        assert np.all(curve.mean == 0.0)
        assert np.all(curve.bound == 0.0)

    def test_curve_non_decreasing(self):
        env = fixed_env([[0.8, 0.7], [0.4, 0.3]], mu=(0.75, 0.35), n=400)
        curve = estimate_pseudoregret(env, 3.0, (50, 100, 200, 400), 60)
        assert np.all(np.diff(curve.mean) >= 0.0)
        assert np.all(np.diff(curve.bound) >= 0.0)

    def test_single_run_matches_scalar_loop(self):
        spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 150, "iid_uniform", seed=7),
                               seed=21)
        env = instantiate(spec)
        curve = estimate_pseudoregret(env, 3.0, (150,), 1)
        stats, chosen = run_sb_ucb(env, 150, 3.0, BOUNDED_UNIT, substream(21, 0, "rewards"))
        m_star = env.m.max(axis=0)
        scalar_regret = sum(
            m_star[spec.state_sequence[t]] - env.m[chosen[t], spec.state_sequence[t]]
            for t in range(150)
        )
        assert curve.mean[0] == scalar_regret

    @pytest.mark.parametrize("family", ["bernoulli", "truncated_gaussian"])
    def test_variate_blocks_change_nothing(self, monkeypatch, family):
        runs, n = 13, 200
        spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(2, n, "blocks", seed=3),
                               seed=17, reward_family=family)
        env = instantiate(spec)
        whole = estimate_pseudoregret(env, 3.0, (37, 100, n), runs)
        singles = [run_sb_ucb(env, n, 3.0, BOUNDED_UNIT, substream(17, r, "rewards"))
                   for r in range(runs)]
        # blocks of 7 steps, the last one ragged
        monkeypatch.setattr(strategies, "_BLOCK_VARIATES", 7 * runs + 3)
        blocked = estimate_pseudoregret(env, 3.0, (37, 100, n), runs)
        assert np.array_equal(blocked.mean, whole.mean) and np.array_equal(blocked.se, whole.se)
        counts = np.zeros((runs, 3, 2), dtype=np.int64)
        sums = np.zeros((runs, 3, 2))
        streams = [substream(17, r, "rewards") for r in range(runs)]
        play = strategies.optimism_play(env, 3.0, BOUNDED_UNIT, streams, n, counts, sums)
        choices = np.array([choice for _, _, choice, _ in play])
        for r, (stats, chosen) in enumerate(singles):
            assert choices[:, r].tolist() == chosen
            assert np.array_equal(counts[r], stats.counts) and np.array_equal(sums[r], stats.sums)

    def test_variate_memory_is_bounded(self):
        n, runs = 10_000, 1000
        env = fixed_env([[0.7, 0.6], [0.4, 0.5]], mu=(0.65, 0.45), n=n)
        tracemalloc.start()
        try:
            estimate_pseudoregret(env, 3.0, (n,), runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one draw of every variate would hold runs * n * 8 = 80 MB
        assert peak < 16e6

    def test_checkpoint_validation(self):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=50)
        with pytest.raises(ConfigurationError, match="checkpoints"):
            estimate_pseudoregret(env, 3.0, (10, 60), 5)
        with pytest.raises(ConfigurationError, match="alpha"):
            estimate_pseudoregret(env, 2.0, (10,), 5)
        with pytest.raises(ConfigurationError, match=r"repeated: \[10\]"):
            estimate_pseudoregret(env, 3.0, (10, 20, 10), 5)
        with pytest.raises(ConfigurationError, match="runs"):
            estimate_pseudoregret(env, 3.0, (10,), 0)

    @pytest.mark.parametrize("checkpoints", [(100.7, 150.2), (10, 20.0), (True, 10)])
    def test_checkpoints_must_be_integers(self, checkpoints):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=200)
        with pytest.raises(ConfigurationError, match="checkpoints must be an integer"):
            estimate_pseudoregret(env, 3.0, checkpoints, 5)
        curve = estimate_pseudoregret(env, 3.0, (np.int64(100), 150), 5)
        assert curve.checkpoints == (100, 150) and type(curve.checkpoints[0]) is int

    def test_reproducible(self):
        env = fixed_env([[0.8], [0.3]], mu=(0.8, 0.3), n=100)
        a = estimate_pseudoregret(env, 3.0, (100,), 25)
        b = estimate_pseudoregret(env, 3.0, (100,), 25)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.se, b.se)
