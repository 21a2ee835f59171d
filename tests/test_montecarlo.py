import concurrent.futures
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest, chisquare

from statebandits import (
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

from _oracles import (_joint_uniform_eba_pick, binomial_cell_means_per_cell, exact_sr, exact_sr_two_arms,
                      exact_uniform_eba, sign_test_tails, sr_sample_per_cell, state_ucb_run)


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
        with pytest.raises(ConfigurationError, match="both finite"):
            SweepConfig(sigma2_max=np.inf)

    def test_keys_the_estimators_cannot_honour_rejected(self):
        with pytest.raises(ConfigurationError, match="reward_family"):
            SweepConfig(reward_family="truncated_gaussian")
        with pytest.raises(ConfigurationError, match="state_mode"):
            SweepConfig(state_mode="nope")
        for mode in ("iid_uniform", "round_robin", "blocks"):
            SweepConfig(state_mode=mode)

    @pytest.mark.parametrize("runs, message", [
        (5.5, "runs_per_env must be an integer, got 5.5"),
        (True, "runs_per_env must be an integer, got True"),
        (0, "runs_per_env must be >= 1, got 0"),
    ])
    def test_runs_per_env_must_be_a_positive_integer(self, runs, message):
        with pytest.raises(ConfigurationError, match=message):
            SweepConfig(runs_per_env=runs)

    @pytest.mark.parametrize("fields, message", [
        ({"num_envs": 2.5}, "num_envs must be an integer, got 2.5"),
        ({"num_envs": True}, "num_envs must be an integer, got True"),
        ({"horizon": 100.5}, "horizon must be an integer, got 100.5"),
        ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
        # an int beyond 64 bits would name the stream of a smaller one
        ({"master_seed": 2**64 + 5}, "master_seed 18446744073709551621 outside"),
        ({"master_seed": -2**63 - 1}, "master_seed -9223372036854775809 outside"),
        ({"k_min": 2.5, "k_max": 3}, "k_min must be an integer, got 2.5"),
        ({"k_max": 10.0}, "k_max must be an integer, got 10.0"),
        ({"s_min": True}, "s_min must be an integer, got True"),
        ({"s_max": 3.5}, "s_max must be an integer, got 3.5"),
    ])
    def test_integer_fields_must_be_integers(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            SweepConfig(**fields)

    def test_numpy_integer_fields_accepted(self):
        names = ("num_envs", "master_seed", "horizon", "k_min", "k_max", "s_min", "s_max")
        plain = dict(zip(names, (3, 4, 40, 2, 3, 1, 2)))
        config = SweepConfig(**{k: np.int64(v) for k, v in plain.items()})
        assert random_env(config, 1) == random_env(SweepConfig(**plain), 1)


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

    @pytest.mark.parametrize("strategy", ["uniform_eba", "sr_uniform", "sr_reference"])
    def test_non_bernoulli_rewards_rejected(self, strategy):
        m = np.array([[0.55], [0.45]])
        spec = EnvironmentSpec(K=2, S=1, mu=(0.55, 0.45), sigma2=0.05, state_sequence=(0,) * 40,
                               reward_family="truncated_gaussian", reward_sigma2=1e-4)
        with pytest.raises(ConfigurationError, match="bernoulli"):
            estimate_bai(Environment(spec=spec, m=m), strategy, 10)

    def test_n_out_of_range(self):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=20)
        with pytest.raises(ConfigurationError, match="outside"):
            estimate_bai(env, "uniform_eba", 10, n=21)

    @pytest.mark.parametrize("strategy", ["uniform_eba", "sr_uniform"])
    @pytest.mark.parametrize("runs, message", [
        (0, "runs must be >= 1, got 0"),
        (5.5, "runs must be an integer, got 5.5"),
        (True, "runs must be an integer, got True"),
    ])
    def test_runs_must_be_a_positive_integer(self, strategy, runs, message):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=20)
        with pytest.raises(ConfigurationError, match=message):
            estimate_bai(env, strategy, runs)
        assert estimate_bai(env, strategy, np.int64(5)) == estimate_bai(env, strategy, 5)

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


def test_score_laws_give_the_joint_enumeration_pick_law():
    """exact_uniform_eba's per-arm score laws give the pick law that enumerating
    every cell's success count jointly gives, ties toward the lowest index
    included, on the small environments of the exact-law tests, by sorted
    cumulative sums and by the dense comparison alike."""
    envs = [fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=6),
            fixed_env([[0.8, 0.6], [0.5, 0.4]], mu=(0.7, 0.45), n=10),
            fixed_env([[0.5], [0.5], [0.5]], mu=(0.5, 0.5, 0.5), n=9)]  # alike arms, so scores often tie
    for case in range(100):
        rng = substream(0, case, "exact-regret")
        K, S = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        n = int(rng.integers(K * S, 13))
        seq = make_state_sequence(S, n, STATE_MODES[case % len(STATE_MODES)], seed=case)
        envs.append(instantiate(EnvironmentSpec(K=K, S=S, mu=tuple(rng.random(K)), sigma2=0.05,
                                                state_sequence=seq, seed=case)))
    for env in envs:
        n = env.spec.horizon
        joint = _joint_uniform_eba_pick(env, n)
        assert np.allclose(exact_uniform_eba(env, n)["pick_pmf"], joint, rtol=0.0, atol=1e-15)
        assert np.allclose(exact_uniform_eba(env, n, dense=True)["pick_pmf"], joint, rtol=0.0, atol=1e-15)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_factored_two_arm_law_equals_elimination_enumeration():
    """exact_sr_two_arms, which enumerates each arm's score on its own, gives
    the winner law that exact_sr's enumeration of every cell's success count
    gives, ties to arm 1 included, on small two-arm environments."""
    envs = [fixed_env([[0.5, 0.5], [0.5, 0.5]], mu=(0.5, 0.5), n=8),  # alike arms, so scores often tie
            fixed_env([[0.8, 0.2], [0.3, 0.6]], mu=(0.5, 0.45), n=9)]  # per-state gaps change sign
    for case in range(60):
        rng = substream(0, case, "exact-two-arms")
        S = int(rng.integers(1, 3))
        n = int(rng.integers(2, 13))
        seq = make_state_sequence(S, n, STATE_MODES[case % len(STATE_MODES)], seed=case)
        envs.append(instantiate(EnvironmentSpec(K=2, S=S, mu=tuple(rng.random(2)), sigma2=0.05,
                                                state_sequence=seq, seed=case)))
    for env in envs:
        n = env.spec.horizon
        law = exact_sr_two_arms(env, n)
        assert np.allclose(law["pick_pmf"], exact_sr(env, (n,)), rtol=0.0, atol=1e-12)
        assert law["e_hat"] == pytest.approx(1.0 - law["pick_pmf"][gaps(env).j_hat_star], abs=1e-12)


def test_uniform_simple_regret_matches_exact_law():
    """r and r_hat of uniform rotation agree with the enumerated pick law on
    small environments with drawn mu, prior-flipped ones among them, within 4
    standard errors computed from that law."""
    runs, flipped = 4000, 0
    for case in range(100):
        rng = substream(0, case, "exact-regret")
        K, S = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        n = int(rng.integers(K * S, 13))
        spec = EnvironmentSpec(K=K, S=S, mu=tuple(rng.random(K)), sigma2=0.05,
                               state_sequence=make_state_sequence(S, n, "round_robin"), seed=case)
        env = instantiate(spec)
        g = gaps(env)
        flipped += g.j_star != g.j_hat_star
        exact = exact_uniform_eba(env, n)
        est = estimate_bai(env, "uniform_eba", runs)
        for key, means in (("r", np.asarray(spec.mu)), ("r_hat", env.m.mean(axis=1))):
            loss = means.max() - means
            se = math.sqrt(max(exact["pick_pmf"] @ loss**2 - exact[key] ** 2, 0.0) / runs)
            assert abs(getattr(est, key) - exact[key]) <= 4.0 * se + 1e-12, (case, key)
    assert flipped > 0


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
    batched = montecarlo._binomial_cell_means(counts, env.m, runs, substream(seed, "cells"))  # (K, S, runs)
    per_cell = binomial_cell_means_per_cell(counts, env.m, runs, substream(seed, "cells"))  # (runs, K, S)
    # the oracle leaves an unpulled cell NaN; the library's mean there is 0
    assert np.array_equal(batched.transpose(2, 0, 1), np.nan_to_num(per_cell, nan=0.0))
    # the state sums behind the recommendation add in numpy's order for a contiguous row of states
    # (at S >= 8 the order changes the sum)
    state_sums = strategies._state_sum(batched.transpose(1, 0, 2))
    assert np.array_equal(state_sums.T, np.nansum(per_cell, axis=2))
    for kind in ("uniform", "reference"):
        try:
            sched = sr_schedule(kind, K, n)
        except ScheduleError:
            assert kind == "reference"
            continue
        for r in (1, runs):
            picks, rejected = strategies.successive_rejects(env, sched, r, substream(seed, "sr"))
            oracle_picks, oracle_rejected = sr_sample_per_cell(env, sched.t_k, r, substream(seed, "sr"))
            assert np.array_equal(picks, oracle_picks)
            assert np.array_equal(rejected, oracle_rejected)


class TestSweeps:
    def test_empty_sweep(self, tmp_path):
        records, summary, failures = tightness_sweep(SweepConfig(num_envs=0))
        assert records == [] and failures == []
        assert summary == {"rows": 0, "violation_rate": dict.fromkeys(("thm2.1", "thm2.2", "thm3.1", "thm3.2"), 0.0)}
        path = tmp_path / "tightness.csv"
        write_sweep_csv(records, path)
        assert path.read_text().strip() == ",".join(TIGHTNESS_HEADER)

    def test_reproducible_and_worker_invariant(self):
        config = SweepConfig(num_envs=6, runs_per_env=40, master_seed=11, k_max=4, s_max=3)
        a, sa, fa = tightness_sweep(config, workers=1)
        b, sb, fb = tightness_sweep(config, workers=3)
        assert a == b and sa == sb and fa == fb
        assert [r.env_index for r in a] == list(range(6))

    def test_num_envs_selects_the_first_environments(self):
        # a sweep of num_envs = n holds the records of environments 0, ..., n - 1, each built
        # from its own random_env draw alone, so a larger sweep extends a smaller one
        for n in (0, 1, 4):
            config = SweepConfig(num_envs=n, runs_per_env=20, master_seed=5, k_max=4, s_max=3)
            envs = [instantiate(random_env(config, i)) for i in range(n)]
            records, _, failures = tightness_sweep(config)
            assert (records, failures) == ([montecarlo._tightness_record(env, i, 20) for i, env in enumerate(envs)], [])
            assert sr_compare(config)[0] == [montecarlo._sr_record(env, i, 20) for i, env in enumerate(envs)]

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

        # _run_tasks imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        config = SweepConfig(num_envs=3, runs_per_env=10, master_seed=11, k_max=4, s_max=3)
        assert tightness_sweep(config, workers=64) == tightness_sweep(config, workers=1)
        assert sr_compare(config, workers=8)[0] == sr_compare(config, workers=1)[0]
        assert started == [3, 3]

    def test_estimates_are_probabilities(self):
        config = SweepConfig(num_envs=5, runs_per_env=30, master_seed=4, k_max=4, s_max=2)
        records, _, failures = tightness_sweep(config)
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
            records, summary, failures = tightness_sweep(config)
        assert records == [] and summary["rows"] == 0
        assert len(failures) == 3
        assert all("RecommendationError" in msg for _, msg in failures)

    def test_tightness_summary_rates_rows_past_the_clamped_bound_plus_3_se(self, monkeypatch):
        zero = dict.fromkeys(("e_hat", "e_hat_se", "e", "e_se", "r", "r_se", "r_hat", "r_hat_se",
                              "b21", "b22", "b31", "b32"), 0.0)
        rows = [
            {},
            {"e": 0.5, "e_se": 0.125, "b21": 0.125},  # exactly bound + 3 SE: not a violation
            {"e": 0.5, "e_se": 0.125, "b21": 0.0625},
            {"r": 0.25, "b31": 0.125, "r_hat": 1.25, "b32": 2.0},  # b32 counts as 1
        ]

        def record(env, env_index, runs):
            return montecarlo.SweepRecord(env_index=env_index, K=3, S=1, n=9, min_state_visits=9,
                                          delta_sigma_min=0.1, **{**zero, **rows[env_index]})

        monkeypatch.setattr(montecarlo, "_tightness_record", record)
        records, summary, failures = tightness_sweep(SweepConfig(num_envs=4, runs_per_env=1, k_max=3, s_max=1))
        assert len(records) == 4 and not failures
        assert summary == {"rows": 4, "violation_rate": {"thm2.1": 0.25, "thm2.2": 0.0, "thm3.1": 0.25,
                                                         "thm3.2": 0.25}}

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

    def test_sign_test_p_value_is_the_exact_tail(self):
        # P(Binomial(n, 1/2) >= k) against the exact Fraction tail, bit for bit, and
        # against scipy.stats' binomtest to 1e-12 where scipy's tail has not
        # underflowed (it reads 0.0 from about 1e-258 down): every 1 <= k <= n <= 120,
        # then larger n on a stride
        grid = {n: range(1, n + 1) for n in range(1, 121)}
        grid.update({n: range(1, n + 1, 7) for n in range(401, 2001, 97)})
        mismatched, far = [], []
        for n, ks in grid.items():
            tails = sign_test_tails(n)
            for k in ks:
                p = montecarlo._sign_test_p(k, n - k)
                if p != tails[k]:
                    mismatched.append((k, n))
                scipy_p = binomtest(k, n, 0.5, alternative="greater").pvalue
                if not (math.isclose(p, scipy_p, rel_tol=1e-12) or scipy_p == 0.0 and p < 1e-250):
                    far.append((k, n))
        assert not mismatched and not far

    def test_sign_test_edges(self):
        assert montecarlo._sign_test_p(0, 0) == 1.0  # no untied environment
        for n in (1, 2, 7, 120, 1075):
            tails = sign_test_tails(n)
            assert montecarlo._sign_test_p(0, n) == tails[0] == 1.0
            assert montecarlo._sign_test_p(n, 0) == tails[n] == 2.0**-n  # n_neg = 0: every pair one way
        # 2**-2000 is below the smallest subnormal: the tail rounds to zero
        assert montecarlo._sign_test_p(2000, 0) == sign_test_tails(2000)[2000] == 0.0

    def test_sign_test_is_fast_at_large_n(self):
        # P(X >= n/2) = 1/2 + C(n, n/2) / 2**(n + 1) by symmetry; the recurrence calls no math.comb
        n = 20_000
        start = time.perf_counter()
        p = montecarlo._sign_test_p(n // 2, n // 2)
        elapsed = time.perf_counter() - start
        assert p == float(Fraction(2**n + math.comb(n, n // 2), 2 ** (n + 1)))
        assert elapsed < 0.5

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
        play = strategies.optimism_play(env, 3.0, [substream(21, 0, "rewards")], 150)
        chosen = [int(choice[0]) for _, _, choice, _ in play]
        m_star = env.m.max(axis=0)
        scalar_regret = sum(
            m_star[spec.state_sequence[t]] - env.m[chosen[t], spec.state_sequence[t]]
            for t in range(150)
        )
        assert curve.mean[0] == scalar_regret

    @pytest.mark.parametrize("family", ["bernoulli", "truncated_gaussian"])
    def test_curve_matches_per_run_oracle(self, family):
        # n stays below 9170, the first integer where math.log and np.log differ
        runs, n, checkpoints = 9, 400, (4, 150, 400)
        spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(2, n, "iid_uniform", seed=4),
                               seed=23, reward_family=family, reward_sigma2=0.04)
        env = instantiate(spec)
        m_star = env.m.max(axis=0)
        oracle = np.zeros((len(checkpoints), runs))  # each run's pseudo-regret at each checkpoint
        for r in range(runs):
            chosen = state_ucb_run(env, n, 3.0, lambda x: math.sqrt(x / 2.0), substream(23, r, "rewards"))
            total = 0.0
            for t, (s, arm) in enumerate(zip(spec.state_sequence.tolist(), chosen), start=1):
                total += m_star[s] - env.m[arm, s]
                if t in checkpoints:
                    oracle[checkpoints.index(t), r] = total
        streams = [substream(23, r, "rewards") for r in range(runs)]
        engine, at = np.zeros(runs), []
        for t, s, _, mean in strategies.optimism_play(env, 3.0, streams, n):
            engine += m_star[s] - mean
            if t in checkpoints:
                at.append(engine.copy())
        assert np.array_equal(np.array(at), oracle)
        curve = estimate_pseudoregret(env, 3.0, checkpoints, runs)
        assert curve.mean.tolist() == [np.mean(row) for row in oracle]
        assert curve.se.tolist() == [np.std(row, ddof=1) / np.sqrt(runs) for row in oracle]

    @pytest.mark.parametrize("family", ["bernoulli", "truncated_gaussian"])
    def test_variate_blocks_change_nothing(self, monkeypatch, family):
        runs, n = 13, 200
        spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(2, n, "blocks", seed=3),
                               seed=17, reward_family=family)
        env = instantiate(spec)
        whole = estimate_pseudoregret(env, 3.0, (37, 100, n), runs)
        singles = []  # each run alone, a batch of one
        for r in range(runs):
            play = strategies.optimism_play(env, 3.0, [substream(17, r, "rewards")], n)
            singles.append([int(choice[0]) for _, _, choice, _ in play])
        # blocks of 7 steps, the last one ragged
        monkeypatch.setattr(strategies, "_BLOCK_VARIATES", 7 * runs + 3)
        blocked = estimate_pseudoregret(env, 3.0, (37, 100, n), runs)
        assert np.array_equal(blocked.mean, whole.mean) and np.array_equal(blocked.se, whole.se)
        streams = [substream(17, r, "rewards") for r in range(runs)]
        play = strategies.optimism_play(env, 3.0, streams, n)
        choices = np.array([choice for _, _, choice, _ in play])
        for r, chosen in enumerate(singles):
            assert choices[:, r].tolist() == chosen

    def test_variate_memory_is_bounded(self):
        n, runs = 10_000, 1000
        env = fixed_env([[0.7, 0.6], [0.4, 0.5]], mu=(0.65, 0.45), n=n)
        tracemalloc.start()
        try:
            estimate_pseudoregret(env, 3.0, (n,), runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one draw of every variate would hold runs * n * 8 = 80 MB; the bound
        # admits the one reused 2.1 MB block with its tables, not two live blocks
        assert peak < 1.5 * 8 * strategies._BLOCK_VARIATES + 2e6

    def test_checkpoint_validation(self):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=50)
        with pytest.raises(ConfigurationError, match="checkpoints"):
            estimate_pseudoregret(env, 3.0, (10, 60), 5)
        with pytest.raises(ConfigurationError, match="^checkpoints must list at least one horizon$"):
            estimate_pseudoregret(env, 3.0, (), 5)
        with pytest.raises(ConfigurationError, match="^checkpoints must be >= 1, got -5$"):
            estimate_pseudoregret(env, 3.0, (10, -5, 0), 5)
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

    @pytest.mark.parametrize("runs", [5.5, 5.0, True])
    def test_runs_must_be_an_integer(self, runs):
        env = fixed_env([[0.7], [0.4]], mu=(0.7, 0.4), n=200)
        with pytest.raises(ConfigurationError, match="runs must be an integer"):
            estimate_pseudoregret(env, 3.0, (100,), runs)
        curve = estimate_pseudoregret(env, 3.0, (100,), np.int64(5))
        assert curve.checkpoints == (100,)

    def test_reproducible(self):
        env = fixed_env([[0.8], [0.3]], mu=(0.8, 0.3), n=100)
        a = estimate_pseudoregret(env, 3.0, (100,), 25)
        b = estimate_pseudoregret(env, 3.0, (100,), 25)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.se, b.se)
