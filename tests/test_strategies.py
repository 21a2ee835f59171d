import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statebandits import (
    ConfigurationError,
    Environment,
    EnvironmentSpec,
    RecommendationError,
    ScheduleError,
    SRSchedule,
    instantiate,
    log_bar,
    make_state_sequence,
    optimism_play,
    sr_counts,
    sr_schedule,
    state_counts,
    substream,
    successive_rejects,
)
from statebandits.env import REWARD_FAMILIES, STATE_MODES
from statebandits.strategies import _eba_pick, _optimism_pick, _state_sum, cell_means, eliminate, rotation_counts

from _oracles import (
    _rotation_counts,
    classical_ucb_run,
    sr_sample_per_cell,
    sr_table_from_steps,
    sr_transcript,
    state_ucb_run,
)


def stats_of(K, S, pulls=()):
    """(K, S) pull counts and reward sums holding the given (arm, state, reward) pulls."""
    counts, sums = np.zeros((K, S), dtype=np.int64), np.zeros((K, S))
    for arm, state, reward in pulls:
        counts[arm, state] += 1
        sums[arm, state] += reward
    return counts, sums


class TestCellMeans:
    def test_means_zero_when_unpulled(self):
        means = cell_means(*stats_of(2, 1, [(1, 0, 0.5)]))
        assert means[0, 0] == 0.0
        assert means[1, 0] == 0.5


def play(env, n, alpha, rng) -> list[int]:
    """The arms a single optimism-index run plays: ``optimism_play`` with one stream."""
    return [int(choice[0]) for _, _, choice, _ in optimism_play(env, alpha, [rng], n)]


def select(stats, state, t):
    """The arm the optimism rule plays at time t in the given state (alpha 3),
    as a batch of one run whose tables hold the given pulls."""
    counts, sums = (a[None, :, state].astype(float) for a in stats)
    scratch = (np.empty_like(counts), np.empty_like(counts))
    choice = _optimism_pick(counts, sums, int(counts.sum()), 3.0 * np.log(t), *scratch)
    return int(choice[0])


class TestOptimismIndex:
    def test_forced_exploration_picks_lowest_unpulled(self):
        assert select(stats_of(3, 1), 0, 1) == 0
        assert select(stats_of(3, 1, [(0, 0, 1.0)]), 0, 2) == 1

    def test_hand_evaluated_indices(self):
        stats = stats_of(2, 1, [(0, 0, 0.5)] * 4 + [(1, 0, 0.4)])
        bonus0 = math.sqrt(3.0 * math.log(10) / (2.0 * 4.0))
        bonus1 = math.sqrt(3.0 * math.log(10) / 2.0)
        assert bonus0 == pytest.approx(0.9292, abs=2e-4)
        assert bonus1 == pytest.approx(1.8585, abs=2e-4)
        assert 0.5 + bonus0 == pytest.approx(1.4292, abs=2e-4)
        assert 0.4 + bonus1 == pytest.approx(2.2585, abs=2e-4)
        assert select(stats, 0, 10) == 1

    @pytest.mark.parametrize("alpha", [2.0, math.inf, math.nan])
    def test_alpha_must_exceed_two(self, alpha):
        env = noiseless_env([[0.9], [0.2]], 10)
        with pytest.raises(ConfigurationError, match=f"alpha must be finite and exceed 2, got {alpha}"):
            play(env, 10, alpha, substream(0, "run"))

    def test_per_state_statistics_are_separate(self):
        stats = stats_of(2, 2, [(0, 0, 1.0), (1, 0, 1.0)])
        assert select(stats, 1, 3) == 0

    @pytest.mark.parametrize("shape, max_count", [((50, 200), 10**6), ((1000, 3), 30_000)],
                             ids=["triage", "regret"])
    def test_bonus_is_one_divide_of_the_halved_log_term(self, shape, max_count):
        # the pick writes sqrt((0.5 * a) / count); halving commutes with a correctly rounded
        # division unless the result is subnormal, so this is sqrt(0.5 * (a / count)) bit for bit
        rng = substream(0, "bonus")
        counts = rng.integers(1, max_count, shape, endpoint=True).astype(float)
        sums = rng.random(shape) * counts
        score, bonus = np.empty((2, *shape))
        for alpha, t in zip(rng.choice([2.01, 3.0, 5.5], 200).tolist(), rng.integers(1, 10**7, 200).tolist()):
            a = alpha * math.log(t)
            _optimism_pick(counts, sums, shape[1], a, score, bonus)
            assert bonus.tobytes() == np.sqrt(0.5 * (a / counts)).tobytes()


def rotation_arms(seq, K, S):
    """Arm pulled at each step of the uniform rotation: the one rank whose
    ``rotation_counts`` entry grows at that step."""
    arms = []
    for t in range(1, len(seq) + 1):
        before = rotation_counts(state_counts(seq, S, t - 1), K)
        grew = rotation_counts(state_counts(seq, S, t), K) - before
        assert grew.sum() == 1
        arms.append(int(np.argmax(grew[:, seq[t - 1]])))
    return arms


class TestUniformRotation:
    def test_single_state_cycle(self):
        assert rotation_arms((0, 0, 0, 0), 2, 1) == [1, 0, 1, 0]

    def test_two_state_example(self):
        assert rotation_arms((0, 1, 0, 1), 3, 2)[2] == 2

    def test_balance_within_one(self):
        seq = make_state_sequence(3, 200, "iid_uniform", seed=3)
        for t in range(1, 201):
            counts = rotation_counts(state_counts(seq, 3, t), 4)
            assert np.array_equal(counts.sum(axis=0), state_counts(seq, 3, t))
            assert np.all(counts.max(axis=0) - counts.min(axis=0) <= 1)


def recommend(stats):
    """Best state-average arm of one run's statistics, as a (K, S, 1) table of one run."""
    counts, sums = stats
    return int(_eba_pick(cell_means(counts, sums)[:, :, None], counts)[0])


class TestRecommendation:
    def test_best_row_average(self):
        stats = stats_of(2, 2, [(0, 0, 0.9), (0, 1, 0.5), (1, 0, 0.6), (1, 1, 0.7)])
        assert recommend(stats) == 0

    def test_tie_goes_to_lowest_index(self):
        assert recommend(stats_of(3, 1, [(a, 0, 0.5) for a in range(3)])) == 0

    def test_close_row_means(self):
        stats = stats_of(2, 2, [(0, 0, 0.6), (0, 1, 0.6), (1, 0, 0.61), (1, 1, 0.61)])
        assert recommend(stats) == 1

    def test_unpulled_arm_is_an_error(self):
        stats = stats_of(3, 2, [(0, 0, 1.0), (2, 1, 1.0)])
        with pytest.raises(RecommendationError, match="arm 1"):
            recommend(stats)

    def test_partial_cells_use_defined_means_only(self):
        assert recommend(stats_of(2, 2, [(0, 0, 0.2), (1, 1, 0.9)])) == 1

    @pytest.mark.parametrize("S", range(1, 25))
    def test_picks_follow_nanmean_bits(self, S):
        # each run's three arms hold permutations of one set of means, so their state averages
        # differ only by rounding and only an average with np.nanmean's bits picks as it does
        rng = substream(S, "eba-bits")
        values = rng.random((400, S)) * 10.0 ** rng.integers(-6, 6, (400, S))
        means = np.stack([rng.permuted(values, axis=1) for _ in range(3)], axis=1)  # (runs, K, S)
        counts = np.ones((3, S), dtype=np.int64)
        if S > 1:
            counts[1, S // 2] = 0  # a cell without pulls, the same in every run: mean 0, NaN for the oracle
            means[:, 1, S // 2] = 0.0
        expected = np.argmax(np.nanmean(np.where(counts == 0, np.nan, means), axis=2), axis=1)
        assert np.array_equal(_eba_pick(np.ascontiguousarray(means.transpose(1, 2, 0)), counts), expected)


class TestSchedules:
    def test_log_bar(self):
        assert log_bar(3) == pytest.approx(0.5 + 0.5 + 1.0 / 3.0)
        assert log_bar(2) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError, match="^need K >= 2$"):
            log_bar(1)

    def test_uniform_examples(self):
        assert sr_schedule("uniform", 4, 12).t_k == (4, 8, 12)
        assert sr_schedule("uniform", 2, 10).t_k == (10,)

    def test_reference_hand_example(self):
        # per-arm targets n_1 = ceil(97/4) = 25, n_2 = ceil(97/(8/3)) = 37;
        # phase lengths 3*25 = 75 and 2*(37-25) = 24, last boundary forced up
        sched = sr_schedule("reference", 3, 100)
        assert sched.t_k == (75, 100)

    def test_reference_matches_per_arm_targets(self):
        for K, n in [(3, 100), (4, 90), (6, 300), (10, 500)]:
            bar = log_bar(K)
            targets = [math.ceil((n - K) / (bar * (K + 1 - j))) for j in range(1, K)]
            steps, total, prev = [], 0, 0
            for j, cum in enumerate(targets, start=1):
                total += (K + 1 - j) * (cum - prev)
                prev = cum
                steps.append(min(total, n))
            steps[-1] = n
            assert sr_schedule("reference", K, n).t_k == tuple(steps)

    def test_reference_two_arms_coincides_with_uniform(self):
        assert sr_schedule("reference", 2, 10).t_k == (10,)

    def test_reference_caps_final_phase(self):
        for K, n in [(3, 60), (4, 100), (5, 200)]:
            sched = sr_schedule("reference", K, n)
            assert sched.t_k[-1] == n
            assert all(a < b for a, b in zip(sched.t_k, sched.t_k[1:]))

    def test_schedule_properties(self):
        sched = sr_schedule("uniform", 5, 50)
        assert sched.K == 5
        assert sched.n == 50

    def test_errors(self):
        with pytest.raises(ScheduleError):
            sr_schedule("uniform", 1, 10)
        with pytest.raises(ScheduleError):
            sr_schedule("uniform", 4, 3)
        with pytest.raises(ScheduleError, match="kind"):
            sr_schedule("geometric", 3, 30)
        for K, n in ((3, 3), (5, 7)):
            with pytest.raises(ScheduleError, match=f"n={n} .* K={K} arms: a phase would be empty"):
                sr_schedule("reference", K, n)

    @pytest.mark.parametrize("t_k", [(10.7, 20.2), (True, 5), (10, 20.0)])
    def test_boundaries_must_be_integers(self, t_k):
        with pytest.raises(ConfigurationError, match="a boundary must be an integer"):
            SRSchedule(t_k)

    @pytest.mark.parametrize("t_k, message", [
        ((), "need at least one phase boundary"),
        ((10, 10), r"boundaries must be strictly increasing, got \(10, 10\)"),
        ((20, 10), r"boundaries must be strictly increasing, got \(20, 10\)"),
        ((0, 5), r"boundaries must be strictly increasing, got \(0, 5\)"),
    ])
    def test_boundaries_must_increase(self, t_k, message):
        with pytest.raises(ScheduleError, match=f"^t_k: {message}$"):
            SRSchedule(t_k)

    @pytest.mark.parametrize("K, n, name", [(3, 30.5, "n"), (3, True, "n"), (3.0, 30, "K"), (True, 30, "K")])
    def test_arms_and_horizon_must_be_integers(self, K, n, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            sr_schedule("uniform", K, n)

    def test_numpy_integers_accepted(self):
        assert SRSchedule(np.array([4, 8, 12])).t_k == (4, 8, 12)
        assert all(type(t) is int for t in SRSchedule(np.array([4, 8])).t_k)
        for kind in ("uniform", "reference"):
            assert sr_schedule(kind, np.int64(4), np.int64(90)) == sr_schedule(kind, 4, 90)


def noiseless_env(m, n, state_mode="round_robin"):
    m = np.asarray(m, dtype=float)
    K, S = m.shape
    spec = EnvironmentSpec(
        K=K, S=S, mu=tuple(float(v) for v in m.mean(axis=1)), sigma2=0.01,
        state_sequence=make_state_sequence(S, n, state_mode),
        reward_family="truncated_gaussian", reward_sigma2=1e-18,
    )
    return Environment(spec=spec, m=m)


class TestSuccessiveRejects:
    def test_noiseless_ordering(self):
        # Bernoulli rewards of mean 0 or 1 are exact: the arms' sums of state means are 2, 1 and 0
        spec = EnvironmentSpec(K=3, S=2, mu=(1.0, 0.5, 0.0), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 30, "round_robin"))
        env = Environment(spec=spec, m=np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]]))
        winners, rejected = successive_rejects(env, sr_schedule("uniform", 3, 30), 1, substream(0, "sr"))
        assert rejected.tolist() == [[2, 1]]
        assert winners.tolist() == [0]

    def test_two_arms_match_uniform_rotation(self):
        # with two arms elimination is a single phase of the uniform rotation
        spec = EnvironmentSpec(K=2, S=2, mu=(0.7, 0.4), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 40, "iid_uniform", seed=2))
        env = instantiate(spec)
        sched = sr_schedule("uniform", 2, 40)
        winners, rejected = successive_rejects(env, sched, 1, substream(1, "sr"))
        assert winners.shape == (1,) and rejected.shape == (1, 1)
        _, steps, _ = sr_transcript(env, sched.t_k, substream(1, "sr"))
        assert [arm for _, _, arm, _, _ in steps] == rotation_arms(spec.state_sequence, 2, 2)
        rotation = rotation_counts(state_counts(spec.state_sequence, 2), 2)
        assert np.array_equal(sr_counts(spec.state_sequence, sched, 2, 2)[:, 0], rotation.min(axis=0))

    def test_sampler_needs_bernoulli_rewards(self):
        spec = EnvironmentSpec(K=4, S=3, mu=(0.8, 0.6, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(3, 120, "iid_uniform", seed=4), seed=11)
        gaussian = Environment(spec=replace(spec, reward_family="truncated_gaussian"), m=instantiate(spec).m)
        with pytest.raises(ConfigurationError, match="bernoulli"):
            successive_rejects(gaussian, sr_schedule("reference", 4, 120), 1, substream(9, "sr-test"))

    @pytest.mark.parametrize("runs, message", [(0, "runs must be >= 1, got 0"),
                                               (2.0, "runs must be an integer, got 2.0")])
    def test_sampler_needs_a_whole_number_of_runs(self, runs, message):
        env = instantiate(EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                                          state_sequence=make_state_sequence(2, 30, "round_robin")))
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            successive_rejects(env, sr_schedule("uniform", 3, 30), runs, substream(0, "sr"))

    def test_count_table_matches_closed_form(self):
        for seed in range(5):
            seq = make_state_sequence(3, 90, "iid_uniform", seed=seed)
            spec = EnvironmentSpec(K=4, S=3, mu=(0.9, 0.7, 0.5, 0.3), sigma2=0.05,
                                   state_sequence=seq, seed=seed)
            env = instantiate(spec)
            for kind in ("uniform", "reference"):
                sched = sr_schedule(kind, 4, 90)
                _, steps, rejected = sr_transcript(env, sched.t_k, substream(seed, "sr-table"))
                assert np.array_equal(sr_table_from_steps(steps, rejected, 4, 3), sr_counts(seq, sched, 4, 3))

    def test_schedule_env_mismatch(self):
        env = instantiate(EnvironmentSpec(K=3, S=1, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                                          state_sequence=(0,) * 30))
        with pytest.raises(ScheduleError):
            successive_rejects(env, sr_schedule("uniform", 4, 28), 1, substream(0, "sr"))
        with pytest.raises(ScheduleError):
            successive_rejects(env, sr_schedule("uniform", 3, 60), 1, substream(0, "sr"))

    @pytest.mark.parametrize("K, n, message", [
        (2, 30, "schedule is for 2 arms, got K=3"),
        (4, 30, "schedule is for 4 arms, got K=3"),
        (3, 31, "schedule horizon 31 exceeds sequence length 30"),
    ])
    def test_sampler_checks_its_schedule(self, K, n, message):
        # a schedule for other arms would misname the winner or fail on an index, and a
        # longer one would run short
        env = instantiate(EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                                          state_sequence=make_state_sequence(2, 30, "round_robin")))
        with pytest.raises(ScheduleError, match=message):
            successive_rejects(env, sr_schedule("uniform", K, n), 4, substream(0, "sr"))


class TestEliminate:
    def test_tie_drops_the_lower_arm_from_every_table(self):
        # tables are (state, position, run); run 0 ties positions 1 and 2 (arms 2 and 5), run 1
        # ties positions 0 and 1 (arms 1 and 3), and run 2 drops its last position (arm 6)
        active = np.array([[0, 2, 5], [1, 3, 4], [4, 5, 6]]).T
        scores = np.array([[0.7, 0.2, 0.2], [0.1, 0.1, 0.9], [0.5, 0.4, 0.3]]).T
        counts = np.arange(18).reshape(2, 3, 3)
        sums = counts * 0.5
        pos, kept, kept_counts, kept_sums = eliminate(scores, active, counts, sums)
        assert pos.tolist() == [1, 0, 2]
        assert kept.T.tolist() == [[0, 5], [3, 4], [4, 5]]
        assert np.all(np.diff(kept, axis=0) > 0)
        for table, kept_table in ((counts, kept_counts), (sums, kept_sums)):
            assert kept_table.shape == (2, 2, 3)
            assert np.array_equal(kept_table, np.stack([table[:, [0, 2], 0], table[:, [1, 2], 1],
                                                        table[:, [0, 1], 2]], axis=-1))

    @pytest.mark.parametrize("S", [*range(1, 25), 129, 200, 300])
    def test_state_sum_follows_numpy_row_order(self, S):
        # the elimination score sums a (state, position, run) table over states; it must give the
        # bits numpy's sum of each contiguous row of states gives: one by one below 8 states, then
        # eight running partial sums, then halves past 128. Magnitudes spread over 16 decades so
        # that any other order of additions changes the result.
        rng = substream(S, "state-sum")
        rows = rng.random((40, 3, S)) * 10.0 ** rng.integers(-8, 8, (40, 3, S))
        rows[rng.random(rows.shape) < 0.1] = 0.0
        table = np.ascontiguousarray(rows.transpose(2, 1, 0))  # (state, position, run)
        assert np.array_equal(_state_sum(table), np.add.reduce(rows, axis=-1).T)
        assert np.array_equal(_state_sum(rows.transpose(2, 1, 0)), np.add.reduce(rows, axis=-1).T)

    @pytest.mark.parametrize("S", [8, 9, 12])
    def test_scores_add_states_in_numpy_row_order(self, S):
        # every cell has mean 0.5 and 3 pulls in the first phase, so two arms often hold the same
        # per-state means in another order; their sums then differ only by rounding, and the engine
        # eliminates as the oracle's sum of each contiguous row of states does
        K, n = 3, 2 * 3 * 3 * S
        spec = EnvironmentSpec(K=K, S=S, mu=(0.5,) * K, sigma2=0.05,
                               state_sequence=make_state_sequence(S, n, "round_robin"))
        env = Environment(spec=spec, m=np.full((K, S), 0.5))
        sched = sr_schedule("uniform", K, n)
        winners, rejected = successive_rejects(env, sched, 500, substream(S, "sr-ties"))
        oracle_winners, oracle_rejected = sr_sample_per_cell(env, sched.t_k, 500, substream(S, "sr-ties"))
        assert np.array_equal(winners, oracle_winners)
        assert np.array_equal(rejected, oracle_rejected)

    def test_engines_break_a_tie_toward_the_lower_arm(self):
        # Bernoulli rewards of mean 0 or 1 are exact: arms 1 and 2 tie at 0, arm 2 then trails,
        # and arms 0 and 3 tie at 2 in the last phase, so the tie-break picks the winner
        m = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        spec = EnvironmentSpec(K=4, S=2, mu=(1.0, 0.0, 0.0, 1.0), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 60, "round_robin"))
        env = Environment(spec=spec, m=m)
        sched = sr_schedule("uniform", 4, 60)
        winners, rejected = successive_rejects(env, sched, 1, substream(0, "sr"))
        assert (rejected.tolist(), winners.tolist()) == ([[1, 2, 0]], [3])
        winners, rejected = successive_rejects(env, sched, 7, substream(0, "sr"))
        assert winners.tolist() == [3] * 7
        assert rejected.tolist() == [[1, 2, 0]] * 7


class TestRunners:
    @pytest.mark.parametrize("n", [0, -3, 201])
    def test_sb_ucb_steps_must_fit_horizon(self, n):
        env = noiseless_env([[0.9], [0.2]], 200)
        with pytest.raises(ConfigurationError, match=rf"n {n} outside \[1, 200\]"):
            play(env, n, 3.0, substream(5, "run"))

    @pytest.mark.parametrize("n", [100.5, 100.0, True])
    def test_sb_ucb_steps_must_be_integers(self, n):
        env = noiseless_env([[0.9], [0.2]], 200)
        with pytest.raises(ConfigurationError, match="n must be an integer"):
            play(env, n, 3.0, substream(5, "run"))
        chosen = play(env, np.int64(100), 3.0, substream(5, "run"))
        assert len(chosen) == 100

    @pytest.mark.parametrize("n", [0, 201])
    def test_engine_steps_must_fit_horizon(self, n):
        # the lockstep engine checks its own n: a longer run would stop at the horizon unannounced
        env = noiseless_env([[0.9], [0.2]], 200)
        with pytest.raises(ConfigurationError, match=rf"n {n} outside \[1, 200\]"):
            next(optimism_play(env, 3.0, [substream(5, r, "run") for r in range(2)], n))

    def test_engine_needs_a_stream(self):
        env = noiseless_env([[0.9], [0.2]], 200)
        with pytest.raises(ConfigurationError, match="^runs must be >= 1, got 0$"):
            next(optimism_play(env, 3.0, [], 5))

    def test_sb_ucb_prefers_best_arm(self):
        env = noiseless_env([[0.9], [0.2]], 200)
        chosen = play(env, 200, 3.0, substream(5, "run"))
        assert chosen.count(0) > chosen.count(1)
        assert chosen[:2] == [0, 1]

    def test_sb_ucb_single_state_matches_classical(self):
        for seed in range(5):
            rng = substream(seed, "cls-m")
            K = int(rng.integers(2, 5))
            m_vec = 0.1 + 0.8 * rng.random(K)
            spec = EnvironmentSpec(K=K, S=1, mu=tuple(float(v) for v in m_vec),
                                   sigma2=0.01, state_sequence=(0,) * 200)
            env = Environment(spec=spec, m=m_vec[:, None])
            chosen = play(env, 200, 3.0, substream(seed, "cls-r"))
            reference = classical_ucb_run(m_vec, 200, 3.0, substream(seed, "cls-r").random(200))
            assert chosen == reference

    @pytest.mark.parametrize("reward_family", ["bernoulli", "truncated_gaussian"])
    def test_sb_ucb_matches_per_state_oracle(self, reward_family):
        # n stays below 9170, the first integer where math.log and np.log differ
        for seed in range(3):
            for S, mode in ((2, "iid_uniform"), (3, "round_robin"), (4, "blocks")):
                spec = EnvironmentSpec(K=3, S=S, mu=(0.8, 0.6, 0.4), sigma2=0.05,
                                       state_sequence=make_state_sequence(S, 1500, mode, seed=seed),
                                       seed=seed, reward_family=reward_family, reward_sigma2=0.04)
                env = instantiate(spec)
                chosen = play(env, 1500, 3.0, substream(seed, "ucb"))
                assert chosen == state_ucb_run(env, 1500, 3.0, lambda x: math.sqrt(x / 2.0), substream(seed, "ucb"))


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(K=st.integers(2, 5), S=st.integers(1, 4), extra=st.integers(0, 60),
       mode=st.sampled_from(STATE_MODES), seed=st.integers(0, 2**16))
def test_rotation_and_elimination_match_oracles(K, S, extra, mode, seed):
    n = K + extra
    seq = make_state_sequence(S, n, mode, seed=seed)
    for t in range(n + 1):
        assert np.array_equal(rotation_counts(state_counts(seq, S, t), K), _rotation_counts(seq, t, K, S))
    spec = EnvironmentSpec(K=K, S=S, mu=tuple(substream(seed, "mu").random(K)), sigma2=0.05,
                           state_sequence=seq, seed=seed)
    env = instantiate(spec)
    for kind in ("uniform", "reference"):
        try:
            sched = sr_schedule(kind, K, n)
        except ScheduleError:
            # the reference budget has empty phases when n is close to K
            assert kind == "reference"
            continue
        for runs in (1, 6):
            winners, rejected = sr_sample_per_cell(env, sched.t_k, runs, substream(seed, "hyp"))
            engine_winners, engine_rejected = successive_rejects(env, sched, runs, substream(seed, "hyp"))
            assert np.array_equal(engine_winners, winners) and np.array_equal(engine_rejected, rejected)
        _, steps, transcript_rejected = sr_transcript(env, sched.t_k, substream(seed, "hyp"))
        assert np.array_equal(sr_counts(seq, sched, K, S), sr_table_from_steps(steps, transcript_rejected, K, S))


@pytest.mark.filterwarnings("ignore::UserWarning", "error::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True)
@example(K=8, S=5, n=3000, runs=20, mode="iid_uniform", reward_family="bernoulli", means="zero_one",
         alpha=3.0, seed=1)
@example(K=8, S=1, n=3000, runs=20, mode="blocks", reward_family="truncated_gaussian", means="drawn",
         alpha=2.01, seed=2)
@given(K=st.integers(2, 8), S=st.integers(1, 5), n=st.integers(1, 3000), runs=st.integers(1, 20),
       mode=st.sampled_from(STATE_MODES), reward_family=st.sampled_from(REWARD_FAMILIES),
       means=st.sampled_from(["drawn", "equal", "zero_one"]),
       alpha=st.sampled_from([2.01, 3.0, 5.5]), seed=st.integers(0, 2**16))
def test_lockstep_runs_match_per_state_oracle(K, S, n, runs, mode, reward_family, means, alpha, seed):
    # n stays below 9170, the first integer where math.log and np.log differ; equal and
    # 0/1 local means make exact index ties, which must go to the lowest arm. The index
    # only runs once every cell has pulls, so a zero-count division is an error here.
    spec = EnvironmentSpec(K=K, S=S, mu=tuple(substream(seed, "mu").random(K)), sigma2=0.05,
                           state_sequence=make_state_sequence(S, n, mode, seed=seed), seed=seed,
                           reward_family=reward_family, reward_sigma2=0.04)
    if means == "drawn":
        env = instantiate(spec)
    else:
        m = np.full((K, S), 0.5) if means == "equal" else substream(seed, "m").integers(0, 2, (K, S))
        env = Environment(spec=spec, m=m)
    streams = [substream(seed, r, "lockstep") for r in range(runs)]
    steps = list(optimism_play(env, alpha, streams, n))
    choices = np.array([choice for _, _, choice, _ in steps])
    seq = spec.state_sequence
    assert [(t, s) for t, s, _, _ in steps] == list(zip(range(1, n + 1), seq.tolist()))
    assert np.array_equal(np.array([mean for _, _, _, mean in steps]), env.m[choices, seq[:, None]])
    for r in range(runs):
        assert choices[:, r].tolist() == state_ucb_run(env, n, alpha, lambda x: math.sqrt(x / 2.0),
                                                       substream(seed, r, "lockstep"))


def test_block_log_equals_per_step_log():
    # the engine takes alpha*ln(t) from one vectorized log per variate block, as the
    # per-step np.log(t) of a Python int gave it; blocks of 262 steps are those of 1000 runs
    alpha, n = 3.0, 10**6
    per_step = np.array([alpha * np.log(t) for t in range(1, n + 1)])
    for block in (n, 262, 37):
        blocked = [alpha * np.log(np.arange(lo + 1, min(lo + block, n) + 1)) for lo in range(0, n, block)]
        assert np.array_equal(np.concatenate(blocked), per_step)
