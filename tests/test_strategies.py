import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statebandits import (
    BOUNDED_UNIT,
    ConfigurationError,
    Environment,
    EnvironmentSpec,
    PsiFamily,
    PullStats,
    RecommendationError,
    ScheduleError,
    instantiate,
    log_bar,
    make_state_sequence,
    run_sb_ucb,
    sr_counts,
    sr_schedule,
    state_counts,
    substream,
    successive_rejects,
)
from statebandits.env import REWARD_FAMILIES, STATE_MODES
from statebandits.montecarlo import _sr_sample
from statebandits.strategies import (
    _eba_pick, _optimism_pick, cell_means, eliminate, optimism_play, rotation_counts,
)

from _oracles import (
    _rotation_counts,
    classical_ucb_run,
    sr_table_from_steps,
    sr_transcript,
    state_ucb_run,
)


def stats_of(K, S, pulls=()):
    """PullStats holding the given (arm, state, reward) pulls."""
    stats = PullStats(K, S)
    for arm, state, reward in pulls:
        stats.counts[arm, state] += 1
        stats.sums[arm, state] += reward
    return stats


class TestPullStats:
    def test_means_nan_when_unpulled(self):
        stats = stats_of(2, 1, [(1, 0, 0.5)])
        means = cell_means(stats.counts, stats.sums, np.nan)
        assert np.isnan(means[0, 0])
        assert means[1, 0] == 0.5


def select(stats, state, t):
    """The arm the optimism rule plays at time t in the given state (alpha 3),
    as a batch of one run whose tables hold the given pulls."""
    counts = stats.counts[None, :, state].astype(float)
    scratch = (np.empty_like(counts), np.empty_like(counts))
    choice = _optimism_pick(counts, stats.sums[None, :, state], int(counts.sum()), 3.0 * np.log(t),
                            BOUNDED_UNIT, *scratch)
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

    def test_alpha_must_exceed_two(self):
        env = noiseless_env([[0.9], [0.2]], 10)
        with pytest.raises(ConfigurationError, match="alpha"):
            run_sb_ucb(env, 10, 2.0, BOUNDED_UNIT, substream(0, "run"))

    def test_per_state_statistics_are_separate(self):
        stats = stats_of(2, 2, [(0, 0, 1.0), (1, 0, 1.0)])
        assert select(stats, 1, 3) == 0


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
    """Best state-average arm of one run's statistics."""
    return int(_eba_pick(cell_means(stats.counts, stats.sums, np.nan)[None])[0])


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


class TestSchedules:
    def test_log_bar(self):
        assert log_bar(3) == pytest.approx(0.5 + 0.5 + 1.0 / 3.0)
        assert log_bar(2) == pytest.approx(1.0)

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
        env = noiseless_env([[0.9], [0.5], [0.1]], 30)
        res = successive_rejects(env, sr_schedule("uniform", 3, 30), substream(0, "sr"))
        assert res.rejected == [2, 1]
        assert res.winner == 0

    def test_two_arms_match_uniform_rotation(self):
        spec = EnvironmentSpec(K=2, S=2, mu=(0.7, 0.4), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 40, "iid_uniform", seed=2))
        env = instantiate(spec)
        res = successive_rejects(env, sr_schedule("uniform", 2, 40), substream(1, "sr"))
        assert len(res.rejected) == 1
        assert all(phase == 1 for *_, phase in res.steps)
        assert [arm for _, _, arm, _, _ in res.steps] == rotation_arms(spec.state_sequence, 2, 2)

    def test_transcript_matches_independent_resimulation(self):
        spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 60, "iid_uniform", seed=4),
                               seed=11)
        env = instantiate(spec)
        sched = sr_schedule("uniform", 3, 60)
        res = successive_rejects(env, sched, substream(9, "sr-test"))
        winner, steps, rejected = sr_transcript(env, sched.t_k, substream(9, "sr-test"))
        assert res.winner == winner
        assert res.rejected == rejected
        assert res.steps == steps

    def test_count_table_matches_closed_form(self):
        for seed in range(5):
            seq = make_state_sequence(3, 90, "iid_uniform", seed=seed)
            spec = EnvironmentSpec(K=4, S=3, mu=(0.9, 0.7, 0.5, 0.3), sigma2=0.05,
                                   state_sequence=seq, seed=seed)
            env = instantiate(spec)
            for kind in ("uniform", "reference"):
                sched = sr_schedule(kind, 4, 90)
                res = successive_rejects(env, sched, substream(seed, "sr-table"))
                assert np.array_equal(res.n_table, sr_table_from_steps(res.steps, res.rejected, 4, 3))
                assert np.array_equal(res.n_table, sr_counts(seq, sched, 4, 3))

    def test_pull_accounting(self):
        spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 45, "iid_uniform", seed=6))
        env = instantiate(spec)
        sched = sr_schedule("uniform", 3, 45)
        res = successive_rejects(env, sched, substream(2, "sr"))
        assert len(res.steps) == 45
        phases = [phase for _, _, _, _, phase in res.steps]
        boundaries = [0] + list(sched.t_k)
        for k in range(1, 3):
            assert phases[boundaries[k - 1]:boundaries[k]] == [k] * (boundaries[k] - boundaries[k - 1])
        active_per_phase = {k: set() for k in (1, 2)}
        for _, _, arm, _, phase in res.steps:
            active_per_phase[phase].add(arm)
        assert len(active_per_phase[1]) == 3
        assert len(active_per_phase[2]) == 2

    def test_within_phase_balance(self):
        spec = EnvironmentSpec(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 66, "iid_uniform", seed=8))
        env = instantiate(spec)
        sched = sr_schedule("uniform", 3, 66)
        res = successive_rejects(env, sched, substream(3, "sr"))
        for k, (lo, hi) in enumerate(zip((0,) + sched.t_k, sched.t_k), start=1):
            per_cell: dict = {}
            for t, s, arm, _, phase in res.steps[lo:hi]:
                assert phase == k
                per_cell[(arm, s)] = per_cell.get((arm, s), 0) + 1
            for s in range(2):
                vals = [per_cell.get((arm, s), 0) for arm in set(a for a, ss in per_cell if ss == s)]
                if vals:
                    assert max(vals) - min(vals) <= 1

    def test_schedule_env_mismatch(self):
        env = instantiate(EnvironmentSpec(K=3, S=1, mu=(0.8, 0.5, 0.2), sigma2=0.05,
                                          state_sequence=(0,) * 30))
        with pytest.raises(ScheduleError):
            successive_rejects(env, sr_schedule("uniform", 4, 28), substream(0, "sr"))
        with pytest.raises(ScheduleError):
            successive_rejects(env, sr_schedule("uniform", 3, 60), substream(0, "sr"))


class TestEliminate:
    def test_tie_drops_the_lower_arm_from_every_table(self):
        # run 0 ties positions 1 and 2 (arms 2 and 5), run 1 ties positions 0 and 1 (arms 1 and 3)
        active = np.array([[0, 2, 5], [1, 3, 4]])
        scores = np.array([[0.7, 0.2, 0.2], [0.1, 0.1, 0.9]])
        counts = np.arange(12).reshape(2, 3, 2)
        sums = counts * 0.5
        pos, kept, kept_counts, kept_sums = eliminate(scores, active, counts, sums)
        assert pos.tolist() == [1, 0]
        assert kept.tolist() == [[0, 5], [3, 4]]
        assert np.all(np.diff(kept, axis=1) > 0)
        assert np.array_equal(kept_counts, np.stack([counts[0, [0, 2]], counts[1, [1, 2]]]))
        assert np.array_equal(kept_sums, np.stack([sums[0, [0, 2]], sums[1, [1, 2]]]))

    def test_engines_break_a_tie_toward_the_lower_arm(self):
        # Bernoulli rewards of mean 0 or 1 are exact: arms 1 and 2 tie at 0, arm 2 then trails,
        # and arms 0 and 3 tie at 2 in the last phase, so the tie-break picks the winner
        m = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        spec = EnvironmentSpec(K=4, S=2, mu=(1.0, 0.0, 0.0, 1.0), sigma2=0.05,
                               state_sequence=make_state_sequence(2, 60, "round_robin"))
        env = Environment(spec=spec, m=m)
        sched = sr_schedule("uniform", 4, 60)
        res = successive_rejects(env, sched, substream(0, "sr"))
        assert (res.rejected, res.winner) == ([1, 2, 0], 3)
        assert _sr_sample(env, sched, 7, substream(0, "sr")).tolist() == [3] * 7


class TestRunners:
    @pytest.mark.parametrize("n", [0, -3, 201])
    def test_sb_ucb_steps_must_fit_horizon(self, n):
        env = noiseless_env([[0.9], [0.2]], 200)
        with pytest.raises(ConfigurationError, match=rf"n {n} outside \[1, 200\]"):
            run_sb_ucb(env, n, 3.0, BOUNDED_UNIT, substream(5, "run"))

    @pytest.mark.parametrize("n", [100.5, 100.0, True])
    def test_sb_ucb_steps_must_be_integers(self, n):
        env = noiseless_env([[0.9], [0.2]], 200)
        with pytest.raises(ConfigurationError, match="n must be an integer"):
            run_sb_ucb(env, n, 3.0, BOUNDED_UNIT, substream(5, "run"))
        _, chosen = run_sb_ucb(env, np.int64(100), 3.0, BOUNDED_UNIT, substream(5, "run"))
        assert len(chosen) == 100

    def test_sb_ucb_prefers_best_arm(self):
        env = noiseless_env([[0.9], [0.2]], 200)
        stats, chosen = run_sb_ucb(env, 200, 3.0, BOUNDED_UNIT, substream(5, "run"))
        assert stats.counts[0, 0] > stats.counts[1, 0]
        assert chosen[:2] == [0, 1]

    def test_sb_ucb_single_state_matches_classical(self):
        for seed in range(5):
            rng = substream(seed, "cls-m")
            K = int(rng.integers(2, 5))
            m_vec = 0.1 + 0.8 * rng.random(K)
            spec = EnvironmentSpec(K=K, S=1, mu=tuple(float(v) for v in m_vec),
                                   sigma2=0.01, state_sequence=(0,) * 200)
            env = Environment(spec=spec, m=m_vec[:, None])
            _, chosen = run_sb_ucb(env, 200, 3.0, BOUNDED_UNIT, substream(seed, "cls-r"))
            reference = classical_ucb_run(m_vec, 200, 3.0, substream(seed, "cls-r").random(200))
            assert chosen == reference

    @pytest.mark.parametrize("reward_family", ["bernoulli", "truncated_gaussian"])
    def test_sb_ucb_matches_per_state_oracle(self, reward_family):
        # n stays below 9170, the first integer where math.log and np.log differ
        families = [(BOUNDED_UNIT, lambda x: math.sqrt(x / 2.0)),
                    (PsiFamily.gaussian(0.3), lambda x: math.sqrt(2.0 * 0.3 * x))]
        for seed in range(3):
            for S, mode in ((2, "iid_uniform"), (3, "round_robin"), (4, "blocks")):
                spec = EnvironmentSpec(K=3, S=S, mu=(0.8, 0.6, 0.4), sigma2=0.05,
                                       state_sequence=make_state_sequence(S, 1500, mode, seed=seed),
                                       seed=seed, reward_family=reward_family, reward_sigma2=0.04)
                env = instantiate(spec)
                for family, bonus in families:
                    stats, chosen = run_sb_ucb(env, 1500, 3.0, family, substream(seed, "ucb"))
                    assert chosen == state_ucb_run(env, 1500, 3.0, bonus, substream(seed, "ucb"))
                    assert stats.counts.sum() == 1500


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
        res = successive_rejects(env, sched, substream(seed, "hyp"))
        winner, steps, rejected = sr_transcript(env, sched.t_k, substream(seed, "hyp"))
        assert (res.winner, res.rejected, res.steps) == (winner, rejected, steps)
        assert np.array_equal(res.n_table, sr_table_from_steps(steps, rejected, K, S))


@pytest.mark.filterwarnings("ignore::UserWarning", "error::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True)
@example(K=8, S=5, n=3000, runs=20, mode="iid_uniform", reward_family="bernoulli", means="zero_one",
         gaussian=False, alpha=3.0, seed=1)
@example(K=8, S=1, n=3000, runs=20, mode="blocks", reward_family="truncated_gaussian", means="drawn",
         gaussian=True, alpha=2.01, seed=2)
@given(K=st.integers(2, 8), S=st.integers(1, 5), n=st.integers(1, 3000), runs=st.integers(1, 20),
       mode=st.sampled_from(STATE_MODES), reward_family=st.sampled_from(REWARD_FAMILIES),
       means=st.sampled_from(["drawn", "equal", "zero_one"]), gaussian=st.booleans(),
       alpha=st.sampled_from([2.01, 3.0, 5.5]), seed=st.integers(0, 2**16))
def test_lockstep_runs_match_per_state_oracle(K, S, n, runs, mode, reward_family, means, gaussian, alpha, seed):
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
    family, bonus = ((PsiFamily.gaussian(0.3), lambda x: math.sqrt(2.0 * 0.3 * x)) if gaussian
                     else (BOUNDED_UNIT, lambda x: math.sqrt(x / 2.0)))
    streams = [substream(seed, r, "lockstep") for r in range(runs)]
    counts, sums = np.zeros((runs, K, S), dtype=np.int64), np.zeros((runs, K, S))
    steps = list(optimism_play(env, alpha, family, streams, n, counts, sums))
    choices = np.array([choice for _, _, choice, _ in steps])
    seq = spec.state_sequence
    assert [(t, s) for t, s, _, _ in steps] == list(zip(range(1, n + 1), seq.tolist()))
    assert np.array_equal(np.array([mean for _, _, _, mean in steps]), env.m[choices, seq[:, None]])
    for r in range(runs):
        assert choices[:, r].tolist() == state_ucb_run(env, n, alpha, bonus, substream(seed, r, "lockstep"))
        pulls = np.zeros((K, S), dtype=np.int64)
        np.add.at(pulls, (choices[:, r], seq), 1)
        assert np.array_equal(counts[r], pulls)


def test_block_log_equals_per_step_log():
    # the engine takes alpha*ln(t) from one vectorized log per variate block, as the
    # per-step np.log(t) of a Python int gave it; blocks of 262 steps are those of 1000 runs
    alpha, n = 3.0, 10**6
    per_step = np.array([alpha * np.log(t) for t in range(1, n + 1)])
    for block in (n, 262, 37):
        blocked = [alpha * np.log(np.arange(lo + 1, min(lo + block, n) + 1)) for lo in range(0, n, block)]
        assert np.array_equal(np.concatenate(blocked), per_step)
