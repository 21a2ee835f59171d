import numpy as np
import pytest

from statebandits import (
    ConfigurationError,
    Environment,
    EnvironmentSpec,
    ValidationError,
    gaps,
    instantiate,
    make_state_sequence,
    state_counts,
    substream,
)
from statebandits.env import _rewards, _variates
from statebandits.errors import _check_integer


def spec_of(K=2, S=1, mu=(0.5, 0.3), sigma2=0.01, n=100, seed=0, **kw):
    return EnvironmentSpec(
        K=K, S=S, mu=mu, sigma2=sigma2,
        state_sequence=make_state_sequence(S, n, "round_robin"), seed=seed, **kw,
    )


class TestSpecValidation:
    def test_too_few_arms(self):
        with pytest.raises(ValidationError, match="K: need at least 2 arms"):
            spec_of(K=1, mu=(0.5,))

    def test_too_few_states(self):
        with pytest.raises(ValidationError, match="^S: need at least 1 state$"):
            EnvironmentSpec(K=2, S=0, mu=(0.5, 0.3), sigma2=0.01, state_sequence=(0, 0))

    @pytest.mark.parametrize("reward_sigma2", [0.0, -0.1, np.inf, np.nan])
    def test_truncated_gaussian_reward_sigma2_positive(self, reward_sigma2):
        with pytest.raises(ValidationError, match="^reward_sigma2: must be positive and finite$"):
            spec_of(reward_family="truncated_gaussian", reward_sigma2=reward_sigma2)

    def test_mu_length(self):
        with pytest.raises(ValidationError, match="mu: expected 3 entries"):
            spec_of(K=3)

    def test_mu_range(self):
        with pytest.raises(ValidationError, match="mu: entries must lie"):
            spec_of(mu=(0.5, 1.2))

    # an infinite prior variance would clamp every local mean to 0 or 1
    @pytest.mark.parametrize("sigma2", [0.0, -0.1, np.nan, np.inf])
    def test_sigma2_positive(self, sigma2):
        with pytest.raises(ValidationError, match="^sigma2: must be positive and finite$"):
            spec_of(sigma2=sigma2)

    def test_state_sequence_range(self):
        with pytest.raises(ValidationError, match="state_sequence: entries"):
            EnvironmentSpec(K=2, S=1, mu=(0.5, 0.3), sigma2=0.01, state_sequence=(0, 1))

    @pytest.mark.parametrize("seq", [(0, 1.5, 1.9, 0), np.array([0.0, 1.0]), (True, False), (0, np.True_),
                                     np.array([0, 2**63], dtype=np.uint64)])
    def test_state_sequence_must_be_integers(self, seq):
        message = "^state_sequence (must be an integer|9223372036854775808 outside)"
        with pytest.raises(ConfigurationError, match=message):
            EnvironmentSpec(K=2, S=2, mu=(0.5, 0.3), sigma2=0.01, state_sequence=seq)

    @pytest.mark.parametrize("seq", [(), [[0, 1], [1, 0]]])
    def test_state_sequence_shape(self, seq):
        with pytest.raises(ValidationError, match="state_sequence: must be a non-empty 1-d"):
            EnvironmentSpec(K=2, S=2, mu=(0.5, 0.3), sigma2=0.01, state_sequence=seq)

    def test_state_sequence_is_read_only_int64(self):
        spec = spec_of(S=2, n=6)
        assert isinstance(spec.state_sequence, np.ndarray)
        assert spec.state_sequence.dtype == np.int64
        assert not spec.state_sequence.flags.writeable
        with pytest.raises(ValueError):
            spec.state_sequence[0] = 1

    def test_state_sequence_is_copied(self):
        mine = np.array([0, 1, 0, 1], dtype=np.int32)
        spec = EnvironmentSpec(K=2, S=2, mu=(0.5, 0.3), sigma2=0.01, state_sequence=mine)
        mine[:] = 1
        assert spec.state_sequence.tolist() == [0, 1, 0, 1]

    def test_equality_compares_sequences(self):
        assert spec_of(S=2, n=6) == spec_of(S=2, n=6)
        assert spec_of(S=2, n=6) != spec_of(S=2, n=7)
        other = EnvironmentSpec(K=2, S=2, mu=(0.5, 0.3), sigma2=0.01, state_sequence=(1, 0, 1, 0, 1, 0))
        assert spec_of(S=2, n=6) != other
        assert spec_of(S=2, n=6) != spec_of(S=2, n=6, seed=1)

    def test_reward_family(self):
        with pytest.raises(ValidationError, match="reward_family"):
            spec_of(reward_family="poisson")

    def test_short_horizon_warns(self):
        # at the module name and line 0, so neither the caller's line nor the checkout shows
        with pytest.warns(UserWarning, match="shorter than K\\*S") as caught:
            EnvironmentSpec(K=3, S=2, mu=(0.1, 0.2, 0.3), sigma2=0.01, state_sequence=(0, 1, 0))
        assert [(w.filename, w.lineno) for w in caught] == [("statebandits.env", 0)]

    def test_counts_and_seed_must_be_integers(self):
        # a float count would fail later in instantiate, and a string seed would draw other local means
        for key, value in [("K", 3.0), ("S", 2.0), ("S", True), ("seed", "3"), ("seed", 1.5), ("seed", True)]:
            with pytest.raises(ConfigurationError, match=f"{key} must be an integer"):
                EnvironmentSpec(**{"K": 3, "S": 2, "seed": 0, key: value}, mu=(0.1, 0.2, 0.3), sigma2=0.01,
                                state_sequence=(0, 1) * 5)
        # a seed outside [-2**63, 2**63) would draw the local means of one inside it
        for seed in (2**64 + 1, -2**63 - 1):
            with pytest.raises(ConfigurationError, match=rf"^seed {seed} outside \[-2\*\*63, 2\*\*63\)$"):
                EnvironmentSpec(K=3, S=2, mu=(0.1, 0.2, 0.3), sigma2=0.01, state_sequence=(0, 1) * 5, seed=seed)
        spec = EnvironmentSpec(K=np.int64(3), S=np.int32(2), mu=(0.1, 0.2, 0.3), sigma2=0.01,
                               state_sequence=(0, 1) * 5, seed=np.uint64(3))
        assert np.array_equal(instantiate(spec).m, instantiate(spec_of(3, 2, (0.1, 0.2, 0.3), n=10, seed=3)).m)

    def test_integer_rule_returns_the_int(self):
        for value in (np.int64(-3), np.uint64(2**63 - 1), np.int32(7), np.int64(-2**63), 5):
            checked = _check_integer(value, "n")
            assert type(checked) is int and checked == int(value)

    def test_horizon_property(self):
        assert spec_of(n=64).horizon == 64


class TestStateSequences:
    def test_round_robin(self):
        assert make_state_sequence(3, 7, "round_robin").tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_blocks_partition(self):
        seq = make_state_sequence(3, 10, "blocks").tolist()
        assert seq == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
        assert make_state_sequence(3, 2, "blocks").tolist() == [2, 2]

    def test_iid_uniform_deterministic(self):
        assert np.array_equal(make_state_sequence(4, 50, seed=9), make_state_sequence(4, 50, seed=9))
        assert not np.array_equal(make_state_sequence(4, 50, seed=9), make_state_sequence(4, 50, seed=10))

    def test_unknown_mode(self):
        with pytest.raises(ValidationError, match="unknown mode"):
            make_state_sequence(2, 10, "sorted")

    @pytest.mark.parametrize("S, n, name", [(2.5, 10, "S"), (2, 10.0, "n"), (2, True, "n")])
    def test_counts_must_be_integers(self, S, n, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            make_state_sequence(S, n, "round_robin")

    def test_seed_must_be_an_integer(self):
        # a string seed would be hashed as a tag and draw another sequence
        for seed, message in [("3", "must be an integer"), (1.5, "must be an integer"),
                              (True, "must be an integer"), (2**64 + 1, "18446744073709551617 outside"),
                              (-2**63 - 1, "-9223372036854775809 outside")]:
            with pytest.raises(ConfigurationError, match=f"^seed {message}"):
                make_state_sequence(3, 20, seed=seed)
        assert np.array_equal(make_state_sequence(3, 20, seed=np.uint32(3)), make_state_sequence(3, 20, seed=3))


class TestInstantiate:
    def test_deterministic(self):
        spec = spec_of(seed=7)
        assert np.array_equal(instantiate(spec).m, instantiate(spec).m)

    def test_degenerate_prior_recovers_mu(self):
        spec = spec_of(K=3, S=4, mu=(0.2, 0.5, 0.8), sigma2=1e-12, n=24)
        env = instantiate(spec)
        assert np.max(np.abs(env.m - np.array(spec.mu)[:, None])) < 1e-5

    def test_values_clamped(self):
        spec = spec_of(K=2, S=5, mu=(0.99, 0.01), sigma2=0.5, n=20)
        env = instantiate(spec)
        assert np.all(env.m >= 0.0) and np.all(env.m <= 1.0)

    def test_clamp_monotone_in_mu(self):
        base = spec_of(K=3, S=4, mu=(0.3, 0.5, 0.7), sigma2=0.2, n=24, seed=13)
        raised = spec_of(K=3, S=4, mu=(0.4, 0.6, 0.8), sigma2=0.2, n=24, seed=13)
        assert np.all(instantiate(raised).m >= instantiate(base).m)

    def test_m_shape_checked(self):
        with pytest.raises(ValidationError, match="m: expected shape"):
            Environment(spec=spec_of(), m=np.zeros((3, 1)))

    def test_m_range_checked(self):
        with pytest.raises(ValidationError, match="m: entries"):
            Environment(spec=spec_of(), m=np.array([[1.5], [0.5]]))

    def test_m_nan_rejected(self):
        # nan compares false both ways, so it must fail the range check rather than pass it
        with pytest.raises(ValidationError, match="m: entries"):
            Environment(spec=spec_of(), m=np.array([[np.nan], [0.5]]))

    def test_m_read_only(self):
        env = instantiate(spec_of())
        with pytest.raises(ValueError):
            env.m[0, 0] = 0.9

    def test_m_is_copied(self):
        mine = np.array([[0.2], [0.7]])
        env = Environment(spec=spec_of(), m=mine)
        assert env.m is not mine
        mine[0, 0] = 0.5  # the caller's array stays writable, and the environment keeps its values
        assert env.m.tolist() == [[0.2], [0.7]]

    def test_equality_compares_m_values(self):
        spec = spec_of(K=2, S=3, n=9, sigma2=0.2, seed=7)
        assert instantiate(spec) == instantiate(spec)
        assert Environment(spec=spec, m=instantiate(spec).m.copy()) == instantiate(spec)
        assert instantiate(spec) != Environment(spec=spec, m=np.full((2, 3), 0.5))
        assert instantiate(spec) != instantiate(spec_of(K=2, S=3, n=9, sigma2=0.2, seed=8))
        assert instantiate(spec) != spec


def rewards(spec, mean, rng, size):
    """``size`` rewards of pulls with local mean ``mean``."""
    return _rewards(spec, mean, _variates(spec, rng, np.empty(size)))


class TestPull:
    def test_degenerate_means(self):
        spec = spec_of()
        rng = substream(0, "pulls")
        assert np.all(rewards(spec, 0.0, rng, 19) == 0.0)
        assert np.all(rewards(spec, 1.0, rng, 19) == 1.0)

    def test_bernoulli_mean_converges(self):
        spec = EnvironmentSpec(K=2, S=1, mu=(0.3, 0.3), sigma2=0.01,
                               state_sequence=(0,) * 100_000)
        mean = np.mean(rewards(spec, 0.3, substream(1, "pulls"), 100_000))
        assert abs(mean - 0.3) <= 3.0 * np.sqrt(0.3 * 0.7 / 100_000)

    def test_truncated_gaussian_in_range(self):
        spec = spec_of(n=2000, reward_family="truncated_gaussian", reward_sigma2=0.25)
        draws = rewards(spec, 0.5, substream(2, "pulls"), 2000)
        assert np.all((0.0 <= draws) & (draws <= 1.0))
        assert len(set(draws.tolist())) > 100

    @pytest.mark.parametrize("family", ["bernoulli", "truncated_gaussian"])
    def test_batch_draw_equals_one_draw_per_pull(self, family):
        spec = spec_of(reward_family=family)
        batch = _variates(spec, substream(3, "pulls"), np.empty(50))
        rng = substream(3, "pulls")
        assert batch.tolist() == [_variates(spec, rng, np.empty(1))[0] for _ in range(50)]

    @pytest.mark.parametrize("family", ["bernoulli", "truncated_gaussian"])
    def test_fill_equals_sized_draw(self, family):
        # the regret engine fills row slices of one reused buffer in place
        spec = spec_of(reward_family=family)
        buf = np.full((2, 50), np.nan)
        filled = _variates(spec, substream(3, "pulls"), buf[1, :37])
        rng = substream(3, "pulls")
        sized = rng.random(37) if family == "bernoulli" else rng.standard_normal(37)
        assert filled.base is buf and filled.tolist() == sized.tolist()
        assert np.isnan(buf[0]).all() and np.isnan(buf[1, 37:]).all()


class TestCounts:
    def test_counts_partition_horizon(self):
        seq = make_state_sequence(4, 37, "iid_uniform", seed=5)
        for t in range(38):
            assert state_counts(seq, 4, t).sum() == t
        assert state_counts(seq, 4).sum() == 37

    def test_state_counts_prefix(self):
        seq = (0, 1, 1, 2, 0)
        assert list(state_counts(seq, 3, 3)) == [1, 2, 0]
        assert list(state_counts(seq, 3)) == [2, 2, 1]


class TestGaps:
    def test_hand_example(self):
        spec = EnvironmentSpec(K=2, S=2, mu=(0.7, 0.6), sigma2=0.01, state_sequence=(0, 1, 0, 1))
        env = Environment(spec=spec, m=np.array([[0.9, 0.5], [0.6, 0.7]]))
        g = gaps(env)
        assert g.j_hat_star == 0
        assert g.delta_sigma[1] == pytest.approx(0.05)
        assert np.allclose(g.m_star_per_state, [0.9, 0.7])
        assert np.allclose(g.delta_m, [[0.0, 0.2], [0.3, 0.0]])

    def test_all_equal_ties_to_lowest(self):
        spec = EnvironmentSpec(K=3, S=2, mu=(0.5, 0.5, 0.5), sigma2=0.01,
                               state_sequence=(0, 1) * 3)
        env = Environment(spec=spec, m=np.full((3, 2), 0.4))
        g = gaps(env)
        assert g.j_star == 0 and g.j_hat_star == 0
        assert np.all(g.delta_m == 0) and np.all(g.delta_sigma == 0) and np.all(g.delta_mu == 0)

    def test_two_arm_min_gap_convention(self):
        spec = EnvironmentSpec(K=2, S=1, mu=(0.2, 0.8), sigma2=0.01, state_sequence=(0, 0))
        env = instantiate(spec)
        g = gaps(env)
        assert g.j_star == 1
        assert np.allclose(g.delta_mu, [0.6, 0.6])

    def test_flip_environment(self):
        spec = EnvironmentSpec(K=2, S=2, mu=(0.55, 0.65), sigma2=0.05,
                               state_sequence=(0, 1) * 10, seed=0)
        env = instantiate(spec)
        g = gaps(env)
        assert env.m[0].mean() > env.m[1].mean()
        assert g.j_star == 1
        assert g.j_hat_star == 0

    def test_state_means_are_the_read_only_row_means(self):
        env = instantiate(spec_of(K=5, S=3, mu=(0.1, 0.3, 0.5, 0.7, 0.9), sigma2=0.1, n=30, seed=21))
        means = gaps(env).state_means
        assert means.tobytes() == env.m.mean(axis=1).tobytes()  # bit for bit
        with pytest.raises(ValueError, match="read-only"):
            means[0] = 0.0

    def test_one_zero_gap_per_state(self):
        spec = spec_of(K=5, S=3, mu=(0.1, 0.3, 0.5, 0.7, 0.9), sigma2=0.1, n=30, seed=21)
        g = gaps(instantiate(spec))
        for s in range(3):
            assert np.sum(g.delta_m[:, s] == 0.0) >= 1
            assert np.min(g.delta_m[:, s]) == 0.0

