import json

import numpy as np
import pytest

from statebandits import (
    Environment,
    EnvironmentSpec,
    ValidationError,
    gaps,
    instantiate,
    load_environment,
    make_state_sequence,
    pull,
    save_environment,
    state_counts,
    substream,
)


def spec_of(K=2, S=1, mu=(0.5, 0.3), sigma2=0.01, n=100, seed=0, **kw):
    return EnvironmentSpec(
        K=K, S=S, mu=mu, sigma2=sigma2,
        state_sequence=make_state_sequence(S, n, "round_robin"), seed=seed, **kw,
    )


class TestSpecValidation:
    def test_too_few_arms(self):
        with pytest.raises(ValidationError, match="K: need at least 2 arms"):
            spec_of(K=1, mu=(0.5,))

    def test_mu_length(self):
        with pytest.raises(ValidationError, match="mu: expected 3 entries"):
            spec_of(K=3)

    def test_mu_range(self):
        with pytest.raises(ValidationError, match="mu: entries must lie"):
            spec_of(mu=(0.5, 1.2))

    def test_sigma2_positive(self):
        with pytest.raises(ValidationError, match="sigma2: must be positive"):
            spec_of(sigma2=0.0)

    def test_state_sequence_range(self):
        with pytest.raises(ValidationError, match="state_sequence: entries"):
            EnvironmentSpec(K=2, S=1, mu=(0.5, 0.3), sigma2=0.01, state_sequence=(0, 1))

    @pytest.mark.parametrize("seq", [(0, 1.5, 1.9, 0), np.array([0.0, 1.0]), (True, False)])
    def test_state_sequence_must_be_integers(self, seq):
        with pytest.raises(ValidationError, match="state_sequence: entries must be integers"):
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
        with pytest.warns(UserWarning, match="shorter than K\\*S"):
            EnvironmentSpec(K=3, S=2, mu=(0.1, 0.2, 0.3), sigma2=0.01, state_sequence=(0, 1, 0))

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

    def test_m_read_only(self):
        env = instantiate(spec_of())
        with pytest.raises(ValueError):
            env.m[0, 0] = 0.9


class TestPull:
    def test_degenerate_means(self):
        spec = spec_of()
        env0 = Environment(spec=spec, m=np.array([[0.0], [0.0]]))
        env1 = Environment(spec=spec, m=np.array([[1.0], [1.0]]))
        rng = substream(0, "pulls")
        assert all(pull(env0, 0, t, rng) == 0.0 for t in range(1, 20))
        assert all(pull(env1, 1, t, rng) == 1.0 for t in range(1, 20))

    def test_bernoulli_mean_converges(self):
        spec = EnvironmentSpec(K=2, S=1, mu=(0.3, 0.3), sigma2=0.01,
                               state_sequence=(0,) * 100_000)
        env = Environment(spec=spec, m=np.array([[0.3], [0.3]]))
        rng = substream(1, "pulls")
        mean = np.mean([pull(env, 0, t, rng) for t in range(1, 100_001)])
        assert abs(mean - 0.3) <= 3.0 * np.sqrt(0.3 * 0.7 / 100_000)

    def test_truncated_gaussian_in_range(self):
        spec = spec_of(n=2000, reward_family="truncated_gaussian", reward_sigma2=0.25)
        env = Environment(spec=spec, m=np.array([[0.5], [0.5]]))
        rng = substream(2, "pulls")
        draws = [pull(env, 0, t, rng) for t in range(1, 2001)]
        assert all(0.0 <= d <= 1.0 for d in draws)
        assert len(set(draws)) > 100

    def test_out_of_range_rejected(self):
        env = instantiate(spec_of())
        rng = substream(3, "pulls")
        with pytest.raises(ValidationError, match="arm"):
            pull(env, 2, 1, rng)
        with pytest.raises(ValidationError, match="t 0 outside"):
            pull(env, 0, 0, rng)
        with pytest.raises(ValidationError, match="t 101 outside"):
            pull(env, 0, 101, rng)


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

    def test_one_zero_gap_per_state(self):
        spec = spec_of(K=5, S=3, mu=(0.1, 0.3, 0.5, 0.7, 0.9), sigma2=0.1, n=30, seed=21)
        g = gaps(instantiate(spec))
        for s in range(3):
            assert np.sum(g.delta_m[:, s] == 0.0) >= 1
            assert np.min(g.delta_m[:, s]) == 0.0


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        env = instantiate(spec_of(K=3, S=2, mu=(0.8, 0.5, 0.2), sigma2=0.3, n=12, seed=42))
        path = tmp_path / "env.json"
        save_environment(env, path)
        back = load_environment(path)
        assert back.spec == env.spec
        assert np.array_equal(back.m, env.m)

    def test_non_integer_states_rejected_on_load(self, tmp_path):
        env = instantiate(spec_of(K=2, S=2, n=4))
        path = tmp_path / "env.json"
        save_environment(env, path)
        payload = json.loads(path.read_text())
        payload["spec"]["state_sequence"] = [0, 1.5, 1.9, 0]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="entries must be integers"):
            load_environment(path)

    def test_file_is_plain_json(self, tmp_path):
        env = instantiate(spec_of(n=6))
        path = tmp_path / "env.json"
        save_environment(env, path)
        payload = json.loads(path.read_text())
        assert payload["spec"]["K"] == 2
