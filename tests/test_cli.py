import csv
import errno
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statebandits
from statebandits import (
    BOUNDED_UNIT, EnvironmentSpec, SweepConfig, cli, estimate_bai, instantiate, make_state_sequence, montecarlo,
    random_env, sr_schedule, strategies, substream, thm1_bound, thm2_bounds, thm3_bounds, thm4_bounds,
)
from statebandits.cli import main
from statebandits.env import REWARD_FAMILIES, STATE_MODES

from _oracles import state_ucb_run


class Boom(Exception):
    pass


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def rebuilt_config(out):
    """The sweep config a run's manifest names: with an env_index, it rebuilds that environment."""
    manifest = json.loads((out / "manifest.json").read_text())
    return SweepConfig(master_seed=manifest["seed"], **manifest["config"])


TIGHTNESS_CFG = """
# small sweep for test speed
num_envs = 4
runs_per_env = 20
k_max = 4
s_max = 3
"""


class TestErrors:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "num_env = 3\n")
        rc = main(["tightness", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and "num_envs" in err

    def test_bad_value_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "runs_per_env = abc\n")
        rc = main(["tightness", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad value for 'runs_per_env'" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["tightness", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_line_number_reported(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "num_envs = 3\nbogus line\n")
        rc = main(["tightness", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_workers_must_be_positive(self, tmp_path, capsys):
        rc = main(["tightness", "--workers", "0", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_handler_crash_exits_1(self, tmp_path, capsys, monkeypatch):
        def crash(args, cfg, seed):
            raise Boom("injected")

        monkeypatch.setitem(cli.COMMANDS, "verify", (crash, []))
        assert main(["verify", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "runtime failure: Boom: injected\n"

    def test_manifest_command_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", TIGHTNESS_CFG)
        out = tmp_path / "a"
        assert main(["tightness", "--config", cfg, "--out", str(out)]) == 0
        rc = main(["sr-compare", "--config", str(out / "manifest.json"),
                   "--out", str(tmp_path / "b")])
        assert rc == 2
        assert "manifest is for command" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("regret", {"K": 3, "S": 2, "checkpoints": [10], "runs": 2}),
        ("triage", {"num_seeds": 1, "baselines": []}),
        ("tightness", {"num_envs": 1, "runs_per_env": 2}),
        ("verify", {}),
    ])
    @pytest.mark.parametrize("seed", ["5", 1.5, True, 2**64 + 5, -2**63 - 1, 2**63, 2**64 - 1])
    def test_manifest_seed_must_be_an_integer(self, tmp_path, capsys, command, config, seed):
        # a string seed would be hashed as a tag and run the study on other numbers, and an int
        # outside [-2**63, 2**63) would run those of one inside it (2**64 - 1 those of -1); the check
        # comes before --out is made, so nothing is written
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": command, "seed": seed, "config": config}))
        out = tmp_path / "o"
        assert main([command, "--config", str(manifest), "--out", str(out)]) == 2
        wide = type(seed) is int
        message = f"seed {seed} outside [-2**63, 2**63)" if wide else f"seed must be an integer, got {seed!r}"
        assert message in capsys.readouterr().err
        if wide:  # --seed takes the same check
            plain = write_cfg(tmp_path / "c.json", json.dumps(config))
            assert main([command, "--config", plain, "--seed", str(seed), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        (b'{\n  "num_envs": 3,\n', "error: line 3: malformed JSON"),
        (b'{"command": "regret", "config": [1]}', "error: manifest config is a list, not an object"),
        (b"K = 3\n# caf\xe9\n", "error: config is not UTF-8 text"),
    ], ids=["json-unparsed", "manifest-config-list", "not-utf8"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(content)
        out = tmp_path / "o"
        assert main(["regret", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_naming_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["tightness", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config {str(tmp_path)!r} is a directory, not a file\n"
        assert not out.exists()

    @pytest.mark.parametrize("parts", [(), ("sub",)], ids=["file", "below-a-file"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, parts):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken.joinpath(*parts)
        assert main(["verify", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: --out {str(out)!r} is not a directory\n")
        assert taken.read_text() == "kept\n"

    def test_write_time_os_error_exits_1(self, tmp_path, capsys, monkeypatch):
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "write_table", full)
        cfg = write_cfg(tmp_path / "c.cfg", "num_envs = 1\nruns_per_env = 2\n")
        assert main(["tightness", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "runtime failure: OSError: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("kind", ["human", "machine"])
    @pytest.mark.parametrize("fault", ["directory", "not-utf8"])
    def test_replay_file_fault_exits_2(self, tmp_path, capsys, kind, fault):
        paths = dict(zip(("human", "machine"), write_replay_pair(tmp_path)))
        if fault == "directory":
            paths[kind] = tmp_path
            message = f"error: {kind} file {str(tmp_path)!r} is a directory, not a file"
        else:
            paths[kind].write_bytes(paths[kind].read_bytes() + b"151,\xff\xfe\n")
            message = f"error: {kind} file is not UTF-8 text"
        cfg = write_cfg(tmp_path / "c.cfg", f"n = 150\nk = 100, 60, 30\nnum_seeds = 1\n"
                                            f"human_csv = {paths['human']}\nmachine_pred = {paths['machine']}\n")
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not any(out.iterdir())

    def test_regret_shape_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "K = 3\nmu = 0.5,0.4\nruns = 2\ncheckpoints = 10\n")
        rc = main(["regret", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "mu: expected 3 entries, got 2" in capsys.readouterr().err

    def test_regret_empty_checkpoints_exit_2_from_the_library_check(self, tmp_path, capsys, monkeypatch):
        # the handler sizes its state sequence with the library's checkpoint check
        calls = []
        check = montecarlo._check_checkpoints
        monkeypatch.setattr(cli, "_check_checkpoints", lambda c: calls.append(c) or check(c))
        cfg = write_cfg(tmp_path / "c.cfg", "runs = 5\ncheckpoints =\n")
        out = tmp_path / "o"
        assert main(["regret", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: checkpoints must list at least one horizon\n"
        assert calls == [()] and not any(out.iterdir())

    def test_regret_repeated_checkpoints_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "checkpoints = 100, 100, 1000\nruns = 50\n")
        out = tmp_path / "o"
        rc = main(["regret", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "checkpoints must be distinct; repeated: [100]" in capsys.readouterr().err
        assert not (out / "regret.csv").exists()

    def test_regret_explicit_m_rejects_sigma2(self, tmp_path, capsys):
        # sigma2 only shapes local means drawn from mu, so with m given it would be ignored
        base = "K = 2\nS = 1\nm = 0.6,0.3\nruns = 5\ncheckpoints = 10\n"
        cfg = write_cfg(tmp_path / "c.cfg", base + "sigma2 = 0.2\n")
        out = tmp_path / "o"
        rc = main(["regret", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "sigma2" in capsys.readouterr().err
        assert not (out / "regret.csv").exists()
        cfg = write_cfg(tmp_path / "d.cfg", base + "sigma2 = 0.05\n")
        assert main(["regret", "--config", cfg, "--out", str(tmp_path / "d")]) == 0

    def test_regret_explicit_m_rejects_mu(self, tmp_path, capsys):
        # mu only feeds the draw of local means; with m given the spec takes m's row means
        base = "K = 2\nS = 1\nm = 0.6,0.3\nruns = 5\ncheckpoints = 10\n"
        cfg = write_cfg(tmp_path / "c.cfg", base + "mu = 0.7,0.4\n")
        out = tmp_path / "o"
        assert main(["regret", "--config", cfg, "--out", str(out)]) == 2
        assert "['mu'] shape local means drawn from mu only" in capsys.readouterr().err
        assert not (out / "regret.csv").exists()
        # the default mu has 3 entries; its length is checked against K only for drawn means
        cfg = write_cfg(tmp_path / "d.cfg", base + "mu = 0.8, 0.6, 0.4\n")
        assert main(["regret", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        # an m outside [0, 1] is reported as m, not as the row means it implies
        cfg = write_cfg(tmp_path / "e.cfg", "K = 2\nS = 1\nm = 1.5,1.2\nruns = 5\ncheckpoints = 10\n")
        assert main(["regret", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        assert "m: entries must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, message", [
        ("regret", "runs = 0\ncheckpoints = 10", "runs must be >= 1, got 0"),
        ("triage", "num_seeds = 0", "num_seeds must be >= 1, got 0"),
        ("regret", "runs = 5\ncheckpoints =", "checkpoints must list at least one horizon"),
    ])
    def test_empty_monte_carlo_count_exits_2(self, tmp_path, capsys, command, line, message):
        cfg = write_cfg(tmp_path / "c.cfg", f"{line}\n")
        out = tmp_path / "o"
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()

    def test_triage_replay_needs_both_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "human_csv = somewhere.csv\nnum_seeds = 1\n")
        rc = main(["triage", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "replay needs both" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tightness", "sr-compare"])
    @pytest.mark.parametrize("line, message", [
        ("reward_family = foo", "reward_family must be 'bernoulli'"),
        ("reward_family = truncated_gaussian", "reward_family must be 'bernoulli'"),
        ("state_mode = nope", "state_mode must be one of"),
        ("num_envs = -1", "num_envs must be non-negative"),
        ("runs_per_env = 0", "runs_per_env must be >= 1, got 0"),
        ("horizon = 0", "horizon must be positive"),
        ("k_min = 1", "need 2 <= k_min <= k_max"),
        ("k_max = 2", "need 2 <= k_min <= k_max"),
        ("s_min = 0", "need 1 <= s_min <= s_max"),
        ("s_max = 0", "need 1 <= s_min <= s_max"),
        ("sigma2_min = -0.1", "need 0 <= sigma2_min < sigma2_max"),
        ("sigma2_max = 0", "need 0 <= sigma2_min < sigma2_max"),
        ("sigma2_max = inf", "need 0 <= sigma2_min < sigma2_max, both finite"),
        ("horizon = 18446744073709551616", "error: horizon 18446744073709551616 outside [-2**63, 2**63)\n"),
        ("k_max = 18446744073709551616", "error: k_max 18446744073709551616 outside [-2**63, 2**63)\n"),
        # each environment draws K and S as int64, which stops below 2**63
        ("k_max = 9223372036854775808", "error: k_max 9223372036854775808 outside [-2**63, 2**63)\n"),
        ("s_max = 9223372036854775808", "error: s_max 9223372036854775808 outside [-2**63, 2**63)\n"),
    ])
    def test_sweep_rejects_keys_it_cannot_honour(self, tmp_path, capsys, command, line, message):
        cfg = write_cfg(tmp_path / "c.cfg", f"num_envs = 2\nruns_per_env = 5\n{line}\n")
        out = tmp_path / "o"
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command, line, message", [
        ("regret", "K = 1\nmu = 0.5", "K: need at least 2 arms"),
        ("regret", "S = 0", "state_sequence: need S >= 1"),
        ("regret", "sigma2 = 0", "sigma2: must be positive"),
        ("regret", "sigma2 = inf", "error: sigma2: must be positive and finite\n"),
        ("regret", "checkpoints = 0, 100", "error: checkpoints must be >= 1, got 0\n"),
        ("regret", "reward_family = foo", "reward_family: must be one of"),
        ("regret", "state_mode = nope", "state_sequence: unknown mode 'nope'"),
        ("regret", "alpha = 2", "alpha must be finite and exceed 2, got 2.0"),
        ("regret", "alpha = inf", "alpha must be finite and exceed 2, got inf"),
        ("regret", "m = 0.5, 0.4", "m needs K*S=6 entries, got 2"),
        ("regret", "K = 2\nS = 1\nm = nan, 0.5", "error: m: entries must lie in [0, 1]"),
        ("regret", "env_seed = 18446744073709551621", "error: seed 18446744073709551621 outside [-2**63, 2**63)\n"),
        ("regret", "checkpoints = 100, 18446744073709551616",
         "error: checkpoints 18446744073709551616 outside [-2**63, 2**63)\n"),
        ("regret", "runs = 18446744073709551616", "error: runs 18446744073709551616 outside [-2**63, 2**63)\n"),
        ("triage", "n_severe = 0", "n_severe: need 0 < n_severe < n"),
        ("triage", "total_budget = 999", "no budget split for total $999"),
        ("triage", "total_budget = 1300\nscheme = more9", "no budget split for total $1300 scheme 'more9'"),
        ("triage", "policy = greedy", "unknown policy 'greedy'"),
        ("triage", "encoding = quadratic", "unknown encoding scheme 'quadratic'"),
        ("triage", "num_seeds = 18446744073709551616",
         "error: num_seeds 18446744073709551616 outside [-2**63, 2**63)\n"),
    ])
    def test_study_range_exits_2(self, tmp_path, capsys, command, line, message):
        cfg = write_cfg(tmp_path / "c.cfg", f"{line}\n")
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("value", [150.7, True])
    def test_json_horizon_must_be_an_integer(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path / "c.json", json.dumps({"num_envs": 0, "horizon": value}))
        rc = main(["tightness", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad value for 'horizon'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("regret", "checkpoints", [100.9, 1000]),
        ("regret", "checkpoints", [True, 1000]),
        ("regret", "mu", [True, 0.6, 0.4]),
        ("triage", "k", [200.5, 100, 50]),
    ])
    def test_json_list_entries_parse_like_scalars(self, tmp_path, capsys, command, key, value):
        cfg = write_cfg(tmp_path / "c.json", json.dumps({key: value}))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"bad value for '{key}'" in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()

    def test_only_whole_lines_are_comments(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "# a comment\n   # indented comment\nnum_envs = 0\n")
        assert main(["tightness", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        cfg = write_cfg(tmp_path / "d.cfg", "num_envs = 2 # two\n")
        assert main(["tightness", "--config", cfg, "--out", str(tmp_path / "p")]) == 2
        assert "bad value for 'num_envs'" in capsys.readouterr().err

    def test_horizon_too_short_for_reference_schedule(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "num_envs = 3\nruns_per_env = 5\nk_min = 5\nk_max = 5\nhorizon = 7\n")
        out = tmp_path / "o"
        rc = main(["sr-compare", "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "n=7" in err and "K=5" in err and "a phase would be empty" in err
        assert not (out / "sr_compare.csv").exists()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_every_environment_failed_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "num_envs = 3\nruns_per_env = 5\nk_min = 3\nk_max = 3\nhorizon = 2\n")
        out = tmp_path / "o"
        rc = main(["tightness", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert "every environment failed" in capsys.readouterr().err
        summary = json.loads((out / "tightness_summary.json").read_text())
        assert summary["rows"] == 0
        assert [f["env_index"] for f in summary["failures"]] == [0, 1, 2]

    def test_sr_compare_every_environment_failed_exits_1(self, tmp_path, capsys, monkeypatch):
        def boom(env, env_index, runs):
            raise Boom("injected")

        monkeypatch.setattr(montecarlo, "_sr_record", boom)
        cfg = write_cfg(tmp_path / "c.cfg", "num_envs = 2\nruns_per_env = 5\n")
        out = tmp_path / "o"
        rc = main(["sr-compare", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert "every environment failed" in capsys.readouterr().err
        summary = json.loads((out / "sr_compare_summary.json").read_text())
        assert summary["num_envs"] == 0
        assert summary["failures"] == [{"env_index": i, "error": "Boom: injected"} for i in (0, 1)]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_mixed_failures_exit_0_and_pool_is_byte_identical(self, tmp_path, capsys):
        # K = 4 environments get 3 pulls for 4 arms and cannot recommend.
        cfg = write_cfg(tmp_path / "c.cfg", "num_envs = 12\nruns_per_env = 20\nk_min = 2\n"
                                            "k_max = 4\ns_min = 1\ns_max = 1\nhorizon = 3\n")
        outs = [tmp_path / f"w{w}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main(["tightness", "--config", cfg, "--seed", "4", "--out", str(out),
                         "--workers", str(w)]) == 0
        err = capsys.readouterr().err
        assert err.count("failed: RecommendationError") == 12
        summary = json.loads((outs[0] / "tightness_summary.json").read_text())
        assert summary["rows"] == 6 and len(summary["failures"]) == 6
        for name in ("tightness.csv", "tightness_summary.json", "manifest.json"):
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name
        # the manifest and an environment index rebuild that environment, failed or not: the
        # study's calls on it raise the failure's "Type: message" or give its row's repr bytes
        config = rebuilt_config(outs[0])
        for failure in summary["failures"]:
            env = instantiate(random_env(config, failure["env_index"]))
            with pytest.raises(Exception) as info:
                estimate_bai(env, "uniform_eba", config.runs_per_env)
                thm2_bounds(env, env.spec.horizon, BOUNDED_UNIT)
                thm3_bounds(env, env.spec.horizon)
            assert f"{type(info.value).__name__}: {info.value}" == failure["error"]
        row = next(csv.DictReader((outs[0] / "tightness.csv").read_text().splitlines()))
        env = instantiate(random_env(config, int(row["env_index"])))
        est = estimate_bai(env, "uniform_eba", config.runs_per_env)
        b21, b22 = thm2_bounds(env, env.spec.horizon, BOUNDED_UNIT)
        b31, b32 = thm3_bounds(env, env.spec.horizon)
        expected = {**{name: getattr(est, name) for name in ("e_hat", "e_hat_se", "e", "e_se", "r", "r_se",
                                                             "r_hat", "r_hat_se")},
                    "b21": b21.raw_value, "b22": b22.raw_value, "b31": b31.raw_value, "b32": b32.raw_value}
        assert {name: row[name] for name in expected} == {name: repr(v) for name, v in expected.items()}
        # an sr-compare row, from its estimates and thm4 bounds under both schedules
        out = tmp_path / "sr"
        cfg = write_cfg(tmp_path / "sr.cfg", "num_envs = 2\nruns_per_env = 20\nk_max = 4\ns_max = 2\n")
        assert main(["sr-compare", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
        config = rebuilt_config(out)
        row = next(csv.DictReader((out / "sr_compare.csv").read_text().splitlines()))
        env = instantiate(random_env(config, int(row["env_index"])))
        for kind in ("uniform", "reference"):
            est = estimate_bai(env, f"sr_{kind}", config.runs_per_env)
            _, b41 = thm4_bounds(env, sr_schedule(kind, env.spec.K, env.spec.horizon))
            assert (row[f"e_hat_{kind}"], row[f"b41_{kind}"]) == (repr(est.e_hat), repr(b41.raw_value))

    def test_mixed_failures_stderr_is_worker_count_invariant(self, tmp_path):
        # Python shows a warning once per process; the sweep re-issues its
        # environments' warnings from the parent, so pool workers add none.
        cfg = write_cfg(tmp_path / "c.cfg", "num_envs = 12\nruns_per_env = 20\nk_min = 2\n"
                                            "k_max = 4\ns_min = 1\ns_max = 1\nhorizon = 3\n")
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(statebandits.__file__).parents[1])}
        errs = []
        for w in (1, 2):
            proc = subprocess.run(
                [sys.executable, "-m", "statebandits.cli", "tightness", "--config", cfg, "--seed", "4",
                 "--out", str(tmp_path / f"w{w}"), "--workers", str(w)],
                capture_output=True, env=env, check=False)
            assert proc.returncode == 0, proc.stderr
            errs.append(proc.stderr)
        assert errs[1] == errs[0]
        assert errs[0].count(b"UserWarning: horizon 3 is shorter than K*S = 4") == 1
        assert errs[0].count(b"failed: RecommendationError") == 6

    def test_warnings_name_modules_not_source_paths(self, tmp_path):
        # stderr must not depend on the checkout path or on line numbers: the sweep
        # re-issues its environments' warnings, the pipeline its stage-budget ones and
        # EnvironmentSpec its own at the module name, once per study however many seeds
        # or batches warn
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(statebandits.__file__).parents[1])}
        runs = [
            ("tightness", "num_envs = 12\nruns_per_env = 20\nk_min = 2\nk_max = 4\ns_min = 1\ns_max = 1\n"
                          "horizon = 3\n",
             "statebandits.montecarlo:0: UserWarning: horizon 3 is shorter than K*S = 4"),
            ("triage", f"k = 230, 100, 50\nnum_seeds = {cli.SEEDS_PER_BATCH + 2}\nbaselines =\n",
             "statebandits.triage:0: UserWarning: stage 2: budget funds 200 pulls for 230 survivors"),
            # EnvironmentSpec's own warning, made in cli.py, is attributed to env too
            ("regret", "K = 3\nS = 2\ncheckpoints = 5\nruns = 10\n",
             "statebandits.env:0: UserWarning: horizon 5 is shorter than K*S = 6"),
        ]
        for command, text, line in runs:
            cfg = write_cfg(tmp_path / f"{command}.cfg", text)
            proc = subprocess.run(
                [sys.executable, "-m", "statebandits.cli", command, "--config", cfg, "--seed", "4",
                 "--out", str(tmp_path / command)], capture_output=True, env=env, text=True, check=False)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.count(line) == 1, proc.stderr
            assert ".py:" not in proc.stderr

    @pytest.mark.parametrize("command", ["tightness", "sr-compare"])
    def test_empty_sweep_exits_0(self, tmp_path, command):
        cfg = write_cfg(tmp_path / "c.cfg", "num_envs = 0\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("line, message", [
        ("baselines = 4Experts, 2Experts", "unknown baseline '2Experts'"),
        ("baselines = NLP-Full, NLP-Sub", "baseline 'NLP-Sub' evaluates a 100-person cohort, more than n = 60"),
        # the defaults list 4Experts-Sub first of the cohort baselines
        ("", "baseline '4Experts-Sub' evaluates a 100-person cohort, more than n = 60"),
        ("baselines = 1Expert, NLP-Full, 1Expert", "baselines must be distinct; repeated: ['1Expert']"),
    ], ids=["unknown", "cohort", "default-cohort", "repeated"])
    def test_triage_baselines_checked_up_front(self, tmp_path, capsys, line, message):
        cfg = write_cfg(tmp_path / "c.cfg", f"n = 60\nn_severe = 10\nk = 30,20,10\nnum_seeds = 1\n{line}\n")
        out = tmp_path / "o"
        rc = main(["triage", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "triage.csv").exists()


class TestTightness:
    def run_to(self, tmp_path, name, extra):
        cfg = write_cfg(tmp_path / "c.cfg", TIGHTNESS_CFG)
        out = tmp_path / name
        rc = main(["tightness", "--config", cfg, "--out", str(out)] + extra)
        assert rc == 0
        return out

    def test_rerun_and_worker_count_byte_identical(self, tmp_path):
        a = self.run_to(tmp_path, "a", ["--seed", "7"])
        b = self.run_to(tmp_path, "b", ["--seed", "7", "--workers", "4"])
        c = self.run_to(tmp_path, "c", ["--seed", "7"])
        for name in ("tightness.csv", "tightness_summary.json", "manifest.json"):
            blob = (a / name).read_bytes()
            assert (b / name).read_bytes() == blob
            assert (c / name).read_bytes() == blob

    def test_manifest_rerun_reproduces(self, tmp_path):
        a = self.run_to(tmp_path, "a", ["--seed", "7"])
        out = tmp_path / "replay"
        rc = main(["tightness", "--config", str(a / "manifest.json"), "--out", str(out)])
        assert rc == 0
        assert (out / "tightness.csv").read_bytes() == (a / "tightness.csv").read_bytes()
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7

    def test_seed_flag_overrides_manifest(self, tmp_path):
        a = self.run_to(tmp_path, "a", ["--seed", "7"])
        out = tmp_path / "override"
        rc = main(["tightness", "--config", str(a / "manifest.json"),
                   "--out", str(out), "--seed", "8"])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 8
        assert (out / "tightness.csv").read_bytes() != (a / "tightness.csv").read_bytes()

    def test_json_format(self, tmp_path):
        out = self.run_to(tmp_path, "j", ["--format", "json"])
        rows = json.loads((out / "tightness.json").read_text())
        assert len(rows) == 4
        assert {"env_index", "K", "S", "e_hat", "b22"} <= set(rows[0])
        assert not (out / "tightness.csv").exists()

    def test_summary_contents(self, tmp_path):
        out = self.run_to(tmp_path, "s", [])
        summary = json.loads((out / "tightness_summary.json").read_text())
        assert summary["rows"] == 4
        assert set(summary["violation_rate"]) == {"thm2.1", "thm2.2", "thm3.1", "thm3.2"}
        assert summary["failures"] == []

    def test_tightness_bytes_pinned(self, tmp_path):
        # the config of the sr-compare pin: seed 7 draws S = 9 and S = 10 environments, whose
        # state averages add eight running partial sums, so the estimator's table layout and
        # summation order, the bounds and the record fields must not move a byte of either file
        cfg = write_cfg(tmp_path / "c.cfg", "num_envs = 6\nruns_per_env = 20\n")
        out = tmp_path / "o"
        assert main(["tightness", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("tightness.csv", "tightness_summary.json")}
        assert digests == {
            "tightness.csv": "b495ed61896f747c18a3cfe873b8966d63b2d5a12a3dcbe89d99a6e13dbc353a",
            "tightness_summary.json": "144764bc3642d618b176a85472de1b0c61ce53fb89183c7efbc197692a34c089",
        }


class TestSRCompare:
    def test_two_arm_ties(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "num_envs = 5\nruns_per_env = 30\nk_min = 2\nk_max = 2\ns_max = 2\n")
        out = tmp_path / "o"
        assert main(["sr-compare", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "sr_compare_summary.json").read_text())
        assert summary["mean_paired_diff"] == 0.0
        assert summary["sign_test"]["p_value"] == 1.0
        with open(out / "sr_compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["env_index", "K", "S", "n"]
        assert len(rows) == 6

    def test_sr_compare_bytes_pinned(self, tmp_path):
        # the default K and S ranges; seed 7 draws a K = 10, S = 10 environment (9 phases, 10 states),
        # so the elimination engine's draw order and table layout must not move a byte of either file
        cfg = write_cfg(tmp_path / "c.cfg", "num_envs = 6\nruns_per_env = 20\n")
        out = tmp_path / "o"
        assert main(["sr-compare", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("sr_compare.csv", "sr_compare_summary.json")}
        assert digests == {
            "sr_compare.csv": "b7669bba0921b72d4bae1e707c798966146c952aaab90755d78e7fe4c6506e07",
            "sr_compare_summary.json": "d956c4607ca001e6537872bb85e30f65ab33358641cb2ce03502dc1ece4b3ee7",
        }


# regret.csv of a 20-run config per reward family and state mode: the engine's
# table layout and update order must not move a byte of it
REGRET_CSV_SHA256 = {
    ("bernoulli", "iid_uniform"): "49dd6fc6142b8bd2b77310cbb1c5bbb704cd5820ca5b13646e6660e4c046828f",
    ("bernoulli", "round_robin"): "fda4878c11fc972977ebdea72a923f30ea98a102ea1f3dccc0076d817572d733",
    ("bernoulli", "blocks"): "998d815ed39a6fb5b8446d79f5c6a642740fbb916f8036173b7d7574640843a5",
    ("truncated_gaussian", "iid_uniform"): "f1788921d940f23b3b62902d54cac288d6f2fdde2963a482e9d27536c2205485",
    ("truncated_gaussian", "round_robin"): "e5ddd4030810e6a1745a9fe6ba0fb4d98050062b378af47cee52d77be34a60bc",
    ("truncated_gaussian", "blocks"): "3e7d16e7440577010b2afa4c5f1c00d082d277fa155a586accb87882336d75ff",
}

# 1000 runs of 600 steps: blocks of 262, 262 and 76 steps of one reused buffer
REGRET_MULTI_BLOCK_CSV_SHA256 = {
    "bernoulli": "dac7febc034d9d6f527eba088f27f48909c229a95a33eaaac46028e329f4615b",
    "truncated_gaussian": "acc12399f4a0fb5e1f5b26c973f2f5951ddb702aca287ac3ad9e93211bbf0f57",
}


class TestRegret:
    def test_equal_arms_zero_regret(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "\n".join([
            "K = 2", "S = 1", "m = 0.5,0.5",
            "checkpoints = 10,20", "runs = 5", "",
        ]))
        out = tmp_path / "o"
        assert main(["regret", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "regret.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["checkpoint", "regret", "regret_se", "thm1_bound"]
        assert [r[0] for r in rows[1:]] == ["10", "20"]
        assert all(r[1] == "0.0" and r[3] == "0.0" for r in rows[1:])

    @pytest.mark.parametrize("family, mode", sorted(REGRET_CSV_SHA256))
    def test_regret_csv_bytes_pinned(self, tmp_path, family, mode):
        cfg = write_cfg(tmp_path / "c.cfg", "K = 4\nS = 3\nmu = 0.8, 0.7, 0.5, 0.2\n"
                        "checkpoints = 10, 100, 2500\nruns = 20\n"
                        f"reward_family = {family}\nstate_mode = {mode}\n")
        out = tmp_path / "o"
        assert main(["regret", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "regret.csv").read_bytes()).hexdigest()
        assert digest == REGRET_CSV_SHA256[family, mode]

    @pytest.mark.parametrize("family", sorted(REGRET_MULTI_BLOCK_CSV_SHA256))
    def test_multi_block_regret_csv_bytes_pinned(self, tmp_path, family):
        assert strategies._BLOCK_VARIATES // 1000 == 262
        cfg = write_cfg(tmp_path / "c.cfg", "K = 4\nS = 3\nmu = 0.8, 0.7, 0.5, 0.2\n"
                        "checkpoints = 10, 300, 600\nruns = 1000\n"
                        f"reward_family = {family}\n")
        out = tmp_path / "o"
        assert main(["regret", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "regret.csv").read_bytes()).hexdigest()
        assert digest == REGRET_MULTI_BLOCK_CSV_SHA256[family]

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data(), K=st.integers(2, 3), S=st.integers(1, 3),
           sigma2=st.floats(0.0, 1.0, exclude_min=True), env_seed=st.integers(-2**63, 2**63 - 1),
           seed=st.integers(-2**63, 2**63 - 1), family=st.sampled_from(REWARD_FAMILIES),
           mode=st.sampled_from(STATE_MODES), alpha=st.floats(2.0, 6.0, exclude_min=True),
           # below 9170, the first step where math.log and np.log differ
           checkpoints=st.lists(st.integers(1, 400), min_size=2, max_size=3, unique=True),
           runs=st.integers(1, 4))
    def test_rows_match_per_run_oracle(self, tmp_path_factory, data, K, S, sigma2, env_seed, seed, family, mode,
                                       alpha, checkpoints, runs):
        """Each row of regret.csv, for a tiny config drawn from the admissible
        values, against runs of the dict-statistics oracle on the environment
        the config names: the mean and standard error of the runs'
        pseudo-regret within 1e-12, and thm1_bound exactly."""
        mu = data.draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K))
        out = tmp_path_factory.mktemp("regret")
        cfg = write_cfg(out / "c.cfg", f"K = {K}\nS = {S}\nmu = {', '.join(map(repr, mu))}\n"
                        f"sigma2 = {sigma2!r}\nenv_seed = {env_seed}\nreward_family = {family}\n"
                        f"state_mode = {mode}\nalpha = {alpha!r}\n"
                        f"checkpoints = {', '.join(map(str, checkpoints))}\nruns = {runs}\n")
        assert main(["regret", "--config", cfg, "--seed", str(seed), "--out", str(out / "o")]) == 0
        with open(out / "o" / "regret.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        checkpoints, n = sorted(checkpoints), max(checkpoints)
        spec = EnvironmentSpec(K=K, S=S, mu=mu, sigma2=sigma2, state_sequence=make_state_sequence(S, n, mode, seed),
                               seed=env_seed, reward_family=family)
        env = instantiate(spec)
        m_star = env.m.max(axis=0)
        totals = np.zeros((len(checkpoints), runs))  # each run's pseudo-regret at each checkpoint
        for r in range(runs):
            chosen = state_ucb_run(env, n, alpha, lambda x: math.sqrt(x / 2.0), substream(env_seed, r, "rewards"))
            total = 0.0
            for t, (s, arm) in enumerate(zip(spec.state_sequence.tolist(), chosen), start=1):
                total += m_star[s] - env.m[arm, s]
                if t in checkpoints:
                    totals[checkpoints.index(t), r] = total
        assert [int(row["checkpoint"]) for row in rows] == checkpoints
        for row, c, regret in zip(rows, checkpoints, totals):
            se = np.std(regret, ddof=1) / math.sqrt(runs) if runs > 1 else 0.0
            assert float(row["regret"]) == pytest.approx(np.mean(regret), rel=0.0, abs=1e-12)
            assert float(row["regret_se"]) == pytest.approx(se, rel=0.0, abs=1e-12)
            assert float(row["thm1_bound"]) == thm1_bound(env, alpha, c).raw_value

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "checkpoints = 50\nruns = 10\nK = 2\nmu = 0.7,0.4\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["regret", "--config", cfg, "--out", str(a), "--seed", "3"]) == 0
        assert main(["regret", "--config", cfg, "--out", str(b), "--seed", "3"]) == 0
        assert (a / "regret.csv").read_bytes() == (b / "regret.csv").read_bytes()


def write_replay_pair(dirpath, n=150):
    """A human/machine evaluation pair for ids 1..n, built from fixed patterns:
    raters agree with a per-person level more often at later stages, and the
    machine's peak is wrong for every fifth person."""
    names = ("no", "low", "moderate", "severe")
    machine, human = ["id,p_no,p_low,p_mod,p_sev"], ["id,rater_id,stage,label"]
    for i in range(1, n + 1):
        level = (i * 7 + i // 4) % 4
        probs = [0.1] * 4
        probs[(level + (i % 5 == 0)) % 4] = 0.7
        machine.append(",".join([str(i)] + [str(p) for p in probs]))
        for stage in (1, 2, 3):
            for r in range(1 + (i + stage) % 3):
                label = level if (i + r + stage) % (stage + 1) else (level + 1) % 4
                human.append(f"{i},{r},{stage},{names[label]}")
    (dirpath / "human.csv").write_text("\n".join(human) + "\n")
    (dirpath / "machine.csv").write_text("\n".join(machine) + "\n")
    return dirpath / "human.csv", dirpath / "machine.csv"


# No cell draws a random number (replayed labels, the consensus and the
# machine-only baselines), so the table is exact on every platform.
REPLAY_TABLE = """\
approach,budget,evaluated,pop_sensitivity,cohort_sensitivity,precision,specificity,tp,fp,fn,tn
MAB,553.15,150,0.3871,0.3871,0.4000,0.8487,12,18,19,101
MAB*,553.15,150,0.3871,0.3871,0.5714,0.9244,12,9,19,110
4Experts,3210.00,150,1,1,1,1,31,0,0,119
NLP-Full,0.15,150,0.7419,0.7419,0.5897,0.8655,23,16,8,103
NLP-Top-k,0.15,150,0.8710,0.8710,0.2700,0.3866,27,73,4,46
"""

# A synthetic ucb run whose stages fund more than one pass, so the optimism
# index, the confusion table and every default baseline's labels shape it.
SYNTH_UCB_TABLE = """\
approach,budget,evaluated,pop_sensitivity,cohort_sensitivity,precision,specificity,tp,fp,fn,tn
MAB,1300.242,242,0.9048,0.9048,0.7600,0.9400,38,12,4,188
MAB*,1300.242,242,0.8452±0.1010,0.8452±0.1010,0.9868±0.0372,0.9975±0.0071,35.50±4.24,0.50±1.41,6.50±4.24,199.50±1.41
4Experts,5178.80,242,1,1,1,1,42,0,0,200
1Expert,1294.70,242,0.8929±0.0337,0.8929±0.0337,0.8931±0.0265,0.9775±0.0071,37.50±1.41,4.50±1.41,4.50±1.41,195.50±1.41
4Experts-Sub,2140.00,100,0.3929±0.1010,1,1,1,16.50±4.24,0,0,83.50±4.24
1Expert-Sub,535.00,100,0.3214±0.1010,0.8167±0.0471,0.8412±0.1165,0.9702±0.0154,13.50±4.24,2.50±1.41,3,81.00±2.83
NLP-Full,0.242,242,0.6667,0.6667,0.4516,0.8300,28,34,14,166
NLP-Sub,0.10,100,0.2381±0.0673,0.6056±0.0157,0.3839±0.0253,0.8081±0.0436,10.00±2.83,16.00±2.83,6.50±1.41,67.50±7.07
NLP-Top-k,0.242,242,0.7381,0.7381,0.3100,0.6550,31,69,11,131
NLP-Top-100+1Expert-Sub,535.242,242,0.6786±0.0337,0.6786±0.0337,0.9344±0.0030,0.9900,28.50±1.41,2,13.50±1.41,198
"""


# triage.csv of default-population runs at --seed 11, two seeds each; both
# 2200 more2 runs go past every stage's first pass.
TRIAGE_CSV_SHA256 = {
    (2200, "more2", "round_robin", "binary"): "660a4f11ed6b6b30c901b121c33d5cdd0ca5d95ea4213445b2e36a888239b79a",
    (2200, "more2", "ucb", "exponential"): "b541da2661bd2f368af72988f1e076a3df73a77b4f3122bc772d9e304b4092c7",
    (553, "", "round_robin", "linear"): "65243d7bbe1725d2e00ec1ef323c60d345f66c412937d690cb8b1c8e49bdabdd",
}

# triage.csv of studies whose seeds span several batches: the benchmark's
# triage-ucb inputs, stages past the first pass, and the replay pair. Their
# spend columns, and most replay columns, are the same in every seed.
TRIAGE_STUDY_SHA256 = {
    "553-ucb-100": ("policy = ucb\nnum_seeds = 100\nn = 242\nn_severe = 42\nk = 200, 100, 50\n"
                    "total_budget = 553\n", 1000,
                    "433b9be7c658b86ee543988cc37a9afdc6634f55576f0b75b0e97d3f67bf2d59"),
    "1300-more2-ucb": ("total_budget = 1300\nscheme = more2\npolicy = ucb\nnum_seeds = 60\n", 11,
                       "a584455d46cca38655f34510a88655d9ad3a3e9f8b5d9fb5eca09216dc1f795d"),
    "2200-more2-round_robin-exponential": (
        "total_budget = 2200\nscheme = more2\npolicy = round_robin\nencoding = exponential\n"
        "num_seeds = 60\n", 11, "c8c3c558688db15cdaf7f53915a5e6cdfcd24ac77b9214015feada7555ac89f3"),
    "2200-more2-ucb-exponential": (
        "total_budget = 2200\nscheme = more2\npolicy = ucb\nencoding = exponential\nnum_seeds = 60\n", 11,
        "1a8245bdd8e9b65cd766e620d110afab926198bbe6f5de01b4df68176309d020"),
    "replay-ucb": ("n = 150\nk = 100,60,30\npolicy = ucb\nnum_seeds = 60\n", 11,
                   "66e76b5a591849bd08e0c4e046a51d2113a124a1ce3a3cfd7b46dd700d65b4da"),
    "replay-round_robin": ("n = 150\nk = 100,60,30\npolicy = round_robin\nnum_seeds = 60\n", 11,
                           "70a2cd9a2df3a3d334c3c6f0711bc1e6f92a4769839fb5001158ed27abac2ada"),
}


class TestTriage:
    @pytest.mark.parametrize("values, decimals, cell", [
        # every seed of the default study spends $553.242; np.std of the copies is not 0
        ([553.242] * 100, None, "553.242"),
        ([3210.0, 3210.0], None, "3210.00"),
        ([0.1, 0.2], None, "0.15±0.141"),
        ([12 / 31] * 3, 4, "0.3871"),
        ([0.5, 0.5 + 1e-9], 4, "0.5000±0.0000"),  # values that differ keep their spread
        ([1.0, None, 1.0], 4, "1"),
        ([None, None], 4, ""),
        ([242] * 100, 2, "242"),
        ([35, 36], 2, "35.50±1.41"),
    ])
    def test_cell_prints_a_constant_column_without_spread(self, values, decimals, cell):
        assert cli._cell(values, decimals) == cell

    def test_replay_n_must_match_roster(self, tmp_path, capsys):
        human, machine = write_replay_pair(tmp_path)
        cfg = write_cfg(tmp_path / "c.cfg", f"n = 400\nk = 100,60,30\nnum_seeds = 1\n"
                                            f"human_csv = {human}\nmachine_pred = {machine}\n")
        out = tmp_path / "o"
        rc = main(["triage", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "n = 400 but the replay roster has 150 individuals" in capsys.readouterr().err
        assert not (out / "triage.csv").exists()

    @pytest.mark.parametrize("line, names", [
        ("n_severe = 5", "['n_severe']"),
        ("stage_noise = 0.9, 0.5, 0.2", "['stage_noise']"),
    ])
    def test_replay_rejects_synthetic_keys(self, tmp_path, capsys, line, names):
        human, machine = write_replay_pair(tmp_path)
        cfg = write_cfg(tmp_path / "c.cfg", f"n = 150\nk = 100,60,30\nnum_seeds = 1\n{line}\n"
                                            f"human_csv = {human}\nmachine_pred = {machine}\n")
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--out", str(out)]) == 2
        assert f"replay mode cannot honour {names}" in capsys.readouterr().err
        assert not (out / "triage.csv").exists()

    def test_553_rejects_scheme(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "total_budget = 553\nscheme = bogus\nnum_seeds = 1\n")
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--out", str(out)]) == 2
        assert "no budget split for total $553 scheme 'bogus'" in capsys.readouterr().err
        assert not (out / "triage.csv").exists()

    def test_replay_manifest_reruns(self, tmp_path):
        human, machine = write_replay_pair(tmp_path)
        cfg = write_cfg(tmp_path / "c.cfg", f"n = 150\nk = 100,60,30\nnum_seeds = 1\n"
                                            f"baselines = NLP-Full\nhuman_csv = {human}\n"
                                            f"machine_pred = {machine}\n")
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["triage", "--config", cfg, "--out", str(first)]) == 0
        assert main(["triage", "--config", str(first / "manifest.json"), "--out", str(again)]) == 0
        for name in ("triage.csv", "manifest.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_replay_table(self, tmp_path):
        human, machine = write_replay_pair(tmp_path)
        cfg = write_cfg(tmp_path / "c.cfg", "\n".join([
            "n = 150", "k = 100,60,30", "policy = ucb", "num_seeds = 2",
            "baselines = 4Experts,NLP-Full,NLP-Top-k",
            f"human_csv = {human}", f"machine_pred = {machine}", "",
        ]))
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "triage.csv").read_text(encoding="utf-8") == REPLAY_TABLE

    def test_synthetic_ucb_table(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "total_budget = 1300\nscheme = more2\npolicy = ucb\nnum_seeds = 2\n")
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--seed", "11", "--out", str(out)]) == 0
        assert (out / "triage.csv").read_text(encoding="utf-8") == SYNTH_UCB_TABLE

    @pytest.mark.parametrize("budget, scheme, policy, encoding", sorted(TRIAGE_CSV_SHA256))
    def test_triage_csv_bytes_pinned(self, tmp_path, budget, scheme, policy, encoding):
        cfg = write_cfg(tmp_path / "c.cfg", f"total_budget = {budget}\nscheme = {scheme}\n"
                                            f"policy = {policy}\nencoding = {encoding}\nnum_seeds = 2\n")
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--seed", "11", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "triage.csv").read_bytes()).hexdigest()
        assert digest == TRIAGE_CSV_SHA256[budget, scheme, policy, encoding]

    @pytest.mark.parametrize("name", sorted(TRIAGE_STUDY_SHA256))
    def test_triage_study_bytes_pinned(self, tmp_path, name):
        text, seed, expected = TRIAGE_STUDY_SHA256[name]
        if name.startswith("replay"):
            human, machine = write_replay_pair(tmp_path)
            text += f"human_csv = {human}\nmachine_pred = {machine}\n"
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "triage.csv").read_bytes()).hexdigest() == expected

    @pytest.mark.parametrize("replay", [False, True], ids=["synthetic", "replay"])
    def test_batched_study_equals_per_seed_runs(self, tmp_path, monkeypatch, replay):
        # 7 seeds in batches of 3, the last one partial; ucb goes past the first pass in stages 2 and 3
        monkeypatch.setattr(cli, "SEEDS_PER_BATCH", 3)
        text = "k = 100, 60, 30\npolicy = ucb\nnum_seeds = 7\n"
        if replay:
            human, machine = write_replay_pair(tmp_path)
            text += f"n = 150\nhuman_csv = {human}\nmachine_pred = {machine}\n"
        else:
            text += "n = 120\nn_severe = 20\n"
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        # each seed on its own, through the single-run calls, then aggregated as the study does
        stages = statebandits.default_stages(150 if replay else 120, (100, 60, 30))
        approaches = ["MAB", "MAB*", *statebandits.BASELINES]
        values = {a: [] for a in approaches}
        for s in range(7):
            run_seed = int(statebandits.substream(5, s, "triage-seed").integers(0, 2**62))
            pop = (statebandits.load_evaluations(human, machine) if replay
                   else statebandits.synth_population(120, 20, seed=run_seed))
            result = statebandits.run_pipeline(pop, stages, "ucb", run_seed)
            runs = [(result, "mab"), (result, "mab_star")] + [
                (statebandits.run_baseline(name, pop, run_seed), "mab") for name in statebandits.BASELINES]
            for approach, (res, mode) in zip(approaches, runs):
                m = statebandits.metrics(res, pop, mode)
                values[approach].append((res.spend_milli / 1000, len(res.evaluated), m.pop_sensitivity,
                                         m.cohort_sensitivity, m.cohort_precision, m.cohort_specificity,
                                         m.cohort.tp, m.cohort.fp, m.cohort.fn, m.cohort.tn))
        with open(out / "triage.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[a] + [cli._cell(col, d) for (_, d), col in zip(cli.TRIAGE_COLUMNS, zip(*values[a]))]
                        for a in approaches]

    def test_small_run_table(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "\n".join([
            "n = 40", "n_severe = 8", "k = 20,10,5", "num_seeds = 3",
            "baselines = 4Experts,NLP-Full", "",
        ]))
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "triage.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "approach"
        table = {r[0]: r for r in rows[1:]}
        assert list(table) == ["MAB", "MAB*", "4Experts", "NLP-Full"]
        assert table["MAB"][1] == "553.04"
        assert table["4Experts"][1] == "856.00"
        assert table["4Experts"][2] == "40"
        assert table["NLP-Full"][1] == "0.04"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stage_budgets_dollars"] == [0.04, 18.0, 535.0]
        assert "stage_budgets_dollars" not in manifest["config"]

    def test_budget_1300_more3(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "\n".join([
            "total_budget = 1300", "scheme = more3", "num_seeds = 1", "baselines =", "",
        ]))
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stage_budgets_dollars"] == [0.242, 200.0, 1100.0]
        with open(out / "triage.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["MAB", "MAB*"]

    def test_top_100_baseline_runs_below_100(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "n = 60\nn_severe = 10\nk = 30,20,10\nnum_seeds = 1\n"
                                            "baselines = NLP-Top-100+1Expert-Sub\n")
        out = tmp_path / "o"
        assert main(["triage", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "triage.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["MAB", "MAB*", "NLP-Top-100+1Expert-Sub"]

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "n = 40\nn_severe = 8\nk = 20,10,5\nnum_seeds = 2\nbaselines = 1Expert\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["triage", "--config", cfg, "--out", str(a), "--seed", "5"]) == 0
        assert main(["triage", "--config", cfg, "--out", str(b), "--seed", "5"]) == 0
        assert (a / "triage.csv").read_bytes() == (b / "triage.csv").read_bytes()


class TestVerify:
    def test_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["verify", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in stdout
        payload = json.loads((out / "verify.json").read_text())
        assert len(payload["suites"]) == 6
        assert all(s["passed"] for s in payload["suites"])
        digest = hashlib.sha256((out / "verify.json").read_bytes()).hexdigest()
        assert digest == "955c77c009b0caf980501349509bbab464e010bc813d80aba678779f1b960c82"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "verify"


SMALL_CONFIGS = {
    "tightness": TIGHTNESS_CFG,
    "sr-compare": "num_envs = 3\nruns_per_env = 20\nk_max = 4\ns_max = 2\nstate_mode = blocks\n",
    "regret": "K = 2\nmu = 0.7,0.4\ncheckpoints = 20,50\nruns = 5\nreward_family = truncated_gaussian\n",
    "triage": "n = 40\nn_severe = 8\nk = 20,10,5\nnum_seeds = 2\nbaselines = 4Experts\n"
              "total_budget = 1300\nscheme = more2\n",
}


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_manifest_rerun_is_byte_identical(tmp_path, command, fmt):
    cfg = write_cfg(tmp_path / "c.cfg", SMALL_CONFIGS[command])
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([command, "--config", cfg, "--seed", "5", "--out", str(first), "--format", fmt]) == 0
    assert main([command, "--config", str(first / "manifest.json"), "--out", str(again),
                 "--format", fmt]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
