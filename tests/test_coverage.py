"""Every config key the CLI accepts is backed by a test.

Each key of the four study schemas maps to two tuples of tests: its oracle
tests, whose numbers for the values the key admits agree with an independent
oracle or with exact enumeration, and its exit-2 tests, which reject the
values it cannot honour. Every key that selects numbers has at least one
oracle test; a key that selects none is listed in SELECTS_NO_NUMBERS with the
reason. A key added to a schema without an entry here fails, and so does an
entry naming a test that does not exist.
"""

import importlib
import pathlib

from statebandits.cli import COMMANDS

ERRORS = "tests/test_cli.py::TestErrors::"
TRIAGE_CLI = "tests/test_cli.py::TestTriage::"
ENV = "tests/test_env.py::"
MONTECARLO = "tests/test_montecarlo.py::"
STRATEGIES = "tests/test_strategies.py::"
TRIAGE = "tests/test_triage.py::"

_SWEEP_EXIT_2 = ERRORS + "test_sweep_rejects_keys_it_cannot_honour"
_EXACT_LAWS = MONTECARLO + "test_batched_estimators_match_exact_laws"
_RANDOM_ENV = MONTECARLO + "TestRandomEnv::test_ranges_respected"
_STUDY_EXIT_2 = ERRORS + "test_study_range_exits_2"
_LOCKSTEP = STRATEGIES + "test_lockstep_runs_match_per_state_oracle"
_PIPELINE = TRIAGE + "test_pipeline_matches_dict_oracle"
_CURVE = MONTECARLO + "TestPseudoRegret::test_curve_matches_per_run_oracle"
_REGRET_MAIN = "tests/test_cli.py::TestRegret::test_rows_match_per_run_oracle"  # a drawn config through main
_SPEC_INTEGERS = ENV + "TestSpecValidation::test_counts_and_seed_must_be_integers"
_JSON_LISTS = ERRORS + "test_json_list_entries_parse_like_scalars"
_REPLAY_SYNTH_KEYS = TRIAGE_CLI + "test_replay_rejects_synthetic_keys"
_REPLAY_FILE_FAULTS = ERRORS + "test_replay_file_fault_exits_2"

# key: (oracle tests, exit-2 tests); tightness and sr-compare read the same keys, through one SweepConfig
_SWEEP = {
    "num_envs": ((MONTECARLO + "TestSweeps::test_num_envs_selects_the_first_environments",),
                 (_SWEEP_EXIT_2, ERRORS + "test_only_whole_lines_are_comments")),
    "runs_per_env": ((_EXACT_LAWS,),
                     (_SWEEP_EXIT_2, MONTECARLO + "TestRandomEnv::test_runs_per_env_must_be_a_positive_integer")),
    "horizon": ((_EXACT_LAWS,), (_SWEEP_EXIT_2, ERRORS + "test_json_horizon_must_be_an_integer",
                                 ERRORS + "test_horizon_too_short_for_reference_schedule")),
    "k_min": ((_RANDOM_ENV, MONTECARLO + "TestRandomEnv::test_k_distribution_uniform"), (_SWEEP_EXIT_2,)),
    "k_max": ((_RANDOM_ENV, MONTECARLO + "TestRandomEnv::test_k_distribution_uniform"), (_SWEEP_EXIT_2,)),
    "s_min": ((_RANDOM_ENV, MONTECARLO + "TestRandomEnv::test_s_range_forced"), (_SWEEP_EXIT_2,)),
    "s_max": ((_RANDOM_ENV, MONTECARLO + "TestRandomEnv::test_s_range_forced"), (_SWEEP_EXIT_2,)),
    "sigma2_min": ((_RANDOM_ENV,), (_SWEEP_EXIT_2,)),
    "sigma2_max": ((_RANDOM_ENV,), (_SWEEP_EXIT_2,)),
    "reward_family": ((), (_SWEEP_EXIT_2,)),
    "state_mode": ((_EXACT_LAWS,), (_SWEEP_EXIT_2,)),
}

COVERAGE = {
    "tightness": _SWEEP,
    "sr-compare": _SWEEP,
    "regret": {
        "K": ((_REGRET_MAIN, _LOCKSTEP), (ERRORS + "test_regret_shape_mismatch", _STUDY_EXIT_2, _SPEC_INTEGERS)),
        "S": ((_REGRET_MAIN, _LOCKSTEP), (_STUDY_EXIT_2, _SPEC_INTEGERS)),
        "mu": ((_REGRET_MAIN, _LOCKSTEP), (ERRORS + "test_regret_shape_mismatch",
                                           ERRORS + "test_regret_explicit_m_rejects_mu", _JSON_LISTS)),
        "sigma2": ((_REGRET_MAIN, _LOCKSTEP), (_STUDY_EXIT_2, ERRORS + "test_regret_explicit_m_rejects_sigma2")),
        # the through-main test draws m from mu; an explicit m is checked by the library test alone
        "m": ((_LOCKSTEP,), (ERRORS + "test_regret_explicit_m_rejects_mu",)),
        "env_seed": ((_REGRET_MAIN, _LOCKSTEP, ENV + "TestInstantiate::test_deterministic"),
                     (_SPEC_INTEGERS, _STUDY_EXIT_2)),
        "reward_family": ((_REGRET_MAIN, _LOCKSTEP, _CURVE), (_STUDY_EXIT_2,)),
        "state_mode": ((_REGRET_MAIN, _LOCKSTEP), (_STUDY_EXIT_2,)),
        "alpha": ((_REGRET_MAIN, _LOCKSTEP), (_STUDY_EXIT_2,)),
        "checkpoints": ((_REGRET_MAIN, _CURVE, MONTECARLO + "TestPseudoRegret::test_single_run_matches_scalar_loop"),
                        (ERRORS + "test_regret_repeated_checkpoints_exit_2",
                         ERRORS + "test_empty_monte_carlo_count_exits_2", _JSON_LISTS)),
        "runs": ((_REGRET_MAIN, _LOCKSTEP, _CURVE), (ERRORS + "test_empty_monte_carlo_count_exits_2",)),
    },
    "triage": {
        "n": ((_PIPELINE,), (TRIAGE_CLI + "test_replay_n_must_match_roster",
                             ERRORS + "test_triage_baselines_checked_up_front",
                             TRIAGE + "TestSynthPopulation::test_counts_must_be_integers")),
        "n_severe": ((TRIAGE + "TestSynthPopulation::test_label_counts",),
                     (_STUDY_EXIT_2, _REPLAY_SYNTH_KEYS,
                      TRIAGE + "TestSynthPopulation::test_counts_must_be_integers")),
        "stage_noise": ((TRIAGE + "TestSynthPopulation::test_confusion_rows",
                         TRIAGE + "test_synthetic_label_rule_matches_walk"),
                        (TRIAGE + "TestSynthPopulation::test_noise_must_decrease", _REPLAY_SYNTH_KEYS)),
        "k": ((_PIPELINE,), (TRIAGE + "TestBudgets::test_default_stages_validation",
                             TRIAGE + "TestBudgets::test_default_stages_counts_must_be_integers", _JSON_LISTS)),
        # the table gives each named budget's stage budgets; the pipeline oracle runs any stage budgets
        "total_budget": ((TRIAGE + "TestBudgets::test_allocation_table", _PIPELINE), (_STUDY_EXIT_2,)),
        "scheme": ((TRIAGE + "TestBudgets::test_allocation_table", _PIPELINE),
                   (TRIAGE_CLI + "test_553_rejects_scheme", _STUDY_EXIT_2)),
        "policy": ((_PIPELINE,), (_STUDY_EXIT_2,)),
        "encoding": ((_PIPELINE,), (_STUDY_EXIT_2,)),
        "num_seeds": ((TRIAGE_CLI + "test_batched_study_equals_per_seed_runs",),
                      (ERRORS + "test_empty_monte_carlo_count_exits_2",)),
        "baselines": ((TRIAGE + "test_baselines_match_dict_oracle",),
                      (ERRORS + "test_triage_baselines_checked_up_front",)),
        "human_csv": ((_PIPELINE,), (ERRORS + "test_triage_replay_needs_both_files",
                                     TRIAGE + "TestLoadEvaluations::test_bad_headers", _REPLAY_FILE_FAULTS)),
        "machine_pred": ((_PIPELINE,), (ERRORS + "test_triage_replay_needs_both_files",
                                        TRIAGE + "TestLoadEvaluations::test_probabilities_must_be_finite",
                                        _REPLAY_FILE_FAULTS)),
    },
}

# (command, key): why the key selects no numbers, so that exit-2 tests alone back it
SELECTS_NO_NUMBERS = {
    (command, "reward_family"): "a sweep admits only bernoulli rewards; any other value exits 2"
    for command in ("tightness", "sr-compare")
}


def _resolve(node: str):
    """The test function a ``path::[Class::]name`` node id names, or None."""
    path, *names = node.split("::")
    if not (pathlib.Path(__file__).parent / pathlib.Path(path).name).is_file():
        return None
    obj = importlib.import_module(pathlib.Path(path).stem)
    for name in names:
        obj = getattr(obj, name, None)
    return obj if callable(obj) and names[-1].startswith("test_") else None


def test_every_schema_key_has_an_entry():
    for command, (_, schema) in COMMANDS.items():
        assert sorted(COVERAGE.get(command, {})) == sorted(f.name for f in schema), command


def test_every_entry_names_existing_tests():
    for command, table in COVERAGE.items():
        for key, (oracle, exit_2) in table.items():
            assert oracle + exit_2, (command, key)
            for node in oracle + exit_2:
                assert _resolve(node) is not None, (command, key, node)


def test_every_key_that_selects_numbers_has_an_oracle_test():
    keys = {(command, key) for command, table in COVERAGE.items() for key in table}
    assert set(SELECTS_NO_NUMBERS) <= keys
    for command, key in keys:
        # a key listed as selecting no numbers has no oracle test to name, and every other key has one
        assert bool(COVERAGE[command][key][0]) != ((command, key) in SELECTS_NO_NUMBERS), (command, key)
