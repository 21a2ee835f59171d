import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statebandits import (
    BASELINES,
    ConfigurationError,
    ParseError,
    PipelineResult,
    Population,
    ReferentialError,
    RiskLabel,
    StageSpec,
    ValidationError,
    allocation_budgets,
    default_stages,
    dollars,
    load_evaluations,
    metrics,
    parse_label,
    run_baseline,
    run_pipeline,
    substream,
    synth_population,
)
from statebandits import rng, triage
from statebandits.triage import (
    COHORT_BASELINES, ENCODINGS, STAGE_COSTS_MILLI, STAGE_GAINS, SUB_COHORT, BaselineResult, SeedBatch,
    StageOutcome, metrics_batch, run_baseline_batch, run_pipeline_batch,
)

from _oracles import confusion_walk, triage_baseline, triage_pipeline


class TestLabels:
    def test_parse_case_insensitive(self):
        assert parse_label("Severe") is RiskLabel.SEVERE
        assert parse_label(" moderate ") is RiskLabel.MODERATE
        assert parse_label("LOW") is RiskLabel.LOW
        assert parse_label("no") is RiskLabel.NO

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown risk label"):
            parse_label("mild")

    def test_encode_severe_is_one_everywhere(self):
        for scheme in ("linear", "binary", "exponential"):
            assert ENCODINGS[scheme][RiskLabel.SEVERE] == 1.0
            assert ENCODINGS[scheme][RiskLabel.NO] == 0.0

    def test_encode_values(self):
        assert ENCODINGS["linear"][RiskLabel.MODERATE] == pytest.approx(2 / 3)
        assert ENCODINGS["exponential"][RiskLabel.LOW] == pytest.approx(1 / 7)
        assert ENCODINGS["binary"][RiskLabel.MODERATE] == 0.0


UNIFORM_CONFUSION = np.full((3, 4, 4), 0.25)


class TestSynthPopulation:
    def test_label_counts(self):
        pop = synth_population(242, 42, seed=0)
        counts = {lab: 0 for lab in RiskLabel}
        for lab in pop.true_risk.tolist():
            counts[lab] += 1
        assert counts[RiskLabel.SEVERE] == 42
        assert counts[RiskLabel.NO] == 100
        assert counts[RiskLabel.LOW] == 60
        assert counts[RiskLabel.MODERATE] == 40

    def test_same_seed_identical(self):
        assert synth_population(50, 10, seed=3) == synth_population(50, 10, seed=3)
        a = synth_population(50, 10, seed=3).true_risk.tolist()
        b = synth_population(50, 10, seed=4).true_risk.tolist()
        assert a != b

    def test_confusion_rows(self):
        pop = synth_population(20, 5, stage_noise=(0.45, 0.30, 0.10), seed=1)
        true_risk = next(t for t in pop.true_risk if t == RiskLabel.SEVERE)
        row3 = pop.confusion[2][true_risk]
        assert row3[int(RiskLabel.SEVERE)] == pytest.approx(0.90)
        assert row3[int(RiskLabel.NO)] == pytest.approx(0.10 / 3)
        assert sum(pop.confusion[0][true_risk]) == pytest.approx(1.0)

    def test_kind_follows_confusion(self):
        assert synth_population(20, 5, seed=1).kind == "synthetic"
        assert triage._replay_population({1: (1.0, 0, 0, 0)}, {}).kind == "replay"
        # with neither kind's data no engine could run the population
        with pytest.raises(ValidationError, match=r"^confusion: need a confusion table"):
            Population(ids=[1], true_risk=[RiskLabel.NO])
        row = (0.25,) * 4
        for bad in (((row,) * 4,) * 2, ((row,) * 3,) * 3, (((0.5,) * 2,) * 4,) * 3):
            with pytest.raises(ValidationError, match="confusion"):
                Population(ids=[], true_risk=[], confusion=bad)

    def test_noiseless_final_stage(self):
        pop = synth_population(20, 5, stage_noise=(0.45, 0.30, 0.0), seed=2)
        true_risk = pop.true_risk[:10]
        drawn = triage._confusion_labels(pop.confusion[2][true_risk], substream(0, "check").random(10))
        for label, true in zip(drawn.tolist(), true_risk.tolist()):
            assert RiskLabel(label) is RiskLabel(true)

    def test_noise_must_decrease(self):
        with pytest.raises(ValidationError, match="strictly decreasing"):
            synth_population(20, 5, stage_noise=(0.30, 0.30, 0.10))

    def test_noise_needs_three_stages(self):
        with pytest.raises(ValidationError, match=r"stage_noise: need 3 entries.*\(0\.4, 0\.2\)"):
            synth_population(50, 10, (0.4, 0.2))

    def test_severe_count_bounds(self):
        with pytest.raises(ValidationError, match="n_severe"):
            synth_population(20, 0)
        with pytest.raises(ValidationError, match="n_severe"):
            synth_population(20, 20)

    @pytest.mark.parametrize("n, n_severe, name", [(10.5, 3, "n"), (10, 2.5, "n_severe"), (10, True, "n_severe")])
    def test_counts_must_be_integers(self, n, n_severe, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            synth_population(n, n_severe)

    def test_seed_must_be_an_integer(self):
        # a string seed would be hashed as a tag and draw another population
        for seed, message in [("7", "must be an integer"), (1.5, "must be an integer"),
                              (True, "must be an integer"), (2**64 + 1, "18446744073709551617 outside"),
                              (-2**63 - 1, "-9223372036854775809 outside")]:
            with pytest.raises(ConfigurationError, match=f"^seed {message}"):
                synth_population(20, 5, seed=seed)
        assert synth_population(20, 5, seed=np.int64(7)) == synth_population(20, 5, seed=7)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Population(ids=[1, 1], true_risk=[RiskLabel.NO, RiskLabel.NO], confusion=UNIFORM_CONFUSION)

    def test_ids_must_be_int64(self):
        # load_evaluations refuses such ids; a library caller gets the integer rule's error, not an OverflowError
        for ids, bad in (([0, 1, 2, 3, 2**63], "9223372036854775808"),
                         ([-2**63 - 1, 0, 1, 2, 3], "-9223372036854775809")):
            with pytest.raises(ConfigurationError, match=rf"^ids {bad} outside \[-2\*\*63, 2\*\*63\)$"):
                Population(ids=ids, true_risk=[0] * 5, confusion=UNIFORM_CONFUSION)
        # the int64 extremes ascend, though their difference does not fit in int64
        pop = Population(ids=[-2**63, 2**63 - 1], true_risk=[0, 0], confusion=UNIFORM_CONFUSION)
        assert pop.ids.tolist() == [-2**63, 2**63 - 1]

    def test_float_ids_and_labels_are_refused_not_truncated(self):
        # they were read as ids [0, 1, 2] and true labels [0, 1, 2]
        with pytest.raises(ConfigurationError, match=r"^ids must be an integer, got 0\.5$"):
            Population(ids=[0.5, 1.5, 2.5], true_risk=[0, 1, 2.9], confusion=UNIFORM_CONFUSION)
        with pytest.raises(ConfigurationError, match=r"^true_risk must be an integer, got 2\.9$"):
            Population(ids=[0, 1, 2], true_risk=[0, 1, 2.9], confusion=UNIFORM_CONFUSION)
        for true_risk in (np.array([0.0, 1.0, 2.0]), [0, True, 2]):
            with pytest.raises(ConfigurationError, match=r"^true_risk must be an integer"):
                Population(ids=[0, 1, 2], true_risk=true_risk, confusion=UNIFORM_CONFUSION)

    def test_unsigned_ids_of_2_63_are_refused_not_wrapped(self):
        # a uint64 id of 2**63 was read as id -2**63, whose rater streams it then drew
        ids = np.array([1, 2**63], dtype=np.uint64)
        with pytest.raises(ConfigurationError, match=r"^ids 9223372036854775808 outside \[-2\*\*63, 2\*\*63\)$"):
            Population(ids=ids, true_risk=[0, 0], confusion=UNIFORM_CONFUSION)
        pop = Population(ids=np.array([1, 2**63 - 1], dtype=np.uint64), true_risk=[0, 0], confusion=UNIFORM_CONFUSION)
        assert pop.ids.dtype == np.int64 and pop.ids.tolist() == [1, 2**63 - 1]

    def test_true_label_of_2_63_is_refused_by_the_integer_rule(self):
        # it raised a bare OverflowError
        with pytest.raises(ConfigurationError, match=r"^true_risk 9223372036854775808 outside"):
            Population(ids=[1], true_risk=[2**63], confusion=UNIFORM_CONFUSION)

    def test_rows_ascend_with_one_true_label_each(self):
        with pytest.raises(ValidationError, match="ascending ids"):
            Population(ids=[2, 1], true_risk=[RiskLabel.NO, RiskLabel.NO], confusion=UNIFORM_CONFUSION)
        with pytest.raises(ValidationError, match="one true label each"):
            Population(ids=[1, 2], true_risk=[RiskLabel.NO], confusion=UNIFORM_CONFUSION)

    def test_true_labels_lie_in_0_to_3(self):
        for true_risk in ([7, 3, -1], [0, 4, 1], [-1, 0, 0]):
            with pytest.raises(ValidationError, match=r"^true_risk: true labels must lie in 0\.\.3"):
                Population(ids=[1, 2, 3], true_risk=true_risk, confusion=UNIFORM_CONFUSION)
        pop = Population(ids=[1, 2, 3], true_risk=[0, 3, 2], confusion=UNIFORM_CONFUSION)
        assert pop.true_risk.tolist() == [0, 3, 2]


def replay_fields(**changes):
    """The fields of a valid two-person replay population, with ``changes``."""
    pop = triage._replay_population({4: (0.1, 0.2, 0.3, 0.4), 7: (0.7, 0.1, 0.1, 0.1)},
                                    {i: {s: [RiskLabel.LOW, RiskLabel.SEVERE] for s in (1, 2, 3)} for i in (4, 7)})
    fields = dict(ids=pop.ids, true_risk=pop.true_risk, recorded=pop.recorded, machine_probs=pop.machine_probs)
    return {**fields, **changes}


class TestReplayPopulation:
    def test_valid_fields_pass(self):
        pop = Population(**replay_fields())
        assert pop.kind == "replay" and pop == Population(**replay_fields())

    @pytest.mark.parametrize("changes, message", [
        ({"recorded": None}, r"^confusion: need a confusion table"),
        ({"machine_probs": None}, r"^confusion: need a confusion table"),
        # with an (n, 3) table NLP-Full would flag no one
        ({"machine_probs": np.full((2, 3), 1 / 3)}, r"^machine_probs: need a \(2, 4\) table, got \(2, 3\)$"),
        ({"recorded": (np.zeros(12, dtype=int), np.zeros((3, 3), dtype=int), np.full((3, 2), 2))},
         r"^recorded: need \(3, 2\) tables of label starts and counts, got \(3, 3\) and \(3, 2\)$"),
        ({"recorded": (np.zeros(12, dtype=int), np.zeros((3, 2), dtype=int), np.full(6, 2))},
         r"^recorded: need \(3, 2\) tables .* got \(3, 2\) and \(6,\)$"),
    ])
    def test_kind_data_is_checked(self, changes, message):
        with pytest.raises(ValidationError, match=message):
            Population(**replay_fields(**changes))

    @pytest.mark.parametrize("table, value", [("start", 6 + 20), ("size", -1), ("start", -1)],
                             ids=["past-the-end", "negative-count", "negative-start"])
    def test_recorded_spans_lie_within_the_labels(self, table, value):
        # id 7's two stage-2 labels start at 6; a span past the end raised a bare
        # IndexError at the first read, and a negative count or start read other labels
        flat, start, size = replay_fields()["recorded"]
        spans = {"start": start.copy(), "size": size.copy()}
        assert spans["start"][1, 1] == 6
        spans[table][1, 1] = value
        start, size = spans["start"], spans["size"]
        with pytest.raises(ValidationError, match=r"^recorded: need label starts and counts >= 0 that end "
                                                  r"within the 12 recorded labels$"):
            Population(**replay_fields(recorded=(flat, start, size)))

    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_recorded_tables_must_be_integers(self, part):
        # a float label, start or count was truncated
        recorded = list(replay_fields()["recorded"])
        recorded[part] = recorded[part] + 0.5
        with pytest.raises(ConfigurationError, match=r"^recorded must be an integer, got \d+\.5$"):
            Population(**replay_fields(recorded=tuple(recorded)))

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_recorded_labels_lie_in_0_to_3(self, bad):
        # the encodings would read a -1 as Severe and a 7 past their end
        flat, start, size = replay_fields()["recorded"]
        flat = flat.copy()
        flat[3] = bad
        with pytest.raises(ValidationError, match=rf"^recorded: recorded labels must lie in 0\.\.3, got {bad}$"):
            Population(**replay_fields(recorded=(flat, start, size)))


class TestBudgets:
    def test_stage_costs(self):
        assert STAGE_COSTS_MILLI == (1, 90, 5350)
        assert STAGE_GAINS == (1.0, 10.0, 100.0)
        assert dollars(5350) == 5.35
        assert dollars(553_242) == 553.242

    def test_allocation_table(self):
        assert allocation_budgets(553) == (18_000, 535_000)
        assert allocation_budgets(1300, "more3") == (200_000, 1_100_000)
        assert allocation_budgets(1300, "more2") == (765_000, 535_000)
        assert allocation_budgets(1300, "equal") == (620_000, 680_000)
        assert allocation_budgets(2200, "more3") == (300_000, 1_900_000)
        assert allocation_budgets(2200, "more2") == (1_500_000, 700_000)
        assert allocation_budgets(2200, "equal") == (1_100_000, 1_100_000)

    def test_553_rejects_scheme(self):
        assert allocation_budgets(553, "") == (18_000, 535_000)
        with pytest.raises(ConfigurationError, match="no budget split for total \\$553 scheme 'more3'"):
            allocation_budgets(553, "more3")

    def test_total_must_be_an_integer(self):
        # a fractional total would be truncated to the $553 split
        for total in (553.9, 553.0, True):
            with pytest.raises(ConfigurationError, match="total_dollars must be an integer"):
                allocation_budgets(total)
        with pytest.raises(ConfigurationError, match="total_dollars must be an integer"):
            default_stages(242, total_dollars=553.9)
        assert allocation_budgets(np.int64(553)) == (18_000, 535_000)
        assert allocation_budgets(np.int64(2200), "more2") == (1_500_000, 700_000)

    def test_unknown_budget(self):
        with pytest.raises(ConfigurationError, match="no budget split"):
            allocation_budgets(1300)
        with pytest.raises(ConfigurationError, match="no budget split"):
            allocation_budgets(999, "equal")

    def test_default_stages(self):
        stages = default_stages(242)
        assert [s.budget_milli for s in stages] == [242, 18_000, 535_000]
        assert [s.cohort_out for s in stages] == [200, 100, 50]
        assert [s.cost_milli for s in stages] == [1, 90, 5350]
        assert [s.gain for s in stages] == [1.0, 10.0, 100.0]

    @pytest.mark.parametrize("index", [0, 4])
    def test_stage_index_is_one_of_the_three(self, index):
        with pytest.raises(ValidationError, match=f"^index: must be 1, 2 or 3, got {index}$"):
            StageSpec(index=index, budget_milli=0, cohort_out=1)

    @pytest.mark.parametrize("fields, message", [((1, -1, 5), "^budget_milli: must be non-negative$"),
                                                 ((1, 10, 0), "^cohort_out: must be >= 1$")])
    def test_stage_budget_and_cohort_ranges(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            StageSpec(*fields)

    def test_default_stages_validation(self):
        with pytest.raises(ValidationError, match="cohort_out"):
            default_stages(242, k=(200, 100, 150))
        with pytest.raises(ValidationError, match="cohort_out"):
            default_stages(100, k=(200, 100, 50))
        stages = default_stages(242, k=(200, 100, 100))
        assert [s.cohort_out for s in stages] == [200, 100, 100]

    def test_default_stages_need_three_sizes(self):
        with pytest.raises(ValidationError, match=r"cohort_out: need 3 sizes.*k=\(200, 100\)"):
            default_stages(242, (200, 100))

    @pytest.mark.parametrize("fields, name", [((1, 10.5, 5), "budget_milli"), ((1, 10, 4.5), "cohort_out"),
                                              ((1.0, 10, 5), "index"), ((True, 10, 5), "index")])
    def test_stage_fields_must_be_integers(self, fields, name):
        # a float budget or cohort size would pass here and fail in run_pipeline with a TypeError
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            StageSpec(*fields)

    @pytest.mark.parametrize("n, k, name", [(242.0, (200, 100, 50), "n"), (242, (200, 100.0, 50), "k")])
    def test_default_stages_counts_must_be_integers(self, n, k, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            default_stages(n, k)


def identity_pop(labels):
    """Population whose every stage reports the true label with certainty."""
    rows = tuple(tuple(1.0 if k == lab else 0.0 for k in RiskLabel) for lab in RiskLabel)
    return Population(ids=np.arange(len(labels)), true_risk=labels, confusion=(rows, rows, rows))


def small_stages(n, k, scale=10):
    k1, k2, k3 = k
    budgets = (n * 1 * scale, k1 * 90 * scale, k2 * 5350 * scale)
    return [StageSpec(index=i + 1, budget_milli=budgets[i], cohort_out=k[i]) for i in range(3)]


class TestPipeline:
    labels = ([RiskLabel.SEVERE] * 5 + [RiskLabel.MODERATE] * 5
              + [RiskLabel.LOW] * 5 + [RiskLabel.NO] * 5)

    def test_noiseless_selects_highest_risk(self):
        pop = identity_pop(self.labels)
        for policy in ("round_robin", "ucb"):
            result = run_pipeline(pop, small_stages(20, (12, 8, 5), scale=1), policy=policy)
            assert result.final_cohort == frozenset({0, 1, 2, 3, 4})
            assert result.positives("mab") == result.positives("mab_star")
            scores = metrics(result, pop)
            assert scores.pop_sensitivity == 1.0
            assert scores.pop_precision == 1.0

    def test_budget_accounting(self):
        pop = synth_population(242, 42, seed=0)
        result = run_pipeline(pop, default_stages(242), seed=0)
        assert [o.pulls for o in result.stages] == [242, 200, 100]
        assert [o.spend_milli for o in result.stages] == [242, 18_000, 535_000]
        assert result.spend_milli == 553_242
        for outcome, stage in zip(result.stages, default_stages(242)):
            assert outcome.spend_milli == outcome.pulls * stage.cost_milli
            assert outcome.spend_milli <= stage.budget_milli

    def test_cohorts_shrink(self):
        pop = synth_population(242, 42, seed=1)
        result = run_pipeline(pop, default_stages(242), seed=1)
        sizes = [len(o.survivors) for o in result.stages]
        assert sizes == [200, 100, 50]
        assert len(result.final_cohort) == 50
        assert set(result.final_cohort) <= result.evaluated <= set(pop.ids)

    def test_cohort_monotonicity_enforced(self):
        pop = identity_pop(self.labels)
        stages = small_stages(20, (12, 8, 5))
        stages[1] = StageSpec(index=2, budget_milli=10_000, cohort_out=15)
        with pytest.raises(ValidationError, match="must not grow"):
            run_pipeline(pop, stages)

    def test_stage_may_keep_everyone(self):
        pop = identity_pop(self.labels)
        stages = small_stages(20, (12, 8, 8))
        result = run_pipeline(pop, stages)
        assert len(result.final_cohort) == 8
        assert set(result.final_cohort) >= {0, 1, 2, 3, 4}

    def test_unknown_policy(self):
        pop = identity_pop(self.labels)
        with pytest.raises(ConfigurationError, match="policy"):
            run_pipeline(pop, small_stages(20, (12, 8, 5)), policy="greedy")

    def test_empty_budget_skips_stage_with_warning(self):
        pop = identity_pop(self.labels)
        stages = small_stages(20, (12, 8, 5))
        stages[1] = StageSpec(index=2, budget_milli=10, cohort_out=8)
        with pytest.warns(UserWarning, match="no pulls"):
            result = run_pipeline(pop, stages)
        assert result.stages[1].pulls == 0
        assert result.stages[1].spend_milli == 0

    def test_partial_coverage_warning(self):
        pop = identity_pop(self.labels)
        stages = small_stages(20, (12, 8, 5))
        stages[1] = StageSpec(index=2, budget_milli=90 * 5, cohort_out=8)
        with pytest.warns(UserWarning, match="5 pulls for 12 survivors"):
            run_pipeline(pop, stages)

    def test_deterministic(self):
        pop = synth_population(60, 12, seed=5)
        stages = default_stages(60, k=(40, 20, 10))
        assert run_pipeline(pop, stages, seed=9) == run_pipeline(pop, stages, seed=9)
        a = run_pipeline(pop, stages, seed=9, policy="ucb")
        b = run_pipeline(pop, stages, seed=9, policy="ucb")
        assert a == b

    def test_seeds_must_be_integers(self):
        # a float seed would be truncated and a string one hashed as a tag
        pop = synth_population(60, 12, seed=5)
        stages = default_stages(60, k=(40, 20, 10))
        for seed, message in [(1.9, "must be an integer"), ("7", "must be an integer"),
                              (True, "must be an integer"), (2**64 + 1, "18446744073709551617 outside"),
                              (-2**63 - 1, "-9223372036854775809 outside")]:
            with pytest.raises(ConfigurationError, match=f"^seed {message}"):
                run_pipeline(pop, stages, seed=seed)
            with pytest.raises(ConfigurationError, match=f"^seed {message}"):
                run_baseline("1Expert", pop, seed=seed)
            with pytest.raises(ConfigurationError, match=f"^seed {message}"):
                SeedBatch(pop, [3, seed], np.stack([pop.true_risk] * 2))
        assert run_pipeline(pop, stages, seed=np.int64(9)) == run_pipeline(pop, stages, seed=9)
        assert run_baseline("1Expert", pop, seed=np.uint32(9)) == run_baseline("1Expert", pop, seed=9)

    def test_batch_needs_one_true_label_table_row_per_seed(self):
        pop = synth_population(20, 5, seed=1)
        for true_risk in (pop.true_risk, np.stack([pop.true_risk] * 3), pop.true_risk[None, :19],
                          np.zeros((0, 20))):
            with pytest.raises(ValidationError, match=r"^true_risk: need at least one seed and a"):
                SeedBatch(pop, [3, 4], true_risk)
        with pytest.raises(ValidationError, match=r"a \(0, 20\) table of true labels, got \(0, 20\)"):
            SeedBatch(pop, [], np.zeros((0, 20)))

    def test_batch_true_labels_must_be_integers(self):
        pop = synth_population(20, 5, seed=1)
        for true_risk in (np.stack([pop.true_risk] * 2) + 0.0, np.stack([pop.true_risk] * 2).astype(np.uint64) + 2**63):
            with pytest.raises(ConfigurationError, match=r"^true_risk (must be an integer|\d+ outside)"):
                SeedBatch(pop, [3, 4], true_risk)

    def test_batch_true_labels_lie_in_0_to_3(self):
        pop = synth_population(20, 5, seed=1)
        for bad in (9, -1, 4):
            true_risk = np.stack([pop.true_risk] * 2)
            true_risk[1, 7] = bad
            with pytest.raises(ValidationError, match=rf"^true_risk: true labels must lie in 0\.\.3, got {bad}$"):
                SeedBatch(pop, [3, 4], true_risk)

    def test_needs_a_stage(self):
        with pytest.raises(ValidationError, match="^stages: need at least one stage$"):
            run_pipeline(identity_pop(self.labels), [])

    def test_duplicate_stage_indices_rejected(self):
        pop = identity_pop(self.labels)
        stages = small_stages(20, (12, 8, 5))
        stages[2] = StageSpec(index=2, budget_milli=5350 * 8, cohort_out=5)
        with pytest.raises(ValidationError, match=r"stage indices must be distinct, got \[1, 2, 2\]"):
            run_pipeline(pop, stages)

    def test_unknown_encoding_fails_before_any_pull(self):
        pop = identity_pop(self.labels)
        with pytest.raises(ConfigurationError, match="encoding"):
            run_pipeline(pop, small_stages(20, (12, 8, 5), scale=0), encoding="quadratic")

    def test_beats_single_expert_subsample(self):
        wins = 0
        for seed in range(5):
            pop = synth_population(242, 42, seed=seed)
            result = run_pipeline(pop, default_stages(242), seed=seed)
            base = run_baseline("1Expert-Sub", pop, seed=seed)
            if metrics(result, pop).pop_sensitivity > metrics(base, pop).pop_sensitivity:
                wins += 1
        assert wins >= 4


@st.composite
def screens(draw):
    """A small synthetic or replay population and 1-3 stages whose budgets
    fund from 0 to about 4 passes over their survivors."""
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):
        pop = synth_population(n, draw(st.integers(1, n - 1)), seed=draw(st.integers(0, 99)))
    else:
        labels = st.lists(st.sampled_from(list(RiskLabel)), min_size=1, max_size=4).map(tuple)
        recorded = {3 * i + 1: {s: draw(labels) for s in (1, 2, 3)}
                    for i in draw(st.permutations(range(n)))}
        pop = triage._replay_population({i: (0.25,) * 4 for i in recorded}, recorded)
    return pop, draw(stage_lists(n))


@st.composite
def stage_lists(draw, n):
    """1-3 stages for n people whose budgets fund from 0 to about 4 passes
    over their survivors, in either order."""
    indices = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)))
    stages, alive = [], n
    for i in indices:
        cost = STAGE_COSTS_MILLI[i - 1]
        budget = cost * draw(st.integers(0, 4 * alive)) + draw(st.integers(0, cost - 1))
        alive = draw(st.integers(1, alive))
        stages.append(StageSpec(index=i, budget_milli=budget, cohort_out=alive))
    return stages[::-1] if draw(st.booleans()) else stages


@settings(derandomize=True, max_examples=200, deadline=None)
@given(screen=screens(), policy=st.sampled_from(["round_robin", "ucb"]),
       encoding=st.sampled_from(sorted(ENCODINGS)), seed=st.integers(0, 2**20))
def test_pipeline_matches_dict_oracle(screen, policy, encoding, seed):
    pop, stages = screen
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = run_pipeline(pop, stages, policy=policy, seed=seed, encoding=encoding)
    ref = triage_pipeline(pop, stages, policy, encoding, substream(seed, "pipeline"))
    assert result.final_cohort == frozenset(ref["final_cohort"])
    assert result.evaluated == ref["evaluated"]
    assert result.expert_severe == ref["expert_severe"]
    assert [(o.index, o.pulls, o.spend_milli, o.survivors, o.u_hat)
            for o in result.stages] == ref["stages"]
    assert result.spend_milli == sum(spend for _, _, spend, _, _ in ref["stages"])


@st.composite
def replay_populations(draw, n):
    """A replay population of n people with ids of one and two 32-bit words,
    1 to 4 recorded labels per stage, and machine vectors with and without
    ties for the top probability."""
    ids = draw(st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**62)),
                        min_size=n, max_size=n, unique=True))
    labels = st.lists(st.sampled_from(list(RiskLabel)), min_size=1, max_size=4).map(tuple)
    vectors = st.sampled_from([(0.25,) * 4, (0.1, 0.2, 0.3, 0.4), (0.4, 0.0, 0.2, 0.4), (0.7, 0.1, 0.1, 0.1),
                               (0.0, 0.0, 0.5, 0.5)])
    return triage._replay_population({i: draw(vectors) for i in ids},
                                     {i: {s: draw(labels) for s in (1, 2, 3)} for i in ids})


@st.composite
def seed_batches(draw, n_min=2, n_max=9):
    """1 to 3 seeds with one population each, all on one roster: a synthetic
    population per seed, or one replay population shared by every seed."""
    n = draw(st.integers(n_min, n_max))
    seeds = draw(st.lists(st.integers(0, 2**62), min_size=1, max_size=3))
    if draw(st.booleans()):
        severe = draw(st.integers(1, n - 1))
        pops = [synth_population(n, severe, seed=draw(st.integers(0, 99))) for _ in seeds]
    else:
        pops = [draw(replay_populations(n))] * len(seeds)
    return pops, seeds


def batch_of(pops, seeds):
    """The batch of populations on one roster (synthetic ones of one size and
    noise share ids and confusion): the first one, with each one's true labels."""
    return SeedBatch(pops[0], seeds, np.stack([p.true_risk for p in pops]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=seed_batches(), data=st.data(), policy=st.sampled_from(["round_robin", "ucb"]),
       encoding=st.sampled_from(sorted(ENCODINGS)))
def test_pipeline_batch_rows_equal_single_runs(case, data, policy, encoding):
    # a batch of seeds is the single runs side by side, and so are its metrics
    pops, seeds = case
    stages = data.draw(stage_lists(len(pops[0].ids)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        batch = batch_of(pops, seeds)
        res = run_pipeline_batch(batch, stages, policy, encoding)
        singles = [run_pipeline(pop, stages, policy, seed, encoding) for pop, seed in zip(pops, seeds)]
    assert isinstance(res, PipelineResult) and all(isinstance(o, StageOutcome) for o in res.stages)
    for b, (pop, single) in enumerate(zip(pops, singles)):
        ids = pop.ids
        assert [(i, p, spend, tuple(ids[rows[b]].tolist()), dict(zip(ids[rows[b]].tolist(), u[b].tolist())))
                for i, p, spend, rows, u in res.stages] == [
            (o.index, o.pulls, o.spend_milli, o.survivors, o.u_hat) for o in single.stages]
        assert set(ids[res.evaluated[b]].tolist()) == single.evaluated
        assert set(ids[res.final_cohort[b]].tolist()) == single.final_cohort
        assert set(ids[res.expert_severe[b]].tolist()) == single.expert_severe
        assert res.spend_milli == single.spend_milli
        for mode in ("mab", "mab_star"):
            assert set(ids[res.positives(mode)[b]].tolist()) == single.positives(mode)
            assert metrics_batch(res, batch, mode)[b] == metrics(single, pop, mode)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=seed_batches(n_max=130))
def test_baselines_match_dict_oracle(case):
    pops, seeds = case
    batch = batch_of(pops, seeds)
    for name in BASELINES:
        if name in COHORT_BASELINES and len(pops[0].ids) < SUB_COHORT:
            with pytest.raises(ConfigurationError, match="cohort"):
                run_baseline_batch(name, batch)
            continue
        res = run_baseline_batch(name, batch)
        assert isinstance(res, BaselineResult)
        for b, (pop, seed) in enumerate(zip(pops, seeds)):
            ref = triage_baseline(name, pop, seed, substream)
            single = run_baseline(name, pop, seed)
            assert (single.evaluated, single.positives(), single.spend_milli, single.n_evaluations) == (
                ref["evaluated"], ref["positives"], ref["spend_milli"], ref["n_evaluations"]), name
            assert set(pop.ids[res.evaluated[b]].tolist()) == ref["evaluated"]
            assert set(pop.ids[res.positives()[b]].tolist()) == ref["positives"]
            assert (res.spend_milli, res.n_evaluations) == (ref["spend_milli"], ref["n_evaluations"])
            assert metrics_batch(res, batch)[b] == metrics(single, pop)


def true_risk_by_id(pop):
    return {i: RiskLabel(t) for i, t in zip(pop.ids.tolist(), pop.true_risk.tolist())}


@st.composite
def confusion_cases(draw):
    """A 3 x 4 x 4 confusion table whose rows may sum below 1, and uniforms
    that include every cumulative sum of the rows."""
    table = []
    for _ in range(12):
        row = draw(st.lists(st.floats(0, 1), min_size=4, max_size=4))
        total = sum(row) / draw(st.sampled_from([1.0, 0.9, 0.5]))
        table.append([p / total for p in row] if total > 1 else row)
    sums = [sum(row[:k + 1]) for row in table for k in range(4)]
    u = draw(st.lists(st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from(sums)),
                      min_size=1, max_size=12))
    return np.array(table).reshape(3, 4, 4), u


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=confusion_cases(), reverse=st.booleans())
def test_synthetic_label_rule_matches_walk(case, reverse):
    confusion, u = case
    rows = confusion.reshape(12, 4)
    for row in rows.tolist():  # the cumulative sums the rule reads are the walk's running sums
        assert np.cumsum(row).tolist() == [sum(row[:k + 1]) for k in range(4)]
    # one uniform per row (the rater labels)
    picked = triage._confusion_labels(rows[np.arange(len(u)) % 12], np.array(u))
    assert picked.tolist() == [confusion_walk(rows[j % 12].tolist(), x) for j, x in enumerate(u)]
    # a pipeline stage's table over its one draw of uniforms, read by survivor and pull
    true_risk = np.arange(len(u) + 3) % 4
    pop = Population(ids=np.arange(len(true_risk)) * 2, true_risk=true_risk, confusion=confusion)
    survivors = np.arange(len(true_risk))[::-1 if reverse else 1]
    draw = SimpleNamespace(random=lambda size: np.array(u[:size]))
    batch = SeedBatch(pop, [0], pop.true_risk[None])
    for stage in (1, 2, 3):
        label = triage._stage_rule(batch, stage, survivors[None], [draw], len(u))
        for k, r in enumerate(survivors.tolist()):
            row = confusion[stage - 1][true_risk[r]].tolist()
            assert label(k, np.arange(len(u)), 0.0).tolist() == [confusion_walk(row, x) for x in u]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(records=st.dictionaries(
           st.integers(-2**40, 2**62), st.dictionaries(
               st.sampled_from([1, 2, 3]), st.lists(st.sampled_from(list(RiskLabel)), min_size=1,
                                                    max_size=5), min_size=3),
           min_size=1, max_size=6),
       cursors=st.lists(st.integers(0, 50), min_size=1, max_size=8))
def test_replay_label_rule_reads_recorded_cyclically(records, cursors):
    pop = triage._replay_population({i: (0.25,) * 4 for i in records}, records)
    batch = SeedBatch(pop, [0], pop.true_risk[None])
    rows = np.arange(len(pop.ids))[None]
    for stage in (1, 2, 3):
        label = triage._stage_rule(batch, stage, rows, [substream(0, "unused")], 0)
        for k, i in enumerate(pop.ids.tolist()):
            recorded = records[i][stage]
            assert [label(k, 0, np.float64(c)) for c in cursors] == [recorded[c % len(recorded)] for c in cursors]
            assert label(np.full(len(cursors), k), None, np.array(cursors, dtype=float)).tolist() == [
                recorded[c % len(recorded)] for c in cursors]


def test_missing_recorded_stage_message():
    pop = triage._replay_population({4: (0.25,) * 4, 7: (0.25,) * 4},
                                    {4: {1: (RiskLabel.LOW,), 2: (RiskLabel.NO,)}, 7: {1: (RiskLabel.NO,)}})
    message = r"^recorded: individual 7 has no recorded stage-2 labels$"
    batch = SeedBatch(pop, [0], pop.true_risk[None])
    with pytest.raises(ValidationError, match=message):
        triage._stage_rule(batch, 2, np.arange(2)[None], [substream(0, "unused")], 0)
    with pytest.raises(ValidationError, match=message):
        batch.rater_labels(np.arange(2)[None], 2, "expert")
    assert batch.rater_labels(np.array([[0]]), 2, "expert").tolist() == [[RiskLabel.NO]]
    with pytest.raises(ValidationError, match=r"^recorded: individual 4 has no recorded stage-3 labels$"):
        run_baseline("1Expert", pop)
    stage = StageSpec(index=2, budget_milli=2 * 90, cohort_out=1)
    with pytest.raises(ValidationError, match=message):
        run_pipeline(pop, [stage])
    # a survivor the budget never reaches needs no labels
    with pytest.warns(UserWarning, match="1 pulls for 2 survivors"):
        result = run_pipeline(pop, [StageSpec(index=2, budget_milli=90, cohort_out=1)])
    assert result.evaluated == frozenset({4})


def test_baseline_reads_recorded_labels_only_of_the_people_it_rates():
    # 120 people with 1 to 3 recorded labels per stage; person 61 has no expert (stage-3) labels
    records = {i: {s: tuple(RiskLabel((i * s + r) % 4) for r in range(1 + (i + s) % 3)) for s in (1, 2, 3)}
               for i in range(1, 121)}
    del records[61][3]
    pop = triage._replay_population({i: (0.25,) * 4 for i in records}, records)
    row = int(np.flatnonzero(pop.ids == 61)[0])
    seed = next(s for s in range(50) if row not in SeedBatch(pop, [s], pop.true_risk[None]).cohort()[0])
    batch = SeedBatch(pop, [seed], pop.true_risk[None])
    result = run_baseline_batch("1Expert-Sub", batch)
    rated = batch.cohort()[0]
    assert result.evaluated[0].tolist() == np.isin(np.arange(120), rated).tolist()
    for r in rated.tolist():
        labels = records[int(pop.ids[r])][3]
        label = labels[int(substream(seed, int(pop.ids[r]), "expert").integers(0, len(labels)))]
        assert result.positives()[0, r] == (label == RiskLabel.SEVERE)
    with pytest.raises(ValidationError, match=r"^recorded: individual 61 has no recorded stage-3 labels$"):
        run_baseline_batch("1Expert", batch)


class TestLoadEvaluations:
    @staticmethod
    def write_machine(path, rows):
        lines = ["id,p_no,p_low,p_mod,p_sev"] + rows
        path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def write_human(path, rows):
        lines = ["id,rater_id,stage,label"] + rows
        path.write_text("\n".join(lines) + "\n")

    def test_machine_only(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", [
            "1,0.7,0.1,0.1,0.1", "2,0.0,0.0,0.2,0.8", "3,0.1,0.6,0.2,0.1",
        ])
        self.write_human(tmp_path / "human.csv", [])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        assert pop.kind == "replay"
        assert tuple(pop.ids.tolist()) == (1, 2, 3)
        by_id = true_risk_by_id(pop)
        assert by_id[1] is RiskLabel.NO
        assert by_id[2] is RiskLabel.SEVERE

    @pytest.mark.parametrize("kind", ["human", "machine"])
    def test_file_not_utf8_is_a_parse_error(self, tmp_path, kind):
        self.write_machine(tmp_path / "machine.csv", ["1,0.7,0.1,0.1,0.1"])
        self.write_human(tmp_path / "human.csv", [])
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(path.read_bytes() + b"2,\xff\xfe,0.1,0.1,0.1\n")
        with pytest.raises(ParseError, match=f"{kind} file is not UTF-8 text"):
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")

    @pytest.mark.parametrize("kind", ["human", "machine"])
    def test_directory_is_a_configuration_error(self, tmp_path, kind):
        self.write_machine(tmp_path / "machine.csv", ["1,0.7,0.1,0.1,0.1"])
        self.write_human(tmp_path / "human.csv", [])
        paths = {"human": tmp_path / "human.csv", "machine": tmp_path / "machine.csv", kind: tmp_path}
        with pytest.raises(ConfigurationError, match=f"{kind} file .* is a directory, not a file"):
            load_evaluations(paths["human"], paths["machine"])

    def test_expert_records_define_truth(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", [
            "1,0.7,0.1,0.1,0.1", "2,0.1,0.1,0.1,0.7",
        ])
        self.write_human(tmp_path / "human.csv", [
            "1,7,3,severe", "1,8,3,severe", "1,9,3,low",
            "2,7,3,no",
        ])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        by_id = true_risk_by_id(pop)
        assert by_id[1] is RiskLabel.SEVERE
        assert by_id[2] is RiskLabel.NO

    def test_modal_tie_prefers_less_severe(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", ["1,0.25,0.25,0.25,0.25"])
        self.write_human(tmp_path / "human.csv", ["1,7,3,severe", "1,8,3,low"])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        assert true_risk_by_id(pop)[1] is RiskLabel.LOW

    def test_u_hat_after_one_expert_pull(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", [
            "1,0.7,0.1,0.1,0.1", "2,0.1,0.1,0.1,0.7", "3,0.1,0.2,0.6,0.1",
        ])
        self.write_human(tmp_path / "human.csv", [
            "1,7,3,no", "2,7,3,severe", "3,7,3,moderate",
        ])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        stage = StageSpec(index=3, budget_milli=3 * 5350, cohort_out=2)
        result = run_pipeline(pop, [stage])
        u_hat = result.stages[0].u_hat
        assert u_hat[2] == ENCODINGS["linear"][RiskLabel.SEVERE]
        assert u_hat[3] == pytest.approx(ENCODINGS["linear"][RiskLabel.MODERATE])
        assert result.final_cohort == frozenset({2, 3})

    def test_weighted_mean_across_stages(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", [
            "1,0.7,0.1,0.1,0.1", "2,0.1,0.1,0.1,0.7", "3,0.1,0.2,0.6,0.1",
        ])
        self.write_human(tmp_path / "human.csv", [
            "1,7,1,severe", "1,7,2,no",
            "2,7,1,severe", "2,7,2,severe",
            "3,7,1,no", "3,7,2,no",
        ])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        stages = [
            StageSpec(index=1, budget_milli=3, cohort_out=2),
            StageSpec(index=2, budget_milli=180, cohort_out=1),
        ]
        result = run_pipeline(pop, stages)
        assert result.stages[1].u_hat[2] == pytest.approx(1.0)
        assert result.final_cohort == frozenset({2})
        outcome1 = result.stages[0]
        assert outcome1.u_hat[1] == pytest.approx(1.0)
        assert outcome1.u_hat[2] == pytest.approx(1.0)

    def test_probability_sum_checked(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", [
            "1,0.7,0.1,0.1,0.1", "2,0.5,0.5,0.5,0.5",
        ])
        self.write_human(tmp_path / "human.csv", [])
        with pytest.raises(ParseError, match="line 3") as err:
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        assert err.value.line == 3

    def test_bad_headers(self, tmp_path):
        (tmp_path / "machine.csv").write_text("id,a,b,c,d\n")
        self.write_human(tmp_path / "human.csv", [])
        with pytest.raises(ParseError, match="machine header"):
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        self.write_machine(tmp_path / "machine.csv", ["1,1,0,0,0"])
        (tmp_path / "human.csv").write_text("id,stage,label\n")
        with pytest.raises(ParseError, match="human header"):
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")

    def test_blank_rows_skipped_and_field_count_checked(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", ["1,1,0,0,0", "", "2,0,0,0,1"])
        self.write_human(tmp_path / "human.csv", [])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        assert pop.ids.tolist() == [1, 2] and pop.true_risk.tolist() == [0, 3]
        self.write_human(tmp_path / "human.csv", ["1,7,3,severe", "", "2,7,3"])
        with pytest.raises(ParseError, match="expected 4 fields, got 3") as err:
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        assert err.value.line == 4

    def test_duplicate_machine_id(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", ["1,1,0,0,0", "1,0,1,0,0"])
        self.write_human(tmp_path / "human.csv", [])
        with pytest.raises(ParseError, match="duplicate id 1"):
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_probabilities_must_be_finite(self, tmp_path, bad):
        # a NaN passes a sum check, and np.argmax would pick it as the machine label
        self.write_machine(tmp_path / "machine.csv", [f"1,{bad},0,0,1", "2,0,0,0,1"])
        self.write_human(tmp_path / "human.csv", [])
        with pytest.raises(ParseError, match="probabilities for id 1 must be finite") as err:
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        assert err.value.line == 2

    def test_ids_must_fit_64_bits(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", [f"{2**63 - 1},1,0,0,0", f"{2**63},1,0,0,0"])
        self.write_human(tmp_path / "human.csv", [])
        with pytest.raises(ParseError, match="id 9223372036854775808 outside") as err:
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        assert err.value.line == 3

    def test_id_sets_must_agree(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", ["1,1,0,0,0", "2,0,1,0,0"])
        self.write_human(tmp_path / "human.csv", ["1,7,3,severe", "3,7,3,low"])
        with pytest.raises(ReferentialError, match=r"\[3\]"):
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")

    def test_bad_label_and_stage(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", ["1,1,0,0,0"])
        self.write_human(tmp_path / "human.csv", ["1,7,3,mild"])
        with pytest.raises(ParseError, match="unknown risk label"):
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        self.write_human(tmp_path / "human.csv", ["1,7,4,severe"])
        with pytest.raises(ParseError, match="stage must be"):
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")


class TestBaselines:
    def test_default_baselines_draw_each_label_once(self, monkeypatch):
        real_raw, real_sub, labels, cohorts = rng.substream_raw, triage.substream, [], []

        def counted_raw(*path, draws=1):
            labels.append(np.broadcast(*path).size)
            return real_raw(*path, draws=draws)

        monkeypatch.setattr(rng, "substream_raw", counted_raw)
        monkeypatch.setattr(triage, "substream", lambda *path: cohorts.append(path) or real_sub(*path))
        for n, n_severe in ((242, 42), (5000, 833)):
            batch = batch_of([synth_population(n, n_severe, seed=s) for s in (42, 43, 44)], [42, 43, 44])
            labels.clear(), cohorts.clear()
            for name in BASELINES:
                run_baseline_batch(name, batch)
            # per seed: n NLP labels, n expert labels, each in one pass, and one cohort draw
            assert labels == [3 * n, 3 * n] and len(cohorts) == 3
        # a fresh batch derives everyone's labels of the one rater it reads
        fresh = batch_of([synth_population(242, 42, seed=42)], [42])
        labels.clear(), cohorts.clear()
        run_baseline_batch("1Expert-Sub", fresh)
        assert labels == [242] and len(cohorts) == 1

    def test_batch_labels_equal_one_substream_per_label(self):
        seeds = (2**61 + 9, 5, 2**32 + 1)
        pops = [synth_population(242, 42, seed=s) for s in seeds]
        batch = batch_of(pops, seeds)
        rows = np.tile(np.arange(242), (3, 1))
        for stage, tag in ((1, "nlp"), (3, "expert")):
            got = batch.rater_labels(rows[:, ::-3], stage, tag)  # any rows, in any order
            assert got.tolist() == [[
                triage._confusion_labels(pop.confusion[stage - 1][pop.true_risk[r]],
                                         np.array(substream(seed, int(pop.ids[r]), tag).random()))
                for r in range(241, -1, -3)] for seed, pop in zip(seeds, pops)]
        # replay: ids of one and two 32-bit words, 1 to 7 recorded labels each
        gen = substream(3, "replay-test")
        records = {int(i): {3: tuple(RiskLabel(int(x)) for x in gen.integers(0, 4, size=1 + int(i) % 7))}
                   for i in (*range(60), *gen.integers(2**32, 2**62, size=20))}
        replay = triage._replay_population({i: (0.25,) * 4 for i in records}, records)
        seeds = (0, 7, 2**40 + 1)
        got = batch_of([replay] * 3, seeds).rater_labels(
            np.tile(np.arange(len(replay.ids)), (3, 1)), 3, "expert")
        for seed, row in zip(seeds, got.tolist()):
            for i, lab in zip(replay.ids.tolist(), row):
                recorded = records[i][3]
                assert RiskLabel(lab) is recorded[int(substream(seed, i, "expert").integers(0, len(recorded)))]

    def test_four_experts_exact_cost(self):
        pop = synth_population(242, 42, seed=0)
        result = run_baseline("4Experts", pop)
        assert result.n_evaluations == 968
        assert result.spend_milli == 5_178_800
        assert dollars(result.spend_milli) == 5178.80
        scores = metrics(result, pop)
        assert scores.pop_sensitivity == 1.0
        assert scores.pop_precision == 1.0
        assert scores.pop_specificity == 1.0

    def test_one_expert_full_coverage(self):
        pop = synth_population(242, 42, seed=0)
        result = run_baseline("1Expert", pop, seed=0)
        assert result.evaluated == frozenset(pop.ids)
        assert result.n_evaluations == 242
        assert result.spend_milli == 242 * 5350

    def test_one_expert_sensitivity_near_calibration(self):
        sens = []
        for seed in range(30):
            pop = synth_population(242, 42, seed=seed)
            result = run_baseline("1Expert", pop, seed=seed)
            sens.append(metrics(result, pop).pop_sensitivity)
        assert abs(np.mean(sens) - 0.9) < 0.04

    def test_subsample_variants(self):
        pop = synth_population(242, 42, seed=3)
        one = run_baseline("1Expert-Sub", pop, seed=3)
        assert len(one.evaluated) == 100
        assert one.spend_milli == 100 * 5350
        four = run_baseline("4Experts-Sub", pop, seed=3)
        assert four.evaluated == one.evaluated
        assert four.spend_milli == 4 * 100 * 5350
        assert metrics(four, pop).cohort_sensitivity == 1.0
        nlp = run_baseline("NLP-Sub", pop, seed=3)
        assert nlp.evaluated == one.evaluated
        assert nlp.spend_milli == 100

    def test_nlp_full(self):
        pop = synth_population(242, 42, seed=1)
        result = run_baseline("NLP-Full", pop, seed=1)
        assert result.evaluated == frozenset(pop.ids)
        assert result.spend_milli == 242

    def test_nlp_top_k_degenerate(self):
        pop = synth_population(60, 12, seed=2)
        result = run_baseline("NLP-Top-k", pop, seed=2)  # the top 100 of 60 is everyone
        assert result.positives() == frozenset(pop.ids)

    def test_nlp_top_k_default_size(self):
        pop = synth_population(242, 42, seed=2)
        result = run_baseline("NLP-Top-k", pop, seed=2)
        assert len(result.positives()) == 100
        assert result.spend_milli == 242

    def test_nlp_then_expert(self):
        pop = synth_population(242, 42, seed=4)
        result = run_baseline("NLP-Top-100+1Expert-Sub", pop, seed=4)
        assert result.spend_milli == 242 + 100 * 5350
        assert result.n_evaluations == 342

    def test_replay_nlp_uses_machine_probs(self, tmp_path):
        TestLoadEvaluations.write_machine(tmp_path / "machine.csv", [
            "1,0.0,0.0,0.1,0.9", "2,0.9,0.1,0.0,0.0", "3,0.2,0.2,0.3,0.3",
        ])
        TestLoadEvaluations.write_human(tmp_path / "human.csv", [])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        result = run_baseline("NLP-Full", pop)
        assert result.positives() == frozenset({1})
        ranked = triage._nlp_ranked(SeedBatch(pop, [0], pop.true_risk[None]))[0]
        assert pop.ids[ranked].tolist() == [1, 3, 2]

    def test_cohort_cannot_exceed_population(self):
        pop = synth_population(20, 5, seed=0)
        with pytest.raises(ConfigurationError,
                           match="baseline '1Expert-Sub' evaluates a 100-person cohort, more than n = 20"):
            run_baseline("1Expert-Sub", pop)

    def test_unknown_baseline(self):
        pop = synth_population(20, 5, seed=0)
        with pytest.raises(ConfigurationError, match="unknown baseline"):
            run_baseline("2Experts", pop)
        assert "4Experts" in BASELINES and len(BASELINES) == 8


class TestMetrics:
    def test_sensitivity_three_of_four(self):
        labels = [RiskLabel.SEVERE] * 4 + [RiskLabel.NO] * 4
        pop = identity_pop(labels)
        result = BaselineResult(name="x", evaluated=frozenset(pop.ids),
                                _positives=frozenset({0, 1, 2}),
                                spend_milli=0, n_evaluations=8)
        scores = metrics(result, pop)
        assert scores.population.tp == 3 and scores.population.fn == 1
        assert scores.pop_sensitivity == 0.75
        assert scores.pop_precision == 1.0

    def test_all_severe_missed(self):
        pop = synth_population(242, 42, seed=0)
        severe = set(pop.ids[pop.true_risk == RiskLabel.SEVERE].tolist())
        cohort = frozenset(list(sorted(set(pop.ids.tolist()) - severe))[:58] + sorted(severe))
        result = BaselineResult(name="x", evaluated=cohort, _positives=frozenset(),
                                spend_milli=0, n_evaluations=100)
        scores = metrics(result, pop)
        assert scores.pop_sensitivity == 0.0
        counts = scores.cohort
        assert counts.tp + counts.fp + counts.fn + counts.tn == 100
        assert counts.fn == 42

    def test_undefined_rates_are_none(self):
        pop = identity_pop([RiskLabel.NO, RiskLabel.LOW, RiskLabel.MODERATE])
        result = BaselineResult(name="x", evaluated=frozenset(), _positives=frozenset(),
                                spend_milli=0, n_evaluations=0)
        scores = metrics(result, pop)
        assert scores.pop_sensitivity is None
        assert scores.pop_precision is None
        assert scores.pop_specificity == 1.0
        assert scores.cohort_sensitivity is None

    def test_positive_modes(self):
        result = PipelineResult(final_cohort=frozenset({1, 2}), evaluated=frozenset({1, 2, 3}),
                                expert_severe=frozenset({2, 3}), stages=(), spend_milli=0)
        assert result.positives("mab") == frozenset({1, 2})
        assert result.positives("mab_star") == frozenset({2})
        with pytest.raises(ConfigurationError, match="mode"):
            result.positives("map")
