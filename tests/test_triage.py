import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statebandits import (
    BASELINES,
    ConfigurationError,
    Individual,
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
from statebandits import triage
from statebandits.triage import ENCODINGS, STAGE_COSTS_MILLI, STAGE_GAINS, SUB_COHORT, BaselineResult

from _oracles import triage_pipeline


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


class TestSynthPopulation:
    def test_label_counts(self):
        pop = synth_population(242, 42, seed=0)
        counts = {lab: 0 for lab in RiskLabel}
        for ind in pop.individuals:
            counts[ind.true_risk] += 1
        assert counts[RiskLabel.SEVERE] == 42
        assert counts[RiskLabel.NO] == 100
        assert counts[RiskLabel.LOW] == 60
        assert counts[RiskLabel.MODERATE] == 40

    def test_same_seed_identical(self):
        assert synth_population(50, 10, seed=3) == synth_population(50, 10, seed=3)
        a = [i.true_risk for i in synth_population(50, 10, seed=3).individuals]
        b = [i.true_risk for i in synth_population(50, 10, seed=4).individuals]
        assert a != b

    def test_confusion_rows(self):
        pop = synth_population(20, 5, stage_noise=(0.45, 0.30, 0.10), seed=1)
        ind = next(i for i in pop.individuals if i.true_risk == RiskLabel.SEVERE)
        row3 = pop.confusion[2][ind.true_risk]
        assert row3[int(RiskLabel.SEVERE)] == pytest.approx(0.90)
        assert row3[int(RiskLabel.NO)] == pytest.approx(0.10 / 3)
        assert sum(pop.confusion[0][ind.true_risk]) == pytest.approx(1.0)

    def test_kind_follows_confusion(self):
        assert synth_population(20, 5, seed=1).kind == "synthetic"
        assert Population(individuals=(Individual(id=1, true_risk=RiskLabel.NO),)).kind == "replay"
        row = (0.25,) * 4
        for bad in (((row,) * 4,) * 2, ((row,) * 3,) * 3, (((0.5,) * 2,) * 4,) * 3):
            with pytest.raises(ValidationError, match="confusion"):
                Population(individuals=(), confusion=bad)

    def test_noiseless_final_stage(self):
        pop = synth_population(20, 5, stage_noise=(0.45, 0.30, 0.0), seed=2)
        rng = substream(0, "check")
        for ind in pop.individuals[:10]:
            assert pop.pull_label(ind, 3, 0, rng) is ind.true_risk

    def test_noise_must_decrease(self):
        with pytest.raises(ValidationError, match="strictly decreasing"):
            synth_population(20, 5, stage_noise=(0.30, 0.30, 0.10))

    def test_severe_count_bounds(self):
        with pytest.raises(ValidationError, match="n_severe"):
            synth_population(20, 0)
        with pytest.raises(ValidationError, match="n_severe"):
            synth_population(20, 20)

    def test_duplicate_ids_rejected(self):
        ind = Individual(id=1, true_risk=RiskLabel.NO)
        with pytest.raises(ValidationError, match="duplicate"):
            Population(individuals=(ind, ind))


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

    def test_553_ignores_scheme(self):
        assert allocation_budgets(553, "more3") == (18_000, 535_000)

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

    def test_default_stages_validation(self):
        with pytest.raises(ValidationError, match="cohort_out"):
            default_stages(242, k=(200, 100, 150))
        with pytest.raises(ValidationError, match="cohort_out"):
            default_stages(100, k=(200, 100, 50))
        stages = default_stages(242, k=(200, 100, 100))
        assert [s.cohort_out for s in stages] == [200, 100, 100]


def identity_pop(labels):
    """Population whose every stage reports the true label with certainty."""
    rows = tuple(tuple(1.0 if k == lab else 0.0 for k in RiskLabel) for lab in RiskLabel)
    individuals = tuple(Individual(id=i, true_risk=lab) for i, lab in enumerate(labels))
    return Population(individuals=individuals, confusion=(rows, rows, rows))


def small_stages(n, k, scale=10):
    k1, k2, k3 = k
    budgets = (n * 1 * scale, k1 * 90 * scale, k2 * 5350 * scale)
    return [
        StageSpec(index=i + 1, cost_milli=STAGE_COSTS_MILLI[i], gain=STAGE_GAINS[i],
                  budget_milli=budgets[i], cohort_out=k[i])
        for i in range(3)
    ]


class TestPipeline:
    labels = ([RiskLabel.SEVERE] * 5 + [RiskLabel.MODERATE] * 5
              + [RiskLabel.LOW] * 5 + [RiskLabel.NO] * 5)

    def test_noiseless_selects_highest_risk(self):
        pop = identity_pop(self.labels)
        for policy in ("round_robin", "ucb"):
            result = run_pipeline(pop, small_stages(20, (12, 8, 5), scale=1), policy=policy)
            assert result.final_cohort == (0, 1, 2, 3, 4)
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
        stages[1] = StageSpec(index=2, cost_milli=90, gain=10.0,
                              budget_milli=10_000, cohort_out=15)
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
        stages[1] = StageSpec(index=2, cost_milli=90, gain=10.0,
                              budget_milli=10, cohort_out=8)
        with pytest.warns(UserWarning, match="no pulls"):
            result = run_pipeline(pop, stages)
        assert result.stages[1].pulls == 0
        assert result.stages[1].spend_milli == 0

    def test_partial_coverage_warning(self):
        pop = identity_pop(self.labels)
        stages = small_stages(20, (12, 8, 5))
        stages[1] = StageSpec(index=2, cost_milli=90, gain=10.0,
                              budget_milli=90 * 5, cohort_out=8)
        with pytest.warns(UserWarning, match="5 pulls for 12 survivors"):
            run_pipeline(pop, stages)

    def test_deterministic(self):
        pop = synth_population(60, 12, seed=5)
        stages = default_stages(60, k=(40, 20, 10))
        assert run_pipeline(pop, stages, seed=9) == run_pipeline(pop, stages, seed=9)
        a = run_pipeline(pop, stages, seed=9, policy="ucb")
        b = run_pipeline(pop, stages, seed=9, policy="ucb")
        assert a == b

    def test_duplicate_stage_indices_rejected(self):
        pop = identity_pop(self.labels)
        stages = small_stages(20, (12, 8, 5))
        stages[2] = StageSpec(index=2, cost_milli=5350, gain=100.0,
                              budget_milli=5350 * 8, cohort_out=5)
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
        pop = Population(individuals=tuple(
            Individual(id=3 * i + 1, true_risk=RiskLabel.NO,
                       recorded={s: draw(labels) for s in (1, 2, 3)}, machine_probs=(0.25,) * 4)
            for i in draw(st.permutations(range(n)))))
    indices = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)))
    stages, alive = [], n
    for i in indices:
        cost = STAGE_COSTS_MILLI[i - 1]
        budget = cost * draw(st.integers(0, 4 * alive)) + draw(st.integers(0, cost - 1))
        alive = draw(st.integers(1, alive))
        stages.append(StageSpec(index=i, cost_milli=cost, gain=STAGE_GAINS[i - 1],
                                budget_milli=budget, cohort_out=alive))
    return pop, stages[::-1] if draw(st.booleans()) else stages


@settings(derandomize=True, max_examples=200, deadline=None)
@given(screen=screens(), policy=st.sampled_from(["round_robin", "ucb"]),
       encoding=st.sampled_from(sorted(ENCODINGS)), seed=st.integers(0, 2**20))
def test_pipeline_matches_dict_oracle(screen, policy, encoding, seed):
    pop, stages = screen
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = run_pipeline(pop, stages, policy=policy, seed=seed, encoding=encoding)
    ref = triage_pipeline(pop, stages, policy, encoding, substream(seed, "pipeline"))
    assert result.final_cohort == ref["final_cohort"]
    assert result.evaluated == ref["evaluated"]
    assert result.expert_severe == ref["expert_severe"]
    assert [(o.index, o.pulls, o.spend_milli, o.survivors, o.u_hat)
            for o in result.stages] == ref["stages"]
    assert result.spend_milli == sum(spend for _, _, spend, _, _ in ref["stages"])


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
        assert pop.ids == (1, 2, 3)
        by_id = {ind.id: ind for ind in pop.individuals}
        assert by_id[1].true_risk is RiskLabel.NO
        assert by_id[2].true_risk is RiskLabel.SEVERE

    def test_expert_records_define_truth(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", [
            "1,0.7,0.1,0.1,0.1", "2,0.1,0.1,0.1,0.7",
        ])
        self.write_human(tmp_path / "human.csv", [
            "1,7,3,severe", "1,8,3,severe", "1,9,3,low",
            "2,7,3,no",
        ])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        by_id = {ind.id: ind for ind in pop.individuals}
        assert by_id[1].true_risk is RiskLabel.SEVERE
        assert by_id[2].true_risk is RiskLabel.NO

    def test_modal_tie_prefers_less_severe(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", ["1,0.25,0.25,0.25,0.25"])
        self.write_human(tmp_path / "human.csv", ["1,7,3,severe", "1,8,3,low"])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        assert {ind.id: ind for ind in pop.individuals}[1].true_risk is RiskLabel.LOW

    def test_u_hat_after_one_expert_pull(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", [
            "1,0.7,0.1,0.1,0.1", "2,0.1,0.1,0.1,0.7", "3,0.1,0.2,0.6,0.1",
        ])
        self.write_human(tmp_path / "human.csv", [
            "1,7,3,no", "2,7,3,severe", "3,7,3,moderate",
        ])
        pop = load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")
        stage = StageSpec(index=3, cost_milli=5350, gain=100.0,
                          budget_milli=3 * 5350, cohort_out=2)
        result = run_pipeline(pop, [stage])
        u_hat = result.stages[0].u_hat
        assert u_hat[2] == ENCODINGS["linear"][RiskLabel.SEVERE]
        assert u_hat[3] == pytest.approx(ENCODINGS["linear"][RiskLabel.MODERATE])
        assert result.final_cohort == (2, 3)

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
            StageSpec(index=1, cost_milli=1, gain=1.0, budget_milli=3, cohort_out=2),
            StageSpec(index=2, cost_milli=90, gain=10.0, budget_milli=180, cohort_out=1),
        ]
        result = run_pipeline(pop, stages)
        assert result.stages[1].u_hat[2] == pytest.approx(1.0)
        assert result.final_cohort == (2,)
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

    def test_duplicate_machine_id(self, tmp_path):
        self.write_machine(tmp_path / "machine.csv", ["1,1,0,0,0", "1,0,1,0,0"])
        self.write_human(tmp_path / "human.csv", [])
        with pytest.raises(ParseError, match="duplicate id 1"):
            load_evaluations(tmp_path / "human.csv", tmp_path / "machine.csv")

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
        real_raw, real_sub, labels, cohorts = triage.substream_raw, triage.substream, [], []

        def counted_raw(prefix, ids, suffix, draws=1):
            labels.extend(ids)
            return real_raw(prefix, ids, suffix, draws)

        monkeypatch.setattr(triage, "substream_raw", counted_raw)
        monkeypatch.setattr(triage, "substream", lambda *path: cohorts.append(path) or real_sub(*path))
        for n, n_severe in ((242, 42), (5000, 833)):
            pop = synth_population(n, n_severe, seed=42)
            labels.clear(), cohorts.clear()
            for name in BASELINES:
                run_baseline(name, pop, seed=42)
            # n NLP labels, n expert labels and one cohort draw per -Sub baseline
            assert len(labels) + len(cohorts) <= 2 * n + 3
            assert len(cohorts) == 3
        # a fresh population derives its own labels, and only those it reads
        fresh = synth_population(242, 42, seed=42)
        labels.clear(), cohorts.clear()
        run_baseline("1Expert-Sub", fresh, seed=42)
        assert len(labels) == SUB_COHORT and len(cohorts) == 1

    def test_batch_labels_equal_one_substream_per_label(self):
        synth = synth_population(242, 42, seed=5)
        inds = list(synth.individuals)
        for stage, tag in ((1, "nlp"), (3, "expert")):
            # the later full batch derives only the labels the first one did not
            part = synth.rater_labels(inds[::3], stage, 2**61 + 9, tag)
            full = synth.rater_labels(inds, stage, 2**61 + 9, tag)
            assert full[::3] == part
            assert full == [synth.pull_label(ind, stage, 0, substream(2**61 + 9, ind.id, tag))
                            for ind in inds]
        # replay: ids of one and two 32-bit words, 1 to 7 recorded labels each
        rng = substream(3, "replay-test")
        replay = Population(individuals=tuple(
            Individual(id=int(i), true_risk=RiskLabel.NO, machine_probs=(0.25,) * 4,
                       recorded={3: tuple(RiskLabel(int(x))
                                          for x in rng.integers(0, 4, size=1 + int(i) % 7))})
            for i in (*range(60), *rng.integers(2**32, 2**62, size=20))))
        for seed in (0, 7, 2**40 + 1):
            got = replay.rater_labels(list(replay.individuals), 3, seed, "expert")
            for ind, lab in zip(replay.individuals, got):
                recorded = ind.recorded[3]
                assert lab is recorded[int(substream(seed, ind.id, "expert").integers(0, len(recorded)))]

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
        small = run_baseline("NLP-Sub", pop, params={"cohort_size": 50}, seed=3)
        assert len(small.evaluated) == 50
        assert small.spend_milli == 50

    def test_nlp_full(self):
        pop = synth_population(242, 42, seed=1)
        result = run_baseline("NLP-Full", pop, seed=1)
        assert result.evaluated == frozenset(pop.ids)
        assert result.spend_milli == 242

    def test_nlp_top_k_degenerate(self):
        pop = synth_population(60, 12, seed=2)
        result = run_baseline("NLP-Top-k", pop, params={"k": 60}, seed=2)
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
        top = run_baseline("NLP-Top-k", pop, params={"k": 2})
        assert top.positives() == frozenset({1, 3})

    def test_cohort_cannot_exceed_population(self):
        pop = synth_population(20, 5, seed=0)
        with pytest.raises(ConfigurationError, match="cohort_size"):
            run_baseline("1Expert-Sub", pop)
        small = run_baseline("1Expert-Sub", pop, params={"cohort_size": 10}, seed=0)
        assert len(small.evaluated) == 10

    def test_unknown_baseline(self):
        pop = synth_population(20, 5, seed=0)
        with pytest.raises(ConfigurationError, match="unknown baseline"):
            run_baseline("2Experts", pop)
        with pytest.raises(ConfigurationError, match="params"):
            run_baseline("NLP-Top-k", pop, params={"kk": 3})
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
        severe = {i.id for i in pop.individuals if i.true_risk == RiskLabel.SEVERE}
        cohort = frozenset(list(sorted(set(pop.ids) - severe))[:58] + sorted(severe))
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
        result = PipelineResult(final_cohort=(1, 2), evaluated=frozenset({1, 2, 3}),
                                expert_severe=frozenset({2, 3}), stages=(), spend_milli=0)
        assert result.positives("mab") == frozenset({1, 2})
        assert result.positives("mab_star") == frozenset({2})
        with pytest.raises(ConfigurationError, match="mode"):
            result.positives("map")
