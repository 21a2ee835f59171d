"""Tiered budgeted screening pipeline.

A population of individuals with hidden 4-level risk labels is screened in
three stages (automated, non-expert, expert). Stage i spends an integer
milli-dollar budget on evaluations, each observation is encoded to [0, 1]
and folded into a gain-weighted risk estimate, and the top-k_i individuals
by estimate survive to the next stage. The final cohort is compared against
the true at-risk set (label Severe) at population level (everyone not
flagged counts as a negative) and cohort level (only evaluated individuals
count). All money is accounted in integer milli-dollars.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .divergence import BOUNDED_UNIT, psi_star_inv
from .errors import ConfigurationError, ParseError, ReferentialError, ValidationError
from .rng import substream

__all__ = [
    "RiskLabel",
    "ENCODINGS",
    "STAGE_COSTS_MILLI",
    "STAGE_GAINS",
    "encode_risk",
    "Individual",
    "Population",
    "synth_population",
    "load_evaluations",
    "StageSpec",
    "allocation_budgets",
    "default_stages",
    "PipelineResult",
    "run_pipeline",
    "BaselineResult",
    "run_baseline",
    "BASELINES",
    "Counts",
    "Metrics",
    "metrics",
    "dollars",
]


class RiskLabel(IntEnum):
    NO = 0
    LOW = 1
    MODERATE = 2
    SEVERE = 3


_LABEL_NAMES = {"no": RiskLabel.NO, "low": RiskLabel.LOW,
                "moderate": RiskLabel.MODERATE, "severe": RiskLabel.SEVERE}

ENCODINGS = {
    "linear": (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0),
    "binary": (0.0, 0.0, 0.0, 1.0),
    "exponential": (0.0, 1.0 / 7.0, 3.0 / 7.0, 1.0),
}

# Per-stage unit cost in milli-dollars ($0.001, $0.09, $5.35) and the
# gain weights that make later stages dominate the risk estimate.
STAGE_COSTS_MILLI = (1, 90, 5350)
STAGE_GAINS = (1.0, 10.0, 100.0)


def parse_label(text: str) -> RiskLabel:
    try:
        return _LABEL_NAMES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown risk label {text!r}") from None


def encode_risk(label: RiskLabel, scheme: str = "linear") -> float:
    """Map a label to [0, 1] under the named encoding scheme."""
    try:
        table = ENCODINGS[scheme]
    except KeyError:
        raise ConfigurationError(f"unknown encoding scheme {scheme!r}") from None
    return table[int(label)]


@dataclass(frozen=True)
class Individual:
    """One screened individual.

    Synthetic individuals carry per-stage confusion rows (probability of each
    observed label given the true one); replay individuals carry recorded
    labels per stage plus the machine probability vector.
    """

    id: int
    true_risk: RiskLabel
    stage_rows: dict | None = None
    recorded: dict | None = None
    machine_probs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Population:
    """An ordered collection of individuals; kind is synthetic or replay."""

    individuals: tuple[Individual, ...]
    kind: str

    def __post_init__(self):
        ids = [ind.id for ind in self.individuals]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate individual ids", field="individuals")

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(ind.id for ind in self.individuals)

    def _index(self) -> dict:
        return {ind.id: ind for ind in self.individuals}

    def pull_label(self, ind: Individual, stage: int, pull_index: int,
                   rng: np.random.Generator) -> RiskLabel:
        """One evaluation: sample the confusion row (synthetic) or replay the
        recorded labels cyclically in file order (replay)."""
        if self.kind == "synthetic":
            row = ind.stage_rows[stage]
            u = rng.random()
            acc = 0.0
            for lab in RiskLabel:
                acc += row[int(lab)]
                if u < acc:
                    return lab
            return RiskLabel.SEVERE
        labels = ind.recorded.get(stage, ())
        if not labels:
            raise ValidationError(f"individual {ind.id} has no recorded stage-{stage} labels",
                                  field="recorded")
        return labels[pull_index % len(labels)]

    def sample_label(self, ind: Individual, stage: int, rng: np.random.Generator) -> RiskLabel:
        """One evaluation by a randomly assigned rater (used by baselines)."""
        if self.kind == "synthetic":
            return self.pull_label(ind, stage, 0, rng)
        labels = ind.recorded.get(stage, ())
        if not labels:
            raise ValidationError(f"individual {ind.id} has no recorded stage-{stage} labels",
                                  field="recorded")
        return labels[int(rng.integers(0, len(labels)))]


def synth_population(
    n: int,
    n_severe: int,
    stage_noise: tuple[float, float, float] = (0.45, 0.30, 0.10),
    seed: int = 0,
) -> Population:
    """Generate a population with exactly ``n_severe`` Severe individuals.

    The remainder splits 50/30/20 across No/Low/Moderate (largest-remainder
    rounding); the label order is shuffled by seed. ``stage_noise`` gives the
    per-stage error probability, spread evenly over the three wrong labels,
    and must be strictly decreasing so later stages are strictly more
    accurate. With noise (0.45, 0.30, 0.10) a single full-coverage expert
    pass has expected sensitivity 0.9.
    """
    if not 0 < n_severe < n:
        raise ValidationError("need 0 < n_severe < n", field="n_severe")
    e1, e2, e3 = stage_noise
    if not (1 > e1 > e2 > e3 >= 0):
        raise ValidationError("stage noise must be strictly decreasing in [0, 1)",
                              field="stage_noise")
    rest = n - n_severe
    weights = (0.5, 0.3, 0.2)
    base = [int(math.floor(w * rest)) for w in weights]
    remainders = sorted(range(3), key=lambda i: (weights[i] * rest) - base[i], reverse=True)
    for i in range(rest - sum(base)):
        base[remainders[i % 3]] += 1
    labels = ([RiskLabel.NO] * base[0] + [RiskLabel.LOW] * base[1]
              + [RiskLabel.MODERATE] * base[2] + [RiskLabel.SEVERE] * n_severe)
    rng = substream(seed, "population")
    rng.shuffle(labels)

    def row(true: RiskLabel, err: float) -> tuple[float, ...]:
        return tuple((1.0 - err) if lab == true else err / 3.0 for lab in RiskLabel)

    individuals = tuple(
        Individual(
            id=i,
            true_risk=labels[i],
            stage_rows={s + 1: row(labels[i], e) for s, e in enumerate((e1, e2, e3))},
        )
        for i in range(n)
    )
    return Population(individuals=individuals, kind="synthetic")


def _modal_label(labels) -> RiskLabel:
    counts = {lab: 0 for lab in RiskLabel}
    for lab in labels:
        counts[lab] += 1
    # ties resolve toward the less severe label
    return max(RiskLabel, key=lambda lab: (counts[lab], -int(lab)))


def load_evaluations(human_path, machine_path) -> Population:
    """Build a replay population from recorded evaluations.

    ``machine_path`` rows are ``id,p_no,p_low,p_mod,p_sev`` (probabilities
    summing to 1 within 1e-6) and define the roster. ``human_path`` rows are
    ``id,rater_id,stage,label``; when present, its id set must equal the
    roster. True risk is the modal recorded expert label (ties toward less
    severe), falling back to the machine argmax for individuals without
    expert records.
    """
    probs: dict[int, tuple[float, ...]] = {}
    with open(machine_path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "p_no", "p_low", "p_mod", "p_sev"]:
            raise ParseError(f"bad machine header {header}", line=1)
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 5:
                raise ParseError(f"expected 5 fields, got {len(rec)}", line=lineno)
            try:
                ind_id = int(rec[0])
                vec = tuple(float(x) for x in rec[1:])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if ind_id in probs:
                raise ParseError(f"duplicate id {ind_id}", line=lineno)
            if any(p < 0 for p in vec) or abs(sum(vec) - 1.0) > 1e-6:
                raise ParseError(f"probabilities for id {ind_id} do not sum to 1", line=lineno)
            probs[ind_id] = vec
    recorded: dict[int, dict[int, list[RiskLabel]]] = {}
    with open(human_path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "rater_id", "stage", "label"]:
            raise ParseError(f"bad human header {header}", line=1)
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 4:
                raise ParseError(f"expected 4 fields, got {len(rec)}", line=lineno)
            try:
                ind_id = int(rec[0])
                stage = int(rec[2])
                label = parse_label(rec[3])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if stage not in (1, 2, 3):
                raise ParseError(f"stage must be 1, 2 or 3, got {stage}", line=lineno)
            recorded.setdefault(ind_id, {}).setdefault(stage, []).append(label)
    if recorded and set(recorded) != set(probs):
        only_human = sorted(set(recorded) - set(probs))
        only_machine = sorted(set(probs) - set(recorded))
        raise ReferentialError(
            f"id sets differ: only in human file {only_human}, only in machine file {only_machine}"
        )
    individuals = []
    for ind_id in sorted(probs):
        recs = {stage: tuple(labels) for stage, labels in recorded.get(ind_id, {}).items()}
        expert = recs.get(3, ())
        true = _modal_label(expert) if expert else RiskLabel(int(np.argmax(probs[ind_id])))
        individuals.append(Individual(id=ind_id, true_risk=true, recorded=recs,
                                      machine_probs=probs[ind_id]))
    return Population(individuals=tuple(individuals), kind="replay")


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: unit cost, gain weight, budget, survivor count."""

    index: int
    cost_milli: int
    gain: float
    budget_milli: int
    cohort_out: int

    def __post_init__(self):
        if self.index < 1:
            raise ValidationError("must be >= 1", field="index")
        if self.cost_milli <= 0:
            raise ValidationError("must be positive", field="cost_milli")
        if self.gain <= 0:
            raise ValidationError("must be positive", field="gain")
        if self.budget_milli < 0:
            raise ValidationError("must be non-negative", field="budget_milli")
        if self.cohort_out < 1:
            raise ValidationError("must be >= 1", field="cohort_out")


# (T2, T3) milli-dollar splits for the named total budgets; stage 1 is
# budgeted separately at one pull per individual.
_ALLOCATION_TABLE = {
    (553, None): (18_000, 535_000),
    (1300, "more3"): (200_000, 1_100_000),
    (1300, "more2"): (765_000, 535_000),
    (1300, "equal"): (620_000, 680_000),
    (2200, "more3"): (300_000, 1_900_000),
    (2200, "more2"): (1_500_000, 700_000),
    (2200, "equal"): (1_100_000, 1_100_000),
}


def _norm_scheme(scheme: str | None) -> str | None:
    if scheme is None:
        return None
    return scheme.strip().lower().replace(" ", "")


def allocation_budgets(total_dollars: int, scheme: str | None = None) -> tuple[int, int]:
    """(T2, T3) in milli-dollars for a named total budget.

    $553 admits a single split (one pull per stage-2 entrant, one per
    stage-3 entrant); $1,300 and $2,200 require a scheme of more3, more2 or
    equal.
    """
    total = int(total_dollars)
    key = (total, None) if total == 553 else (total, _norm_scheme(scheme))
    try:
        return _ALLOCATION_TABLE[key]
    except KeyError:
        raise ConfigurationError(
            f"no budget split for total ${total_dollars} scheme {scheme!r}"
        ) from None


def default_stages(
    n: int,
    k: tuple[int, int, int] = (200, 100, 50),
    total_dollars: int = 553,
    scheme: str | None = None,
) -> list[StageSpec]:
    """Three stages with protocol costs/gains and a named budget split."""
    k1, k2, k3 = k
    if not n > k1 >= k2 >= k3 >= 1:
        raise ValidationError(f"need n > k1 >= k2 >= k3 >= 1, got n={n}, k={k}",
                              field="cohort_out")
    t2, t3 = allocation_budgets(total_dollars, scheme)
    budgets = (n * STAGE_COSTS_MILLI[0], t2, t3)
    return [
        StageSpec(index=i + 1, cost_milli=STAGE_COSTS_MILLI[i], gain=STAGE_GAINS[i],
                  budget_milli=budgets[i], cohort_out=(k1, k2, k3)[i])
        for i in range(3)
    ]


@dataclass(frozen=True)
class StageOutcome:
    index: int
    pulls: int
    spend_milli: int
    survivors: tuple[int, ...]
    u_hat: dict


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one pipeline run; positives depend on the evaluation mode.

    ``mab`` counts every final-cohort member as flagged; ``mab_star`` only
    those whose expert evaluations included a Severe observation.
    """

    final_cohort: tuple[int, ...]
    evaluated: frozenset
    expert_severe: frozenset
    stages: tuple[StageOutcome, ...]
    spend_milli: int

    def positives(self, mode: str = "mab") -> frozenset:
        if mode == "mab":
            return frozenset(self.final_cohort)
        if mode == "mab_star":
            return frozenset(self.final_cohort) & self.expert_severe
        raise ConfigurationError(f"unknown mode {mode!r}")


def run_pipeline(
    pop: Population,
    stages: list[StageSpec],
    policy: str = "round_robin",
    seed: int = 0,
    encoding: str = "linear",
    ucb_alpha: float = 3.0,
) -> PipelineResult:
    """Run the staged screen and return the final cohort with accounting.

    ``round_robin`` cycles the survivors in id order until the stage budget
    cannot fund another pull; ``ucb`` picks the survivor maximizing the
    current estimate plus an optimism bonus on the within-stage pull counts
    (never-pulled survivors first, lowest id). Cohort cuts keep the top
    ``cohort_out`` by gain-weighted encoded mean, ties toward the lower id.
    """
    if policy not in ("round_robin", "ucb"):
        raise ConfigurationError(f"unknown policy {policy!r}")
    if not stages:
        raise ValidationError("need at least one stage", field="stages")
    stages = sorted(stages, key=lambda st: st.index)
    n = len(pop.individuals)
    prev = n
    for st in stages:
        if st.cohort_out > prev:
            raise ValidationError(
                f"stage {st.index} keeps {st.cohort_out} of {prev}; cohorts must not grow",
                field="cohort_out",
            )
        prev = st.cohort_out
    index = pop._index()
    rng = substream(seed, "pipeline")
    survivors = sorted(index)
    w_enc = {i: 0.0 for i in survivors}
    w_sum = {i: 0.0 for i in survivors}
    pull_counts: dict[tuple[int, int], int] = {}
    evaluated: set[int] = set()
    expert_severe: set[int] = set()
    outcomes: list[StageOutcome] = []

    def u_hat(ind_id: int) -> float:
        return w_enc[ind_id] / w_sum[ind_id] if w_sum[ind_id] > 0 else 0.0

    for st in stages:
        max_pulls = st.budget_milli // st.cost_milli
        if max_pulls == 0:
            warnings.warn(f"stage {st.index}: budget funds no pulls; stage skipped", stacklevel=2)
        elif max_pulls < len(survivors):
            warnings.warn(
                f"stage {st.index}: budget funds {max_pulls} pulls for {len(survivors)} survivors",
                stacklevel=2,
            )
        stage_counts = {i: 0 for i in survivors}
        pulls = 0
        for j in range(max_pulls):
            if policy == "round_robin":
                target = survivors[j % len(survivors)]
            else:
                never = [i for i in survivors if stage_counts[i] == 0]
                if never:
                    target = never[0]
                else:
                    t_stage = j + 1
                    target = max(
                        survivors,
                        key=lambda i: (u_hat(i) + psi_star_inv(
                            BOUNDED_UNIT, ucb_alpha * math.log(t_stage) / stage_counts[i]), -i),
                    )
            key = (target, st.index)
            label = pop.pull_label(index[target], st.index, pull_counts.get(key, 0), rng)
            pull_counts[key] = pull_counts.get(key, 0) + 1
            stage_counts[target] += 1
            evaluated.add(target)
            w_enc[target] += st.gain * encode_risk(label, encoding)
            w_sum[target] += st.gain
            if st.index == 3 and label == RiskLabel.SEVERE:
                expert_severe.add(target)
            pulls += 1
        survivors = sorted(survivors, key=lambda i: (-u_hat(i), i))[: st.cohort_out]
        survivors.sort()
        outcomes.append(StageOutcome(
            index=st.index, pulls=pulls, spend_milli=pulls * st.cost_milli,
            survivors=tuple(survivors), u_hat={i: u_hat(i) for i in survivors},
        ))
    return PipelineResult(
        final_cohort=tuple(survivors),
        evaluated=frozenset(evaluated),
        expert_severe=frozenset(expert_severe),
        stages=tuple(outcomes),
        spend_milli=sum(o.spend_milli for o in outcomes),
    )


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of a reference screening approach; positives are fixed."""

    name: str
    evaluated: frozenset
    _positives: frozenset
    spend_milli: int
    n_evaluations: int

    def positives(self, mode: str = "mab") -> frozenset:
        return self._positives


BASELINES = (
    "4Experts", "1Expert", "4Experts-Sub", "1Expert-Sub",
    "NLP-Full", "NLP-Sub", "NLP-Top-k", "NLP-Top-100+1Expert-Sub",
)
SUB_COHORT = 100
"""Default size of the random cohort the COHORT_BASELINES evaluate."""
COHORT_BASELINES = ("4Experts-Sub", "1Expert-Sub", "NLP-Sub")

_EXPERT_COST = STAGE_COSTS_MILLI[2]
_NLP_COST = STAGE_COSTS_MILLI[0]


def _nlp_label(pop: Population, ind: Individual, seed: int) -> RiskLabel:
    """The automated stage's prediction for one individual."""
    if pop.kind == "replay":
        return RiskLabel(int(np.argmax(ind.machine_probs)))
    return pop.sample_label(ind, 1, substream(seed, ind.id, "nlp"))


def _nlp_score(pop: Population, ind: Individual, seed: int) -> float:
    """Confidence that the individual is Severe, for ranking."""
    if pop.kind == "replay":
        return float(ind.machine_probs[int(RiskLabel.SEVERE)])
    return encode_risk(_nlp_label(pop, ind, seed), "linear")


def _expert_label(pop: Population, ind: Individual, seed: int) -> RiskLabel:
    return pop.sample_label(ind, 3, substream(seed, ind.id, "expert"))


def _sub_cohort(pop: Population, size: int, seed: int) -> list[Individual]:
    if not 0 < size <= len(pop.individuals):
        raise ConfigurationError(
            f"cohort_size {size} outside [1, {len(pop.individuals)}]")
    rng = substream(seed, "cohort")
    picks = rng.choice(len(pop.individuals), size=size, replace=False)
    return [pop.individuals[i] for i in sorted(int(p) for p in picks)]


def run_baseline(name: str, pop: Population, params: dict | None = None,
                 seed: int = 0) -> BaselineResult:
    """Run a reference approach and return its flagged set with accounting.

    ``params`` keys: ``cohort_size`` (default SUB_COHORT) for the
    COHORT_BASELINES and ``k`` (default 100) for NLP-Top-k.
    """
    params = dict(params or {})
    cohort_size = int(params.pop("cohort_size", SUB_COHORT))
    top_k = int(params.pop("k", 100))
    if params:
        raise ConfigurationError(f"unknown baseline params {sorted(params)}")
    everyone = list(pop.individuals)
    n = len(everyone)
    if name == "4Experts":
        positives = {ind.id for ind in everyone if ind.true_risk == RiskLabel.SEVERE}
        return BaselineResult(name, frozenset(pop.ids), frozenset(positives),
                              4 * n * _EXPERT_COST, 4 * n)
    if name == "1Expert":
        positives = {ind.id for ind in everyone
                     if _expert_label(pop, ind, seed) == RiskLabel.SEVERE}
        return BaselineResult(name, frozenset(pop.ids), frozenset(positives),
                              n * _EXPERT_COST, n)
    if name == "4Experts-Sub":
        cohort = _sub_cohort(pop, cohort_size, seed)
        positives = {ind.id for ind in cohort if ind.true_risk == RiskLabel.SEVERE}
        return BaselineResult(name, frozenset(i.id for i in cohort), frozenset(positives),
                              4 * len(cohort) * _EXPERT_COST, 4 * len(cohort))
    if name == "1Expert-Sub":
        cohort = _sub_cohort(pop, cohort_size, seed)
        positives = {ind.id for ind in cohort
                     if _expert_label(pop, ind, seed) == RiskLabel.SEVERE}
        return BaselineResult(name, frozenset(i.id for i in cohort), frozenset(positives),
                              len(cohort) * _EXPERT_COST, len(cohort))
    if name == "NLP-Full":
        positives = {ind.id for ind in everyone
                     if _nlp_label(pop, ind, seed) == RiskLabel.SEVERE}
        return BaselineResult(name, frozenset(pop.ids), frozenset(positives),
                              n * _NLP_COST, n)
    if name == "NLP-Sub":
        cohort = _sub_cohort(pop, cohort_size, seed)
        positives = {ind.id for ind in cohort
                     if _nlp_label(pop, ind, seed) == RiskLabel.SEVERE}
        return BaselineResult(name, frozenset(i.id for i in cohort), frozenset(positives),
                              len(cohort) * _NLP_COST, len(cohort))
    if name == "NLP-Top-k":
        ranked = sorted(everyone, key=lambda ind: (-_nlp_score(pop, ind, seed), ind.id))
        positives = {ind.id for ind in ranked[:top_k]}
        return BaselineResult(name, frozenset(pop.ids), frozenset(positives),
                              n * _NLP_COST, n)
    if name == "NLP-Top-100+1Expert-Sub":
        ranked = sorted(everyone, key=lambda ind: (-_nlp_score(pop, ind, seed), ind.id))
        cohort = ranked[:100]
        positives = {ind.id for ind in cohort
                     if _expert_label(pop, ind, seed) == RiskLabel.SEVERE}
        return BaselineResult(name, frozenset(pop.ids), frozenset(positives),
                              n * _NLP_COST + len(cohort) * _EXPERT_COST, n + len(cohort))
    raise ConfigurationError(f"unknown baseline {name!r}; known: {BASELINES}")


@dataclass(frozen=True)
class Counts:
    tp: int
    fp: int
    fn: int
    tn: int


def _rate(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


@dataclass(frozen=True)
class Metrics:
    """Confusion counts and rates at population and cohort level.

    Rates are None, not 0, when their denominator is empty.
    """

    population: Counts
    cohort: Counts
    pop_sensitivity: float | None
    pop_precision: float | None
    pop_specificity: float | None
    cohort_sensitivity: float | None
    cohort_precision: float | None
    cohort_specificity: float | None


def metrics(result, pop: Population, mode: str = "mab") -> Metrics:
    """Score a result against the true Severe set.

    Population counts run over everyone (unevaluated individuals are
    negatives by definition); cohort counts restrict to the evaluated set.
    """
    positives = result.positives(mode)
    severe = {ind.id for ind in pop.individuals if ind.true_risk == RiskLabel.SEVERE}

    def count(universe) -> Counts:
        tp = len(universe & severe & positives)
        fp = len((universe & positives) - severe)
        fn = len((universe & severe) - positives)
        tn = len(universe) - tp - fp - fn
        return Counts(tp=tp, fp=fp, fn=fn, tn=tn)

    pop_counts = count(set(pop.ids))
    coh_counts = count(set(result.evaluated))
    return Metrics(
        population=pop_counts,
        cohort=coh_counts,
        pop_sensitivity=_rate(pop_counts.tp, pop_counts.tp + pop_counts.fn),
        pop_precision=_rate(pop_counts.tp, pop_counts.tp + pop_counts.fp),
        pop_specificity=_rate(pop_counts.tn, pop_counts.tn + pop_counts.fp),
        cohort_sensitivity=_rate(coh_counts.tp, coh_counts.tp + coh_counts.fn),
        cohort_precision=_rate(coh_counts.tp, coh_counts.tp + coh_counts.fp),
        cohort_specificity=_rate(coh_counts.tn, coh_counts.tn + coh_counts.fp),
    )


def dollars(milli: int) -> float:
    """Milli-dollar to dollar conversion (exact for cents)."""
    return milli / 1000.0
